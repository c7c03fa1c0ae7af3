"""End-to-end acceptance battery.

Eleven properties, each with a stated tolerance and a wall-clock budget;
every test prints one PASS line with its headline number so a `-s` run
reads as a checklist.  Oracles are either closed forms frozen inline or
exact enumerations computed on the spot.
"""
import json
import math
import time

import numpy as np
import pytest

from supcompare import bounds as bnd
from supcompare import checks
from supcompare import cli
from supcompare import distributions as dists
from supcompare import estimator as est
from supcompare import experiments as xp
from supcompare import index_sets as isets
from supcompare import ou_stein as ou
from supcompare import softmax as sm

SQRT_2_OVER_PI = 0.7978845608028654
DIAGCUBE16_U1 = 3.3807289932289937
DIAGCUBE16_U2 = 6.663994608237443
# (1 - sqrt(2/pi)) / 2^{3/2}: two-spin gap at N=2, both sides closed form
TWO_SPIN_N2_GAP = 0.07145859881939559


def _random_set(rng, n_max=6, card_max=12, scale=1.0):
    n = int(rng.integers(2, n_max + 1))
    card = int(rng.integers(2, card_max + 1))
    return isets.build_explicit(scale * rng.standard_normal((card, n)))


def test_sandwich_bulk():
    """max <= F_beta <= max + log|T|/beta on 10^4 instances, 1e-12 slack."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 17))
        card = int(rng.integers(2, 65))
        pts = rng.standard_normal((card, n)) * 10.0 ** rng.uniform(-1, 1)
        T = isets.build_explicit(pts)
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-1, 1)
        beta = 10.0 ** rng.uniform(-2, 2)
        sup = float((T.points @ x).max())
        F = sm.log_partition(T, beta, x)
        slack = 1e-12 * max(1.0, abs(sup), abs(F))
        lo_viol = sup - F - slack
        hi_viol = F - (sup + math.log(card) / beta) - slack
        worst = max(worst, lo_viol, hi_viol)
        assert lo_viol <= 0.0 and hi_viol <= 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS sandwich: 10^4 instances, worst slack excess {worst:.3e}, "
          f"{elapsed:.1f}s")


def test_derivative_formulas_bulk():
    """Central-moment partials match finite differences to rel 1e-4 on 10^3
    instances; the moment bounds on the second/third/fourth partials hold."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        T = _random_set(rng, n_max=6, card_max=10)
        x = rng.standard_normal(T.dim)
        beta = float(rng.uniform(0.3, 3.0))
        i = int(rng.integers(T.dim))
        for order in (2, 3, 4):
            rel = checks.fd_error(T, beta, x, i, order)
            worst = max(worst, rel)
            assert rel <= 1e-4
        assert sm.derivative_bound_check(T, beta, x, i).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS derivatives: 10^3 instances x orders 2-4, worst rel "
          f"{worst:.2e}, bounds clean, {elapsed:.1f}s")


def test_lipschitz_log_moment_bulk():
    """Log fourth-moment shift bounded by 2 beta sup|<t, x-y>| (coordinate
    form 2 beta Rinf |x_i - y_i|): 10^3 instances, zero violations."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for j in range(1000):
        T = _random_set(rng, n_max=6, card_max=10)
        x = rng.standard_normal(T.dim)
        beta = float(rng.uniform(0.3, 5.0))
        i = int(rng.integers(T.dim))
        y = x.copy()
        if j % 5 == 0:
            y += rng.normal(0.0, 0.3, size=T.dim)  # general perturbation
        else:
            y[i] += float(rng.uniform(-1.0, 1.0))  # coordinate form
        rep = sm.lipschitz_log_moment_check(T, beta, x, y, i)
        assert rep.ok, (j, rep)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS lipschitz: 10^3 instances, zero violations, {elapsed:.1f}s")


def _random_polynomial(rng, n):
    terms = {}
    for _ in range(int(rng.integers(2, 7))):
        exps = np.zeros(n, dtype=int)
        for _ in range(int(rng.integers(0, 5))):
            exps[int(rng.integers(n))] += 1
        terms[tuple(int(e) for e in exps)] = float(rng.uniform(-2.0, 2.0))
    return ou.Polynomial(n, terms)


def test_stein_exact_small_instances():
    """Both discrete integral representations of E L f match exactly (1e-10)
    under sign enumeration, for degree-<=4 polynomials and smoothed maxima;
    the univariate quartic gives 8 on both sides."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    rad = dists.rademacher()
    for _ in range(30):
        n = int(rng.integers(1, 9))
        f = _random_polynomial(rng, n)
        for variant in ("third", "fourth"):
            rep = ou.stein_representation_check(f, rad, variant)
            assert rep.exact and rep.ok and rep.diff <= 1e-10
    for _ in range(12):
        T = _random_set(rng, n_max=8, card_max=10)
        f = ou.SoftmaxFunction(T, float(rng.uniform(0.4, 2.0)))
        for variant in ("third", "fourth"):
            rep = ou.stein_representation_check(f, rad, variant)
            assert rep.exact and rep.ok and rep.diff <= 1e-10
    quartic = ou.Polynomial.coordinate_power(1, 0, 4)
    for variant in ("third", "fourth"):
        rep = ou.stein_representation_check(quartic, rad, variant)
        assert abs(rep.lhs - 8.0) <= 1e-10
        assert abs(rep.rhs[0] - 8.0) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS stein: 42 exhaustive instances x 2 variants <= 1e-10, "
          f"quartic = 8 both sides, {elapsed:.1f}s")


def test_ou_poisson_identities():
    """f - Ef(G) = -L PP f (= -PP L f for polynomials): closed forms exact,
    Monte-Carlo within 4 combined errors; semigroup and ergodic limits."""
    start = time.perf_counter()

    # linear: PP f = f, gaussian mean 0
    lin = ou.Polynomial.linear([2.0, -0.5])
    x2 = np.array([0.3, -1.2])
    pot = ou.ou_potential(lin, x2)
    assert pot.method == "closed-form" and pot.std_error == 0.0
    assert abs(pot.value - lin(x2)) <= 1e-12
    rep = ou.poisson_identity_check(lin, x2)
    assert rep.exact and rep.ok and rep.tolerance == 1e-10
    assert abs(rep.lhs - rep.rhs[1]) <= 1e-10

    # x_1^2: PP f = (x_1^2 - 1)/2
    sq = ou.Polynomial.coordinate_power(2, 0, 2)
    pot = ou.ou_potential(sq, x2)
    assert abs(pot.value - (x2[0] ** 2 - 1.0) / 2.0) <= 1e-12
    rep = ou.poisson_identity_check(sq, x2)
    assert rep.exact and rep.ok

    rng = np.random.default_rng(505)
    poly = _random_polynomial(rng, 3)
    x3 = np.array([0.4, -0.2, 0.9])
    rep = ou.poisson_identity_check(poly, x3)
    assert rep.exact and rep.ok
    rep = ou.semigroup_check(poly, 0.35, 0.8, x3)
    assert rep.ok and rep.diff <= 1e-10
    assert ou.ergodic_check(poly, 3.0, x3).ok

    T = _random_set(rng, n_max=3, card_max=5)
    soft = ou.SoftmaxFunction(T, 0.8)
    xs = 0.5 * rng.standard_normal(T.dim)
    stream = dists.RandomStream(505)
    rep = ou.poisson_identity_check(soft, xs, samples=2048,
                                    stream=stream.substream("poisson"))
    assert (not rep.exact) and rep.ok
    assert ou.semigroup_check(soft, 0.5, 0.7, xs,
                              stream=stream.substream("semi")).ok
    assert ou.ergodic_check(soft, 4.0, xs,
                            stream=stream.substream("ergodic")).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS ou/poisson: closed forms exact, MC within 4 errors, "
          f"semigroup+ergodic clean, {elapsed:.1f}s")


def test_complexity_oracles():
    """r(basis n) = 1 - 2^{1-n} exactly for n <= 10, covered by MC at 10^6
    within 5 std errors; g({+-e_1}) covers sqrt(2/pi) at 10^6."""
    start = time.perf_counter()
    for n in range(2, 11):
        T = isets.make_basis_family(n)
        exact = est.exact_rademacher_complexity(T)
        assert exact.mean == 1.0 - 2.0 ** (1 - n)
        assert exact.std_error == 0.0

    T8 = isets.make_basis_family(8)
    mc = est.estimate_complexity(T8, dists.rademacher(), 10 ** 6,
                                 dists.RandomStream(606).substream("r-basis8"))
    dev_r = abs(mc.mean - (1.0 - 2.0 ** -7))
    assert dev_r <= 5.0 * mc.std_error

    Tpm = isets.make_basis_family(1, "signed")
    mg = est.estimate_complexity(Tpm, dists.gaussian(), 10 ** 6,
                                 dists.RandomStream(606).substream("g-abs"))
    dev_g = abs(mg.mean - SQRT_2_OVER_PI)
    assert dev_g <= 5.0 * mg.std_error
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS oracles: enumeration exact n<=10, MC devs "
          f"{dev_r / mc.std_error:.2f}se / {dev_g / mg.std_error:.2f}se, "
          f"{elapsed:.1f}s")


def test_gaussian_self_comparison():
    """With xi = G the estimated gap is within 4 propagated std errors of 0
    in at least 95 of 100 seeds."""
    start = time.perf_counter()
    d = [float(j) ** -0.3 for j in range(1, 9)]
    T = isets.make_diagonal_cube(d)
    hits = 0
    for seed in range(100):
        rep = bnd.error_report(T, dists.gaussian(), 8000,
                               dists.RandomStream(seed).substream("self"))
        if rep.gap <= 4.0 * rep.gap_std_error:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 95
    assert elapsed < 120.0
    print(f"PASS self-comparison: {hits}/100 seeds within 4se, {elapsed:.1f}s")


def test_phase_curve_crossovers():
    """Curve crossings at u1 = (R4/Rinf)^4 and u2 = (R2/Rinf)^2 to 1e-12,
    ordering max(fourth, sup) <= trivial on u <= u2 for 10^3 profiles, and
    the n=16, alpha=1/4 cube window is (3.381, 6.664) to three decimals."""
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(1000):
        T = _random_set(rng, n_max=6, card_max=12,
                        scale=10.0 ** rng.uniform(-1, 1))
        p = isets.geometric_profile(T)
        u1, u2 = p.u1, p.u2
        res1 = abs(p.r4 * u1 ** 0.75 - p.rinf * u1)
        res2 = abs(math.sqrt(u2) * p.r2
                   - u2 ** 0.75 * math.sqrt(p.r2 * p.rinf))
        assert res1 <= 1e-12 * max(1.0, p.rinf * u1)
        assert res2 <= 1e-12 * max(1.0, math.sqrt(u2) * p.r2)
        for u in np.linspace(u2 / 20.0, u2, 20):
            t = math.sqrt(u) * p.r2
            assert max(p.r4 * u ** 0.75, p.rinf * u) <= t * (1 + 1e-12)

    d = [float(j) ** -0.25 for j in range(1, 17)]
    cube = isets.make_diagonal_cube(d, k=6)
    p = isets.geometric_profile(cube)
    u1, u2 = p.u1, p.u2
    assert abs(u1 - DIAGCUBE16_U1) <= 1e-12
    assert abs(u2 - DIAGCUBE16_U2) <= 1e-12
    assert round(u1, 3) == 3.381 and round(u2, 3) == 6.664
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS phase curves: crossings exact on 10^3 profiles, window "
          f"({u1:.3f}, {u2:.3f}), {elapsed:.1f}s")


def test_two_spin_universality_sweep():
    """Two-spin gap * N^{1/4} stays within a factor 3 over the even grid
    N in {4,...,14} at 10^5 replicates; the N=2 gap has a closed form."""
    start = time.perf_counter()
    res = xp.spin_glass_universality((4, 6, 8, 10, 12, 14),
                                     dists.rademacher(), 10 ** 5,
                                     dists.RandomStream(909).substream("sk"))
    ratio = res.summary["scaled_max_over_min"]
    assert ratio <= 3.0

    res2 = xp.spin_glass_universality((2,), dists.rademacher(), 10 ** 5,
                                      dists.RandomStream(909).substream("n2"))
    row = res2.rows[0]
    closed = (1.0 - math.sqrt(2.0 / math.pi)) / 2.0 ** 1.5
    assert abs(closed - TWO_SPIN_N2_GAP) <= 1e-15
    assert abs(row["gap"] - closed) <= 4.0 * row["gap_se"]
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"PASS two-spin: scaled max/min {ratio:.3f} <= 3, N=2 gap "
          f"{row['gap']:.5f} vs {closed:.5f}, {elapsed:.0f}s")


def test_heavy_tail_growth_sweep():
    """Laplace-vs-Gaussian gap over basis sets n = 2^4..2^14: gap/log n has
    max/min <= 2 while gap/(log n)^{3/4} trends up (Spearman >= 0.8)."""
    start = time.perf_counter()
    n_list = [2 ** k for k in range(4, 15)]
    res = xp.heavy_tail_growth(n_list, 20_000,
                               dists.RandomStream(1010).substream("heavy"))
    ratio = res.summary["ratio_log_max_over_min"]
    rho = res.summary["ratio_log34_spearman"]
    assert ratio <= 2.0
    assert rho >= 0.8
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"PASS heavy tail: ratio_log max/min {ratio:.3f} <= 2, spearman "
          f"{rho:.2f} >= 0.8, {elapsed:.0f}s")


CLI_RUNS = [
    ["estimate", "set=basis:n=6", "beta=2.0", "replicates=2000", "seed=42"],
    ["bounds", "set=diagcube:n=6,alpha=0.25",
     "distribution=scaled-rademacher:1.5", "replicates=2000", "paired=1",
     "seed=7"],
    ["sudakov", "set=basis:n=8", "seed=7"],
    ["laplace", "n_list=16,64,256", "replicates=2000", "seed=7"],
    ["sk", "N_list=4,6", "replicates=2000", "seed=7"],
    ["tensor", "N=6", "m=2", "replicates=2000", "seed=7"],
    ["phase-curves", "set=diagcube:n=16,alpha=0.25,k=4"],
    ["verify", "softmax", "seed=1"],
    ["verify", "gibbs", "seed=1"],
    ["verify", "stein", "seed=1"],
]


def test_cli_rerun_determinism(tmp_path):
    """Every subcommand run twice with the same config emits byte-identical
    CSV bodies."""
    start = time.perf_counter()
    for k, argv in enumerate(CLI_RUNS):
        dirs = [tmp_path / f"run{k}-{side}" for side in "ab"]
        names = set()
        for out in dirs:
            code = cli.main(argv + [f"output_dir={out}", "format=csv"])
            assert code == 0, argv
            names |= {p.name for p in out.glob("*.csv")}
        assert names
        for name in sorted(names):
            a, b = dirs[0] / name, dirs[1] / name
            assert a.read_bytes() == b.read_bytes(), name
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS cli determinism: {len(CLI_RUNS)} subcommand configs "
          f"byte-identical on rerun, {elapsed:.0f}s")
