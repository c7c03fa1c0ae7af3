import dataclasses
import math
import statistics

import numpy as np
import pytest
from scipy import integrate, special

from supcompare import distributions as dists

# quadrature oracles for the absolute third moments
GAUSS_ABS_THIRD = 1.5957691216057308      # 2 sqrt(2/pi)
UNIFORM_ABS_THIRD = 1.299038105676658     # 3 sqrt(3)/4
LAPLACE_NORM_ABS_THIRD = 2.1213203435596424  # 3/sqrt(2)

# moment_violations flags a moment this many standard errors off
MOMENT_Z = 5.0


def moment_violations(dist, sample_count: int, stream) -> list:
    """The declared moments (mean zero, variance, third, fourth) and bound
    that a sample of ``dist`` contradicts: a moment MOMENT_Z standard
    errors off, or, where its sampling variance is exactly zero (lattice
    laws), off at all; a draw past the declared bound."""
    x = dist.sample(stream.generator(), sample_count)
    m1, m2, m3, m4, m6, m8 = (float(np.mean(x ** k))
                              for k in (1, 2, 3, 4, 6, 8))
    violations = []
    for label, emp, decl, var in (
            ("mean", m1, 0.0, m2 - m1 ** 2),
            ("variance", m2, dist.variance, m4 - m2 ** 2),
            ("third", m3, dist.third_moment, m6 - m3 ** 2),
            ("fourth", m4, dist.fourth, m8 - m4 ** 2)):
        se = math.sqrt(max(var, 0.0) / sample_count)
        diff = abs(emp - decl)
        if diff > MOMENT_Z * se or (se == 0.0 and diff != 0.0):
            violations.append(label)
    if (dist.bound is not None
            and float(np.max(np.abs(x))) > dist.bound * (1 + 1e-12)):
        violations.append("bound")
    return violations


def test_declared_moments():
    g = dists.gaussian()
    assert g.variance == 1.0 and g.third_moment == 0.0
    assert g.abs_third == pytest.approx(GAUSS_ABS_THIRD, abs=1e-15)
    assert g.fourth == 3.0 and g.bound is None

    u = dists.uniform_symmetric()
    assert u.variance == 1.0
    assert u.abs_third == pytest.approx(UNIFORM_ABS_THIRD, abs=1e-15)
    assert u.fourth == pytest.approx(1.8)
    assert u.bound == pytest.approx(math.sqrt(3.0))

    lap = dists.laplace(False)
    assert (lap.variance, lap.abs_third, lap.fourth) == (2.0, 6.0, 24.0)
    lan = dists.laplace(True)
    assert lan.variance == 1.0 and lan.fourth == 6.0
    assert lan.abs_third == pytest.approx(LAPLACE_NORM_ABS_THIRD, abs=1e-15)

    r = dists.rademacher()
    assert (r.variance, r.abs_third, r.fourth, r.bound) == (1.0, 1.0, 1.0, 1.0)

    s = dists.scaled_rademacher(2.0)
    assert (s.variance, s.abs_third, s.fourth, s.bound) == (1.0, 2.0, 4.0, 2.0)
    assert s.sigma3 == pytest.approx(2.0 ** (1 / 3))
    assert s.sigma4 == pytest.approx(math.sqrt(2.0))
    for M in (0.5, math.inf, math.nan, 1e200):
        with pytest.raises(ValueError):
            dists.scaled_rademacher(M)

    # two-point at a=2: values 2 (prob 1/5) and -1/2 (prob 4/5)
    t = dists.two_point(2.0)
    assert t.variance == 1.0
    assert t.third_moment == pytest.approx(1.5)
    assert t.abs_third == pytest.approx(1.7)
    assert t.fourth == pytest.approx(3.25)
    assert t.bound == 2.0
    # every declared moment must be a finite float
    for a in (0.0, -1.0, math.nan, math.inf, 1e-300, 1e200):
        with pytest.raises(ValueError):
            dists.two_point(a)


def test_from_name():
    assert dists.from_name("gaussian").name == "gaussian"
    assert dists.from_name("laplace-normalized").variance == 1.0
    assert dists.from_name("scaled-rademacher:3").bound == 3.0
    assert dists.from_name("scaled-rademacher:3").name == \
        "scaled-rademacher:3.0"
    for bad in ("cauchy", "gaussian:2", "scaled-rademacher", "two-point:x"):
        with pytest.raises(ValueError):
            dists.from_name(bad)
    with pytest.raises(ValueError, match="two-point:"):
        dists.from_name("cauchy")
    for bad in ("scaled-rademacher:inf", "scaled-rademacher:nan",
                "two-point:nan", "two-point:inf", "two-point:1e-300"):
        with pytest.raises(ValueError):
            dists.from_name(bad)


def test_name_is_the_cli_spelling():
    laws = [make(2.5) if kind.endswith(":") else make()
            for kind, make in dists.LAWS.items()]
    assert len({d.name for d in laws}) == len(dists.LAWS)
    for d in laws:
        assert dists.from_name(d.name) == d


def test_parametric_draws_are_pinned():
    # the first draws from RandomStream(1); no golden config uses a
    # parametric law, so these guard its quantile
    draws = {
        dists.scaled_rademacher(2.0): [0.0, 0.0, 0.0, -2.0, 2.0, -2.0,
                                       0.0, 0.0],
        dists.two_point(2.0): [-0.5, 2.0, -0.5, -0.5, 2.0, -0.5, -0.5,
                               -0.5],
    }
    for dist, expected in draws.items():
        got = dist.sample(dists.RandomStream(1).generator(), 8)
        assert got.tolist() == expected


@pytest.mark.parametrize("name", ["rademacher", "gaussian", "uniform",
                                  "laplace", "laplace-normalized",
                                  "scaled-rademacher:2.5", "two-point:2"])
def test_empirical_moment_check_passes(name):
    dist = dists.from_name(name)
    assert moment_violations(dist, 200000,
                             dists.RandomStream(11).substream(name)) == []


def test_sample_support():
    stream = dists.RandomStream(5)
    r = dists.rademacher().sample(stream.generator(), 1000)
    assert set(np.unique(r)) <= {-1.0, 1.0}
    s = dists.scaled_rademacher(3.0).sample(
        stream.substream("s").generator(), 5000)
    assert set(np.unique(s)) <= {-3.0, 0.0, 3.0}
    assert abs(np.mean(s == 0.0) - (1 - 1 / 9)) < 0.03
    u = dists.uniform_symmetric().sample(
        stream.substream("u").generator(), 5000)
    assert np.abs(u).max() <= math.sqrt(3.0)


@pytest.mark.parametrize("name", ["rademacher", "gaussian", "uniform",
                                  "laplace", "laplace-normalized",
                                  "scaled-rademacher:2"])
def test_ppf_is_monotone_and_consistent(name):
    dist = dists.from_name(name)
    # odd multiples of 1/2000 never land on an atom boundary of these laws
    u = (np.arange(999) + 0.5) / 1000.0
    x = dist.ppf(u)
    assert np.all(np.diff(x) >= 0)
    # symmetric laws: ppf(1-u) = -ppf(u)
    assert np.allclose(dist.ppf(1.0 - u), -x, atol=1e-12)
    rng = np.random.default_rng(9)
    y = dist.ppf(rng.random(200000))
    assert abs(float(np.mean(y))) < 5.0 * math.sqrt(dist.variance / 200000)
    assert abs(float(np.mean(y ** 2)) - dist.variance) < 0.05 * max(1.0, dist.variance)


def test_two_point_ppf_and_sampler():
    t = dists.two_point(2.0)
    u = np.linspace(0.001, 0.999, 999)
    x = t.ppf(u)
    assert np.all(np.diff(x) >= 0)
    assert set(np.unique(x)) == {-0.5, 2.0}
    y = t.sample(dists.RandomStream(21).generator(), 100000)
    assert abs(float(np.mean(y == 2.0)) - 0.2) < 0.01
    unknown = dists.CoordinateDistribution("mystery", 1.0, 0.0, 1.0, 1.0, None)
    with pytest.raises(ValueError):
        unknown.sample(dists.RandomStream(1).generator(), 4)
    with pytest.raises(ValueError):
        unknown.ppf(u)


def test_stream_reproducible_and_keyed():
    a = dists.RandomStream(7).substream("x", 3)
    b = dists.RandomStream(7).substream("x", 3)
    assert a == b
    va = a.generator().standard_normal(4)
    vb = b.generator().standard_normal(4)
    assert np.array_equal(va, vb)
    c = dists.RandomStream(7).substream("x", 4)
    assert not np.array_equal(va, c.generator().standard_normal(4))
    d = dists.RandomStream(8).substream("x", 3)
    assert not np.array_equal(va, d.generator().standard_normal(4))


def test_stream_refuses_a_seed_outside_64_bits():
    for bad in (-1, 1 << 64):
        with pytest.raises(ValueError, match="master_seed"):
            dists.RandomStream(bad)
        with pytest.raises(ValueError, match="substream_id"):
            dists.RandomStream(0, bad)
    top = dists.RandomStream((1 << 64) - 1, (1 << 64) - 1)
    assert top.generator().standard_normal(2).shape == (2,)


def test_substream_mix_is_published():
    # the documented derivation: fnv1a over the tag, then two splitmix steps
    h = dists.fnv1a64(b"tag")
    z = dists.splitmix64((123 ^ h) & ((1 << 64) - 1))
    expect = dists.splitmix64((z + 9) & ((1 << 64) - 1))
    assert dists.derive_substream(123, "tag", 9) == expect
    s = dists.RandomStream(1, 123).substream("tag", 9)
    assert s.substream_id == expect and s.master_seed == 1


def test_moment_check_rejects_wrong_declaration():
    # a deliberately wrong variance must be flagged
    bad = dataclasses.replace(dists.gaussian(), variance=2.0)
    assert "variance" in moment_violations(bad, 50000, dists.RandomStream(3))


def test_gaussian_isf_matches_ndtri():
    # the upper-tail quantile, against scipy's, from the far tail (where
    # 1 - q rounds to 1) to the other side of the median
    q = np.concatenate([np.logspace(-300, -1, 600),
                        np.linspace(0.1, 0.999, 300)])
    got = dists.gaussian().isf(q)
    want = -special.ndtri(q)
    assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want) + 1e-15)
    assert np.all(np.diff(got) <= 0)
    assert dists.gaussian().isf(np.array([[0.5]])).shape == (1, 1)
    # the numpy AS241 keeps NormalDist.inv_cdf's order of operations, so
    # every piece (|q - 1/2| <= 0.425, the near tail, the far tail past
    # sqrt(-log q) = 5) and both sides of each boundary agree in all bits
    edges = [0.075, 0.925, math.exp(-25.0)]
    q = np.concatenate([q, np.linspace(1e-6, 1 - 1e-6, 2001), edges,
                        [np.nextafter(e, d) for e in edges for d in (0, 1)]])
    inv_cdf = statistics.NormalDist().inv_cdf
    assert np.array_equal(dists.gaussian().isf(q),
                          [-inv_cdf(v) for v in q.tolist()])
    # one quantile serves both: ppf(u) is -isf(u) in every bit, the sign of
    # a zero included, at the median, both sides of each piece boundary,
    # the smallest subnormal and the endpoints, which rng.random can
    # return; there isf(0) = inf and isf(1) = -inf with no floating-point
    # error raised
    u = np.array([0.5, *edges, *(np.nextafter(e, d) for e in edges
                                 for d in (0, 1)), 5e-324, 0.0, 1.0])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        isf, ppf = dists.gaussian().isf(u), dists.gaussian().ppf(u)
    assert np.array_equal(ppf.view(np.int64), (-isf).view(np.int64))
    assert isf[-2:].tolist() == [math.inf, -math.inf]
    assert np.isfinite(isf[:-2]).all()


def _continuous_max(log_cdf, n: int) -> float:
    """E max of n iid draws, int_0^inf (1 - F^n) - int_-inf^0 F^n, by
    quadrature over unit pieces of [-60, 60]; F^n is exp(n log F), and
    beyond 60 both tails are below 1e-13 for every law here."""
    upper = sum(integrate.quad(lambda x: -math.expm1(n * log_cdf(x)),
                               a, a + 1.0, epsabs=1e-13)[0]
                for a in range(60))
    lower = sum(integrate.quad(lambda x: math.exp(n * log_cdf(x)),
                               -a - 1.0, -a, epsabs=1e-13)[0]
                for a in range(60))
    return upper - lower


def _lattice_max(atoms: dict, n: int) -> float:
    """E max of n iid draws of a law on finitely many atoms {x: P(x)}:
    x_1 + sum_j (x_{j+1} - x_j) P(max > x_j), P(max > x_j) = 1 - F(x_j)^n."""
    xs = sorted(atoms)
    cdf = np.cumsum([atoms[x] for x in xs])
    return xs[0] + sum((b - a) * -math.expm1(n * math.log(F))
                       for a, b, F in zip(xs, xs[1:], cdf))


def _laplace_log_cdf(b: float):
    return lambda x: (math.log1p(-0.5 * math.exp(-x / b)) if x >= 0
                      else math.log(0.5) + x / b)


def _uniform_log_cdf(x: float) -> float:
    r3 = math.sqrt(3.0)
    return math.log(min(max((x + r3) / (2.0 * r3), 1e-300), 1.0))


# the exact E max of n iid draws of every law in LAWS (parametric ones at
# 2.0): a log-CDF for quadrature, or the atoms of a lattice law
EXPECTED_MAX = {
    "rademacher": ("rademacher", {-1.0: 0.5, 1.0: 0.5}),
    "gaussian": ("gaussian", lambda x: float(special.log_ndtr(x))),
    "uniform": ("uniform", _uniform_log_cdf),
    "laplace": ("laplace", _laplace_log_cdf(1.0)),
    "laplace-normalized": ("laplace-normalized",
                           _laplace_log_cdf(1.0 / math.sqrt(2.0))),
    "scaled-rademacher:": ("scaled-rademacher:2",
                           {-2.0: 0.125, 0.0: 0.75, 2.0: 0.125}),
    "two-point:": ("two-point:2", {-0.5: 0.8, 2.0: 0.2}),
}


def test_expected_max_covers_every_law():
    assert set(EXPECTED_MAX) == set(dists.LAWS)
    assert _lattice_max({-1.0: 0.5, 1.0: 0.5}, 5) == 1.0 - 2.0 ** -4
    # the uniform maximum has E max = sqrt(3) (n - 1) / (n + 1)
    assert _continuous_max(_uniform_log_cdf, 7) == pytest.approx(
        math.sqrt(3.0) * 6.0 / 8.0, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 16, 1024, 16384])
@pytest.mark.parametrize("kind", sorted(EXPECTED_MAX))
def test_max_of_matches_the_exact_expected_maximum(kind, n):
    name, law = EXPECTED_MAX[kind]
    dist = dists.from_name(name)
    exact = (_lattice_max(law, n) if isinstance(law, dict)
             else _continuous_max(law, n))
    x = dist.sample(dists.RandomStream(31).substream(name, n).generator(),
                    100000, max_of=n)
    se = float(np.std(x, ddof=1)) / math.sqrt(x.size)
    # a lattice maximum at large n is its top atom in every draw: se = 0
    assert abs(float(np.mean(x)) - exact) <= 5.0 * se + 1e-12


class _ExtremeUniforms:
    """A generator stand-in whose integer draws are the least and the
    greatest that the sampler may ask for, its two extreme uniforms."""

    def integers(self, low, high, size):
        assert size == 2
        return np.array([low, high - 1])


@pytest.mark.parametrize("kind", sorted(EXPECTED_MAX))
def test_max_of_is_finite_at_the_extreme_uniforms(kind):
    dist = dists.from_name(EXPECTED_MAX[kind][0])
    for n in (1, 2, 16384, 2 ** 62):
        lo, hi = dist.sample(_ExtremeUniforms(), 2, max_of=n)
        assert math.isfinite(lo) and math.isfinite(hi) and lo <= hi
