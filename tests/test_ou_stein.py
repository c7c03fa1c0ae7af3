import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from supcompare import distributions as dists
from supcompare import index_sets as isets
from supcompare import numdiff
from supcompare import ou_stein as ou
from supcompare import softmax as sm
from supcompare.estimator import MIN_REPLICATES

# probabilist Hermite polynomials: L h_k = -k h_k and P_t h_k = e^{-kt} h_k
HERMITE = {
    1: {(1,): 1.0},
    2: {(2,): 1.0, (0,): -1.0},
    3: {(3,): 1.0, (1,): -3.0},
    4: {(4,): 1.0, (2,): -6.0, (0,): 3.0},
}


def test_polynomial_basics():
    p = ou.Polynomial(2, {(2, 1): 3.0, (0, 0): -1.0})
    assert p(np.array([2.0, 0.5])) == pytest.approx(3 * 4 * 0.5 - 1)
    X = np.array([[2.0, 0.5], [1.0, 1.0]])
    assert np.allclose(p(X), [5.0, 2.0])
    assert p.degree() == 3
    dp = p.partial(0)
    assert dp.terms == {(1, 1): 6.0}
    assert p.partial(1, 2).terms == {}
    q = p + ou.Polynomial(2, {(0, 0): 1.0})
    assert q.terms == {(2, 1): 3.0}


def test_polynomial_refuses_input_it_would_ignore():
    with pytest.raises(ValueError, match="n must be an integer"):
        ou.Polynomial(1.5)
    with pytest.raises(ValueError, match="bad exponent"):
        ou.Polynomial(1, {(1.5,): 1.0})
    # an integral float exponent is that integer
    assert ou.Polynomial(1, {(2.0,): 1.0}).terms == {(2,): 1.0}
    for i in (-1, 2):
        with pytest.raises(ValueError, match="coordinate index"):
            ou.Polynomial.coordinate_power(2, i, 3)
    p = ou.Polynomial(2, {(2, 1): 3.0})
    assert p.partial(0, 0).terms == p.terms
    with pytest.raises(ValueError, match="order must be >= 0"):
        p.partial(0, -1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        p.partial_rows(np.ones((3, 2)), 0, -2)


def test_gaussian_means():
    assert ou.Polynomial(1, {(4,): 1.0}).gaussian_mean() == 3.0
    assert ou.Polynomial(2, {(2, 2): 1.0}).gaussian_mean() == 1.0
    assert ou.Polynomial(2, {(3, 1): 5.0}).gaussian_mean() == 0.0
    for k, terms in HERMITE.items():
        assert ou.Polynomial(1, terms).gaussian_mean() == pytest.approx(0.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hermite_eigenfunctions(k):
    h = ou.Polynomial(1, HERMITE[k])
    t = 0.63
    smoothed = h.ou_smoothed(t)
    factor = math.exp(-k * t)
    for expo, c in h.terms.items():
        assert smoothed.terms[expo] == pytest.approx(factor * c, rel=1e-12)
    gen = h.generator()
    x = np.array([0.8])
    assert gen(x) == pytest.approx(-k * h(x), rel=1e-12)


def test_smoothing_semigroup_property_exact():
    p = ou.Polynomial(2, {(3, 1): 1.0, (2, 0): -0.5, (0, 4): 0.25})
    a = p.ou_smoothed(0.4).ou_smoothed(0.9)
    b = p.ou_smoothed(1.3)
    keys = set(a.terms) | set(b.terms)
    for key in keys:
        assert a.terms.get(key, 0.0) == pytest.approx(b.terms.get(key, 0.0),
                                                      abs=1e-13)


def test_smoothing_limits():
    p = ou.Polynomial(2, {(2, 1): 1.0, (1, 0): 2.0})
    assert p.ou_smoothed(0.0).terms == p.terms
    far = p.ou_smoothed(50.0)
    assert far(np.array([5.0, -3.0])) == pytest.approx(p.gaussian_mean(),
                                                       abs=1e-12)


def test_generator_has_zero_gaussian_mean():
    rng = np.random.default_rng(1)
    for _ in range(20):
        terms = {}
        for _ in range(4):
            expo = tuple(int(e) for e in rng.integers(0, 3, size=3))
            terms[expo] = float(rng.standard_normal())
        p = ou.Polynomial(3, terms)
        assert p.generator().gaussian_mean() == pytest.approx(0.0, abs=1e-12)


def test_numdiff_matches_analytic():
    f = lambda X: np.sin(X[:, 0]) * np.exp(0.5 * X[:, 1])
    x = np.array([0.7, -0.3])
    d1 = numdiff.central_partial(f, x, 0, 1)
    assert d1 == pytest.approx(math.cos(0.7) * math.exp(-0.15), rel=1e-7)
    d2 = numdiff.central_partial(f, x, 0, 2)
    assert d2 == pytest.approx(-math.sin(0.7) * math.exp(-0.15), rel=1e-5)
    d3 = numdiff.central_partial(f, x, 1, 3)
    assert d3 == pytest.approx(math.sin(0.7) * math.exp(-0.15) / 8, rel=1e-3)
    with pytest.raises(ValueError):
        numdiff.central_partial(f, x, 0, 5)


def test_ou_apply_exact_at_zero_and_mc():
    f = ou.Polynomial(2, {(2, 1): 1.0, (0, 1): -1.0})
    x = np.array([0.5, -1.0])
    at0 = ou.ou_apply(f, 0.0, x)
    assert at0.value == f(x) and at0.std_error == 0.0
    t = 0.8
    exact = f.ou_smoothed(t)(x)
    est = ou.ou_apply(f, t, x, samples=20000,
                      stream=dists.RandomStream(4))
    assert abs(est.value - exact) <= 4.0 * est.std_error + 1e-12
    with pytest.raises(ValueError):
        ou.ou_apply(f, -1.0, x)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_potential_of_eigenfunction(k):
    # L h_k = -k h_k so PP h_k = h_k / k, exactly
    f = ou.Polynomial(1, HERMITE[k])
    x = np.array([0.9])
    est = ou.ou_potential(f, x)
    assert est.method == "closed-form"
    assert est.std_error == 0.0
    assert est.value == pytest.approx(f(x) / k, rel=1e-12)


def test_potential_partial_matches_difference_quotient():
    f = ou.Polynomial(2, {(3, 1): 0.5, (1, 2): -1.0, (2, 0): 2.0})
    x = np.array([0.4, -0.6])
    h = 1e-5
    for i in (0, 1):
        d1 = ou.potential_partial(f, x, i, 1).value
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (ou.ou_potential(f, xp).value - ou.ou_potential(f, xm).value) / (2 * h)
        assert d1 == pytest.approx(fd, abs=1e-8)


def test_poisson_identity_polynomial_exact():
    rng = np.random.default_rng(2)
    for _ in range(10):
        terms = {}
        for _ in range(5):
            expo = tuple(int(e) for e in rng.integers(0, 3, size=3))
            if sum(expo) > 4:
                continue
            terms[expo] = float(rng.standard_normal())
        if not terms:
            continue
        f = ou.Polynomial(3, terms)
        x = rng.standard_normal(3)
        rep = ou.poisson_identity_check(f, x)
        assert rep.exact and rep.ok
        assert abs(rep.lhs - rep.rhs[0]) <= 1e-10
        assert abs(rep.lhs - rep.rhs[1]) <= 1e-10


def test_poisson_identity_softmax_mc():
    T = isets.build_explicit(np.random.default_rng(3).standard_normal((6, 4)))
    f = ou.SoftmaxFunction(T, 0.9)
    x = np.full(4, 0.3)
    rep = ou.poisson_identity_check(f, x, samples=3000,
                                    stream=dists.RandomStream(6))
    assert not rep.exact
    assert rep.ok


def test_stein_exhaustive_softmax_both_variants():
    rng = np.random.default_rng(7)
    for n in (3, 5):
        T = isets.build_explicit(rng.standard_normal((6, n)))
        f = ou.SoftmaxFunction(T, 0.8)
        for variant in ("third", "fourth"):
            rep = ou.stein_representation_check(f, dists.rademacher(), variant)
            assert rep.exact
            assert rep.diff <= 1e-10


def test_stein_exhaustive_polynomial():
    f = ou.Polynomial.coordinate_power(1, 0, 4)
    rep = ou.stein_representation_check(f, dists.rademacher(), "fourth")
    # E L(x^4) under rademacher: E[12 xi^2 - 4 xi^4] = 8
    assert rep.lhs == pytest.approx(8.0, abs=1e-12)
    assert rep.diff <= 1e-10


def test_stein_mc_path():
    T = isets.build_explicit(np.random.default_rng(8).standard_normal((5, 3)))
    f = ou.SoftmaxFunction(T, 0.6)
    for name, variant in (("uniform", "fourth"), ("laplace-normalized", "third")):
        rep = ou.stein_representation_check(
            f, dists.from_name(name), variant,
            stream=dists.RandomStream(9).substream(name), replicates=3000)
        assert not rep.exact
        assert rep.ok


def test_stein_refuses_bad_hypotheses():
    T = isets.make_basis_family(3)
    f = ou.SoftmaxFunction(T, 1.0)
    with pytest.raises(ou.HypothesisViolation) as exc:
        ou.stein_representation_check(f, dists.laplace(False), "third")
    assert exc.value.moment == "second moment"
    skewed = dists.two_point(2.0)
    with pytest.raises(ou.HypothesisViolation) as exc:
        ou.stein_representation_check(f, skewed, "fourth")
    assert exc.value.moment == "third moment"
    # the third-order representation does not need symmetry
    rep = ou.stein_representation_check(f, skewed, "third",
                                        stream=dists.RandomStream(10),
                                        replicates=500)
    assert rep.samples == 500


def test_semigroup_and_ergodic_checks():
    fp = ou.Polynomial(2, {(2, 1): 1.0, (0, 3): -0.2})
    x = np.array([0.5, 0.7])
    rep = ou.semigroup_check(fp, 0.3, 1.1, x)
    assert rep.ok and rep.diff <= 1e-10
    rep = ou.ergodic_check(fp, 2.5, x)
    assert rep.ok and rep.diff <= rep.tolerance

    T = isets.build_explicit(np.random.default_rng(11).standard_normal((5, 2)))
    fs = ou.SoftmaxFunction(T, 1.2)
    assert ou.semigroup_check(fs, 0.4, 0.7, x, samples=4096,
                              stream=dists.RandomStream(12)).ok
    assert ou.ergodic_check(fs, 4.0, x, samples=4096,
                            stream=dists.RandomStream(13)).ok


def test_semigroup_check_refuses_negative_times():
    # e^{-t} > 1 is no OU kernel; both paths refuse it before any work
    T = isets.build_explicit(np.random.default_rng(11).standard_normal((5, 2)))
    x = np.array([0.5, 0.7])
    for f in (ou.Polynomial(2, {(2, 1): 1.0}), ou.SoftmaxFunction(T, 0.8)):
        for t1, t2 in ((-0.3, 0.9), (0.9, -0.3)):
            with pytest.raises(ValueError, match="must be >= 0"):
                ou.semigroup_check(f, t1, t2, x)


def test_bare_polynomial_is_a_test_function():
    # f = h_2(x_1) + 3 h_1(x_2), so PP f = h_2(x_1) / 2 + 3 x_2 and E f(G) = 0
    f = ou.Polynomial(2, {(2, 0): 1.0, (0, 0): -1.0, (0, 1): 3.0})
    x = np.array([0.6, -0.4])
    assert ou.ou_apply(f, 0.0, x).value == f(x)
    est = ou.ou_apply(f, 0.5, x, samples=8192, stream=dists.RandomStream(16))
    assert abs(est.value - f.ou_smoothed(0.5)(x)) <= 4.0 * est.std_error
    pot = ou.ou_potential(f, x)
    assert pot.method == "closed-form"
    assert pot.value == pytest.approx((x[0] ** 2 - 1.0) / 2 + 3.0 * x[1],
                                      abs=1e-12)
    for i, k, want in ((0, 1, x[0]), (0, 2, 1.0), (1, 1, 3.0), (1, 2, 0.0)):
        d = ou.potential_partial(f, x, i, k)
        assert d.method == "closed-form"
        assert d.value == pytest.approx(want, abs=1e-12)
    rep = ou.poisson_identity_check(f, x)
    assert rep.exact and rep.ok
    assert rep.lhs == pytest.approx(f(x), abs=1e-12)
    for variant in ("third", "fourth"):
        rep = ou.stein_representation_check(f, dists.rademacher(), variant)
        assert rep.exact and rep.diff <= 1e-10
        # E L f(xi) = E[2 - 2 xi_1^2 - 3 xi_2] = 0 under sign enumeration
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)


def test_softmax_function_partials_consistent():
    T = isets.build_explicit(np.random.default_rng(14).standard_normal((6, 3)))
    f = ou.SoftmaxFunction(T, 0.9)
    X = np.random.default_rng(15).standard_normal((4, 3))

    def partial(x, i, order):
        return sm.log_partition_partial(T, 0.9, x, i, order)

    for order in (1, 2, 3, 4):
        batch = f.partial_rows(X, 1, order)
        single = [partial(x, 1, order) for x in X]
        assert np.allclose(batch, single, atol=1e-12)
    gen_batch = f.generator_rows(X)
    lap = [sum(partial(x, i, 2) for i in range(3)) for x in X]
    drift = [float(np.dot(x, [partial(x, i, 1) for i in range(3)]))
             for x in X]
    assert np.allclose(gen_batch, np.array(lap) - np.array(drift), atol=1e-10)


# the polynomial and point of the stein battery's operator rows
POLY3 = ou.Polynomial(3, {(2, 0, 0): 1.0, (0, 1, 2): 0.5, (1, 1, 0): -2.0,
                          (0, 0, 4): 0.25, (0, 0, 0): 1.5})
X3 = np.array([0.3, -1.1, 0.7])


class MonteCarloOnly:
    """Forwards to a Polynomial without being one, so every operator takes
    its Monte-Carlo path, the Gaussian mean included."""

    def __init__(self, f):
        self.f, self.n = f, f.n

    def __getattr__(self, name):
        return getattr(self.f, name)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monte_carlo_paths_match_closed_forms(seed):
    f = MonteCarloOnly(POLY3)
    stream = dists.RandomStream(seed)
    # coordinate 2 has a nonzero second partial, x_1 + 3 x_2^2
    pairs = [(ou.ou_apply(f, 0.7, X3, stream=stream),
              POLY3.ou_smoothed(0.7)(X3)),
             (ou.ou_potential(f, X3, stream=stream),
              ou.ou_potential(POLY3, X3).value)]
    for k in (1, 2):
        pairs.append((ou.potential_partial(f, X3, 2, k, stream=stream),
                      ou.potential_partial(POLY3, X3, 2, k).value))
    for est, exact in pairs:
        assert est.method.startswith("mc") and est.std_error > 0
        assert abs(est.value - exact) <= 4.0 * est.std_error
    rep = ou.semigroup_check(f, 0.4, 0.9, X3, stream=stream)
    exact = POLY3.ou_smoothed(1.3)(X3)
    assert rep.ok and rep.tolerance > 1e-9
    assert abs(rep.lhs - exact) <= rep.tolerance
    assert abs(rep.rhs[0] - exact) <= rep.tolerance


def test_ergodic_monte_carlo_bound_uses_the_radius():
    # x^3 at x = 5: P_t f(x) - E f(G) is ~33.6 at t = 0.5, and the gradient
    # on the ball of radius |x| + 1 reaches 3 * 6^2, far above its value 3
    # on the unit ball
    cubic = ou.Polynomial.coordinate_power(1, 0, 3)
    x = np.array([5.0])
    closed = ou.ergodic_check(cubic, 0.5, x)
    mc = ou.ergodic_check(MonteCarloOnly(cubic), 0.5, x,
                          stream=dists.RandomStream(4))
    assert closed.ok and mc.ok
    assert abs(mc.diff - closed.diff) <= 0.05 * closed.diff
    assert mc.tolerance >= math.exp(-0.5) * cubic.lipschitz_bound(6.0) * 6.0


class ZeroSamples:
    """Zero everywhere, and no polynomial: the potential's Monte-Carlo
    samples are all exactly 0."""

    n = 3

    def value_rows(self, X):
        return np.zeros(X.shape[0])


def test_ou_potential_charges_gaussian_mean_error_by_its_weight(monkeypatch):
    # the rule subtracts the estimated Gaussian mean at every node, with
    # total weight sum_j w_j / u_j; the sampling error here is 0
    mg_se = 0.01
    monkeypatch.setattr(ou, "_gaussian_mean_estimate",
                        lambda f, n, samples, stream: (0.0, mg_se))
    est = ou.ou_potential(ZeroSamples(), X3)
    assert est.method == "mc-quadrature" and est.value == 0.0
    # the nodes cover all of [0, 1]: there is no truncation
    u, w = ou._gauss_legendre(est.nodes, 0.0, 1.0)
    assert est.std_error == pytest.approx(float((w / u).sum()) * mg_se,
                                          rel=1e-14)


@pytest.mark.parametrize("f", [POLY3, MonteCarloOnly(POLY3)],
                         ids=["closed-form", "monte-carlo"])
def test_ou_potential_is_the_order_zero_partial(f):
    # one integral rule for every order: PP f is d_i^{(0)} PP f for every i
    stream = dists.RandomStream(17)
    want = ou.ou_potential(f, X3, stream=stream)
    for i in range(X3.size):
        assert ou.potential_partial(f, X3, i, 0, stream=stream) == want


def test_monte_carlo_entry_points_need_min_replicates():
    f = MonteCarloOnly(POLY3)
    few = MIN_REPLICATES - 1
    calls = (
        lambda: ou.ou_apply(f, 0.5, X3, samples=few),
        lambda: ou.ou_potential(f, X3, samples=few),
        lambda: ou.potential_partial(f, X3, 2, 1, samples=few),
        lambda: ou.semigroup_check(f, 0.4, 0.9, X3, samples=few),
        lambda: ou.ergodic_check(f, 1.0, X3, samples=few),
        lambda: ou.poisson_identity_check(f, X3, samples=few),
        lambda: ou.stein_representation_check(
            f, dists.uniform_symmetric(), replicates=few),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_ou_apply_memory_is_bounded_by_one_block():
    n = 64
    f = ou.Polynomial.linear(np.ones(n))
    tracemalloc.start()
    try:
        est = ou.ou_apply(f, 0.5, np.zeros(n), samples=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an unblocked (samples, n) Gaussian alone would take ~51 MB
    assert peak < 16 * 2 ** 20
    assert est.samples == 100_000


@pytest.mark.parametrize("f", [ou.Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0}),
                               MonteCarloOnly(ou.Polynomial(
                                   2, {(2, 0): 1.0, (0, 1): 1.0}))],
                         ids=["closed-form", "monte-carlo"])
def test_operators_refuse_a_point_they_would_not_read(f):
    # a third coordinate would be ignored, a NaN or inf one would spread
    calls = (
        lambda x: ou.ou_apply(f, 0.5, x),
        lambda x: ou.ou_potential(f, x),
        lambda x: ou.potential_partial(f, x, 0, 1),
        lambda x: ou.poisson_identity_check(f, x),
        lambda x: ou.semigroup_check(f, 0.3, 0.5, x),
        lambda x: ou.ergodic_check(f, 1.0, x),
    )
    for x in ([1.0, 2.0, 99.0], [1.0], [[1.0, 2.0]], [1.0, math.nan],
              [math.inf, 2.0]):
        for call in calls:
            with pytest.raises(ValueError, match="finite vector of length 2"):
                call(x)


@pytest.mark.parametrize("f", [POLY3, MonteCarloOnly(POLY3)],
                         ids=["closed-form", "monte-carlo"])
def test_operators_refuse_a_nan_or_negative_time(f):
    calls = (
        lambda t: ou.ou_apply(f, t, X3),
        lambda t: ou.semigroup_check(f, t, 0.5, X3),
        lambda t: ou.semigroup_check(f, 0.5, t, X3),
        lambda t: ou.ergodic_check(f, t, X3),
        lambda t: POLY3.ou_smoothed(t),
    )
    for t in (math.nan, -0.5):
        for call in calls:
            with pytest.raises(ValueError, match="t must be >= 0"):
                call(t)


# every OU/Stein check on POLY3 at X3, with SAMPLES Monte-Carlo samples; a
# Stein check enumerates Rademacher signs for the closed form and draws a
# uniform law for the Monte-Carlo one
SAMPLES = 2048
CHECKS = {
    "poisson": lambda f, stream: ou.poisson_identity_check(
        f, X3, SAMPLES, stream),
    "stein": lambda f, stream: ou.stein_representation_check(
        f, dists.rademacher() if isinstance(f, ou.Polynomial)
        else dists.uniform_symmetric(), "fourth", stream, SAMPLES),
    "semigroup": lambda f, stream: ou.semigroup_check(
        f, 0.4, 0.9, X3, SAMPLES, stream),
    "ergodic": lambda f, stream: ou.ergodic_check(f, 1.0, X3, SAMPLES, stream),
}


@pytest.mark.parametrize("form", ["closed-form", "monte-carlo"])
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_every_check_returns_one_agreement(check, form):
    closed = form == "closed-form"
    f = POLY3 if closed else MonteCarloOnly(POLY3)
    rep = CHECKS[check](f, dists.RandomStream(18))
    assert isinstance(rep, ou.Agreement)
    assert rep.exact == closed
    assert rep.diff == max(abs(rep.lhs - r) for r in rep.rhs)
    assert rep.ok and rep.ok == (rep.diff <= rep.tolerance)
    # a polynomial Poisson check also computes -PP L f
    assert len(rep.rhs) == (2 if check == "poisson" and closed else 1)
    if check == "stein":
        assert rep.samples == (2 ** X3.size if closed else SAMPLES)
    else:
        assert rep.samples == (0 if closed else SAMPLES)
    # a NaN on either side fails, however wide the tolerance
    wide = dataclasses.replace(rep, tolerance=math.inf)
    assert wide.ok
    for bad in (dataclasses.replace(wide, lhs=math.nan),
                dataclasses.replace(wide, rhs=rep.rhs[:-1] + (math.nan,))):
        assert math.isnan(bad.diff) and not bad.ok
