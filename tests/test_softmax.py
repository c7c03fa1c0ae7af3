import math
import tracemalloc

import numpy as np
import pytest

from supcompare import checks
from supcompare import index_sets as isets
from supcompare import softmax as sm


def random_instance(rng, n_max=8, card_max=12):
    n = int(rng.integers(2, n_max + 1))
    card = int(rng.integers(2, card_max + 1))
    T = isets.build_explicit(rng.standard_normal((card, n)))
    x = rng.standard_normal(n)
    beta = float(rng.uniform(0.2, 4.0))
    return T, x, beta


def test_sandwich_bracket_random():
    rng = np.random.default_rng(0)
    for _ in range(300):
        T, x, beta = random_instance(rng)
        gap, bound = sm.sandwich_gap(T, beta, x)
        assert -1e-12 <= gap <= bound + 1e-12


def test_large_beta_recovers_max():
    rng = np.random.default_rng(1)
    T, x, _ = random_instance(rng)
    top = float((T.points @ x).max())
    assert sm.log_partition(T, 1e6, x) == pytest.approx(top, abs=1e-5)


def test_duplicates_shift_by_log_multiplicity():
    rng = np.random.default_rng(2)
    T, x, beta = random_instance(rng)
    T2 = isets.build_explicit(np.vstack([T.points, T.points]))
    f1 = sm.log_partition(T, beta, x)
    f2 = sm.log_partition(T2, beta, x)
    assert f2 == pytest.approx(f1 + math.log(2.0) / beta, abs=1e-12)


def test_monotone_decreasing_in_beta():
    rng = np.random.default_rng(3)
    for _ in range(100):
        T, x, beta = random_instance(rng)
        assert sm.log_partition(T, 2 * beta, x) <= \
            sm.log_partition(T, beta, x) + 1e-12


def test_midpoint_convexity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        T, x, beta = random_instance(rng)
        y = rng.standard_normal(T.dim)
        mid = sm.log_partition(T, beta, 0.5 * (x + y))
        avg = 0.5 * (sm.log_partition(T, beta, x)
                     + sm.log_partition(T, beta, y))
        assert mid <= avg + 1e-12 * max(1.0, abs(avg))


def test_beta_validation():
    T = isets.make_basis_family(3)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            sm.log_partition(T, bad, np.zeros(3))


def test_gibbs_weights_normalized_and_consistent():
    rng = np.random.default_rng(5)
    for _ in range(100):
        T, x, beta = random_instance(rng)
        mu = sm.gibbs_measure(T, beta, x)
        assert np.all(mu.weights >= 0.0)
        assert float(mu.weights.sum()) == pytest.approx(1.0, abs=1e-12)
        z = beta * (T.points @ x)
        live = np.nonzero(mu.weights)[0]
        ia, ib = live[0], live[-1]
        lhs = math.log(mu.weights[ia]) - math.log(mu.weights[ib])
        assert lhs == pytest.approx(z[ia] - z[ib], abs=1e-10)


def test_weight_flush_to_exact_zero():
    T = isets.build_explicit([[0.0], [1.0]])
    # exp(-700) ~ 1e-304 is a normal float that only the flush zeroes
    for x in (800.0, 700.0):
        mu = sm.gibbs_measure(T, 1.0, np.array([x]))
        assert mu.weights[0] == 0.0
        assert mu.weights[1] == 1.0
    W = sm.gibbs_weight_rows(T, 1.0, np.array([[700.0], [0.0]]))
    assert np.array_equal(W, [[0.0, 1.0], [0.5, 0.5]])


def test_gradient_is_gibbs_mean_and_in_hull():
    rng = np.random.default_rng(6)
    for _ in range(50):
        T, x, beta = random_instance(rng)
        grad = sm.log_partition_grad(T, beta, x)
        mu = sm.gibbs_measure(T, beta, x)
        expect = np.array([sm.gibbs_moment(mu, i, 1) for i in range(T.dim)])
        assert np.allclose(grad, expect, atol=1e-12)
        # a convex combination of points stays within coordinate ranges
        assert np.all(grad <= T.points.max(axis=0) + 1e-12)
        assert np.all(grad >= T.points.min(axis=0) - 1e-12)


def test_gradient_matches_finite_difference():
    rng = np.random.default_rng(7)
    for _ in range(30):
        T, x, beta = random_instance(rng, n_max=5, card_max=8)
        i = int(rng.integers(T.dim))
        analytic, fd = sm.grad_fd_report(T, beta, x, i, 1)
        assert analytic == pytest.approx(fd, abs=1e-7 * (1 + abs(analytic)))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_partials_match_finite_difference(order):
    rng = np.random.default_rng(8 + order)
    for _ in range(60):
        T, x, beta = random_instance(rng, n_max=5, card_max=8)
        i = int(rng.integers(T.dim))
        assert checks.fd_error(T, beta, x, i, order) <= 1e-4


def test_second_partial_nonnegative():
    rng = np.random.default_rng(12)
    for _ in range(100):
        T, x, beta = random_instance(rng)
        i = int(rng.integers(T.dim))
        assert sm.log_partition_partial(T, beta, x, i, 2) >= -1e-14


def test_partials_rows_match_scalar():
    rng = np.random.default_rng(13)
    T, _, beta = random_instance(rng)
    X = rng.standard_normal((6, T.dim))
    for order in (2, 3, 4):
        batch = sm.log_partition_partials_rows(T, beta, X, 1, order)
        single = [sm.log_partition_partial(T, beta, x, 1, order) for x in X]
        assert np.allclose(batch, single, atol=1e-12)


def test_derivative_bound_check():
    rng = np.random.default_rng(14)
    for _ in range(200):
        T, x, beta = random_instance(rng)
        i = int(rng.integers(T.dim))
        rep = sm.derivative_bound_check(T, beta, x, i)
        assert rep.ok
        assert rep.d3_bound == pytest.approx(
            6.0 * beta ** 2
            * sm.gibbs_moment(sm.gibbs_measure(T, beta, x), i, 3, True))


def test_bound_reports_give_the_size_of_a_violation(monkeypatch):
    rng = np.random.default_rng(24)
    T, x, beta = random_instance(rng)
    rep = sm.derivative_bound_check(T, beta, x, 0)
    assert rep.ok and rep.excess < 0.0
    # with no third or fourth moment bound, |d3| and |d4| are the violation
    monkeypatch.setattr(sm, "THIRD_DERIV_CONST", 0.0)
    monkeypatch.setattr(sm, "FOURTH_DERIV_CONST", 0.0)
    rep = sm.derivative_bound_check(T, beta, x, 0)
    assert not rep.ok
    assert rep.excess == (max(abs(rep.d3), abs(rep.d4))
                          / max(1.0, rep.d2_bound) - sm.DERIV_BOUND_SLACK)
    y = x.copy()
    y[0] += 0.5
    rep = sm.lipschitz_log_moment_check(T, beta, x, y, 0)
    assert rep.ok and rep.excess < 0.0
    # a zero sup norm makes the coordinate bound 0, so the gap is the excess
    monkeypatch.setattr(sm, "geometric_profile",
                        lambda T: isets.GeometricProfile(*[0.0] * 9))
    rep = sm.lipschitz_log_moment_check(T, beta, x, y, 0)
    assert rep.coordinate_bound == 0.0 and not rep.ok
    assert rep.excess == rep.gap - sm.LIPSCHITZ_SLACK


def _peak_blocks(f, block_bytes: int) -> float:
    tracemalloc.start()
    try:
        f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / block_bytes


def test_gibbs_weights_and_partials_hold_few_blocks():
    # the weights are normalized in place on the block of products, and a
    # partial builds its centred powers by in-place products: W, C and one
    # power, plus row vectors
    rng = np.random.default_rng(23)
    T = isets.build_explicit(rng.standard_normal((5000, 4)))
    X = rng.standard_normal((256, 4))
    block = 8 * X.shape[0] * T.cardinality
    assert _peak_blocks(lambda: sm.gibbs_weight_rows(T, 1.3, X), block) < 2.0
    for order in (1, 2, 3, 4):
        assert _peak_blocks(lambda: sm.log_partition_partials_rows(
            T, 1.3, X, 1, order), block) < 3.01


def test_uniform_measure_identity():
    rng = np.random.default_rng(15)
    for _ in range(100):
        T, x, beta = random_instance(rng)
        assert sm.uniform_identity_gap(T, beta, x) <= 1e-10


def test_tilted_measure_is_gibbs():
    rng = np.random.default_rng(17)
    for _ in range(50):
        T, x, beta = random_instance(rng)
        w1 = sm.gibbs_measure(T, beta, x).weights
        w2 = sm.tilted_measure(sm.uniform_measure(T), beta * x).weights
        assert np.allclose(w1, w2, atol=1e-13)


def test_lipschitz_log_moment_random():
    rng = np.random.default_rng(18)
    for _ in range(200):
        T, x, beta = random_instance(rng)
        i = int(rng.integers(T.dim))
        y = x.copy()
        y[i] += float(rng.uniform(-1.0, 1.0))
        rep = sm.lipschitz_log_moment_check(T, beta, x, y, i)
        assert rep.ok
        assert rep.coordinate_bound is not None
        # general direction too
        y2 = x + rng.standard_normal(T.dim) * 0.3
        rep2 = sm.lipschitz_log_moment_check(T, beta, x, y2, i)
        assert rep2.ok


def test_concentrated_fourth_moment_closed_form():
    # negative-scaled basis family at an interpolated location: the moment
    # concentrates on the moved coordinate
    n, theta, beta = 5, 9.0, 1.0
    T = isets.make_basis_family(n, "negative-scaled", theta)
    for s in (0.0, 0.25, 0.5, 1.0):
        x = np.ones(n)
        x[2] = s
        got = sm.gibbs_moment(sm.gibbs_measure(T, beta, x), 2, 4)
        expect = theta ** 4 * math.exp(-s * theta) / (
            math.exp(-s * theta) + (n - 1) * math.exp(-theta))
        assert got == pytest.approx(expect, rel=1e-12)


def test_fourth_moment_sum_grows_linearly():
    # summed over per-coordinate locations the fourth moment reaches
    # n * theta^4, ruling out any single dominating measure
    n, theta = 8, 50.0
    T = isets.make_basis_family(n, "negative-scaled", theta)
    total = 0.0
    for i in range(n):
        x = np.ones(n)
        x[i] = 0.5
        total += sm.gibbs_moment(sm.gibbs_measure(T, 1.0, x), i, 4)
    assert total >= 0.99 * n * theta ** 4


def test_collapse_weight():
    rng = np.random.default_rng(19)
    hits = 0
    for _ in range(50):
        T, x, _ = random_instance(rng)
        try:
            w = sm.collapse_weight(T, x)
        except ValueError:
            continue
        hits += 1
        assert w >= 1.0 - 1e-6
    assert hits >= 40


def test_gibbs_moment_validation():
    T = isets.make_basis_family(3)
    mu = sm.gibbs_measure(T, 1.0, np.zeros(3))
    with pytest.raises(ValueError):
        sm.gibbs_moment(mu, 0, -1)
    assert sm.gibbs_moment(mu, 0, 0) == pytest.approx(1.0)
