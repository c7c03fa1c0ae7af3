"""Control variates: every declared control has mean zero, the fitted
adjustment keeps its estimates honest, and the per-replicate table stays
inside the byte budget.

Each set kind declares its controls as a field, ``T.controls(T, X, law)``;
``estimator`` subtracts a multiple of them fitted on the other full
blocks.
A new control is one declared field plus one row of CONTROL_CASES.
"""
import contextlib
import dataclasses
import hashlib
import io
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from supcompare import cli
from supcompare import distributions as dists
from supcompare import estimator as est
from supcompare import index_sets as isets
from test_estimator import LAWS, _cube_diag, families

# one case per kind of set whose constructor declares its controls: small
# sets of that kind (dimension <= 21, so a law of two values enumerates),
# each with the number of columns it declares for a law of non-constant
# x^2 and for Rademacher, whose x^2 is constant: there the radial and the
# weighted square columns drop out
CONTROL_CASES = {
    "basis-canonical": lambda: [(isets.make_basis_family(5), 0, 0)],
    # linear part only; weighted square and linear part; square only
    "diagonal-cube": lambda: [
        (isets.make_diagonal_cube(_cube_diag(7), k), count, rademacher)
        for k, count, rademacher in ((0, 1, 1), (3, 2, 1), (7, 1, 0))],
    # radial and triangle sums, and the 4-cycle sum from four spins on
    "spin-quadratic": lambda: [
        (isets.make_spin_quadratic(N), count, count - 1)
        for N, count in ((3, 2), (5, 3), (7, 3))],
}


def _sets():
    """Every CONTROL_CASES set, and one of the default (radial) kind."""
    return ([T for build in CONTROL_CASES.values() for T, _, _ in build()]
            + [isets.build_explicit(np.random.default_rng(3)
                                    .standard_normal((9, 4)))])


def test_every_control_kernel_has_a_case(tmp_path):
    declared = {T.kind for T in families(tmp_path)
                if T.controls is not isets.IndexSet.controls}
    assert set(CONTROL_CASES) == declared


@pytest.mark.parametrize("kind", sorted(CONTROL_CASES))
def test_declared_control_counts(kind):
    for T, count, rademacher in CONTROL_CASES[kind]():
        assert T.kind == kind
        X = np.ones((3, T.dim))
        for law, want in ((dists.gaussian(), count),
                          (dists.rademacher(), rademacher)):
            cols = T.controls(T, X, law)
            assert isinstance(cols, list) and len(cols) == want, T.dim
            assert all(c.shape == (3,) for c in cols)


def _enumerated_means(T, values, probs):
    """E controls(T, x, law) exactly, x over all 2^dim points of a law of
    two values with these probabilities, and E |controls| for scale; the
    weights are divided by their rounded sum, and each sum is numpy's
    pairwise one over a contiguous column."""
    law = dists.two_point(values[1]) if values[0] != -1.0 else dists.rademacher()
    total = 1 << T.dim
    mean = scale = mass = 0.0
    for lo in range(0, total, 1 << 16):
        S = isets.sign_patterns(T.dim, min(1 << 16, total - lo), lo)
        X = np.where(S < 0, values[0], values[1])
        w = np.where(S < 0, probs[0], probs[1]).prod(axis=1)
        C = T.controls(T, X, law)
        mean = mean + np.array([(w * c).sum() for c in C])
        scale = scale + np.array([(w * np.abs(c)).sum() for c in C])
        mass += w.sum()
    return mean / mass, scale / mass


@pytest.mark.parametrize("kind", sorted(CONTROL_CASES))
def test_controls_have_exact_mean_zero_by_enumeration(kind):
    a = 2.0
    p = 1.0 / (1.0 + a * a)
    for T, count, rademacher in CONTROL_CASES[kind]():
        assert T.dim <= 21
        # Rademacher: cycle sums are integers, so their mean is 0.0
        mean, scale = _enumerated_means(T, (-1.0, 1.0), (0.5, 0.5))
        assert mean.shape == (rademacher,) and np.all(scale > 0)
        if kind == "spin-quadratic":
            assert np.all(mean == 0.0)
        assert np.all(np.abs(mean) <= 1e-15 * scale)
        if T.dim > 15:
            continue
        # a skewed two-point law, radial and weighted square included
        mean, scale = _enumerated_means(T, (-1.0 / a, a), (1.0 - p, p))
        assert mean.shape == (count,) and np.all(scale > 0)
        assert np.all(np.abs(mean) <= 1e-14 * scale)


@pytest.mark.parametrize("N", [4, 5, 6])
def test_cycle_sums_match_a_brute_force_sum(N):
    # sums over ordered tuples of distinct spins: each triangle 6 times,
    # each 4-cycle 8 times
    T = isets.make_spin_quadratic(N)
    X = np.random.default_rng(N).standard_normal((16, T.dim))
    triangles, cycles = T.controls(T, X, dists.rademacher())
    A = np.zeros((16, N, N))
    i, j = np.triu_indices(N, 1)  # the points' pair order
    A[:, i, j] = A[:, j, i] = X
    brute3 = sum(A[:, a, b] * A[:, b, c] * A[:, c, a]
                 for a, b, c in itertools.permutations(range(N), 3))
    brute4 = sum(A[:, a, b] * A[:, b, c] * A[:, c, e] * A[:, e, a]
                 for a, b, c, e in itertools.permutations(range(N), 4))
    np.testing.assert_allclose(triangles, brute3 / 6.0, rtol=1e-12, atol=0)
    np.testing.assert_allclose(cycles, brute4 / 8.0, rtol=1e-12, atol=0)


def test_wide_cube_controls_read_the_free_squares_only():
    # the weighted free square tracks sum_{free} d_i |x_i| where the radial
    # sum over every coordinate did not: the paired gap's SE at least halves
    T = cli.parse_set("diagcube:n=20,alpha=0.25,k=14")
    d, lo = -T.points[0], 20 - 14
    law = dists.uniform_symmetric()

    def radial_and_linear(S, X, law):
        return isets._radial(S, X, law) + [np.einsum("ij,j->i", X[:, :lo],
                                                     d[:lo])]
    twin = dataclasses.replace(T, controls=radial_and_linear)
    stream = dists.RandomStream(26).substream("wide-cube")
    se = [est.paired_gap_estimate(S, law, 16384, stream)[2].std_error
          for S in (T, twin)]
    assert se[0] <= 0.5 * se[1], se
    # doubling the fixed coordinates doubles the linear column and leaves
    # the square, which reads no fixed coordinate
    X = law.sample(np.random.default_rng(27), (64, 20))
    Y = X.copy()
    Y[:, :lo] *= 2.0
    (square, linear), (square2, linear2) = (T.controls(T, Z, law)
                                            for Z in (X, Y))
    assert np.array_equal(square2, square)
    assert np.array_equal(linear2, 2.0 * linear)


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.name)
def test_controls_have_mean_zero_under_every_law(law):
    rng = np.random.default_rng(len(law.name))
    for T in _sets():
        C = np.concatenate([np.array(T.controls(T, T.draw(T, (law,), rng)[0],
                                                law)) for _ in range(20)],
                           axis=-1)
        for col in C:
            assert col.std() > 0
            z = col.mean() / (col.std(ddof=1) / math.sqrt(col.size))
            assert abs(z) <= 5.0, (T.kind, law.name)


def _coverage(T, law, exact, seeds=300):
    """How many of ``seeds`` mc-cv estimates' 95 % intervals cover exact."""
    hits = 0
    for seed in range(seeds):
        e = est.estimate_complexity(T, law, 2 * isets.SAMPLE_BLOCK,
                                    dists.RandomStream(seed))
        assert e.method == "mc-cv"
        hits += e.ci_low <= exact <= e.ci_high
    # 0.95 +- 4 binomial standard deviations
    band = 4.0 * math.sqrt(seeds * 0.95 * 0.05)
    assert abs(hits - 0.95 * seeds) <= band, hits


def test_cv_interval_covers_an_enumerated_spin_value():
    T = isets.make_spin_quadratic(7)
    _coverage(T, dists.rademacher(), est.exact_rademacher_complexity(T).mean)


def test_cv_interval_covers_a_gaussian_cube_value():
    n, k = 8, 3
    T = isets.make_diagonal_cube(_cube_diag(n), k)
    exact = math.sqrt(2.0 / math.pi) * float(_cube_diag(n)[n - k:].sum())
    _coverage(T, dists.gaussian(), exact)


def test_controls_shrink_the_se_on_a_spin_set():
    T = isets.make_spin_quadratic(10)
    plain = dataclasses.replace(T, controls=isets._no_controls)
    stream = dists.RandomStream(19).substream("shrink")
    a = est.estimate_complexity(T, dists.gaussian(), 8192, stream)
    b = est.estimate_complexity(plain, dists.gaussian(), 8192, stream)
    assert (a.method, b.method) == ("mc-cv", "mc")
    assert a.std_error < 0.8 * b.std_error
    assert abs(a.mean - b.mean) <= 5.0 * b.std_error
    a = est.paired_gap_estimate(T, dists.rademacher(), 8192, stream)[2]
    b = est.paired_gap_estimate(plain, dists.rademacher(), 8192, stream)[2]
    assert (a.method, b.method) == ("mc-paired-cv", "mc-paired")
    assert a.std_error < 0.8 * b.std_error


def test_one_block_or_no_control_stays_plain():
    T = isets.make_spin_quadratic(6)
    stream = dists.RandomStream(20)
    one = est.estimate_complexity(T, dists.gaussian(), isets.SAMPLE_BLOCK,
                                  stream)
    assert one.method == "mc"
    B = isets.make_basis_family(6)
    xi, g, gap = est.paired_gap_estimate(B, dists.laplace(), 3000, stream)
    assert (xi.method, g.method, gap.method) == ("mc", "mc", "mc-paired")


def _plain_twins():
    """(set, its twin with no controls, law, estimator) cases whose sets
    declare controls, the estimator returning a tuple of estimates."""
    spin = isets.make_spin_quadratic(8)
    cube = isets.make_diagonal_cube(_cube_diag(8), 3)
    cases = [(spin, law, lambda *a: (est.estimate_complexity(*a),))
             for law in (dists.uniform_symmetric(), dists.gaussian())]
    cases.append((cube, dists.uniform_symmetric(), est.paired_gap_estimate))
    return [(T, dataclasses.replace(T, controls=isets._no_controls), law, f)
            for T, law, f in cases]


@pytest.mark.parametrize("replicates", [1025, 1027, 1500, 2047, 2048])
def test_controls_act_on_two_full_blocks_or_more(replicates):
    acts = replicates >= 2 * isets.SAMPLE_BLOCK
    for T, plain, law, estimate in _plain_twins():
        stream = dists.RandomStream(23).substream("two-blocks")
        ests = estimate(T, law, replicates, stream)
        assert [e.method.endswith("-cv") for e in ests] == [acts] * len(ests)
        if not acts:
            # bitwise the estimate without controls
            assert ests == estimate(plain, law, replicates, stream)


def _lstsq_adjusted(Y, C):
    """Y less C beta on each SAMPLE_BLOCK-row block, beta from
    np.linalg.lstsq of every column of Y on C and a constant over the
    other full blocks, or over every full block for a short last block."""
    B = isets.SAMPLE_BLOCK
    full = len(Y) // B * B
    X = np.column_stack([np.ones(len(Y)), C])
    out = np.empty(Y.shape)
    for lo in range(0, len(Y), B):
        fit = np.arange(full)
        fit = fit[(fit < lo) | (fit >= lo + B)]
        beta = np.linalg.lstsq(X[fit], Y[fit], rcond=None)[0]
        out[lo:lo + B] = Y[lo:lo + B] - C[lo:lo + B] @ beta[1:]
    return out


@pytest.mark.parametrize("replicates", [2051, 3000])
def test_fit_matches_a_lstsq_oracle(replicates):
    # every value of a pass is fitted on every control the pass drew
    stream = dists.RandomStream(24).substream("oracle")
    spin = isets.make_spin_quadratic(8)
    cube = isets.make_diagonal_cube(_cube_diag(8), 3)
    law = dists.uniform_symmetric()
    vals = est._sup_pass(spin, (law,), "complexity-block", replicates,
                         stream)
    cases = [(vals[:, :1], vals[:, 1:])]
    vals = est._sup_pass(cube, (law, dists.gaussian()), "paired-block",
                         replicates, stream)
    cases.append((np.column_stack([vals[:, 0], vals[:, 1],
                                   vals[:, 0] - vals[:, 1]]), vals[:, 2:]))
    for Y, C in cases:
        assert C.shape[1] >= 2
        adjusted, oracle = est._adjusted(Y, C), _lstsq_adjusted(Y, C)
        assert adjusted.shape == Y.shape
        for t in range(Y.shape[1]):
            assert not np.array_equal(oracle[:, t], Y[:, t])
            err = np.max(np.abs(adjusted[:, t] - oracle[:, t]))
            assert err <= 1e-10 * np.max(np.abs(oracle[:, t]))


def test_a_short_block_does_not_inflate_the_se():
    # at 1027 replicates a fit on the 3-row tail alone would be exact on
    # 2 controls and a constant, and its SE hundreds of times the plain one
    T = isets.make_spin_quadratic(8)
    plain = dataclasses.replace(T, controls=isets._no_controls)
    law = dists.uniform_symmetric()
    se = [max(est.estimate_complexity(S, law, 1027,
                                      dists.RandomStream(seed)).std_error
              for seed in range(40)) for S in (T, plain)]
    assert se[0] <= 1.1 * se[1]


def _adjusted(values, C):
    """values adjusted by every control of C."""
    return est._adjusted(values[:, None], C)[:, 0]


def test_fit_drops_a_control_lost_in_rounding():
    rng = np.random.default_rng(21)
    values = rng.standard_normal(3000)
    c = rng.standard_normal(3000)
    # constant over every block: no coefficient, values unchanged
    assert np.array_equal(_adjusted(values, np.full((3000, 1), 0.1)), values)
    # a column that copies an earlier one up to an affine map adds nothing
    one = _adjusted(values + c, c[:, None])
    two = _adjusted(values + c, np.stack([c, 0.3 - 2.0 * c], axis=1))
    np.testing.assert_allclose(two, one, rtol=0, atol=1e-12)
    # a trailing block of one row reads the fit on every full block and
    # changes no full block's values
    C = np.stack([c, c ** 2], axis=1)
    short = _adjusted(values[:2049], C[:2049])
    assert np.all(np.isfinite(short))
    assert np.array_equal(short[:2048], _adjusted(values[:2048], C[:2048]))


def test_fit_does_not_depend_on_the_memory_layout():
    # the same values and controls, C-ordered and Fortran-ordered, whole
    # or as strided views of one wider table, adjust to the same bits
    rng = np.random.default_rng(25)
    table = rng.standard_normal((16 * isets.SAMPLE_BLOCK + 5, 7))
    table[:, :3] += table[:, 3:6] @ np.array([[0.4, -0.2, 0.1],
                                              [0.3, 0.5, -0.7],
                                              [-0.6, 0.2, 0.9]])
    Y, C = table[:, :3], table[:, 3:]
    want = est._adjusted(np.ascontiguousarray(Y), np.ascontiguousarray(C))
    for order in ("C", "F"):
        got = est._adjusted(np.array(Y, order=order),
                            np.array(C, order=order))
        assert np.array_equal(got, want)
    assert np.array_equal(est._adjusted(Y, C), want)
    assert np.array_equal(est._adjusted(Y.T.copy().T, C.T.copy().T), want)


def test_replicate_table_over_the_budget_is_refused():
    # 2^40 replicates of one column would take 8 TiB
    blocks = []

    def draw(rng):
        blocks.append(1)
        return rng.standard_normal((1, isets.SAMPLE_BLOCK, 4))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the budget"):
            est._blocked(dists.RandomStream(1), "huge", 2 ** 40, draw,
                         lambda X: X[0].max(axis=1))
        with pytest.raises(ValueError, match=str(8 * 2 ** 40)):
            est.estimate_complexity(isets.make_basis_family(4),
                                    dists.gaussian(), 2 ** 40,
                                    dists.RandomStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == 1
    assert peak < 2 ** 20


def test_cli_refuses_a_replicate_table_over_the_budget(tmp_path, capsys):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["estimate", "set=basis:n=4", "distribution=gaussian",
                         "replicates=1099511627776",
                         f"output_dir={tmp_path}"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


# controlled estimates pinned to their bits: the fit's sums are einsum, its
# solves elementwise, the cycle sums einsum and the split two-spin sups
# independent of the BLAS thread count, so the values must not move with
# it
PINNED = ("75465e6d8fc285e9267b28e58ae5c33a"
          "f2cbc1d1e2ea83b077473e113ed07f8d")


def _pinned_digest():
    """SHA-256 of the means and SEs of three controlled estimates."""
    stream = dists.RandomStream(22)
    T = isets.make_spin_quadratic(9)
    cube = isets.make_diagonal_cube(_cube_diag(9), 4)
    ests = (est.paired_gap_estimate(T, dists.rademacher(), 3000, stream)
            + est.paired_gap_estimate(cube, dists.uniform_symmetric(), 3000,
                                      stream)
            + (est.estimate_complexity(T, dists.gaussian(), 3000, stream),))
    assert all(e.method.endswith("-cv") for e in ests)
    text = ";".join(f"{e.mean!r},{e.std_error!r}" for e in ests)
    return hashlib.sha256(text.encode()).hexdigest()


def test_controlled_estimates_do_not_depend_on_blas_threads():
    # here at the BLAS thread count of the environment, and in a fresh
    # interpreter at one BLAS thread
    assert _pinned_digest() == PINNED
    path = os.pathsep.join([str(pathlib.Path(est.__file__).parents[1]),
                            str(pathlib.Path(__file__).parent)])
    one = subprocess.run(
        [sys.executable, "-c",
         "import test_controls; print(test_controls._pinned_digest())"],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
                 OMP_NUM_THREADS="1"))
    assert one.stdout.strip() == PINNED
