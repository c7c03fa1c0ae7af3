import math
import os
import subprocess
import sys

import numpy as np
import pytest

import supcompare
from supcompare import distributions as dists
from supcompare import estimator as est
from supcompare import experiments as xp
from supcompare import index_sets as isets

# exact enumeration oracles for the order-3 tensor at N = 4 (normalized)
TENSOR_43_RADEMACHER = 1.0
TENSOR_43_GAUSSIAN = 0.79715  # 1e5-replicate oracle, se ~ 1e-3


def test_heavy_tail_growth_small():
    res = xp.heavy_tail_growth((16, 64, 256), 4000,
                               dists.RandomStream(1).substream("ht"))
    assert [r["n"] for r in res.rows] == [16, 64, 256]
    gaps = [r["gap"] for r in res.rows]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps)
    assert res.summary["ratio_log34_spearman"] == pytest.approx(1.0)
    assert res.summary["ratio_log_max_over_min"] >= 1.0
    with pytest.raises(ValueError):
        xp.heavy_tail_growth((1,), 4000, dists.RandomStream(1))


def test_spin_glass_universality_small():
    res = xp.spin_glass_universality((4, 6), dists.rademacher(), 4000,
                                     dists.RandomStream(2).substream("sk"))
    assert res.summary["exponent"] == 0.25
    for row in res.rows:
        # rademacher disorder enumerates exactly
        assert row["xi_se"] == 0.0
        assert row["gap"] >= 0.0
        assert row["scaled_gap"] == pytest.approx(
            row["gap"] * row["N"] ** 0.25)
    assert res.summary["scaled_max"] >= res.summary["scaled_min"]


def test_sweeps_refuse_a_bad_size_before_any_work(monkeypatch):
    def builds(*args, **kwargs):
        raise AssertionError("built a set before checking every size")
    monkeypatch.setattr(xp, "make_basis_family", builds)
    monkeypatch.setattr(xp, "make_spin_tensor", builds)
    with pytest.raises(ValueError, match=">= 2"):
        xp.heavy_tail_growth((4096, 1), 100, dists.RandomStream(1))
    with pytest.raises(ValueError, match=">= 2"):
        xp.spin_glass_universality((4, 1), dists.uniform_symmetric(), 100,
                                   dists.RandomStream(1))


def test_sweeps_refuse_an_over_cap_size_before_any_estimate(monkeypatch):
    def estimates(*args, **kwargs):
        raise AssertionError("estimated before checking every size")
    monkeypatch.setattr(xp, "estimate_complexity", estimates)
    monkeypatch.setattr(xp, "_gap_fields", estimates)
    with pytest.raises(ValueError, match="dimension"):
        xp.heavy_tail_growth((16, isets.MAX_DIM + 1), 100,
                             dists.RandomStream(1))
    # N = 21 and 22 pass the 2^N cardinality cap, but their points do not
    # fit the byte budget
    for N, match in ((23, "cardinality"), (21, "bytes")):
        with pytest.raises(ValueError, match=match):
            xp.spin_glass_universality((4, N), dists.rademacher(), 100,
                                       dists.RandomStream(1))


def test_universality_exponent_for_skewed_law():
    skew = dists.CoordinateDistribution("skewed", 1.0, 0.4, 1.3, 3.0, None)
    assert xp._universality_exponent(skew) == pytest.approx(1.0 / 6.0)
    assert xp._universality_exponent(dists.uniform_symmetric()) == 0.25


def test_tensor_universality_order3_oracle():
    T = isets.make_spin_tensor(4, 3, normalized=True)
    r = est.exact_rademacher_complexity(T)
    assert r.mean == pytest.approx(TENSOR_43_RADEMACHER, abs=1e-12)
    res = xp.tensor_universality(4, 3, dists.rademacher(), 20000,
                                 dists.RandomStream(3).substream("t"))
    row = res.rows[0]
    assert row["xi_mean"] == pytest.approx(TENSOR_43_RADEMACHER, abs=1e-12)
    assert abs(row["gauss_mean"] - TENSOR_43_GAUSSIAN) <= \
        4.0 * row["gauss_se"] + 2e-3
    assert "gauss_in_band" not in res.summary  # band applies to m = 2 only


def test_tensor_band_for_quadratic():
    res = xp.tensor_universality(6, 2, dists.uniform_symmetric(), 4000,
                                 dists.RandomStream(4).substream("t2"))
    assert res.summary["gauss_in_band"]
    lo, hi = xp.TENSOR_GAUSS_BAND
    assert lo <= res.rows[0]["gauss_mean"] <= hi


def test_tensor_bound_scale_shrinks_with_order():
    # (N/binom)^{1/4} decreases in m for fixed N <= 2m
    s2 = xp.tensor_universality(8, 2, dists.rademacher(), 200,
                                dists.RandomStream(5)).rows[0]["bound_scale"]
    s4 = xp.tensor_universality(8, 4, dists.rademacher(), 200,
                                dists.RandomStream(5)).rows[0]["bound_scale"]
    assert s4 < s2


def test_cli_import_leaves_scipy_out():
    # scipy.special takes ~0.25 s to import and scipy.stats ~0.6 s: the
    # Gaussian quantile and log_laplace's reference logsumexp load
    # scipy.special on their first call, and no module needs scipy.stats
    src = os.path.dirname(os.path.dirname(supcompare.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, supcompare.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_spearman_matches_scipy_on_ties():
    from scipy import stats
    assert xp._average_ranks([3.0, 1.0, 2.0, 2.0, 3.0]).tolist() == [
        4.5, 1.0, 2.5, 2.5, 4.5]
    rng = np.random.default_rng(30)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(3, 12))
        x = rng.integers(0, 4, n).astype(float)
        y = rng.integers(0, 5, n).astype(float)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue  # a constant input has no rank correlation
        assert np.array_equal(xp._average_ranks(x), stats.rankdata(x))
        assert xp._spearman(x, y) == pytest.approx(
            stats.spearmanr(x, y).statistic, rel=0, abs=1e-12)
        checked += 1
    assert checked >= 250
