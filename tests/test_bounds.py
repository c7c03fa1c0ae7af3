import math

import numpy as np
import pytest

from supcompare import bounds as bmod
from supcompare import distributions as dists
from supcompare import index_sets as isets

E_MAX_8_NORMALS = 1.423600306045278  # quadrature oracle


def crafted_profile():
    T = isets.build_explicit(np.diag([2.0, 1.5, 1.0])[[0, 1, 2]])
    return isets.geometric_profile(T)


def test_bound_profile_formulas():
    p = crafted_profile()
    # rows are 2e1, 1.5e2, 1e3: r2 = 2, r3 = 2, r4 = 2, rinf = 2
    assert (p.r2, p.rinf) == (2.0, 2.0)
    u = 16.0
    bp = bmod.bound_profile(p, u, sigma3=1.1, sigma4=1.2, bound=3.0)
    assert bp.trivial == pytest.approx(4.0 * 2.0)
    assert bp.mixed == pytest.approx(8.0 * 2.0)
    assert bp.fourth_moment == pytest.approx(8.0 * 2.0)
    assert bp.sup_norm == pytest.approx(32.0)
    assert bp.bounded_max == pytest.approx(3.0 * max(2.0 * 8.0, 2.0 * 16.0))
    assert bp.bounded_max_r3 == pytest.approx(
        3.0 * max(2.0 * 16.0 ** (2 / 3), 32.0))
    assert bp.l3_column == pytest.approx(1.1 * p.col3 * 16.0 ** (2 / 3))
    assert bp.l4_column == pytest.approx(1.2 * p.col4 * 8.0)


def test_bound_profile_none_handling():
    p = crafted_profile()
    bp = bmod.bound_profile(p, 4.0)
    assert bp.bounded_max is None and bp.l3_column is None
    with pytest.raises(ValueError):
        bmod.bound_profile(p, -1.0)


def test_crossover_identities():
    rng = np.random.default_rng(0)
    for _ in range(20):
        T = isets.build_explicit(rng.standard_normal((6, 5)))
        p = isets.geometric_profile(T)
        u1, u2 = p.u1, p.u2
        # fourth-moment and sup-norm curves meet at u1
        lhs = p.r4 * u1 ** 0.75
        rhs = p.rinf * u1
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        # trivial and mixed curves meet at u2
        lhs = math.sqrt(u2) * p.r2
        rhs = u2 ** 0.75 * math.sqrt(p.r2 * p.rinf)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        assert u1 <= u2 * (1 + 1e-12)


def test_piecewise_and_flags():
    p = crafted_profile()
    u1, u2 = p.u1, p.u2
    grid = (0.5 * u1 + 1e-3, u1, 2.0 * u1)
    for u, row in zip(grid, bmod.phase_curve_table(p, grid, 3.0)):
        assert row["piecewise"] == pytest.approx(
            3.0 * min(p.r4 * u ** 0.75, p.rinf * u))
    flags = bmod.regime_flags(p, 0.5)
    assert flags["clt_scale"] == (p.rinf * math.sqrt(0.5) <= p.r2)
    assert isinstance(flags["in_window"], bool)


def test_phase_curve_table_regions():
    p = crafted_profile()
    u1, u2 = p.u1, p.u2
    rows = bmod.phase_curve_table(p, [0.5 * u1, u1 * 1.0001, u2 * 1.5], 1.0)
    assert rows[0]["region"] == "below-window"
    assert rows[1]["region"] == "window" or u1 == u2
    assert rows[2]["region"] == "above-window"
    for row in rows:
        assert row["piecewise"] <= row["fourth_moment"] + 1e-12
        assert row["piecewise"] <= row["sup_norm"] + 1e-12


def test_auto_beta():
    p = crafted_profile()
    u = 9.0
    bounded = bmod.auto_beta(p, u, dists.scaled_rademacher(2.0))
    assert bounded == pytest.approx(min(1 / (2 * p.rinf),
                                        9.0 ** 0.25 / (2 * p.r4)))
    free = bmod.auto_beta(p, u, dists.laplace(True))
    assert free == pytest.approx(9.0 ** 0.25 / (dists.laplace(True).sigma4
                                                * p.col4))
    with pytest.raises(ValueError):
        bmod.auto_beta(p, 0.0, dists.gaussian())


def test_error_report_gaussian_self():
    T = isets.make_basis_family(8)
    rep = bmod.error_report(T, dists.gaussian(), 4000,
                            dists.RandomStream(3).substream("self"))
    assert rep.gap <= 4.0 * rep.gap_std_error + 1e-12
    assert set(rep.ratios) == {"trivial", "mixed", "fourth_moment",
                               "sup_norm", "l3_column", "l4_column"}
    paired = bmod.error_report(T, dists.gaussian(), 1000,
                               dists.RandomStream(4))
    assert paired.gap == 0.0 and paired.gap_std_error == 0.0


def test_error_report_rademacher_gap():
    # gap for the canonical basis: E max g_i - (1 - 2^{1-n})
    T = isets.make_basis_family(8)
    rep = bmod.error_report(T, dists.rademacher(), 60000,
                            dists.RandomStream(5).substream("rad"))
    expected = E_MAX_8_NORMALS - (1.0 - 2.0 ** -7)
    assert abs(rep.gap - expected) <= 4.0 * rep.gap_std_error + 1e-3
    assert all(math.isfinite(v) for v in rep.ratios.values())
    assert rep.bounds.bounded_max is not None  # rademacher is bounded


def test_sudakov_basis_values():
    n = 8
    T = isets.make_basis_family(n)
    rep = bmod.sudakov_check(T)
    assert rep.exact
    a = math.sqrt(2.0)
    logc = math.log(n)
    assert rep.separation == pytest.approx(a, rel=1e-12)
    assert rep.hypothesis_ratio == pytest.approx(
        1.0 * 1.0 * math.sqrt(logc) / 2.0, rel=1e-12)
    assert rep.conclusion_ratio == pytest.approx(
        (1.0 - 2.0 ** (1 - n)) / (a * math.sqrt(logc)), rel=1e-12)


def test_sudakov_estimate_defaults_to_the_default_seed_stream():
    # 30 coordinates are past MAX_ENUM_DIM, so r(T) is a Monte-Carlo
    # estimate, drawn on the default stream when none is passed
    T = isets.make_diagonal_cube(np.linspace(1.0, 0.1, 30), k=3)
    rep = bmod.sudakov_check(T, 200)
    assert not rep.exact
    assert rep == bmod.sudakov_check(
        T, 200, dists.RandomStream(dists.DEFAULT_SEED))


def test_sudakov_validation():
    with pytest.raises(ValueError):
        bmod.sudakov_check(isets.build_explicit([[1.0, 0.0]]))
    dup = isets.build_explicit([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        bmod.sudakov_check(dup)  # only one distinct point
    big = isets.build_explicit(
        np.random.default_rng(1).standard_normal((4100, 2)))
    with pytest.raises(ValueError):
        bmod.sudakov_check(big)


def test_sudakov_dedupes_before_distances(monkeypatch):
    pts = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    unique, calls = np.unique, []
    monkeypatch.setattr(isets.np, "unique",
                        lambda *a, **k: calls.append(1) or unique(*a, **k))
    rep = bmod.sudakov_check(isets.build_explicit(pts))
    assert len(calls) == 1  # the deduped set is not deduped again
    assert rep.cardinality == 2
    assert rep.separation == pytest.approx(math.sqrt(2.0))
