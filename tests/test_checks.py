import json
import math

import numpy as np
import pytest

from supcompare import checks, cli
from supcompare import index_sets as isets
from supcompare import ou_stein as ou
from supcompare import softmax as sm


@pytest.mark.parametrize("target", sorted(checks.BATTERIES))
def test_driver_rows_report_the_value_they_were_judged_by(target):
    for seed in (0, 1, 2):
        rows = checks.run_battery(target, seed)
        table = checks.BATTERIES[target]
        assert [r["check"] for r in rows] == [c.name for c in table]
        for row, check in zip(rows, table):
            assert row["threshold"] == check.threshold
            if check.lower:
                assert row["passed"] == (row["observed"] >= row["threshold"])
                assert row["observed"] <= 1.0
            else:
                assert row["passed"] == (row["observed"] <= row["threshold"])
                assert row["observed"] >= 0.0


@pytest.mark.parametrize("seed", range(5))
def test_stein_battery_passes(seed):
    rows = checks.run_battery("stein", seed)
    assert all(r["passed"] for r in rows), [r for r in rows if not r["passed"]]


def test_stein_row_verdict_follows_its_printed_numbers(monkeypatch):
    # the row observes the agreement's diff against its tolerance: a diff
    # of 1.0 over a tolerance of 0.5 fails the row
    monkeypatch.setattr(ou, "ergodic_check",
                        lambda f, t, x: ou.Agreement(1.5, (0.5,), 0.0, 0.5,
                                                     True))
    rows = {r["check"]: r for r in checks.run_battery("stein", 0)}
    assert rows["ergodic_poly"] == {"check": "ergodic_poly", "passed": False,
                                    "observed": 1.0, "threshold": 0.5}


@pytest.mark.parametrize("name, patches", [
    ("derivative_moment_bounds",
     {"THIRD_DERIV_CONST": 0.0, "FOURTH_DERIV_CONST": 0.0}),
    ("lipschitz_log_moment",
     {"geometric_profile": lambda T: isets.GeometricProfile(*[0.0] * 9)}),
])
def test_bound_rows_report_the_size_of_a_violation(monkeypatch, name,
                                                   patches):
    # each patch breaks the bound on every instance; the row reports the
    # largest relative excess of its reports, not a 1.0 flag
    for attr, value in patches.items():
        monkeypatch.setattr(sm, attr, value)
    check = next(c for table in checks.BATTERIES.values() for c in table
                 if c.name == name)
    row = checks.run_check(check, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    sizes = [check.measure(rng) for _ in range(check.instances)]
    assert min(sizes) > 0.0 and max(sizes) != 1.0
    assert row == {"check": name, "passed": False, "observed": max(sizes),
                   "threshold": 0.0}


def test_run_check_rule():
    values = iter([0.5, 2.0, math.nan, 0.25])
    row = checks.run_check(checks.Check("c", 2, lambda rng: next(values), 1.0),
                           None)
    assert row == {"check": "c", "passed": False, "observed": 2.0,
                   "threshold": 1.0}
    # a NaN instance fails the row whatever the others read
    row = checks.run_check(checks.Check("c", 2, lambda rng: next(values), 1.0),
                           None)
    assert not row["passed"] and math.isnan(row["observed"])
    row = checks.run_check(
        checks.Check("c", 3, lambda rng: 0.95, 0.9, lower=True), None)
    assert row["passed"] and row["observed"] == 0.95
    row = checks.run_check(
        checks.Check("c", 3, lambda rng: 1.5, 0.9, lower=True), None)
    assert row["observed"] == 1.0  # a lower row's worst starts from 1
    row = checks.run_check(
        checks.Check("c", 1, lambda rng: math.nan, 0.9, lower=True), None)
    assert not row["passed"] and math.isnan(row["observed"])


@pytest.mark.parametrize("gap, passed", [(-5e-13, True), (1.0 + 5e-13, True),
                                         (-2e-12, False), (1.0 + 2e-12, False)])
def test_sandwich_bracket_slack(monkeypatch, gap, passed):
    # the bracket is [0, bound] widened by 1e-12 on each side
    monkeypatch.setattr(sm, "sandwich_gap", lambda T, beta, x: (gap, 1.0))
    check = checks.BATTERIES["softmax"][0]
    assert check.name == "sandwich_bracket"
    row = checks.run_check(check, np.random.default_rng(0))
    assert row["passed"] == passed
    assert row["observed"] == max(0.0, max(gap - 1.0, -gap) - 1e-12)


def _failing_verify(target, tmp_path, capsys, name):
    out = tmp_path / "fail"
    code = cli.main(["verify", target, "seed=2", f"output_dir={out}"])
    assert code == 2
    assert "FAIL all_checks_pass" in capsys.readouterr().out
    doc = json.loads((out / f"verify-{target}.json").read_text())
    assert doc["summary"]["failed"] == 1
    table = doc["tables"]["main"]
    rows = {r[0]: dict(zip(table["headers"], r)) for r in table["rows"]}
    assert f"\n{name},0," in (out / f"verify-{target}.csv").read_text()
    return rows[name]


def test_verify_failing_upper_row_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sm, "uniform_identity_gap", lambda T, beta, x: 1.0)
    row = _failing_verify("softmax", tmp_path, capsys,
                          "uniform_measure_identity")
    assert row == {"check": "uniform_measure_identity", "passed": False,
                   "observed": 1.0, "threshold": 1e-10}


def test_verify_failing_lower_row_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sm, "collapse_weight", lambda T, x: 0.5)
    row = _failing_verify("softmax", tmp_path, capsys, "weight_collapse")
    assert row == {"check": "weight_collapse", "passed": False,
                   "observed": 0.5, "threshold": 1.0 - 1e-6}


def test_fd_error_is_relative_to_the_partial_scale(monkeypatch):
    T = isets.build_explicit(np.array([[2.0, 0.0], [0.0, 1.0]]))
    monkeypatch.setattr(sm, "grad_fd_report", lambda *args: (3.0, 3.5))
    # floor = |3| + beta^(order-1) max|t_0|^order + 1e-12 = 3 + 0.25 * 2^3
    assert checks.fd_error(T, 0.5, np.zeros(2), 0, 3) == pytest.approx(
        0.5 / (5.0 + 1e-12), rel=1e-15)
