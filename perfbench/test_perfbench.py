"""Tests of the benchmark's own arithmetic, oracles and accounting.

usage: PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import supcompare  # noqa: E402
from supcompare import cli, distributions, estimator, experiments  # noqa: E402
from supcompare import index_sets  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, counters=None):
    return spans.Span(name, start, end, parent, counters)


def test_self_times_subtract_children_only():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_on_synthetic_tree():
    tree = [
        _span("cli.run", 0.0, 10.0, -1),
        _span("index_sets.make_spin_quadratic", 0.0, 2.0, 0, {"bytes": 800}),
        _span("index_sets.make_spin_tensor", 0.5, 1.5, 1, {"bytes": 800}),
        _span("estimator.estimate_complexity", 2.0, 8.0, 0,
              {"kind": "spin-quadratic", "rep_points": 1000, "flops": 40,
               "bytes": 64}),
        _span("distributions.sample", 3.0, 5.0, 3,
              {"draws": 100, "law": "gaussian"}),
        _span("cli.emit", 10.0, 10.5, -1, {"bytes": 7}),
    ]
    m = spans.layer_metrics([tree], [11.0]).metrics
    assert set(m) == set(spans.LAYER_METRICS)
    assert m["index_sets.build.self_s"] == pytest.approx(2.0)
    assert m["index_sets.build.bytes"] == 800  # the nested builder is not recounted
    assert m["estimator.estimate_complexity.self_s"] == pytest.approx(4.0)
    assert m["estimator.sup.ns_per_rep_point.spin-quadratic"] == pytest.approx(4e6)
    assert m["distributions.sample.ns_per_draw.gaussian"] == pytest.approx(2e7)
    assert m["estimator.flops_computed"] == 40
    assert m["cli.emit.bytes"] == 7
    assert m["cli.run.self_s"] == pytest.approx(2.0)
    assert m["trace.unattributed_s"] == pytest.approx(0.5)


def test_quadrature_oracle_matches_closed_forms():
    # E max of 2 iid N(0,1) is 1/sqrt(pi); of 2 iid Laplace(1) it is
    # E|X - Y| / 2 = 3/4; a single coordinate has mean 0
    assert oracles.expected_max("gaussian", 2) == pytest.approx(
        1.0 / math.sqrt(math.pi), abs=1e-10)
    assert oracles.expected_max("laplace", 2) == pytest.approx(0.75, abs=1e-10)
    assert oracles.expected_max("gaussian", 1) == pytest.approx(0.0, abs=1e-10)
    assert oracles.expected_max("laplace", 1) == pytest.approx(0.0, abs=1e-10)


def test_spin_enumeration_oracle_matches_program():
    for N in (3, 4, 6):
        ours = oracles.exact_rademacher_mean(oracles.spin_quadratic_points(N))
        theirs = estimator.exact_rademacher_complexity(
            index_sets.make_spin_tensor(N, 2)).mean
        assert ours == pytest.approx(theirs, rel=1e-12)


def test_estimate_check_uses_combined_standard_errors():
    refs = {"x": (1.0, 0.3)}
    assert workloads.check_estimates({"x": (1.0 + 4.9 * 0.5, 0.4)}, refs) == []
    assert workloads.check_estimates({"x": (1.0 + 5.1 * 0.5, 0.4)}, refs)
    assert workloads.check_estimates({}, refs) == ["estimate x missing"]


SMOKE = workloads.Workload(
    "smoke", "two small ops",
    (("estimate", "set=basis:n=4", "replicates=200"), ("verify", "gibbs")),
    (0, ("metric", "complexity"), "std_error"), 0.01, ("cli.emit",))


def test_failing_op_is_counted_not_raised(tmp_path, monkeypatch):
    real_run = cli.run

    def bracket_violation(config):
        if config.subcommand == "estimate":
            raise AssertionError("soft-max left the certified bracket")
        return real_run(config)

    monkeypatch.setattr(cli, "run", bracket_violation)
    results = worker.run_pass(SMOKE, 5, str(tmp_path), {})
    assert worker.failed_op_share([results, results]) == (4, 2, 0.5)
    assert results[0].reasons == [
        "raised AssertionError: soft-max left the certified bracket"]
    assert results[1].reasons == []


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    originals = (estimator.estimate_complexity,
                 distributions.CoordinateDistribution.sample)
    bindings = (estimator, experiments, supcompare, supcompare.bounds,
                cli)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in bindings:
            assert mod.estimate_complexity.__wrapped__ is originals[0]
        result = worker.run_op(SMOKE, 0, 5, str(tmp_path), {}, tracer)
    finally:
        tracer.uninstall()
    assert estimator.estimate_complexity is originals[0]
    assert distributions.CoordinateDistribution.sample is originals[1]
    assert all(mod.estimate_complexity is originals[0] for mod in bindings)
    assert result.reasons == []
    names = [s.name for s in result.spans]
    assert names[0] == "cli.run"
    by_name = {s.name: s for s in result.spans}
    sample = by_name["distributions.sample"]
    parent = result.spans[sample.parent].name
    assert parent == "estimator.estimate_complexity"
    assert sample.counters == {"draws": 1024 * 4, "law": "rademacher"}


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.LAYER_METRICS
