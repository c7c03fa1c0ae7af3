"""Span tracing of the package's public functions, from outside the package.

A Tracer replaces every public function of every package module, in every
module namespace that binds it (``from .estimator import
estimate_complexity`` makes a second binding), plus the coordinate laws'
``sample`` and ``ppf`` methods at class level.  Each call records a span:
name, start, end, the span that was open when it began, and the counters
its counter function derives from the arguments and result.  Spans stay in
memory; ``take`` hands them over and starts a fresh list.

A span's self time is its duration minus the durations of its child spans
(calls are synchronous, so children never overlap).
"""
from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "supcompare"
NS = 1e9

# functions that build an index set; their self time is the build layer
BUILDERS = frozenset({
    "index_sets.build_explicit", "index_sets.make_basis_family",
    "index_sets.make_diagonal_cube", "index_sets.make_spin_quadratic",
    "index_sets.make_spin_tensor", "index_sets.sign_patterns",
})
SUP_KERNELS = ("estimator.estimate_complexity", "estimator.paired_gap_estimate",
               "estimator.exact_rademacher_complexity")
SUP_KINDS = ("basis-canonical", "spin-quadratic", "diagonal-cube")
LAWS = ("laplace", "gaussian", "rademacher", "uniform")
SELF_TIMED = (
    "index_sets.geometric_profile",
    "estimator.estimate_complexity", "estimator.paired_gap_estimate",
    "estimator.exact_rademacher_complexity", "estimator.softmax_complexity",
    "softmax.log_partition_partials_rows", "softmax.log_partition",
    "ou_stein.stein_representation_check", "ou_stein.potential_partial",
    "ou_stein.poisson_identity_check",
    "experiments.heavy_tail_growth", "experiments.spin_glass_universality",
    "bounds.error_report", "cli.parse_set", "cli.run", "cli.emit",
)

# every per-layer metric a traced run reports, in report order, with unit
LAYER_METRICS = {
    "distributions.sample.self_s": "s",
    "distributions.sample.draws": "count",
    "distributions.sample.ns_per_draw": "ns",
    **{f"distributions.sample.ns_per_draw.{law}": "ns" for law in LAWS},
    "distributions.ppf.self_s": "s",
    "distributions.ppf.draws": "count",
    "distributions.ppf.ns_per_draw": "ns",
    "index_sets.build.self_s": "s",
    "index_sets.build.bytes": "bytes",
    "index_sets.dedupe.probe_s": "s",
    "index_sets.geometric_profile.self_s": "s",
    "estimator.estimate_complexity.self_s": "s",
    "estimator.paired_gap_estimate.self_s": "s",
    "estimator.exact_rademacher_complexity.self_s": "s",
    "estimator.softmax_complexity.self_s": "s",
    "estimator.rep_points": "count",
    **{f"estimator.sup.ns_per_rep_point.{kind}": "ns" for kind in SUP_KINDS},
    "estimator.flops_computed": "count",
    "estimator.bytes_computed": "bytes",
    "estimator.softmax_complexity.ns_per_rep_point": "ns",
    "softmax.log_partition_partials_rows.self_s": "s",
    "softmax.log_partition_partials_rows.rows": "count",
    "softmax.log_partition.calls": "count",
    "softmax.log_partition.self_s": "s",
    "ou_stein.stein_representation_check.self_s": "s",
    "ou_stein.potential_partial.self_s": "s",
    "ou_stein.poisson_identity_check.self_s": "s",
    "experiments.heavy_tail_growth.self_s": "s",
    "experiments.spin_glass_universality.self_s": "s",
    "bounds.error_report.self_s": "s",
    "cli.parse_set.self_s": "s",
    "cli.run.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.emit.bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same span list, -1 for a root
    counters: dict | None = None


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _points_bytes(fn, args, kwargs, result):
    return {"bytes": result.points.nbytes}


def _draws(fn, args, kwargs, result):
    return {"draws": int(result.size), "law": args[0].name}


def _kernel_counter(kernel: str):
    """Counters of one estimator call, from its bound arguments.

    rep_points is replicates x |T| per sup evaluation (the paired kernel
    evaluates two).  flops and bytes are computed, not measured: a generic
    matmul kernel does 2 x reps x |T| x dim flops and writes a reps x dim
    sample block plus a reps x |T| score matrix; basis kernels skip the
    matmul and the score matrix.
    """
    def count(fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        T = bound["T"]
        reps = (1 << T.dim if kernel.endswith("exact_rademacher_complexity")
                else bound["replicates"])
        evals = 2 if kernel.endswith("paired_gap_estimate") else 1
        card, dim = T.cardinality, T.dim
        generic = not T.kind.startswith("basis-")
        return {
            "kind": T.kind,
            "rep_points": evals * reps * card,
            "flops": evals * 2 * reps * card * dim if generic else 0,
            "bytes": 8 * reps * (dim + (evals * card if generic else 0)),
        }
    return count


def _rows(fn, args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _emit_bytes(fn, args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


COUNTERS = {
    **{name: _points_bytes for name in BUILDERS - {"index_sets.sign_patterns"}},
    "distributions.sample": _draws,
    "distributions.ppf": _draws,
    **{k: _kernel_counter(k) for k in SUP_KERNELS + ("estimator.softmax_complexity",)},
    "softmax.log_partition_partials_rows": _rows,
    "cli.emit": _emit_bytes,
}


class Tracer:
    """Wraps the package's public functions and records their spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.counters = count(fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every public function at every binding in the package."""
        modules = _package_modules()
        wrapped = {}
        for mod in modules:
            short = mod.__name__[len(PACKAGE) + 1:]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules + [sys.modules[PACKAGE]]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        dist_cls = sys.modules[PACKAGE + ".distributions"].CoordinateDistribution
        for method in ("sample", "ppf"):
            fn = vars(dist_cls)[method]
            self._undo.append((dist_cls, method, fn))
            setattr(dist_cls, method, self._wrap(f"distributions.{method}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list:
        """The spans recorded since the last take; call between ops."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = list(self.spans)
        self.spans.clear()
        return out


def _package_modules() -> list:
    pkg = importlib.import_module(PACKAGE)
    return [importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


@dataclass
class PassTrace:
    """What one traced pass recorded: metrics, and per-span calls and self time."""

    metrics: dict
    calls: dict
    self_s: dict


def layer_metrics(op_spans, op_walls) -> PassTrace:
    """Per-layer metrics of one traced pass.

    op_spans holds one span list per op (as returned by Tracer.take) and
    op_walls the wall seconds of each op; trace.unattributed_s is the part
    of that wall time no root span covers.  trace.overhead_s and
    index_sets.dedupe.probe_s are measured elsewhere and left at 0.
    """
    self_s = defaultdict(float)
    calls = defaultdict(int)
    tot = defaultdict(float)  # summed counters, keyed by metric name
    unattributed = sum(op_walls)
    for spans in op_spans:
        selfs = self_times(spans)
        for span, own in zip(spans, selfs):
            self_s[span.name] += own
            calls[span.name] += 1
            if span.parent < 0:
                unattributed -= span.end - span.start
            c = span.counters
            if c is None:
                continue
            if span.name in ("distributions.sample", "distributions.ppf"):
                tot[f"{span.name}.draws"] += c["draws"]
                tot[f"{span.name}.draws.{c['law']}"] += c["draws"]
                tot[f"{span.name}.self_s.{c['law']}"] += own
            elif span.name in SUP_KERNELS:
                tot["estimator.rep_points"] += c["rep_points"]
                tot[f"sup.rep_points.{c['kind']}"] += c["rep_points"]
                tot[f"sup.self_s.{c['kind']}"] += own
            elif span.name == "estimator.softmax_complexity":
                tot["softmax.rep_points"] += c["rep_points"]
            elif span.name == "softmax.log_partition_partials_rows":
                tot[f"{span.name}.rows"] += c["rows"]
            elif span.name == "cli.emit":
                tot["cli.emit.bytes"] += c["bytes"]
            elif span.parent < 0 or spans[span.parent].name not in BUILDERS:
                tot["index_sets.build.bytes"] += c["bytes"]
            if "flops" in c:
                tot["estimator.flops_computed"] += c["flops"]
                tot["estimator.bytes_computed"] += c["bytes"]

    out = {name: 0.0 for name in LAYER_METRICS}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_s[name]
    for name in ("distributions.sample", "distributions.ppf"):
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.draws"] = tot[f"{name}.draws"]
        out[f"{name}.ns_per_draw"] = _ratio(self_s[name], tot[f"{name}.draws"], NS)
    for law in LAWS:
        out[f"distributions.sample.ns_per_draw.{law}"] = _ratio(
            tot[f"distributions.sample.self_s.{law}"],
            tot[f"distributions.sample.draws.{law}"], NS)
    out["index_sets.build.self_s"] = sum(self_s[n] for n in BUILDERS)
    for key in ("index_sets.build.bytes", "estimator.rep_points",
                "estimator.flops_computed", "estimator.bytes_computed",
                "softmax.log_partition_partials_rows.rows", "cli.emit.bytes"):
        out[key] = tot[key]
    for kind in SUP_KINDS:
        out[f"estimator.sup.ns_per_rep_point.{kind}"] = _ratio(
            tot[f"sup.self_s.{kind}"], tot[f"sup.rep_points.{kind}"], NS)
    out["estimator.softmax_complexity.ns_per_rep_point"] = _ratio(
        self_s["estimator.softmax_complexity"], tot["softmax.rep_points"], NS)
    out["softmax.log_partition.calls"] = calls["softmax.log_partition"]
    out["trace.unattributed_s"] = unattributed
    return PassTrace(out, dict(calls), dict(self_s))


def median_metrics(per_pass: list) -> dict:
    """Metric-wise median over passes."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
