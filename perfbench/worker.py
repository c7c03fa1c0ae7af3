"""Runs one workload in a fresh interpreter and prints its measurements.

usage: python3 worker.py WORKLOAD SEED SECONDS TRACE OUTDIR

After one untimed warm-up pass, timed passes over the workload's ops run
until SECONDS have passed, each at its own config seed; the first timed
pass repeats the warm-up's seed and must write byte-identical CSV.  With
TRACE=1 every other pass, the first included, is traced; the passes in
between give the untraced time for the tracing overhead.  The last line
of standard output is one JSON object; run.py reads it.
"""
from __future__ import annotations

import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

import supcompare
from supcompare import cli, index_sets

import spans
import workloads

DEDUPE_PROBES = 3


@dataclass
class OpResult:
    seconds: float
    reasons: list
    csv_digest: str | None = None
    headline_se: float | None = None
    spans: list | None = None


def config_seed(seed: int, k: int) -> int:
    """The CLI seed of timed pass k; distinct across runs and passes."""
    return seed * 65536 + k


def run_op(workload, op: int, seed: int, outdir: str, refs: dict,
           tracer=None) -> OpResult:
    """One CLI config through parse_config -> run -> emit, then checked.

    Any exception counts against this op, not the run: a bug in the
    program under test is a failed op.
    """
    tokens = list(workload.ops[op]) + [f"seed={seed}", f"output_dir={outdir}",
                                       "format=both"]
    record = paths = error = None
    start = time.perf_counter()
    try:
        config = cli.parse_config(tokens)
        if tracer is not None:
            tracer.take()  # parse_config lies outside the timed window
        start = time.perf_counter()
        record = cli.run(config)
        paths = cli.emit(record, config.output_dir, config.format)
    except Exception as exc:  # the op failed; the run goes on
        error = exc
    seconds = time.perf_counter() - start
    result = OpResult(seconds, [],
                      spans=tracer.take() if tracer is not None else None)
    if error is not None:
        result.reasons.append(f"raised {type(error).__name__}: {error}")
        return result
    if not record.ok:
        result.reasons.append("exit code 2")
    result.reasons += [f"assertion {name} FAIL"
                       for name, passed in record.assertions.items() if not passed]
    try:
        result.reasons += workloads.check_estimates(
            workloads.estimates(workload.name, op, record), refs.get(op, {}))
        result.headline_se = workloads.headline_se(workload, op, record)
    except (KeyError, IndexError, StopIteration) as exc:
        result.reasons.append(f"output lacks {exc!r}")
    digest = hashlib.sha256()
    for path in sorted(p for p in paths if p.endswith(".csv")):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    result.csv_digest = digest.hexdigest()
    return result


def run_pass(workload, seed: int, outdir: str, refs: dict, tracer=None) -> list:
    if tracer is not None:
        tracer.install()
    try:
        return [run_op(workload, op, seed, outdir, refs, tracer)
                for op in range(len(workload.ops))]
    finally:
        if tracer is not None:
            tracer.uninstall()


def check_repeat(first: list, second: list) -> None:
    """Marks ops whose CSV differs between two passes at one seed."""
    for a, b in zip(first, second):
        if a.csv_digest and b.csv_digest and a.csv_digest != b.csv_digest:
            b.reasons.append("CSV differs between two runs at one seed")


def failed_op_share(passes: list) -> tuple:
    """(attempted, failed, share) over every op of every pass."""
    ops = [r for p in passes for r in p]
    failed = sum(1 for r in ops if r.reasons)
    return len(ops), failed, failed / len(ops)


def pass_wall(results: list) -> float:
    return sum(r.seconds for r in results)


def end_to_end(workload, passes: list) -> dict:
    """wall_s, time_to_target_se_s and peak_rss_mb of an untraced run."""
    wall = statistics.median(pass_wall(p) for p in passes)
    se2 = [r.headline_se ** 2 for p in passes for r in p
           if r.headline_se is not None]
    ttt = wall * statistics.fmean(se2) / workload.se_target ** 2 if se2 else None
    return {
        "wall_s": wall,
        "time_to_target_se_s": ttt,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, traced: list, plain: list) -> tuple:
    """Per-layer metrics of a traced run, the span names that never fired,
    and the span with the largest self time."""
    traces = [spans.layer_metrics([r.spans for r in p], [r.seconds for r in p])
              for p in traced]
    metrics = spans.median_metrics([t.metrics for t in traces])
    metrics["trace.overhead_s"] = (statistics.median(map(pass_wall, traced))
                                   - statistics.median(map(pass_wall, plain)))
    if workload.probe_set is not None:
        T = cli.parse_set(workload.probe_set)
        probes = []
        for _ in range(DEDUPE_PROBES):
            start = time.perf_counter()
            index_sets.dedupe(T)
            probes.append(time.perf_counter() - start)
        metrics["index_sets.dedupe.probe_s"] = statistics.median(probes)
    fired = {name for t in traces for name, n in t.calls.items() if n}
    silent = [name for name in workload.spans if name not in fired]
    totals = {}
    for t in traces:
        for name, s in t.self_s.items():
            totals[name] = totals.get(name, 0.0) + s
    top = max(totals, key=totals.get) if totals else None
    return metrics, silent, top


def provenance() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "supcompare": supcompare.__version__,
    }


def main(argv) -> int:
    name, seed, seconds, trace, outdir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workload = workloads.WORKLOADS[name]
    refs = workloads.references(name)
    tracer = spans.Tracer() if trace else None
    # the first pass in a process pays one-off costs (lazy imports, fresh
    # heap pages); it is checked like any pass but kept out of the timings
    warmup = run_pass(workload, config_seed(seed, 0), outdir, refs)
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        k = len(passes)
        passes.append(run_pass(workload, config_seed(seed, k), outdir, refs,
                               tracer if k % 2 == 0 else None))
    check_repeat(warmup, passes[0])
    attempted, failed, share = failed_op_share([warmup] + passes)
    out = {"attempted": attempted, "failed": failed, "failed_op_share": share,
           "passes": len(passes), "pass_walls": [pass_wall(p) for p in passes],
           "failures": sorted({reason for p in [warmup] + passes for r in p
                               for reason in r.reasons}),
           "provenance": provenance()}
    if trace:
        out["metrics"], out["silent_spans"], out["top_self"] = per_layer(
            workload, passes[0::2], passes[1::2])
    else:
        out["metrics"] = end_to_end(workload, passes)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
