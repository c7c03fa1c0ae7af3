"""End-to-end and per-layer benchmark of the supcompare CLI pipeline.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S
                                --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  Each workload run happens in a fresh interpreter (worker.py) with
BLAS pinned to BLAS_THREADS threads; one process drives the load, one op
at a time (a closed loop with one client).

--trace 0 reports the end-to-end metrics: wall_s (median seconds of one
pass over the workload's ops, cli.run + cli.emit, after import), setup_s
(median seconds from a fresh interpreter until `import supcompare`
returns), peak_rss_mb (peak resident memory of the workload process) and
time_to_target_se_s (wall_s x (se / se_target)^2, with se^2 averaged over
the run's seeds).  --trace 1 reports per-layer metrics from spans the
benchmark records around the package's public functions.  Both print
failed_op_share and a `record:` line holding the full record with its
provenance, and end with one JSON line: correct, attempted, failed,
metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = 1
SETUP_PROBES = 3
RUN_DEADLINE_S = 170.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "time_to_target_se_s": "s"}
PROBE = "import supcompare, time; print(repr(time.monotonic()))"


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def setup_seconds(env: dict) -> float:
    """Median time from spawning an interpreter until the import returns.

    The probe prints time.monotonic() once the import is done; that clock
    is system-wide, so it compares with the spawn time taken here.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT,
                                  env=env, capture_output=True, text=True,
                                  timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("importing supcompare took over 60 s")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError("importing supcompare failed")
        times.append(float(proc.stdout) - start)
    return statistics.median(times)


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload run; returns its record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env()
    metrics = {}
    if not trace:
        metrics["setup_s"] = setup_seconds(env)
    outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed),
             str(seconds), "1" if trace else "0", outdir],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload {name} overran {RUN_DEADLINE_S:.0f} s")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker for {name} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace and result["silent_spans"]:
        raise BenchError(f"traced run of {name}: spans with zero calls: "
                         f"{result['silent_spans']}")
    metrics.update(result.pop("metrics"))
    result["metrics"] = metrics
    result["workload"] = name
    result["seed"] = seed
    result["trace"] = int(trace)
    result["provenance"].update(
        nproc=len(os.sched_getaffinity(0)), blas_threads=BLAS_THREADS,
        git_commit=git_commit(), workload_seed=seed)
    return result


def print_report(rec: dict, units: dict) -> None:
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"{rec['passes']} passes, {rec['attempted']} ops, {rec['failed']} failed")
    for name, unit in units.items():
        print(f"  {name:<48} {rec['metrics'][name]!r} {unit}")
    print(f"  {'failed_op_share':<48} {rec['failed_op_share']!r} ratio")
    if rec.get("top_self"):
        print(f"  largest self time: {rec['top_self']}")
    for reason in rec["failures"]:
        print(f"  FAIL {reason}")
    print("record:", json.dumps(rec))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "supcompare", "__init__.py")):
        print(f"error: no supcompare package under {SRC}", file=sys.stderr)
        return 2
    units = spans.LAYER_METRICS if args.trace else END_TO_END
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace)))
            print_report(records[-1], units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(records) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): {"value": r["metrics"][k],
                                                           "unit": unit}
               for r in records for k, unit in units.items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
