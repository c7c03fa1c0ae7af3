"""The benchmark's workloads: CLI configs, output checks and trace expectations.

Each workload is a fixed list of CLI configs.  A config gets its seed and
output directory at run time.  Replicate counts are set so one pass over
the list takes 2-3 s with one BLAS thread, so a 15 s run holds five to
seven passes to take a median over.

Output checks survive a legitimate sampler change: each headline estimate
must lie within Z_MAX combined standard errors of a reference.  The
reference is exact where an oracle exists (quadrature for the maximum of
iid coordinates, enumeration for Rademacher spin sets with C(N,2) <= 22).
Elsewhere it is a high-replicate estimate recorded with its standard error
in references.json by make_references.py.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

Z_MAX = 5.0
EXACT_RTOL = 1e-9
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


@dataclass(frozen=True)
class Workload:
    """One workload.

    ops        CLI token lists, without seed and output_dir
    headline   (op index, table row key, se column): the estimate whose
               standard error enters time_to_target_se_s
    se_target  the stated standard error that time_to_target_se_s reaches
    spans      span names a traced pass must record at least once
    probe_set  set descriptor for the index_sets.dedupe probe, if any
    """

    name: str
    why: str
    ops: tuple
    headline: tuple
    se_target: float
    spans: tuple
    probe_set: str | None = None


HEAVY_N = (16, 256, 4096, 16384)
SK_N = (4, 6, 8, 10, 12, 14)

WORKLOADS = {w.name: w for w in (
    Workload(
        "heavy_tail",
        "Laplace vs Gaussian maxima over basis sets up to n=16384: stresses "
        "the sampler and set construction, bypasses matmul, np.unique and "
        "soft-max",
        (("laplace", "n_list=" + ",".join(map(str, HEAVY_N)),
          "replicates=2048"),),
        (0, ("n", HEAVY_N[-1]), "gap_se"), 0.01,
        ("experiments.heavy_tail_growth", "index_sets.make_basis_family",
         "estimator.estimate_complexity", "distributions.sample", "cli.emit"),
    ),
    Workload(
        "spin_glass",
        "SK two-spin sweep N=4..14 with Rademacher disorder: stresses the "
        "generic matmul sup kernel, the np.unique pass and exact enumeration",
        (("sk", "N_list=" + ",".join(map(str, SK_N)),
          "distribution=rademacher", "replicates=16384"),),
        (0, ("N", SK_N[-1]), "gap_se"), 0.0005,
        ("experiments.spin_glass_universality", "index_sets.make_spin_tensor",
         "estimator.estimate_complexity",
         "estimator.exact_rademacher_complexity", "distributions.sample",
         "cli.emit"),
        probe_set="spin-quadratic:N=14",
    ),
    Workload(
        "paired_cube",
        "paired uniform/Gaussian gap on a 2^14-row diagonal cube: draws "
        "through ppf instead of sample and runs the matmul sup kernel",
        (("bounds", "set=diagcube:n=20,alpha=0.25,k=14",
          "distribution=uniform", "paired=1", "replicates=16384"),),
        (0, None, "gap_std_error"), 0.002,
        ("cli.parse_set", "index_sets.make_diagonal_cube",
         "bounds.error_report", "index_sets.geometric_profile",
         "estimator.paired_gap_estimate", "distributions.ppf", "cli.emit"),
        probe_set="diagcube:n=20,alpha=0.25,k=14",
    ),
    Workload(
        "smoothing",
        "smoothed maximum at beta=auto on spin-quadratic N=12, then the "
        "stein, softmax and gibbs verify batteries: the only soft-max and "
        "OU-Stein load",
        (("estimate", "set=spin-quadratic:N=12", "distribution=gaussian",
          "beta=auto", "replicates=16384"),
         ("verify", "stein"), ("verify", "softmax"), ("verify", "gibbs")),
        (0, ("metric", "complexity"), "std_error"), 0.0005,
        ("cli.parse_set", "index_sets.make_spin_quadratic",
         "index_sets.geometric_profile", "estimator.estimate_complexity",
         "estimator.softmax_complexity", "ou_stein.stein_representation_check",
         "ou_stein.poisson_identity_check", "ou_stein.potential_partial",
         "softmax.log_partition_partials_rows", "softmax.log_partition",
         "distributions.sample", "cli.emit"),
        probe_set="spin-quadratic:N=12",
    ),
)}


def table_rows(record) -> list:
    """The record's main table as a list of dicts."""
    headers, rows = record.tables["main"]
    return [dict(zip(headers, row)) for row in rows]


def estimates(workload: str, op: int, record) -> dict:
    """Checked estimates of one op's record: name -> (value, std error)."""
    rows = table_rows(record)
    out = {}
    if workload == "heavy_tail":
        for r in rows:
            out[f"laplace_mean@n={r['n']}"] = (r["laplace_mean"], r["laplace_se"])
            out[f"gaussian_mean@n={r['n']}"] = (r["gaussian_mean"], r["gaussian_se"])
    elif workload == "spin_glass":
        for r in rows:
            out[f"xi_mean@N={r['N']}"] = (r["xi_mean"], r["xi_se"])
            out[f"gauss_mean@N={r['N']}"] = (r["gauss_mean"], r["gauss_se"])
    elif workload == "paired_cube":
        out["gap"] = (rows[0]["gap"], rows[0]["gap_std_error"])
    elif workload == "smoothing" and op == 0:
        for r in rows:
            out[r["metric"]] = (r["mean"], r["std_error"])
    return out


def headline_se(workload: Workload, op: int, record) -> float | None:
    """Standard error of the workload's headline estimate, if op carries it."""
    head_op, key, column = workload.headline
    if op != head_op:
        return None
    rows = table_rows(record)
    if key is None:
        return float(rows[0][column])
    col, val = key
    return float(next(r[column] for r in rows if r[col] == val))


def references(workload: str) -> dict:
    """op index -> {name: (reference value, its std error)}; 0 error means
    exact.  Ops without an entry carry no estimate."""
    import oracles  # numpy and scipy load only in the worker

    if workload == "heavy_tail":
        refs = {}
        for n in HEAVY_N:
            refs[f"laplace_mean@n={n}"] = (oracles.expected_max("laplace", n), 0.0)
            refs[f"gaussian_mean@n={n}"] = (oracles.expected_max("gaussian", n), 0.0)
        return {0: refs}
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = {k: tuple(v) for k, v in json.load(fh)["values"][workload].items()}
    if workload == "spin_glass":
        for N in SK_N:
            if math.comb(N, 2) <= 22:
                mean = oracles.exact_rademacher_mean(oracles.spin_quadratic_points(N))
                refs[f"xi_mean@N={N}"] = (mean, 0.0)
    return {0: refs}


def check_estimates(found: dict, refs: dict) -> list:
    """Reasons the estimates fail their references; empty when all pass.

    An estimate passes within Z_MAX combined standard errors, plus a
    relative EXACT_RTOL so exact-vs-exact comparisons allow rounding.
    """
    reasons = []
    for name, ref in refs.items():
        if name not in found:
            reasons.append(f"estimate {name} missing")
            continue
        value, se = found[name]
        ref_value, ref_se = ref
        tol = Z_MAX * math.hypot(se, ref_se) + EXACT_RTOL * max(1.0, abs(ref_value))
        if not abs(value - ref_value) <= tol:
            reasons.append(f"estimate {name}={value!r} is off reference "
                           f"{ref_value!r} by more than {tol:.3g}")
    return reasons
