"""Command-line harness: flat key=value configs, deterministic CSV/JSON output.

Subcommands:

    estimate      expected supremum (optionally the smoothed value at beta)
    bounds        gap vs every comparison bound for one (set, law) pair
    sudakov       minoration hypothesis/conclusion ratios
    laplace       heavy-tail growth sweep over basis sets
    sk            two-spin universality sweep
    tensor        order-m tensor universality at one (N, m)
    phase-curves  bound curves over a u grid with crossover checks
    verify        softmax | stein | gibbs identity batteries

Config keys are flat `key=value` tokens; `--config FILE` loads the same
syntax from a file (CLI tokens override).  A key the subcommand does not
read is an error.  With a fixed seed, reruns write byte-identical CSV; JSON
additionally carries the elapsed wall time.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import checks
from . import experiments
from . import index_sets as isets
from .distributions import (DEFAULT_SEED, SEED_LIMIT, CoordinateDistribution,
                            RandomStream, from_name)
from .estimator import BRACKET_TOL, estimate_complexity, softmax_complexity

# the keys each subcommand reads, "*" marking a required one; every
# subcommand also reads COMMON_KEYS
SUBCOMMAND_KEYS = {
    "estimate": ("set*", "distribution", "replicates", "beta"),
    "bounds": ("set*", "distribution", "replicates", "paired"),
    "sudakov": ("set*", "replicates"),
    "laplace": ("n_list", "replicates"),
    "sk": ("N_list", "distribution", "replicates"),
    "tensor": ("N*", "m*", "distribution", "replicates"),
    "phase-curves": ("set*", "distribution", "u_grid"),
    "verify": ("target*",),
}
COMMON_KEYS = ("subcommand", "seed", "output_dir", "format")

_DEFAULTS = {
    "distribution": "rademacher",
    "replicates": 100000,
    "seed": DEFAULT_SEED,
    "output_dir": ".",
    "format": "both",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """A fully-resolved run request; echoes verbatim into every output."""

    subcommand: str
    target: str | None
    set_descriptor: str | None
    distribution: str
    replicates: int
    seed: int
    beta: str | None
    paired: bool
    n_list: tuple | None
    N_list: tuple | None
    N: int | None
    m: int | None
    u_grid: tuple | None
    output_dir: str
    format: str

    def as_dict(self) -> dict:
        """The settings the subcommand reads (COMMON_KEYS and its
        SUBCOMMAND_KEYS), each echoed when set."""
        out = {}
        for key in COMMON_KEYS + tuple(
                k.rstrip("*") for k in SUBCOMMAND_KEYS[self.subcommand]):
            val = self.set_descriptor if key == "set" else getattr(self, key)
            if key == "paired":
                val = 1 if val else None
            if val is not None:
                out[key] = list(val) if isinstance(val, tuple) else val
        return out


@dataclass
class ResultRecord:
    """Everything a run produced: tables, summary scalars, assertions."""

    config: dict
    tables: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    assertions: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(self.assertions.values())


def _parse_pairs(tokens) -> dict:
    pairs = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        pairs[key] = val
    return pairs


def _int(pairs, key, default=None):
    if key not in pairs:
        return default
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {pairs[key]!r}")


def _flag(value: str, key: str) -> bool:
    if value not in ("0", "1"):
        raise ConfigError(f"{key} must be 0 or 1, got {value!r}")
    return value == "1"


def _list(pairs, key, kind):
    if key not in pairs:
        return None
    try:
        values = tuple(kind(v) for v in pairs[key].split(",") if v)
    except ValueError:
        values = ()
    if not values or (kind is float and not all(map(math.isfinite, values))):
        raise ConfigError(f"{key} must be comma-separated finite "
                          f"{kind.__name__}s, at least one")
    return values


def parse_config(tokens, file_text: str | None = None) -> RunConfig:
    """Build a RunConfig from CLI tokens, optionally over a config file.

    Tokens are `key=value` pairs; a bare leading token is the subcommand,
    and for `verify` the following bare token is the target battery.
    """
    tokens = list(tokens)
    bare = []
    while tokens and "=" not in tokens[0]:
        bare.append(tokens.pop(0))
    pairs = {}
    if file_text is not None:
        lines = [ln.strip() for ln in file_text.splitlines()]
        pairs.update(_parse_pairs(
            ln for ln in lines if ln and not ln.startswith("#")))
    pairs.update(_parse_pairs(tokens))
    if bare:
        pairs["subcommand"] = bare[0]
    if len(bare) > 1:
        pairs["target"] = bare[1]
    if len(bare) > 2:
        raise ConfigError(f"unexpected positional arguments {bare[2:]}")
    sub = pairs.get("subcommand")
    if sub not in SUBCOMMAND_KEYS:
        raise ConfigError(f"subcommand must be one of "
                          f"{tuple(SUBCOMMAND_KEYS)}, got {sub!r}")
    keys = SUBCOMMAND_KEYS[sub]
    ignored = sorted(set(pairs) - {k.rstrip("*") for k in keys + COMMON_KEYS})
    if ignored:
        raise ConfigError(f"subcommand {sub!r} does not read keys {ignored}")
    missing = [k[:-1] for k in keys if k.endswith("*") and k[:-1] not in pairs]
    if missing:
        raise ConfigError(f"subcommand {sub!r} requires keys: {missing}")
    target = pairs.get("target")
    if sub == "verify" and target not in checks.TARGETS:
        raise ConfigError(
            f"verify needs a target in {checks.TARGETS}, got {target!r}")
    replicates = _int(pairs, "replicates", _DEFAULTS["replicates"])
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    seed = _int(pairs, "seed", _DEFAULTS["seed"])
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")
    beta = pairs.get("beta")
    if beta is not None and beta != "auto":
        try:
            valid = 0.0 < float(beta) < math.inf
        except ValueError:
            valid = False
        if not valid:
            raise ConfigError("beta must be a positive finite number or "
                              f"'auto', got {beta!r}")
    paired = _flag(pairs.get("paired", "0"), "paired")
    fmt = pairs.get("format", _DEFAULTS["format"])
    if fmt not in ("csv", "json", "both"):
        raise ConfigError("format must be csv, json, or both")
    # distribution names validate eagerly so typos fail before any work
    dist_name = pairs.get("distribution", _DEFAULTS["distribution"])
    try:
        from_name(dist_name)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return RunConfig(
        subcommand=sub,
        target=target,
        set_descriptor=pairs.get("set"),
        distribution=dist_name,
        replicates=replicates,
        seed=seed,
        beta=beta,
        paired=paired,
        n_list=_list(pairs, "n_list", int),
        N_list=_list(pairs, "N_list", int),
        N=_int(pairs, "N"),
        m=_int(pairs, "m"),
        u_grid=_list(pairs, "u_grid", float),
        output_dir=pairs.get("output_dir", _DEFAULTS["output_dir"]),
        format=fmt,
    )


def parse_set(descriptor: str) -> isets.IndexSet:
    """Build an index set from its descriptor string.

    basis:n=8[,mode=canonical|signed|negative-scaled][,theta=2.5]
    diagcube:n=16[,alpha=0.25][,k=6]  or  diagcube:d=1|0.8|0.5[,k=2]
    spin-quadratic:N=8[,normalized=1]
    spin-tensor:N=6,m=3[,normalized=1]
    explicit:path=points.csv
    """
    if ":" not in descriptor:
        raise ConfigError(f"set descriptor needs a family prefix: {descriptor!r}")
    family, rest = descriptor.split(":", 1)
    args = {}
    for part in rest.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad set argument {part!r} in {descriptor!r}")
        k, v = part.split("=", 1)
        args[k] = v
    try:
        if family == "basis":
            n = int(args.pop("n"))
            mode = args.pop("mode", "canonical")
            theta = float(args.pop("theta")) if "theta" in args else None
            _no_extras(args, descriptor)
            return isets.make_basis_family(n, mode, theta)
        if family == "diagcube":
            k = int(args.pop("k")) if "k" in args else None
            if "d" in args:
                d = [float(v) for v in args.pop("d").split("|")]
            else:
                n = int(args.pop("n"))
                alpha = float(args.pop("alpha", "0.25"))
                d = [float(j) ** -alpha for j in range(1, n + 1)]
            _no_extras(args, descriptor)
            return isets.make_diagonal_cube(d, k=k)
        if family == "spin-quadratic":
            N = int(args.pop("N"))
            normalized = _flag(args.pop("normalized", "0"), "normalized")
            _no_extras(args, descriptor)
            return isets.make_spin_quadratic(N, normalized)
        if family == "spin-tensor":
            N = int(args.pop("N"))
            m = int(args.pop("m"))
            normalized = _flag(args.pop("normalized", "0"), "normalized")
            _no_extras(args, descriptor)
            return isets.make_spin_tensor(N, m, normalized)
        if family == "explicit":
            path = args.pop("path")
            _no_extras(args, descriptor)
            return isets.load_csv(path)
    except KeyError as exc:
        raise ConfigError(f"set descriptor {descriptor!r} missing {exc}")
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad set descriptor {descriptor!r}: {exc}")
    raise ConfigError(f"unknown set family {family!r}")


def _no_extras(args: dict, descriptor: str):
    if args:
        raise ConfigError(f"unknown set arguments {sorted(args)} in {descriptor!r}")


def _resolve_beta(config: RunConfig, T: isets.IndexSet,
                  dist: CoordinateDistribution) -> float | None:
    if config.beta is None:
        return None
    if config.beta == "auto":
        profile = isets.geometric_profile(T)
        return bounds_mod.auto_beta(profile, T.log_cardinality, dist)
    return float(config.beta)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _table_from_dicts(rows: list) -> tuple:
    headers = list(rows[0].keys())
    return headers, [[row[h] for h in headers] for row in rows]


def run(config: RunConfig) -> ResultRecord:
    """Execute one run; pure given (config), up to wall-time metadata."""
    start = time.monotonic()
    record = ResultRecord(config=config.as_dict())
    stream = RandomStream(config.seed).substream(config.subcommand)
    dist = from_name(config.distribution)
    sub = config.subcommand

    if sub == "estimate":
        T = parse_set(config.set_descriptor)
        beta = _resolve_beta(config, T, dist)
        est = estimate_complexity(T, dist, config.replicates,
                                  stream.substream("plain"))
        rows = [{"metric": "complexity", **dataclasses.asdict(est),
                 "beta": None, "offset": None}]
        record.assertions["estimate_finite"] = math.isfinite(est.mean)
        if beta is not None:
            soft, offset, slack = softmax_complexity(
                T, dist, beta, config.replicates, stream.substream("soft"))
            rows.append({"metric": "softmax", **dataclasses.asdict(soft),
                         "beta": beta, "offset": offset})
            record.summary["beta"] = beta
            record.summary["offset"] = offset
            record.summary["softmax_bracket_slack"] = slack
            record.assertions["softmax_bracket"] = slack >= -BRACKET_TOL
        record.tables["main"] = _table_from_dicts(rows)
        record.summary["mean"] = est.mean
        record.summary["std_error"] = est.std_error

    elif sub == "bounds":
        T = parse_set(config.set_descriptor)
        rep = bounds_mod.error_report(T, dist, config.replicates, stream,
                                      config.paired)
        row = {
            "set": config.set_descriptor, "distribution": rep.dist_name,
            "u": rep.u, "gap": rep.gap, "gap_std_error": rep.gap_std_error,
            "paired": rep.paired,
        }
        for name, val in dataclasses.asdict(rep.bounds).items():
            if name != "u":
                row["bound_" + name] = val
        for name, val in rep.ratios.items():
            row["ratio_" + name] = val
        for name, val in rep.flags.items():
            row["flag_" + name] = val
        record.tables["main"] = _table_from_dicts([row])
        record.summary = {"gap": rep.gap, "gap_std_error": rep.gap_std_error,
                          **{f"ratio_{k}": v for k, v in rep.ratios.items()}}
        record.assertions["ratios_finite"] = all(
            math.isfinite(v) for v in rep.ratios.values())

    elif sub == "sudakov":
        T = parse_set(config.set_descriptor)
        rep = bounds_mod.sudakov_check(T, config.replicates, stream)
        row = {
            "cardinality": rep.cardinality, "separation": rep.separation,
            "sup_entry": rep.sup_entry,
            "hypothesis_ratio": rep.hypothesis_ratio,
            "conclusion_ratio": rep.conclusion_ratio,
            "rademacher_mean": rep.rademacher.mean,
            "rademacher_se": rep.rademacher.std_error,
            "method": rep.rademacher.method,
        }
        record.tables["main"] = _table_from_dicts([row])
        record.summary = {k: row[k] for k in
                          ("hypothesis_ratio", "conclusion_ratio")}
        record.assertions["ratios_positive"] = (
            math.isfinite(rep.hypothesis_ratio) and rep.hypothesis_ratio > 0
            and math.isfinite(rep.conclusion_ratio)
            and rep.conclusion_ratio > 0)

    elif sub == "laplace":
        n_list = config.n_list or (16, 64, 256, 1024, 4096, 16384)
        res = experiments.heavy_tail_growth(n_list, config.replicates, stream)
        record.tables["main"] = _table_from_dicts(res.rows)
        record.summary = dict(res.summary)
        record.assertions["ratio_log_max_over_min_le_2"] = (
            res.summary["ratio_log_max_over_min"] <= 2.0)
        rho = res.summary["ratio_log34_spearman"]
        record.assertions["ratio_log34_spearman_ge_0.8"] = (
            math.isnan(rho) or rho >= 0.8)

    elif sub == "sk":
        N_list = config.N_list or (4, 6, 8, 10, 12, 14)
        res = experiments.spin_glass_universality(N_list, dist,
                                                  config.replicates, stream)
        record.tables["main"] = _table_from_dicts(res.rows)
        record.summary = dict(res.summary)
        record.assertions["scaled_max_over_min_le_3"] = (
            res.summary["scaled_max_over_min"] <= 3.0)

    elif sub == "tensor":
        res = experiments.tensor_universality(config.N, config.m, dist,
                                              config.replicates, stream)
        record.tables["main"] = _table_from_dicts(res.rows)
        record.summary = dict(res.summary)
        record.assertions["gap_over_bound_finite"] = math.isfinite(
            res.summary["gap_over_bound"])
        if "gauss_in_band" in res.summary:
            record.assertions["gauss_in_band"] = res.summary["gauss_in_band"]

    elif sub == "phase-curves":
        T = parse_set(config.set_descriptor)
        profile = isets.geometric_profile(T)
        u1, u2 = bounds_mod.crossover_points(profile)
        M = dist.bound if dist.bound is not None else 1.0
        if config.u_grid is not None:
            grid = list(config.u_grid)
        else:
            lo = max(min(u1 / 4.0, 1.0), 1e-3)
            hi = max(2.0 * u2, lo * 10.0)
            grid = sorted(set(np.geomspace(lo, hi, 33)) | {u1, u2})
        rows = bounds_mod.phase_curve_table(profile, grid, M)
        record.tables["main"] = _table_from_dicts(rows)
        res1 = abs(M * profile.r4 * u1 ** 0.75 - M * profile.rinf * u1)
        res2 = abs(math.sqrt(u2) * profile.r2
                   - u2 ** 0.75 * math.sqrt(profile.r2 * profile.rinf))
        scale1 = max(M * profile.rinf * max(u1, 1.0), 1.0)
        scale2 = max(math.sqrt(max(u2, 1.0)) * max(profile.r2, 1.0), 1.0)
        record.summary = {"u1": u1, "u2": u2,
                          "crossover1_residual": res1,
                          "crossover2_residual": res2}
        record.assertions["u1_le_u2"] = u1 <= u2 * (1 + 1e-12)
        record.assertions["crossovers_exact"] = (
            res1 <= 1e-12 * scale1 and res2 <= 1e-12 * scale2)

    else:  # verify
        rows = checks.run_battery(config.target, config.seed)
        failed = sum(not r["passed"] for r in rows)
        record.tables["main"] = _table_from_dicts(rows)
        record.summary = {"checks": len(rows), "failed": failed}
        record.assertions["all_checks_pass"] = failed == 0

    record.elapsed_seconds = time.monotonic() - start
    return record


# ---------------------------------------------------------------------------
# output

def _csv_bytes(headers, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode("ascii")


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value)}")


def emit(record: ResultRecord, output_dir: str, fmt: str) -> list:
    """Write the record; returns written paths.  CSV is byte-deterministic,
    JSON additionally carries elapsed_seconds."""
    os.makedirs(output_dir, exist_ok=True)
    sub = record.config["subcommand"]
    stem = sub if sub != "verify" else f"verify-{record.config['target']}"
    paths = []
    if fmt in ("csv", "both"):
        for name, (headers, rows) in record.tables.items():
            fname = f"{stem}.csv" if name == "main" else f"{stem}-{name}.csv"
            path = os.path.join(output_dir, fname)
            with open(path, "wb") as fh:
                fh.write(_csv_bytes(headers, rows))
            paths.append(path)
    if fmt in ("json", "both"):
        doc = {
            "version": __version__,
            "config": record.config,
            "tables": {name: {"headers": h, "rows": r}
                       for name, (h, r) in record.tables.items()},
            "summary": record.summary,
            "assertions": record.assertions,
            "elapsed_seconds": record.elapsed_seconds,
        }
        path = os.path.join(output_dir, f"{stem}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1,
                      default=_json_default)
            fh.write("\n")
        paths.append(path)
    return paths


USAGE = (
    "usage: supcompare SUBCOMMAND [key=value ...] [--config FILE]\n"
    f"       supcompare verify {{{'|'.join(checks.TARGETS)}}} [key=value ...]\n"
    "\nkeys each subcommand reads (* required):\n"
    + "".join(f"  {sub:13s} {' '.join(keys)}\n"
              for sub, keys in SUBCOMMAND_KEYS.items())
    + "  every one     seed output_dir format={csv|json|both}\n")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0 if argv else 1
    file_text = None
    if "--config" in argv:
        idx = argv.index("--config")
        try:
            cfg_path = argv[idx + 1]
        except IndexError:
            print("error: --config needs a path", file=sys.stderr)
            return 1
        del argv[idx:idx + 2]
        try:
            with open(cfg_path, "r", encoding="utf-8") as fh:
                file_text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        config = parse_config(argv, file_text)
        # an output_dir that cannot be made fails now, not after the run
        os.makedirs(config.output_dir, exist_ok=True)
        record = run(config)
        paths = emit(record, config.output_dir, config.format)
    except (ValueError, OSError) as exc:
        # a ConfigError, a refused hypothesis or an unwritable output_dir
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, passed in record.assertions.items():
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    for path in paths:
        print(f"wrote {path}")
    return 0 if record.ok else 2


if __name__ == "__main__":
    sys.exit(main())
