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

Config keys are flat `key=value` tokens, each parsed and defaulted by KEYS;
`--config FILE` loads the same syntax (CLI tokens override); a key given
twice in one source, or one the subcommand does not read, is an error.
Fixed-seed reruns write byte-identical CSV; JSON adds the wall time and
the provenance (versions, kernel workers and tile bytes).
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import os
import platform
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import checks
from . import experiments
from . import index_sets as isets
from .distributions import DEFAULT_SEED, SEED_LIMIT, RandomStream, from_name
from .estimator import (BRACKET_TOL, MIN_REPLICATES, estimate_complexity,
                        softmax_complexity)

# the keys each subcommand reads, "*" marking a required one; every
# subcommand also reads COMMON_KEYS, and each that draws reads seed
SUBCOMMAND_KEYS = {
    "estimate": ("set*", "distribution", "replicates", "beta", "seed"),
    "bounds": ("set*", "distribution", "replicates", "paired", "seed"),
    "sudakov": ("set*", "replicates", "seed"),
    "laplace": ("n_list", "replicates", "seed"),
    "sk": ("N_list", "distribution", "replicates", "seed"),
    "tensor": ("N*", "m*", "distribution", "replicates", "seed"),
    "phase-curves": ("set*", "distribution", "u_grid"),
    "verify": ("target*", "seed"),
}
COMMON_KEYS = ("subcommand", "output_dir", "format")


class ConfigError(ValueError):
    pass


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
    """key=value tokens as a dict, refusing a key given twice in them."""
    pairs = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key in pairs:
            raise ConfigError(f"key {key!r} given twice")
        pairs[key] = val
    return pairs


def _checked(pairs: dict, keys, what: str) -> tuple:
    """The names of `keys` ("*" marking a required one), refusing a key of
    `pairs` that is not among them and a required one that is missing."""
    names = tuple(k.rstrip("*") for k in keys)
    ignored = sorted(set(pairs) - set(names))
    if ignored:
        raise ConfigError(f"{what} does not read keys {ignored}")
    missing = [k[:-1] for k in keys if k.endswith("*") and k[:-1] not in pairs]
    if missing:
        raise ConfigError(f"{what} requires keys: {missing}")
    return names


# value parsers: (text, key) -> value, raising ConfigError on a bad value

def _text(value: str, key: str) -> str:
    return value


def _one_of(*choices):
    def parse(value: str, key: str) -> str:
        if value not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {value!r}")
        return value
    return parse


def _int(lo=-math.inf, hi=math.inf):
    def parse(value: str, key: str) -> int:
        try:
            num = int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if not lo <= num < hi:
            raise ConfigError(f"{key} must be in [{lo}, {hi}), got {num}")
        return num
    return parse


def _float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}")


def _flag(value: str, key: str) -> bool:
    if value not in ("0", "1"):
        raise ConfigError(f"{key} must be 0 or 1, got {value!r}")
    return value == "1"


def _list(kind, lo):
    def parse(value: str, key: str) -> tuple:
        try:
            values = tuple(kind(v) for v in value.split(",") if v)
        except ValueError:
            values = ()
        if not values or not all(lo <= v < math.inf for v in values):
            raise ConfigError(f"{key} must be comma-separated finite "
                              f"{kind.__name__}s >= {lo}, at least one")
        return values
    return parse


def _law(value: str, key: str) -> str:
    try:
        from_name(value)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return value


def _beta(value: str, key: str):
    if value == "auto":
        return value
    try:
        beta = float(value)
    except ValueError:
        beta = math.nan
    if not 0.0 < beta < math.inf:
        raise ConfigError("beta must be a positive finite number or "
                          f"'auto', got {value!r}")
    return beta


# every config key: its parser and its default; a None default is unset
# (beta, u_grid) or belongs to a key its subcommands require
KEYS = {
    "subcommand": (_one_of(*SUBCOMMAND_KEYS), None),
    "target": (_one_of(*checks.TARGETS), None),
    "set": (_text, None),
    "distribution": (_law, "rademacher"),
    # every Monte-Carlo estimate needs MIN_REPLICATES, so a run that would
    # enumerate instead still refuses fewer
    "replicates": (_int(MIN_REPLICATES), 100000),
    "seed": (_int(0, SEED_LIMIT), DEFAULT_SEED),
    "beta": (_beta, None),
    "paired": (_flag, False),
    # a sweep size is at least 2, and all are checked before the first runs
    "n_list": (_list(int, lo=2), (16, 64, 256, 1024, 4096, 16384)),
    "N_list": (_list(int, lo=2), (4, 6, 8, 10, 12, 14)),
    "N": (_int(), None),
    "m": (_int(), None),
    "u_grid": (_list(float, lo=0.0), None),
    "output_dir": (_text, "."),
    "format": (_one_of("csv", "json", "both"), "both"),
}


def parse_config(tokens, file_text: str | None = None):
    """The run config from CLI tokens, optionally over a config file.

    Tokens are `key=value` pairs, but a first bare token is read as
    `subcommand=` and a second as `target=`.  A key given twice in the file
    or on the command line is refused; the command line overrides the file.
    The result is a namedtuple of exactly COMMON_KEYS and the subcommand's
    keys, each parsed, with KEYS defaults filled in.
    """
    tokens = list(tokens)
    bare = []
    while tokens and "=" not in tokens[0]:
        bare.append(tokens.pop(0))
    lines = [ln.strip() for ln in (file_text or "").splitlines()]
    pairs = _parse_pairs(ln for ln in lines if ln and not ln.startswith("#"))
    pairs.update(_parse_pairs([f"{k}={v}" for k, v in zip(
        ("subcommand", "target"), bare)] + bare[2:] + tokens))
    sub = KEYS["subcommand"][0](pairs.get("subcommand"), "subcommand")
    names = _checked(pairs, COMMON_KEYS + SUBCOMMAND_KEYS[sub],
                     f"subcommand {sub!r}")
    values = {}
    for key in names:
        parse, default = KEYS[key]
        values[key] = parse(pairs[key], key) if key in pairs else default
    return namedtuple("Config", names)(**values)


def _diagcube(n=None, alpha=None, d=None, k=None) -> isets.IndexSet:
    """The cube on d_j = j^-alpha, j = 1..n (alpha = 0.25 unless given), or
    on d = d_1|d_2|... as given."""
    if (n is None) == (d is None) or (d is not None and alpha is not None):
        raise ConfigError("diagcube takes n= (and alpha=) or d=, not both")
    if d is None:
        alpha = 0.25 if alpha is None else alpha
        d = [float(j) ** -alpha for j in range(1, n + 1)]
    else:
        d = [float(v) for v in d.split("|")]
    return isets.make_diagonal_cube(d, k=k)


def _built_by(name: str):
    # looked up at each call, so that a wrapper set on index_sets runs
    return lambda **args: getattr(isets, name)(**args)


# each set family: its builder, called with the parsed arguments given, and
# a parser per argument, "*" marking a required one; diagcube's n is capped
# before its diagonal is listed
SETS = {
    "basis": (_built_by("make_basis_family"),
              {"n*": _int(1), "mode": _one_of(*isets.BASIS_MODES),
               "theta": _float}),
    "diagcube": (_diagcube, {"n": _int(1, isets.MAX_DIM + 1),
                             "alpha": _float, "d": _text, "k": _int()}),
    "spin-quadratic": (_built_by("make_spin_quadratic"),
                       {"N*": _int(), "normalized": _flag}),
    "spin-tensor": (_built_by("make_spin_tensor"),
                    {"N*": _int(), "m*": _int(), "normalized": _flag}),
    "explicit": (_built_by("load_csv"), {"path*": _text}),
}


def parse_set(descriptor: str) -> isets.IndexSet:
    """Build an index set from its descriptor `family:key=value,...`, with
    the keys that SETS gives the family."""
    family, _, rest = descriptor.partition(":")
    build, keys = SETS[_one_of(*SETS)(family, "set family")]
    pairs = _parse_pairs(part for part in rest.split(",") if part)
    parsers = dict(zip(_checked(pairs, keys, f"set family {family!r}"),
                       keys.values()))
    try:
        return build(**{k: parsers[k](v, k) for k, v in pairs.items()})
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad set descriptor {descriptor!r}: {exc}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(map(_fmt, value))
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


def run(config) -> ResultRecord:
    """Execute one parse_config record; pure given it, up to wall-time
    metadata.  The record is the JSON config echo."""
    start = time.monotonic()
    record = ResultRecord(config=config._asdict())
    sub = config.subcommand
    # the stream, the set and the law are built once, by the subcommands
    # that read them
    stream = (RandomStream(config.seed).substream(sub)
              if "seed" in config._fields else None)
    T = parse_set(config.set) if "set" in config._fields else None
    dist = (from_name(config.distribution)
            if "distribution" in config._fields else None)

    if sub == "estimate":
        beta = config.beta
        if beta == "auto":
            beta = bounds_mod.auto_beta(isets.geometric_profile(T),
                                        T.log_cardinality, dist)
        est = estimate_complexity(T, dist, config.replicates,
                                  stream.substream("plain"))
        rows = [{"metric": "complexity", **dataclasses.asdict(est),
                 "beta": None, "offset": None}]
        record.summary = {"mean": est.mean, "std_error": est.std_error}
        record.assertions["estimate_finite"] = math.isfinite(est.mean)
        if beta is not None:
            soft, offset, slack = softmax_complexity(
                T, dist, beta, config.replicates, stream.substream("soft"))
            rows.append({"metric": "softmax", **dataclasses.asdict(soft),
                         "beta": beta, "offset": offset})
            record.summary.update(beta=beta, offset=offset,
                                  softmax_bracket_slack=slack)
            record.assertions["softmax_bracket"] = slack >= -BRACKET_TOL
        record.tables["main"] = _table_from_dicts(rows)

    elif sub == "bounds":
        rep = bounds_mod.error_report(T, dist, config.replicates, stream,
                                      config.paired)
        row = {
            "set": config.set, "distribution": rep.dist_name,
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
        record.assertions["ratios_positive"] = all(
            0.0 < r < math.inf for r in (rep.hypothesis_ratio,
                                         rep.conclusion_ratio))

    elif sub == "laplace":
        res = experiments.heavy_tail_growth(config.n_list, config.replicates,
                                            stream)
        record.tables["main"] = _table_from_dicts(res.rows)
        record.summary = dict(res.summary)
        record.assertions["ratio_log_max_over_min_le_2"] = (
            res.summary["ratio_log_max_over_min"] <= 2.0)
        rho = res.summary["ratio_log34_spearman"]
        if rho is not None:  # None: under 3 sizes, no rank test was run
            record.assertions["ratio_log34_spearman_ge_0.8"] = rho >= 0.8

    elif sub == "sk":
        res = experiments.spin_glass_universality(config.N_list, dist,
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
        profile = isets.geometric_profile(T)
        u1, u2 = profile.u1, profile.u2
        M = dist.bound if dist.bound is not None else 1.0
        grid = config.u_grid
        if grid is None:
            lo = max(min(u1 / 4.0, 1.0), 1e-3)
            hi = max(2.0 * u2, lo * 10.0)
            grid = sorted(set(np.geomspace(lo, hi, 33)) | {u1, u2})
        rows = bounds_mod.phase_curve_table(profile, grid, M)
        record.tables["main"] = _table_from_dicts(rows)
        b1, b2 = (bounds_mod.bound_profile(profile, u) for u in (u1, u2))
        res1 = M * abs(b1.fourth_moment - b1.sup_norm)
        res2 = abs(b2.trivial - b2.mixed)
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


def _json_value(value):
    """value as plain JSON data: numpy scalars and arrays become Python
    ones, and a non-finite float, which JSON cannot spell, becomes None."""
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_json_value(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    return value


@functools.cache
def _scipy_version() -> str:
    # from the installed metadata, so that scipy is not imported; the
    # lookup scans the installed distributions, about 5 ms a call
    from importlib.metadata import version
    return version("scipy")


def _provenance() -> dict:
    """What a run's numbers depend on beyond its config: the Python, numpy
    and scipy versions, and the generic kernels' worker count and tile
    byte budget."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": _scipy_version(), "workers": isets.WORKERS,
            "tile_bytes": isets.TILE_BYTES}


def emit(record: ResultRecord, output_dir: str, fmt: str) -> list:
    """Write the record; returns written paths.  CSV is byte-deterministic,
    JSON additionally carries elapsed_seconds and the provenance, and
    writes a non-finite value as null."""
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
            "provenance": _provenance(),
            "config": record.config,
            "tables": {name: {"headers": h, "rows": r}
                       for name, (h, r) in record.tables.items()},
            "summary": record.summary,
            "assertions": record.assertions,
            "elapsed_seconds": record.elapsed_seconds,
        }
        path = os.path.join(output_dir, f"{stem}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(_json_value(doc), fh, sort_keys=True, indent=1,
                      allow_nan=False)
            fh.write("\n")
        paths.append(path)
    return paths


USAGE = (
    "usage: supcompare SUBCOMMAND [key=value ...] [--config FILE]\n"
    f"       supcompare verify {{{'|'.join(checks.TARGETS)}}} [key=value ...]\n"
    "\nkeys each subcommand reads (* required):\n"
    + "".join(f"  {sub:13s} {' '.join(keys)}\n"
              for sub, keys in SUBCOMMAND_KEYS.items())
    + "  every one     output_dir format={csv|json|both}\n"
    "\ndefaults (- for none):\n"
    + "".join(f"  {key:13s} {_fmt(default) or '-'}\n"
              for key, (_, default) in KEYS.items() if key != "subcommand")
    + "\nset=FAMILY:key=value,... families (* required):\n"
    + "".join(f"  {family:15s} {' '.join(keys)}\n"
              for family, (_, keys) in SETS.items()))


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
