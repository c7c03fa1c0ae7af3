"""Command-line harness: flat key=value configs, deterministic CSV/JSON output.

Each subcommand is one SUBCOMMANDS entry: the keys it reads and its
handler, whose docstring says what it runs.
Config keys are flat `key=value` tokens, each parsed and defaulted by KEYS;
`--config FILE` loads the same syntax (CLI tokens override); a key given
twice in one source, or one the subcommand does not read, is an error.
Each assertion is a `checks._row` with its observed value and threshold.
Fixed-seed reruns write byte-identical CSV; JSON adds the assertion rows,
the wall time and the provenance (versions, kernel workers and tile bytes).
"""
from __future__ import annotations

import csv
import dataclasses
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

COMMON_KEYS = ("subcommand", "output_dir", "format")


class ConfigError(ValueError):
    pass


@dataclass
class ResultRecord:
    """Everything a run produced: one table as tables["main"] (a dict that
    perfbench/workloads.py reads until ROADMAP item 16), summary, checks."""

    config: dict
    tables: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(row["passed"] for row in self.checks)

    @property
    def assertions(self) -> dict:
        """{check: passed} over the rows, read-only.  It exists for
        perfbench's worker, which reads this view until ROADMAP item 16."""
        return {row["check"]: row["passed"] for row in self.checks}


def _finite(name: str, values) -> dict:
    """A row observing the largest |value| against the largest float."""
    return checks._row(name, np.max(np.abs([0.0, *values])),
                       np.finfo(float).max)


def _estimate(config, stream, T, dist):
    """Expected supremum, and the smoothed value at beta when given."""
    beta = config.beta
    if beta == "auto":
        beta = bounds_mod.auto_beta(isets.geometric_profile(T),
                                    T.log_cardinality, dist)
    est = estimate_complexity(T, dist, config.replicates,
                              stream.substream("plain"))
    rows = [{"metric": "complexity", **dataclasses.asdict(est),
             "beta": None, "offset": None}]
    summary = {"mean": est.mean, "std_error": est.std_error}
    found = [_finite("estimate_finite", [est.mean])]
    if beta is not None:
        soft, offset, slack = softmax_complexity(
            T, dist, beta, config.replicates, stream.substream("soft"))
        rows.append({"metric": "softmax", **dataclasses.asdict(soft),
                     "beta": beta, "offset": offset})
        summary.update(beta=beta, offset=offset, softmax_bracket_slack=slack)
        found.append(checks._row("softmax_bracket", slack, -BRACKET_TOL,
                                 lower=True))
    return rows, summary, found


def _bounds(config, stream, T, dist):
    """Paired gap vs every comparison bound for one (set, law) pair."""
    rep = bounds_mod.error_report(T, dist, config.replicates, stream)
    row = {
        "set": config.set, "distribution": rep.dist_name,
        "u": rep.u, "gap": rep.gap, "gap_std_error": rep.gap_std_error,
        "paired": rep.paired,
    }
    bounds = dataclasses.asdict(rep.bounds)
    del bounds["u"]
    for prefix, values in (("bound_", bounds), ("ratio_", rep.ratios),
                           ("flag_", rep.flags)):
        row.update({prefix + name: val for name, val in values.items()})
    summary = {"gap": rep.gap, "gap_std_error": rep.gap_std_error,
               **{f"ratio_{k}": v for k, v in rep.ratios.items()}}
    return [row], summary, [_finite("ratios_finite", rep.ratios.values())]


def _sudakov(config, stream, T, dist):
    """Sudakov minoration hypothesis and conclusion ratios."""
    row = dataclasses.asdict(bounds_mod.sudakov_check(T, config.replicates,
                                                      stream))
    est = row.pop("rademacher")
    row.update(rademacher_mean=est["mean"], rademacher_se=est["std_error"],
               method=est["method"])
    summary = {k: row[k] for k in ("hypothesis_ratio", "conclusion_ratio")}
    # the count of ratios outside the open interval (0, inf), NaN included
    outside = sum(not 0.0 < r < math.inf for r in summary.values())
    return [row], summary, [checks._row("ratios_positive", outside, 0)]


def _laplace(config, stream, T, dist):
    """Heavy-tail growth sweep of the Laplace gap over basis sets."""
    res = experiments.heavy_tail_growth(config.n_list, config.replicates,
                                        stream)
    found = [checks._row("ratio_log_max_over_min_le_2",
                         res.summary["ratio_log_max_over_min"], 2.0)]
    rho = res.summary["ratio_log34_spearman"]
    if rho is not None:  # None: under 3 sizes, no rank test was run
        found.append(checks._row("ratio_log34_spearman_ge_0.8", rho, 0.8,
                                 lower=True))
    return res.rows, dict(res.summary), found


def _sk(config, stream, T, dist):
    """Two-spin universality sweep over N_list."""
    res = experiments.spin_glass_universality(config.N_list, dist,
                                              config.replicates, stream)
    return res.rows, dict(res.summary), [checks._row(
        "scaled_max_over_min_le_3", res.summary["scaled_max_over_min"], 3.0)]


def _tensor(config, stream, T, dist):
    """Order-m tensor universality at one (N, m)."""
    res = experiments.tensor_universality(config.N, config.m, dist,
                                          config.replicates, stream)
    found = [_finite("gap_over_bound_finite", [res.summary["gap_over_bound"]])]
    if "gauss_in_band" in res.summary:
        # the distance of the Gaussian value outside the recorded band
        g = res.rows[0]["gauss_mean"]
        lo, hi = res.summary["gauss_band_low"], res.summary["gauss_band_high"]
        found.append(checks._row("gauss_in_band",
                                 np.max([lo - g, g - hi, 0.0]), 0.0))
    return res.rows, dict(res.summary), found


def _phase_curves(config, stream, T, dist):
    """Law-free bound curves over a u grid, with crossover checks."""
    profile = isets.geometric_profile(T)
    u1, u2 = profile.u1, profile.u2
    M = dist.bound if dist.bound is not None else 1.0
    grid = config.u_grid
    if grid is None:
        lo = max(min(u1 / 4.0, 1.0), 1e-3)
        hi = max(2.0 * u2, lo * 10.0)
        grid = sorted(set(np.geomspace(lo, hi, 33)) | {u1, u2})
    rows = bounds_mod.phase_curve_table(profile, grid, M)
    b1, b2 = (bounds_mod.bound_profile(profile, u) for u in (u1, u2))
    res1 = M * abs(b1.fourth_moment - b1.sup_norm)
    res2 = abs(b2.trivial - b2.mixed)
    scale1 = max(M * profile.rinf * max(u1, 1.0), 1.0)
    scale2 = max(math.sqrt(max(u2, 1.0)) * max(profile.r2, 1.0), 1.0)
    summary = {"u1": u1, "u2": u2,
               "crossover1_residual": res1, "crossover2_residual": res2}
    return rows, summary, [
        checks._row("u1_le_u2", u1, u2 * (1 + 1e-12)),
        checks._row("crossovers_exact",
                    np.max([res1 / scale1, res2 / scale2]), 1e-12)]


def _verify(config, stream, T, dist):
    """One identity battery: softmax, stein or gibbs."""
    rows = checks.run_battery(config.target, config.seed)
    failed = sum(not r["passed"] for r in rows)
    return rows, {"checks": len(rows), "failed": failed}, [
        checks._row("all_checks_pass", failed, 0)]


# each subcommand: the keys it reads, "*" marking a required one, and its
# handler; every subcommand also reads COMMON_KEYS, and each that draws
# reads seed.  A handler maps (config, stream, T, dist), the last three None
# unless config reads seed, set and distribution, to its table rows, summary
# and checks._row assertions; it looks library functions up at each call,
# so that a wrapper set on their modules runs
SUBCOMMANDS = {
    "estimate": (("set*", "distribution", "replicates", "beta", "seed"),
                 _estimate),
    "bounds": (("set*", "distribution", "replicates", "paired", "seed"),
               _bounds),
    "sudakov": (("set*", "replicates", "seed"), _sudakov),
    "laplace": (("n_list", "replicates", "seed"), _laplace),
    "sk": (("N_list", "distribution", "replicates", "seed"), _sk),
    "tensor": (("N*", "m*", "distribution", "replicates", "seed"), _tensor),
    "phase-curves": (("set*", "distribution", "u_grid"), _phase_curves),
    "verify": (("target*", "seed"), _verify),
}


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


def _paired(value: str, key: str) -> bool:
    if value != "1":  # the key stays for configs that pass paired=1
        raise ConfigError(f"{key} must be 1, got {value!r}: the unpaired "
                          "gap estimate was removed")
    return True


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
    "subcommand": (_one_of(*SUBCOMMANDS), None),
    "target": (_one_of(*checks.TARGETS), None),
    "set": (_text, None),
    "distribution": (_law, "rademacher"),
    # every Monte-Carlo estimate needs MIN_REPLICATES, so a run that would
    # enumerate instead still refuses fewer
    "replicates": (_int(MIN_REPLICATES), 100000),
    "seed": (_int(0, SEED_LIMIT), DEFAULT_SEED),
    "beta": (_beta, None),
    "paired": (_paired, True),
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
    names = _checked(pairs, COMMON_KEYS + SUBCOMMANDS[sub][0],
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


def run(config) -> ResultRecord:
    """Execute one parse_config record by its SUBCOMMANDS handler; pure
    given it, up to wall-time metadata.  The record is the JSON config echo."""
    start = time.monotonic()
    sub = config.subcommand
    # the stream, the set and the law are built once, by the subcommands
    # that read them
    stream = (RandomStream(config.seed).substream(sub)
              if "seed" in config._fields else None)
    T = parse_set(config.set) if "set" in config._fields else None
    dist = (from_name(config.distribution)
            if "distribution" in config._fields else None)
    rows, summary, found = SUBCOMMANDS[sub][1](config, stream, T, dist)
    headers = list(rows[0])
    table = (headers, [[row[h] for h in headers] for row in rows])
    return ResultRecord(config._asdict(), {"main": table}, summary, found,
                        time.monotonic() - start)


# ---------------------------------------------------------------------------
# output

def _csv_bytes(headers, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows([_fmt(v) for v in row] for row in rows)
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


def emit(record: ResultRecord, output_dir: str, fmt: str) -> list:
    """Write the record; returns written paths.  CSV is byte-deterministic,
    JSON additionally carries elapsed_seconds and the provenance, and
    writes a non-finite value as null."""
    os.makedirs(output_dir, exist_ok=True)
    sub = record.config["subcommand"]
    stem = sub if sub != "verify" else f"verify-{record.config['target']}"
    paths = []
    if fmt in ("csv", "both"):
        paths.append(os.path.join(output_dir, f"{stem}.csv"))
        with open(paths[-1], "wb") as fh:
            fh.write(_csv_bytes(*record.tables["main"]))
    if fmt in ("json", "both"):
        doc = {
            "version": __version__,
            # exactly what the numbers depend on beyond the config
            "provenance": {"python": platform.python_version(),
                           "numpy": np.__version__, "workers": isets.WORKERS,
                           "tile_bytes": isets.TILE_BYTES,
                           "split_tile_bytes": isets.SPLIT_TILE_BYTES},
            "config": record.config,
            "tables": {name: {"headers": h, "rows": r}
                       for name, (h, r) in record.tables.items()},
            "summary": record.summary,
            "assertions": record.checks,
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
              for sub, (keys, _) in SUBCOMMANDS.items())
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
    try:
        file_text = None
        if "--config" in argv:
            idx = argv.index("--config")
            if idx + 1 == len(argv):
                raise ConfigError("--config needs a path")
            with open(argv.pop(idx + 1), "r", encoding="utf-8") as fh:
                file_text = fh.read()
            del argv[idx]
        config = parse_config(argv, file_text)
        # an output_dir that cannot be made fails now, not after the run
        os.makedirs(config.output_dir, exist_ok=True)
        record = run(config)
        paths = emit(record, config.output_dir, config.format)
    except (ValueError, OSError) as exc:
        # a ConfigError, an unreadable config file, a refused hypothesis or
        # an unwritable output_dir
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for row in record.checks:
        print(f"{'PASS' if row['passed'] else 'FAIL'} {row['check']}")
    for path in paths:
        print(f"wrote {path}")
    return 0 if record.ok else 2


if __name__ == "__main__":
    sys.exit(main())
