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
syntax from a file (CLI tokens override).  Unknown keys are errors.  With a
fixed seed, reruns write byte-identical CSV; JSON additionally carries the
elapsed wall time.
"""
from __future__ import annotations

import csv
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
from . import experiments
from . import index_sets as isets
from . import ou_stein as ou
from . import softmax as sm
from .distributions import (DEFAULT_SEED, CoordinateDistribution,
                            RandomStream, from_name, gaussian, rademacher)
from .estimator import BRACKET_TOL, estimate_complexity, softmax_complexity

SUBCOMMANDS = ("estimate", "bounds", "sudakov", "laplace", "sk", "tensor",
               "verify", "phase-curves")
VERIFY_TARGETS = ("softmax", "stein", "gibbs")

_KNOWN_KEYS = {
    "subcommand", "target", "set", "distribution", "replicates", "seed",
    "beta", "paired", "n_list", "N_list", "N", "m", "u_grid",
    "output_dir", "format",
}

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
        out = {
            "subcommand": self.subcommand,
            "distribution": self.distribution,
            "replicates": self.replicates,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "format": self.format,
        }
        if self.target is not None:
            out["target"] = self.target
        if self.set_descriptor is not None:
            out["set"] = self.set_descriptor
        if self.beta is not None:
            out["beta"] = self.beta
        if self.paired:
            out["paired"] = 1
        for key, val in (("n_list", self.n_list), ("N_list", self.N_list),
                         ("N", self.N), ("m", self.m), ("u_grid", self.u_grid)):
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
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        pairs[key] = val
    return pairs


def _int(pairs, key, default=None):
    if key not in pairs:
        return default
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {pairs[key]!r}")


def _int_list(pairs, key):
    if key not in pairs:
        return None
    try:
        return tuple(int(v) for v in pairs[key].split(",") if v)
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated integers")


def _float_list(pairs, key):
    if key not in pairs:
        return None
    try:
        return tuple(float(v) for v in pairs[key].split(",") if v)
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated numbers")


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
    if sub not in SUBCOMMANDS:
        raise ConfigError(f"subcommand must be one of {SUBCOMMANDS}, got {sub!r}")
    target = pairs.get("target")
    if sub == "verify":
        if target not in VERIFY_TARGETS:
            raise ConfigError(
                f"verify needs a target in {VERIFY_TARGETS}, got {target!r}")
    elif target is not None:
        raise ConfigError("target is only valid for the verify subcommand")
    replicates = _int(pairs, "replicates", _DEFAULTS["replicates"])
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    seed = _int(pairs, "seed", _DEFAULTS["seed"])
    beta = pairs.get("beta")
    if beta is not None and beta != "auto":
        try:
            float(beta)
        except ValueError:
            raise ConfigError(f"beta must be a number or 'auto', got {beta!r}")
    paired = bool(_int(pairs, "paired", 0))
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
        n_list=_int_list(pairs, "n_list"),
        N_list=_int_list(pairs, "N_list"),
        N=_int(pairs, "N"),
        m=_int(pairs, "m"),
        u_grid=_float_list(pairs, "u_grid"),
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
            normalized = args.pop("normalized", "0") == "1"
            _no_extras(args, descriptor)
            return isets.make_spin_quadratic(N, normalized)
        if family == "spin-tensor":
            N = int(args.pop("N"))
            m = int(args.pop("m"))
            normalized = args.pop("normalized", "0") == "1"
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


def _require(config: RunConfig, *keys):
    missing = [k for k in keys
               if getattr(config, "set_descriptor" if k == "set" else k) is None]
    if missing:
        raise ConfigError(
            f"subcommand {config.subcommand!r} requires keys: {missing}")


def run(config: RunConfig) -> ResultRecord:
    """Execute one run; pure given (config), up to wall-time metadata."""
    start = time.monotonic()
    record = ResultRecord(config=config.as_dict())
    stream = RandomStream(config.seed).substream(config.subcommand)
    dist = from_name(config.distribution)
    sub = config.subcommand

    if sub == "estimate":
        _require(config, "set")
        T = parse_set(config.set_descriptor)
        beta = _resolve_beta(config, T, dist)
        est = estimate_complexity(T, dist, config.replicates,
                                  stream.substream("plain"))
        rows = [{
            "metric": "complexity", "mean": est.mean,
            "std_error": est.std_error, "ci_low": est.ci_low,
            "ci_high": est.ci_high, "replicates": est.replicates,
            "method": est.method, "seed": est.seed, "beta": None,
            "offset": None,
        }]
        record.assertions["estimate_finite"] = math.isfinite(est.mean)
        if beta is not None:
            soft, offset, slack = softmax_complexity(
                T, dist, beta, config.replicates, stream.substream("soft"))
            rows.append({
                "metric": "softmax", "mean": soft.mean,
                "std_error": soft.std_error, "ci_low": soft.ci_low,
                "ci_high": soft.ci_high, "replicates": soft.replicates,
                "method": soft.method, "seed": soft.seed, "beta": beta,
                "offset": offset,
            })
            record.summary["beta"] = beta
            record.summary["offset"] = offset
            record.summary["softmax_bracket_slack"] = slack
            record.assertions["softmax_bracket"] = slack >= -BRACKET_TOL
        record.tables["main"] = _table_from_dicts(rows)
        record.summary["mean"] = est.mean
        record.summary["std_error"] = est.std_error

    elif sub == "bounds":
        _require(config, "set")
        T = parse_set(config.set_descriptor)
        rep = bounds_mod.error_report(T, dist, config.replicates, stream,
                                      config.paired)
        row = {
            "set": rep.set_descriptor, "distribution": rep.dist_name,
            "u": rep.u, "gap": rep.gap, "gap_std_error": rep.gap_std_error,
            "paired": rep.paired,
        }
        for name, val in rep.bounds.as_dict().items():
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
        _require(config, "set")
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
        _require(config, "N", "m")
        res = experiments.tensor_universality(config.N, config.m, dist,
                                              config.replicates, stream)
        record.tables["main"] = _table_from_dicts(res.rows)
        record.summary = dict(res.summary)
        record.assertions["gap_over_bound_finite"] = math.isfinite(
            res.summary["gap_over_bound"])
        if "gauss_in_band" in res.summary:
            record.assertions["gauss_in_band"] = res.summary["gauss_in_band"]

    elif sub == "phase-curves":
        _require(config, "set")
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
        rows, passed = _run_verify(config.target, RandomStream(config.seed))
        record.tables["main"] = _table_from_dicts(rows)
        record.summary = {"checks": len(rows),
                          "failed": sum(1 for r in rows if not r["passed"])}
        record.assertions["all_checks_pass"] = passed

    record.elapsed_seconds = time.monotonic() - start
    return record


# ---------------------------------------------------------------------------
# verify batteries (fixed internal budgets; deterministic given the seed)

def _check_row(name, passed, observed, threshold) -> dict:
    return {"check": name, "passed": bool(passed),
            "observed": float(observed), "threshold": float(threshold)}


def _random_instance(rng, n_max=8, card_max=12):
    n = int(rng.integers(2, n_max + 1))
    card = int(rng.integers(2, card_max + 1))
    pts = rng.standard_normal((card, n))
    T = isets.build_explicit(pts)
    x = rng.standard_normal(n)
    beta = float(rng.uniform(0.3, 3.0))
    return T, x, beta


def _verify_softmax(stream: RandomStream) -> list:
    rows = []
    rng = stream.substream("softmax-battery").generator()

    worst = 0.0
    ok = True
    for _ in range(200):
        T, x, beta = _random_instance(rng)
        gap, bound = sm.sandwich_gap(T, beta, x)
        ok &= -1e-12 <= gap <= bound + 1e-12
        worst = max(worst, gap - bound, -gap)
    rows.append(_check_row("sandwich_bracket", ok, worst, 0.0))

    worst = 0.0
    for _ in range(100):
        T, x, beta = _random_instance(rng)
        f1 = sm.log_partition(T, beta, x)
        f2 = sm.log_partition(T, beta * 2.0, x)
        worst = max(worst, f2 - f1)
    rows.append(_check_row("monotone_in_beta", worst <= 1e-12, worst, 1e-12))

    worst = 0.0
    for _ in range(200):
        T, x, beta = _random_instance(rng)
        y = rng.standard_normal(T.dim)
        mid = sm.log_partition(T, beta, 0.5 * (x + y))
        avg = 0.5 * (sm.log_partition(T, beta, x) + sm.log_partition(T, beta, y))
        slack = 1e-12 * max(1.0, abs(avg))
        worst = max(worst, mid - avg - slack)
    rows.append(_check_row("midpoint_convexity", worst <= 0.0, worst, 0.0))

    worst = 0.0
    for _ in range(50):
        T, x, beta = _random_instance(rng, n_max=5, card_max=8)
        i = int(rng.integers(T.dim))
        for order in (2, 3, 4):
            analytic, fd = sm.grad_fd_report(T, beta, x, i, order)
            floor = (abs(analytic)
                     + beta ** (order - 1) * float(np.abs(T.points[:, i]).max()) ** order
                     + 1e-12)
            worst = max(worst, abs(analytic - fd) / floor)
    rows.append(_check_row("derivative_fd_agreement", worst <= 1e-4, worst, 1e-4))

    allok = True
    for _ in range(200):
        T, x, beta = _random_instance(rng)
        i = int(rng.integers(T.dim))
        allok &= sm.derivative_bound_check(T, beta, x, i).ok
    rows.append(_check_row("derivative_moment_bounds", allok, 0.0 if allok else 1.0, 0.0))

    worst = 0.0
    for _ in range(100):
        T, x, beta = _random_instance(rng)
        worst = max(worst, sm.uniform_identity_gap(T, beta, x))
    rows.append(_check_row("uniform_measure_identity", worst <= 1e-10, worst, 1e-10))

    worst = 1.0
    for _ in range(50):
        T, x, _ = _random_instance(rng)
        try:
            worst = min(worst, sm.collapse_weight(T, x))
        except ValueError:
            continue
    rows.append(_check_row("weight_collapse", worst >= 1.0 - 1e-6, worst, 1.0 - 1e-6))
    return rows


def _verify_gibbs(stream: RandomStream) -> list:
    rows = []
    rng = stream.substream("gibbs-battery").generator()

    worst = 0.0
    ok = True
    for _ in range(200):
        T, x, beta = _random_instance(rng)
        mu = sm.gibbs_measure(T, beta, x)
        ok &= bool(np.all(mu.weights >= 0.0))
        worst = max(worst, abs(float(mu.weights.sum()) - 1.0))
    rows.append(_check_row("weights_normalized", ok and worst <= 1e-12, worst, 1e-12))

    worst = 0.0
    for _ in range(100):
        T, x, beta = _random_instance(rng)
        mu = sm.gibbs_measure(T, beta, x)
        z = beta * (T.points @ x)
        live = np.nonzero(mu.weights)[0]
        for a in range(min(4, live.size)):
            for b in range(a + 1, min(4, live.size)):
                ia, ib = live[a], live[b]
                lhs = math.log(mu.weights[ia]) - math.log(mu.weights[ib])
                worst = max(worst, abs(lhs - (z[ia] - z[ib])))
    rows.append(_check_row("log_ratio_identity", worst <= 1e-10, worst, 1e-10))

    worst = 0.0
    for _ in range(100):
        T, x, beta = _random_instance(rng)
        w1 = sm.gibbs_measure(T, beta, x).weights
        w2 = sm.tilted_measure(sm.uniform_measure(T), beta * x).weights
        worst = max(worst, float(np.abs(w1 - w2).max()))
    rows.append(_check_row("gibbs_is_tilted_uniform", worst <= 1e-12, worst, 1e-12))

    worst = 0.0
    for _ in range(100):
        T, x, beta = _random_instance(rng)
        mu = sm.gibbs_measure(T, beta, x)
        grad = sm.log_partition_grad(T, beta, x)
        moments = np.array([sm.gibbs_moment(mu, i, 1) for i in range(T.dim)])
        worst = max(worst, float(np.abs(grad - moments).max()))
    rows.append(_check_row("gradient_is_mean", worst <= 1e-12, worst, 1e-12))

    allok = True
    for _ in range(100):
        T, x, beta = _random_instance(rng)
        i = int(rng.integers(T.dim))
        y = x.copy()
        y[i] += float(rng.uniform(-0.5, 0.5))
        allok &= sm.lipschitz_log_moment_check(T, beta, x, y, i).ok
    rows.append(_check_row("lipschitz_log_moment", allok, 0.0 if allok else 1.0, 0.0))

    # concentrated fourth moment of the negative-scaled basis family:
    # at location (s, 1, ..., 1) the moment E[l_i^4] has the closed form
    # theta^4 e^{-s theta} / (e^{-s theta} + (n-1) e^{-theta})
    n, theta, s = 6, 12.0, 0.5
    T = isets.make_basis_family(n, "negative-scaled", theta)
    x = np.ones(n)
    x[0] = s
    mu = sm.gibbs_measure(T, 1.0, x)
    got = sm.gibbs_moment(mu, 0, 4)
    expect = theta ** 4 * math.exp(-s * theta) / (
        math.exp(-s * theta) + (n - 1) * math.exp(-theta))
    rel = abs(got - expect) / expect
    rows.append(_check_row("concentrated_fourth_moment", rel <= 1e-10, rel, 1e-10))

    # summing over the n interpolation locations approaches n * theta^4,
    # the growth that rules out a single dominating measure
    theta = 40.0
    T = isets.make_basis_family(n, "negative-scaled", theta)
    total = 0.0
    for i in range(n):
        x = np.ones(n)
        x[i] = 0.5
        total += sm.gibbs_moment(sm.gibbs_measure(T, 1.0, x), i, 4)
    ratio = total / (n * theta ** 4)
    rows.append(_check_row("fourth_moment_growth", ratio >= 0.9, ratio, 0.9))
    return rows


def _verify_stein(stream: RandomStream) -> list:
    rows = []
    rng = stream.substream("stein-battery").generator()

    # smoothed maximum, exhaustive rademacher, both variants
    pts = rng.standard_normal((6, 5))
    T = isets.build_explicit(pts)
    f = ou.SoftmaxFunction(T, 0.7)
    for variant in ("third", "fourth"):
        rep = ou.stein_representation_check(f, rademacher(), variant)
        rows.append(_check_row(f"softmax_{variant}_exhaustive", rep.ok,
                               rep.diff, rep.tolerance))

    # univariate x^4 against the fourth-order representation
    f4 = ou.PolynomialFunction(ou.Polynomial.coordinate_power(1, 0, 4))
    rep = ou.stein_representation_check(f4, rademacher(), "fourth")
    rows.append(_check_row("quartic_exhaustive", rep.ok, rep.diff, rep.tolerance))
    rows.append(_check_row("quartic_lhs_value", abs(rep.lhs - 8.0) <= 1e-10,
                           abs(rep.lhs - 8.0), 1e-10))

    # Monte-Carlo path for a continuous law
    from .distributions import uniform_symmetric
    rep = ou.stein_representation_check(f, uniform_symmetric(), "fourth",
                                        stream.substream("stein-mc"),
                                        replicates=4000)
    rows.append(_check_row("softmax_fourth_mc", rep.ok, rep.diff, rep.tolerance))

    # hypothesis refusal: variance 2 and skewed laws must be rejected by name
    from .distributions import CoordinateDistribution, laplace
    refused = False
    try:
        ou.stein_representation_check(f, laplace(False), "third")
    except ou.HypothesisViolation as exc:
        refused = exc.moment == "second moment"
    rows.append(_check_row("refuses_variance_2", refused, float(refused), 1.0))
    skewed = CoordinateDistribution("skewed-test", 1.0, 0.5, 1.5, 3.0, None)
    refused = False
    try:
        ou.stein_representation_check(f, skewed, "fourth")
    except ou.HypothesisViolation as exc:
        refused = exc.moment == "third moment"
    rows.append(_check_row("refuses_skewed_fourth", refused, float(refused), 1.0))

    # operator identities on a polynomial
    poly = ou.Polynomial(3, {(2, 0, 0): 1.0, (0, 1, 2): 0.5, (1, 1, 0): -2.0,
                             (0, 0, 4): 0.25, (0, 0, 0): 1.5})
    fp = ou.PolynomialFunction(poly)
    x = np.array([0.3, -1.1, 0.7])
    rep = ou.poisson_identity_check(fp, x)
    rows.append(_check_row("poisson_identity_poly",
                           rep.ok, abs(rep.lhs - rep.rhs_generator_of_potential),
                           rep.tolerance))
    lhs, rhs, tol, ok = ou.semigroup_check(fp, 0.4, 0.9, x)
    rows.append(_check_row("semigroup_poly", ok, abs(lhs - rhs), tol))
    dev, bound, ok = ou.ergodic_check(fp, 3.0, x)
    rows.append(_check_row("ergodic_poly", ok, dev, max(bound, 1e-12)))

    sf = ou.SoftmaxFunction(T, 0.7)
    x5 = rng.standard_normal(5) * 0.5
    lhs, rhs, tol, ok = ou.semigroup_check(sf, 0.5, 0.8, x5,
                                           stream=stream.substream("semigroup"))
    rows.append(_check_row("semigroup_softmax_mc", ok, abs(lhs - rhs), tol))
    rep = ou.poisson_identity_check(sf, x5, samples=2048,
                                    stream=stream.substream("poisson"))
    rows.append(_check_row("poisson_identity_softmax_mc", rep.ok,
                           abs(rep.lhs - rep.rhs_generator_of_potential),
                           rep.tolerance))
    return rows


def _run_verify(target: str, stream: RandomStream):
    battery = {"softmax": _verify_softmax, "gibbs": _verify_gibbs,
               "stein": _verify_stein}[target]
    rows = battery(stream.substream(f"verify-{target}"))
    return rows, all(r["passed"] for r in rows)


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


USAGE = """usage: supcompare SUBCOMMAND [TARGET] [key=value ...] [--config FILE]

subcommands: estimate bounds sudakov laplace sk tensor phase-curves
             verify {softmax|stein|gibbs}

common keys: set=... distribution=... replicates=... seed=... beta=...
             output_dir=... format={csv|json|both}
"""


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
        record = run(config)
    except (ConfigError, ou.HypothesisViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    paths = emit(record, config.output_dir, config.format)
    for name, passed in record.assertions.items():
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    for path in paths:
        print(f"wrote {path}")
    return 0 if record.ok else 2


if __name__ == "__main__":
    sys.exit(main())
