import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import supcompare
from supcompare import bounds, checks, cli, experiments
from supcompare.distributions import gaussian
from supcompare import index_sets as isets
from supcompare.estimator import BRACKET_TOL, MIN_REPLICATES


def test_parse_config_defaults_and_overrides():
    cfg = cli.parse_config(["estimate", "set=basis:n=4"])
    assert cfg.subcommand == "estimate"
    assert cfg.distribution == "rademacher"
    assert cfg.replicates == 100000
    assert cfg.seed == cli.DEFAULT_SEED
    cfg = cli.parse_config(["subcommand=bounds", "set=basis:n=4",
                            "replicates=500", "seed=9", "paired=1"])
    assert cfg.subcommand == "bounds" and cfg.paired and cfg.seed == 9


def test_parse_config_errors():
    with pytest.raises(cli.ConfigError):
        cli.parse_config(["estimate", "mystery=1", "set=basis:n=2"])
    with pytest.raises(cli.ConfigError):
        cli.parse_config(["fly"])
    with pytest.raises(cli.ConfigError):
        cli.parse_config(["verify"])
    with pytest.raises(cli.ConfigError):
        cli.parse_config(["verify", "everything"])
    for beta in ("warm", "inf", "nan", "0", "-1"):
        with pytest.raises(cli.ConfigError, match="positive finite"):
            cli.parse_config(["estimate", "set=basis:n=2", f"beta={beta}"])
    with pytest.raises(cli.ConfigError):
        cli.parse_config(["estimate", "set=basis:n=2",
                          "distribution=unknown-law"])
    with pytest.raises(cli.ConfigError):
        cli.parse_config(["estimate", "target=softmax", "set=basis:n=2"])
    with pytest.raises(cli.ConfigError):
        cli.parse_config(["estimate", "oops", "extra", "set=basis:n=2"])
    with pytest.raises(cli.ConfigError):
        # normalization is a set-descriptor argument, not a config key
        cli.parse_config(["tensor", "N=6", "m=2", "normalized=0"])
    # keys the subcommand would ignore
    for argv in (["sudakov", "set=basis:n=4", "distribution=gaussian"],
                 ["verify", "softmax", "replicates=10"],
                 ["laplace", "distribution=rademacher"],
                 ["laplace", "beta=3"], ["laplace", "paired=1"],
                 ["laplace", "set=basis:n=3"], ["laplace", "u_grid=1"],
                 ["phase-curves", "set=basis:n=4", "replicates=10"],
                 ["phase-curves", "set=basis:n=4", "seed=1"],
                 ["sk", "N=4"]):
        with pytest.raises(cli.ConfigError, match="does not read"):
            cli.parse_config(argv)
    with pytest.raises(cli.ConfigError, match="requires"):
        cli.parse_config(["tensor", "N=6"])


def test_parse_config_refuses_degenerate_law_parameters():
    for name in ("scaled-rademacher:inf", "scaled-rademacher:nan",
                 "two-point:nan", "two-point:inf", "two-point:1e-300"):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(["bounds", "set=basis:n=4",
                              f"distribution={name}"])


def test_degenerate_law_parameter_exits_1(tmp_path, capsys):
    for name in ("scaled-rademacher:inf", "two-point:1e-300"):
        assert run_main(["bounds", "set=basis:n=4", f"distribution={name}",
                         "replicates=100", f"output_dir={tmp_path}"]) == 1
    assert not list(tmp_path.iterdir())


def test_parse_config_refuses_empty_and_non_finite_lists():
    for argv in (["phase-curves", "set=basis:n=4", "u_grid="],
                 ["phase-curves", "set=basis:n=4", "u_grid=nan,1"],
                 ["phase-curves", "set=basis:n=4", "u_grid=inf"],
                 ["laplace", "n_list="], ["sk", "N_list=,"],
                 ["sk", "N_list=x"]):
        with pytest.raises(cli.ConfigError, match="at least one"):
            cli.parse_config(argv)
    cfg = cli.parse_config(["phase-curves", "set=basis:n=4", "u_grid=0.5,2"])
    assert cfg.u_grid == (0.5, 2.0)


def test_bounds_csv_names_the_law_parameter(tmp_path):
    assert run_main(["bounds", "set=basis:n=4", "replicates=200",
                     "distribution=scaled-rademacher:2", "format=csv",
                     f"output_dir={tmp_path}"]) == 0
    text = (tmp_path / "bounds.csv").read_text()
    assert "scaled-rademacher:2.0" in text


def test_bounds_csv_set_is_the_descriptor_as_typed(tmp_path):
    # each names a set that a rebuilt name would lose: a non-default alpha,
    # an explicit diagonal, a theta past six significant digits
    for i, desc in enumerate((
            "diagcube:n=6,alpha=0.9", "diagcube:d=3|2|1",
            "basis:n=4,mode=negative-scaled,theta=1.23456789")):
        out = tmp_path / str(i)
        assert run_main(["bounds", f"set={desc}", "replicates=200",
                         "format=csv", f"output_dir={out}"]) == 0
        with open(out / "bounds.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["set"] == desc


def test_seed_outside_64_bits_is_refused(tmp_path, capsys):
    for seed in (-1, 1 << 64):
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.parse_config(["estimate", "set=basis:n=4", f"seed={seed}"])
        assert run_main(["estimate", "set=basis:n=4", "replicates=200",
                         f"seed={seed}", f"output_dir={tmp_path}"]) == 1
        assert "error: seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert cli.parse_config(["estimate", "set=basis:n=4",
                             f"seed={(1 << 64) - 1}"]).seed == (1 << 64) - 1


def test_output_dir_naming_a_file_fails_before_the_run(tmp_path, capsys,
                                                       monkeypatch):
    path = tmp_path / "taken"
    path.write_text("")

    def run(config):
        raise AssertionError("ran with an unusable output_dir")
    monkeypatch.setattr(cli, "run", run)
    assert run_main(["verify", "gibbs", f"output_dir={path}"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert path.read_text() == ""


# a valid value for every config key a subcommand may read
KEY_VALUES = {"set": "basis:n=2", "distribution": "gaussian",
              "replicates": "100", "beta": "1", "paired": "1", "n_list": "4,8",
              "N_list": "4", "N": "4", "m": "2", "u_grid": "1,2",
              "target": "softmax", "seed": "3", "output_dir": "out",
              "format": "csv"}


def test_each_subcommand_takes_exactly_its_keys():
    common = [k for k in cli.COMMON_KEYS if k != "subcommand"]
    for sub, (keys, _) in cli.SUBCOMMANDS.items():
        names = [k.rstrip("*") for k in keys] + common
        required = [f"{k}={KEY_VALUES[k]}" for k in names if k + "*" in keys]
        cli.parse_config([sub] + [f"{k}={KEY_VALUES[k]}" for k in names])
        for key in sorted(set(KEY_VALUES) - set(names)):
            with pytest.raises(cli.ConfigError, match="does not read"):
                cli.parse_config([sub, *required, f"{key}={KEY_VALUES[key]}"])
        for token in required:
            with pytest.raises(cli.ConfigError, match="requires"):
                cli.parse_config([sub] + [t for t in required if t != token])


def test_parse_config_file_merging():
    text = "# comment\nsubcommand=estimate\nset=basis:n=4\nreplicates=200\n"
    cfg = cli.parse_config(["replicates=300"], file_text=text)
    assert cfg.subcommand == "estimate"
    assert cfg.replicates == 300  # CLI overrides the file


def test_a_key_given_twice_is_refused(tmp_path, capsys):
    # each would run with one of its two values ignored
    with pytest.raises(cli.ConfigError, match="'n' given twice"):
        cli.parse_set("basis:n=8,n=9")
    for argv in (["estimate", "set=basis:n=4", "replicates=200",
                  "replicates=300"],
                 ["estimate", "subcommand=bounds", "set=basis:n=4"],
                 ["verify", "stein", "target=softmax"]):
        with pytest.raises(cli.ConfigError, match="given twice"):
            cli.parse_config(argv)
    text = "subcommand=estimate\nset=basis:n=4\nseed=1\nseed=2\n"
    with pytest.raises(cli.ConfigError, match="'seed' given twice"):
        cli.parse_config([], file_text=text)
    # one value from the file and one from the command line: the command
    # line overrides
    text = "subcommand=estimate\nset=basis:n=4\nseed=1\n"
    assert cli.parse_config(["seed=2"], file_text=text).seed == 2
    cfg = cli.parse_config(["sudakov"], file_text=text)
    assert cfg.subcommand == "sudakov"
    assert run_main(["estimate", "set=basis:n=8,n=9", "replicates=100",
                     f"output_dir={tmp_path}"]) == 1
    assert "given twice" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_diagcube_dimension_is_capped_before_the_diagonal_is_listed():
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(cli.ConfigError, match="n must be in"):
        cli.parse_set("diagcube:n=20000000,k=2")
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.1 and peak < 10 * 2 ** 20


def test_diagcube_free_signs_are_capped_before_two_to_the_k(tmp_path,
                                                           capsys):
    # 2^20000 would be formed, and would fail to print, without the cap
    start = time.perf_counter()
    with pytest.raises(cli.ConfigError, match="cardinality cap"):
        cli.parse_set("diagcube:n=20000,k=20000")
    assert time.perf_counter() - start < 0.1
    assert run_main(["estimate", "set=diagcube:n=20000,k=20000",
                     f"output_dir={tmp_path}"]) == 1
    assert "cardinality cap" in capsys.readouterr().err


def test_parse_set_calls_each_builder_on_index_sets_at_call_time(monkeypatch):
    # a wrapper set on index_sets after import (a tracer's span) must run
    called = []
    builders = {"basis:n=3": "make_basis_family",
                "diagcube:d=2|1": "make_diagonal_cube",
                "spin-quadratic:N=4": "make_spin_quadratic",
                "spin-tensor:N=4,m=3": "make_spin_tensor",
                "explicit:path=/nope.csv": "load_csv"}
    for name in builders.values():
        def recorder(*args, _name=name, _build=getattr(isets, name), **kw):
            called.append(_name)
            return _build(*args, **kw)
        monkeypatch.setattr(isets, name, recorder)
    for desc, name in builders.items():
        called.clear()
        try:
            cli.parse_set(desc)
        except cli.ConfigError:
            assert name == "load_csv"  # the file does not exist
        assert called[:1] == [name]


def test_parse_set_families():
    T = cli.parse_set("basis:n=5,mode=signed")
    assert T.cardinality == 10
    T = cli.parse_set("basis:n=3,mode=negative-scaled,theta=2")
    assert np.array_equal(T.points, -2 * np.eye(3))
    T = cli.parse_set("diagcube:n=4,alpha=0.5,k=2")
    assert T.cardinality == 4 and T.dim == 4
    T = cli.parse_set("diagcube:d=1|0.5")
    assert T.cardinality == 4
    T = cli.parse_set("spin-quadratic:N=4")
    assert T.dim == 6
    T = cli.parse_set("spin-tensor:N=4,m=3,normalized=1")
    assert np.allclose(np.linalg.norm(T.points, axis=1), 0.5)


def test_parse_set_errors():
    for bad in ("basis", "basis:n=0", "mystery:n=2", "basis:n=2,weird=1",
                "diagcube:n=2,alpha=0.5,k=9", "explicit:path=/nope.csv",
                "basis:mode=signed", "basis:n=4,theta=-1",
                "basis:n=4,mode=signed,theta=nan", "diagcube:k=2",
                "diagcube:n=3,d=2|1", "diagcube:d=2|1,alpha=0.5",
                "diagcube:d=inf|1"):
        with pytest.raises(cli.ConfigError):
            cli.parse_set(bad)
    for theta in ("nan", "inf", "-inf", "0", "-2"):
        with pytest.raises(cli.ConfigError):
            cli.parse_set(f"basis:n=4,mode=negative-scaled,theta={theta}")


def test_flags_accept_only_0_or_1(tmp_path, capsys):
    for desc in ("spin-quadratic:N=4,normalized=true",
                 "spin-quadratic:N=4,normalized=01",
                 "spin-tensor:N=4,m=3,normalized=2"):
        with pytest.raises(cli.ConfigError, match="normalized must be 0 or 1"):
            cli.parse_set(desc)
    # paired takes one value: the unpaired gap estimate was removed
    for flag in ("0", "7", "-1", "yes", ""):
        with pytest.raises(cli.ConfigError, match="paired must be 1, got "
                           ".*unpaired gap estimate was removed"):
            cli.parse_config(["bounds", "set=basis:n=4", f"paired={flag}"])
    assert cli.parse_config(["bounds", "set=basis:n=4"]).paired
    out = str(tmp_path)
    assert run_main(["estimate", "set=spin-quadratic:N=4,normalized=true",
                     "replicates=100", f"output_dir={out}"]) == 1
    assert "must be 0 or 1" in capsys.readouterr().err
    assert run_main(["bounds", "set=basis:n=4", "paired=0",
                     "replicates=100", f"output_dir={out}"]) == 1
    assert "unpaired gap estimate was removed" in capsys.readouterr().err


def test_bounds_without_paired_writes_the_paired_csv(tmp_path):
    argv = ["bounds", "set=diagcube:n=6", "distribution=uniform",
            "replicates=600", "seed=9", "format=csv"]
    assert run_main(argv + [f"output_dir={tmp_path / 'default'}"]) == 0
    assert run_main(argv + ["paired=1", f"output_dir={tmp_path / 'one'}"]) == 0
    assert ((tmp_path / "default" / "bounds.csv").read_bytes()
            == (tmp_path / "one" / "bounds.csv").read_bytes())


def test_parse_set_refuses_over_budget_before_allocating(monkeypatch):
    def allocates(*args, **kwargs):
        raise AssertionError("built points past the byte budget")
    monkeypatch.setattr(isets, "sign_patterns", allocates)
    # 2^22 rows x 231 columns of float64 is 7.7 GB
    for bad in ("spin-tensor:N=22,m=2", "diagcube:n=30,k=30"):
        with pytest.raises(cli.ConfigError):
            cli.parse_set(bad)
    # a spin set's kernels read its points, so their bytes are checked
    # when it is declared: 2^21 rows x 210 columns is 3.5 GB
    with pytest.raises(cli.ConfigError, match="bytes"):
        cli.parse_set("spin-tensor:N=21,m=2")


def test_over_budget_dimension_is_refused_at_parse():
    # one 1024-row sample block of dimension MAX_DIM + 1 is over the 2 GiB
    # budget; basis:n=1048576 would need an 8 GiB block
    assert isets.MAX_DIM == 2 ** 18
    for n in (1048576, isets.MAX_DIM + 1):
        start = time.perf_counter()
        with pytest.raises(cli.ConfigError, match="sample block"):
            cli.parse_set(f"basis:n={n}")
        assert time.perf_counter() - start < 0.1
    T = cli.parse_set(f"basis:n={isets.MAX_DIM}")
    assert T.dim == isets.MAX_DIM and "points" not in vars(T)


def test_cube_estimate_builds_no_points(tmp_path):
    # the closed-form cube kernel never reads the 2^22 x 22 points (the
    # eager build took 1.4 GiB); the CSV is the one the eager build wrote
    cfg = cli.parse_config(["estimate", "set=diagcube:n=22,alpha=0.25",
                            "distribution=gaussian", "replicates=1000",
                            "seed=3"])
    tracemalloc.start()
    try:
        record = cli.run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    (path,) = cli.emit(record, str(tmp_path), "csv")
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == (
            "735f6c199a469ee49209456607d3009fb0516f9675aef608e66eb0b8bd4f2e46")


def test_parse_set_explicit_round_trip(tmp_path):
    T = isets.make_basis_family(3, "signed")
    path = tmp_path / "pts.csv"
    isets.save_csv(T, path)
    back = cli.parse_set(f"explicit:path={path}")
    assert np.array_equal(back.points, T.points)


def run_main(argv):
    return cli.main(argv)


def assertion(doc, name):
    """The one row named name of a JSON record's assertions."""
    (row,) = [row for row in doc["assertions"] if row["check"] == name]
    return row


def test_estimate_run_and_outputs(tmp_path):
    out = tmp_path / "out"
    code = run_main(["estimate", "set=basis:n=5", "distribution=gaussian",
                     "replicates=500", "seed=3", "beta=1.25",
                     f"output_dir={out}"])
    assert code == 0
    doc = json.loads((out / "estimate.json").read_text())
    assert doc["config"]["seed"] == 3
    row = assertion(doc, "softmax_bracket")
    assert row["passed"] is True and row["threshold"] == -BRACKET_TOL
    headers = doc["tables"]["main"]["headers"]
    rows = doc["tables"]["main"]["rows"]
    assert headers[0] == "metric"
    metrics = {r[0] for r in rows}
    assert metrics == {"complexity", "softmax"}
    soft = next(r for r in rows if r[0] == "softmax")
    offset = soft[headers.index("offset")]
    assert offset == pytest.approx(math.log(5) / 1.25)
    csv_text = (out / "estimate.csv").read_text()
    assert csv_text.startswith("metric,")


def test_beta_auto(tmp_path):
    out = tmp_path / "auto"
    code = run_main(["estimate", "set=basis:n=4", "distribution=rademacher",
                     "replicates=200", "beta=auto", f"output_dir={out}"])
    assert code == 0
    doc = json.loads((out / "estimate.json").read_text())
    # bounded optimizer: min(1/Rinf, u^{1/4}/R4) with M = R2 = R4 = Rinf = 1
    assert doc["summary"]["beta"] == pytest.approx(1.0)


def test_rerun_is_byte_identical(tmp_path):
    argv = ["bounds", "set=diagcube:n=6,alpha=0.25", "distribution=uniform",
            "replicates=400", "seed=11"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_main(argv + [f"output_dir={a}"]) == 0
    assert run_main(argv + [f"output_dir={b}"]) == 0
    assert (a / "bounds.csv").read_bytes() == (b / "bounds.csv").read_bytes()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run_main(["estimate"]) == 1  # missing set=
    assert run_main(["estimate", "set=basis:n=2", "bogus=1"]) == 1
    assert run_main(["--config", "/does/not/exist.cfg"]) == 1
    assert run_main([]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_config_file_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "cfg-out"
    cfg.write_text("subcommand=sudakov\nset=basis:n=6\nreplicates=100\n"
                   f"output_dir={out}\n")
    assert run_main(["--config", str(cfg)]) == 0
    doc = json.loads((out / "sudakov.json").read_text())
    row = assertion(doc, "ratios_positive")
    assert row["passed"] is True and row["threshold"] == 0.0


def test_failed_assertion_exits_2(tmp_path):
    # odd N two-spin gaps nearly vanish, blowing the max/min ratio
    out = tmp_path / "skfail"
    code = run_main(["sk", "N_list=4,5", "replicates=20000", "seed=1",
                     f"output_dir={out}"])
    assert code == 2
    doc = json.loads((out / "sk.json").read_text())
    row = assertion(doc, "scaled_max_over_min_le_3")
    assert row["passed"] is False and row["threshold"] == 3.0


def test_softmax_bracket_violation_exits_2(tmp_path, monkeypatch, capsys):
    fused = isets._fused_block

    def shifted(Z, beta):
        # a soft-max far above the upper end sup + log|T|/beta of its bracket
        sups, logz = fused(Z, beta)
        return sups, logz + 100.0
    monkeypatch.setattr(isets, "_fused_block", shifted)
    out = tmp_path / "bracket"
    code = run_main(["estimate", "set=basis:n=4", "distribution=gaussian",
                     "replicates=200", "beta=1.0", f"output_dir={out}"])
    assert code == 2
    assert "FAIL softmax_bracket" in capsys.readouterr().out
    doc = json.loads((out / "estimate.json").read_text())
    row = assertion(doc, "softmax_bracket")
    assert row["passed"] is False and row["threshold"] == -BRACKET_TOL
    # slack = log|T|/beta - 100 - max(F - sup), and 0 <= F - sup <= log|T|/beta
    slack = doc["summary"]["softmax_bracket_slack"]
    assert -100.0 <= slack <= math.log(4) - 100.0


def test_nan_bracket_slack_exits_2(tmp_path, capsys):
    # beta is finite but F_beta overflows to inf, so the upper margin
    # sup + offset - F is inf - inf = NaN, and NaN must fail the bracket
    out = tmp_path / "tiny-beta"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_main(["estimate", "set=basis:n=4", "distribution=gaussian",
                         "replicates=200", "beta=1e-320", f"output_dir={out}"])
    assert code == 2
    assert "FAIL softmax_bracket" in capsys.readouterr().out


def test_beta_auto_on_a_zero_set_exits_1(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    isets.save_csv(isets.build_explicit(np.zeros((3, 2))), path)
    code = run_main(["estimate", f"set=explicit:path={path}", "beta=auto",
                     "replicates=200", f"output_dir={tmp_path / 'out'}"])
    assert code == 1
    assert "nonzero profile" in capsys.readouterr().err


def test_version_has_one_source(tmp_path):
    # pyproject.toml declares no version literal: setuptools reads it from
    # supcompare.__version__, the one the JSON record carries
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is flagged beta
        project = pyprojecttoml.read_configuration(pyproject)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == supcompare.__version__
    out = tmp_path / "version"
    run_main(["sudakov", "set=basis:n=4", f"output_dir={out}"])
    doc = json.loads((out / "sudakov.json").read_text())
    assert doc["version"] == supcompare.__version__


def test_json_records_its_provenance(tmp_path):
    run_main(["estimate", "set=basis:n=4", "distribution=gaussian",
              "replicates=200", "format=json", f"output_dir={tmp_path}"])
    doc = strict_json(tmp_path / "estimate.json")
    assert doc["provenance"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "workers": isets.WORKERS, "tile_bytes": isets.TILE_BYTES,
        "split_tile_bytes": isets.SPLIT_TILE_BYTES}


# runs that between them reach the Gaussian quantile by ppf (paired bounds)
# and by isf (Gaussian basis maxima) and the log-Laplace identity (verify
# softmax), besides every other subcommand that draws
SCIPY_FREE_RUNS = {
    "bounds": ["bounds", "set=diagcube:n=6", "distribution=uniform",
               "replicates=600", "seed=9", "paired=1"],
    "estimate": ["estimate", "set=basis:n=8", "distribution=gaussian",
                 "replicates=2500", "seed=1"],
    "laplace": ["laplace", "n_list=16,256", "replicates=1100", "seed=15"],
    "sk": ["sk", "N_list=4,6", "replicates=300", "seed=16"],
    "verify-softmax": ["verify", "softmax", "seed=19"],
    "verify-stein": ["verify", "stein", "seed=20"],
    "verify-gibbs": ["verify", "gibbs", "seed=21"],
}


def test_runs_need_no_scipy(tmp_path):
    # in a fresh interpreter with every scipy import refused by a
    # sys.meta_path finder, the package imports, and each run writes its
    # JSON and the CSV bytes of an unblocked run
    src = pathlib.Path(supcompare.__file__).resolve().parents[1]
    code = ("import sys\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, Block())\n"
            "from supcompare import cli\n"
            f"for name, argv in {SCIPY_FREE_RUNS!r}.items():\n"
            f"    out = {str(tmp_path / 'blocked')!r} + '/' + name\n"
            "    assert cli.main(argv + ['output_dir=' + out]) == 0, name\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   stdout=subprocess.DEVNULL,
                   env=dict(os.environ, PYTHONPATH=str(src)))
    for name, argv in SCIPY_FREE_RUNS.items():
        blocked = tmp_path / "blocked" / name
        out = tmp_path / "unblocked" / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_main(argv + [f"output_dir={out}", "format=csv"]) == 0
        csvs = sorted(p.name for p in out.iterdir())
        assert csvs and sorted(p.name for p in blocked.glob("*.csv")) == csvs
        assert len(list(blocked.glob("*.json"))) == 1
        for fname in csvs:
            assert (blocked / fname).read_bytes() == (out / fname).read_bytes()


def test_phase_curves_crossover_row(tmp_path):
    out = tmp_path / "pc"
    code = run_main(["phase-curves", "set=diagcube:n=16,alpha=0.25,k=4",
                     f"output_dir={out}"])
    assert code == 0
    doc = json.loads((out / "phase-curves.json").read_text())
    row = assertion(doc, "crossovers_exact")
    assert row["passed"] is True and row["threshold"] == 1e-12
    assert doc["summary"]["u1"] == pytest.approx(3.3807289932289937)
    assert doc["summary"]["u2"] == pytest.approx(6.663994608237443)


def test_verify_batteries_exit_0(tmp_path):
    for target in ("softmax", "gibbs"):
        out = tmp_path / target
        assert run_main(["verify", target, f"output_dir={out}", "seed=2"]) == 0
        doc = json.loads((out / f"verify-{target}.json").read_text())
        assert doc["summary"]["failed"] == 0


def test_json_config_echoes_only_keys_read(tmp_path):
    runs = {
        "verify-gibbs": (["verify", "gibbs", "seed=2"],
                         {"subcommand": "verify", "target": "gibbs",
                          "seed": 2, "format": "json"}),
        "sudakov": (["sudakov", "set=basis:n=4", "replicates=300"],
                    {"subcommand": "sudakov", "set": "basis:n=4",
                     "replicates": 300, "seed": cli.DEFAULT_SEED,
                     "format": "json"}),
    }
    for stem, (argv, expected) in runs.items():
        out = tmp_path / stem
        assert run_main(argv + [f"output_dir={out}", "format=json"]) == 0
        config = json.loads((out / f"{stem}.json").read_text())["config"]
        assert config == {**expected, "output_dir": str(out)}


# a small config of every subcommand
SMALL_RUNS = {
    "estimate": ["estimate", "set=basis:n=3", "replicates=100", "beta=2"],
    "bounds": ["bounds", "set=basis:n=3", "replicates=100", "paired=1"],
    "sudakov": ["sudakov", "set=basis:n=3"],
    "laplace": ["laplace", "n_list=4,8", "replicates=100"],
    "sk": ["sk", "N_list=4", "distribution=uniform", "replicates=100"],
    "tensor": ["tensor", "N=4", "m=3", "replicates=100"],
    "phase-curves": ["phase-curves", "set=basis:n=4", "u_grid=0.5,2"],
    "verify-gibbs": ["verify", "gibbs"],
}


def test_json_config_is_the_parsed_record(tmp_path):
    assert {argv[0] for argv in SMALL_RUNS.values()} == set(cli.SUBCOMMANDS)
    for stem, argv in SMALL_RUNS.items():
        keys = cli.SUBCOMMANDS[argv[0]][0]
        argv = argv + (["seed=4"] if "seed" in keys else []) + [
            f"output_dir={tmp_path / stem}", "format=json"]
        cfg = cli.parse_config(argv)
        assert cfg._fields == cli.COMMON_KEYS + tuple(k.rstrip("*") for k in keys)
        assert run_main(argv) in (0, 2)
        config = json.loads((tmp_path / stem / f"{stem}.json").read_text())["config"]
        assert config == json.loads(json.dumps(cfg._asdict()))
    assert config["target"] == "gibbs"
    assert json.loads((tmp_path / "bounds" / "bounds.json").read_text())[
        "config"]["paired"] is True


# the CLI rows that pass at observed >= threshold; every other passes at <=
LOWER_ROWS = {"softmax_bracket", "ratio_log34_spearman_ge_0.8"}


def test_every_row_follows_its_printed_numbers(tmp_path, capsys):
    # as for the verify rows: a reader can check each verdict from the
    # observed value and the threshold the row prints
    for stem, argv in SMALL_RUNS.items():
        code = run_main(argv + [f"output_dir={tmp_path / stem}",
                                "format=json"])
        doc = strict_json(tmp_path / stem / f"{stem}.json")
        assert doc["assertions"], stem
        printed = [f"{'PASS' if row['passed'] else 'FAIL'} {row['check']}"
                   for row in doc["assertions"]]
        out = capsys.readouterr().out.splitlines()
        verdicts = [ln for ln in out if ln.startswith(("PASS ", "FAIL "))]
        assert verdicts == printed
        assert code == (0 if all(row["passed"] for row in doc["assertions"])
                        else 2)
        for row in doc["assertions"]:
            assert set(row) == {"check", "passed", "observed", "threshold"}
            observed, threshold = row["observed"], row["threshold"]
            assert None not in (observed, threshold), (stem, row)
            assert row["passed"] is (
                observed >= threshold if row["check"] in LOWER_ROWS
                else observed <= threshold), (stem, row)


def _returning(monkeypatch, owner, name, change):
    """Set owner.name to the real function with change applied to its
    result."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: change(real(*a, **k)))


def _with_summary(key, value):
    def change(res):
        return experiments.ExperimentResult(res.rows, {**res.summary,
                                                       key: value})
    return change


def _with_gap_field(key, value):
    return lambda fields: {**fields, key: value}


def _battery(failed):
    return lambda target, seed: [checks._row(f"row{i}", float(i < failed), 0.5)
                                 for i in range(3)]


FLOAT_MAX = np.finfo(float).max
EDGES = (math.nan, math.inf, -math.inf, 0.0)

# each CLI check: a small run, a patch of the library result it reads that
# sets that result to a value, the values tried, and the expression the
# check was before it became a row, on the run's summary
CHECK_CASES = {
    "estimate_finite": (
        ["estimate", "set=basis:n=3", "replicates=100"],
        lambda mp, v: _returning(mp, cli, "estimate_complexity",
                                 lambda est: dataclasses.replace(est, mean=v)),
        EDGES + (1.0, -FLOAT_MAX, FLOAT_MAX),
        lambda s: math.isfinite(s["mean"])),
    "softmax_bracket": (
        ["estimate", "set=basis:n=3", "replicates=100", "beta=2"],
        lambda mp, v: _returning(mp, cli, "softmax_complexity",
                                 lambda res: (res[0], res[1], v)),
        EDGES + (-BRACKET_TOL, np.nextafter(-BRACKET_TOL, -1.0), 1.0),
        lambda s: s["softmax_bracket_slack"] >= -BRACKET_TOL),
    "ratios_finite": (
        ["bounds", "set=basis:n=3", "replicates=100"],
        lambda mp, v: _returning(
            mp, bounds, "error_report",
            lambda rep: dataclasses.replace(rep, ratios={**rep.ratios,
                                                         "trivial": v})),
        EDGES + (1.0, -FLOAT_MAX),
        lambda s: all(math.isfinite(v) for k, v in s.items()
                      if k.startswith("ratio_"))),
    "ratios_positive": (
        ["sudakov", "set=basis:n=3"],
        lambda mp, v: _returning(mp, bounds, "sudakov_check",
                                 lambda rep: dataclasses.replace(
                                     rep, hypothesis_ratio=v)),
        EDGES + (5e-324, 1.0, -1.0, FLOAT_MAX),
        lambda s: all(0.0 < r < math.inf for r in (s["hypothesis_ratio"],
                                                   s["conclusion_ratio"]))),
    "ratio_log_max_over_min_le_2": (
        ["laplace", "n_list=4,8,16", "replicates=100"],
        lambda mp, v: _returning(mp, experiments, "heavy_tail_growth",
                                 _with_summary("ratio_log_max_over_min", v)),
        EDGES + (2.0, np.nextafter(2.0, 3.0), 1.0),
        lambda s: s["ratio_log_max_over_min"] <= 2.0),
    "ratio_log34_spearman_ge_0.8": (
        ["laplace", "n_list=4,8,16", "replicates=100"],
        lambda mp, v: _returning(mp, experiments, "heavy_tail_growth",
                                 _with_summary("ratio_log34_spearman", v)),
        EDGES + (0.8, np.nextafter(0.8, 0.0), 1.0),
        lambda s: s["ratio_log34_spearman"] >= 0.8),
    "scaled_max_over_min_le_3": (
        ["sk", "N_list=4", "replicates=100"],
        lambda mp, v: _returning(mp, experiments, "spin_glass_universality",
                                 _with_summary("scaled_max_over_min", v)),
        EDGES + (3.0, np.nextafter(3.0, 4.0), 1.0),
        lambda s: s["scaled_max_over_min"] <= 3.0),
    "gap_over_bound_finite": (
        ["tensor", "N=4", "m=3", "replicates=100"],
        lambda mp, v: _returning(mp, experiments, "_gap_fields",
                                 _with_gap_field("gap", v)),
        EDGES + (1.0, -1.0),
        lambda s: math.isfinite(s["gap_over_bound"])),
    "gauss_in_band": (
        ["tensor", "N=4", "m=2", "replicates=100"],
        lambda mp, v: _returning(mp, experiments, "_gap_fields",
                                 _with_gap_field("gauss_mean", v)),
        EDGES + (0.2, np.nextafter(0.2, 0.0), 1.5, np.nextafter(1.5, 2.0),
                 1.0),
        lambda s: s["gauss_in_band"]),
    "u1_le_u2": (
        # a negative u1 is refused by bound_profile before any check
        ["phase-curves", "set=basis:n=4", "u_grid=0.5,2"],
        lambda mp, v: _returning(mp, isets, "geometric_profile",
                                 lambda p: dataclasses.replace(p, u1=v)),
        (math.nan, math.inf, 0.0, 0.5, 1 + 1e-12,
         np.nextafter(1 + 1e-12, 2.0)),
        lambda s: s["u1"] <= s["u2"] * (1 + 1e-12)),
    "crossovers_exact": (
        # both residual scales are 1 on basis:n=4 under a Rademacher law
        ["phase-curves", "set=basis:n=4", "u_grid=0.5,2"],
        lambda mp, v: _returning(mp, bounds, "bound_profile",
                                 lambda b: dataclasses.replace(
                                     b, fourth_moment=v, sup_norm=0.0)),
        EDGES + (1e-12, -1e-12, np.nextafter(1e-12, 1.0)),
        lambda s: (s["crossover1_residual"] <= 1e-12
                   and s["crossover2_residual"] <= 1e-12)),
    "all_checks_pass": (
        ["verify", "gibbs"],
        lambda mp, v: mp.setattr(checks, "run_battery", _battery(v)),
        (0, 1, 3),
        lambda s: s["failed"] == 0),
}


@pytest.mark.parametrize("name", CHECK_CASES)
def test_each_check_fails_where_its_expression_failed(name, tmp_path,
                                                      monkeypatch, capsys):
    # NaN, infinities, zero and the values on each side of the threshold
    # give each row the verdict its bare expression gave, and a failing row
    # makes main print FAIL and exit 2
    argv, patch, values, expression = CHECK_CASES[name]
    real_run, records = cli.run, []
    monkeypatch.setattr(cli, "run",
                        lambda config: records.append(real_run(config))
                        or records[-1])
    verdicts = set()
    for i, value in enumerate(values):
        with monkeypatch.context() as mp:
            patch(mp, value)
            code = run_main(argv + [f"output_dir={tmp_path / str(i)}",
                                    "format=json"])
        out = capsys.readouterr().out.splitlines()
        (row,) = [r for r in records[-1].checks if r["check"] == name]
        passed = bool(expression(records[-1].summary))
        assert row["passed"] is passed, value
        verdicts.add(passed)
        if passed:
            assert f"PASS {name}" in out and code in (0, 2)
        else:
            assert f"FAIL {name}" in out and code == 2
    assert verdicts == {True, False}


def test_laplace_echoes_and_runs_the_default_sizes(tmp_path, monkeypatch):
    ran = []

    def sweep(n_list, replicates, stream):
        ran.append(n_list)
        return experiments.ExperimentResult(
            [{"n": 2}], {"ratio_log_max_over_min": 1.0,
                         "ratio_log34_spearman": 1.0})
    monkeypatch.setattr(experiments, "heavy_tail_growth", sweep)
    assert run_main(["laplace", "replicates=100", "format=json",
                     f"output_dir={tmp_path}"]) == 0
    config = json.loads((tmp_path / "laplace.json").read_text())["config"]
    assert config["n_list"] == [16, 64, 256, 1024, 4096, 16384]
    assert ran == [tuple(config["n_list"])]


def strict_json(path):
    """The JSON document at path; NaN, Infinity and -Infinity, which are
    not JSON, raise."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_laplace_asserts_no_rank_test_it_did_not_run(tmp_path, capsys):
    # the Spearman trend needs 3 sizes: with 2 there is no assertion, and
    # the JSON summary holds null, not the invalid NaN
    assert run_main(["laplace", "n_list=16,64", "replicates=200",
                     "format=json", f"output_dir={tmp_path}"]) in (0, 2)
    assert "spearman" not in capsys.readouterr().out
    doc = strict_json(tmp_path / "laplace.json")
    assert doc["summary"]["ratio_log34_spearman"] is None
    assert [row["check"] for row in doc["assertions"]] == [
        "ratio_log_max_over_min_le_2"]


def test_bad_sweep_size_is_a_config_error(tmp_path, monkeypatch, capsys):
    def sweep(*args):
        raise AssertionError("ran a sweep with a bad size")
    monkeypatch.setattr(experiments, "heavy_tail_growth", sweep)
    monkeypatch.setattr(experiments, "spin_glass_universality", sweep)
    for argv in (["laplace", "n_list=4096,1"], ["sk", "N_list=4,0"]):
        with pytest.raises(cli.ConfigError, match=">= 2"):
            cli.parse_config(argv)
        assert run_main(argv + [f"output_dir={tmp_path}"]) == 1
        assert "error: " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_help_prints_every_default(capsys):
    assert run_main(["--help"]) == 0
    out = capsys.readouterr().out
    for key, (_, default) in cli.KEYS.items():
        if key != "subcommand":
            assert f"  {key:13s} {cli._fmt(default) or '-'}\n" in out
    assert "n_list        16,64,256,1024,4096,16384\n" in out
    for family, (_, keys) in cli.SETS.items():
        assert f"  {family:15s} {' '.join(keys)}\n" in out


def test_json_has_stable_key_order(tmp_path):
    out = tmp_path / "stable"
    run_main(["sudakov", "set=basis:n=4", f"output_dir={out}"])
    text = (out / "sudakov.json").read_text()
    keys = [k for k in ("assertions", "config", "elapsed_seconds", "summary",
                        "tables", "version") if f'"{k}"' in text]
    positions = [text.index(f'"{k}"') for k in keys]
    assert positions == sorted(positions)


def test_json_writes_a_non_finite_value_as_null(tmp_path, monkeypatch):
    # both laws of a size draw their maxima from one substream: with the
    # Gaussian in place of the Laplace law every gap is exactly 0, so a gap
    # ratio is <= 0 and the growth ratio is infinite
    monkeypatch.setattr(experiments, "laplace", lambda normalized: gaussian())
    assert run_main(["laplace", "n_list=2,3", "replicates=100", "seed=8",
                     "format=json", f"output_dir={tmp_path}"]) == 2
    doc = strict_json(tmp_path / "laplace.json")
    assert doc["summary"]["ratio_log_max_over_min"] is None
    assert assertion(doc, "ratio_log_max_over_min_le_2") == {
        "check": "ratio_log_max_over_min_le_2", "passed": False,
        "observed": None, "threshold": 2.0}


def test_emit_keeps_csv_and_nulls_json_non_finite_cells(tmp_path):
    record = cli.ResultRecord(
        config={"subcommand": "estimate"},
        tables={"main": (["a", "b", "c"],
                         [[math.inf, np.float64(np.nan), np.float64(0.5)]])},
        summary={"low": -math.inf, "count": np.int64(3)},
        checks=[{"check": "held", "passed": np.bool_(True),
                 "observed": np.float64(-math.inf), "threshold": 1.0}])
    cli.emit(record, str(tmp_path), "both")
    assert (tmp_path / "estimate.csv").read_bytes() == b"a,b,c\ninf,nan,0.5\n"
    doc = strict_json(tmp_path / "estimate.json")
    assert doc["tables"]["main"]["rows"] == [[None, None, 0.5]]
    assert doc["summary"] == {"low": None, "count": 3}
    assert doc["assertions"] == [{"check": "held", "passed": True,
                                  "observed": None, "threshold": 1.0}]


@pytest.mark.parametrize("argv", [
    ["estimate", "set=basis:n=4"], ["bounds", "set=basis:n=4"],
    ["sk", "N_list=4"], ["sudakov", "set=basis:n=4"]],
    ids=lambda argv: argv[0])
def test_too_few_replicates_is_refused_before_any_work(argv, tmp_path,
                                                       monkeypatch, capsys):
    # sudakov on a small set enumerates the Rademacher signs, so without
    # this refusal it would run with the value unread
    def run(config):
        raise AssertionError("ran with too few replicates")
    monkeypatch.setattr(cli, "run", run)
    few = f"replicates={MIN_REPLICATES // 2}"
    with pytest.raises(cli.ConfigError, match="replicates must be in"):
        cli.parse_config(argv + [few])
    out = tmp_path / "out"
    assert run_main(argv + [few, f"output_dir={out}"]) == 1
    assert "replicates must be in [100" in capsys.readouterr().err
    assert not out.exists()
    assert cli.parse_config(argv + ["replicates=100"]).replicates == 100
