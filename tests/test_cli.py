"""Command-line entry points, exit codes and emitted artifacts."""

import math
import os
import subprocess
import sys

import pytest

import srblab as sl
from srblab.reporting import format_real

CLI = [sys.executable, "-m", "srblab.cli"]


def run_cli(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


def write_cfg(tmp_path, **overrides):
    cfg = sl.ExperimentConfig(**overrides)
    path = str(tmp_path / "run.cfg")
    sl.save_config(cfg, path)
    return path


def test_help_lists_all_subcommands():
    out = run_cli("--help")
    assert out.returncode == 0
    for sub in ("entropy", "induce", "density", "tail", "sweep", "probe"):
        assert sub in out.stdout


def test_entropy_subcommand(tmp_path):
    path = write_cfg(tmp_path, family="doubling", out_dir=str(tmp_path / "out"),
                     bins=512, sample_size=8, n_iters=5000, smb_depth=16,
                     tau_max=12, seed=1)
    out = run_cli("entropy", "--config", path)
    assert out.returncode == 0, out.stderr
    assert os.path.exists(tmp_path / "out" / "entropy.csv")
    assert "h_abramov" in out.stdout
    # one line per route record, in the order of entropy.csv
    names = [line.split(" = ")[0].strip() for line in out.stdout.splitlines()[1:7]]
    assert names == ["h_lyapunov", "h_pesin", "h_induced", "h_abramov", "h_smb", "kac_mass"]


def test_entropy_on_circle_linear_degree_three_runs_every_route(tmp_path):
    # default settings: the tower is the whole circle, three full branches
    path = write_cfg(tmp_path, family="circle_linear", map_params={"d": 3},
                     out_dir=str(tmp_path / "out"), bins=256, sample_size=4,
                     n_iters=2000, smb_depth=16, seed=1)
    out = run_cli("entropy", "--config", path)
    assert out.returncode == 0, out.stderr
    _, header, rows = sl.read_csv(str(tmp_path / "out" / "entropy.csv"))
    col = header.index("estimate")
    estimates = {r[0]: float(r[col]) for r in rows}
    for method in ("lyapunov", "pesin", "induced", "abramov", "smb"):
        assert estimates[method] == pytest.approx(math.log(3.0), abs=1e-9)


def test_induce_subcommand(tmp_path):
    path = write_cfg(tmp_path, family="tent", map_params={"slope": 2.0},
                     out_dir=str(tmp_path / "out"), tau_max=10, seed=0)
    out = run_cli("induce", "--config", path)
    assert out.returncode == 0, out.stderr
    assert os.path.exists(tmp_path / "out" / "tower.csv")
    assert "cells" in out.stdout


def test_induce_names_the_cell_where_each_axiom_is_worst(tmp_path):
    path = write_cfg(tmp_path, family="quadratic", map_params={"a": 2.0}, induce_lo=0.0,
                     induce_hi=math.sqrt(2.0), out_dir=str(tmp_path / "out"), tau_max=8)
    out = run_cli("induce", "--config", path)
    assert out.returncode == 0, out.stderr
    F = sl.first_return_map(sl.make_map("quadratic", a=2.0),
                            sl.Interval(0.0, math.sqrt(2.0)), 8)
    ver = sl.verify_axioms(F)
    lines = {line.split(" = ")[0]: line for line in out.stdout.splitlines()}
    for name, cell in (("markov defect", ver.defect_cell), ("kappa", ver.kappa_cell),
                       ("distortion", ver.distortion_cell)):
        span = f"[{format_real(F.cells.lo[cell])}, {format_real(F.cells.hi[cell])})"
        assert lines[name].endswith(f"(ok) at cell {cell} {span}"), lines[name]


def test_density_subcommand(tmp_path):
    path = write_cfg(tmp_path, family="tent", map_params={"slope": 2.0},
                     out_dir=str(tmp_path / "out"), bins=128, tau_max=10, seed=0)
    out = run_cli("density", "--config", path)
    assert out.returncode == 0, out.stderr
    assert os.path.exists(tmp_path / "out" / "density.csv")


def test_density_subcommand_on_a_band_swapping_map(tmp_path):
    # the quadratic at the Misiurewicz parameter swaps two bands
    path = write_cfg(tmp_path, family="quadratic", map_params={"a": sl.misiurewicz_parameter()},
                     out_dir=str(tmp_path / "out"), bins=4096, seed=0)
    out = run_cli("density", "--config", path)
    assert out.returncode == 0, out.stderr
    assert os.path.exists(tmp_path / "out" / "density.csv")


def test_tail_subcommand(tmp_path):
    path = write_cfg(tmp_path, family="doubling", out_dir=str(tmp_path / "out"),
                     tail_lam=0.5, tail_n_max=20, tail_sample_size=100, seed=0)
    out = run_cli("tail", "--config", path)
    assert out.returncode == 0, out.stderr
    assert os.path.exists(tmp_path / "out" / "tail.csv")
    assert os.path.exists(tmp_path / "out" / "tail.svg")


def test_sweep_subcommand_is_deterministic_across_workers(tmp_path):
    path = write_cfg(tmp_path, family="tent", sweep_parameter="slope",
                     sweep_from=1.6, sweep_to=2.0, sweep_steps=3,
                     out_dir=str(tmp_path / "out"), seed=4, bins=128,
                     sample_size=4, n_iters=1000, smb_depth=4, tau_max=8)
    out1 = run_cli("sweep", "--config", path, "--workers", "1")
    assert out1.returncode == 0, out1.stderr
    csv1 = open(tmp_path / "out" / "sweep.csv", "rb").read()
    out2 = run_cli("sweep", "--config", path, "--workers", "2")
    assert out2.returncode == 0, out2.stderr
    csv2 = open(tmp_path / "out" / "sweep.csv", "rb").read()
    assert csv1 == csv2


def test_probe_subcommand(tmp_path):
    path = write_cfg(tmp_path, family="viana",
                     map_params={"alpha": 0.01, "d": 16},
                     out_dir=str(tmp_path / "out"), sample_size=64, seed=0)
    out = run_cli("probe", "--config", path)
    assert out.returncode == 0, out.stderr


def test_probe_prints_a_witness_for_each_ratio(tmp_path):
    path = write_cfg(tmp_path, family="viana", map_params={"alpha": 0.01, "d": 16},
                     out_dir=str(tmp_path / "out"), seed=0)
    out = run_cli("probe", "--config", path, "--points", "64")
    assert out.returncode == 0, out.stderr
    m = sl.make_map("viana", alpha=0.01, d=16)
    rep = sl.nondegeneracy_probe(m, 4.0, 1.0, m.sample_uniform(sl.stream(0, 23), 64))
    lines = out.stdout.splitlines()
    assert lines[1].endswith(f" at ({', '.join(map(format_real, rep.norm_witness))})")
    for line, (x, y) in zip(lines[2:4], (rep.lipschitz_inv_witness,
                                         rep.lipschitz_det_witness)):
        pair = " and ".join(f"({', '.join(map(format_real, p))})" for p in (x, y))
        assert line.endswith(f" at {pair}"), line
    # without a critical set the ratios are 0 and there is no witness
    tent = write_cfg(tmp_path, family="tent", out_dir=str(tmp_path / "out"))
    lines = run_cli("probe", "--config", tent).stdout.splitlines()
    assert all(line.endswith(" 0") and " at " not in line for line in lines[1:4])


def test_seed_flag_overrides_the_config(tmp_path):
    path = write_cfg(tmp_path, family="doubling", out_dir=str(tmp_path / "a"),
                     tail_lam=0.5, tail_n_max=20, tail_sample_size=100, seed=0)
    out = run_cli("tail", "--config", path, "--seed", "9",
                  "--out", str(tmp_path / "b"))
    assert out.returncode == 0, out.stderr
    text = open(tmp_path / "b" / "tail.csv").read()
    assert "seed = 9" in text


def test_out_flag_redirects_artifacts(tmp_path):
    path = write_cfg(tmp_path, family="tent", map_params={"slope": 2.0},
                     out_dir=str(tmp_path / "ignored"), bins=64, tau_max=8,
                     seed=0)
    out = run_cli("density", "--config", path, "--out", str(tmp_path / "redirect"))
    assert out.returncode == 0, out.stderr
    assert os.path.exists(tmp_path / "redirect" / "density.csv")
    assert not os.path.exists(tmp_path / "ignored")


def test_missing_config_exits_4(tmp_path):
    out = run_cli("entropy", "--config", str(tmp_path / "nope.cfg"))
    assert out.returncode == 4
    assert out.stderr != ""


def test_invalid_config_value_exits_2(tmp_path):
    path = write_cfg(tmp_path, family="tent", map_params={"slope": 2.0},
                     out_dir=str(tmp_path / "out"), bins=-5, tau_max=8, seed=0)
    out = run_cli("density", "--config", path)
    assert out.returncode == 2
    assert "bins" in out.stderr


@pytest.mark.parametrize("command", ["entropy", "tail"])
def test_negative_seed_exits_2(tmp_path, command):
    out = run_cli(command, "--seed", "-1", "--out", str(tmp_path / "out"))
    assert out.returncode == 2
    assert "config error" in out.stderr and "seed" in out.stderr
    assert not os.path.exists(tmp_path / "out")


def test_degenerate_induction_exits_3(tmp_path):
    path = write_cfg(tmp_path, family="tent", map_params={"slope": 1.5},
                     out_dir=str(tmp_path / "out"), induce_lo=0.45,
                     induce_hi=0.46, tau_max=1, seed=0)
    out = run_cli("induce", "--config", path)
    assert out.returncode == 3
    assert "cells" in out.stderr


@pytest.mark.parametrize("command,overrides,message", [
    ("entropy", {"family": "tent", "map_params": {"slop": 1.8}},
     "tent has no parameter 'slop'; its parameters: slope"),
    ("entropy", {"family": "tent", "map_params": {"slope": "abc"}}, "is not a number"),
    ("entropy", {"family": "nonsense"}, "unknown map family 'nonsense'"),
    ("entropy", {"family": "circle_linear", "map_params": {"d": 2.5}}, "integer d"),
    ("tail", {"family": "viana", "map_params": {"d": 2.5}, "tail_lam": 0.3}, "integer d"),
    ("sweep", {"family": "tent", "map_params": {"slope": 2.0}, "sweep_parameter": "slop",
               "sweep_from": 1.5, "sweep_to": 2.0, "sweep_steps": 2}, "no parameter 'slop'"),
    ("sweep", {"family": "viana", "sweep_parameter": "d", "sweep_from": 2.0,
               "sweep_to": 3.0, "sweep_steps": 3}, "viana needs an integer d, got 2.5"),
    ("entropy", {"family": "tent", "map_params": {"slope": 2.5}}, "tent needs slope in (1, 2]"),
    ("entropy", {"family": "tent", "map_params": {"slope": math.nan}}, "needs slope in (1, 2]"),
    ("entropy", {"family": "quadratic", "map_params": {"a": 2.5}}, "quadratic needs a in (1, 2]"),
    ("probe", {"family": "viana", "map_params": {"alpha": -0.1}}, "viana needs alpha >= 0"),
    ("entropy", {"family": "circle_linear", "map_params": {"d": 1}}, "needs integer d >= 2"),
    ("induce", {"family": "tent", "induce_lo": 0.0, "induce_hi": 5.0},
     "induce.lo and induce.hi must lie in the tent domain [0, 1]"),
    ("induce", {"family": "tent", "induce_lo": 0.0, "induce_hi": math.inf},
     "induce.hi must be finite"),
    ("sweep", {"family": "tent", "sweep_parameter": "slope", "sweep_from": 1.8,
               "sweep_to": 2.0, "sweep_steps": 2, "induce_lo": 0.0, "induce_hi": 5.0},
     "induce.lo and induce.hi must lie in the tent domain [0, 1]"),
])
def test_map_parameter_errors_exit_2_before_any_work(tmp_path, command, overrides, message):
    path = write_cfg(tmp_path, out_dir=str(tmp_path / "out"), seed=0, **overrides)
    out = run_cli(command, "--config", path)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error: ") and message in out.stderr
    assert "Traceback" not in out.stderr
    assert not os.path.exists(tmp_path / "out")


_SWEEP = {"family": "tent", "sweep_parameter": "slope", "sweep_from": 1.8, "sweep_to": 2.0,
          "sweep_steps": 2, "bins": 64, "sample_size": 4, "n_iters": 200, "smb_depth": 4,
          "tau_max": 8}
_PROBE = {"family": "viana", "map_params": {"alpha": 0.01, "d": 16}}


@pytest.mark.parametrize("command,flag,value", [
    ("sweep", "--workers", "0"), ("sweep", "--workers", "-3"), ("probe", "--workers", "0"),
    ("probe", "--points", "-5"), ("probe", "--points", "0"), ("probe", "--constant", "-1"),
    ("probe", "--constant", "nan"), ("probe", "--exponent", "nan"),
])
def test_bad_command_line_numbers_exit_2(tmp_path, command, flag, value):
    path = write_cfg(tmp_path, out_dir=str(tmp_path / "out"), seed=0,
                     **(_SWEEP if command == "sweep" else _PROBE))
    out = run_cli(command, "--config", path, flag, value)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith(f"config error: {flag} must be")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("keys", [
    pytest.param({"tail.lam": "nan"}, id="lam-nan"),
    pytest.param({"tail.lam": "-1"}, id="lam-negative"),
    pytest.param({"tail.lam": "0.5", "tail.eps": "-0.1"}, id="eps-negative"),
    pytest.param({"tail.lam": "0.5", "tail.eps": "nan"}, id="eps-nan"),
])
def test_nonpositive_tail_thresholds_exit_2(tmp_path, keys):
    path = tmp_path / "run.cfg"
    path.write_text("map.family = doubling\ntail.n_max = 20\ntail.sample_size = 100\n"
                    + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = run_cli("tail", "--config", str(path), "--out", str(tmp_path / "out"))
    assert out.returncode == 2, out.stderr
    assert out.stderr == f"config error: {list(keys)[-1]} must be positive\n"


@pytest.mark.parametrize("command,key,value", [
    ("sweep", "sweep.from", "nan"), ("sweep", "sweep.to", "inf"),
    ("induce", "induce.lo", "nan"), ("induce", "induce.hi", "inf"),
    ("tail", "tail.lam", "inf"), ("tail", "tail.eps", "inf"), ("tail", "tail.delta", "inf"),
])
def test_non_finite_config_numbers_exit_2(tmp_path, command, key, value):
    keys = {"sweep.parameter": "slope", "sweep.from": "1.8", "sweep.to": "2.0",
            "induce.lo": "0.0", "induce.hi": "0.5", "tail.lam": "0.5", key: value}
    path = tmp_path / "run.cfg"
    path.write_text("map.family = tent\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = run_cli(command, "--config", str(path), "--out", str(tmp_path / "out"))
    assert out.returncode == 2, out.stderr
    assert out.stderr == f"config error: {key} must be finite\n"
    assert not os.path.exists(tmp_path / "out")


_TAIL_CSV = ("# lam = 0.5\n# eps = 0.125\n# delta = 1e-06\n# n_max = 2\n# sample_size = 10\n"
             "n,frac_expansion,frac_recurrence,frac_union,censored_count\n")


@pytest.mark.parametrize("text,message", [
    pytest.param("", "has no header row", id="empty"),
    pytest.param(_TAIL_CSV, "has no data rows", id="header-only"),
    pytest.param(_TAIL_CSV.replace("# eps = 0.125\n", "") + "1,0.5,0,0.5,0\n",
                 "has no 'eps' comment key", id="no-eps"),
    pytest.param(_TAIL_CSV.replace("frac_union", "union") + "1,0.5,0,0.5,0\n",
                 "has no 'frac_union'", id="no-column"),
    pytest.param(_TAIL_CSV + "1,0.5,x,0.5,0\n", "could not convert string to float: 'x'",
                 id="not-a-number"),
    pytest.param(_TAIL_CSV + "1,0.5\n", "has a data row that lacks a number", id="short-row"),
])
def test_malformed_injected_tail_file_exits_2(tmp_path, text, message):
    planted = tmp_path / "tail.csv"
    planted.write_text(text)
    path = write_cfg(tmp_path, family="doubling", tail_inject=str(planted),
                     out_dir=str(tmp_path / "out"))
    out = run_cli("tail", "--config", path)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith(f"config error: {planted}") and message in out.stderr


def test_a_value_out_of_range_on_one_sweep_row_stays_a_row_error(tmp_path):
    path = write_cfg(tmp_path, family="tent", sweep_parameter="slope", sweep_from=2.0,
                     sweep_to=2.5, sweep_steps=2, out_dir=str(tmp_path / "out"), seed=0,
                     bins=64, sample_size=4, n_iters=200, smb_depth=4, tau_max=8)
    out = run_cli("sweep", "--config", path)
    assert out.returncode == 0, out.stderr
    assert "tent.slope: 2 rows, 1 failed" in out.stdout
    _, header, rows = sl.read_csv(str(tmp_path / "out" / "sweep.csv"))
    errors = [row[header.index("error")] for row in rows]
    assert errors[0] == "" and "slope in (1, 2]" in errors[1]
