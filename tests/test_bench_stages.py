"""The benchmark tracer wraps srblab stages by name; every name must resolve."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import srblab as sl

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("module,function", _tracer().STAGES)
def test_traced_stage_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"srblab.{module}"), function, None))


def test_traced_benchmark_run_reads_its_counters(tmp_path):
    # traced CLI runs through the benchmark's child process: the tracer
    # reads srblab's results (the tower's cell count, the entropy report's
    # tau_cap and errors, the tail profile's params, the sweep rows), so an
    # API change that breaks those reads fails here and not only in the
    # benchmark
    counters = _traced_run(tmp_path, "entropy",
                           "map.family = tent\nmap.slope = 2.0\nulam.bins = 256\n"
                           "induce.tau_max = 12\norbit.sample_size = 4\n"
                           "orbit.n_iters = 200\n")
    assert counters["towers.cells"] == 12
    # the tracer reads the report's tau_cap and errors keys
    assert counters["entropy.reports_with_tower"] == 1
    assert not [key for key in counters if key.startswith("entropy.route_errors.")]
    # a cylinder tail run: the tracer reads sample_size x n_max off the params
    counters = _traced_run(tmp_path, "tail",
                           "map.family = viana\nmap.alpha = 0.01\nmap.d = 16\n"
                           "tail.lam = 0.3\ntail.eps = 0.075\ntail.delta = 1e-06\n"
                           "tail.n_max = 20\ntail.sample_size = 200\n")
    assert counters["orbits.tail_profile.point_steps"] == 4000
    # a sweep run: the tracer observes every _sweep_row result
    counters = _traced_run(tmp_path, "sweep",
                           "map.family = tent\nsweep.parameter = slope\n"
                           "sweep.from = 1.8\nsweep.to = 2.0\nsweep.steps = 2\n"
                           "ulam.bins = 256\ninduce.tau_max = 8\norbit.sample_size = 4\n"
                           "orbit.n_iters = 200\n")
    assert counters["towers.cells"] > 0


def _traced_run(tmp_path, command, config_text):
    """Counters of one traced ``srblab <command>`` run through perfbench/child.py."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    config = tmp_path / f"{command}.cfg"
    config.write_text(config_text)
    result = tmp_path / f"{command}.json"
    spec = {"src": os.path.join(root, "src"), "config": str(config), "result": str(result),
            "trace": True, "argv": [command, "--config", str(config), "--seed", "1",
                                    "--out", str(tmp_path / command), "--workers", "1"]}
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "child.py"),
                           json.dumps(spec)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(result.read_text())
    assert run["rc"] == 0
    return run["trace"]["counters"]


def test_report_errors_are_keyed_as_the_tracer_reads_them():
    # the benchmark reports entropy.route_errors.<key> for each of the
    # tracer's ROUTE_KEYS: a report in which every route fails must use
    # exactly those keys, each the name of its route's record
    m = sl.make_map("tent", slope=2.0)
    F = sl.first_return_map(m, sl.Interval(0.0, 0.5), 8)
    rep = sl.entropy_report(m, F, bins=0, smb_depth=0, lyapunov="not run")
    assert sorted(rep.errors) == sorted(_tracer().ROUTE_KEYS)
    assert all(rep.routes[key[len("h_"):]].name == key for key in rep.errors)
    assert rep.tau_cap == 8
