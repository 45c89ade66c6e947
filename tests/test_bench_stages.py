"""The benchmark tracer wraps srblab stages by name; every name must resolve."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _stages():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.STAGES


@pytest.mark.parametrize("module,function", _stages())
def test_traced_stage_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"srblab.{module}"), function, None))


def test_traced_benchmark_run_reads_its_counters(tmp_path):
    # one traced CLI run through the benchmark's child process: the tracer
    # reads srblab's results (here the tower's cell count), so an API change
    # that breaks those reads fails here and not only in the benchmark
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    config = tmp_path / "tent.cfg"
    config.write_text("map.family = tent\nmap.slope = 2.0\nulam.bins = 256\n"
                      "induce.tau_max = 12\norbit.sample_size = 4\norbit.n_iters = 200\n")
    result = tmp_path / "result.json"
    spec = {"src": os.path.join(root, "src"), "config": str(config), "result": str(result),
            "trace": True, "argv": ["entropy", "--config", str(config), "--seed", "1",
                                    "--out", str(tmp_path / "out"), "--workers", "1"]}
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "child.py"),
                           json.dumps(spec)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(result.read_text())
    assert run["rc"] == 0
    assert run["trace"]["counters"]["towers.cells"] == 12
