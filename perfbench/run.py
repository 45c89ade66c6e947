"""srblab benchmark: four CLI workloads, time/memory/trust metrics and an
outside-in per-layer trace.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tent_sweep --seed 1 --seconds 15 --trace 0

Each workload run calls ``srblab.cli.main`` in a fresh process
(``perfbench/child.py``) with ``--seed`` set to the benchmark seed and
``--workers 1``, BLAS/OpenMP threads pinned to 1.  The load is a closed
loop with one client: iterations run one after another until
``--seconds`` have passed, and at least three times.  Every iteration
must emit the same CSVs.

End-to-end metrics (``--trace 0``), all from untraced processes:

``run_s``            median over iterations of the wall time from
                     ``cli.main`` entry to return (summed over the
                     workload's CLI calls)
``setup_s``          median over every process started of the time from
                     process start until ``import srblab`` is done and the
                     config is loaded
``peak_rss_mb``      median over iterations of the peak RSS of a run process
``route_ok_frac``    entropy routes that produced a value, over routes
                     attempted, read from the CSVs (``workloads.py`` says
                     which routes count)
``entropy_err_max``  largest ``|h - h_exact|`` over the Lyapunov, Pesin and
                     Abramov routes on rows with a closed form (a pinned
                     reference on ``cylinder``, see ``workloads.py``)

``--trace 1`` runs the same untraced iterations and then one traced
iteration whose stage spans give the per-layer metrics
(``per_layer_spec``); on ``quadratic_tower`` it adds a tower depth scan
(``tau_max`` 12, 16, 20) that is reported but not gated.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Attempted operations are the
output checks: every process's exit code, the workload's reference checks
and the byte-identity of the CSVs; a failed check is a failed operation.
Run ``python3 perfbench/selftest.py`` to test the harness itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from tracer import DRIVER_STAGES, ROUTE_KEYS, STAGES
from workloads import WORKLOADS, Check, csv_digests

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 5
MIN_ITERATIONS = 3
RUN_BUDGET_S = 170  # every process of a run ends within this, so the run within 180 s
DEPTH_SCAN = ((12, 16, 20), 4096)  # (tau_max values, bins)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("route_ok_frac", "ratio", "higher"),
    ("entropy_err_max", "nats", "lower"),
)

REPORTED_STAGES = tuple(f"{m}.{f}" for m, f in STAGES if f != "_sweep_row")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    spec = []
    for stage in REPORTED_STAGES:
        spec += [(f"{stage}.self_s", "s", "lower"), (f"{stage}.calls", "count", "lower")]
    spec += [
        ("entropy.orbit_steps", "count", "lower"),
        ("entropy.orbit_steps_per_s", "1/s", "higher"),
        ("measures.stationary_density.max_call_s", "s", "lower"),
        ("measures.stationary_density.discarded", "count", "lower"),
        ("measures.ulam_matrix.nnz", "count", "lower"),
        ("measures.ulam_matrix.bytes", "B", "lower"),
        ("measures.ulam_matrix.rss_mb", "MB", "lower"),
        ("towers.cells", "count", "lower"),
        ("towers.verify_failed", "count", "lower"),
        ("towers.markov_defect_max", "ratio", "lower"),
    ]
    spec += [(f"entropy.route_errors.{k}", "count", "lower") for k in ROUTE_KEYS]
    spec += [
        ("entropy.entropy_smb.attempts_per_report", "ratio", "lower"),
        ("measures.one_step_ulam.nnz", "count", "lower"),
        ("orbits.tail_profile.point_steps", "count", "lower"),
        ("reporting.bytes_written", "B", "lower"),
        ("route_fail_frac", "ratio", "lower"),
        ("route_gap_max", "nats", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return spec


@dataclass
class Iteration:
    """One pass over a workload's CLI calls."""

    run_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    trust: object = None
    traces: list = field(default_factory=list)


class Runner:
    """Runs one workload's processes inside ``workdir``."""

    def __init__(self, workload, seed: int, workdir: str, exact=None, overrides=None):
        self.wl = workload
        self.seed = seed
        self.workdir = workdir
        self.exact = exact or workload.exact
        self.config = os.path.join(workdir, "workload.cfg")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(overrides))
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self._count = 0

    def spawn(self, script: str, spec: dict) -> dict:
        """Run one child process to completion and return its result."""
        self._count += 1
        result_path = os.path.join(self.workdir, f"proc{self._count}.json")
        spec = dict(spec, src=os.path.join(ROOT, "src"), result=result_path)
        log_path = os.path.join(self.workdir, f"proc{self._count}.log")
        with open(log_path, "w", encoding="utf-8") as log:
            t0 = time.monotonic()
            if t0 >= self.deadline:
                return {"rc": "not started: run budget spent", "log": log_path}
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, script), json.dumps(spec)],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
                    timeout=self.deadline - t0, check=False)
            except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
                return {"rc": "timeout", "log": log_path}
        if proc.returncode != 0 or not os.path.exists(result_path):
            return {"rc": proc.returncode, "log": log_path}
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        if "setup_end" in result:
            result["setup_s"] = result["setup_end"] - t0
        result["log"] = log_path
        return result

    def setup_probe(self) -> float | None:
        return self.spawn("child.py", {"config": self.config}).get("setup_s")

    def iteration(self, tag: str, trace: bool = False) -> Iteration:
        outdir = os.path.join(self.workdir, tag)
        os.makedirs(outdir)
        it = Iteration()
        for command in self.wl.commands:
            argv = [command, "--config", self.config, "--seed", str(self.seed),
                    "--out", outdir, "--workers", "1"]
            res = self.spawn("child.py", {"config": self.config, "argv": argv,
                                          "trace": trace})
            ok = res.get("rc") == 0
            it.checks.append(Check(f"srblab {command} exits 0", ok,
                                   "" if ok else f"rc {res.get('rc')}, see {res['log']}"))
            if not ok:
                return it
            it.run_s += res["run_s"]
            it.peak_rss_mb = max(it.peak_rss_mb, res["peak_rss_mb"])
            it.setup_s.append(res["setup_s"])
            if trace:
                it.traces.append(res["trace"])
        try:
            it.checks += self.wl.check(outdir, self.exact)
            it.trust = self.wl.trust(outdir, self.exact)
            it.digests = csv_digests(outdir)
        except (OSError, KeyError, ValueError) as exc:
            it.checks.append(Check("outputs readable", False, f"{type(exc).__name__}: {exc}"))
        return it

    def depth_scan(self, depths, bins: int) -> list[dict]:
        rows = []
        for tau in depths:
            res = self.spawn("depth_scan.py", {"tau_max": tau, "bins": bins})
            rows.append(res if "stages" in res else {"tau_max": tau, "error": res})
        return rows


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(iterations: list[Iteration], setups: list[float]) -> dict:
    trust = iterations[0].trust
    return {
        "run_s": _median([it.run_s for it in iterations]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([it.peak_rss_mb for it in iterations]),
        "route_ok_frac": 1.0 - trust.failed / trust.attempted,
        "entropy_err_max": max(trust.errors, default=0.0),
    }


def per_layer_metrics(traced: Iteration, untraced_run_s: float) -> dict:
    stages, counters = {}, {}
    for trace in traced.traces:
        for name, row in trace["stages"].items():
            acc = stages.setdefault(name, {"self_s": 0.0, "calls": 0, "max_call_s": 0.0})
            acc["self_s"] += row["self_s"]
            acc["calls"] += row["calls"]
            acc["max_call_s"] = max(acc["max_call_s"], row["max_call_s"])
        for key, value in trace["counters"].items():  # one trace per CLI process
            peak = key.endswith("_max") or key.endswith("rss_mb")
            counters[key] = max(counters.get(key, value), value) if peak \
                else counters.get(key, 0.0) + value

    def stage(name, key):
        return stages.get(name, {}).get(key, 0.0)

    metrics = {}
    for name in REPORTED_STAGES:
        metrics[f"{name}.self_s"] = stage(name, "self_s")
        metrics[f"{name}.calls"] = stage(name, "calls")
    steps = counters.get("entropy.orbit_steps", 0.0)
    lyap_s = stage("entropy.entropy_lyapunov_fast", "self_s")
    reports = counters.get("entropy.reports_with_tower", 0.0)
    inside = sum(row["self_s"] for name, row in stages.items() if name not in DRIVER_STAGES)
    metrics.update({
        "entropy.orbit_steps": steps,
        "entropy.orbit_steps_per_s": steps / lyap_s if lyap_s > 0 else 0.0,
        "measures.stationary_density.max_call_s": stage("measures.stationary_density",
                                                        "max_call_s"),
        "entropy.entropy_smb.attempts_per_report":
            stage("entropy.entropy_smb", "calls") / reports if reports else 0.0,
        "route_fail_frac": traced.trust.failed / traced.trust.attempted,
        "route_gap_max": max(traced.trust.gaps, default=0.0),
        "trace.coverage": inside / traced.run_s,
        "trace.overhead": traced.run_s / untraced_run_s - 1.0,
    })
    for name, _, _ in per_layer_spec():
        metrics.setdefault(name, counters.get(name, 0.0))
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
        exact=None, overrides=None, scan=DEPTH_SCAN, log=print):
    """Run one workload; returns the result object printed last and the
    list of checks behind its ``attempted`` and ``failed`` counts."""
    wl = WORKLOADS[workload]
    runner = Runner(wl, seed, workdir, exact, overrides)
    runner.setup_probe()  # fills the bytecode cache; not counted
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    checks = [Check("set-up probe exits 0", s is not None) for s in setups]
    iterations = []
    start = time.monotonic()
    while len(iterations) < MIN_ITERATIONS or time.monotonic() - start < seconds:
        iterations.append(runner.iteration(f"it{len(iterations)}"))
        checks += iterations[-1].checks
        if iterations[-1].trust is None:
            break
    first = iterations[0] if iterations[-1].trust is not None else None
    if first is not None:
        same = all(it.digests == first.digests for it in iterations)
        checks.append(Check("byte-identical CSVs across iterations", same))
        for name, digest in first.digests.items():
            log(f"sha256 {name} {digest}")
    metrics = {}
    if trace and first is not None:
        traced = runner.iteration("traced", trace=True)
        checks += traced.checks
        if traced.trust is not None:
            checks.append(Check("byte-identical CSVs with the tracer",
                                traced.digests == first.digests))
            metrics = per_layer_metrics(traced, _median([it.run_s for it in iterations]))
            with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
                json.dump(traced.traces, fh)
        if workload == "quadratic_tower":
            rows = runner.depth_scan(*scan)
            with open(os.path.join(workdir, "depth_scan.json"), "w", encoding="utf-8") as fh:
                json.dump(rows, fh, indent=1)
            for row in rows:
                for st in row.get("stages", []):
                    log(f"depth_scan tau_max={row['tau_max']} cells={row.get('cells')} "
                        f"verified={row.get('verified')} "
                        f"markov_defect={row.get('markov_defect')} {st['stage']} "
                        f"self_s={st['self_s']:.4f} rss_mb={st['rss_mb']:.1f}"
                        + (f" error={st['error']}" if st["error"] else ""))
    elif first is not None:
        setups += [s for it in iterations for s in it.setup_s]
        metrics = end_to_end_metrics(iterations, [s for s in setups if s is not None])
    for c in checks:
        if not c.ok:
            log(f"check failed: {c.name} {c.detail}")
    failed = sum(1 for c in checks if not c.ok)
    if not metrics:  # a run without figures has failed even if no check says so
        failed = max(failed, 1)
    units = {n: u for n, u, _ in END_TO_END + tuple(per_layer_spec())}
    log(f"{workload}: {len(iterations)} iterations, seed {seed}, "
        f"{len(checks)} checks, {failed} failed")
    log("  iteration run_s: " + " ".join(f"{it.run_s:.3f}" for it in iterations))
    for name, value in metrics.items():
        log(f"  {name} = {value!r} {units[name]}")
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    return result, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "srblab", "__init__.py")):
        print(f"no srblab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
