"""Outside-in stage tracer for srblab.

The tracer wraps stage-level functions of the srblab modules from the
outside; srblab itself is not edited.  Each wrapped call records a span
(name, start, end, parent index, exception type) in memory.  Self time is
a span's duration minus the durations of its direct children, which never
overlap because srblab runs single-threaded with ``--workers 1``.

Per-cell helpers such as ``interval_measure`` or
``InducedMarkovMap.branch_*`` are deliberately not wrapped: they run
thousands of times per stage and the wrapper cost would swamp them.
``maps`` and ``rng`` run per point inside the stages and are covered by
the stage spans that call them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
import time

# (module, function) pairs wrapped by the tracer, grouped by layer.
STAGES = (
    ("cli", "main"),
    ("config", "load_config"),
    ("experiments", "run_entropy"),
    ("experiments", "run_sweep"),
    ("experiments", "run_tail"),
    ("experiments", "_sweep_row"),
    ("towers", "first_return_map"),
    ("towers", "verify_axioms"),
    ("towers", "kac_mass"),
    ("measures", "ulam_matrix"),
    ("measures", "one_step_ulam"),
    ("measures", "stationary_density"),
    ("measures", "spread_measure"),
    ("entropy", "entropy_report"),
    ("entropy", "entropy_lyapunov_fast"),
    ("entropy", "entropy_pesin"),
    ("entropy", "entropy_induced"),
    ("entropy", "entropy_smb"),
    ("entropy", "entropy_truncation_bound"),
    ("orbits", "tail_profile"),
    ("orbits", "fit_tail_decay"),
    ("reporting", "write_entropy_csv"),
    ("reporting", "write_sweep_csv"),
    ("reporting", "write_tail_csv"),
    ("reporting", "emit_svg"),
)

# Spans that belong to the driver (argument handling, config parsing,
# row bookkeeping) rather than to a numerical or output stage.
DRIVER_STAGES = frozenset({
    "cli.main", "experiments.run_entropy", "experiments.run_sweep",
    "experiments.run_tail", "experiments._sweep_row",
})

ROUTE_KEYS = ("h_lyapunov", "h_pesin", "h_induced", "h_smb")


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder with per-stage counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, error]
        self.counters = {}
        self._stack = []
        self._densities = {}  # id(density) -> [density, consumed]
        self._signatures = {}

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        self._signatures[name] = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                stack.pop()
                span[4] = type(exc).__name__
                self._observe(name, args, kwargs, None, exc)
                raise
            span[2] = time.perf_counter()
            stack.pop()
            self._observe(name, args, kwargs, result, None)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # counters observed at stage boundaries

    def _arg(self, name, args, kwargs, param):
        bound = self._signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[param]

    def _observe(self, name, args, kwargs, result, error) -> None:
        if name == "measures.stationary_density":
            if error is None:
                self._densities[id(result)] = [result, False]
            else:
                self.add("measures.stationary_density.discarded", 1)
            return
        if error is not None:
            return
        for a in list(args) + list(kwargs.values()):
            entry = self._densities.get(id(a))
            if entry is not None and entry[0] is a:
                entry[1] = True
        if name == "experiments._sweep_row":
            if "density" in result:
                # the sweep row keeps its one-step density as a plain list
                for entry in self._densities.values():
                    if entry[0].values.tolist() == result["density"]:
                        entry[1] = True
        elif name == "towers.first_return_map":
            self.add("towers.cells", len(result.cells))
        elif name == "towers.verify_axioms":
            self.add("towers.verify_failed", 0 if result.all_ok else 1)
            self.peak("towers.markov_defect_max", float(result.markov_defect))
        elif name == "measures.ulam_matrix":
            mat = result.matrix
            self.add("measures.ulam_matrix.nnz", mat.nnz)
            self.add("measures.ulam_matrix.bytes",
                     mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)
            self.peak("measures.ulam_matrix.rss_mb", peak_rss_mb())
        elif name == "measures.one_step_ulam":
            self.add("measures.one_step_ulam.nnz", result.matrix.nnz)
        elif name == "entropy.entropy_lyapunov_fast":
            self.add("entropy.orbit_steps",
                     self._arg(name, args, kwargs, "sample_size")
                     * self._arg(name, args, kwargs, "n"))
        elif name == "entropy.entropy_report":
            for key in result.errors:
                self.add(f"entropy.route_errors.{key}", 1)
            if result.tau_cap:
                self.add("entropy.reports_with_tower", 1)
        elif name == "orbits.tail_profile":
            params = self._arg(name, args, kwargs, "params")
            self.add("orbits.tail_profile.point_steps", params.sample_size * params.n_max)
        elif name.startswith("reporting."):
            path = self._arg(name, args, kwargs, "path")
            self.add("reporting.bytes_written", os.path.getsize(path))

    # ------------------------------------------------------------------
    # summaries

    def finish(self) -> None:
        """Count solves whose density no later stage consumed."""
        unused = sum(1 for _, consumed in self._densities.values() if not consumed)
        self.add("measures.stationary_density.discarded", unused)
        self._densities.clear()

    def stage_table(self) -> dict:
        """Per-stage ``{"self_s", "calls", "max_call_s"}``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        table = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"self_s": 0.0, "calls": 0, "max_call_s": 0.0})
            row["self_s"] += (end - start) - child[i]
            row["calls"] += 1
            row["max_call_s"] = max(row["max_call_s"], end - start)
        return table

    def dump(self) -> dict:
        self.finish()
        return {"spans": self.spans, "counters": self.counters,
                "stages": self.stage_table()}


def install(tracer: Tracer) -> None:
    """Wrap each stage and rebind it in every srblab module that binds it.

    A stage is reached through whichever namespace the caller imported it
    into (``entropy_report`` calls ``stationary_density`` through
    ``srblab.entropy``, ``_sweep_row`` through ``srblab.experiments``), so
    every binding of the original function object is replaced.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "srblab" or n.startswith("srblab."))]
    for module_name, func in STAGES:
        home = importlib.import_module(f"srblab.{module_name}")
        original = getattr(home, func)
        wrapper = tracer.wrap(f"{module_name}.{func}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
