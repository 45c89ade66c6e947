"""One depth of the quadratic tower scan, in a process of its own.

Usage: ``python3 perfbench/depth_scan.py SPEC_JSON`` with ``src``,
``tau_max``, ``bins`` and ``result`` in the spec.  Builds the tower of
``2 - x^2`` over ``[0, sqrt 2)``, verifies it, assembles its Ulam matrix,
solves for the stationary density and integrates the induced entropy
(only on a verified tower), recording each stage's time and the peak
resident set size after it.  A stage that raises ends the scan at that
depth; its exception is recorded.
"""

import json
import math
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.abspath(spec["src"]))
    from srblab import (Interval, SrbLabError, entropy_induced, first_return_map,
                        make_map, stationary_density, ulam_matrix, verify_axioms)

    out = {"tau_max": spec["tau_max"], "bins": spec["bins"], "stages": []}
    m = make_map("quadratic")
    state = {}
    stages = (
        ("towers.first_return_map",
         lambda: first_return_map(m, Interval(0.0, math.sqrt(2.0)), spec["tau_max"])),
        ("towers.verify_axioms", lambda: verify_axioms(state["towers.first_return_map"])),
        ("measures.ulam_matrix",
         lambda: ulam_matrix(state["towers.first_return_map"], spec["bins"])),
        ("measures.stationary_density",
         lambda: stationary_density(state["measures.ulam_matrix"])),
        ("entropy.entropy_induced",
         lambda: entropy_induced(state["towers.first_return_map"],
                                 state["measures.stationary_density"])),
    )
    for name, call in stages:
        t0 = time.perf_counter()
        try:
            state[name] = call()
            error = None
        except SrbLabError as exc:
            error = f"{type(exc).__name__}: {exc}"
        out["stages"].append({
            "stage": name, "self_s": time.perf_counter() - t0,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error": error})
        if error:
            break
    tower = state.get("towers.first_return_map")
    report = state.get("towers.verify_axioms")
    if tower is not None:
        out["cells"] = len(tower.cells)
        out["deficit"] = tower.deficit
    if report is not None:
        out["verified"] = report.all_ok
        out["markov_defect"] = report.markov_defect
    if "measures.ulam_matrix" in state:
        out["nnz"] = state["measures.ulam_matrix"].matrix.nnz
    if "entropy.entropy_induced" in state:
        out["h_induced"] = state["entropy.entropy_induced"]
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
