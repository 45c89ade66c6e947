"""Workload definitions, output parsing and output checks.

A workload is a config file plus the ``srblab`` subcommands run on it.
The benchmark seed reaches srblab only through ``--seed``.  Everything
here reads the emitted CSVs; nothing imports srblab, so the parent
process stays independent of the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field

LOG2 = math.log(2.0)

# Cylinder maps have no closed-form entropy.  This reference is the
# Lyapunov route of viana(alpha=0.01, d=16) at 64 orbits x 1e6 steps,
# seed 20041 (standard error 1.4e-5), computed once at the seed commit.
# Its own error is far below the 3e-2 Pesin bias the metric tracks.
VIANA_REFERENCE = 3.1147544558487654

# Estimates compared against the closed form and against each other.
# SMB is left out of the route gap: its single-orbit scatter (5e-2 on
# the doubling map) would hide the other routes.
GAP_ROUTES = ("abramov", "pesin", "lyapunov")


@dataclass(frozen=True)
class Check:
    """One output check; each counts as an attempted operation."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Trust:
    """Route outcomes read from one iteration's CSVs."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)   # |h - h_exact|
    gaps: list = field(default_factory=list)     # |h_a - h_b|

    def add_routes(self, estimates: dict, failed: dict, exact: float | None) -> None:
        """Record one report: ``estimates`` maps route -> value or None,
        ``failed`` maps each attempted route -> whether it failed."""
        self.attempted += len(failed)
        self.failed += sum(1 for bad in failed.values() if bad)
        values = {r: estimates.get(r) for r in GAP_ROUTES if estimates.get(r) is not None}
        if exact is not None:
            self.errors += [abs(v - exact) for v in values.values()]
        names = sorted(values)
        self.gaps += [abs(values[a] - values[b])
                      for i, a in enumerate(names) for b in names[i + 1:]]


def read_csv(path: str) -> tuple[dict, list[dict]]:
    """Comment lines as ``{key: value}`` and data rows as dicts."""
    comments, body = {}, []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                text = line[1:].strip()
                sep = ":" if text.startswith("fit.") else "="
                key, _, value = text.partition(sep)
                comments[key.strip()] = value.strip()
            else:
                body.append(line)
    reader = csv.DictReader(body)
    return comments, list(reader)


def _num(text: str | None) -> float | None:
    return float(text) if text else None


def sweep_trust(path: str, tower: bool, exact) -> Trust:
    """Routes of a sweep.csv: Lyapunov, Pesin and, for 1D maps, the tower
    route (failed if either ``h_induced`` or ``h_abramov`` is empty or the
    row carries an ``error``)."""
    trust = Trust()
    for row in read_csv(path)[1]:
        est = {"lyapunov": _num(row["h_lyapunov"]), "pesin": _num(row["h_pesin"]),
               "induced": _num(row["h_induced"]), "abramov": _num(row["h_abramov"])}
        broken = bool(row["error"])
        failed = {"lyapunov": broken or est["lyapunov"] is None,
                  "pesin": broken or est["pesin"] is None}
        if tower:
            failed["tower"] = broken or est["induced"] is None or est["abramov"] is None
        trust.add_routes(est, failed, exact(float(row["parameter"])))
    return trust


def entropy_trust(path: str, tower: bool, exact) -> Trust:
    """Routes of an entropy.csv: Lyapunov, Pesin and, for 1D maps, the
    tower route (induced and Abramov).  A route fails if its estimate is
    empty or an ``error.*`` comment names it.

    SMB is not counted: on the 987-cell quadratic tower (deficit 0.037)
    all eight of its draws are censored for about half of all seeds, so
    it would turn a route count into a coin flip.  Its failures are
    reported per layer as ``entropy.route_errors.h_smb``."""
    comments, rows = read_csv(path)
    est = {r["method"]: _num(r["estimate"]) for r in rows}
    errors = {k[len("error."):] for k in comments if k.startswith("error.")}
    failed = {"lyapunov": est["lyapunov"] is None or "h_lyapunov" in errors,
              "pesin": est["pesin"] is None or "h_pesin" in errors}
    if tower:
        failed["tower"] = (est["induced"] is None or est["abramov"] is None
                           or "h_induced" in errors)
    trust = Trust()
    trust.add_routes(est, failed, exact(None))
    return trust


def tail_fits(path: str) -> dict:
    """``{model: gamma}`` from a tail.csv (None where the fit failed)."""
    fits = {}
    for key, value in read_csv(path)[0].items():
        if key.startswith("fit."):
            parts = dict(p.strip().split(" = ") for p in value.split(",") if " = " in p)
            fits[key[len("fit."):]] = _num(parts.get("gamma"))
    return fits


def csv_digests(outdir: str) -> dict:
    """sha256 of every CSV an iteration emitted."""
    digests = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            with open(os.path.join(outdir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


# ---------------------------------------------------------------------------
# checks


def _check_sweep_rows(outdir: str, exact, tol: float | None) -> list[Check]:
    rows = read_csv(os.path.join(outdir, "sweep.csv"))[1]
    errors = [r["error"] for r in rows if r["error"]]
    checks = [Check("no row errors", not errors, "; ".join(errors))]
    if tol is not None:
        worst = max(abs(float(r["h_pesin"]) - exact(float(r["parameter"])))
                    if r["h_pesin"] else math.inf for r in rows)
        checks.append(Check(f"|h_pesin - log s| <= {tol:g}", worst <= tol,
                            f"max {worst:.3e}"))
    return checks


def check_tent(outdir: str, exact) -> list[Check]:
    """Acceptance 8: no row errors and |h_pesin - log s| <= 1e-3."""
    return _check_sweep_rows(outdir, exact, 1e-3)


def check_circle(outdir: str, exact) -> list[Check]:
    """Acceptance 8: the fine circle sweep has no row errors."""
    return _check_sweep_rows(outdir, exact, None)


def check_quadratic(outdir: str, exact) -> list[Check]:
    """Acceptance 3: both ambient routes within 0.02 of log 2."""
    est = {r["method"]: _num(r["estimate"])
           for r in read_csv(os.path.join(outdir, "entropy.csv"))[1]}
    href = exact(None)
    checks = []
    for route in ("lyapunov", "pesin"):
        h = est[route]
        err = abs(h - href) if h is not None else math.inf
        checks.append(Check(f"|h_{route} - log 2| <= 0.02", err <= 0.02, f"{err:.3e}"))
    return checks


def check_cylinder(outdir: str, exact) -> list[Check]:
    """The tail fits of the cylinder family give finite exponents."""
    fits = tail_fits(os.path.join(outdir, "tail.csv"))
    ok = len(fits) == 2 and all(g is not None and math.isfinite(g) for g in fits.values())
    return [Check("finite tail exponents", ok, repr(fits))]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    commands: tuple
    tower: bool
    exact: object        # row parameter (None for entropy.csv) -> h_exact or None
    check: object        # (outdir, exact) -> list[Check]

    def config_text(self, overrides: dict | None = None) -> str:
        merged = dict(self.config, **(overrides or {}))
        return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                       for k, v in merged.items())

    def trust(self, outdir: str, exact) -> Trust:
        if "sweep" in self.commands:
            return sweep_trust(os.path.join(outdir, "sweep.csv"), self.tower, exact)
        return entropy_trust(os.path.join(outdir, "entropy.csv"), self.tower, exact)


_ACCEPTANCE8 = {"ulam.bins": 1024, "orbit.sample_size": 16, "orbit.n_iters": 20000,
                "induce.tau_max": 20}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="tent_sweep",
        why=("affine towers and fast-mixing operators: about 95% orbit driver, "
             "so tower and solver changes should not move it"),
        config={"map.family": "tent", "map.slope": 2.0, "sweep.parameter": "slope",
                "sweep.from": 1.5, "sweep.to": 2.0, "sweep.steps": 11, **_ACCEPTANCE8},
        commands=("sweep",), tower=True,
        exact=math.log, check=check_tent),
    Workload(
        name="circle_sweep",
        why=("the only heavy stationary-solve load; 8 of 9 towers fail "
             "verification, so it carries the route failures"),
        config={"map.family": "circle_perturbed", "map.t": 0.0, "sweep.parameter": "t",
                "sweep.from": 0.0, "sweep.to": 0.4, "sweep.steps": 9, **_ACCEPTANCE8},
        commands=("sweep",), tower=True,
        exact=lambda t: LOG2 if t == 0.0 else None, check=check_circle),
    Workload(
        name="quadratic_tower",
        why=("non-affine 987-cell tower: per-cell loops in Ulam assembly, "
             "verification and the induced integral; the memory case"),
        config={"map.family": "quadratic", "induce.lo": 0.0,
                "induce.hi": math.sqrt(2.0), "induce.tau_max": 16, "ulam.bins": 4096,
                "orbit.sample_size": 64, "orbit.n_iters": 100000},
        commands=("entropy",), tower=True,
        exact=lambda _: LOG2, check=check_quadratic),
    Workload(
        name="cylinder",
        why=("the only path through the 2D Ulam, Pesin and Lyapunov code and "
             "through orbits.tail_profile"),
        config={"map.family": "viana", "map.alpha": 0.01, "map.d": 16,
                "tail.lam": 0.3, "tail.eps": 0.075, "tail.delta": 1e-6,
                "tail.n_max": 200, "tail.sample_size": 10000},
        commands=("entropy", "tail"), tower=False,
        exact=lambda _: VIANA_REFERENCE, check=check_cylinder),
)}
