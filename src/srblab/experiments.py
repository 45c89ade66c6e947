"""Experiment drivers: entropy reports, tail profiles, parameter sweeps.

These functions sit between the config layer and the numerics:  they
build the map and (for one-dimensional families) its first-return tower,
run the requested computation and emit CSV/SVG artifacts into the
config's output directory.  A sweep first runs the Lyapunov orbits of
all its rows together, in one call of the lockstep orbit driver; the
rest of each row is a pure function of ``(config, row index, row map,
Lyapunov result)``, so rows can run in a process pool and still produce
byte-identical artifacts for any worker count.  The successive-row
diagnostics are computed afterwards in row order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .entropy import EntropyReport, entropy_lyapunov_rows, entropy_report
from .errors import ArgumentError, ConfigError, MapParameterError, SrbLabError
from .maps import Interval, MapSystem, make_map
from .measures import (l1_distance, one_step_ulam, spread_measure, stationary_density,
                       ulam_matrix)
from .orbits import TailParams, TailProfile, fit_tail_decay, tail_profile
from .reporting import (emit_svg, read_csv, write_density_csv, write_entropy_csv,
                        write_sweep_csv, write_tail_csv, write_tower_csv)
from .rng import StreamKey
from .towers import (InducedMarkovMap, first_return_map, return_time_l1_distance,
                     verify_axioms)


def default_induction(m: MapSystem) -> Interval | None:
    """Family default for the induction interval (None for cylinder maps).

    Circle and tent families return to the left half of their domain; the
    quadratic family uses ``[0, sqrt(2))``, whose first-return branches
    keep their derivatives away from zero.  Linear circle maps of degree
    ``d >= 3`` induce on the whole circle instead (``d`` full branches with
    return time one): orbits that avoid ``[0, 1/2)`` branch like
    ``(d - 1)^k``, so no first-return tower over it stays small.
    """
    if m.dimension != 1:
        return None
    if m.family == "quadratic":
        return Interval(0.0, math.sqrt(2.0))
    if m.family == "circle_linear" and m.d >= 3:
        return m.domain
    return Interval(0.0, 0.5)


def build_system(config: ExperimentConfig) -> MapSystem:
    """Instantiate the configured map family; a parameter out of the
    family's range is a :class:`ConfigError`."""
    try:
        return make_map(config.family, **config.map_params)
    except ConfigError:
        raise
    except ArgumentError as err:
        raise ConfigError(str(err)) from None


def _induction_interval(m: MapSystem, config: ExperimentConfig) -> Interval:
    """The config's induction interval for a 1D map, or its default one.

    Raises
    ------
    ConfigError
        If the configured interval does not lie in the map's domain.
    """
    if config.induce_lo is None:
        return default_induction(m)
    delta = Interval(config.induce_lo, config.induce_hi)
    if not (m.domain.contains(delta.lo) and m.domain.contains(delta.hi)):
        raise ConfigError(f"induce.lo and induce.hi must lie in the {m.family} domain "
                          f"[{m.domain.lo:g}, {m.domain.hi:g}]")
    return delta


def build_tower(m: MapSystem, config: ExperimentConfig) -> InducedMarkovMap | None:
    """First-return tower per the config (None for cylinder maps)."""
    if m.dimension != 1:
        return None
    return first_return_map(m, _induction_interval(m, config), config.tau_max)


def _row_seed(seed: int, index: int) -> int:
    """Stable per-row seed, independent of worker scheduling."""
    return int(np.random.SeedSequence(entropy=int(seed), spawn_key=(
        StreamKey.SWEEP_ROW, int(index))).generate_state(1)[0])


def _report(m: MapSystem, F: InducedMarkovMap | None, config: ExperimentConfig, seed: int,
            lyapunov: tuple | str | None = None) -> EntropyReport:
    """:func:`~srblab.entropy.entropy_report` with the config's route settings."""
    return entropy_report(m, F, bins=config.bins, n_orbits=config.sample_size,
                          n_iters=config.n_iters, smb_depth=config.smb_depth, seed=seed,
                          ulam_max_iters=config.ulam_max_iters, lyapunov=lyapunov)


def run_entropy(config: ExperimentConfig) -> EntropyReport:
    """Build the system and tower, run all entropy routes, emit entropy.csv."""
    config.validate()
    m = build_system(config)
    rep = _report(m, build_tower(m, config), config, config.seed)
    os.makedirs(config.out_dir, exist_ok=True)
    write_entropy_csv(os.path.join(config.out_dir, "entropy.csv"), rep)
    return rep


def run_induce(config: ExperimentConfig):
    """Build and verify the tower, emit tower.csv; returns (tower, report)."""
    config.validate()
    m = build_system(config)
    F = build_tower(m, config)
    if F is None:
        raise ConfigError(f"family {config.family} has no interval tower")
    report = verify_axioms(F)
    os.makedirs(config.out_dir, exist_ok=True)
    write_tower_csv(os.path.join(config.out_dir, "tower.csv"), F)
    return F, report


def run_density(config: ExperimentConfig, target: str = "map"):
    """Compute a stationary (or spread) density and emit density.csv.

    ``target`` selects the operator: ``map`` (one-step Ulam), ``tower``
    (induced-map Ulam) or ``spread`` (tower density transported over the
    ambient space, unnormalised).
    """
    config.validate()
    if target not in ("map", "tower", "spread"):
        raise ConfigError(f"unknown density target {target!r}")
    m = build_system(config)
    if target == "map":
        op = one_step_ulam(m, config.bins)
        density = stationary_density(op, max_iters=config.ulam_max_iters)
    else:
        F = build_tower(m, config)
        if F is None:
            raise ConfigError(f"family {config.family} has no interval tower")
        mu_F = stationary_density(ulam_matrix(F, config.bins),
                                  max_iters=config.ulam_max_iters)
        density = mu_F if target == "tower" else spread_measure(m, F, mu_F, config.bins)
    os.makedirs(config.out_dir, exist_ok=True)
    write_density_csv(os.path.join(config.out_dir, "density.csv"), density)
    return density


# ---------------------------------------------------------------------------
# tails


@dataclass
class TailRun:
    """Outcome of a tail experiment: the profile, both decay fits and the
    model preferred by residual."""

    profile: TailProfile
    fits: dict
    preferred: str | None
    csv_path: str
    svg_path: str


def load_tail_csv(path: str) -> TailProfile:
    """Reconstruct a tail profile from an emitted tail.csv.

    Raises
    ------
    ConfigError
        Naming the file and what it lacks: a comment key or column, the
        data rows, or a number.
    """
    try:
        comments, header, rows = read_csv(path)
    except ArgumentError as err:
        raise ConfigError(str(err)) from None
    meta = {}
    for c in comments:
        if "=" in c and not c.startswith("fit."):
            k, v = (s.strip() for s in c.split("=", 1))
            meta[k] = v
    if not rows:
        raise ConfigError(f"{path} has no data rows")
    cols = {name: i for i, name in enumerate(header)}
    try:
        params = TailParams(
            lam=float(meta["lam"]), eps=float(meta["eps"]), delta=float(meta["delta"]),
            n_max=int(meta["n_max"]), sample_size=int(meta["sample_size"]))
        data = np.array([[float(r[cols[c]]) for c in
                          ("n", "frac_expansion", "frac_recurrence", "frac_union",
                           "censored_count")] for r in rows])
        seed = int(meta.get("seed", 0))
    except KeyError as err:
        raise ConfigError(f"{path} has no {err.args[0]!r} comment key or column") from None
    except IndexError:
        raise ConfigError(f"{path} has a data row that lacks a number") from None
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None
    return TailProfile(
        n=data[:, 0].astype(int), frac_expansion=data[:, 1],
        frac_recurrence=data[:, 2], frac_union=data[:, 3],
        sample_size=params.sample_size, censored_count=int(data[0, 4]),
        params=params, seed=seed)


def run_tail(config: ExperimentConfig) -> TailRun:
    """Profile the slow-orbit fractions and fit both decay models.

    With ``tail.inject`` set, the profile is loaded from an existing CSV
    instead of being sampled — handy for fitting planted decays.
    """
    config.validate()
    if config.tail_inject:
        profile = load_tail_csv(config.tail_inject)
    else:
        if config.tail_lam is None:
            raise ConfigError("tail.lam is required (no injected profile)")
        eps = config.tail_eps if config.tail_eps is not None else 0.25 * config.tail_lam
        params = TailParams(lam=config.tail_lam, eps=eps, delta=config.tail_delta,
                            n_max=config.tail_n_max, sample_size=config.tail_sample_size)
        m = build_system(config)
        profile = tail_profile(m, params, seed=config.seed)
    fits = {}
    for model in ("polynomial", "stretched_exp"):
        try:
            fits[model] = fit_tail_decay(profile, model=model)
        except SrbLabError as exc:
            fits[model] = str(exc)
    real = {k: v for k, v in fits.items() if not isinstance(v, str)}
    preferred = min(real, key=lambda k: real[k].residual) if real else None
    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, "tail.csv")
    svg_path = os.path.join(config.out_dir, "tail.svg")
    write_tail_csv(csv_path, profile, fits)
    emit_svg(svg_path, profile.n,
             {"union": profile.frac_union, "expansion": profile.frac_expansion,
              "recurrence": profile.frac_recurrence},
             xlabel="n", ylabel="slow-orbit fraction", title="tail profile")
    return TailRun(profile, fits, preferred, csv_path, svg_path)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepTable:
    """One row per swept parameter value, plus emission paths."""

    family: str
    parameter: str
    seed: int
    values: list
    rows: list
    csv_path: str = ""
    svg_path: str = ""


def _sweep_row(payload: tuple[ExperimentConfig, int, float, MapSystem, tuple | str]) -> dict:
    """Compute one sweep row from the config, the row's index, value and
    map, and its Lyapunov route's ``(mean, se)`` or error message."""
    cfg, index, value, m, lyapunov = payload
    row = {"index": index, "parameter": value, "error": None}
    try:
        F = build_tower(m, cfg)
        if F is not None:
            ver = verify_axioms(F)
            row["kappa"] = ver.kappa
            row["distortion"] = ver.distortion
            row["tower"] = F
        rep = _report(m, F, cfg, _row_seed(cfg.seed, index), lyapunov)
        for route in rep.routes.values():
            row[route.name] = route.estimate
        row["lyapunov_se"] = rep.routes["lyapunov"].std_error
        if rep.density is not None:
            row["density"] = rep.density
    except SrbLabError as exc:
        row = {"index": index, "parameter": value, "error": str(exc)}
    return row


def run_sweep(config: ExperimentConfig, workers: int = 1) -> SweepTable:
    """Sweep a map parameter and report every entropy route per value.

    The parent builds every row's map and runs the Lyapunov orbits of all
    rows together, in one call of the orbit driver
    (:func:`~srblab.entropy.entropy_lyapunov_rows`; each row keeps its
    ``_row_seed`` streams, so its result equals its own one-row run).  The
    rest of each row runs in a process pool when ``workers > 1``; results
    are assembled by row index and the successive-row L1 diagnostics
    (stationary density and return-time distances) are added afterwards,
    so the emitted ``sweep.csv`` is byte-identical for any worker count.
    Row-level failures, such as a value out of the family's range, become
    an ``error`` tag in that row; the sweep continues.  A parameter error
    of any row's map, or an induction interval outside any row's domain,
    is a ConfigError, raised before any row runs.
    """
    config.validate()
    if config.sweep_parameter is None:
        raise ConfigError("sweep.parameter is required for sweeps")
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    values = np.linspace(config.sweep_from, config.sweep_to, config.sweep_steps)
    results, built = [], []
    for i, v in enumerate(values):
        try:
            params = dict(config.map_params)
            params[config.sweep_parameter] = float(v)
            built.append((i, float(v), make_map(config.family, **params)))
        except MapParameterError:
            raise
        except SrbLabError as exc:
            results.append({"index": i, "parameter": float(v), "error": str(exc)})
    for _, _, m in built:
        if m.dimension == 1:
            _induction_interval(m, config)
    lyapunov = entropy_lyapunov_rows(
        [m for _, _, m in built], config.sample_size, config.n_iters,
        [_row_seed(config.seed, i) for i, _, _ in built])
    # errors go to the rows as messages: a pool pickles strings, not every error
    payloads = [(config, i, v, m, str(res) if isinstance(res, SrbLabError) else res)
                for (i, v, m), res in zip(built, lyapunov)]
    if workers == 1:
        results += [_sweep_row(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results += pool.map(_sweep_row, payloads)
    results.sort(key=lambda r: r["index"])

    prev = None
    for row in results:
        row["density_l1_prev"] = None
        row["tau_l1_prev"] = None
        if row["error"] is None:
            if prev is None:
                row["density_l1_prev"] = 0.0 if row.get("density") is not None else None
                row["tau_l1_prev"] = 0.0 if row.get("tower") is not None else None
            else:
                mu, mu_prev = row.get("density"), prev.get("density")
                if mu is not None and mu_prev is not None and mu.grid == mu_prev.grid:
                    row["density_l1_prev"] = l1_distance(mu, mu_prev)
                F, F_prev = row.get("tower"), prev.get("tower")
                if F is not None and F_prev is not None and F.delta == F_prev.delta:
                    row["tau_l1_prev"] = return_time_l1_distance(F_prev, F)
            prev = row

    table = SweepTable(config.family, config.sweep_parameter, config.seed,
                       [float(v) for v in values], results)
    os.makedirs(config.out_dir, exist_ok=True)
    table.csv_path = os.path.join(config.out_dir, "sweep.csv")
    table.svg_path = os.path.join(config.out_dir, "sweep.svg")
    write_sweep_csv(table.csv_path, table)
    series = {}
    for key in ("h_pesin", "h_abramov", "h_lyapunov"):
        ys = [r.get(key) if r.get(key) is not None else math.nan for r in results]
        arr = np.array(ys, dtype=float)
        if np.isfinite(arr).any():
            series[key] = arr
    if series:
        emit_svg(table.svg_path, values, series, xlabel=config.sweep_parameter,
                 ylabel="entropy estimate",
                 title=f"{config.family}: entropy vs {config.sweep_parameter}")
    return table
