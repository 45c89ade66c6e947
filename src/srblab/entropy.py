"""Entropy estimators and consistency checks.

Four independent routes to the metric entropy of an expanding map:

* ``entropy_lyapunov`` — sum of positive Lyapunov exponents averaged over
  random orbits (with Monte Carlo standard error); it is the one-row case
  of ``entropy_lyapunov_rows``, the one orbit driver, which advances the
  orbits of several maps of a family in lockstep (``entropy_lyapunov_fast``
  is a second name of the driver);
* ``entropy_pesin`` — quadrature of ``log |det Df|`` against a stationary
  density of the map itself;
* ``entropy_induced`` / ``entropy_abramov`` — quadrature of ``log |DF|``
  against a tower-stationary density, rescaled by the mean return time;
* ``entropy_smb`` — cylinder-counting along a single tower orbit.

The base-map orbit loops, ``entropy_lyapunov_rows`` and the base loop of
``lyapunov_quotient_check``, step in blocks: up to 256 steps of every
orbit go into one (steps, orbits) buffer, with one map call per step, and
the log-derivatives of the whole block take one call each.  The block is
summed row by row, so every orbit sum keeps its order and the numbers
match a per-step loop bit for bit.  A sweep runs all its rows through
one driver call: the map call of a step covers every row's orbits, with
the swept parameter as a per-orbit column, and each row's result equals
its one-row run bit for bit.  Tower orbits take one itinerary walk per
step, which yields the images and ``log |DF|`` together.

Quadrature points and bin slivers come from the stratification in
:mod:`srblab.measures`.  ``entropy_report`` runs all of them on one
system, solving each operator and integrating each density once, and
records their pairwise discrepancies; the three ``*_check`` functions
probe the identities that make the routes agree (orbit-exponent
quotient, Jacobian transfer under spreading, and the
linear-in-return-time Jacobian bound).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ArgumentError, CensoredOrbitError, ConstructionError,
                     NearCriticalError, SrbLabError, UnverifiedTowerError)
from .maps import NEAR_CRITICAL_FLOOR, MapSystem
from .measures import (_STRATA, Grid1D, GridDensity, bin_slivers, cylinder_row_points,
                       interval_measure, one_step_ulam, spread_measure,
                       stationary_density, stratified_points, ulam_matrix)
from .rng import dither, stream
from .towers import InducedMarkovMap, cell_samples, kac_breakdown, kac_mass, verify_axioms

#: Orbit steps an orbit loop buffers before it takes their log-derivatives.
_BLOCK_STEPS = 256
#: Cap on steps x orbits of one buffered block (512 KiB of float64).
_BLOCK_ELEMENTS = 1 << 16


def _block_steps(orbits: int) -> int:
    """Steps of one buffered block of ``orbits`` orbits: 256, fewer when
    steps x orbits would pass 2^16."""
    return max(1, min(_BLOCK_STEPS, _BLOCK_ELEMENTS // orbits))


def _orbit_block(step, x: np.ndarray, k: int) -> np.ndarray:
    """Rows ``x, step(x), ..., step^k(x)`` of the orbits ``x``, one call of
    ``step`` per row."""
    buf = np.empty((k + 1,) + x.shape)
    buf[0] = x
    for j in range(k):
        buf[j + 1] = step(buf[j])
    return buf


def _require_verified(F: InducedMarkovMap) -> None:
    if F.verification is None:
        raise UnverifiedTowerError(
            "tower has not been verified; run verify_axioms first")
    if not F.verification.all_ok:
        raise UnverifiedTowerError(
            "tower failed axiom verification; refusing to integrate against it")


# ---------------------------------------------------------------------------
# tower-side estimators


def entropy_induced(F: InducedMarkovMap, mu_F: GridDensity) -> float:
    """Integral of ``log |DF|`` against a stationary tower density.

    Affine towers contribute ``mu_F(cell) * log |slope|`` exactly; other
    towers are integrated with 16 stratified quadrature points per
    cell/bin sliver, in one walk.  Deficit mass is excluded (use
    :func:`entropy_truncation_bound` for the matching error bound).

    Raises
    ------
    UnverifiedTowerError
        If the tower was never verified or failed verification.
    """
    _require_verified(F)
    F.check_density(mu_F)
    if F.affine:
        terms = interval_measure(mu_F, F._los_arr, F._his_arr) * F._log_slope_arr
    else:
        owner, idx, a, b = bin_slivers(mu_F.grid, F._los_arr, F._his_arr)
        pts = stratified_points(a, b - a).ravel()
        logj = F.evaluate(np.repeat(owner, _STRATA), pts, jacobian=True)[1]
        terms = mu_F.values[idx] * (b - a) * logj.reshape(-1, _STRATA).mean(axis=1)
    total = 0.0
    for term in terms.tolist():
        total += term  # term by term: the sum keeps its order
    return total


def entropy_truncation_bound(F: InducedMarkovMap, mu_F: GridDensity,
                             C: float | None = None) -> float:
    """Scale of the entropy mass hidden in the tower deficit.

    Uses the linear majorant ``log |DF| <= C tau`` with the censoring time
    ``tau_max + 1`` standing in for the unknown return times, i.e.
    ``mu_F(deficit) * (tau_max + 1) * C``, whose first two factors are the
    censored part of :func:`~srblab.towers.kac_breakdown`.

    Raises
    ------
    ArgumentError
        If ``mu_F`` is not a unit-mass density on the tower's base interval.
    """
    _, censored = kac_breakdown(F, mu_F)
    if C is None:
        C = majorant_check(F).C
    return censored * abs(C)


def entropy_abramov(F: InducedMarkovMap, mu_F: GridDensity, mass: float) -> float:
    """Tower entropy rescaled by the mean return time.

    ``mass`` is the normalisation of the spread of ``mu_F`` over the
    ambient space — either ``spread.mass`` or :func:`~srblab.towers.kac_mass`,
    which agree.

    Raises
    ------
    ArgumentError
        If ``mass`` is not positive.
    """
    if not mass > 0:
        raise ArgumentError("spread mass must be positive")
    return entropy_induced(F, mu_F) / mass


def entropy_smb(F: InducedMarkovMap, x: float, n: int) -> float:
    """Cylinder estimator ``-(1/n) log m(P_n(x))`` along a tower orbit.

    ``P_n(x)`` is the set of points sharing the first ``n`` cell labels
    with ``x``; ``m`` is Lebesgue measure normalised to a probability on
    the base interval, and the cylinder mass is computed by pulling the
    base interval back through the visited branches.  Affine towers stay
    in log space
    throughout, so depth is limited only by orbit length; non-affine
    branches switch from interval endpoints to a derivative update once
    the cylinder is narrower than 1e-6 times the base interval.  The
    switch must happen well above float resolution, where the inverse
    branches stop resolving the endpoints: one more pullback can shrink
    the interval by the full branch slope, and colliding endpoints would
    zero out the tracked width.

    The orbit is iterated with a low-order bit refresh keyed on the bit
    pattern of ``x`` (see :func:`srblab.rng.dither`), so the itinerary is
    that of a generic real refinement of ``x`` rather than of the dyadic
    rational the float happens to be.  The result is still a pure
    function of ``(F, x, n)``.

    Raises
    ------
    CensoredOrbitError
        If the orbit falls into the tower deficit before step ``n``
        (carries the step index).
    """
    if n < 1:
        raise ArgumentError("cylinder depth n must be at least 1")
    drng = stream(int(np.float64(x).view(np.uint64)), 29)
    cells = []
    y = x
    for k in range(n):
        i = F.cell_index(y)
        if i is None:
            raise CensoredOrbitError(k)
        cells.append(i)
        y, _ = F.apply(y)
        y = dither(y, drng, F.delta.lo, F.delta.hi)
    if F.affine:
        return sum(math.log(abs(F.cells[i].slope)) for i in cells) / n

    def pull_back(ys, k):
        # row j: ``ys`` pulled back through cells k-1, ..., j, one cell at a time
        rows = np.empty((k,) + ys.shape)
        for j in range(k - 1, -1, -1):
            ys = rows[j] = F.invert(cells[j], ys)
        return rows

    ends = pull_back(np.array([F.delta.lo, F.delta.hi]), n)
    widths = ends.max(axis=1) - ends.min(axis=1)
    narrow = np.flatnonzero(widths < 1e-6 * F.delta.width)
    # past the switch point the cylinder is tracked by its midpoint and
    # the derivatives of the remaining branches there
    k = int(narrow[-1]) if narrow.size else 0
    width = float(widths[k])
    anchors = pull_back(np.array([0.5 * (ends[k, 0] + ends[k, 1])]), k)[:, 0]
    log_extra = 0.0  # log of the width shrinkage past the switch point
    _, logj, _ = F.evaluate(np.array(cells[:k], dtype=int), anchors, jacobian=True)
    for term in logj[::-1].tolist():
        log_extra -= term
    if not width > 0.0:
        raise ConstructionError("tracked cylinder collapsed below float resolution")
    log_mass = math.log(width) + log_extra - math.log(F.delta.width)
    return -log_mass / n


# ---------------------------------------------------------------------------
# ambient-side estimators


def _log_det_batch(m: MapSystem, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clipped ``log |det Df|`` at many points; returns (values, clipped mask)."""
    if m.dimension == 1:
        det = np.abs(m.df_batch(pts))
    else:
        det = np.abs(m.det_batch(pts))
    clipped = det < NEAR_CRITICAL_FLOOR
    return np.log(np.maximum(det, NEAR_CRITICAL_FLOOR)), clipped


def _bin_log_det(m: MapSystem, grid: Grid1D,
                 strata: int = _STRATA) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-bin stratified means of clipped ``log |Df|`` on a 1D grid.

    Returns the per-bin means, the per-bin fractions of clipped points and
    the largest sampled ``|log |Df||``.
    """
    pts = stratified_points(grid.edges[:-1], grid.widths, strata).ravel()
    logs, clipped = _log_det_batch(m, pts)
    return (logs.reshape(grid.n, strata).mean(axis=1),
            clipped.reshape(grid.n, strata).mean(axis=1), float(np.abs(logs).max()))


def entropy_pesin(m: MapSystem, mu_f: GridDensity,
                  return_clip: bool = False) -> float | tuple[float, float]:
    """Quadrature of ``log |det Df|`` against a unit-mass ambient density.

    Each bin contributes through 16 stratified points (a 4 x 4 grid on
    cylinder bins).  Near the critical set the integrand is clipped at
    the floor ``log(1e-15)``; pass ``return_clip=True`` to also get the
    total density mass whose integrand was clipped.
    """
    if abs(mu_f.mass - 1.0) > 1e-8:
        raise ArgumentError(f"ambient density must have unit mass, got {mu_f.mass!r}")
    grid = mu_f.grid
    if isinstance(grid, Grid1D):
        logs, clip_frac, _ = _bin_log_det(m, grid)
    else:
        te, xe = grid.theta_edges, grid.x_edges
        tw = te[1] - te[0]
        xw = xe[1] - xe[0]
        logs = np.empty(grid.n)
        clip_frac = np.empty(grid.n)
        flat = 0
        for it in range(grid.n_theta):
            lg, cl = _log_det_batch(m, cylinder_row_points(te[it], tw, xe[:-1], xw, 4))
            logs[flat:flat + grid.n_x] = lg.reshape(grid.n_x, -1).mean(axis=1)
            clip_frac[flat:flat + grid.n_x] = cl.reshape(grid.n_x, -1).mean(axis=1)
            flat += grid.n_x
    weights = mu_f.bin_measures
    value = float((weights * logs).sum())
    clip_mass = float((weights * clip_frac).sum())
    return (value, clip_mass) if return_clip else value


def entropy_lyapunov_rows(maps: list[MapSystem], sample_size: int, n: int,
                          seeds: list[int], retry_budget: int = 8) -> list:
    """:func:`entropy_lyapunov` of several maps of one family, in one lockstep run.

    Row ``r`` estimates ``maps[r]`` from ``sample_size`` orbits of ``n``
    steps, its slot ``i`` drawing from ``stream(seeds[r], 11, i)``.  On the
    cylinder the triangular cocycle keeps the fibre line invariant, so the
    fibre sum ``log |2 x|`` is averaged and the base exponent ``log d``
    added.

    The unfinished slots of all rows advance together in blocks of up to
    256 steps (fewer when steps x ``sample_size`` would pass 2^16).  Each
    step is one ``f_batch`` call on all of them, through a copy of the
    first map in which every parameter that differs between rows is a
    per-slot column; the derivative, the near-critical test and the
    logarithm then run once per block, and the log rows are added one at
    a time, so each slot sums its ``log |f'|`` in orbit order.  A slot
    whose step comes within the near-critical floor of the critical set
    drops its sum and, after the block, restarts from a fresh draw of its
    own stream and row map, up to ``retry_budget`` times.  Block lengths
    do not depend on the other rows, so every row restarts at the same
    steps as in its one-row run and gets that run's result bit for bit.

    ``entropy_lyapunov_fast`` is a second name of this function: the stage
    tracer of ``perfbench/tracer.py`` wraps the driver under that name.

    Returns
    -------
    list
        Per row, ``(mean, standard_error)``, or the
        :class:`~srblab.errors.NearCriticalError` of a row in which a slot
        exhausted its retry budget; that row stops and the others go on.
    """
    if sample_size < 1 or n < 1:
        raise ArgumentError("sample_size and n must be at least 1")
    if len(seeds) != len(maps):
        raise ArgumentError("need one seed per map")
    if not maps:
        return []
    first = maps[0]
    if any(type(m) is not type(first) for m in maps):
        raise ArgumentError("the rows of one orbit driver must share a map family")
    # the parameters that differ between rows become per-slot columns
    cols = {key: np.repeat([m.params[key] for m in maps], sample_size)
            for key, value in first.params.items()
            if any(m.params[key] != value for m in maps)}
    row = np.repeat(np.arange(len(maps)), sample_size)  # the row of every slot
    rngs = [stream(seed, 11, i) for seed in seeds for i in range(sample_size)]
    pts = np.array([maps[r].sample_uniform(rng, 1)[0] for r, rng in zip(row, rngs)])
    sums = np.zeros(row.size)
    steps = np.zeros(row.size, dtype=int)
    retries = np.zeros(row.size, dtype=int)
    failed = [None] * len(maps)
    block = _block_steps(sample_size)
    while (live := np.flatnonzero(steps < n)).size:
        left = n - steps[live]
        step = first
        if cols:
            step = copy.copy(first)
            for key, col in cols.items():
                setattr(step, key, col[live])
        # row j holds the live slots' points after j more steps
        buf = _orbit_block(step.f_batch, pts[live], min(int(left.max()), block))
        k = len(buf) - 1
        pts[live] = buf[k]
        if first.dimension == 1:
            d = np.abs(step.df_batch(buf[:k]))
        else:
            d = np.abs(2.0 * buf[:k, :, 1])
        rows = np.arange(k)[:, None]
        bad = (d < NEAR_CRITICAL_FLOOR) & (rows < left)
        first_bad = np.where(bad.any(axis=0), bad.argmax(axis=0), k)
        # rows past a slot's end or first bad step add log 1 = 0, exactly
        logs = np.log(np.where(rows < np.minimum(first_bad, left), d, 1.0))
        # accumulate adds one row at a time: every sum keeps its orbit order
        sums[live] = np.add.accumulate(np.vstack([sums[live], logs]))[-1]
        steps[live] += np.minimum(left, k)
        for j in np.flatnonzero(first_bad < k):
            i = live[j]
            r = row[i]
            if failed[r] is not None:
                continue
            retries[i] += 1
            if retries[i] > retry_budget:
                failed[r] = NearCriticalError(float(d[first_bad[j], j]))
                steps[row == r] = n  # the row stops; the others go on
                continue
            pts[i] = maps[r].sample_uniform(rngs[i], 1)[0]
            sums[i] = 0.0
            steps[i] = 0
    results = []
    for m, values, error in zip(maps, np.maximum(sums / n, 0.0).reshape(len(maps), -1),
                                failed):
        if error is not None:
            results.append(error)
            continue
        if m.dimension != 1:
            values += max(math.log(m.d), 0.0)
        mean = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(sample_size)) if sample_size > 1 else 0.0
        results.append((mean, se))
    return results


entropy_lyapunov_fast = entropy_lyapunov_rows


def entropy_lyapunov(m: MapSystem, sample_size: int, n: int, seed: int = 0,
                     retry_budget: int = 8) -> tuple[float, float]:
    """Sum of positive Lyapunov exponents averaged over random orbits.

    The one-row case of :func:`entropy_lyapunov_rows`, the one orbit
    driver: ``sample_size`` orbits of ``n`` steps, slot ``i`` drawing from
    ``stream(seed, 11, i)``, so the result does not depend on how slots
    are scheduled.

    Returns
    -------
    (mean, standard_error)

    Raises
    ------
    NearCriticalError
        If some slot exhausts its retry budget.
    """
    result, = entropy_lyapunov_rows([m], sample_size, n, [seed], retry_budget)
    if isinstance(result, SrbLabError):
        raise result
    return result


# ---------------------------------------------------------------------------
# identity checks


@dataclass(frozen=True)
class QuotientCheck:
    """Orbit-exponent quotient: under the tower, the log-derivative grows
    ``mean-return-time`` times faster than under the base map."""

    lambda_F: float
    mean_return: float
    quotient: float
    lambda_f: float

    @property
    def gap(self) -> float:
        return abs(self.quotient - self.lambda_f)


def lyapunov_quotient_check(m: MapSystem, F: InducedMarkovMap, mu_F: GridDensity,
                            sample: int = 32, n: int = 20_000,
                            seed: int = 0) -> QuotientCheck:
    """Compare the tower exponent over the mean return time with the base
    exponent.

    ``lambda_F`` is the Birkhoff average of ``log |DF|`` over ``sample``
    tower orbits of ``n`` steps (slot ``i`` draws from
    ``stream(seed, 13, i)``; deficit landings are replaced by a fresh
    uniform draw from the same stream).  Each tower step is one
    itinerary walk, giving the images and ``log |DF|`` of all orbits.
    The mean return time comes from the censored Kac integral of
    ``mu_F``, and ``lambda_f`` is measured independently along base-map
    orbits of matching length, whose log-derivatives are taken a block of
    steps at a time.

    Raises
    ------
    UnverifiedTowerError
        If the tower was never verified or failed verification.
    """
    _require_verified(F)
    if sample < 1 or n < 1:
        raise ArgumentError("sample and n must be at least 1")
    rngs = [stream(seed, 13, i) for i in range(sample)]
    drng = stream(seed, 13, sample)
    lo, hi = F.delta.lo, F.delta.hi
    pts = np.array([r.uniform(lo, hi) for r in rngs])
    top = np.nextafter(hi, lo)  # images are clipped into [lo, hi)
    total_logj = 0.0
    base_steps = 0
    for _ in range(n):
        idx = F.cell_index_batch(pts)
        while (missed := np.flatnonzero(idx < 0)).size:
            for i in missed:
                pts[i] = rngs[i].uniform(lo, hi)
            idx = F.cell_index_batch(pts)
        # one walk gives the images and log |DF| of every point
        ys, logj, _ = F.evaluate(idx, pts, jacobian=True)
        total_logj += float(logj.sum())
        base_steps += int(F._tau_arr[idx].sum())
        pts = dither(np.clip(ys, lo, top), drng, lo, hi)
    lambda_F = total_logj / (sample * n)
    mean_return = kac_mass(F, mu_F)
    quotient = lambda_F / mean_return
    # independent base-map measurement of matching orbit length, dithered
    # step by step and differentiated a block at a time
    n_base = max(base_steps // sample, 1)
    dlo, dhi = m.domain.lo, m.domain.hi
    base_pts = np.array([r.uniform(dlo, dhi) for r in rngs])
    base_sum = 0.0
    done = 0
    while done < n_base:
        buf = _orbit_block(lambda p: dither(m.f_batch(p), drng, dlo, dhi), base_pts,
                           min(n_base - done, _block_steps(sample)))
        done += len(buf) - 1
        base_pts = buf[-1]
        logs = np.log(np.maximum(np.abs(m.df_batch(buf[:-1])), NEAR_CRITICAL_FLOOR))
        for term in logs.sum(axis=1).tolist():
            base_sum += term  # row by row: the sum keeps its orbit order
    lambda_f = base_sum / (sample * n_base)
    return QuotientCheck(lambda_F, mean_return, quotient, lambda_f)


@dataclass(frozen=True)
class TransferCheck:
    """Jacobian transfer between the tower and its spread over ambient space."""

    lhs: float
    rhs: float
    gap: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.bound


def jacobian_transfer_check(m: MapSystem, F: InducedMarkovMap, mu_F: GridDensity,
                            spread: GridDensity) -> TransferCheck:
    """Check that integrating ``log |DF|`` on the tower equals integrating
    ``log |det Df|`` against the (unnormalised) spread of the same density.

    The combined bound covers the censored deficit transport
    (``truncation_bound * (cap + 1) * sup |log det Df|``) plus an
    empirical quadrature slack: twice the change when the stratification
    is halved, with a 1e-9 floor.

    Raises
    ------
    ArgumentError
        If the spread was built with a cap below the tower's.
    """
    if spread.cap is None or spread.cap < F.tau_max:
        raise ArgumentError("spread cap does not match the tower cap")
    if not isinstance(spread.grid, Grid1D):
        raise ArgumentError("transfer quadrature expects a 1D density")
    lhs = entropy_induced(F, mu_F)
    logs16, _, sup_log = _bin_log_det(m, spread.grid)
    logs8, _, _ = _bin_log_det(m, spread.grid, _STRATA // 2)
    rhs16 = float((spread.bin_measures * logs16).sum())
    rhs8 = float((spread.bin_measures * logs8).sum())
    deficit_term = spread.truncation_bound * (spread.cap + 1) * sup_log
    bound = deficit_term + 2.0 * abs(rhs16 - rhs8) + 1e-9
    gap = abs(lhs - rhs16)
    return TransferCheck(lhs, rhs16, gap, bound)


@dataclass(frozen=True)
class MajorantCheck:
    """Linear-in-return-time bound on branch Jacobians."""

    C: float
    worst_ratio: float
    worst_cell: int

    @property
    def passed(self) -> bool:
        return self.worst_ratio <= 1.0 + 1e-9


def majorant_check(F: InducedMarkovMap, samples_per_cell: int = 64,
                   grid_samples: int = 4096) -> MajorantCheck:
    """Check ``log |DF| <= C tau`` on cell samples, with
    ``C = log(sup |det Df|)`` over a domain grid and the cells' own chain
    factors.

    The supremum includes every derivative factor encountered along the
    sampled branch chains, so a genuine tower can only fail through a
    Jacobian inconsistency (the mutation this check is designed to catch).
    """
    m = F.base
    dense = np.linspace(m.domain.lo, m.domain.hi, grid_samples)
    sup_det = float(np.abs(m.df_batch(dense)).max())
    top = np.empty(len(F.cells))  # largest sampled log |DF| of each cell
    for cells, first, rows, xs in cell_samples(F, np.full(len(F.cells), samples_per_cell)):
        top[cells] = np.maximum.reduceat(F.evaluate(rows, xs, jacobian=True)[1], first)
        ys, taus = xs, F._tau_arr[rows]
        for j in range(int(taus.max())):
            ys, taus = ys[taus > j], taus[taus > j]
            sup_det = max(sup_det, float(np.abs(m.df_batch(ys)).max()))
            ys = m.f_batch(ys)
    C = math.log(sup_det)
    if C <= 0:
        raise ArgumentError("sampled derivative supremum is not expanding")
    # dividing by C * tau > 0 keeps the order of a cell's samples, so the
    # ratio of its largest log-Jacobian is its largest ratio; the -inf
    # stands for a tower without cells
    ratios = np.append(top / (C * F._tau_arr), -math.inf)
    worst_cell = int(np.argmax(ratios))
    return MajorantCheck(C, float(ratios[worst_cell]), worst_cell)


# ---------------------------------------------------------------------------
# the full report


@dataclass
class EntropyReport:
    """All entropy routes for one system, with cross-route discrepancies.

    Estimator fields are NaN when a route is unavailable (no tower for
    cylinder maps, for instance); the reason is kept in ``errors``.
    ``density`` is the one-step stationary density behind ``h_pesin``
    (None when its solve failed).
    """

    family: str
    params: dict
    h_lyapunov: float = math.nan
    lyapunov_se: float = math.nan
    h_pesin: float = math.nan
    pesin_clip_mass: float = math.nan
    h_induced: float = math.nan
    h_abramov: float = math.nan
    h_smb: float = math.nan
    kac: float = math.nan
    spread_mass: float = math.nan
    deficit: float = math.nan
    truncation_bound: float = math.nan
    bins: int = 0
    n_orbits: int = 0
    n_iters: int = 0
    tau_cap: int = 0
    density: GridDensity | None = None
    discrepancies: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def recompute_discrepancies(self) -> dict:
        pairs = {
            "abramov_vs_pesin": (self.h_abramov, self.h_pesin),
            "abramov_vs_lyapunov": (self.h_abramov, self.h_lyapunov),
            "pesin_vs_lyapunov": (self.h_pesin, self.h_lyapunov),
            "smb_vs_induced": (self.h_smb, self.h_induced),
        }
        return {k: abs(a - b) for k, (a, b) in pairs.items()
                if not (math.isnan(a) or math.isnan(b))}


def entropy_report(m: MapSystem, F: InducedMarkovMap | None = None, *,
                   bins: int = 4096, n_orbits: int = 64, n_iters: int = 100_000,
                   smb_depth: int = 64, seed: int = 0, j_cap: int | None = None,
                   retry_budget: int = 8, ulam_tol: float = 1e-10,
                   ulam_max_iters: int = 100_000,
                   lyapunov: tuple[float, float] | str | None = None) -> EntropyReport:
    """Run every applicable entropy route and collect the results.

    Tower-based routes need a verified induced map ``F`` (towers that
    were not yet verified are verified here); ambient routes run for any
    map.  Each operator is solved once and each density integrated once:
    ``h_abramov`` is ``h_induced / kac``, and the one-step density is
    returned on the report.  Per-route failures are recorded in
    ``report.errors`` instead of aborting the whole report.

    ``lyapunov`` is the Lyapunov route's outcome when the caller has run
    its orbits already (a sweep runs those of all its rows together):
    ``(mean, se)`` from :func:`entropy_lyapunov_rows` at ``n_orbits``,
    ``n_iters``, ``seed`` and ``retry_budget``, or the message of its
    error.  Left at None, the route runs here.
    """
    rep = EntropyReport(m.family, dict(m.params), bins=bins, n_orbits=n_orbits,
                        n_iters=n_iters, tau_cap=F.tau_max if F is not None else 0)
    if lyapunov is None:
        try:
            lyapunov = entropy_lyapunov(m, n_orbits, n_iters, seed=seed,
                                        retry_budget=retry_budget)
        except SrbLabError as exc:
            lyapunov = str(exc)
    if isinstance(lyapunov, str):
        rep.errors["h_lyapunov"] = lyapunov
    else:
        rep.h_lyapunov, rep.lyapunov_se = lyapunov
    try:
        rep.density = stationary_density(one_step_ulam(m, bins), tol=ulam_tol,
                                         max_iters=ulam_max_iters)
        rep.h_pesin, rep.pesin_clip_mass = entropy_pesin(m, rep.density, return_clip=True)
    except SrbLabError as exc:
        rep.errors["h_pesin"] = str(exc)

    if F is not None:
        try:
            if F.verification is None:
                verify_axioms(F)
            mu_F = stationary_density(ulam_matrix(F, bins), tol=ulam_tol,
                                      max_iters=ulam_max_iters)
            rep.deficit = F.deficit
            rep.h_induced = entropy_induced(F, mu_F)
            rep.kac = kac_mass(F, mu_F)
            spread = spread_measure(m, F, mu_F, bins, j_cap)
            rep.spread_mass = spread.mass
            rep.h_abramov = rep.h_induced / rep.kac  # kac >= 1: a censored mean return time
            rep.truncation_bound = entropy_truncation_bound(F, mu_F)
        except SrbLabError as exc:
            rep.errors["h_induced"] = str(exc)
        smb_rng = stream(seed, 17)
        for _ in range(8):
            x0 = smb_rng.uniform(F.delta.lo, F.delta.hi)
            try:
                rep.h_smb = entropy_smb(F, x0, smb_depth)
                rep.errors.pop("h_smb", None)
                break
            except CensoredOrbitError as exc:
                rep.errors["h_smb"] = str(exc)  # fell into the deficit; redraw
            except SrbLabError as exc:
                rep.errors["h_smb"] = str(exc)
                break
    rep.discrepancies = rep.recompute_discrepancies()
    return rep
