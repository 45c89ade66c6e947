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

The one base-map orbit loop, ``entropy_lyapunov_rows``, steps in blocks:
as many steps of every orbit as ``MapSystem.block_steps`` allows (2^15
values, points x coordinates) go into one (steps, orbits) buffer, and
the log-derivatives of the whole block take one call each;
``lyapunov_quotient_check`` takes its base exponent from it too.  The
buffer comes from the map's ``orbit``, which writes each row in place,
and the derivatives from the derivative interface of
:class:`~srblab.maps.MapSystem`, so no estimator asks for the dimension.
The derivatives are written in place into a second buffer below the
running sums, their logs taken in place, and one accumulate adds its
rows in turn, so every orbit sum keeps its order and the
numbers match a per-step loop bit for bit.  A sweep runs all its rows
through one driver call: each block covers every row's orbits, with the
swept parameter as a per-orbit column, and each row's result equals its
one-row run bit for bit.  Tower orbits take one itinerary walk per step,
which yields the images and ``log |DF|`` together.

Quadrature points and bin slivers come from the stratification in
:mod:`srblab.measures`.  ``entropy_report`` runs all of them on one
system, solving each operator and integrating each density once.  It
keeps one :class:`Route` record per route (lyapunov, pesin, induced,
abramov, smb, and the kac mass that links the last three), and that one
list drives entropy.csv, the sweep rows, the ``srblab entropy`` printout
and the pairwise discrepancies.  The two ``*_check`` functions probe
identities that make the routes agree: the orbit-exponent quotient
(Abramov's formula along orbits) and the linear-in-return-time Jacobian
bound, whose constant every tower report uses through
``entropy_truncation_bound``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ArgumentError, CensoredOrbitError, ConstructionError,
                     NearCriticalError, SrbLabError, UnverifiedTowerError)
from .maps import NEAR_CRITICAL_FLOOR, MapSystem
from .measures import (_STRATA, GridDensity, bin_slivers, interval_measure, one_step_ulam,
                       ordered_sum, stationary_density, stratified_points, ulam_matrix)
from .rng import StreamKey, dither, stream
from .towers import (CELL_SAMPLES, InducedMarkovMap, cell_samples, kac_breakdown, kac_mass,
                     verify_axioms)


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
        terms = interval_measure(mu_F, F.cells.lo, F.cells.hi) * F.cells.log_slope
    else:
        owner, idx, a, b = bin_slivers(mu_F.grid, F.cells.lo, F.cells.hi)
        pts = stratified_points(a, b - a).ravel()
        logj = F.evaluate(np.repeat(owner, _STRATA), pts, jacobian=True)[1]
        terms = mu_F.values[idx] * (b - a) * logj.reshape(-1, _STRATA).mean(axis=1)
    return ordered_sum(terms)


def entropy_truncation_bound(F: InducedMarkovMap, mu_F: GridDensity) -> float:
    """Scale of the entropy mass hidden in the tower deficit.

    Uses the linear majorant ``log |DF| <= C tau`` with the censoring time
    ``tau_max + 1`` standing in for the unknown return times, i.e.
    ``mu_F(deficit) * (tau_max + 1) * C``, whose first two factors are the
    censored part of :func:`~srblab.towers.kac_breakdown` and whose ``C``
    is :func:`majorant_check`'s.

    Raises
    ------
    ArgumentError
        If ``mu_F`` is not a unit-mass density on the tower's base interval.
    """
    _, censored = kac_breakdown(F, mu_F)
    return censored * majorant_check(F).C


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
    in log space throughout, so depth is limited only by orbit length;
    non-affine branches switch from interval endpoints to a derivative
    update once the cylinder is narrower than 1e-6 times the base
    interval.  The switch must happen well above float resolution, where
    the inverse branches stop resolving the endpoints: one more pullback
    can shrink the interval by the full branch slope, and colliding
    endpoints would zero out the tracked width.  The endpoints go back
    only to the switch row and the midpoint anchor on from there, so a
    depth-``n`` cylinder costs ``n`` cell inversions.

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
    drng = stream(int(np.float64(x).view(np.uint64)), StreamKey.SMB_DITHER)
    cells = []
    y = np.array([x], dtype=float)
    for k in range(n):
        i = int(F.cell_index_batch(y)[0])
        if i < 0:
            raise CensoredOrbitError(k)
        cells.append(i)
        y = dither(F.evaluate(i, y), drng, F.delta.lo, F.delta.hi)
    if F.affine:
        return ordered_sum(F.cells.log_slope[cells]) / n

    # pull the base interval back one cell at a time, from cell n-1 down to
    # the switch row k: the first row narrower than 1e-6 of the base
    # interval, or row 0
    ends = np.array([F.delta.lo, F.delta.hi])
    for k in range(n - 1, -1, -1):
        ends = F.invert(cells[k], ends)
        width = float(ends.max() - ends.min())
        if width < 1e-6 * F.delta.width:
            break
    # past the switch point the cylinder is tracked by its midpoint and
    # the derivatives of the remaining branches there
    anchors = np.empty(k)
    anchor = np.array([0.5 * (ends[0] + ends[1])])
    for j in range(k - 1, -1, -1):
        anchor = F.invert(cells[j], anchor)
        anchors[j] = anchor[0]
    _, logj, _ = F.evaluate(np.array(cells[:k], dtype=int), anchors, jacobian=True)
    log_extra = ordered_sum(-logj[::-1])  # log of the width shrinkage past the switch point
    if not width > 0.0:
        raise ConstructionError("tracked cylinder collapsed below float resolution")
    log_mass = math.log(width) + log_extra - math.log(F.delta.width)
    return -log_mass / n


# ---------------------------------------------------------------------------
# ambient-side estimators


def _pesin_integral(m: MapSystem, mu_f: GridDensity) -> tuple[float, float]:
    """Quadrature of clipped ``log |det Df|`` against a unit-mass ambient
    density, through the grid's ``bin_points``; returns the integral and
    the density mass whose integrand was clipped."""
    if abs(mu_f.mass - 1.0) > 1e-8:
        raise ArgumentError(f"ambient density must have unit mass, got {mu_f.mass!r}")
    grid = mu_f.grid
    pts = grid.bin_points(_STRATA)
    det = m.abs_det_batch(pts.reshape(grid.n * _STRATA, *pts.shape[2:])).reshape(grid.n, _STRATA)
    logs = np.log(np.maximum(det, NEAR_CRITICAL_FLOOR)).mean(axis=1)
    clip_frac = (det < NEAR_CRITICAL_FLOOR).mean(axis=1)
    weights = mu_f.bin_measures
    return float((weights * logs).sum()), float((weights * clip_frac).sum())


def entropy_pesin(m: MapSystem, mu_f: GridDensity) -> float:
    """Pesin entropy: the positive part of the quadrature of ``log |det Df|``
    against a unit-mass ambient density.

    Each bin contributes through 16 stratified points (a 4 x 4 grid on
    cylinder bins).  Near the critical set the integrand is clipped at
    the floor ``log(1e-15)``; :func:`entropy_report` keeps the density
    mass whose integrand was clipped as the pesin route's
    ``truncation_bound``.  The positive part is ``max(integral,
    m.base_exponent)``: the base exponent plus the positive part of the
    rest, as in the Lyapunov route, which clips each orbit at 0.
    """
    return max(_pesin_integral(m, mu_f)[0], m.base_exponent)


def entropy_lyapunov_rows(maps: list[MapSystem], sample_size: int, n: int,
                          seeds: list[int], retry_budget: int = 8) -> list:
    """:func:`entropy_lyapunov` of several maps of one family, in one lockstep run.

    Row ``r`` estimates ``maps[r]`` from ``sample_size`` orbits of ``n``
    steps, its slot ``i`` drawing from ``stream(seeds[r],
    StreamKey.LYAPUNOV, i)``.  Each slot averages the log of the map's
    ``fibre_derivative_batch``, clipped at 0, and the row adds the map's
    ``base_exponent``.

    The unfinished slots of all rows advance together in blocks of
    ``block_steps(slots)`` steps, 2^15 values of orbit buffer.  Each
    block is one ``orbit`` call on all of them, through a copy of the first
    map in which every parameter that differs between rows is a per-slot
    column.  The fibre derivative, the distance to the critical set (one
    ``crit_dist_batch`` call, for every map) and the logarithm then run
    once per block.  The derivatives are written into one (steps + 1,
    slots) buffer whose row 0 holds the running sums
    (``fibre_derivative_batch(x, out=)``), their logs taken in place, and one
    ``np.add.accumulate`` down its rows adds them one row at a time, so
    each slot sums its logs in orbit order (``np.add.reduce`` would not:
    it sums the contiguous column of a single slot pairwise).  A slot
    whose step has ``crit_dist < NEAR_CRITICAL_FLOOR``, the test of
    :func:`~srblab.orbits.lyapunov_exponents`, drops its sum and, after
    the block, restarts from a fresh draw of its own stream and row map,
    up to ``retry_budget`` times; the per-slot masks for this, and for
    slots that end inside the block, are built only in the blocks that
    need them.  Results do not depend on the block length: each slot's
    steps, logs and draws are the same at any length, so every row gets
    its one-row run's result bit for bit.  Only the distance carried by
    the error of a failed row may come from another of its slots.

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
    rngs = [stream(seed, StreamKey.LYAPUNOV, i) for seed in seeds for i in range(sample_size)]
    pts = np.array([maps[r].sample_uniform(rng, 1)[0] for r, rng in zip(row, rngs)])
    sums = np.zeros(row.size)
    steps = np.zeros(row.size, dtype=int)
    retries = np.zeros(row.size, dtype=int)
    failed = [None] * len(maps)
    while (live := np.flatnonzero(steps < n)).size:
        left = n - steps[live]
        k = min(int(left.max()), first.block_steps(live.size))
        step = first
        if cols:
            step = copy.copy(first)
            for key, col in cols.items():
                setattr(step, key, col[live])
        # row j holds the live slots' points after j more steps
        buf = step.orbit(pts[live], k)
        pts[live] = buf[k]
        # row 0 carries the running sums, rows 1..k the block's logs
        acc = np.empty((k + 1, live.size))
        acc[0] = sums[live]
        logs = acc[1:]
        step.fibre_derivative_batch(buf[:k], out=logs)
        with np.errstate(divide="ignore"):  # log 0 falls on a near-critical step
            np.log(logs, out=logs)
        dist = step.crit_dist_batch(buf[:k])
        near = dist < NEAR_CRITICAL_FLOOR
        rows = np.arange(k)[:, None]
        first_bad = np.full(live.size, k)
        if near.any():
            bad = near & (rows < left)
            first_bad = np.where(bad.any(axis=0), bad.argmax(axis=0), k)
        stop = np.minimum(first_bad, left)
        if stop.min() < k:
            # the logs past a slot's end or first bad step become 0.0 = log 1
            logs[rows >= stop] = 0.0
        # accumulate adds one row at a time: every sum keeps its orbit order
        np.add.accumulate(acc, axis=0, out=acc)
        sums[live] = acc[k]
        steps[live] += np.minimum(left, k)
        for j in np.flatnonzero(first_bad < k):
            i = live[j]
            r = row[i]
            if failed[r] is not None:
                continue
            retries[i] += 1
            if retries[i] > retry_budget:
                failed[r] = NearCriticalError(float(dist[first_bad[j], j]))
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
        values += m.base_exponent
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
    ``stream(seed, StreamKey.LYAPUNOV, i)``, so the result does not depend
    on how slots are scheduled.

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
    lambda_f_se: float

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
    ``stream(seed, StreamKey.QUOTIENT, i)``; deficit landings are replaced
    by a fresh uniform draw from the same stream).  Each tower step is one
    itinerary walk, giving the images and ``log |DF|`` of all orbits.
    The mean return time comes from the censored Kac integral of
    ``mu_F``.  ``lambda_f`` and its standard error ``lambda_f_se`` are
    the Lyapunov route, :func:`entropy_lyapunov` with ``sample`` orbits
    and ``seed``, at matching length: as many base steps per orbit as the
    tower orbits took on average.  So near-critical steps restart their
    orbit as on that route.  These orbits are not dithered: of the
    built-in families only maps of constant ``|f'|`` (power-of-two
    slopes) drain to a dyadic cycle, where the exponent is still that
    constant.

    Raises
    ------
    UnverifiedTowerError
        If the tower was never verified or failed verification.
    NearCriticalError
        If a base orbit slot exhausts its retry budget.
    """
    _require_verified(F)
    if sample < 1 or n < 1:
        raise ArgumentError("sample and n must be at least 1")
    rngs = [stream(seed, StreamKey.QUOTIENT, i) for i in range(sample)]
    drng = stream(seed, StreamKey.QUOTIENT, sample)
    lo, hi = F.delta.lo, F.delta.hi
    pts = np.array([r.uniform(lo, hi) for r in rngs])
    step_logj = np.empty(n)  # the log |DF| of all orbits at each step
    base_steps = 0
    for s in range(n):
        idx = F.cell_index_batch(pts)
        while (missed := np.flatnonzero(idx < 0)).size:
            for i in missed:
                pts[i] = rngs[i].uniform(lo, hi)
            idx = F.cell_index_batch(pts)
        # one walk gives the images and log |DF| of every point
        ys, logj, _ = F.evaluate(idx, pts, jacobian=True)
        step_logj[s] = logj.sum()
        base_steps += int(F.cells.tau[idx].sum())
        pts = dither(ys, drng, lo, hi)
    lambda_F = ordered_sum(step_logj) / (sample * n)
    mean_return = kac_mass(F, mu_F)
    quotient = lambda_F / mean_return
    # the Lyapunov route at matching orbit length
    lambda_f, lambda_f_se = entropy_lyapunov(m, sample, max(base_steps // sample, 1), seed=seed)
    return QuotientCheck(lambda_F, mean_return, quotient, lambda_f, lambda_f_se)


@dataclass(frozen=True)
class MajorantCheck:
    """Linear-in-return-time bound on branch Jacobians."""

    C: float
    worst_ratio: float
    worst_cell: int

    @property
    def passed(self) -> bool:
        return self.worst_ratio <= 1.0 + 1e-9


def majorant_check(F: InducedMarkovMap) -> MajorantCheck:
    """Check ``log |DF| <= C tau`` on cell samples, with
    ``C = log(sup |det Df|)`` over a domain grid of 4096 points and the
    cells' own chain factors.

    The supremum includes every derivative factor encountered along the
    sampled branch chains, so a genuine tower can only fail through a
    Jacobian inconsistency (the mutation this check is designed to catch).
    """
    m = F.base
    sup_det = float(m.abs_det_batch(np.linspace(m.domain.lo, m.domain.hi, 4096)).max())
    top = np.empty(len(F.cells))  # largest sampled log |DF| of each cell
    for cells, first, rows, xs in cell_samples(F, np.full(len(F.cells), CELL_SAMPLES)):
        top[cells] = np.maximum.reduceat(F.evaluate(rows, xs, jacobian=True)[1], first)
        ys, taus = xs, F.cells.tau[rows]
        for j in range(int(taus.max())):
            ys, taus = ys[taus > j], taus[taus > j]
            sup_det = max(sup_det, float(m.abs_det_batch(ys).max()))
            ys = m.f_batch(ys)
    C = math.log(sup_det)
    if C <= 0:
        raise ArgumentError("sampled derivative supremum is not expanding")
    # dividing by C * tau > 0 keeps the order of a cell's samples, so the
    # ratio of its largest log-Jacobian is its largest ratio; the -inf
    # stands for a tower without cells
    ratios = np.append(top / (C * F.cells.tau), -math.inf)
    worst_cell = int(np.argmax(ratios))
    return MajorantCheck(C, float(ratios[worst_cell]), worst_cell)


# ---------------------------------------------------------------------------
# the full report


@dataclass
class Route:
    """One route's outcome; its fields are the columns of entropy.csv, and
    :func:`~srblab.reporting.report_columns` names them in sweep.csv.

    ``estimate`` is NaN while the route is unavailable.  ``truncation_bound``
    is the censoring bound on the tower rows (the abramov row repeats the
    induced one) and the clipped density mass on the pesin row."""

    method: str
    estimate: float = math.nan
    std_error: float | None = None
    truncation_bound: float | None = None
    n_orbits: int | None = None
    n_iters: int | None = None
    bins: int | None = None
    tau_cap: int | None = None

    @property
    def name(self) -> str:
        """Key in sweep rows, ``errors`` and the printout: ``h_<method>``,
        or ``kac_mass``, which is a mean return time."""
        return self.method if self.method == "kac_mass" else f"h_{self.method}"


#: The route pairs whose gaps make up ``EntropyReport.discrepancies``.
_PAIRS = (("abramov", "pesin"), ("abramov", "lyapunov"), ("pesin", "lyapunov"),
          ("smb", "induced"))


@dataclass
class EntropyReport:
    """All entropy routes for one system, with cross-route discrepancies.

    ``routes`` maps each method to its :class:`Route`, in the row order of
    entropy.csv.  Why a route failed is kept in ``errors`` under the
    route's ``name``.  Without a tower (cylinder maps, for instance) the
    tower routes do not run: their records stay blank, with no ``bins``,
    and ``errors`` holds nothing for them.
    ``density`` is the one-step stationary density behind the pesin route
    (None when its solve failed), and ``pesin_exponent`` the raw integral
    of ``log |det Df|`` against it, whose positive part is the estimate.
    """

    family: str
    params: dict
    routes: dict
    pesin_exponent: float = math.nan
    density: GridDensity | None = None
    errors: dict = field(default_factory=dict)

    @property
    def tau_cap(self) -> int:
        """The tower's return-time cap, 0 without a tower."""
        return self.routes["induced"].tau_cap or 0

    @property
    def discrepancies(self) -> dict:
        """``{"<a>_vs_<b>": |a - b|}`` over the pairs whose estimates both exist."""
        h = {method: route.estimate for method, route in self.routes.items()}
        return {f"{a}_vs_{b}": abs(h[a] - h[b]) for a, b in _PAIRS
                if not (math.isnan(h[a]) or math.isnan(h[b]))}


def entropy_report(m: MapSystem, F: InducedMarkovMap | None = None, *,
                   bins: int = 4096, n_orbits: int = 64, n_iters: int = 100_000,
                   smb_depth: int = 64, seed: int = 0, ulam_max_iters: int = 100_000,
                   lyapunov: tuple[float, float] | str | None = None) -> EntropyReport:
    """Run every applicable entropy route and fill its :class:`Route` record.

    Tower-based routes need a verified induced map ``F`` (towers that
    were not yet verified are verified here); ambient routes run for any
    map.  Each operator is solved once and each density integrated once:
    the abramov estimate is the induced one over the kac mass, and the
    one-step density is returned on the report.  The report holds all six
    records; per-route failures are recorded in ``report.errors`` instead
    of aborting the whole report.  The ``bins`` of a record whose route
    runs is the count the one-step grid holds (a cylinder grid of whole
    rows may hold fewer).

    ``lyapunov`` is the Lyapunov route's outcome when the caller has run
    its orbits already (a sweep runs those of all its rows together):
    ``(mean, se)`` from :func:`entropy_lyapunov_rows` at ``n_orbits``,
    ``n_iters`` and ``seed``, or the message of its
    error.  Left at None, the route runs here.
    """
    tau_cap, tower_bins = (F.tau_max, bins) if F is not None else (None, None)
    routes = {route.method: route for route in (
        Route("lyapunov", n_orbits=n_orbits, n_iters=n_iters),
        Route("pesin", bins=bins),
        Route("induced", bins=tower_bins, tau_cap=tau_cap),
        Route("abramov", bins=tower_bins, tau_cap=tau_cap),
        Route("smb", tau_cap=tau_cap),
        Route("kac_mass", bins=tower_bins, tau_cap=tau_cap))}
    rep = EntropyReport(m.family, dict(m.params), routes)
    if lyapunov is None:
        try:
            lyapunov = entropy_lyapunov(m, n_orbits, n_iters, seed=seed)
        except SrbLabError as exc:
            lyapunov = str(exc)
    if isinstance(lyapunov, str):
        rep.errors["h_lyapunov"] = lyapunov
    else:
        routes["lyapunov"].estimate, routes["lyapunov"].std_error = lyapunov
    pesin = routes["pesin"]
    try:
        op = one_step_ulam(m, bins)
        for route in routes.values():  # the bins the grid holds
            if route.bins is not None:
                route.bins = op.grid.n
        rep.density = stationary_density(op, max_iters=ulam_max_iters)
        rep.pesin_exponent, pesin.truncation_bound = _pesin_integral(m, rep.density)
        pesin.estimate = max(rep.pesin_exponent, m.base_exponent)
    except SrbLabError as exc:
        rep.errors["h_pesin"] = str(exc)

    if F is not None:
        induced, abramov = routes["induced"], routes["abramov"]
        try:
            if F.verification is None:
                verify_axioms(F)
            mu_F = stationary_density(ulam_matrix(F, bins), max_iters=ulam_max_iters)
            induced.estimate = entropy_induced(F, mu_F)
            routes["kac_mass"].estimate = kac = kac_mass(F, mu_F)
            abramov.estimate = induced.estimate / kac  # kac >= 1: a censored mean return time
            induced.truncation_bound = abramov.truncation_bound = \
                entropy_truncation_bound(F, mu_F)
        except SrbLabError as exc:
            rep.errors["h_induced"] = str(exc)
        smb_rng = stream(seed, StreamKey.SMB_START)
        for _ in range(8):
            x0 = smb_rng.uniform(F.delta.lo, F.delta.hi)
            try:
                routes["smb"].estimate = entropy_smb(F, x0, smb_depth)
                rep.errors.pop("h_smb", None)
                break
            except CensoredOrbitError as exc:
                rep.errors["h_smb"] = str(exc)  # fell into the deficit; redraw
            except SrbLabError as exc:
                rep.errors["h_smb"] = str(exc)
                break
    return rep
