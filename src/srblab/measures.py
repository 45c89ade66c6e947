"""Grid densities, transfer-operator discretisation and measure transport.

Densities are piecewise constant on grids (1D intervals or the 2D
cylinder) and always carry their reference-Lebesgue normalisation:
``mass = sum(value * cell_width)``.  Grids are regular, except that the
one-step Ulam mesh of a 1D map with a critical set is graded toward the
map's postcritical points (:func:`postcritical_grid`).  The Ulam
discretisation of a map or induced map is a sparse row-stochastic matrix
whose ``(i, j)`` entry is the Lebesgue fraction of bin ``i`` sent into
bin ``j``, assembled from the exact inverse branches of the map
(``MapSystem.branch_inverse``) or of the tower's cells; rows under an
induced map sum to one minus the local mass deficit.  Stationary
densities are found by one lazy iteration started from Lebesgue, which
cannot stall on maps that swap bands, and never by dense factorisation,
so towers with thousands of bins stay cheap.

Integrals and transports over 1D bins share one stratification: an
interval is cut into its slivers with :func:`bin_slivers`, and each
sliver or bin is sampled at the ``_STRATA`` midpoints of
:func:`stratified_points`.  ``spread_measure`` here, and the Pesin,
induced and Jacobian-transfer quadratures of :mod:`srblab.entropy`, all
use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError, ConvergenceError
from .maps import MapSystem

_STRATA = 16
# points per side of a cylinder bin in the one-step Ulam sampling
_CYLINDER_SIDE = 16

# One-step meshes of maps with a critical set: bin widths near each of the
# first three postcritical points shrink like (distance in bins)^2.  The
# power 3 converges faster; for 2 - x^2 its smallest bin is 7e-15 at 2^17
# bins, against 7e-12 at 2^20 bins for the power 2.  The closed-form
# inverse branches of the assembly resolve either; the power stays 2 so
# that the quadratic densities and Pesin estimates keep their values.
_GRADING_POWER = 2
_POSTCRITICAL_DEPTH = 3


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Grid of ``n`` bins over ``[lo, hi]``.

    The grid is regular unless ``edges`` is given: then it holds the
    ``n + 1`` bin edges of a graded mesh, strictly increasing from ``lo``
    to ``hi``.  Regular grids (also one given the evenly spaced edges)
    keep closed-form arithmetic for ``locate``, ``widths`` and ``mids``;
    graded ones work from their edges.  Two grids are equal when their
    edges are.
    """

    lo: float
    hi: float
    n: int
    edges: np.ndarray | None = field(default=None, repr=False)
    regular: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or not self.hi > self.lo:
            raise ArgumentError("grid needs n >= 1 and hi > lo")
        even = np.linspace(self.lo, self.hi, self.n + 1)
        if self.edges is None:
            edges = even
        else:
            edges = np.array(self.edges, dtype=float)
            if edges.shape != (self.n + 1,):
                raise ArgumentError(f"grid of {self.n} bins needs {self.n + 1} edges")
            if edges[0] != self.lo or edges[-1] != self.hi:
                raise ArgumentError("grid edges must run from lo to hi")
            if not np.all(np.diff(edges) > 0):
                raise ArgumentError("grid edges must be strictly increasing")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "regular", bool(np.array_equal(edges, even)))

    def __eq__(self, other):
        if not isinstance(other, Grid1D):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.edges, other.edges))

    def __hash__(self):
        return hash((self.lo, self.hi, self.n))

    @property
    def widths(self) -> np.ndarray:
        if not self.regular:
            return np.diff(self.edges)
        return np.full(self.n, (self.hi - self.lo) / self.n)

    @property
    def mids(self) -> np.ndarray:
        if not self.regular:
            return 0.5 * (self.edges[:-1] + self.edges[1:])
        w = (self.hi - self.lo) / self.n
        return self.lo + w * (np.arange(self.n) + 0.5)

    @property
    def shape(self):
        return (self.n,)

    def locate(self, x: np.ndarray) -> np.ndarray:
        """Bin indices of points (clipped into range)."""
        if not self.regular:
            idx = np.searchsorted(self.edges, np.asarray(x), side="right") - 1
            return np.clip(idx, 0, self.n - 1)
        w = (self.hi - self.lo) / self.n
        idx = np.floor((np.asarray(x) - self.lo) / w).astype(int)
        return np.clip(idx, 0, self.n - 1)


@dataclass(frozen=True)
class Grid2D:
    """Product grid on the cylinder: ``n_theta`` circle bins x ``n_x`` fibre bins."""

    x_lo: float
    x_hi: float
    n_theta: int
    n_x: int

    def __post_init__(self):
        if self.n_theta < 1 or self.n_x < 1 or not self.x_hi > self.x_lo:
            raise ArgumentError("cylinder grid needs positive bin counts and x_hi > x_lo")

    @property
    def shape(self):
        return (self.n_theta, self.n_x)

    @property
    def n(self) -> int:
        return self.n_theta * self.n_x

    @property
    def theta_edges(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_theta + 1)

    @property
    def x_edges(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n_x + 1)

    @property
    def cell_area(self) -> float:
        return (1.0 / self.n_theta) * ((self.x_hi - self.x_lo) / self.n_x)

    def locate(self, pts: np.ndarray) -> np.ndarray:
        """Flat bin indices of cylinder points, shape (n,)."""
        pts = np.asarray(pts)
        it = np.clip((pts[:, 0] * self.n_theta).astype(int), 0, self.n_theta - 1)
        wx = (self.x_hi - self.x_lo) / self.n_x
        ix = np.clip(((pts[:, 1] - self.x_lo) / wx).astype(int), 0, self.n_x - 1)
        return it * self.n_x + ix


@dataclass(frozen=True)
class GridDensity:
    """Piecewise-constant density with respect to Lebesgue measure.

    Attributes
    ----------
    grid : Grid1D or Grid2D
    values : numpy.ndarray
        Nonnegative density values, one per bin (flat for 2D grids).
    provenance : str
        One of ``stationary``, ``spread``, ``normalized``, ``external``.
    truncation_bound : float
        Mass per omitted step for truncated transport sums (0 otherwise).
    iterations : int
        Steps of the stationary solve that produced the density (0 otherwise).
    residual : float
        The solve's final residual ``|P p - p|_1`` (0 for other densities).
    excluded : numpy.ndarray or None
        Boolean mask of bins excluded from a stationary solve.
    cap : int or None
        Return-time cap a spread density was built with.
    """

    grid: Grid1D | Grid2D
    values: np.ndarray
    provenance: str = "external"
    truncation_bound: float = 0.0
    iterations: int = 0
    residual: float = 0.0
    excluded: np.ndarray | None = None
    cap: int | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "values", v)
        if v.size != int(np.prod(self.grid.shape)):
            raise ArgumentError("density values do not match the grid")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ArgumentError("density values must be finite and nonnegative")
        if self.provenance not in ("stationary", "spread", "normalized", "external"):
            raise ArgumentError(f"unknown provenance {self.provenance!r}")

    @property
    def bin_measures(self) -> np.ndarray:
        if isinstance(self.grid, Grid1D):
            return self.values * self.grid.widths
        return self.values * self.grid.cell_area

    @property
    def mass(self) -> float:
        return float(self.bin_measures.sum())


def lebesgue_density(grid: Grid1D | Grid2D) -> GridDensity:
    """Normalised Lebesgue measure on the grid (unit mass)."""
    n = int(np.prod(grid.shape))
    if isinstance(grid, Grid1D):
        v = np.full(n, 1.0 / (grid.hi - grid.lo))
    else:
        v = np.full(n, 1.0 / ((grid.x_hi - grid.x_lo) * 1.0))
    return GridDensity(grid, v, "external")


def normalize(density: GridDensity) -> tuple[GridDensity, float]:
    """Scale a density to unit mass; returns ``(unit_density, original_mass)``."""
    mass = density.mass
    if mass <= 0:
        raise ArgumentError("cannot normalise a density with nonpositive mass")
    unit = replace(density, values=density.values / mass, provenance="normalized")
    return unit, mass


def l1_distance(d1: GridDensity, d2: GridDensity) -> float:
    """L1 distance between two densities on the same grid."""
    if type(d1.grid) is not type(d2.grid) or d1.grid.shape != d2.grid.shape:
        raise ArgumentError("densities live on different grids")
    g1, g2 = d1.grid, d2.grid
    if isinstance(g1, Grid1D):
        if g1.regular != g2.regular or np.abs(g1.edges - g2.edges).max() > 1e-12:
            raise ArgumentError("densities live on different grids")
        diff = np.abs(d1.values - d2.values)
        if g1.regular:
            return float(diff.sum() * g1.widths[0])
        return float((diff * g1.widths).sum())
    if abs(g1.x_lo - g2.x_lo) > 1e-12 or abs(g1.x_hi - g2.x_hi) > 1e-12:
        raise ArgumentError("densities live on different grids")
    return float(np.abs(d1.values - d2.values).sum() * g1.cell_area)


@dataclass(frozen=True)
class BoundsCheck:
    """Two-sided density bound check on the non-excluded bins."""

    minimum: float
    min_index: int
    maximum: float
    max_index: int
    ratio_cap: float
    passed: bool


def density_bounds_check(density: GridDensity, ratio_cap: float = 100.0) -> BoundsCheck:
    """Check that a stationary density is pinched between two positive bounds.

    Passes when the minimum over non-excluded bins is positive and the
    max/min ratio stays below ``ratio_cap`` (unbounded densities show up
    as a diverging ratio under bin refinement).
    """
    if density.provenance not in ("stationary", "normalized"):
        raise ArgumentError("bounds check expects a stationary (or normalised) density")
    mask = np.ones(density.values.size, dtype=bool)
    if density.excluded is not None:
        mask &= ~density.excluded
    vals = density.values
    if not mask.any():
        raise ArgumentError("no bins left after exclusions")
    sub = np.where(mask, vals, np.inf)
    imin = int(np.argmin(sub))
    sub = np.where(mask, vals, -np.inf)
    imax = int(np.argmax(sub))
    vmin, vmax = float(vals[imin]), float(vals[imax])
    ok = vmin > 0 and vmax / max(vmin, 1e-300) <= ratio_cap
    return BoundsCheck(vmin, imin, vmax, imax, ratio_cap, bool(ok))


def interval_measure(density: GridDensity, lo, hi):
    """Mass the density assigns to ``[lo, hi]`` (1D grids); arrays of ends
    share one cumulative sum and one grid search."""
    grid = density.grid
    if not isinstance(grid, Grid1D):
        raise ArgumentError("interval_measure needs a 1D density")
    edges = grid.edges
    cum = np.concatenate([[0.0], np.cumsum(density.bin_measures)])
    x = np.clip(np.array([lo, hi], dtype=float), grid.lo, grid.hi)
    i = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, grid.n - 1)
    cdf = cum[i] + density.values[i] * (x - edges[i])
    mass = np.maximum(cdf[1] - cdf[0], 0.0)
    return float(mass) if mass.ndim == 0 else mass


def stratified_points(starts: np.ndarray, lengths: np.ndarray,
                      strata: int = _STRATA) -> np.ndarray:
    """Midpoints of ``strata`` equal parts of each interval, shape ``(k, strata)``."""
    offsets = (np.arange(strata) + 0.5) / strata
    return np.asarray(starts)[:, None] + np.asarray(lengths)[:, None] * offsets[None, :]


def cylinder_row_points(t0: float, tw: float, x0s: np.ndarray, xws,
                        side: int) -> np.ndarray:
    """Stratified points of the bins of one theta-row of a cylinder grid.

    Bin ``k`` spans ``[t0, t0 + tw] x [x0s[k], x0s[k] + xws[k]]`` (``xws``
    may be one width for all); it gets the ``side x side`` product of
    :func:`stratified_points` in each coordinate, theta-major.  Returns
    shape ``(len(x0s) * side^2, 2)``, bin by bin.
    """
    x0s = np.asarray(x0s)
    ts = stratified_points([t0], [tw], side)[0]
    xs = stratified_points(x0s, np.broadcast_to(xws, x0s.shape), side)
    pts = np.empty((x0s.size, side, side, 2))
    pts[..., 0] = ts[None, :, None]
    pts[..., 1] = xs[:, None, :]
    return pts.reshape(-1, 2)


def bin_slivers(grid: Grid1D, los, his) -> tuple[np.ndarray, ...]:
    """Intersections of intervals ``[los[k], his[k]]`` with the bins of a 1D grid.

    Returns ``(interval index, bin index, starts, ends)`` of every sliver,
    interval by interval and in grid order within an interval; slivers
    no longer than 1e-15 are dropped.
    """
    edges = grid.edges
    los, his = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    i0 = np.maximum(np.searchsorted(edges, los, side="right") - 1, 0)
    i1 = np.minimum(np.searchsorted(edges, his, side="left"), grid.n)
    counts = np.maximum(i1 - i0, 0)
    owner = np.repeat(np.arange(los.size), counts)
    idx = i0[owner] + np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    starts = np.maximum(edges[idx], los[owner])
    ends = np.minimum(edges[idx + 1], his[owner])
    keep = ends - starts > 1e-15
    return owner[keep], idx[keep], starts[keep], ends[keep]


# ---------------------------------------------------------------------------
# Ulam discretisation


@dataclass(frozen=True)
class UlamOperator:
    """Sparse row-(sub)stochastic transfer matrix on a grid.

    ``row_deficit[i]`` is the Lebesgue fraction of bin ``i`` not covered
    by any branch (induced maps only); ``flagged`` marks bins that lie
    entirely inside the deficit region and are excluded from stationary
    solves.
    """

    grid: Grid1D | Grid2D
    matrix: sp.csr_matrix
    row_deficit: np.ndarray
    flagged: np.ndarray
    description: str = ""


def _atoms_for_piece(edges: np.ndarray, xlo: float, xhi: float,
                     invert_edges, value_fn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a monotone piece ``[xlo, xhi]`` into slivers that map into a
    single target bin and lie in a single source bin.

    ``invert_edges(targets)`` must return the piece preimages of target
    bin edges; ``value_fn(points)`` evaluates the piece map.  Returns
    (starts, ends, image midpoint values).
    """
    ia, ib = value_fn(np.array([xlo, xhi])).tolist()
    ylo, yhi = (ia, ib) if ia <= ib else (ib, ia)
    inner_targets = edges[(edges > ylo + 1e-15) & (edges < yhi - 1e-15)]
    if inner_targets.size:
        pre = invert_edges(inner_targets)
    else:
        pre = np.empty(0)
    cutpoints = np.concatenate([[xlo, xhi], pre, edges[(edges > xlo + 1e-15) & (edges < xhi - 1e-15)]])
    cutpoints = np.unique(np.clip(cutpoints, xlo, xhi))
    starts, ends = cutpoints[:-1], cutpoints[1:]
    keep = ends - starts > 1e-15
    starts, ends = starts[keep], ends[keep]
    mids = 0.5 * (starts + ends)
    return starts, ends, value_fn(mids)


def _assemble_rows(grid: Grid1D, pieces, description: str) -> UlamOperator:
    """Build the transfer matrix from monotone pieces.

    ``pieces`` yields ``(xlo, xhi, value_fn, invert_edges)`` with
    ``value_fn`` vectorised and ``invert_edges`` mapping sorted target bin
    edges to their preimages inside the piece.
    """
    edges = grid.edges
    widths = grid.widths
    # entries are kept per piece as (row, column, value) with the narrowest
    # index type: the atoms of a deep tower run into the millions
    index = np.int32 if grid.n < 2 ** 31 else np.int64
    rows, cols, vals = [], [], []
    covered = np.zeros(grid.n)
    for xlo, xhi, value_fn, invert_edges in pieces:
        starts, ends, img_mids = _atoms_for_piece(edges, xlo, xhi, invert_edges, value_fn)
        if starts.size == 0:
            continue
        src = grid.locate(0.5 * (starts + ends))
        ln = ends - starts
        rows.append(src.astype(index))
        cols.append(grid.locate(img_mids).astype(index))
        vals.append(ln / widths[src])
        np.add.at(covered, src, ln)
    if rows:
        mat = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(grid.n, grid.n)).tocsr()
    else:
        mat = sp.csr_matrix((grid.n, grid.n))
    frac = covered / widths
    row_deficit = np.clip(1.0 - frac, 0.0, 1.0)
    flagged = frac < 1e-9
    return UlamOperator(grid, mat, row_deficit, flagged, description)


def ulam_matrix(F, bins: int) -> UlamOperator:
    """Ulam matrix of an induced map on a grid over its base interval.

    Entries come from exact branch inverses (closed form for affine
    branches, the base map's inverse branches composed along the cell
    itinerary otherwise), so each row sums to one minus the local deficit
    fraction without sampling noise.  Cells are assembled one at a time,
    which keeps the peak memory at one cell's slivers.
    """
    if bins < 1:
        raise ArgumentError("ulam_matrix needs at least one bin")
    grid = Grid1D(F.delta.lo, F.delta.hi, bins)

    pieces = ((cell.lo, cell.hi, partial(F.evaluate, i), partial(F.invert, i))
              for i, cell in enumerate(F.cells))
    return _assemble_rows(grid, pieces, f"tower[{F.base.family}] {bins} bins")


def postcritical_grid(m: MapSystem, bins: int) -> Grid1D:
    """Grid over the domain of a 1D map, graded toward its postcritical points.

    The first ``_POSTCRITICAL_DEPTH`` images of the critical points are
    pinned to the nearest nodes of the regular grid (the domain ends keep
    theirs).  Between two pinned nodes the mesh is split at the middle
    node; in a half whose pinned end is postcritical, the node a fraction
    ``t`` of the half away from that end moves to the fraction
    ``t^_GRADING_POWER``, and any other half stays regular.  Bins then
    shrink like the square of their index toward each postcritical point,
    where the invariant density of a map with a quadratic critical point
    has its ``|x - v|^(-1/2)`` spikes.  A map without a critical set gets
    the regular grid.
    """
    lo, hi = m.domain.lo, m.domain.hi
    if not m.has_critical_set:
        return Grid1D(lo, hi, bins)
    post, x = [], m.critical_points
    for _ in range(_POSTCRITICAL_DEPTH):
        x = m.f_batch(x)
        post.extend(np.clip(x, lo, hi))
    pins, graded = {0: lo, bins: hi}, set()
    for v in sorted(post):
        node = int(round((v - lo) / (hi - lo) * bins))
        pins.setdefault(node, v)
        graded.add(node)
    edges = np.empty(bins + 1)
    nodes = sorted(pins)
    for i0, i1 in zip(nodes[:-1], nodes[1:]):
        x0, x1 = pins[i0], pins[i1]
        im = (i0 + i1) // 2
        xm = x0 + (x1 - x0) * (im - i0) / (i1 - i0)
        for end, x_end, far, x_far in ((i0, x0, im, xm), (i1, x1, im, xm)):
            if far == end:
                continue
            i = np.arange(min(end, far), max(end, far) + 1)
            t = np.abs(i - end) / abs(far - end)
            edges[i] = x_end + (x_far - x_end) * (t ** _GRADING_POWER if end in graded else t)
    return Grid1D(lo, hi, bins, edges)


def one_step_ulam(m: MapSystem, bins: int) -> UlamOperator:
    """Ulam matrix of the raw map on its ambient domain.

    One-dimensional maps use exact branch inverses on
    :func:`postcritical_grid`: graded toward the postcritical points of a
    map with a critical set, where the invariant density has inverse
    square-root spikes that a regular mesh resolves only slowly, and
    regular otherwise.  The cylinder skew product falls back to
    stratified sampling (``_CYLINDER_SIDE^2`` points per bin, one
    theta-row of bins per map call) on a regular grid since its bins are
    not intervals.
    """
    if bins < 1:
        raise ArgumentError("one_step_ulam needs at least one bin")
    if m.dimension == 1:
        grid = postcritical_grid(m, bins)

        pieces = ((*m.branch_bounds(i), partial(m.branch_lift, i), partial(m.branch_inverse, i))
                  for i in range(m.n_branches))
        return _assemble_rows(grid, pieces, f"{m.family} one-step {bins} bins")

    n_theta = int(round(bins ** 0.5))
    n_theta = max(n_theta, 1)
    n_x = max(bins // n_theta, 1)
    grid = Grid2D(m.domain.lo, m.domain.hi, n_theta, n_x)
    nper = _CYLINDER_SIDE ** 2
    t_edges, x_edges = grid.theta_edges, grid.x_edges
    x_widths = np.diff(x_edges)
    cols = []
    for it in range(grid.n_theta):
        pts = cylinder_row_points(t_edges[it], t_edges[it + 1] - t_edges[it], x_edges[:-1],
                                  x_widths, _CYLINDER_SIDE)
        cols.append(grid.locate(m.f_batch(pts)))
    rows = np.repeat(np.arange(grid.n), nper)
    cols = np.concatenate(cols)
    vals = np.full(rows.size, 1.0 / nper)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(grid.n, grid.n)).tocsr()
    return UlamOperator(grid, mat, np.zeros(grid.n), np.zeros(grid.n, dtype=bool),
                        f"{m.family} one-step {grid.n_theta}x{grid.n_x} bins")


def stationary_density(op: UlamOperator, tol: float = 1e-10,
                       max_iters: int = 100000) -> GridDensity:
    """Stationary density of an Ulam operator by lazy (renormalised) iteration.

    One step ``P`` pushes a density forward, zeroes the flagged bins and
    divides by the remaining mass.  Starting from Lebesgue, the iteration
    moves halfway to the image, ``p <- (p + P p) / 2``: the fixed point is
    that of ``P``, but each eigenvalue ``lam`` becomes ``(1 + lam) / 2``,
    so an operator whose map swaps bands (an eigenvalue at -1) converges
    as fast as a mixing one.  The solve stops once ``|P p - p|_1 <= tol``
    and returns ``P p``, carrying the number of steps ``P`` taken and
    that final residual.

    Raises
    ------
    ConvergenceError
        If the residual ``|P p - p|_1`` does not reach ``tol`` within
        ``max_iters`` steps.
    """
    grid = op.grid
    n = int(np.prod(grid.shape))
    if isinstance(grid, Grid1D):
        widths = grid.widths
    else:
        widths = np.full(n, grid.cell_area)
    p = widths / widths.sum()
    p[op.flagged] = 0.0
    s = p.sum()
    if s <= 0:
        raise ArgumentError("every bin is flagged as deficit; nothing to solve")
    p /= s
    pt = op.matrix.T.tocsr()
    diff = np.inf
    for it in range(1, max_iters + 1):
        q = pt @ p
        q[op.flagged] = 0.0
        s = q.sum()
        if s <= 0:
            raise ConvergenceError(1.0, "all mass fell into the deficit region")
        q /= s
        diff = float(np.abs(q - p).sum())
        if diff <= tol:
            break
        p = 0.5 * (p + q)
    else:
        raise ConvergenceError(diff)
    return GridDensity(grid, q / widths, "stationary", iterations=it, residual=diff,
                       excluded=op.flagged.copy())


# ---------------------------------------------------------------------------
# spreading a tower measure over the ambient space


def spread_measure(m: MapSystem, F, mu_F: GridDensity, bins: int, j_cap: int | None = None) -> GridDensity:
    """Transport a tower-stationary measure over the ambient interval.

    Pushes ``mu_F`` restricted to ``{tau > j}`` forward by the base map
    ``j`` times and accumulates the results for ``j = 0 .. cap``, on a
    fresh grid of ``bins`` bins over the ambient domain.  Mass in the
    tower deficit region carries the censoring time ``tau_max + 1``.  The
    total mass equals the (censored) mean return time; the per-step mass
    still unaccounted for beyond the cap is attached as
    ``truncation_bound``.

    Each sliver of each bin is transported through ``_STRATA`` (16)
    stratified sample points, deterministically, so results are
    reproducible bit for bit.
    """
    if j_cap is None:
        j_cap = F.tau_max
    if j_cap < F.tau_max:
        raise ArgumentError(f"spread cap {j_cap} below the tower cap {F.tau_max}")
    F.check_density(mu_F)
    grid = Grid1D(m.domain.lo, m.domain.hi, bins)
    censor = F.tau_max + 1
    pieces = []  # (lo, hi, return time) of the cells and the deficit gaps, in order
    cursor = F.delta.lo
    for cell in F.cells:
        if cell.lo - cursor > 1e-15:
            pieces.append((cursor, cell.lo, censor))
        pieces.append((cell.lo, cell.hi, cell.tau))
        cursor = max(cursor, cell.hi)
    if F.delta.hi - cursor > 1e-15:
        pieces.append((cursor, F.delta.hi, censor))

    los, his, taus = zip(*pieces)
    owner, idx, starts, ends = bin_slivers(mu_F.grid, los, his)
    lens = ends - starts
    weights = mu_F.values[idx] * lens
    taus = np.asarray(taus)[owner]
    pts = stratified_points(starts, lens).ravel()
    w = np.repeat(weights / _STRATA, _STRATA)
    t = np.repeat(taus, _STRATA)

    acc = np.zeros(grid.n)
    censored_mass = float(weights[taus == censor].sum())
    max_steps = min(int(t.max()), j_cap + 1)
    for j in range(max_steps):
        active = t > j
        if not active.any():
            break
        pts, w, t = pts[active], w[active], t[active]
        np.add.at(acc, grid.locate(pts), w)
        pts = m.f_batch(pts)
    return GridDensity(grid, acc / grid.widths, "spread",
                       truncation_bound=censored_mass, cap=int(j_cap))
