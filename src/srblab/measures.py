"""Grid densities, transfer-operator discretisation and measure transport.

Densities are piecewise constant on grids and always carry their
reference-Lebesgue normalisation: ``mass = sum(value * cell_width)``.  A
:class:`Grid1D` is a set of interval bins, regular unless given its
edges; the one-step Ulam mesh of a 1D map with a critical set is graded
toward the map's postcritical points (:func:`postcritical_grid`).  The
cylinder grid :class:`Grid2D` is the product of two such grids, a theta
axis over the circle and an x axis over the fibre interval; its binning,
cell areas and edges are the axes'.  The Ulam
discretisation of a map or induced map is a sparse row-stochastic matrix
whose ``(i, j)`` entry is the Lebesgue fraction of bin ``i`` sent into
bin ``j``, assembled from the exact inverse branches of the map
(``MapSystem.branch_inverse``) or of the tower's cells; rows under an
induced map sum to one minus the local mass deficit.  Each monotone
piece is cut at the preimages of the grid edges, merged with the grid
edges inside it without a sort, and the order of those preimages also
gives every sliver its target bin.  The slivers stream into CSR rows
that are written as soon as they are complete, each entry the sum of
its slivers in piece order; the sampled cylinder matrix is written
likewise, one chunk of bins at a time.  Each chunk is copied into the
final CSR arrays at once, and a tower's cells are inverted a window at
a time, so the assembly holds the matrix, one chunk and one window of
edge preimages, never cells x bins.  scipy holds the finished matrix
and multiplies by it.  Stationary densities are found by one lazy
iteration started from Lebesgue, which cannot stall on maps that swap
bands, and never by dense factorisation, so towers with thousands of
bins stay cheap.

Integrals and transports share one stratification in both dimensions:
an interval is cut into its slivers with :func:`bin_slivers`, and each
sliver or bin is sampled at the stratum midpoints of
:func:`stratified_points`; a cylinder bin takes the product of its two
axes' strata (``Grid2D.bin_points``).  ``spread_measure`` and the
cylinder Ulam sampler here, and the Pesin and induced quadratures of
:mod:`srblab.entropy`, all use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError, ConstructionError, ConvergenceError
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

# pending slivers past which the Ulam assembly writes its complete rows;
# also the most sample points of one chunk of the cylinder assembly
_ASSEMBLY_CHUNK = 1 << 16
# edge preimages held at once by the tower Ulam assembly: the cells are
# inverted in windows of consecutive cells with at most this many inner-edge
# preimages (a cell with more is a window of its own)
_WINDOW = 1 << 19


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Grid of ``n`` bins over ``[lo, hi]``.

    The grid is regular unless ``edges`` is given: then it holds the
    ``n + 1`` bin edges of a graded mesh, strictly increasing from ``lo``
    to ``hi``.  Regular grids (also one given the evenly spaced edges)
    keep closed-form arithmetic for ``locate`` and ``widths``; graded ones
    work from their edges.  Two grids are equal when their edges are.
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
    def shape(self):
        return (self.n,)

    @property
    def axes(self) -> tuple:
        return (self,)

    def locate(self, x: np.ndarray) -> np.ndarray:
        """Bin indices of points (clipped into range); bin ``k`` is
        ``[edges[k], edges[k + 1])``."""
        x = np.asarray(x)
        if not self.regular:
            idx = np.searchsorted(self.edges, x, side="right") - 1
            return np.minimum(np.maximum(idx, 0), self.n - 1)
        w = (self.hi - self.lo) / self.n
        idx = np.minimum(np.maximum(np.floor((x - self.lo) / w).astype(int), 0), self.n - 1)
        # the rounded quotient can be one bin off next to an edge (an inner
        # edge itself may fall below it); the edges settle it
        idx = idx + (x >= self.edges[idx + 1]) - (x < self.edges[idx])
        return np.minimum(np.maximum(idx, 0), self.n - 1)

    def bin_points(self, strata: int) -> np.ndarray:
        """The :func:`stratified_points` of every bin, shape ``(n, strata)``."""
        return stratified_points(self.edges[:-1], self.widths, strata)


@dataclass(frozen=True)
class Grid2D:
    """Product grid on the cylinder: a ``theta`` grid over the circle
    ``[0, 1)`` times an ``x`` grid over the fibre interval.

    Flat bin ``i * x.n + j`` is theta bin ``i`` times fibre bin ``j``, and
    everything else comes from the two axes: ``locate`` bins each
    coordinate on its axis, ``widths`` are the cell areas (the products of
    the axes' widths) and the edges are the axes' edges.
    """

    theta: Grid1D
    x: Grid1D

    @property
    def axes(self) -> tuple:
        return (self.theta, self.x)

    @property
    def shape(self):
        return (self.theta.n, self.x.n)

    @property
    def n(self) -> int:
        return self.theta.n * self.x.n

    @property
    def widths(self) -> np.ndarray:
        """Cell areas, one per flat bin, as ``Grid1D.widths`` are bin lengths."""
        return np.outer(self.theta.widths, self.x.widths).ravel()

    def locate(self, pts: np.ndarray) -> np.ndarray:
        """Flat bin indices of cylinder points, shape (n,)."""
        pts = np.asarray(pts)
        return self.theta.locate(pts[:, 0]) * self.x.n + self.x.locate(pts[:, 1])

    def product_points(self, ts: np.ndarray, xs: np.ndarray, bins: np.ndarray) -> np.ndarray:
        """Points of the flat bins ``bins``, shape ``(len(bins), s * r, 2)``.

        Row ``i`` of ``ts`` holds the ``s`` theta strata of theta bin ``i``
        and row ``j`` of ``xs`` the ``r`` fibre strata of fibre bin ``j``; a
        bin gets their product, theta-major.
        """
        it, ix = np.divmod(bins, self.x.n)
        pts = np.empty((len(bins), ts.shape[1], xs.shape[1], 2))
        pts[..., 0] = ts[it][:, :, None]
        pts[..., 1] = xs[ix][:, None, :]
        return pts.reshape(len(bins), -1, 2)

    def bin_points(self, strata: int) -> np.ndarray:
        """Stratified points of every bin: the product of ``sqrt(strata)``
        stratum midpoints on each axis, shape ``(n, strata, 2)``."""
        side = math.isqrt(strata)
        return self.product_points(self.theta.bin_points(side), self.x.bin_points(side),
                                   np.arange(self.n))


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
    """

    grid: Grid1D | Grid2D
    values: np.ndarray
    provenance: str = "external"
    truncation_bound: float = 0.0
    iterations: int = 0
    residual: float = 0.0
    excluded: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "values", v)
        if v.size != self.grid.n:
            raise ArgumentError("density values do not match the grid")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ArgumentError("density values must be finite and nonnegative")
        if self.provenance not in ("stationary", "spread", "normalized", "external"):
            raise ArgumentError(f"unknown provenance {self.provenance!r}")

    @property
    def bin_measures(self) -> np.ndarray:
        return self.values * self.grid.widths

    @property
    def mass(self) -> float:
        return float(self.bin_measures.sum())


def lebesgue_density(grid: Grid1D | Grid2D) -> GridDensity:
    """Normalised Lebesgue measure on the grid (unit mass)."""
    volume = math.prod(axis.hi - axis.lo for axis in grid.axes)
    return GridDensity(grid, np.full(grid.n, 1.0 / volume), "external")


def l1_distance(d1: GridDensity, d2: GridDensity) -> float:
    """L1 distance between two densities on the same grid: the same number
    of axes, each with the same bin count, the same regularity and edges
    within 1e-12."""
    a1, a2 = d1.grid.axes, d2.grid.axes
    if len(a1) != len(a2) or any(
            g.n != h.n or g.regular != h.regular or np.abs(g.edges - h.edges).max() > 1e-12
            for g, h in zip(a1, a2)):
        raise ArgumentError("densities live on different grids")
    diff = np.abs(d1.values - d2.values)
    if all(g.regular for g in a1):
        return float(diff.sum() * d1.grid.widths[0])  # equal widths
    return float((diff * d1.grid.widths).sum())


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


def _inner_edges(grid: Grid1D, ia, ib):
    """Ranges ``[k0, k1)`` of the grid edges inside the images of pieces
    with end values ``ia``, ``ib``: the edges more than 1e-15 inside
    ``[min(ia, ib), max(ia, ib)]``."""
    k0 = np.searchsorted(grid.edges, np.minimum(ia, ib) + 1e-15, side="right")
    k1 = np.searchsorted(grid.edges, np.maximum(ia, ib) - 1e-15, side="left")
    return k0, np.maximum(k1, k0)


def _piece_slivers(grid: Grid1D, xlo: float, xhi: float, cuts: np.ndarray, k0: int,
                   increasing: bool, pre: np.ndarray, name: str):
    """Split a monotone piece ``[xlo, xhi]`` into slivers that map into a
    single target bin and lie in a single source bin.

    ``cuts`` are the grid edges inside the piece and ``pre`` the piece
    preimages of the edges ``edges[k0:k0 + len(pre)]`` inside its image
    (both by :func:`_inner_edges`).  Clipped into the piece, the
    preimages are monotone, ordered like the edges (``increasing``) or in
    reverse, so one ``searchsorted`` merges the cuts into them, no sort:
    the slivers run between consecutive points of ``xlo``, the merged
    points and ``xhi``, and those no longer than 1e-15 are dropped.  A
    sliver's target bin follows from the number of preimages up to its
    start, so the piece map is never evaluated; its source bin is the bin
    of its midpoint, or the piece's one bin when both ends lie in it.
    Returns each sliver's source bin, target bin and length, as (rows,
    columns, lengths) with the narrowest index type, in increasing order.

    Raises
    ------
    ConstructionError
        If the preimages, clipped into the piece, are not monotone.
    """
    pre = np.minimum(np.maximum(pre, xlo), xhi)
    steps = np.diff(pre)
    if (steps < 0).any() if increasing else (steps > 0).any():
        raise ConstructionError(f"{name} [{xlo!r}, {xhi!r}): the preimages of the grid edges "
                                f"are not monotone")
    if not increasing:
        pre = pre[::-1]
    at = np.searchsorted(pre, cuts)
    points = np.concatenate([[xlo], np.insert(pre, at, cuts), [xhi]])
    at += np.arange(1, cuts.size + 1)  # the places of the cuts among the points
    starts, ends = points[:-1], points[1:]
    keep = np.flatnonzero(ends - starts > 1e-15)
    starts, ends = starts[keep], ends[keep]
    # the preimages among points[1 .. j] for a sliver starting at point j:
    # those no greater than its start, so no greater than its midpoint
    below = keep - np.searchsorted(at, keep, side="right")
    if not increasing:  # the preimages above the midpoint of a sliver
        below = pre.size - below
    index = np.int32 if grid.n < 2 ** 31 else np.int64
    columns = np.minimum(np.maximum(below + (k0 - 1), 0), grid.n - 1).astype(index)
    first, last = grid.locate(np.array([xlo, xhi]))
    if first == last:
        rows = np.full(keep.size, first, dtype=index)
    else:
        rows = grid.locate(0.5 * (starts + ends)).astype(index)
    return rows, columns, ends - starts


class _CsrWriter:
    """The CSR arrays of an ``n x n`` matrix, written in blocks of complete rows.

    Each block is put in CSR order on its own, its duplicates added up in
    the order they arrive (:meth:`write`), and copied into ``indices`` and
    ``data``, which are allocated once, grown in place
    (``ndarray.resize``) and trimmed to the entries before :meth:`matrix`
    hands them to the CSR constructor (which copies arrays more than
    twice their used length).  No block outlives its copy, and the whole
    matrix is never copied.
    """

    def __init__(self, n: int):
        self.n, self.nnz = n, 0
        index = np.int32 if n < 2 ** 31 else np.int64
        self.indptr = np.zeros(n + 1, dtype=index)
        self.indices, self.data = np.empty(0, dtype=index), np.empty(0)

    def write(self, src, dst, val, lo: int, hi: int) -> None:
        """Append rows ``lo .. hi - 1`` from their (row, column, value)
        entries, every entry of those rows and no other.

        A stable sort orders the entries by row and column, so the entries
        of one (row, column) keep their input order, and ``np.bincount``
        over the runs of equal keys adds each run up from left to right
        into the one stored value of that (row, column).
        """
        n = self.n
        key = (src - lo).astype(np.int32 if (hi - lo) * n < 2 ** 31 else np.int64)
        key *= n
        key += dst  # in place: the key keeps its narrow type
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        data = np.bincount(np.cumsum(first) - 1, weights=val[order])
        key = key[first]
        end = self.nnz + key.size
        if end > self.data.size:
            size = max(end, self.data.size * 3 // 2)
            self.indices.resize(size, refcheck=False)  # no views of them exist
            self.data.resize(size, refcheck=False)
        self.indices[self.nnz:end] = key % n
        self.data[self.nnz:end] = data
        self.indptr[lo + 1:hi + 1] = np.searchsorted(key, np.arange(1, hi - lo + 1) * n) + self.nnz
        self.nnz = end

    def matrix(self) -> sp.csr_matrix:
        self.indices.resize(self.nnz, refcheck=False)
        self.data.resize(self.nnz, refcheck=False)
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))


def _write_rows(out: _CsrWriter, pending, lo: int, hi: int, widths, covered):
    """Write the pending slivers of rows ``lo .. hi - 1`` (every sliver of
    those rows) to ``out`` and add their lengths up into ``covered``, each
    row in sliver order; returns the slivers left."""
    src, dst, ln = (np.concatenate(part) for part in zip(*pending))
    ready = src < hi
    left = [(src[~ready], dst[~ready], ln[~ready])]
    # rebound, so the concatenations are freed before the write
    src, dst, ln = src[ready], dst[ready], ln[ready]
    covered[lo:hi] = np.bincount(src - lo, weights=ln, minlength=hi - lo)
    ln /= widths[src]  # in place: the lengths become the entries
    out.write(src, dst, ln, lo, hi)
    return left


def _assemble_rows(grid: Grid1D, pieces) -> UlamOperator:
    """Build the transfer matrix from the slivers of monotone pieces.

    ``pieces`` yields ``(lo, rows, columns, lengths)`` per piece
    (:func:`_piece_slivers`), with the pieces' left ends ``lo``
    nondecreasing, so every row below the bin of ``lo`` is complete when a
    piece arrives.  Once more than ``_ASSEMBLY_CHUNK`` slivers are pending,
    the complete rows are put in CSR order and copied into the final
    arrays by :class:`_CsrWriter`: working memory follows the chunk and
    the matrix, not the slivers of all pieces.  Each entry and each row's
    ``covered`` length add up their slivers in piece order (and in
    increasing order within a piece) from left to right, the order of a
    cell-by-cell loop, so chunk boundaries change no bit.
    """
    widths = grid.widths
    covered = np.zeros(grid.n)
    empty = np.empty(0, dtype=np.int32)
    out = _CsrWriter(grid.n)
    pending, size, done = [(empty, empty, np.empty(0))], 0, 0
    for lo, src, dst, ln in pieces:
        if size > _ASSEMBLY_CHUNK and (boundary := int(grid.locate(lo))) > done:
            pending = _write_rows(out, pending, done, boundary, widths, covered)
            size, done = pending[0][0].size, boundary
        if src.size == 0:
            continue
        pending.append((src, dst, ln))
        size += src.size
    _write_rows(out, pending, done, grid.n, widths, covered)
    frac = covered / widths
    row_deficit = np.clip(1.0 - frac, 0.0, 1.0)
    flagged = frac < 1e-9
    return UlamOperator(grid, out.matrix(), row_deficit, flagged)


def _windows(counts: np.ndarray):
    """Split cells with ``counts`` edge preimages into runs ``(a, b)`` of
    consecutive cells with at most ``_WINDOW`` preimages each, or one cell."""
    a, held = 0, 0
    for i, c in enumerate(counts.tolist()):
        if held + c > _WINDOW and i > a:
            yield a, i
            a, held = i, 0
        held += c
    yield a, len(counts)


def ulam_matrix(F, bins: int) -> UlamOperator:
    """Ulam matrix of an induced map on a grid over its base interval.

    Entries come from exact branch inverses (closed form for affine
    branches, the base map's inverse branches composed along the cell
    itinerary otherwise), so each row sums to one minus the local deficit
    fraction without sampling noise.  One masked ``F.evaluate`` call gives
    the ends of every cell, and with them the grid edges inside each
    cell's image; no other point walks forward.  The cells go in windows
    of consecutive cells holding at most ``_WINDOW`` such inner edges
    between them.  :meth:`InducedMarkovMap.invert_cells` pulls every grid
    edge back into each cell of a window, inverting each itinerary suffix
    shared within the window once, and a cell keeps a copy of its inner
    edges' preimages, which fix both its cuts and its slivers' target
    bins.  The window's cells are then cut in cell order, each copy
    dropped as its cell is cut, before the next window is inverted, so
    the preimages held at once follow the window, not cells x bins.  The
    slivers stream into the row by row assembly of :func:`_assemble_rows`.
    """
    if bins < 1:
        raise ArgumentError("ulam_matrix needs at least one bin")
    grid = Grid1D(F.delta.lo, F.delta.hi, bins)
    los, his = F.cells.lo, F.cells.hi
    ends = np.column_stack([los, his]).ravel()
    ia, ib = F.evaluate(np.repeat(np.arange(len(los)), 2), ends).reshape(-1, 2).T
    k0, k1 = _inner_edges(grid, ia, ib)
    j0, j1 = _inner_edges(grid, los, his)

    def pieces():
        for a, b in _windows(k1 - k0):
            pres = {i: pre[k0[i]:k1[i]].copy() for i, pre in F.invert_cells(grid.edges, a, b)}
            for i, (lo, hi) in enumerate(zip(los[a:b].tolist(), his[a:b].tolist()), a):
                yield lo, *_piece_slivers(grid, lo, hi, grid.edges[j0[i]:j1[i]], k0[i],
                                          ia[i] <= ib[i], pres.pop(i), f"cell {i}")

    return _assemble_rows(grid, pieces())


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
    # a pin's neighbour pin reaches it through a rounded sum: restore the pins
    edges[nodes] = [pins[i] for i in nodes]
    return Grid1D(lo, hi, bins, edges)


def one_step_ulam(m: MapSystem, bins: int) -> UlamOperator:
    """Ulam matrix of the raw map on its ambient domain.

    One-dimensional maps use exact branch inverses on
    :func:`postcritical_grid`: graded toward the postcritical points of a
    map with a critical set, where the invariant density has inverse
    square-root spikes that a regular mesh resolves only slowly, and
    regular otherwise.  The cylinder skew product falls back to
    stratified sampling (``_CYLINDER_SIDE^2`` points per bin, the product
    of the axes' ``bin_points``) on a regular grid since its bins are not
    intervals.  It samples chunks of whole bins, at most
    ``_ASSEMBLY_CHUNK`` points and one map call each, and writes each
    chunk's rows, which are complete, into the final CSR arrays through
    :class:`_CsrWriter`, as the tower assembly does.  So working memory
    follows the chunk and the matrix, not the sample.  Every entry is a
    sum of ``1 / _CYLINDER_SIDE^2``, a power of two, so the sums are
    exact in any order and the matrix equals a single COO -> CSR
    conversion of all points bit for bit.
    """
    if bins < 1:
        raise ArgumentError("one_step_ulam needs at least one bin")
    if m.dimension == 1:
        grid = postcritical_grid(m, bins)
        bounds = [m.branch_bounds(i) for i in range(m.n_branches)]
        ia, ib = np.array([m.branch_lift(i, np.array(b)) for i, b in enumerate(bounds)]).T
        k0, k1 = _inner_edges(grid, ia, ib)
        j0, j1 = _inner_edges(grid, *np.array(bounds).T)
        pieces = ((lo, *_piece_slivers(grid, lo, hi, grid.edges[j0[i]:j1[i]], k0[i],
                                       ia[i] <= ib[i],
                                       m.branch_inverse(i, grid.edges[k0[i]:k1[i]]),
                                       f"branch {i}"))
                  for i, (lo, hi) in enumerate(bounds))
        return _assemble_rows(grid, pieces)

    n_theta = max(int(round(bins ** 0.5)), 1)
    n_x = max(bins // n_theta, 1)
    grid = Grid2D(Grid1D(0.0, 1.0, n_theta), Grid1D(m.domain.lo, m.domain.hi, n_x))
    nper = _CYLINDER_SIDE ** 2
    # each axis's own strata, as in the Pesin quadrature
    ts, xs = (axis.bin_points(_CYLINDER_SIDE) for axis in grid.axes)
    chunk = max(_ASSEMBLY_CHUNK // nper, 1)
    out = _CsrWriter(grid.n)
    for b0 in range(0, grid.n, chunk):
        b1 = min(b0 + chunk, grid.n)
        cols = grid.locate(m.f_batch(grid.product_points(ts, xs, np.arange(b0, b1))
                                     .reshape(-1, 2)))
        rows = np.repeat(np.arange(b0, b1), nper)
        out.write(rows, cols, np.full(rows.size, 1.0 / nper), b0, b1)
    return UlamOperator(grid, out.matrix(), np.zeros(grid.n), np.zeros(grid.n, dtype=bool))


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
    widths = grid.widths
    p = widths / widths.sum()
    p[op.flagged] = 0.0
    s = p.sum()
    if s <= 0:
        raise ArgumentError("every bin is flagged as deficit; nothing to solve")
    p /= s
    # the CSC view of P^T adds each output's terms in increasing row order
    # of P, as a CSR copy of P^T would, without building that copy
    pt = op.matrix.T
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


def spread_measure(m: MapSystem, F, mu_F: GridDensity, bins: int) -> GridDensity:
    """Transport a tower-stationary measure over the ambient interval.

    Pushes ``mu_F`` restricted to ``{tau > j}`` forward by the base map
    ``j`` times and accumulates the results for ``j = 0 .. tau_max``, on
    a fresh grid of ``bins`` bins over the ambient domain.  Mass in the
    tower deficit region carries the censoring time ``tau_max + 1``.  The
    total mass equals the (censored) mean return time; the per-step mass
    still unaccounted for beyond ``tau_max`` is attached as
    ``truncation_bound``.

    The base interval is cut at the sorted cell ends into the cells and
    the deficit gaps, and each piece takes its return time from
    ``F.return_time``.  Each sliver of each bin is transported through
    ``_STRATA`` (16) stratified sample points, deterministically, so
    results are reproducible bit for bit.
    """
    F.check_density(mu_F)
    grid = Grid1D(m.domain.lo, m.domain.hi, bins)
    censor = F.tau_max + 1
    # the pieces between consecutive cell ends: the cells and the deficit gaps
    cuts = np.unique(np.concatenate([[F.delta.lo, F.delta.hi], F.cells.lo, F.cells.hi]))
    owner, idx, starts, ends = bin_slivers(mu_F.grid, cuts[:-1], cuts[1:])
    taus = F.return_time(0.5 * (cuts[:-1] + cuts[1:]), censor)[owner]
    lens = ends - starts
    weights = mu_F.values[idx] * lens
    pts = stratified_points(starts, lens).ravel()
    w = np.repeat(weights / _STRATA, _STRATA)
    t = np.repeat(taus, _STRATA)

    acc = np.zeros(grid.n)
    censored_mass = float(weights[taus == censor].sum())
    for j in range(int(t.max())):
        active = t > j
        pts, w, t = pts[active], w[active], t[active]
        np.add.at(acc, grid.locate(pts), w)
        pts = m.f_batch(pts)
    return GridDensity(grid, acc / grid.widths, "spread", truncation_bound=censored_mass)
