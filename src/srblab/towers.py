"""Induced Markov maps: first-return towers over an interval.

An induced map collects the monotone branches of first returns to a base
interval ``delta``: each cell ``[lo, hi)`` returns after ``tau`` steps and
is mapped by ``f^tau`` onto ``delta``.  Every cell carries its
itinerary, the base branches its points visit before they return.  A
tower keeps its cells once, as the columns of one :class:`CellTable`, and
evaluates, inverts and locates points in batches only.

One walk, :func:`_walk`, evaluates every branch of a non-affine tower.  It
steps points through the base branches of their cells' itineraries:
forward through the continuous lifts, so the last step never wraps mod 1,
accumulating ``log |DF|`` and ``DF``, or back through the inverse branches,
so nothing is found by bisection.  Points of many cells go in one call,
with one mask per base branch and step; the points of one cell step
without masks.  Shared inverse chains are walked once:
:meth:`InducedMarkovMap.invert_cells` pulls one set of points (the Ulam
grid edges) back into a run of cells over the trie of their reversed
itineraries, one ``branch_inverse`` call per distinct suffix, and
:func:`first_return_map` walks a segment's cut points and the targets of
its pieces back in one chain.  The ends of cells and the images checked by
:func:`verify_axioms` take compensated (double-double) steps: a float
orbit that passes near a critical value keeps only ``ulp * |DF|`` of the
image, 1e-6 on depth-18 quadratic cells.  Towers of piecewise-affine maps
use their cells' exact affine data.

The three axioms checked by :func:`verify_axioms` are: every branch is a
bijection onto the base interval (full Markov returns), the inverse
branch derivatives are uniformly contracting, and the log-Jacobian of
each branch is Lipschitz in the image distance (bounded distortion).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import exp, log

import numpy as np

from .errors import (ArgumentError, ConstructionError, VerificationError)
from .maps import Interval, MapSystem
from .measures import GridDensity, Grid1D, interval_measure

_MAX_SEGMENTS = 200_000
_BLOCK = 1 << 12
#: Sample points per cell (at least) of the axiom and majorant checks and of tower.csv.
CELL_SAMPLES = 64
# axiom budgets: Markov defect per unit of base width, contraction, distortion
_ONTO_TOL = 1e-6
_KAPPA_CAP = 1.0 - 1e-9
_DISTORTION_CAP = 1e6


@dataclass(frozen=True, eq=False)
class CellTable:
    """The monotone first-return branches of a tower, one column each.

    Row ``i`` is the cell ``[lo[i], hi[i])`` with return time ``tau[i]``
    and orientation +1 or -1.  ``slope``/``intercept`` hold the exact
    affine data ``F(x) = slope*x + intercept`` (``slope`` is signed), and
    are ``None`` on non-affine tables.  Row ``i`` of the padded
    ``itineraries`` matrix lists the base branches of ``x, f x, ...,
    f^(tau-1) x`` for ``x`` in the cell, ``-1`` after its end; a non-affine
    cell is evaluated and inverted through it, so it must have ``tau``
    entries.  The rows are sorted by ``lo`` (stably) and the columns are
    read-only.  Neighbouring cells that overlap by at most 1e-12 are
    trimmed so that the later one owns the overlap: every point lies in
    one cell at most.

    Raises
    ------
    ConstructionError
        If a non-affine cell lacks its itinerary or two cells overlap.
    """

    lo: np.ndarray
    hi: np.ndarray
    tau: np.ndarray
    orientation: np.ndarray
    slope: np.ndarray | None = None
    intercept: np.ndarray | None = None
    itineraries: np.ndarray | None = None

    def __post_init__(self):
        order = np.argsort(np.asarray(self.lo, dtype=float), kind="stable")
        for name, dtype in (("lo", float), ("hi", float), ("tau", int), ("orientation", int),
                            ("slope", float), ("intercept", float), ("itineraries", None)):
            column = getattr(self, name)
            if column is not None:
                column = np.asarray(column, dtype=dtype)[order]
                column.flags.writeable = False
                object.__setattr__(self, name, column)

        def span(i):
            return f"[{float(self.lo[i])}, {float(self.hi[i])})"

        if self.slope is None:
            steps = 0 if self.itineraries is None else (self.itineraries >= 0).sum(axis=1)
            short = np.flatnonzero(steps != self.tau)
            if short.size:
                raise ConstructionError(f"non-affine cell {span(short[0])} needs an "
                                        f"itinerary of length {int(self.tau[short[0]])}")
        overlap = np.flatnonzero(self.lo[1:] < self.hi[:-1] - 1e-12)
        if overlap.size:
            i = overlap[0]
            raise ConstructionError(f"overlapping cells {span(i)} and {span(i + 1)}")
        # cell ends pulled back on separate chains can overlap their
        # neighbours by an ulp: the later cell keeps the overlap
        hi = np.append(np.minimum(self.hi[:-1], self.lo[1:]), self.hi[-1:])
        hi.flags.writeable = False
        object.__setattr__(self, "hi", hi)

    def __len__(self) -> int:
        return self.lo.size

    @cached_property
    def log_slope(self) -> np.ndarray:
        """``log |slope|`` of every affine cell, taken once by :func:`math.log`."""
        return np.array([log(abs(s)) for s in self.slope.tolist()])


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the three induced-map axiom checks."""

    markov_defect: float
    defect_cell: int
    kappa: float
    kappa_cell: int
    distortion: float
    distortion_cell: int
    distortion_multiplier: float
    comparison_constant: float
    diameter: float
    markov_ok: bool
    expansion_ok: bool
    distortion_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.markov_ok and self.expansion_ok and self.distortion_ok


class InducedMarkovMap:
    """First-return map of a base system to an interval.

    Attributes
    ----------
    base : MapSystem
        The underlying one-dimensional map.
    delta : Interval
        Base interval of the induction.
    cells : CellTable
        Monotone return branches, sorted and pairwise disjoint.
    tau_max : int
        Cap on tracked return times; longer returns live in the deficit.
    deficit : float
        Lebesgue mass of ``delta`` not covered by any cell.
    partial_mass : float
        Portion of the deficit caused by orbits re-entering ``delta``
        without covering it (non-Markov partial returns).
    affine : bool
        Whether the cells carry exact affine data.

    Points are evaluated, inverted and located in batches only; one point
    goes in as a batch of one.
    """

    def __init__(self, base: MapSystem, delta: Interval, cells: CellTable,
                 tau_max: int, partial_mass: float = 0.0):
        if base.dimension != 1:
            raise ConstructionError("towers are built over one-dimensional maps")
        self.affine = bool(cells) and cells.slope is not None
        self.base = base
        self.delta = delta
        self.cells = cells
        self.tau_max = int(tau_max)
        self.partial_mass = float(partial_mass)
        covered = 0.0
        for width in (cells.hi - cells.lo).tolist():
            covered += width  # cell by cell, in order
        self.deficit = max(delta.width - covered, 0.0)
        self.verification: VerificationReport | None = None

    # -- lookup ------------------------------------------------------------

    def cell_index_batch(self, xs: np.ndarray) -> np.ndarray:
        """Indices of the cells containing many points; deficit points get -1."""
        xs = np.asarray(xs, dtype=float)
        if not self.cells:
            return np.full(xs.shape, -1, dtype=int)
        los, his = self.cells.lo, self.cells.hi
        idx = np.searchsorted(los, xs, side="right") - 1  # at most n - 1
        clipped = np.maximum(idx, 0)
        ok = (idx >= 0) & (xs >= los[clipped]) & (xs < his[clipped])
        return np.where(ok, clipped, -1)

    def return_time(self, xs: np.ndarray, censor: int) -> np.ndarray:
        """Return times of many points: the cell's ``tau``, or ``censor`` in
        the deficit."""
        return np.append(self.cells.tau, censor)[self.cell_index_batch(xs)]

    # -- branch evaluation ---------------------------------------------------

    def evaluate(self, cells, xs: np.ndarray, jacobian: bool = False):
        """Branch images ``F(x)`` of points ``xs[k]`` of cells ``cells[k]`` (one
        index for all points); with ``jacobian``, ``(F(x), log |DF|, DF)``."""
        xs = np.asarray(xs, dtype=float)
        if not self.affine:
            return self._walk_cells(cells, xs, jacobian=jacobian)
        slope = self.cells.slope[cells]
        ys = slope * xs + self.cells.intercept[cells]
        if not jacobian:
            return ys
        return ys, np.full(xs.shape, self.cells.log_slope[cells]), np.full(xs.shape, slope)

    def invert(self, cells, ys: np.ndarray) -> np.ndarray:
        """Preimages of ``ys[k]`` in cells ``cells[k]``, indexed as in :meth:`evaluate`."""
        ys = np.asarray(ys, dtype=float)
        if not self.affine:
            return self._walk_cells(cells, ys, inverse=True)
        return (ys - self.cells.intercept[cells]) / self.cells.slope[cells]

    def invert_cells(self, ys: np.ndarray, lo: int, hi: int):
        """Preimages of all of ``ys`` in each of the cells ``lo .. hi - 1``,
        as ``(cell, xs)`` pairs.

        Affine cells invert in closed form, in cell order.  Non-affine
        cells come depth first over the trie of their reversed
        itineraries, built over the asked cells only: cells whose
        itineraries end alike share the inverse steps of that suffix, so
        each distinct suffix among them costs one ``branch_inverse`` call
        on all of ``ys``.  The pairs share their arrays; read each before
        asking for the next.
        """
        ys = np.asarray(ys, dtype=float)
        if self.affine:
            for i in range(lo, hi):
                yield i, self.invert(i, ys)
            return
        trie = {}  # branch -> subtrie; the key None lists the cells ending here
        for i, row, tau in zip(range(lo, hi), self.cells.itineraries[lo:hi].tolist(),
                               self.cells.tau[lo:hi].tolist()):
            node = trie
            for branch in reversed(row[:tau]):
                node = node.setdefault(branch, {})
            node.setdefault(None, []).append(i)

        def visit(node, xs):
            for branch, child in node.items():
                if branch is None:
                    yield from ((i, xs) for i in child)
                else:
                    yield from visit(child, self.base.branch_inverse(branch, xs))

        yield from visit(trie, ys)

    def _walk_cells(self, cells, xs, **kw):
        steps = self.cells.itineraries
        if isinstance(cells, (int, np.integer)):
            return _walk(self.base, steps[cells, :self.cells.tau[cells]].tolist(), None, xs, **kw)
        return _walk(self.base, steps, cells, xs, **kw)

    def check_density(self, mu: GridDensity) -> None:
        """Raise :class:`ArgumentError` unless ``mu`` is a unit-mass density
        on a grid over the base interval."""
        grid = mu.grid
        if not isinstance(grid, Grid1D) or abs(grid.lo - self.delta.lo) > 1e-9 \
                or abs(grid.hi - self.delta.hi) > 1e-9 or abs(mu.mass - 1.0) > 1e-8:
            raise ArgumentError(f"a tower density must have unit mass on the base interval; "
                                f"got mass {mu.mass!r} on {grid!r}")

    def __repr__(self):
        return (f"InducedMarkovMap({self.base.family}, delta=[{self.delta.lo:g}, "
                f"{self.delta.hi:g}), {len(self.cells)} cells, tau_max={self.tau_max}, "
                f"deficit={self.deficit:.3g})")


# ---------------------------------------------------------------------------
# constructions


def _table(rows, affine: bool) -> CellTable:
    """The cell table of ``(lo, hi, tau, orientation, slope, intercept,
    itinerary)`` rows, with the affine columns only if ``affine``."""
    lo, hi, tau, orientation, slope, intercept, itineraries = zip(*rows) if rows else ((),) * 7
    return CellTable(lo, hi, tau, orientation, slope if affine else None,
                     intercept if affine else None, _pad(itineraries))


def _pad(itineraries) -> np.ndarray:
    """Itineraries as the rows of one integer matrix, ``-1`` after their ends."""
    top = max((max(it) for it in itineraries if it), default=0)
    steps = np.full((len(itineraries), max(map(len, itineraries), default=0)), -1,
                    dtype=np.min_scalar_type(-top - 1))
    for r, itinerary in enumerate(itineraries):
        steps[r, :len(itinerary)] = itinerary
    return steps


def _walk(m: MapSystem, steps, rows, xs, inverse: bool = False,
          dd: bool = False, jacobian: bool = False):
    """Step points through the base branches of itineraries.

    Point ``k`` follows row ``rows[k]`` of the padded matrix ``steps``
    (``-1`` after its end), and the walk stops after the longest of those
    rows; with ``rows`` None every point follows the one itinerary
    ``steps``, with no masks.  Steps are ``branch_lift``, or with
    ``inverse`` ``branch_inverse`` from the last entry back, in
    double-double arithmetic with ``dd`` (``branch_lift_dd``,
    ``branch_inverse_dd``).  Returns the images; with ``jacobian`` (forward
    walks) also ``log |DF|`` and ``DF``, accumulated step by step.
    """
    if rows is None:
        columns = steps[::-1] if inverse else steps
    else:
        columns = range(steps.shape[1])
        if inverse:
            last = (steps[rows] >= 0).sum(axis=-1) - 1
    if dd:
        step = m.branch_inverse_dd if inverse else m.branch_lift_dd
    else:
        step = m.branch_inverse if inverse else m.branch_lift
    # one row rebinds its points at every step; masked rows write into a copy
    hi = np.asarray(xs, dtype=float) if rows is None else np.array(xs, dtype=float)
    lo = np.zeros(hi.shape) if dd else None
    logj, deriv = (np.zeros(hi.shape), np.ones(hi.shape)) if jacobian else (None, None)
    for column in columns:
        if rows is None:
            groups = ((column, ...),)
        else:
            if inverse:
                branch = np.where(last >= column, steps[rows, last - column], -1)
            else:
                branch = steps[rows, column]
            groups = [(i, sel) for i in range(m.n_branches) if (sel := branch == i).any()]
            if not groups:  # every row of the batch has ended
                break
        for i, sel in groups:
            x = hi if rows is None else hi[sel]
            if jacobian:
                d = m.branch_dlift(i, x)
                logj[sel] += np.log(np.maximum(np.abs(d), 1e-300))
                deriv[sel] *= d
            if rows is None:  # every point moves: rebind, no copy back
                hi, lo = step(i, x, lo) if dd else (step(i, x), None)
            elif dd:
                hi[sel], lo[sel] = step(i, x, lo[sel])
            else:
                hi[sel] = step(i, x)
    out = hi + lo if dd else hi
    return (out, logj, deriv) if jacobian else out


def _pull_back(seg, targets: np.ndarray, xs) -> np.ndarray:
    """Preimages of ``targets`` under ``f^k`` restricted to a monotone segment.

    Affine segments invert their accumulated affine map.  Otherwise ``xs``
    holds the targets walked back through the segment's itinerary, and
    targets at or beyond an end of the image go to the matching segment
    end.
    """
    xl, xh, yl, yh, orient, slope, _ = seg
    if slope is not None:
        # f^k on the segment is x -> slope*x + c with either endpoint pinning c
        c = (yl - slope * xl) if slope > 0 else (yh - slope * xl)
        return (targets - c) / slope
    xs = np.where(targets <= yl, xl if orient > 0 else xh, xs)
    return np.where(targets >= yh, xh if orient > 0 else xl, xs)


def first_return_map(m: MapSystem, delta: Interval, tau_max: int) -> InducedMarkovMap:
    """Track monotone pieces of ``f^k`` to build the first-return map to ``delta``.

    Pieces of the base interval are iterated forward; a piece whose image
    covers ``delta`` yields a return cell, a piece whose image only
    partially overlaps ``delta`` contributes the overlapping part to the
    (partial-return) deficit, and the rest keeps iterating until
    ``tau_max``.  Each piece records the base branches it has visited, and
    its endpoints are pulled back through their inverse branches (exactly,
    for piecewise-affine maps); an image overlap or sliver no longer than
    1e-14 counts as empty.  The targets of a segment's
    pieces are known from its image alone, so off affine maps they take
    one inverse step of their piece's branch and then walk back the
    segment's itinerary in one chain with the segment's own cut points.

    Raises
    ------
    ConstructionError
        If the piece count explodes (wild combinatorics) or the base map
        is not one-dimensional.
    """
    if m.dimension != 1:
        raise ConstructionError("first_return_map needs a one-dimensional map")
    if tau_max < 1:
        raise ArgumentError("tau_max must be at least 1")
    dlo, dhi = delta.lo, delta.hi
    if not (m.domain.contains(dlo) and m.domain.contains(dhi)) or not dhi > dlo:
        raise ArgumentError("induction interval must sit inside the map domain")
    cuts = np.asarray(m.interior_cuts(), dtype=float)
    affine = m.piecewise_affine
    xtol = 1e-14

    cells = []  # (lo, hi, tau, orientation, slope, intercept, itinerary)
    returns = []  # (tau, orientation, itinerary) of the non-affine cells
    partial_mass = 0.0
    # segment = (xl, xh, yl, yh, orient, slope, itinerary): f^k maps [xl,xh]
    # onto [yl,yh] through the k base branches listed in the itinerary
    segments = [(dlo, dhi, dlo, dhi, 1, 1.0 if affine else None, ())]
    for k in range(1, tau_max + 1):
        new_segments = []
        for seg in segments:
            yl, yh, orient, slope, itinerary = seg[2:]
            inner = cuts[(cuts > yl + xtol) & (cuts < yh - xtol)]
            bounds = np.concatenate([[yl], inner, [yh]])
            # the image side of each piece: its base branch, its image and
            # the targets [iyl, ilo, ihi, iyh] of one that overlaps delta.
            # A covering piece returns on [dlo, dhi]; a partial return
            # loses its overlap with delta to the deficit.
            sides = []
            for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
                if b - a <= 1e-15:
                    continue
                bi = m.branch_containing(0.5 * (a + b))
                ga, gb = (float(g) for g in m.branch_lift(bi, np.array([a, b])))
                iyl, iyh = (ga, gb) if ga <= gb else (gb, ga)
                overlap_lo, overlap_hi = max(iyl, dlo), min(iyh, dhi)
                covers = iyl <= dlo + xtol and iyh >= dhi - xtol
                ilo, ihi = (dlo, dhi) if covers else (overlap_lo, overlap_hi)
                targets = (np.array([iyl, ilo, ihi, iyh])
                           if overlap_hi - overlap_lo > xtol else None)
                sides.append((j, bi, ga, gb, covers, targets))
            if slope is None:
                firsts = [m.branch_inverse(bi, t) for _, bi, _, _, _, t in sides if t is not None]
                chain = _walk(m, itinerary, None, np.concatenate([bounds, *firsts]),
                              inverse=True)
                pre = _pull_back(seg, bounds, chain[:bounds.size])
                walked = iter(chain[bounds.size:].reshape(-1, 4))
            else:  # closed forms: nothing to walk
                pre, walked = _pull_back(seg, bounds, None), None
            for j, bi, ga, gb, covers, targets in sides:
                xs = next(walked) if walked is not None and targets is not None else None
                xa, xb = float(pre[j]), float(pre[j + 1])
                pxl, pxh = (xa, xb) if xa <= xb else (xb, xa)
                if pxh - pxl <= 1e-15:
                    continue
                iyl, iyh = (ga, gb) if ga <= gb else (gb, ga)
                new_orient = orient * (1 if gb >= ga else -1)
                new_slope = slope * (gb - ga) / (bounds[j + 1] - bounds[j]) if affine else None
                piece = (pxl, pxh, iyl, iyh, new_orient, new_slope, itinerary + (bi,))
                if targets is None:
                    new_segments.append(piece)
                    continue
                _, ilo, ihi, _ = targets.tolist()
                p = _pull_back(piece, targets, xs)
                if covers and new_slope is None:
                    returns.append((k, new_orient, piece[6]))
                elif covers:
                    clo, chi = sorted((float(p[1]), float(p[2])))
                    if chi - clo > 1e-15:
                        target = dlo if new_slope > 0 else dhi
                        cells.append((clo, chi, k, new_orient, new_slope,
                                      target - new_slope * clo, piece[6]))
                else:
                    partial_mass += abs(float(p[2]) - float(p[1]))
                # the parts clear of delta keep going either way
                for wlo, whi, ol, oh in ((iyl, ilo, p[0], p[1]), (ihi, iyh, p[2], p[3])):
                    if whi - wlo > xtol:
                        slo, shi = sorted((float(ol), float(oh)))
                        if shi - slo > 1e-15:
                            new_segments.append((slo, shi, wlo, whi, new_orient,
                                                 new_slope, piece[6]))
        if len(new_segments) > _MAX_SEGMENTS:
            raise ConstructionError(
                f"piece count exceeded {_MAX_SEGMENTS} at time {k}; "
                "the first-return combinatorics of this map are too wild")
        segments = new_segments
        if not segments:
            break
    if returns:
        ends = _walk(m, _pad([r[2] for r in returns]), np.repeat(np.arange(len(returns)), 2),
                     np.tile([dlo, dhi], len(returns)), inverse=True, dd=True)
        for (k, orient, itinerary), (cl, ch) in zip(returns, ends.reshape(-1, 2)):
            clo, chi = (cl, ch) if cl <= ch else (ch, cl)
            if chi - clo > 1e-15:
                cells.append((float(clo), float(chi), k, orient, None, None, itinerary))
    return InducedMarkovMap(m, delta, _table(cells, affine), tau_max, partial_mass)


# ---------------------------------------------------------------------------
# axiom verification


def cell_samples(F: InducedMarkovMap, counts: np.ndarray):
    """``np.linspace(lo, hi, counts[c])`` of every cell ``c`` (``counts >= 2``).

    Yields ``(cells, first, rows, xs)`` per block of whole cells: their
    indices, the offset of each one's first sample, the cell of each
    sample and the samples.  Blocks of about ``_BLOCK`` samples bound the
    memory of deep towers.
    """
    if not F.cells:
        return
    counts = np.asarray(counts, dtype=int)
    ends = np.cumsum(counts)
    bounds = np.flatnonzero(np.diff((ends - 1) // _BLOCK)) + 1
    for cells in np.split(np.arange(len(F.cells)), bounds):
        n = counts[cells]
        first = np.cumsum(n) - n
        rows = np.repeat(cells, n)
        los, his = F.cells.lo[cells], F.cells.hi[cells]
        k = np.arange(rows.size) - np.repeat(first, n)
        xs = k * np.repeat((his - los) / (n - 1), n) + np.repeat(los, n)
        xs[first + n - 1] = his
        yield cells, first, rows, xs


def verify_axioms(F: InducedMarkovMap) -> VerificationReport:
    """Check the Markov, uniform-expansion and bounded-distortion axioms.

    Each cell is sampled at ``max(CELL_SAMPLES, width/1e-4)``
    endpoint-inclusive points.  The report records the worst Markov
    image defect (endpoint images of non-affine cells are computed in
    compensated arithmetic), the contraction factor ``kappa = sup 1/|DF|``, the
    distortion constant (Lipschitz ratio of ``log |DF|`` against image
    separation) and the derived distortion multiplier
    ``exp(K * diam * kappa / (1 - kappa))`` together with its square, the
    cell-measure comparison constant.  The report is also stored on the
    tower, which downstream entropy routines require.

    Raises
    ------
    VerificationError
        If the tower has no cells.
    """
    if not F.cells:
        raise VerificationError("tower has no cells to verify")
    diameter = F.base.domain.width

    n = len(F.cells)
    ends = np.column_stack([F.cells.lo, F.cells.hi]).ravel()
    if F.affine:
        images = F.evaluate(np.arange(n).repeat(2), ends)
    else:
        # in compensated arithmetic: a plain forward orbit through the
        # critical value loses ~ulp * |DF|
        images = _walk(F.base, F.cells.itineraries, np.arange(n).repeat(2), ends, dd=True)
    images = images.reshape(-1, 2)
    defects = np.maximum(np.abs(images.min(axis=1) - F.delta.lo),
                         np.abs(images.max(axis=1) - F.delta.hi))
    kappas, distortions = np.empty(n), np.empty(n)
    counts = np.maximum(CELL_SAMPLES, np.ceil((F.cells.hi - F.cells.lo) / 1e-4).astype(int))
    for cells, first, rows, xs in cell_samples(F, counts):
        imgs, logj, _ = F.evaluate(rows, xs, jacobian=True)
        kappas[cells] = np.exp(-np.minimum.reduceat(logj, first))
        # neighbouring samples of one cell; affine cells give ratio 0
        sep = np.abs(np.diff(imgs))
        usable = (rows[1:] == rows[:-1]) & (sep > 1e-9)
        ratios = np.divide(np.abs(np.diff(logj)), sep, out=np.zeros(sep.shape), where=usable)
        distortions[cells] = np.maximum.reduceat(ratios, first)
    # each worst value with the first cell that has it
    (defect, defect_cell), (kappa, kappa_cell), (distortion, distortion_cell) = (
        (float(v.max()), int(v.argmax())) for v in (defects, kappas, distortions))
    if kappa >= 1.0:
        multiplier = float("inf")
        comparison = float("inf")
    else:
        multiplier = exp(distortion * diameter * kappa / (1.0 - kappa))
        comparison = multiplier ** 2
    report = VerificationReport(
        markov_defect=defect, defect_cell=defect_cell,
        kappa=kappa, kappa_cell=kappa_cell,
        distortion=distortion, distortion_cell=distortion_cell,
        distortion_multiplier=multiplier,
        comparison_constant=comparison,
        diameter=diameter,
        markov_ok=defect <= _ONTO_TOL * F.delta.width,
        expansion_ok=kappa < _KAPPA_CAP,
        distortion_ok=distortion <= _DISTORTION_CAP,
    )
    F.verification = report
    return report


# ---------------------------------------------------------------------------
# comparing and weighing towers


def return_time_l1_distance(F1: InducedMarkovMap, F2: InducedMarkovMap) -> float:
    """Lebesgue L1 distance between two towers' return-time functions.

    Both return times are censored at the shared value
    ``max(tau_max_1, tau_max_2) + 1`` on their deficit regions, so towers
    of the same map built with different caps differ only through mass
    beyond the smaller cap.

    Raises
    ------
    ArgumentError
        If the towers live over different base intervals.
    """
    if abs(F1.delta.lo - F2.delta.lo) > 1e-12 or abs(F1.delta.hi - F2.delta.hi) > 1e-12:
        raise ArgumentError("towers live over different base intervals")
    censor = max(F1.tau_max, F2.tau_max) + 1
    pts = np.unique(np.concatenate([[F1.delta.lo, F1.delta.hi], F1.cells.lo, F1.cells.hi,
                                    F2.cells.lo, F2.cells.hi]))
    mids = 0.5 * (pts[:-1] + pts[1:])
    t1, t2 = (F.return_time(mids, censor) for F in (F1, F2))
    total = 0.0
    for term in (np.abs(t1 - t2) * np.diff(pts)).tolist():
        total += term  # piece by piece: the sum keeps its order
    return total


def kac_breakdown(F: InducedMarkovMap, mu: GridDensity) -> tuple[float, float]:
    """Mean return time split into (cell part, censored deficit part).

    ``mu`` must be a unit-mass density on the base interval.  The deficit
    region is weighed with the censoring time ``tau_max + 1``.
    """
    F.check_density(mu)
    covered = 0.0
    covered_measure = 0.0
    for tau, w in zip(F.cells.tau.tolist(), interval_measure(mu, F.cells.lo, F.cells.hi).tolist()):
        covered += tau * w
        covered_measure += w
    censored = (F.tau_max + 1) * max(1.0 - covered_measure, 0.0)
    return covered, censored


def kac_mass(F: InducedMarkovMap, mu: GridDensity) -> float:
    """Censored mean return time ``integral tau d mu`` over the tower.

    Equals the total mass of the spread of ``mu`` over the ambient space;
    deficit mass carries the censoring time ``tau_max + 1``.
    """
    covered, censored = kac_breakdown(F, mu)
    return covered + censored
