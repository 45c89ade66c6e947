"""Discretized transfer operators, stationary densities and the spreading step."""

import dataclasses
import math
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import scipy.sparse as sp

import srblab as sl
from srblab.maps import PerturbedDoublingMap
from srblab.measures import _inner_edges, _piece_slivers, bin_slivers, postcritical_grid


def _dense(op):
    M = op.matrix
    return M.toarray() if hasattr(M, "toarray") else np.asarray(M)


class TestGridsAndDensities:
    def test_lebesgue_density_is_flat_with_unit_mass(self):
        grid = sl.Grid1D(0.0, 2.0, 8)
        leb = sl.lebesgue_density(grid)
        np.testing.assert_allclose(leb.values, 0.5)
        assert leb.mass == pytest.approx(1.0)

    def test_density_rejects_negative_values(self):
        grid = sl.Grid1D(0.0, 1.0, 4)
        with pytest.raises(sl.ArgumentError):
            sl.GridDensity(grid=grid, values=np.array([1.0, -0.1, 1.0, 1.0]),
                           provenance="external")

    def test_density_rejects_nonfinite_values(self):
        grid = sl.Grid1D(0.0, 1.0, 4)
        with pytest.raises(sl.ArgumentError):
            sl.GridDensity(grid=grid, values=np.array([1.0, np.nan, 1.0, 1.0]),
                           provenance="external")

    def test_density_rejects_unknown_provenance(self):
        grid = sl.Grid1D(0.0, 1.0, 2)
        with pytest.raises(sl.ArgumentError, match="provenance"):
            sl.GridDensity(grid=grid, values=np.ones(2), provenance="guesswork")

    def test_interval_measure_of_flat_density_is_length_fraction(self):
        leb = sl.lebesgue_density(sl.Grid1D(0.0, 1.0, 16))
        assert sl.interval_measure(leb, 0.25, 0.75) == pytest.approx(0.5)
        # partial bins are prorated
        assert sl.interval_measure(leb, 0.0, 0.03125) == pytest.approx(0.03125)

    def test_l1_distance_basics(self, mu_tent2, mu_quadratic):
        assert sl.l1_distance(mu_tent2, mu_tent2) == 0.0
        # a regular grid multiplies the summed differences by its one width
        grid = sl.Grid1D(0.0, 1.0, 1000)
        a, b = np.random.default_rng(0).uniform(0.0, 2.0, (2, 1000))
        d = sl.l1_distance(sl.GridDensity(grid, a), sl.GridDensity(grid, b))
        assert d == float(np.abs(a - b).sum() * 0.001) == 0.6768506774234477
        leb = sl.lebesgue_density(mu_quadratic.grid)
        d = sl.l1_distance(mu_quadratic, leb)
        assert d == sl.l1_distance(leb, mu_quadratic)
        assert 0.0 < d < 2.0

    def test_graded_grid_bins_follow_its_edges(self):
        grid = sl.Grid1D(0.0, 1.0, 3, np.array([0.0, 0.1, 0.5, 1.0]))
        assert not grid.regular
        np.testing.assert_allclose(grid.widths, [0.1, 0.4, 0.5])
        pts = np.array([-1.0, 0.0, 0.05, 0.1, 0.49, 0.5, 0.99, 1.0, 2.0])
        np.testing.assert_array_equal(grid.locate(pts), [0, 0, 0, 1, 1, 2, 2, 2, 2])
        leb = sl.lebesgue_density(grid)
        assert leb.mass == pytest.approx(1.0)
        assert sl.interval_measure(leb, 0.05, 0.3) == pytest.approx(0.25)

    @pytest.mark.parametrize("edges,match", [
        ([0.0, 0.5, 0.5, 1.0], "strictly increasing"),
        ([0.0, 0.6, 0.4, 1.0], "strictly increasing"),
        ([0.0, 0.5, 1.0], "needs 4 edges"),
        ([0.1, 0.4, 0.6, 1.0], "from lo to hi"),
        ([0.0, 0.4, 0.6, 0.9], "from lo to hi"),
    ])
    def test_graded_grid_rejects_bad_edges(self, edges, match):
        with pytest.raises(sl.ArgumentError, match=match):
            sl.Grid1D(0.0, 1.0, 3, np.array(edges))

    def test_regular_grid_arithmetic_is_unchanged(self):
        grid = sl.Grid1D(-2.0, 2.0, 7)
        w = 4.0 / 7
        assert grid.regular
        np.testing.assert_array_equal(grid.edges, np.linspace(-2.0, 2.0, 8))
        np.testing.assert_array_equal(grid.widths, np.full(7, w))
        x = np.linspace(-2.5, 2.5, 101)
        np.testing.assert_array_equal(
            grid.locate(x), np.clip(np.floor((x + 2.0) / w).astype(int), 0, 6))
        assert grid == sl.Grid1D(-2.0, 2.0, 7, np.linspace(-2.0, 2.0, 8))

    @pytest.mark.parametrize("lo,hi,sizes", [(0.0, 1.0, range(2, 300)), (-1.75, 1.75, [70])])
    def test_regular_grid_puts_each_inner_edge_in_the_bin_it_opens(self, lo, hi, sizes):
        # bins are [edges[k], edges[k + 1]): inner edge k opens bin k, and
        # the float just below it still lies in bin k - 1
        for n in sizes:
            grid = sl.Grid1D(lo, hi, n)
            inner = grid.edges[1:-1]
            assert grid.locate(inner).tolist() == list(range(1, n)), n
            below = np.nextafter(inner, -np.inf)
            assert grid.locate(below).tolist() == list(range(n - 1)), n

    def test_l1_distance_weighs_graded_bins_by_width(self):
        grid = sl.Grid1D(0.0, 1.0, 2, np.array([0.0, 0.25, 1.0]))
        d1 = sl.GridDensity(grid, np.array([2.0, 2.0 / 3.0]))
        d2 = sl.GridDensity(grid, np.array([1.0, 1.0]))
        assert sl.l1_distance(d1, d2) == pytest.approx(0.25 + 0.75 / 3.0)

    def test_l1_distance_requires_matching_grids(self, mu_tent2, mu_quadratic):
        regular = sl.lebesgue_density(sl.Grid1D(-2.0, 2.0, 64))
        graded = sl.lebesgue_density(postcritical_grid(sl.make_map("quadratic"), 64))
        def cylinder(n_theta, n_x, lo=-1.0):
            return sl.lebesgue_density(sl.Grid2D(sl.Grid1D(0.0, 1.0, n_theta),
                                                 sl.Grid1D(lo, 1.0, n_x)))

        pairs = [(mu_tent2, mu_quadratic), (regular, graded), (cylinder(8, 8), cylinder(4, 16)),
                 (cylinder(8, 8), cylinder(8, 8, lo=-1.5)),
                 (cylinder(1, 64), sl.lebesgue_density(sl.Grid1D(-1.0, 1.0, 64)))]
        assert sl.l1_distance(cylinder(8, 8), cylinder(8, 8)) == 0.0
        for d1, d2 in pairs:
            with pytest.raises(sl.ArgumentError, match="different grids"):
                sl.l1_distance(d1, d2)


@pytest.fixture(scope="module")
def tower_k3():
    F = sl.first_return_map(sl.make_map("doubling"), sl.Interval(0.0, 0.5), 3)
    sl.verify_axioms(F)
    return F


class TestUlamMatrixExactOracles:
    """Transition rows of the k_max=3 exact tower, derived by hand.

    The three cells are [0, 1/4) -> tau 1, slope 2, [1/4, 3/8) -> tau 2,
    slope 4, and [3/8, 7/16) -> tau 3, slope 8; the sliver [7/16, 1/2)
    is censored.  Each branch stretches affinely onto [0, 1/2), so every
    row is computed by splitting a bin across cells and spreading each
    piece uniformly over the image bins.
    """

    def test_four_bins(self, tower_k3):
        op = sl.ulam_matrix(tower_k3, 4)
        want = np.array([
            [1 / 2, 1 / 2, 0, 0],        # bin inside the tau=1 cell
            [0, 0, 1 / 2, 1 / 2],        # second half of the tau=1 cell
            [1 / 4, 1 / 4, 1 / 4, 1 / 4],  # the tau=2 cell, exactly
            [1 / 8, 1 / 8, 1 / 8, 1 / 8],  # half tau=3 cell, half censored
        ])
        np.testing.assert_allclose(_dense(op), want, atol=1e-14)
        np.testing.assert_allclose(op.row_deficit, [0, 0, 0, 0.5], atol=1e-14)
        assert not any(op.flagged)

    def test_two_bins(self, tower_k3):
        op = sl.ulam_matrix(tower_k3, 2)
        want = np.array([[1 / 2, 1 / 2], [3 / 8, 3 / 8]])
        np.testing.assert_allclose(_dense(op), want, atol=1e-14)
        np.testing.assert_allclose(op.row_deficit, [0, 1 / 4], atol=1e-14)

    def test_one_bin(self, tower_k3):
        op = sl.ulam_matrix(tower_k3, 1)
        np.testing.assert_allclose(_dense(op), [[7 / 8]], atol=1e-14)
        np.testing.assert_allclose(op.row_deficit, [1 / 8], atol=1e-14)

    def test_eight_bins_flags_the_censored_bin(self, tower_k3):
        op = sl.ulam_matrix(tower_k3, 8)
        assert [i for i, f in enumerate(op.flagged) if f] == [7]
        assert op.row_deficit[7] == pytest.approx(1.0)

    def test_rows_are_stochastic_up_to_the_deficit(self, tower_k3):
        op = sl.ulam_matrix(tower_k3, 16)
        sums = np.asarray(_dense(op)).sum(axis=1)
        np.testing.assert_allclose(sums + op.row_deficit, 1.0, atol=1e-12)

    @settings(max_examples=12, deadline=None)
    @given(bins=st.integers(1, 700))
    def test_quadratic_tower_rows_are_stochastic_up_to_the_deficit(self, tower_quadratic,
                                                                   bins):
        op = sl.ulam_matrix(tower_quadratic, bins)
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums + op.row_deficit, 1.0, atol=1e-12)

    def test_bins_must_be_positive(self, tower_k3):
        with pytest.raises(sl.ArgumentError):
            sl.ulam_matrix(tower_k3, 0)


@cache
def _suffix_tower(name):
    if name.startswith("circle"):
        m = sl.make_map("circle_perturbed", t=float(name.split("=")[1]))
        return sl.first_return_map(m, sl.Interval(0.0, 0.5), 20)
    m = sl.make_map("quadratic", a=2.0)
    return sl.first_return_map(m, sl.Interval(0.0, float(np.sqrt(2.0))), int(name.split("=")[1]))


def _cell_order_csr(rows, cols, vals, bins):
    """CSR matrix of (row, column, value) triplets given in cell order, each
    entry adding up its values in that order: ``np.add.at`` over the
    triplets grouped by ``np.unique``."""
    keys, group = np.unique(rows.astype(np.int64) * bins + cols, return_inverse=True)
    data = np.zeros(keys.size)
    np.add.at(data, group, vals)
    indptr = np.searchsorted(keys, np.arange(bins + 1) * bins).astype(np.int32)
    return sp.csr_matrix((data, (keys % bins).astype(np.int32), indptr), shape=(bins, bins))


def _scipy_csr(rows, cols, vals, bins):
    """scipy's COO -> CSR conversion of the same triplets, which sorts each
    row's columns with an introsort (not stable past 16 entries) before it
    adds up duplicates."""
    return sp.coo_matrix((vals, (rows, cols)), shape=(bins, bins)).tocsr()


def _cell_by_cell_ulam(F, bins, convert=_cell_order_csr):
    """The tower Ulam matrix with every cell inverting the grid edges inside
    its image through its own whole itinerary (``F.invert``), assembled
    cell by cell: the reference for the suffix-trie assembly."""
    grid = sl.Grid1D(F.delta.lo, F.delta.hi, bins)
    edges, widths = grid.edges, grid.widths
    rows, cols, vals = [], [], []
    covered = np.zeros(bins)
    for i, (lo, hi) in enumerate(zip(F.cells.lo.tolist(), F.cells.hi.tolist())):
        ylo, yhi = sorted(F.evaluate(i, np.array([lo, hi])).tolist())
        targets = edges[(edges > ylo + 1e-15) & (edges < yhi - 1e-15)]
        pre = F.invert(i, targets) if targets.size else np.empty(0)
        cuts = np.concatenate([[lo, hi], pre, edges[(edges > lo + 1e-15) & (edges < hi - 1e-15)]])
        cuts = np.unique(np.clip(cuts, lo, hi))
        starts, ends = cuts[:-1], cuts[1:]
        keep = ends - starts > 1e-15
        starts, ends = starts[keep], ends[keep]
        if starts.size == 0:
            continue
        mids = 0.5 * (starts + ends)
        src = grid.locate(mids)
        rows.append(src)
        cols.append(grid.locate(F.evaluate(i, mids)))
        vals.append((ends - starts) / widths[src])
        np.add.at(covered, src, ends - starts)
    mat = convert(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), bins)
    frac = covered / widths
    return mat, np.clip(1.0 - frac, 0.0, 1.0), frac < 1e-9


class _CountingCircle(PerturbedDoublingMap):
    """circle_perturbed map that counts its ``branch_inverse`` calls."""

    inverse_calls = 0

    def branch_inverse(self, i, y):
        self.inverse_calls += 1
        return super().branch_inverse(i, y)


class TestUlamSuffixTrie:
    @pytest.mark.parametrize("name,bins", [
        ("circle t=0.05", 4096), ("circle t=0.4", 4096), ("circle t=0.4", 1023),
        ("quadratic tau=12", 4096), ("quadratic tau=12", 1023), ("quadratic tau=16", 4096),
        ("quadratic tau=16", 1023),
    ])
    def test_matches_the_cell_by_cell_assembly_bit_for_bit(self, name, bins):
        F = _suffix_tower(name)
        op = sl.ulam_matrix(F, bins)
        mat, row_deficit, flagged = _cell_by_cell_ulam(F, bins)
        for got, want in ((op.matrix.indptr, mat.indptr), (op.matrix.indices, mat.indices),
                          (op.matrix.data, mat.data), (op.row_deficit, row_deficit),
                          (op.flagged, flagged)):
            assert np.array_equal(got, want)

    def test_one_branch_inverse_call_per_distinct_suffix(self, monkeypatch):
        m = _CountingCircle(0.2)
        F = sl.first_return_map(m, sl.Interval(0.0, 0.5), 20)
        taus = F.cells.tau.tolist()
        rows = F.cells.itineraries.tolist()

        def suffixes(a, b):
            return {tuple(rows[i][j:taus[i]]) for i in range(a, b) for j in range(taus[i])}

        # the whole tower is one window: 39 distinct suffixes against 210
        # inverse steps cell by cell
        assert len(suffixes(0, len(taus))) == 39 and sum(taus) == 210
        windows = _spy_windows(monkeypatch)
        m.inverse_calls = 0
        sl.ulam_matrix(F, 512)
        assert windows == [(0, len(taus))] and m.inverse_calls == 39
        # small windows walk the suffixes they share once each
        monkeypatch.setattr(sl.measures, "_WINDOW", 2000)
        windows.clear()
        m.inverse_calls = 0
        sl.ulam_matrix(F, 512)
        assert len(windows) > 2
        assert m.inverse_calls == sum(len(suffixes(a, b)) for a, b in windows) > 39


def _spy_windows(monkeypatch):
    """Record the ``(lo, hi)`` cell range of every ``invert_cells`` call."""
    windows = []
    invert_cells = sl.InducedMarkovMap.invert_cells

    def spy(self, ys, lo, hi):
        windows.append((lo, hi))
        return invert_cells(self, ys, lo, hi)

    monkeypatch.setattr(sl.InducedMarkovMap, "invert_cells", spy)
    return windows


def _assert_same_operator(op, mat, row_deficit, flagged):
    for got, want in ((op.matrix.indptr, mat.indptr), (op.matrix.indices, mat.indices),
                      (op.matrix.data, mat.data), (op.row_deficit, row_deficit),
                      (op.flagged, flagged)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _forward_one_step_ulam(m, bins, convert=_cell_order_csr):
    """The 1D one-step Ulam matrix with every sliver's target bin located
    from its forward image, assembled branch by branch."""
    grid = postcritical_grid(m, bins)
    edges, widths = grid.edges, grid.widths
    rows, cols, vals = [], [], []
    covered = np.zeros(bins)
    for i in range(m.n_branches):
        lo, hi = m.branch_bounds(i)
        ylo, yhi = sorted(m.branch_lift(i, np.array([lo, hi])).tolist())
        inner = (edges > ylo + 1e-15) & (edges < yhi - 1e-15)
        pre = m.branch_inverse(i, edges[inner]) if inner.any() else np.empty(0)
        cuts = np.concatenate([[lo, hi], pre, edges[(edges > lo + 1e-15) & (edges < hi - 1e-15)]])
        cuts = np.unique(np.clip(cuts, lo, hi))
        starts, ends = cuts[:-1], cuts[1:]
        keep = ends - starts > 1e-15
        starts, ends = starts[keep], ends[keep]
        mids = 0.5 * (starts + ends)
        src = grid.locate(mids)
        rows.append(src)
        cols.append(grid.locate(m.branch_lift(i, mids)))
        vals.append((ends - starts) / widths[src])
        np.add.at(covered, src, ends - starts)
    mat = convert(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), bins)
    frac = covered / widths
    return mat, np.clip(1.0 - frac, 0.0, 1.0), frac < 1e-9


def _fixed_point_tower(a):
    # [0, p) with p the positive fixed point has return cells for every a
    p = (math.sqrt(1.0 + 4.0 * a) - 1.0) / 2.0
    return sl.first_return_map(sl.make_map("quadratic", a=a), sl.Interval(0.0, p), 10)


_SMALL_MAPS = st.one_of(
    st.floats(1.5, 2.0, exclude_min=True).map(lambda s: sl.make_map("tent", slope=s)),
    st.floats(1.4, 2.0, exclude_min=True).map(lambda a: sl.make_map("quadratic", a=a)),
    st.floats(0.0, 1.9, exclude_max=True).map(
        lambda t: sl.make_map("circle_perturbed", t=t)),
)


def _small_tower(m):
    if m.family == "quadratic":
        return _fixed_point_tower(m.a)
    return sl.first_return_map(m, sl.Interval(0.0, 0.5), 12 if m.family == "tent" else 8)


class _CountingQuadratic(sl.maps.QuadraticMap):
    """quadratic map that counts its ``branch_lift`` calls."""

    lift_calls = 0

    def branch_lift(self, i, x):
        self.lift_calls += 1
        return super().branch_lift(i, x)


class _ShuffledQuadratic(sl.maps.QuadraticMap):
    """quadratic map whose ``branch_inverse`` returns its preimages shuffled."""

    def branch_inverse(self, i, y):
        x = super().branch_inverse(i, y)
        return x[np.random.default_rng(0).permutation(x.size)]


def _overlapping_tower():
    """Affine cells onto parts of [0, 1): the first two overlap by 8e-13 around
    0.3, the later ones share their ends, and the second is decreasing and
    short, so that rows of the first cell wait behind rows of the second."""
    spans = [(0.0, 0.3 + 4e-13, 1.0, 0.0), (0.3 - 4e-13, 0.31, -1.0, 1.0),
             (0.31, 0.8, 0.7, 0.0), (0.8, 1.0, 1.0, 0.0)]
    lo, hi, rise, y0 = (np.array(c) for c in zip(*spans))
    slope = rise / (hi - lo)
    cells = sl.CellTable(lo, hi, np.ones(4), np.sign(rise), slope, y0 - slope * lo,
                         np.zeros((4, 1), dtype=int))
    return sl.InducedMarkovMap(sl.make_map("doubling"), sl.Interval(0.0, 1.0), cells, 1)


def _sorted_cut(grid, xlo, xhi, cuts, k0, increasing, pre):
    """The cut of a monotone piece by sorting: ``np.unique`` of its ends,
    preimages and cuts, each sliver's target bin from a ``searchsorted``
    of its midpoint among the preimages and its source bin from a
    ``locate`` of that midpoint.  The reference for :func:`_piece_slivers`."""
    pre = np.clip(pre, xlo, xhi)
    cutpoints = np.unique(np.concatenate([[xlo, xhi], pre, cuts]))
    starts, ends = cutpoints[:-1], cutpoints[1:]
    keep = ends - starts > 1e-15
    starts, ends = starts[keep], ends[keep]
    mids = 0.5 * (starts + ends)
    if increasing:
        below = np.searchsorted(pre, mids, side="right")
    else:
        below = np.searchsorted(-pre, -mids, side="left")
    index = np.int32 if grid.n < 2 ** 31 else np.int64
    return (grid.locate(mids).astype(index),
            np.clip(k0 - 1 + below, 0, grid.n - 1).astype(index), ends - starts)


# offsets of a piece end from a grid edge: on it, or within 1e-15 of it
_NUDGES = st.sampled_from([0.0, 2.2e-16, -2.2e-16, 5e-16, -5e-16, 1e-15, -1e-15, 1.5e-15])


@st.composite
def _cut_cases(draw):
    """A grid (regular, or the postcritical grid of a quadratic map) and a
    monotone piece on it: ends on, within 1e-15 of, or away from the grid
    edges, and preimages of the edges inside its image that repeat, fall
    on grid edges and fall outside the piece (so they are clipped)."""
    if draw(st.booleans()):
        m = sl.make_map("quadratic", a=draw(st.floats(1.5, 2.0)))
        grid = postcritical_grid(m, draw(st.integers(8, 96)))
    else:
        lo = draw(st.floats(-2.0, 1.0))
        grid = sl.Grid1D(lo, lo + draw(st.floats(0.01, 3.0)), draw(st.integers(1, 96)))
    edges = grid.edges

    def point():
        if draw(st.booleans()):
            return float(edges[draw(st.integers(0, grid.n))] + draw(_NUDGES))
        return draw(st.floats(grid.lo, grid.hi))

    xlo, xhi = sorted((point(), point()))
    assume(xhi - xlo > 1e-15)
    k0, k1 = (int(k) for k in _inner_edges(grid, point(), point()))
    span = xhi - xlo
    inside = edges[(edges > xlo) & (edges < xhi)]
    value = st.one_of(st.integers(-2, 10).map(lambda i: xlo + span * i / 8),
                      st.floats(xlo - span / 4, xhi + span / 4),
                      st.sampled_from(inside.tolist() or [xlo]))
    pre = np.sort(draw(st.lists(value, min_size=k1 - k0, max_size=k1 - k0)))
    increasing = draw(st.booleans())
    j0, j1 = _inner_edges(grid, xlo, xhi)
    return grid, xlo, xhi, edges[j0:j1], k0, increasing, pre if increasing else pre[::-1]


class TestStreamedUlamAssembly:
    """The tower and 1D one-step assemblies take target bins from the order
    of the edge preimages and convert complete rows in chunks."""

    @pytest.mark.parametrize("chunk", [1, 300])
    @pytest.mark.parametrize("name,bins", [
        ("quadratic tau=16", 4096), ("overlap", 10), ("overlap", 40), ("overlap", 1000),
    ])
    def test_chunk_boundaries_change_nothing(self, monkeypatch, name, bins, chunk):
        F = _overlapping_tower() if name == "overlap" else _suffix_tower(name)
        want = sl.ulam_matrix(F, bins)
        monkeypatch.setattr(sl.measures, "_ASSEMBLY_CHUNK", chunk)
        got = sl.ulam_matrix(F, bins)
        _assert_same_operator(got, want.matrix, want.row_deficit, want.flagged)
        if name == "overlap":
            _assert_same_operator(got, *_cell_by_cell_ulam(F, bins))

    @pytest.mark.parametrize("name,bins,window,windows", [
        ("quadratic tau=16", 4096, 0, 987),  # a window per cell
        ("quadratic tau=16", 4096, 1 << 18, 16),  # 4.0 M edge preimages in all
        ("quadratic tau=16", 4096, 1 << 30, 1),
        ("overlap", 40, 0, 4),
    ])
    def test_window_boundaries_change_nothing(self, monkeypatch, name, bins, window, windows):
        F = _overlapping_tower() if name == "overlap" else _suffix_tower(name)
        monkeypatch.setattr(sl.measures, "_WINDOW", window)
        seen = _spy_windows(monkeypatch)
        op = sl.ulam_matrix(F, bins)
        # consecutive runs of cells that cover the tower
        assert [a for a, _ in seen] + [len(F.cells)] == [0] + [b for _, b in seen]
        assert len(seen) == windows
        _assert_same_operator(op, *_cell_by_cell_ulam(F, bins))

    @settings(max_examples=30, deadline=None)
    @given(m=_SMALL_MAPS, bins=st.integers(1, 2048))
    def test_tower_matches_the_forward_located_reference(self, m, bins):
        F = _small_tower(m)
        _assert_same_operator(sl.ulam_matrix(F, bins), *_cell_by_cell_ulam(F, bins))

    @settings(max_examples=30, deadline=None)
    @given(m=_SMALL_MAPS, bins=st.integers(1, 2048))
    def test_one_step_matches_the_forward_located_reference(self, m, bins):
        _assert_same_operator(sl.one_step_ulam(m, bins), *_forward_one_step_ulam(m, bins))

    @settings(max_examples=300, deadline=None)
    @given(case=_cut_cases())
    @example(case=(sl.Grid1D(0.0, 1.0, 4), 0.25 - 5e-16, 0.75 + 1e-15, np.array([0.5]), 1, False,
                   np.array([0.9, 0.75, 0.5, 0.5, 0.3, 0.25, 0.1])))
    def test_the_merged_cut_matches_the_sorted_cut(self, case):
        grid, xlo, xhi, cuts, k0, increasing, pre = case
        got = _piece_slivers(grid, xlo, xhi, cuts, k0, increasing, pre.copy(), "piece")
        want = _sorted_cut(grid, xlo, xhi, cuts, k0, increasing, pre)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("case", [
        "circle t=0.05 tower", "circle t=0.4 tower", "tent 1.8 tower", "tent 2 tower",
        "quadratic one-step", "tent one-step", "circle one-step", "doubling one-step",
        "cylinder",
    ])
    def test_piece_order_sums_equal_scipys_conversion_here(self, case):
        # on these operators no row's duplicate entries reach scipy's
        # conversion in an order that its introsort changes (the cylinder's
        # sums of 1/256 are exact in any order), so adding them up in piece
        # order gives scipy's bits
        name, _, kind = case.rpartition(" ")
        if kind == "tower":
            family, value = name.split(" ")
            m = (sl.make_map("circle_perturbed", t=float(value.split("=")[1]))
                 if family == "circle" else sl.make_map("tent", slope=float(value)))
            F = sl.first_return_map(m, sl.Interval(0.0, 0.5), 20 if family == "circle" else 16)
            bins = 4096 if family == "circle" else 1024
            _assert_same_operator(sl.ulam_matrix(F, bins),
                                  *_cell_by_cell_ulam(F, bins, convert=_scipy_csr))
        elif kind == "one-step":
            family, params = {"quadratic": ("quadratic", {"a": 1.8}),
                              "tent": ("tent", {"slope": 1.7}),
                              "circle": ("circle_perturbed", {"t": 0.3}),
                              "doubling": ("doubling", {})}[name]
            m = sl.make_map(family, **params)
            _assert_same_operator(sl.one_step_ulam(m, 4096),
                                  *_forward_one_step_ulam(m, 4096, convert=_scipy_csr))
        else:
            m = sl.make_map("viana", alpha=0.05, d=3)
            op = sl.one_step_ulam(m, 4096)
            _assert_same_operator(op, _cylinder_coo_ulam(m, 4096), np.zeros(op.grid.n),
                                  np.zeros(op.grid.n, dtype=bool))

    def test_preimages_out_of_order_are_refused(self):
        m = _ShuffledQuadratic(2.0)
        with pytest.raises(sl.ConstructionError, match=r"branch 0 .* not monotone"):
            sl.one_step_ulam(m, 64)
        with pytest.raises(sl.ConstructionError, match=r"cell 0 .* not monotone"):
            sl.ulam_matrix(sl.first_return_map(m, m.domain, 1), 64)

    def test_cell_ends_take_one_forward_walk(self):
        # the ends of all cells walk forward together, and nothing else does:
        # at most one branch_lift call per branch and itinerary step
        F = _suffix_tower("quadratic tau=16")
        m = _CountingQuadratic(2.0)
        G = sl.InducedMarkovMap(m, F.delta, F.cells, F.tau_max)
        op = sl.ulam_matrix(G, 4096)
        assert 0 < m.lift_calls <= m.n_branches * F.tau_max  # 28,392 cell by cell
        _assert_same_operator(op, *_cell_by_cell_ulam(F, 4096))

    def test_peak_memory_stays_below_half_the_triplet_assembly(self):
        # Holding every cell's (row, column, length) triplets and converting
        # them at once peaked at 190.9 MB under tracemalloc on this tower
        # (987 cells, 4096 bins, 1.8 M nonzeros); streaming the rows while
        # holding every cell's edge preimages, 43.4 MiB; the windowed
        # assembly measured 32.5 MiB, 20.6 MiB of it the matrix (Python
        # 3.11, numpy 2.4, scipy 1.17).
        F = _suffix_tower("quadratic tau=16")
        tracemalloc.start()
        try:
            sl.ulam_matrix(F, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20

    def test_deep_tower_peak_follows_the_matrix_and_the_window(self):
        # tau 18 at 2048 bins: 2,584 cells with 5.3 M edge preimages, 42.3 MB
        # if held at once, and holding them peaked at 44.3 MiB under
        # tracemalloc.  Windows of 2^19 preimages measured 15.8 MiB: the
        # 6.7 MiB matrix, 4 MiB of window and 5.2 MiB of pending chunks and
        # array growth (Python 3.11, numpy 2.4, scipy 1.17).
        F = _suffix_tower("quadratic tau=18")
        tracemalloc.start()
        try:
            mat = sl.ulam_matrix(F, 2048).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes + 8 * sl.measures._WINDOW
        assert peak < held + 8 * 2 ** 20


def _cylinder_locate(pts, n_theta, x_lo, x_hi, n_x):
    """Flat cylinder bins by the closed forms the grid kept before it was
    built from two axes: ``theta * n_theta`` truncated, and the fibre bin
    of width ``(x_hi - x_lo) / n_x``."""
    it = np.clip((pts[:, 0] * n_theta).astype(int), 0, n_theta - 1)
    ix = np.clip(((pts[:, 1] - x_lo) / ((x_hi - x_lo) / n_x)).astype(int), 0, n_x - 1)
    return it * n_x + ix


def _cylinder_coo_ulam(m, bins):
    """The cylinder one-step Ulam matrix as one COO -> CSR conversion of
    every sample point, one theta-row of bins per map call."""
    n_theta = max(int(round(bins ** 0.5)), 1)
    n_x = max(bins // n_theta, 1)
    lo, hi = m.domain.lo, m.domain.hi
    t_edges, x_edges = np.linspace(0.0, 1.0, n_theta + 1), np.linspace(lo, hi, n_x + 1)
    offsets = (np.arange(16) + 0.5) / 16
    xs = x_edges[:-1, None] + np.diff(x_edges)[:, None] * offsets  # (n_x, 16)
    cols = []
    for it in range(n_theta):
        ts = t_edges[it] + (t_edges[it + 1] - t_edges[it]) * offsets
        pts = np.empty((n_x, 16, 16, 2))  # bin, theta stratum, x stratum
        pts[..., 0] = ts[None, :, None]
        pts[..., 1] = xs[:, None, :]
        cols.append(_cylinder_locate(m.f_batch(pts.reshape(-1, 2)), n_theta, lo, hi, n_x))
    n = n_theta * n_x
    rows = np.repeat(np.arange(n), 256)
    return sp.coo_matrix((np.full(rows.size, 1.0 / 256), (rows, np.concatenate(cols))),
                         shape=(n, n)).tocsr()


class TestCylinderUlam:
    """The cylinder one-step assembly samples chunks of whole bins and
    converts each chunk's complete rows to CSR."""

    @pytest.mark.parametrize("d,alpha", [(3, 0.05), (16, 0.01)])
    @pytest.mark.parametrize("bins", [64, 1000, 4096])
    def test_matches_the_single_conversion_bit_for_bit(self, d, alpha, bins):
        m = sl.make_map("viana", alpha=alpha, d=d)
        op = sl.one_step_ulam(m, bins)
        _assert_same_operator(op, _cylinder_coo_ulam(m, bins), np.zeros(op.grid.n),
                              np.zeros(op.grid.n, dtype=bool))

    @pytest.mark.parametrize("chunk", [1, 300 * 256, 7 * 256 + 5])
    def test_chunk_boundaries_change_nothing(self, monkeypatch, chunk):
        # one bin per chunk, chunks across theta-rows, and chunks that split rows
        m = sl.make_map("viana", alpha=0.05, d=3)
        monkeypatch.setattr(sl.measures, "_ASSEMBLY_CHUNK", chunk)
        op = sl.one_step_ulam(m, 1000)
        _assert_same_operator(op, _cylinder_coo_ulam(m, 1000), np.zeros(op.grid.n),
                              np.zeros(op.grid.n, dtype=bool))

    @pytest.mark.parametrize("bins,limit_mib", [(4096, 10), (16384, 25)])
    def test_peak_memory_follows_the_matrix(self, bins, limit_mib):
        # the single conversion of every sample point peaked at 46.3 MiB
        # (4096 bins, a 2.0 MiB matrix) and 184.5 MiB (16,384 bins, 8.0 MiB)
        # under tracemalloc (Python 3.11, numpy 2.4, scipy 1.17)
        m = sl.make_map("viana", alpha=0.01, d=16)
        tracemalloc.start()
        try:
            sl.one_step_ulam(m, bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2 ** 20


def _power_reference(op, tol=1e-12, max_iters=10_000):
    """Plain renormalised power iteration from Lebesgue, for operators
    where it converges."""
    widths = op.grid.widths
    p = np.where(op.flagged, 0.0, widths)
    p /= p.sum()
    for _ in range(max_iters):
        q = op.matrix.T @ p
        q[op.flagged] = 0.0
        q /= q.sum()
        done = np.abs(q - p).sum() <= tol
        p = q
        if done:
            return sl.GridDensity(op.grid, p / widths, "stationary")
    raise AssertionError("power reference did not converge")


def _residual(op, mu):
    """|P p - p|_1 of a returned density under the renormalised step."""
    p = mu.bin_measures
    q = op.matrix.T @ p
    q[op.flagged] = 0.0
    return float(np.abs(q / q.sum() - p).sum())


class TestStationaryDensity:
    def test_conditioned_density_on_the_exact_tower(self):
        # live bins carry 16/7 exactly once the censored bin is resolved
        F = sl.first_return_map(sl.make_map("doubling"), sl.Interval(0.0, 0.5), 3)
        sl.verify_axioms(F)
        mu = sl.stationary_density(sl.ulam_matrix(F, 8))
        np.testing.assert_allclose(mu.values[:7], 16 / 7, atol=1e-10)
        assert mu.values[7] == 0.0
        assert mu.mass == pytest.approx(1.0, abs=1e-12)

    def test_flagged_bins_are_recorded_as_excluded(self):
        F = sl.first_return_map(sl.make_map("doubling"), sl.Interval(0.0, 0.5), 3)
        sl.verify_axioms(F)
        mu = sl.stationary_density(sl.ulam_matrix(F, 8))
        assert list(np.asarray(mu.excluded)) == [False] * 7 + [True]

    @pytest.mark.parametrize("case", ["tent2_tower", "circle_perturbed_one_step"])
    def test_lazy_solve_lands_on_the_power_fixed_point(self, tower_tent2, case):
        if case == "tent2_tower":
            op = sl.ulam_matrix(tower_tent2, 512)
        else:
            op = sl.one_step_ulam(sl.make_map("circle_perturbed", t=0.2), 1024)
        mu = sl.stationary_density(op)
        ref = _power_reference(op)
        assert sl.l1_distance(mu, ref) < 1e-8

    def test_the_solve_reports_its_iterations_and_final_residual(self):
        # the band swap at the Misiurewicz parameter takes many lazy steps
        op = sl.one_step_ulam(sl.make_map("quadratic", a=sl.misiurewicz_parameter()), 4096)
        mu = sl.stationary_density(op, tol=1e-10)
        assert mu.iterations > 1
        assert mu.residual <= 1e-10
        with pytest.raises(sl.ConvergenceError) as short:
            sl.stationary_density(op, tol=1e-10, max_iters=mu.iterations - 1)
        assert short.value.residual > 1e-10

    @pytest.mark.parametrize("case", ["quadratic tau=16", "circle t=0.2", "viana"])
    def test_the_transpose_view_solves_as_a_csr_copy_would_bit_for_bit(self, case):
        if case == "viana":  # the cylinder's 64 x 64 one-step operator
            op = sl.one_step_ulam(sl.make_map("viana", alpha=0.01, d=16), 4096)
        else:
            op = sl.ulam_matrix(_suffix_tower(case), 4096 if case.startswith("quad") else 1024)
        # the solve multiplies by op.matrix.T; here that is P.T.tocsr()
        copy = dataclasses.replace(op, matrix=op.matrix.T.tocsr().T)
        assert copy.matrix.T.format == "csr"
        mu, ref = sl.stationary_density(op), sl.stationary_density(copy)
        assert mu.values.tobytes() == ref.values.tobytes()
        assert (mu.iterations, mu.residual) == (ref.iterations, ref.residual)
        p = mu.bin_measures
        assert (op.matrix.T @ p).tobytes() == (op.matrix.T.tocsr() @ p).tobytes()

    def test_iteration_budget_is_enforced(self, tower_quadratic):
        op = sl.ulam_matrix(tower_quadratic, 1024)
        with pytest.raises(sl.ConvergenceError):
            sl.stationary_density(op, tol=1e-15, max_iters=2)

    @settings(max_examples=40, deadline=None)
    @given(case=st.one_of(
               st.tuples(st.just("tent"), st.just("slope"),
                         st.floats(1.5, 2.0, exclude_min=True)),
               st.tuples(st.just("circle_perturbed"), st.just("t"), st.floats(0.0, 0.4)),
               st.tuples(st.just("quadratic"), st.just("a"), st.floats(1.4, 2.0))),
           bins=st.integers(8, 512))
    # the quadratic swaps two bands there: its Ulam matrix has an eigenvalue at -1
    @example(case=("quadratic", "a", sl.misiurewicz_parameter()), bins=512)
    def test_one_step_solves_have_unit_mass_and_small_residual(self, case, bins):
        family, name, value = case
        op = sl.one_step_ulam(sl.make_map(family, **{name: value}), bins)
        tol = 1e-10
        mu = sl.stationary_density(op, tol=tol)
        assert mu.mass == pytest.approx(1.0, abs=1e-12)
        assert _residual(op, mu) <= tol

    def test_uniform_is_stationary_for_tent2(self, mu_tent2):
        # the tent tower is Lebesgue preserving away from the tiny deficit
        leb = sl.lebesgue_density(mu_tent2.grid)
        assert sl.l1_distance(mu_tent2, leb) < 5e-3


def _cell_loop_spread(m, F, mu_F, bins):
    """``spread_measure`` with the cells and deficit gaps collected by a
    loop over the cells: the reference for reading them off the columns."""
    censor = F.tau_max + 1
    pieces, cursor = [], F.delta.lo
    for lo, hi, tau in zip(F.cells.lo.tolist(), F.cells.hi.tolist(), F.cells.tau.tolist()):
        if lo - cursor > 1e-15:
            pieces.append((cursor, lo, censor))
        pieces.append((lo, hi, tau))
        cursor = max(cursor, hi)
    if F.delta.hi - cursor > 1e-15:
        pieces.append((cursor, F.delta.hi, censor))
    los, his, taus = zip(*pieces)
    owner, idx, starts, ends = bin_slivers(mu_F.grid, los, his)
    weights = mu_F.values[idx] * (ends - starts)
    taus = np.asarray(taus)[owner]
    pts = sl.measures.stratified_points(starts, ends - starts).ravel()
    w = np.repeat(weights / sl.measures._STRATA, sl.measures._STRATA)
    t = np.repeat(taus, sl.measures._STRATA)
    grid, acc = sl.Grid1D(m.domain.lo, m.domain.hi, bins), np.zeros(bins)
    for j in range(min(int(t.max()), F.tau_max + 1)):
        active = t > j
        pts, w, t = pts[active], w[active], t[active]
        np.add.at(acc, grid.locate(pts), w)
        pts = m.f_batch(pts)
    return acc / grid.widths, float(weights[taus == censor].sum())


def _nested_tower():
    """Cells of return time 1 and 2 where the second ends inside the first,
    within the 1e-12 overlap a cell table accepts."""
    cells = sl.CellTable([0.0, 0.5 - 2e-13, 0.5], [0.5, 0.5 - 1e-13, 1.0], [1, 2, 1], [1, 1, 1],
                         [2.0, 1.0, 2.0], [0.0, 0.0, -1.0])
    return sl.InducedMarkovMap(sl.make_map("doubling"), sl.Interval(0.0, 1.0), cells, 2)


class TestSpreadMeasure:
    @pytest.mark.parametrize("name", ["doubling", "tent 1.8", "quadratic", "circle", "overlap",
                                      "nested"])
    def test_pieces_from_the_columns_match_the_cell_loop(self, name):
        F = {"doubling": lambda: sl.first_return_map(sl.make_map("doubling"),
                                                     sl.Interval(0.0, 0.5), 12),
             "tent 1.8": lambda: sl.first_return_map(sl.make_map("tent", slope=1.8),
                                                     sl.Interval(0.0, 0.5), 12),
             "quadratic": lambda: _suffix_tower("quadratic tau=12"),
             "circle": lambda: _suffix_tower("circle t=0.4"),
             "overlap": _overlapping_tower, "nested": _nested_tower}[name]()
        mu_F = sl.lebesgue_density(sl.Grid1D(F.delta.lo, F.delta.hi, 96))
        spread = sl.spread_measure(F.base, F, mu_F, 128)
        values, censored = _cell_loop_spread(F.base, F, mu_F, 128)
        assert spread.values.tobytes() == values.tobytes()
        assert spread.truncation_bound == censored

    def test_spread_mass_equals_kac_mass(self, tent2_map, tower_tent2, mu_tent2):
        spread = sl.spread_measure(tent2_map, tower_tent2, mu_tent2, 4096)
        kac = sl.kac_mass(tower_tent2, mu_tent2)
        assert spread.mass == pytest.approx(kac, abs=1e-10)

    def test_bin_slivers_cut_intervals_at_bin_edges(self):
        grid = sl.Grid1D(0.0, 1.0, 4)
        owner, idx, a, b = bin_slivers(grid, [0.1, 0.5, 0.6, 0.9],
                                       [0.6, 0.5, 0.6 + 1e-16, 1.0])
        assert owner.tolist() == [0, 0, 0, 3]
        assert idx.tolist() == [0, 1, 2, 3]
        assert a.tolist() == [0.1, 0.25, 0.5, 0.9]
        assert b.tolist() == [0.25, 0.5, 0.6, 1.0]
        assert all(x.size == 0 for x in bin_slivers(grid, [], []))

    @settings(max_examples=10, deadline=None)
    @given(m=st.one_of(
        st.floats(1.5, 2.0, exclude_min=True).map(lambda s: sl.make_map("tent", slope=s)),
        st.floats(0.0, 0.4).map(lambda t: sl.make_map("circle_perturbed", t=t))),
        bins=st.integers(8, 128))
    def test_spread_mass_equals_kac_mass_across_families(self, m, bins):
        # the slivers spread_measure transports weigh what kac_mass weighs
        F = sl.first_return_map(m, sl.Interval(0.0, 0.5), 10)
        mu_F = sl.stationary_density(sl.ulam_matrix(F, bins))
        spread = sl.spread_measure(m, F, mu_F, bins)
        assert spread.mass == pytest.approx(sl.kac_mass(F, mu_F), abs=1e-9)

    def test_normalized_spread_of_tent2_is_nearly_flat(self, tent2_map, tower_tent2, mu_tent2):
        spread = sl.spread_measure(tent2_map, tower_tent2, mu_tent2, 4096)
        spread = sl.GridDensity(spread.grid, spread.values / spread.mass, "normalized")
        leb = sl.lebesgue_density(spread.grid)
        assert spread.grid.lo == 0.0 and spread.grid.hi == 1.0
        assert sl.l1_distance(spread, leb) < 2e-3

    def test_spread_covers_the_ambient_domain(self, quadratic_map, tower_quadratic, mu_quadratic):
        spread = sl.spread_measure(quadratic_map, tower_quadratic, mu_quadratic, 2048)
        assert spread.grid.lo == quadratic_map.domain.lo
        assert spread.grid.hi == quadratic_map.domain.hi
        # orbit segments reach both sides of the critical point
        half = spread.grid.n // 2
        assert spread.values[:half].sum() > 0
        assert spread.values[half:].sum() > 0


class TestOneStepUlam:
    def test_doubling_rows_split_evenly(self):
        m = sl.make_map("doubling")
        op = sl.one_step_ulam(m, 2)
        np.testing.assert_allclose(_dense(op), 0.5, atol=1e-12)

    def test_stationary_density_of_doubling_is_uniform(self):
        m = sl.make_map("doubling")
        mu = sl.stationary_density(sl.one_step_ulam(m, 256))
        np.testing.assert_allclose(mu.values, 1.0, atol=1e-9)

    def test_chebyshev_density_moments(self):
        # invariant density of x -> 2 - x^2 is the arcsine law on [-2, 2]
        m = sl.make_map("quadratic", a=2.0)
        mu = sl.stationary_density(sl.one_step_ulam(m, 2048))
        edges, w = mu.grid.edges, mu.grid.widths
        mids = 0.5 * (edges[:-1] + edges[1:])
        mean = float(np.sum(mids * mu.values * w))
        second = float(np.sum(mids ** 2 * mu.values * w))
        assert abs(mean) < 0.05
        assert second == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("family,params", [
        ("doubling", {}), ("circle_linear", {"d": 3}), ("tent", {"slope": 1.7}),
        ("circle_perturbed", {"t": 0.3}),
    ])
    def test_maps_without_critical_points_keep_the_regular_grid(self, family, params):
        op = sl.one_step_ulam(sl.make_map(family, **params), 64)
        assert op.grid.regular
        assert op.grid == sl.Grid1D(op.grid.lo, op.grid.hi, 64)

    @pytest.mark.parametrize("a", [2.0, 1.7, sl.misiurewicz_parameter()])
    def test_quadratic_mesh_is_graded_toward_the_postcritical_points(self, a):
        m = sl.make_map("quadratic", a=a)
        op = sl.one_step_ulam(m, 512)
        grid = op.grid
        assert not grid.regular
        w = grid.widths
        post = [m.f_batch([0.0])[0]]
        for _ in range(2):
            post.append(m.f_batch([post[-1]])[0])
        # the critical value a and its image a - a^2 are the domain ends
        assert post[0] == grid.hi and post[1] == pytest.approx(grid.lo)
        typical = (grid.hi - grid.lo) / grid.n
        for v in post:
            assert w[grid.locate(np.array([v]))[0]] < 0.1 * typical
        assert w[grid.locate(np.array([0.5 * (post[0] + post[2])]))[0]] > typical
        # grading moves the edges, not the mass: rows stay stochastic
        np.testing.assert_allclose(np.asarray(op.matrix.sum(axis=1)).ravel(), 1.0,
                                   atol=1e-12)
        assert not op.flagged.any()

    def test_neighbouring_pins_keep_the_domain_ends(self):
        # at this a the 2-bin grid pins postcritical points on neighbouring
        # nodes; the half reaching back to the lower pin ended a rounding
        # error off it, and the grid refused edges that missed the domain
        m = sl.make_map("quadratic", a=1.5601307747894477)
        grid = postcritical_grid(m, 2)
        assert (grid.edges[0], grid.edges[-1]) == (m.domain.lo, m.domain.hi)
        sl.one_step_ulam(m, 2)


class TestStatisticalStability:
    def test_perturbed_family_distance_grows_with_t(self):
        mus = {}
        for t in (0.0, 0.05, 0.1):
            m = sl.make_map("circle_perturbed", t=t)
            mus[t] = sl.stationary_density(sl.one_step_ulam(m, 1024))
        d05 = sl.l1_distance(mus[0.05], mus[0.0])
        d10 = sl.l1_distance(mus[0.1], mus[0.0])
        assert 0.0 < d05 < d10 < 0.01


def _refinement_distance(F, k):
    mu_a = sl.stationary_density(sl.ulam_matrix(F, 2 ** k))
    mu_b = sl.stationary_density(sl.ulam_matrix(F, 2 ** (k + 1)))
    fine = sl.GridDensity(grid=mu_b.grid, values=np.repeat(mu_a.values, 2),
                          provenance="external")
    return sl.l1_distance(fine, mu_b)


class TestGridRefinement:
    """Successive dyadic refinements of the stationary density settle down.

    The comparison starts once the grid resolves the censored region;
    the first resolving scale can bump the distance up before the decay
    sets in.
    """

    def test_doubling_tower(self, tower_doubling12):
        ds = [_refinement_distance(tower_doubling12, k) for k in (11, 12, 13)]
        assert ds[0] > 0
        assert ds[1] <= ds[0] and ds[2] <= ds[1]

    def test_tent2_tower(self, tower_tent2):
        ds = [_refinement_distance(tower_tent2, k) for k in (9, 10, 11)]
        assert ds[1] <= ds[0] + 1e-12 and ds[2] <= ds[1] + 1e-12

    def test_tent17_tower(self, tower_tent17):
        ds = [_refinement_distance(tower_tent17, k) for k in (9, 10, 11)]
        assert ds[1] < ds[0] and ds[2] < ds[1]

    def test_circle3_tower(self, tower_circle3):
        ds = [_refinement_distance(tower_circle3, k) for k in (9, 10, 11)]
        assert max(ds) < 1e-10

    def test_quadratic_tower(self, tower_quadratic):
        ds = [_refinement_distance(tower_quadratic, k) for k in (11, 12, 13)]
        assert ds[1] < ds[0] and ds[2] < ds[1]


@pytest.mark.parametrize("n_theta,n_x", [(1, 1), (3, 5), (8, 8)])
def test_cylinder_widths_are_the_cell_areas_of_its_flat_bins(n_theta, n_x):
    grid = sl.Grid2D(sl.Grid1D(0.0, 1.0, n_theta), sl.Grid1D(-1.5, 1.75, n_x))
    cell_area = (1.0 / n_theta) * ((1.75 - -1.5) / n_x)
    assert grid.widths.shape == (grid.n,)
    assert np.all(grid.widths == cell_area)
    values = np.random.default_rng(n_x).uniform(0.0, 2.0, grid.n)
    density = sl.GridDensity(grid, values)
    assert density.bin_measures.tobytes() == (values * cell_area).tobytes()


class TestCylinderGrid:
    """The cylinder grid is the product of a theta axis and a fibre axis."""

    @settings(max_examples=100, deadline=None)
    @given(n_theta=st.integers(1, 300), n_x=st.integers(1, 300),
           bounds=st.tuples(st.floats(-4.0, 0.0), st.floats(0.01, 4.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_binning_and_areas_keep_the_closed_forms(self, n_theta, n_x, bounds, seed):
        lo, hi = bounds[0], bounds[0] + bounds[1]
        grid = sl.Grid2D(sl.Grid1D(0.0, 1.0, n_theta), sl.Grid1D(lo, hi, n_x))
        rng = np.random.default_rng(seed)
        pts = np.column_stack([rng.uniform(0.0, 1.0, 2000), rng.uniform(lo, hi, 2000)])
        assert grid.locate(pts).tolist() == _cylinder_locate(pts, n_theta, lo, hi, n_x).tolist()
        assert grid.shape == (n_theta, n_x) and grid.n == n_theta * n_x
        assert np.all(grid.widths == (1.0 / n_theta) * ((hi - lo) / n_x))

    def test_bins_are_theta_major_and_take_the_axes_edges(self):
        grid = sl.Grid2D(sl.Grid1D(0.0, 1.0, 4), sl.Grid1D(-1.0, 1.0, 2, [-1.0, 0.5, 1.0]))
        pts = np.array([[0.3, 0.0], [0.3, 0.75], [0.9, -0.9]])
        assert grid.locate(pts).tolist() == [2, 3, 6]
        assert grid.widths.tolist() == [0.375, 0.125] * 4
        density = sl.lebesgue_density(grid)
        assert density.mass == 1.0 and np.all(density.values == 0.5)
        assert sl.l1_distance(density, sl.GridDensity(grid, np.ones(8))) == 1.0

    def test_bin_points_are_the_product_of_the_axes_strata(self):
        grid = sl.Grid2D(sl.Grid1D(0.0, 1.0, 2), sl.Grid1D(-1.0, 1.0, 3))
        pts = grid.bin_points(16)
        assert pts.shape == (6, 16, 2)
        ts, xs = grid.theta.bin_points(4), grid.x.bin_points(4)
        for b in range(6):
            it, ix = divmod(b, 3)
            assert pts[b, :, 0].tolist() == np.repeat(ts[it], 4).tolist()
            assert pts[b, :, 1].tolist() == np.tile(xs[ix], 4).tolist()
        assert np.all(grid.locate(pts.reshape(-1, 2)) == np.repeat(np.arange(6), 16))
