"""First-return towers: construction, verification, Kac averages."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import srblab as sl

ROOT2 = float(np.sqrt(2.0))


def _quadratic_tower(a, tau_max=10):
    # [0, p) with p the positive fixed point has return cells for every a
    p = (math.sqrt(1.0 + 4.0 * a) - 1.0) / 2.0
    return sl.first_return_map(sl.make_map("quadratic", a=a), sl.Interval(0.0, p), tau_max)


_TOWERS = st.one_of(
    st.floats(1.5, 2.0, exclude_min=True).map(
        lambda s: sl.first_return_map(sl.make_map("tent", slope=s), sl.Interval(0.0, 0.5), 12)),
    st.floats(1.2, 2.0, exclude_min=True).map(_quadratic_tower),
    st.floats(0.0, 0.4).map(
        lambda t: sl.first_return_map(sl.make_map("circle_perturbed", t=t),
                                      sl.Interval(0.0, 0.5), 8)),
)


def _random_tower(family, value, tau_max):
    if family == "quadratic":
        return _quadratic_tower(value, tau_max)
    m = sl.make_map(family, **{"tent": {"slope": value}, "circle_perturbed": {"t": value}}[family])
    return sl.first_return_map(m, sl.Interval(0.0, 0.5), tau_max)


_TOWER_PARAMS = st.tuples(
    st.one_of(st.tuples(st.just("tent"), st.floats(1.5, 2.0, exclude_min=True)),
              st.tuples(st.just("circle_perturbed"), st.floats(0.0, 0.4)),
              st.tuples(st.just("quadratic"), st.floats(1.5, 2.0))),
    st.integers(1, 12))


class TestTowerStructure:
    @settings(max_examples=60, deadline=None)
    @given(params=_TOWER_PARAMS)
    def test_cell_table_invariants(self, params):
        (family, value), tau_max = params
        F = _random_tower(family, value, tau_max)
        c = F.cells
        assert np.all(c.lo < c.hi)
        assert np.all(np.diff(c.lo) >= 0)
        assert np.all(c.hi[:-1] <= c.lo[1:])
        assert np.all((1 <= c.tau) & (c.tau <= tau_max))
        steps = c.itineraries >= 0
        assert steps.sum(axis=1).tolist() == c.tau.tolist()
        assert np.all(steps[:, :-1] >= steps[:, 1:])  # -1 only after the end
        widths = math.fsum((c.hi - c.lo).tolist())
        assert F.deficit == pytest.approx(max(F.delta.width - widths, 0.0), abs=1e-12)
        mids = 0.5 * (c.lo + c.hi)
        assert F.cell_index_batch(mids).tolist() == list(range(len(c)))
        assert sl.return_time_l1_distance(F, F) == 0.0

    def test_neighbours_that_round_into_each_other_are_trimmed(self):
        # cell 0's end is pulled back on its own chain and rounds 5.55e-17
        # past the start of cell 1, which keeps the overlap
        F = _quadratic_tower(1.890625, 4)
        c = F.cells
        assert c.hi[0] == c.lo[1] == 0.4486998015697614
        assert np.all(c.hi[:-1] <= c.lo[1:])
        edge = np.array([np.nextafter(c.lo[1], 0.0), c.lo[1]])
        assert F.cell_index_batch(edge).tolist() == [0, 1]
        assert F.deficit == 0.48220895842227185  # the overlap is covered once

    def test_deficit_is_the_ordered_sum_of_the_cell_widths(self, tower_quadratic, tower_tent17):
        for F in (tower_quadratic, tower_tent17):
            covered = 0.0
            for lo, hi in zip(F.cells.lo.tolist(), F.cells.hi.tolist()):
                covered += hi - lo
            assert F.deficit == max(F.delta.width - covered, 0.0)

    def test_columns_are_read_only(self, tower_quadratic):
        c = tower_quadratic.cells
        for column in (c.lo, c.hi, c.tau, c.orientation, c.itineraries):
            with pytest.raises(ValueError):
                column[0] = 0


class TestExactDoublingTower:
    def test_cell_layout(self, doubling_map):
        # the closed form: the return-time-k cell is [1/2 - 2^-k, 1/2 - 2^(-k-1))
        # with branch x -> 2^k x - (2^(k-1) - 1), visiting the left branch
        # once and then the right one until it returns
        F = sl.first_return_map(doubling_map, sl.Interval(0.0, 0.5), 4)
        c = F.cells
        got = list(zip(c.lo.tolist(), c.hi.tolist(), c.tau.tolist(), c.orientation.tolist(),
                       c.slope.tolist(), c.intercept.tolist(), c.itineraries.tolist()))
        want = [
            (0.0, 0.25, 1, 1, 2.0, 0.0, [0, -1, -1, -1]),
            (0.25, 0.375, 2, 1, 4.0, -1.0, [0, 1, -1, -1]),
            (0.375, 0.4375, 3, 1, 8.0, -3.0, [0, 1, 1, -1]),
            (0.4375, 0.46875, 4, 1, 16.0, -7.0, [0, 1, 1, 1]),
        ]
        assert got == want

    def test_deficit_is_the_last_dyadic_sliver(self, doubling_map):
        for k in (3, 8, 12):
            F = sl.first_return_map(doubling_map, sl.Interval(0.0, 0.5), k)
            assert F.deficit == 2.0 ** -(k + 1)

    def test_branches_return_via_the_base_map(self, tower_doubling12, doubling_map):
        F = tower_doubling12
        c = F.cells
        xs = 0.5 * (c.lo[:6] + c.hi[:6])
        i = F.cell_index_batch(xs)
        assert i.tolist() == list(range(6))
        fx = F.evaluate(i, xs)
        for x, tau, y in zip(xs.tolist(), c.tau[:6].tolist(), fx.tolist()):
            for _ in range(tau):
                x = doubling_map.f_batch([x])[0]
            assert y == pytest.approx(x, abs=1e-12)

    def test_verification_constants_are_exact(self, tower_doubling12):
        rep = sl.verify_axioms(tower_doubling12)
        assert rep.kappa == 0.5
        assert rep.distortion == 0.0
        assert rep.markov_defect == 0.0
        assert rep.markov_ok and rep.expansion_ok and rep.distortion_ok
        assert rep.distortion_multiplier == 1.0
        assert rep.comparison_constant == 1.0


class TestNumericTowers:
    def test_tent2_layout(self, tower_tent2):
        # cells accumulate on the preimages of the fixed point near 1/3:
        # odd return times approach from the left, even ones from the right
        F = tower_tent2
        assert len(F.cells) == 20
        assert F.deficit == pytest.approx(2.0 ** -21, rel=1e-6)
        taus = F.cells.tau.tolist()
        assert sorted(taus) == list(range(1, 21))
        assert taus[:5] == [1, 3, 5, 7, 9]
        assert taus[-3:] == [6, 4, 2]

    def test_tent2_branches_are_onto(self, tower_tent2):
        F = tower_tent2
        for i in range(8):
            ends = sorted(F.evaluate(i, [F.cells.lo[i], F.cells.hi[i]]))
            assert ends[0] == pytest.approx(F.delta.lo, abs=1e-9)
            assert ends[1] == pytest.approx(F.delta.hi, abs=1e-9)

    def test_quadratic_tower_constants(self, tower_quadratic):
        F = tower_quadratic
        assert len(F.cells) == 144
        assert F.deficit == pytest.approx(0.08695118601762397, rel=1e-9)
        rep = sl.verify_axioms(F)
        assert rep.kappa == pytest.approx(0.653281482438189, rel=1e-9)
        assert rep.distortion == pytest.approx(0.8534418725846332, rel=1e-9)
        assert rep.markov_defect < 1e-9
        assert rep.markov_ok and rep.expansion_ok and rep.distortion_ok

    def test_comparison_constant_is_derived_from_kappa_and_distortion(self, tower_quadratic):
        rep = sl.verify_axioms(tower_quadratic)
        k1 = math.exp(rep.distortion * rep.diameter * rep.kappa / (1.0 - rep.kappa))
        assert rep.distortion_multiplier == pytest.approx(k1, rel=1e-12)
        assert rep.comparison_constant == pytest.approx(k1 * k1, rel=1e-12)

    def test_tent17_single_onto_branch(self, tower_tent17):
        F = tower_tent17
        assert len(F.cells) == 1
        assert F.cells.tau.tolist() == [1]
        assert F.deficit == pytest.approx(0.5 - 0.5 / 1.7)

    def test_circle3_tower(self, tower_circle3):
        F = tower_circle3
        assert len(F.cells) == 3
        assert F.cells.tau.tolist() == [1, 1, 1]
        assert F.deficit == 0.0
        rep = sl.verify_axioms(F)
        assert rep.kappa == pytest.approx(1.0 / 3.0)
        assert rep.distortion == 0.0

    def test_induction_without_full_returns_yields_nothing_to_verify(self, tent17_map):
        # an interval off the natural base never sees an onto return branch
        F = sl.first_return_map(tent17_map, sl.Interval(0.45, 0.46), tau_max=1)
        assert len(F.cells) == 0
        assert F.deficit == pytest.approx(0.01)
        with pytest.raises(sl.VerificationError, match="no cells"):
            sl.verify_axioms(F)

    def test_towers_reject_2d_maps(self, viana_map):
        with pytest.raises(sl.ConstructionError):
            sl.first_return_map(viana_map, viana_map.domain, 1)


class TestDeepAndSmoothTowers:
    @pytest.mark.parametrize("t", [0.05, 0.2, 0.4])
    def test_perturbed_circle_towers_verify_and_mix(self, t):
        m = sl.make_map("circle_perturbed", t=t)
        F = sl.first_return_map(m, sl.Interval(0.0, 0.5), tau_max=20)
        rep = sl.verify_axioms(F)
        assert rep.markov_defect <= 1e-8
        assert rep.all_ok
        # branch images are lifted, so no endpoint wraps to the far side of 1
        for i in range(len(F.cells)):
            ends = sorted(F.evaluate(i, [F.cells.lo[i], F.cells.hi[i]]))
            assert ends == pytest.approx([0.0, 0.5], abs=1e-8)
        mu = sl.stationary_density(sl.ulam_matrix(F, 1024), max_iters=2000)
        assert mu.mass == pytest.approx(1.0)

    def test_quadratic_tower_verifies_at_depth_18(self, quadratic_map):
        F = sl.first_return_map(quadratic_map, sl.Interval(0.0, ROOT2), tau_max=18)
        assert len(F.cells) == 2584
        rep = sl.verify_axioms(F)
        assert rep.markov_defect <= 1e-9
        assert rep.all_ok


class TestTowerEvaluation:
    def test_cell_index_matches_cells(self, tower_tent2, tower_doubling12):
        F = tower_tent2
        mids = 0.5 * (F.cells.lo[:10] + F.cells.hi[:10])
        assert F.cell_index_batch(mids).tolist() == list(range(10))
        # the exact doubling deficit is the sliver left of the base's right edge
        assert tower_doubling12.cell_index_batch([0.5 - 2.0 ** -14]).tolist() == [-1]

    def test_return_time_reads_the_cell_or_the_censor(self, tower_quadratic):
        F = tower_quadratic
        c = F.cells
        mids = 0.5 * (c.lo + c.hi)
        assert F.return_time(mids, 99).tolist() == c.tau.tolist()
        gaps = np.flatnonzero(c.hi[:-1] < c.lo[1:])
        assert gaps.size
        deficit = np.append(0.5 * (c.hi[gaps] + c.lo[gaps + 1]), F.delta.hi)
        assert F.return_time(deficit, 99).tolist() == [99] * deficit.size

    def test_log_jacobian_batch_matches_slopes(self, tower_doubling12):
        F = tower_doubling12
        for i, slope in enumerate(F.cells.slope[:6].tolist()):
            x = np.array([0.5 * (F.cells.lo[i] + F.cells.hi[i])])
            lj = F.evaluate(i, x, jacobian=True)[1][0]
            assert lj == pytest.approx(math.log(abs(slope)), abs=1e-12)

    def test_branch_invert_is_a_right_inverse(self, tower_quadratic):
        F = tower_quadratic
        for i, (lo, hi) in enumerate(zip(F.cells.lo[:10].tolist(), F.cells.hi[:10].tolist())):
            y = 0.3 * F.delta.lo + 0.7 * F.delta.hi
            x = float(F.invert(i, [y])[0])
            assert lo - 1e-9 <= x <= hi + 1e-9
            fx = float(F.evaluate(i, [min(max(x, lo), hi)])[0])
            # these cells start within 0.03 of the critical point, so their
            # orbits pass the critical value 2 and then linger by the fixed
            # point -2: a float64 orbit there is good to about 1e-10
            assert fx == pytest.approx(y, abs=1e-9)

    def test_a_one_cell_batch_walks_its_own_itinerary_only(self):
        # the tau-16 matrix is 16 columns wide; a batch stops once all its
        # rows have ended, one column after the longest of them
        m = _CountingQuadratic(2.0)
        F = sl.first_return_map(m, sl.Interval(0.0, ROOT2), 16)
        c = int(np.argmin(F.cells.tau))
        tau = int(F.cells.tau[c])
        assert tau <= 2 and F.cells.itineraries.shape[1] == 16
        y = np.array([0.3 * F.delta.lo + 0.7 * F.delta.hi])
        m.inverse_calls = m.branch_count_reads = 0
        x = F.invert(np.array([c]), y)
        assert m.inverse_calls == tau and m.branch_count_reads <= tau + 1
        m.branch_count_reads = 0
        fx = F.evaluate(np.array([c]), x)
        assert m.branch_count_reads <= tau + 1
        assert np.array_equal(x, F.invert(c, y)) and np.array_equal(fx, F.evaluate(c, x))

    @pytest.mark.parametrize("tower", ["tower_doubling12", "tower_tent2", "tower_quadratic",
                                       "tower_circle3"])
    def test_itineraries_follow_the_base_orbit(self, tower, request):
        F = request.getfixturevalue(tower)
        c = F.cells
        for lo, hi, tau, row in zip(c.lo.tolist(), c.hi.tolist(), c.tau.tolist(),
                                    c.itineraries.tolist()):
            assert row[tau:] == [-1] * (len(row) - tau)
            x = 0.5 * (lo + hi)
            for i in row[:tau]:
                assert F.base.branch_containing(x) == i
                x = F.base.f_batch([x])[0]

    @settings(max_examples=40, deadline=None)
    @given(F=_TOWERS, seed=st.integers(0, 2 ** 32 - 1))
    def test_one_call_for_many_cells_matches_cell_by_cell(self, F, seed):
        # many cells go through the masked walk, one cell's points through
        # its own itinerary without masks: the bits must agree
        assume(F.cells)
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, len(F.cells), 96)
        los, his = F.cells.lo[cells], F.cells.hi[cells]
        xs = los + rng.uniform(0.0, 1.0, cells.size) * (his - los)
        ys = F.delta.lo + rng.uniform(0.0, 1.0, cells.size) * F.delta.width
        together = F.evaluate(cells, xs, jacobian=True) + (F.invert(cells, ys),)
        for c in np.unique(cells):
            sel = cells == c
            alone = F.evaluate(int(c), xs[sel], jacobian=True) + (F.invert(int(c), ys[sel]),)
            for got, want in zip(together, alone):  # values, log |DF|, DF, inverses
                np.testing.assert_array_equal(got[sel], want)

    def test_non_affine_cells_need_their_itinerary(self, tower_quadratic):
        F = tower_quadratic
        c = F.cells
        with pytest.raises(sl.ConstructionError, match="itinerary"):
            sl.CellTable(c.lo[:1], c.hi[:1], c.tau[:1], c.orientation[:1])
        with pytest.raises(sl.ConstructionError, match="itinerary"):
            replace(c, itineraries=c.itineraries[:, :1])


def _per_piece_first_return(m, delta, tau_max, tol=1e-12):
    """First-return cells (sorted by ``lo``), partial mass and deficit with
    every piece pulled back through its own whole itinerary: the reference
    for the one pull-back chain per segment of ``first_return_map``."""
    def pull_back(seg, targets):
        xl, xh, yl, yh, orient, slope, itinerary = seg
        if slope is not None:
            c = (yl - slope * xl) if slope > 0 else (yh - slope * xl)
            return (targets - c) / slope
        xs = targets
        for branch in reversed(itinerary):
            xs = m.branch_inverse(branch, xs)
        xs = np.where(targets <= yl, xl if orient > 0 else xh, xs)
        return np.where(targets >= yh, xh if orient > 0 else xl, xs)

    dlo, dhi = delta.lo, delta.hi
    cuts = np.asarray(m.interior_cuts(), dtype=float)
    xtol = min(tol, 1e-12) * 1e-2
    cells, returns, partial = [], [], 0.0
    segments = [(dlo, dhi, dlo, dhi, 1, 1.0 if m.piecewise_affine else None, ())]
    for k in range(1, tau_max + 1):
        new_segments = []
        for seg in segments:
            yl, yh, orient, slope, itinerary = seg[2:]
            bounds = np.concatenate([[yl], cuts[(cuts > yl + xtol) & (cuts < yh - xtol)], [yh]])
            pre = pull_back(seg, bounds)
            for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
                pxl, pxh = sorted((float(pre[j]), float(pre[j + 1])))
                if b - a <= 1e-15 or pxh - pxl <= 1e-15:
                    continue
                bi = m.branch_containing(0.5 * (a + b))
                ga, gb = (float(g) for g in m.branch_lift(bi, np.array([a, b])))
                iyl, iyh = sorted((ga, gb))
                o = orient * (1 if gb >= ga else -1)
                s = None if slope is None else slope * (gb - ga) / (b - a)
                piece = (pxl, pxh, iyl, iyh, o, s, itinerary + (bi,))
                olo, ohi = max(iyl, dlo), min(iyh, dhi)
                if ohi - olo <= xtol:
                    new_segments.append(piece)
                    continue
                covers = iyl <= dlo + xtol and iyh >= dhi - xtol
                ilo, ihi = (dlo, dhi) if covers else (olo, ohi)
                p = pull_back(piece, np.array([iyl, ilo, ihi, iyh]))
                if covers and s is None:
                    returns.append((k, o, piece[6]))
                elif covers:
                    clo, chi = sorted((float(p[1]), float(p[2])))
                    if chi - clo > 1e-15:
                        cells.append((clo, chi, k, o, piece[6]))
                else:
                    partial += abs(float(p[2]) - float(p[1]))
                for wlo, whi, ol, oh in ((iyl, ilo, p[0], p[1]), (ihi, iyh, p[2], p[3])):
                    slo, shi = sorted((float(ol), float(oh)))
                    if whi - wlo > xtol and shi - slo > 1e-15:
                        new_segments.append((slo, shi, wlo, whi, o, s, piece[6]))
        segments = new_segments
        if not segments:
            break
    for k, o, itinerary in returns:
        # the cell ends in double-double arithmetic, as every tower takes them
        hi, lo = np.array([dlo, dhi]), np.zeros(2)
        for branch in reversed(itinerary):
            hi, lo = m.branch_inverse_dd(branch, hi, lo)
        clo, chi = sorted((hi + lo).tolist())
        if chi - clo > 1e-15:
            cells.append((clo, chi, k, o, itinerary))
    cells.sort(key=lambda c: c[0])
    return cells, partial, max(delta.width - sum(c[1] - c[0] for c in cells), 0.0)


class _CountingQuadratic(sl.maps.QuadraticMap):
    """quadratic map that counts its ``branch_inverse`` calls and the reads
    of its branch count, which a masked tower walk makes once per column."""

    inverse_calls = 0
    branch_count_reads = 0

    def branch_inverse(self, i, y):
        self.inverse_calls += 1
        return super().branch_inverse(i, y)

    @property
    def n_branches(self):
        self.branch_count_reads += 1
        return super().n_branches


class TestFirstReturnChains:
    @pytest.mark.parametrize("family,params,hi,tau_max", [
        ("circle_perturbed", {"t": 0.05}, 0.5, 20),
        ("circle_perturbed", {"t": 0.4}, 0.5, 20),
        ("circle_perturbed", {"t": 0.0}, 0.5, 16),  # piecewise affine
        ("quadratic", {"a": 2.0}, ROOT2, 12),
        ("quadratic", {"a": 1.8}, 0.5, 12),  # partial returns
        ("tent", {"slope": 1.8}, 0.5, 16),
    ])
    def test_matches_the_per_piece_pull_back_bit_for_bit(self, family, params, hi, tau_max):
        m = sl.make_map(family, **params)
        delta = sl.Interval(0.0, hi)
        F = sl.first_return_map(m, delta, tau_max)
        cells, partial, deficit = _per_piece_first_return(m, delta, tau_max)
        c = F.cells
        assert list(zip(c.lo.tolist(), c.hi.tolist(), c.tau.tolist(), c.orientation.tolist(),
                        (tuple(r[:t]) for r, t in zip(c.itineraries.tolist(),
                                                      c.tau.tolist())))) == cells
        assert F.partial_mass == partial and F.deficit == deficit


class TestKac:
    def test_kac_mass_of_exact_tower_is_a_rational(self, tower_doubling12, mu_doubling12):
        # uniform quasi-stationary mass on the live cells gives
        # sum (k+1) 2^-(k+1) / (1 - 2^-12)
        want = Fraction(2 * 4096 - 14, 4095)
        got = sl.kac_mass(tower_doubling12, mu_doubling12)
        assert got == pytest.approx(float(want), abs=1e-10)

    def test_kac_breakdown_separates_censored_mass(self, tower_doubling12, mu_doubling12):
        covered, censored = sl.kac_breakdown(tower_doubling12, mu_doubling12)
        assert censored < 1e-10
        assert covered + censored == pytest.approx(
            sl.kac_mass(tower_doubling12, mu_doubling12))

    def test_kac_requires_matching_grid(self, tower_doubling12, mu_quadratic):
        with pytest.raises(sl.ArgumentError):
            sl.kac_mass(tower_doubling12, mu_quadratic)

    def test_kac_requires_unit_mass(self, tower_doubling12, mu_doubling12):
        heavy = sl.GridDensity(grid=mu_doubling12.grid,
                               values=2.0 * mu_doubling12.values,
                               provenance="external")
        with pytest.raises(sl.ArgumentError):
            sl.kac_mass(tower_doubling12, heavy)


def _breakpoint_loop_l1(F1, F2):
    """``return_time_l1_distance`` with one lookup per piece between sorted
    breakpoints: the reference for the one batched lookup."""
    censor = max(F1.tau_max, F2.tau_max) + 1

    def tau(F, x):
        i = int(F.cell_index_batch([x])[0])
        return int(F.cells.tau[i]) if i >= 0 else censor

    pts = sorted({F1.delta.lo, F1.delta.hi, *F1.cells.lo.tolist(), *F1.cells.hi.tolist(),
                  *F2.cells.lo.tolist(), *F2.cells.hi.tolist()})
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + b)
        total += abs(tau(F1, mid) - tau(F2, mid)) * (b - a)
    return total


class TestReturnTimeDistance:
    @settings(max_examples=40, deadline=None)
    @given(first=_TOWER_PARAMS, second=_TOWER_PARAMS)
    def test_batched_lookup_matches_the_breakpoint_loop(self, first, second):
        F1, F2 = (_random_tower(*family_value, tau_max) for family_value, tau_max in (first, second))
        assume(F1.delta == F2.delta)
        assert sl.return_time_l1_distance(F1, F2) == _breakpoint_loop_l1(F1, F2)

    def test_identical_towers_are_at_distance_zero(self, tower_tent2):
        assert sl.return_time_l1_distance(tower_tent2, tower_tent2) == 0.0

    def test_truncation_depth_moves_the_return_profile(self, tent2_map, tower_tent2):
        shallow = sl.first_return_map(tent2_map, sl.Interval(0.0, 0.5), tau_max=10)
        d = sl.return_time_l1_distance(tower_tent2, shallow)
        assert 0.0 < d < 0.01


class TestVerificationFailures:
    def test_shrunken_cell_breaks_the_onto_axiom(self, tower_doubling12, mutant):
        F = tower_doubling12
        c = F.cells
        mutated = mutant(F, "hi", c.lo[0] + 0.99 * (c.hi[0] - c.lo[0]))
        rep = sl.verify_axioms(mutated)
        assert not rep.markov_ok
        assert rep.defect_cell == 0
        assert rep.markov_defect == pytest.approx(0.005, rel=1e-6)

    def test_overlapping_cells_are_rejected(self, tower_doubling12, mutant):
        F = tower_doubling12
        with pytest.raises(sl.ConstructionError, match="overlap"):
            mutant(F, "hi", F.cells.hi[0] + 0.1)

    def test_unverified_tower_cannot_run_the_quotient_check(self, doubling_map):
        F = sl.first_return_map(doubling_map, sl.Interval(0.0, 0.5), 6)  # never verified
        mu = sl.stationary_density(sl.ulam_matrix(F, 64))
        with pytest.raises(sl.UnverifiedTowerError):
            sl.lyapunov_quotient_check(doubling_map, F, mu, sample=2, n=100)
