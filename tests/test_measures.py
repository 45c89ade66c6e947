"""Discretized transfer operators, stationary densities and the spreading step."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srblab as sl
from srblab.measures import bin_slivers, postcritical_grid


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

    def test_normalize_returns_unit_density_and_mass(self):
        grid = sl.Grid1D(0.0, 1.0, 4)
        d = sl.GridDensity(grid=grid, values=np.array([2.0, 2.0, 2.0, 2.0]),
                           provenance="external")
        unit, mass = sl.normalize(d)
        assert mass == pytest.approx(2.0)
        assert unit.mass == pytest.approx(1.0)

    def test_l1_distance_basics(self, mu_tent2, mu_quadratic):
        assert sl.l1_distance(mu_tent2, mu_tent2) == 0.0
        leb = sl.lebesgue_density(mu_quadratic.grid)
        d = sl.l1_distance(mu_quadratic, leb)
        assert d == sl.l1_distance(leb, mu_quadratic)
        assert 0.0 < d < 2.0

    def test_graded_grid_bins_follow_its_edges(self):
        grid = sl.Grid1D(0.0, 1.0, 3, np.array([0.0, 0.1, 0.5, 1.0]))
        assert not grid.regular
        np.testing.assert_allclose(grid.widths, [0.1, 0.4, 0.5])
        np.testing.assert_allclose(grid.mids, [0.05, 0.3, 0.75])
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
        np.testing.assert_array_equal(grid.mids, -2.0 + w * (np.arange(7) + 0.5))
        x = np.linspace(-2.5, 2.5, 101)
        np.testing.assert_array_equal(
            grid.locate(x), np.clip(np.floor((x + 2.0) / w).astype(int), 0, 6))
        assert grid == sl.Grid1D(-2.0, 2.0, 7, np.linspace(-2.0, 2.0, 8))

    def test_l1_distance_weighs_graded_bins_by_width(self):
        grid = sl.Grid1D(0.0, 1.0, 2, np.array([0.0, 0.25, 1.0]))
        d1 = sl.GridDensity(grid, np.array([2.0, 2.0 / 3.0]))
        d2 = sl.GridDensity(grid, np.array([1.0, 1.0]))
        assert sl.l1_distance(d1, d2) == pytest.approx(0.25 + 0.75 / 3.0)

    def test_l1_distance_requires_matching_grids(self, mu_tent2, mu_quadratic):
        regular = sl.lebesgue_density(sl.Grid1D(-2.0, 2.0, 64))
        graded = sl.lebesgue_density(postcritical_grid(sl.make_map("quadratic"), 64))
        for d1, d2 in [(mu_tent2, mu_quadratic), (regular, graded)]:
            with pytest.raises(sl.ArgumentError, match="different grids"):
                sl.l1_distance(d1, d2)


@pytest.fixture(scope="module")
def tower_k3():
    F = sl.doubling_first_return_exact(3)
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
        F = sl.doubling_first_return_exact(3)
        sl.verify_axioms(F)
        mu = sl.stationary_density(sl.ulam_matrix(F, 8))
        np.testing.assert_allclose(mu.values[:7], 16 / 7, atol=1e-10)
        assert mu.values[7] == 0.0
        assert mu.mass == pytest.approx(1.0, abs=1e-12)

    def test_flagged_bins_are_recorded_as_excluded(self):
        F = sl.doubling_first_return_exact(3)
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


class TestBoundsCheck:
    def test_two_sided_bounds_on_live_bins(self, mu_quadratic):
        bc = sl.density_bounds_check(mu_quadratic)
        assert bc.passed
        assert 0 < bc.minimum <= bc.maximum
        assert bc.maximum / bc.minimum <= bc.ratio_cap

    def test_excluded_bins_do_not_count_as_zeros(self):
        F = sl.doubling_first_return_exact(3)
        sl.verify_axioms(F)
        mu = sl.stationary_density(sl.ulam_matrix(F, 8))
        bc = sl.density_bounds_check(mu)
        assert bc.passed
        assert bc.minimum == pytest.approx(16 / 7)

    def test_cap_violation_fails(self, mu_tent2):
        spiked = np.array(mu_tent2.values, copy=True)
        spiked[0] *= 500.0
        d = sl.GridDensity(grid=mu_tent2.grid, values=spiked, provenance="normalized")
        bc = sl.density_bounds_check(d, ratio_cap=100.0)
        assert not bc.passed
        assert bc.max_index == 0

    def test_external_densities_are_not_checkable(self, mu_tent2):
        d = sl.GridDensity(grid=mu_tent2.grid, values=np.array(mu_tent2.values),
                           provenance="external")
        with pytest.raises(sl.ArgumentError, match="stationary"):
            sl.density_bounds_check(d)


class TestSpreadMeasure:
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
        spread, mass = sl.normalize(sl.spread_measure(tent2_map, tower_tent2, mu_tent2, 4096))
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
        mids, w = mu.grid.mids, mu.grid.widths
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
        post = [m.f_scalar(0.0)]
        for _ in range(2):
            post.append(m.f_scalar(post[-1]))
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

    def test_trivial_tower(self, tower_circle3):
        ds = [_refinement_distance(tower_circle3, k) for k in (9, 10, 11)]
        assert max(ds) < 1e-10

    def test_quadratic_tower(self, tower_quadratic):
        ds = [_refinement_distance(tower_quadratic, k) for k in (11, 12, 13)]
        assert ds[1] < ds[0] and ds[2] < ds[1]
