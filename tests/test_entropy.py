"""Entropy estimators and the identities tying them together."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srblab as sl
from srblab.maps import TentMap
from srblab.rng import stream

LOG2 = math.log(2.0)


class TestInducedAndAbramov:
    def test_induced_entropy_of_the_doubling_tower(self, tower_doubling20, mu_doubling20):
        h = sl.entropy_induced(tower_doubling20, mu_doubling20)
        assert h == pytest.approx(2 * LOG2, abs=1e-3)

    def test_abramov_rescales_by_the_mean_return(self, tower_doubling20, mu_doubling20):
        kac = sl.kac_mass(tower_doubling20, mu_doubling20)
        h_F = sl.entropy_induced(tower_doubling20, mu_doubling20)
        h = sl.entropy_abramov(tower_doubling20, mu_doubling20, kac)
        assert h == pytest.approx(h_F / kac, rel=1e-12)
        assert h == pytest.approx(LOG2, abs=1e-3)

    def test_abramov_rejects_nonpositive_mass(self, tower_doubling20, mu_doubling20):
        with pytest.raises(sl.ArgumentError):
            sl.entropy_abramov(tower_doubling20, mu_doubling20, 0.0)

    def test_trivial_tower_reduces_to_the_base_entropy(self, tower_circle3, mu_circle3):
        h_F = sl.entropy_induced(tower_circle3, mu_circle3)
        kac = sl.kac_mass(tower_circle3, mu_circle3)
        assert kac == pytest.approx(1.0, abs=1e-12)
        assert h_F == pytest.approx(math.log(3.0), abs=1e-6)


class TestPesin:
    def test_uniform_density_gives_log_slope(self, tent2_map):
        leb = sl.lebesgue_density(sl.Grid1D(0.0, 1.0, 1024))
        ext = sl.GridDensity(grid=leb.grid, values=leb.values, provenance="normalized")
        assert sl.entropy_pesin(tent2_map, ext) == pytest.approx(LOG2, abs=1e-12)

    def test_closed_form_chebyshev_density(self, quadratic_map):
        grid = sl.Grid1D(-2.0, 2.0, 4096)
        edges = np.linspace(-2.0, 2.0, 4097)
        mass = (np.arcsin(edges[1:] / 2.0) - np.arcsin(edges[:-1] / 2.0)) / math.pi
        mu = sl.GridDensity(grid=grid, values=mass * 4096 / 4.0, provenance="normalized")
        h = sl.entropy_pesin(quadratic_map, mu)
        assert h == pytest.approx(0.6931518942745796, rel=1e-10)  # log 2 + O(clip)
        assert abs(h - LOG2) < 1e-4

    def test_clip_mass_is_reported(self, quadratic_map, mu_quadratic, tower_quadratic):
        spread, _ = sl.normalize(sl.spread_measure(quadratic_map, tower_quadratic,
                                                   mu_quadratic, 4096))
        h, clip = sl.entropy_pesin(quadratic_map, spread, return_clip=True)
        assert np.isfinite(h)
        assert 0.0 <= clip < 0.05

    def test_misiurewicz_parameter_converges_to_the_reference(self):
        # the quadratic at the viana fibre parameter swaps two bands; its
        # h_pesin from a 2^17-bin solve is 0.342168, and at 1024 bins the
        # Ulam discretisation alone is about 6e-4 off
        m = sl.make_map("quadratic", a=sl.misiurewicz_parameter())
        errs = [abs(sl.entropy_pesin(m, sl.stationary_density(sl.one_step_ulam(m, bins)))
                    - 0.342168)
                for bins in (1024, 4096, 16384, 65536)]
        assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-5

    def test_requires_unit_mass(self, tent2_map):
        grid = sl.Grid1D(0.0, 1.0, 64)
        heavy = sl.GridDensity(grid=grid, values=2 * np.ones(64), provenance="normalized")
        with pytest.raises(sl.ArgumentError, match="unit mass"):
            sl.entropy_pesin(tent2_map, heavy)


class _Countdown(sl.MapSystem):
    """Test double: ``x -> x - drop`` on ``[lo, 1]`` with derivative
    ``1 + x``, critical on ``x < 0``.  A draw ``u >= 0`` reaches the
    critical set at step ``floor(u / drop) + 1``, so near-critical steps
    fall at every offset of an orbit block; with the defaults a fifth of
    the draws start on it."""

    family = "countdown"

    def __init__(self, drop=2.0 ** -10, lo=-0.25):
        super().__init__()
        self.drop = drop
        self.params = {"drop": drop, "lo": lo}
        self.domain = sl.Interval(lo, 1.0)

    def f_scalar(self, x):
        return x - self.drop

    def f_batch(self, x):
        return x - self.drop

    def df_scalar(self, x):
        return 1.0 + x if x >= 0 else 0.0

    def df_batch(self, x):
        return np.where(x >= 0, 1.0 + x, 0.0)

    def crit_dist_scalar(self, x):
        return self.df_scalar(x)


def _per_slot_reference(m, sample_size, n, seed, retry_budget=8):
    """One scalar orbit per slot from its stream; near-critical orbits are
    redrawn from the same stream."""
    values = []
    for i in range(sample_size):
        rng = stream(seed, 11, i)
        for _ in range(retry_budget + 1):
            try:
                lam = sl.lyapunov_exponents(m, m.sample_uniform(rng, 1)[0], n)[0]
            except sl.NearCriticalError:
                continue
            values.append(max(lam, 0.0))
            break
        else:
            raise AssertionError(f"slot {i} exhausted the retry budget")
    values = np.array(values)
    se = float(values.std(ddof=1) / math.sqrt(sample_size)) if sample_size > 1 else 0.0
    return float(values.mean()), se


class TestLyapunovEstimator:
    @pytest.mark.parametrize("slope", [1.5, 1.7, 2.0])
    def test_tent_exponent_is_exact(self, slope):
        m = sl.make_map("tent", slope=slope)
        h, se = sl.entropy_lyapunov(m, 16, 2000, seed=0)
        assert h == pytest.approx(math.log(slope), abs=1e-10)
        assert se == pytest.approx(0.0, abs=1e-10)

    def test_doubling_exponent(self, doubling_map):
        h, se = sl.entropy_lyapunov(doubling_map, 16, 2000, seed=0)
        assert h == pytest.approx(LOG2, abs=1e-10)

    def test_quadratic_exponent_has_monte_carlo_spread(self, quadratic_map):
        h, se = sl.entropy_lyapunov(quadratic_map, 16, 10000, seed=0)
        assert h == pytest.approx(LOG2, abs=0.01)
        assert se > 0.0

    def test_fast_path_matches_the_reference(self, doubling_map, quadratic_map):
        assert sl.entropy_lyapunov_fast is sl.entropy_lyapunov_rows
        for m in (doubling_map, quadratic_map):
            assert sl.entropy_lyapunov(m, 8, 2000, seed=5) == _per_slot_reference(m, 8, 2000, 5)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 3 * 256 + 7])
    @pytest.mark.parametrize("sample_size", [1, 3, 64])
    def test_blocks_match_the_reference_at_every_length(self, quadratic_map, n, sample_size):
        # orbit lengths on both sides of the 256-step block
        assert sl.entropy_lyapunov(quadratic_map, sample_size, n, seed=2) == \
            _per_slot_reference(quadratic_map, sample_size, n, 2)

    @pytest.mark.parametrize("sample_size,n", [(1, 300), (3, 300), (16, 520), (64, 450)])
    def test_near_critical_slots_restart_from_their_own_stream(self, sample_size, n):
        m = _Countdown()
        assert sl.entropy_lyapunov(m, sample_size, n, seed=6) == \
            _per_slot_reference(m, sample_size, n, 6)

    def test_an_exhausted_retry_budget_raises(self):
        with pytest.raises(sl.NearCriticalError):
            sl.entropy_lyapunov(_Countdown(), 16, 300, seed=6, retry_budget=0)
        with pytest.raises(sl.NearCriticalError):
            sl.entropy_lyapunov(_Countdown(), 4, 2000, seed=6)

    def test_circle_perturbed_value_is_pinned(self):
        m = sl.make_map("circle_perturbed", t=0.2)
        assert sl.entropy_lyapunov(m, 16, 20_000, seed=3) == \
            (0.6910368924400532, 0.00010215747611661017)

    def test_seed_controls_the_sample(self, quadratic_map):
        a = sl.entropy_lyapunov(quadratic_map, 8, 2000, seed=1)
        b = sl.entropy_lyapunov(quadratic_map, 8, 2000, seed=1)
        c = sl.entropy_lyapunov(quadratic_map, 8, 2000, seed=2)
        assert a == b
        assert a != c


class _CountingTent(TentMap):
    """Tent map that records the number of points of every ``f_batch`` call."""

    calls = []

    def f_batch(self, x):
        self.calls.append(len(x))
        return super().f_batch(x)


class TestLyapunovRows:
    @pytest.mark.parametrize("family,key,values", [
        ("tent", "slope", [1.5, 1.8, 2.0]),
        ("circle_perturbed", "t", [0.0, 0.2, 0.4]),
        ("quadratic", "a", [1.6, sl.misiurewicz_parameter(), 2.0]),
        ("viana", "alpha", [0.0, 0.01, 0.05]),
        ("circle_linear", "d", [2, 3, 5]),
    ])
    def test_rows_equal_their_one_row_runs_bit_for_bit(self, family, key, values):
        maps = [sl.make_map(family, **{key: v}) for v in values]
        seeds = [11, 12, 13]
        rows = sl.entropy_lyapunov_rows(maps, 8, 3 * 256 + 7, seeds)
        assert rows == [sl.entropy_lyapunov(m, 8, 3 * 256 + 7, seed=s)
                        for m, s in zip(maps, seeds)]
        assert len(set(rows)) == 3

    def test_restarting_rows_match_their_one_row_runs(self):
        maps = [_Countdown(), _Countdown(2.0 ** -11), _Countdown(2.0 ** -12, lo=-0.1)]
        rows = sl.entropy_lyapunov_rows(maps, 16, 520, [6, 7, 8])
        for m, seed, row in zip(maps, [6, 7, 8], rows):
            assert row == sl.entropy_lyapunov(m, 16, 520, seed=seed)
            assert row == _per_slot_reference(m, 16, 520, seed)

    def test_an_exhausted_row_fails_alone(self):
        calm = _Countdown(2.0 ** -20, lo=0.0)
        maps = [calm, _Countdown(), calm]
        rows = sl.entropy_lyapunov_rows(maps, 16, 300, [1, 6, 2], retry_budget=0)
        with pytest.raises(sl.NearCriticalError) as alone:
            sl.entropy_lyapunov(maps[1], 16, 300, seed=6, retry_budget=0)
        assert isinstance(rows[1], sl.NearCriticalError)
        assert str(rows[1]) == str(alone.value)
        assert rows[0] == sl.entropy_lyapunov(calm, 16, 300, seed=1, retry_budget=0)
        assert rows[2] == sl.entropy_lyapunov(calm, 16, 300, seed=2, retry_budget=0)

    def test_one_map_call_per_step_for_all_rows(self):
        maps = [_CountingTent(s) for s in (1.5, 1.7, 1.9, 2.0)]
        _CountingTent.calls.clear()
        sl.entropy_lyapunov_rows(maps, 4, 600, [0, 1, 2, 3])
        assert _CountingTent.calls == [16] * 600

    def test_rows_must_share_a_family(self):
        with pytest.raises(sl.ArgumentError):
            sl.entropy_lyapunov_rows([sl.make_map("tent"), sl.make_map("doubling")],
                                     4, 10, [0, 1])


class TestSmb:
    def test_depth_one_reads_off_the_cell_mass(self, tower_doubling20):
        # cell k has conditional Lebesgue mass 2^-(k+1) on the base
        for k, x in [(0, 0.1), (1, 0.3), (3, 0.45)]:
            assert tower_doubling20.cell_index(x) == k
            v = sl.entropy_smb(tower_doubling20, x, 1)
            assert v == pytest.approx((k + 1) * LOG2, abs=1e-12)

    def test_converges_near_the_induced_entropy(self, tower_doubling20):
        v = sl.entropy_smb(tower_doubling20, 0.2339674764218604, 64)
        assert abs(v - 2 * LOG2) <= 0.05
        # frozen: the estimator is a pure function of (tower, x, n)
        assert v == pytest.approx(1.3862943611198912, rel=1e-12)

    def test_deficit_start_is_censored_at_step_zero(self, tower_doubling20):
        with pytest.raises(sl.CensoredOrbitError, match="step 0"):
            sl.entropy_smb(tower_doubling20, 0.5 - 2.0 ** -23, 1)

    def test_depth_must_be_positive(self, tower_doubling20):
        with pytest.raises(sl.ArgumentError):
            sl.entropy_smb(tower_doubling20, 0.3, 0)

    def test_non_affine_branches_use_endpoint_tracking(self, tower_quadratic):
        # survival to moderate depth is possible away from the censored mass
        v = sl.entropy_smb(tower_quadratic, 0.4, 8)
        assert np.isfinite(v)
        assert 0.5 < v < 6.0

    def test_non_affine_value_is_pinned(self, tower_quadratic):
        # deep enough to switch from endpoints to the midpoint derivatives
        assert sl.entropy_smb(tower_quadratic, 0.02806832496556757, 64) == 2.283580370377093

    def test_smb_median_distance_shrinks_with_depth(self, tower_doubling20, mu_doubling20):
        h_F = sl.entropy_induced(tower_doubling20, mu_doubling20)
        rng = np.random.default_rng(11)
        gaps_short, gaps_long = [], []
        for _ in range(32):
            x = float(rng.uniform(0.0, 0.5))
            gaps_short.append(abs(sl.entropy_smb(tower_doubling20, x, 32) - h_F))
            gaps_long.append(abs(sl.entropy_smb(tower_doubling20, x, 64) - h_F))
        assert np.median(gaps_long) <= np.median(gaps_short)


class TestTruncationBound:
    def test_scales_with_the_majorant_constant(self, tower_quadratic, mu_quadratic):
        b1 = sl.entropy_truncation_bound(tower_quadratic, mu_quadratic, C=1.0)
        b2 = sl.entropy_truncation_bound(tower_quadratic, mu_quadratic, C=2.0)
        assert b2 == pytest.approx(2 * b1, rel=1e-12)

    def test_default_constant_comes_from_the_majorant(self, tower_quadratic, mu_quadratic):
        C = sl.majorant_check(tower_quadratic).C
        assert sl.entropy_truncation_bound(tower_quadratic, mu_quadratic) == \
            pytest.approx(sl.entropy_truncation_bound(tower_quadratic, mu_quadratic, C=C))

    def test_nearly_zero_for_a_resolved_tower(self, tower_tent2, mu_tent2):
        assert sl.entropy_truncation_bound(tower_tent2, mu_tent2) < 1e-4

    def test_rejects_a_density_off_the_base_interval(self):
        F = sl.first_return_map(sl.make_map("tent", slope=1.8), sl.Interval(0.0, 0.5), 20)
        unit = sl.lebesgue_density(sl.Grid1D(0.0, 1.0, 64))
        with pytest.raises(sl.ArgumentError):
            sl.kac_mass(F, unit)
        with pytest.raises(sl.ArgumentError):
            sl.entropy_truncation_bound(F, unit)


class TestMajorant:
    def test_exact_doubling_attains_the_bound(self, tower_doubling12):
        mc = sl.majorant_check(tower_doubling12)
        assert mc.C == pytest.approx(LOG2, rel=1e-12)
        assert mc.worst_ratio == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_tower_stays_below_the_bound(self, tower_quadratic):
        mc = sl.majorant_check(tower_quadratic)
        assert mc.C == pytest.approx(math.log(4.0), rel=1e-12)
        assert mc.worst_ratio <= 1.0 + 1e-9

    def test_inflated_jacobian_is_caught(self, tower_doubling12):
        F = tower_doubling12
        c = F.cells[0]
        fat = sl.Cell(lo=c.lo, hi=c.hi, tau=c.tau, orientation=c.orientation,
                      slope=1.5 * c.slope, intercept=c.intercept)
        mutated = sl.InducedMarkovMap(F.base, F.delta, [fat] + list(F.cells[1:]),
                                      F.tau_max, provenance="exact")
        mc = sl.majorant_check(mutated)
        assert mc.worst_ratio > 1.0 + 1e-9
        assert mc.worst_cell == 0


class TestQuotientCheck:
    def test_doubling_quotient_matches_the_base_exponent(self, doubling_map,
                                                         tower_doubling20, mu_doubling20):
        qc = sl.lyapunov_quotient_check(doubling_map, tower_doubling20, mu_doubling20,
                                        sample=16, n=8000, seed=1)
        assert qc.mean_return == pytest.approx(2.0, abs=1e-4)
        assert qc.quotient == pytest.approx(qc.lambda_F / qc.mean_return, rel=1e-12)
        assert abs(qc.quotient - qc.lambda_f) < 5e-3
        assert qc.lambda_f == pytest.approx(LOG2, abs=1e-6)

    def test_requires_a_verified_tower(self, doubling_map, mu_doubling12):
        F = sl.doubling_first_return_exact(12)
        with pytest.raises(sl.UnverifiedTowerError):
            sl.lyapunov_quotient_check(doubling_map, F, mu_doubling12, sample=2, n=100)


class TestTransferIdentity:
    @pytest.mark.parametrize("tower,mu,mapname", [
        ("tower_doubling12", "mu_doubling12", "doubling_map"),
        ("tower_tent2", "mu_tent2", "tent2_map"),
        ("tower_quadratic", "mu_quadratic", "quadratic_map"),
    ])
    def test_gap_is_within_the_censoring_budget(self, tower, mu, mapname, request):
        F = request.getfixturevalue(tower)
        mu_F = request.getfixturevalue(mu)
        m = request.getfixturevalue(mapname)
        spread = sl.spread_measure(m, F, mu_F, mu_F.grid.n)
        tc = sl.jacobian_transfer_check(m, F, mu_F, spread)
        assert tc.gap <= tc.bound
        assert tc.lhs == pytest.approx(tc.rhs, abs=tc.bound + 1e-12)


class TestEntropyReport:
    def test_doubling_report_is_consistent(self, doubling_map, tower_doubling20):
        rep = sl.entropy_report(doubling_map, tower_doubling20, bins=2048,
                                n_orbits=16, n_iters=20000, smb_depth=32, seed=0)
        assert rep.errors == {}
        assert rep.h_abramov == pytest.approx(LOG2, abs=2e-3)
        assert rep.h_lyapunov == pytest.approx(LOG2, abs=1e-6)
        assert rep.h_pesin == pytest.approx(LOG2, abs=2e-3)
        assert rep.h_induced == pytest.approx(2 * LOG2, abs=2e-3)
        assert rep.kac == pytest.approx(2.0, abs=1e-3)
        assert rep.spread_mass == pytest.approx(rep.kac, abs=1e-9)
        assert abs(rep.h_smb - rep.h_induced) < 0.5
        assert rep.deficit == tower_doubling20.deficit

    def test_report_without_a_tower_keeps_ambient_estimators(self, tent2_map):
        rep = sl.entropy_report(tent2_map, None, bins=512, n_orbits=8,
                                n_iters=5000, seed=0)
        assert rep.errors == {}
        assert rep.h_lyapunov == pytest.approx(LOG2, abs=1e-8)
        assert rep.h_pesin == pytest.approx(LOG2, abs=1e-8)
        assert math.isnan(rep.h_induced)
        assert math.isnan(rep.h_smb)

    @settings(max_examples=10, deadline=None)
    @given(m=st.one_of(
        st.floats(1.5, 2.0, exclude_min=True).map(lambda s: sl.make_map("tent", slope=s)),
        st.floats(0.0, 0.4).map(lambda t: sl.make_map("circle_perturbed", t=t)),
        st.just(sl.make_map("quadratic"))),
        bins=st.integers(8, 256))
    def test_report_returns_its_one_step_density(self, m, bins):
        rep = sl.entropy_report(m, None, bins=bins, n_orbits=2, n_iters=10)
        solved = sl.stationary_density(sl.one_step_ulam(m, bins))
        assert rep.density.grid == solved.grid
        assert rep.density.values.tobytes() == solved.values.tobytes()

    def test_discrepancies_cover_the_estimator_pairs(self, doubling_map, tower_doubling20):
        rep = sl.entropy_report(doubling_map, tower_doubling20, bins=512,
                                n_orbits=8, n_iters=5000, smb_depth=16, seed=0)
        assert "abramov_vs_pesin" in rep.discrepancies
        assert "abramov_vs_lyapunov" in rep.discrepancies
        for gap in rep.discrepancies.values():
            assert gap >= 0.0
