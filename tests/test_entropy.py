"""Entropy estimators and the identities tying them together."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srblab as sl
from srblab.maps import NEAR_CRITICAL_FLOOR, QuadraticMap, TentMap, VianaMap
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

    def test_circle3_tower_reduces_to_the_base_entropy(self, tower_circle3, mu_circle3):
        h_F = sl.entropy_induced(tower_circle3, mu_circle3)
        kac = sl.kac_mass(tower_circle3, mu_circle3)
        assert kac == pytest.approx(1.0, abs=1e-12)
        assert h_F == pytest.approx(math.log(3.0), abs=1e-6)


def _per_row_pesin(m, mu):
    """The cylinder Pesin quadrature as it ran before the grid was a product
    of two axes: one map call per theta-row of bins, each bin sampled at
    4 x 4 points spaced by the first edge differences of the two axes."""
    grid = mu.grid
    n_theta, n_x = grid.shape
    te = np.linspace(0.0, 1.0, n_theta + 1)
    xe = np.linspace(grid.x.lo, grid.x.hi, n_x + 1)
    tw, xw = te[1] - te[0], xe[1] - xe[0]
    offsets = (np.arange(4) + 0.5) / 4
    logs, clip_frac = np.empty((2, n_theta, n_x))
    for it in range(n_theta):
        pts = np.empty((n_x, 4, 4, 2))  # bin, theta stratum, x stratum
        pts[..., 0] = (te[it] + tw * offsets)[None, :, None]
        pts[..., 1] = (xe[:-1, None] + xw * offsets)[:, None, :]
        det = m.abs_det_batch(pts.reshape(-1, 2))
        lg = np.log(np.maximum(det, NEAR_CRITICAL_FLOOR))
        logs[it] = lg.reshape(n_x, -1).mean(axis=1)
        clip_frac[it] = (det < NEAR_CRITICAL_FLOOR).reshape(n_x, -1).mean(axis=1)
    weights = mu.bin_measures
    return float((weights * logs.ravel()).sum()), float((weights * clip_frac.ravel()).sum())


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

    def test_clip_mass_is_reported(self, quadratic_map):
        # the pesin route's truncation bound is the density mass whose
        # integrand was clipped
        pesin = sl.entropy_report(quadratic_map, bins=4096, lyapunov="not run").routes["pesin"]
        assert np.isfinite(pesin.estimate)
        assert 0.0 <= pesin.truncation_bound < 0.05

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

    @pytest.mark.parametrize("a", [1.7501, 1.76])
    def test_the_period_three_window_gives_zero(self, a):
        # an attracting 3-cycle: the integral is negative (-0.0377 and
        # -0.2692 at 1024 bins), the entropy is its positive part
        m = sl.make_map("quadratic", a=a)
        rep = sl.entropy_report(m, bins=1024, n_orbits=8, n_iters=2000)
        assert rep.pesin_exponent < -0.03
        assert rep.routes["pesin"].estimate == 0.0
        assert sl.entropy_pesin(m, rep.density) == 0.0
        assert rep.routes["lyapunov"].estimate == pytest.approx(0.0, abs=0.01)

    def test_a_positive_exponent_keeps_its_bits(self, quadratic_map):
        rep = sl.entropy_report(quadratic_map, bins=1024, n_orbits=2, n_iters=10)
        h_pesin = rep.routes["pesin"].estimate
        assert h_pesin == rep.pesin_exponent > 0.69
        assert sl.entropy_pesin(quadratic_map, rep.density) == h_pesin

    def test_the_cylinder_keeps_log_d(self):
        # all mass on the fibre bins next to x = 0, where log |2x| < -log d
        m = sl.make_map("viana", alpha=0.01, d=16)
        grid = sl.Grid2D(sl.Grid1D(0.0, 1.0, 8), sl.Grid1D(m.domain.lo, m.domain.hi, 64))
        values = np.zeros(grid.shape)
        values[:, 31:33] = 1.0 / (2 * grid.theta.n * grid.widths[0])
        mu = sl.GridDensity(grid=grid, values=values.ravel(), provenance="normalized")
        exponent, _ = sl.entropy._pesin_integral(m, mu)
        assert exponent < math.log(16)
        assert sl.entropy_pesin(m, mu) == math.log(16)

    @pytest.mark.parametrize("n_theta,n_x", [(8, 64), (64, 64), (32, 31), (71, 70)])
    def test_the_cylinder_quadrature_matches_the_per_row_reference(self, n_theta, n_x):
        m = sl.make_map("viana", alpha=0.01, d=16)
        grid = sl.Grid2D(sl.Grid1D(0.0, 1.0, n_theta), sl.Grid1D(m.domain.lo, m.domain.hi, n_x))
        values = np.random.default_rng(n_x).uniform(0.0, 1.0, grid.n)
        for v in (np.ones(grid.n), values):
            mu = sl.GridDensity(grid, v / (v * grid.widths).sum(), "normalized")
            got, want = sl.entropy._pesin_integral(m, mu), _per_row_pesin(m, mu)
            if n_x & (n_x - 1) == 0:
                assert got == want
            else:
                # the x strata are spaced by the fibre axis's width (hi - lo) / n_x,
                # the reference by edges[1] - edges[0], which differs by an ulp
                assert got == pytest.approx(want, rel=8 * np.finfo(float).eps, abs=0)

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

    def f_batch(self, x, out=None):
        return np.subtract(x, self.drop, out=out)

    def fibre_derivative_batch(self, x, out=None):
        return np.abs(np.where(x >= 0, 1.0 + x, 0.0), out=out)

    def crit_dist_batch(self, x):
        return self.fibre_derivative_batch(x)


class _Pinned(QuadraticMap):
    """Quadratic map at a = 2 whose draws above 1 start at
    ``x = 1.4142135623730947``, whose image is 8.9e-16; counts its draws."""

    x = 1.4142135623730947

    def __init__(self):
        super().__init__(2.0)
        self.draws = 0

    def sample_uniform(self, rng, n):
        self.draws += n
        x = super().sample_uniform(rng, n)
        return np.where(x > 1.0, self.x, x)


def _per_slot_reference(m, sample_size, n, seed, retry_budget=8):
    """One orbit per slot from its stream, through ``lyapunov_exponents``;
    near-critical orbits are redrawn from the same stream."""
    values = []
    for i in range(sample_size):
        rng = stream(seed, 11, i)
        for _ in range(retry_budget + 1):
            try:
                lams = sl.lyapunov_exponents(m, m.sample_uniform(rng, 1)[0], n)
            except sl.NearCriticalError:
                continue
            values.append(sum(max(lam, 0.0) for lam in lams))
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
        for m in (doubling_map, quadratic_map, sl.make_map("viana", alpha=0.01, d=16),
                  sl.make_map("viana", alpha=0.05, d=3)):
            assert sl.entropy_lyapunov(m, 8, 2000, seed=5) == _per_slot_reference(m, 8, 2000, 5)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 3 * 256 + 7])
    @pytest.mark.parametrize("family,params,sample_size", [
        ("quadratic", {"a": 2.0}, 1), ("quadratic", {"a": 2.0}, 3), ("quadratic", {"a": 2.0}, 64),
        ("tent", {"slope": 1.7}, 1), ("circle_perturbed", {"t": 0.3}, 1),
    ])
    def test_blocks_match_the_reference_at_every_length(self, family, params, sample_size, n):
        # orbit lengths on both sides of the 256-step block; the block of one
        # orbit is one contiguous column, which a pairwise sum would reorder
        m = sl.make_map(family, **params)
        assert sl.entropy_lyapunov(m, sample_size, n, seed=2) == \
            _per_slot_reference(m, sample_size, n, 2)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("family,params,sample_size,block", [
        ("quadratic", {"a": 2.0}, 1, 2 ** 15), ("quadratic", {"a": 2.0}, 3, 10922),
        ("quadratic", {"a": 2.0}, 64, 512), ("tent", {"slope": 1.7}, 1, 2 ** 15),
        ("circle_perturbed", {"t": 0.3}, 1, 2 ** 15),
        ("viana", {"alpha": 0.01, "d": 16}, 64, 256),
    ])
    def test_blocks_match_the_reference_on_both_sides_of_a_block(self, family, params,
                                                                  sample_size, block, offset):
        # a block holds 2^15 values, orbits x coordinates: these lengths end
        # one step before, at and one step after the end of the first block
        m = sl.make_map(family, **params)
        assert m.block_steps(sample_size) == block
        n = block + offset
        assert sl.entropy_lyapunov(m, sample_size, n, seed=2) == \
            _per_slot_reference(m, sample_size, n, 2)

    @pytest.mark.parametrize("sample_size,n", [(1, 300), (3, 300), (16, 520), (64, 450)])
    def test_near_critical_slots_restart_from_their_own_stream(self, sample_size, n):
        m = _Countdown()
        assert sl.entropy_lyapunov(m, sample_size, n, seed=6) == \
            _per_slot_reference(m, sample_size, n, 6)

    def test_driver_and_reference_share_the_near_critical_test(self):
        # f(x) = 8.9e-16 from x = 1.4142135623730947: |f'| = 1.8e-15 passes
        # a derivative test, crit_dist fails the floor, so the slot restarts
        m = _Pinned()
        assert m.f_batch(np.array([_Pinned.x]))[0] == pytest.approx(8.9e-16, rel=0.01)
        got = sl.entropy_lyapunov(m, 8, 300, seed=1)
        assert m.draws > 8  # a pinned slot restarted
        assert got == _per_slot_reference(m, 8, 300, 1)

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


class _Landing(VianaMap):
    """Viana map whose draws with ``x > cut`` are moved to
    ``x = sqrt(c(theta))``, so that their first step lands within rounding
    of the critical circle and the slot restarts mid-block; counts its
    draws."""

    def __init__(self, alpha, cut=1.2):
        super().__init__(alpha=alpha)
        self.cut = cut
        self.draws = 0

    def sample_uniform(self, rng, n):
        self.draws += n
        p = super().sample_uniform(rng, n)
        c = self.a0 + self.alpha * np.sin(2 * np.pi * p[:, 0])
        p[:, 1] = np.where(p[:, 1] > self.cut, np.sqrt(c), p[:, 1])
        return p


class _CountingTent(TentMap):
    """Tent map that records the number of points of every ``f_batch`` call."""

    calls = []

    def f_batch(self, x, out=None):
        self.calls.append(len(x))
        return super().f_batch(x, out=out)


class _BlockRecording(QuadraticMap):
    """Quadratic map that records ``k * len(x)`` of every ``orbit`` call;
    the copies the driver makes share the record."""

    def __init__(self, a):
        super().__init__(a)
        self.sizes = []

    def orbit(self, x, k):
        self.sizes.append(k * len(x))
        return super().orbit(x, k)


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

    def test_viana_rows_with_restarts_match_their_one_row_runs(self):
        maps = [_Landing(0.0), _Landing(0.01, cut=np.inf), _Landing(0.05)]
        rows = sl.entropy_lyapunov_rows(maps, 16, 600, [4, 5, 6])
        draws = [m.draws for m in maps]
        assert draws[0] > 16 and draws[1] == 16 and draws[2] > 16  # restarts in rows 0, 2
        for m, seed, row in zip(maps, [4, 5, 6], rows):
            assert row == sl.entropy_lyapunov(m, 16, 600, seed=seed)
        assert [m.draws for m in maps] == [2 * d for d in draws]
        assert rows[1] == sl.entropy_lyapunov(sl.make_map("viana", alpha=0.01), 16, 600, seed=5)

    def test_viana_values_are_pinned(self):
        # taken before the cylinder orbits split the base from the fibre
        m = sl.make_map("viana", alpha=0.01, d=16)
        assert sl.entropy_lyapunov(m, 16, 20_000, seed=3) == \
            (3.1149126755419365, 0.0001591420115879234)
        maps = [sl.make_map("viana", alpha=a, d=d) for a, d in [(0.0, 16), (0.05, 3), (0.01, 2)]]
        assert sl.entropy_lyapunov_rows(maps, 8, 1000, [1, 2, 3]) == [
            (3.1166001434080863, 0.0012373426907142148),
            (1.3943371365321673, 0.0036272076212777622),
            (1.0323809377893043, 0.001039711812880097)]

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

    def test_a_block_holds_at_most_2_15_values_for_any_number_of_rows(self):
        values = np.linspace(1.6, 2.0, 40)
        maps = [_BlockRecording(a) for a in values]
        rows = sl.entropy_lyapunov_rows(maps, 64, 500, list(range(40)))
        sizes = maps[0].sizes
        assert sizes[0] == 12 * 40 * 64  # 12-step blocks over the 2,560 slots
        assert max(sizes) <= 1 << 15
        # the one-row runs step in blocks of 512
        assert rows == [sl.entropy_lyapunov(QuadraticMap(a), 64, 500, seed=s)
                        for s, a in enumerate(values)]
        one = _BlockRecording(2.0)
        sl.entropy_lyapunov(one, 64, 1000, seed=0)
        assert one.sizes == [512 * 64, 488 * 64]

    def test_rows_must_share_a_family(self):
        with pytest.raises(sl.ArgumentError):
            sl.entropy_lyapunov_rows([sl.make_map("tent"), sl.make_map("doubling")],
                                     4, 10, [0, 1])


class TestSmb:
    def test_depth_one_reads_off_the_cell_mass(self, tower_doubling20):
        # cell k has conditional Lebesgue mass 2^-(k+1) on the base
        for k, x in [(0, 0.1), (1, 0.3), (3, 0.45)]:
            assert tower_doubling20.cell_index_batch([x]).tolist() == [k]
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


def _smb_full_pull_back(F, x, n):
    """``entropy_smb`` on a non-affine tower with the base interval pulled
    back through all n cells, down to row 0, and the anchor pulled back
    from the switch row: the reference for stopping at the switch row."""
    drng = stream(int(np.float64(x).view(np.uint64)), 29)
    lo, hi = F.delta.lo, F.delta.hi
    cells, y = [], np.array([x])
    for k in range(n):
        i = int(F.cell_index_batch(y)[0])
        if i < 0:
            raise sl.CensoredOrbitError(k)
        cells.append(i)
        y = sl.dither(np.clip(F.evaluate(i, y), lo, np.nextafter(hi, lo)), drng, lo, hi)
    ends, ys = np.empty((n, 2)), np.array([F.delta.lo, F.delta.hi])
    for j in range(n - 1, -1, -1):
        ys = ends[j] = F.invert(cells[j], ys)
    widths = ends.max(axis=1) - ends.min(axis=1)
    narrow = np.flatnonzero(widths < 1e-6 * F.delta.width)
    k = int(narrow[-1]) if narrow.size else 0
    anchors, anchor = np.empty(k), np.array([0.5 * (ends[k, 0] + ends[k, 1])])
    for j in range(k - 1, -1, -1):
        anchor = F.invert(cells[j], anchor)
        anchors[j] = anchor[0]
    _, logj, _ = F.evaluate(np.array(cells[:k], dtype=int), anchors, jacobian=True)
    log_extra = 0.0
    for term in logj[::-1].tolist():
        log_extra -= term
    return -(math.log(float(widths[k])) + log_extra - math.log(F.delta.width)) / n


def _outcome(estimate, *args):
    try:
        return estimate(*args)
    except sl.CensoredOrbitError as exc:
        return ("censored", str(exc))


class TestSmbSwitchRow:
    def test_matches_the_full_pull_back_bit_for_bit(self, tower_quadratic):
        circle = sl.first_return_map(sl.make_map("circle_perturbed", t=0.2),
                                     sl.Interval(0.0, 0.5), 20)
        censored = 0
        for F in (circle, tower_quadratic):
            starts = np.random.default_rng(3).uniform(F.delta.lo, F.delta.hi, 6).tolist()
            # one start in the deficit, one that survives 64 quadratic cells
            starts += [np.nextafter(F.delta.hi, F.delta.lo), 0.02806832496556757]
            for n in (1, 8, 64, 200):
                for x in starts:
                    got = _outcome(sl.entropy_smb, F, x, n)
                    assert got == _outcome(_smb_full_pull_back, F, x, n)
                    censored += isinstance(got, tuple)
        assert censored > 0


class TestTruncationBound:
    def test_default_constant_comes_from_the_majorant(self, tower_quadratic, mu_quadratic):
        censored = sl.kac_breakdown(tower_quadratic, mu_quadratic)[1]
        assert censored > 0
        assert sl.entropy_truncation_bound(tower_quadratic, mu_quadratic) == \
            censored * abs(sl.majorant_check(tower_quadratic).C)

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

    def test_inflated_jacobian_is_caught(self, tower_doubling12, mutant):
        F = tower_doubling12
        mc = sl.majorant_check(mutant(F, "slope", 1.5 * F.cells.slope[0]))
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

    def test_lambda_f_is_one_lyapunov_route_call(self, monkeypatch, quadratic_map,
                                                 tower_quadratic, mu_quadratic):
        calls = []

        def driver(m, sample_size, n, seed=0, retry_budget=8):
            calls.append((m, sample_size, n, seed))
            return 0.625, 0.125

        monkeypatch.setattr(sl.entropy, "entropy_lyapunov", driver)
        qc = sl.lyapunov_quotient_check(quadratic_map, tower_quadratic, mu_quadratic,
                                        sample=8, n=300, seed=3)
        (m, sample_size, n_base, seed), = calls
        assert (m, sample_size, seed) == (quadratic_map, 8, 3)
        # as many base steps per orbit as the tower orbits took on average
        assert 300 < n_base <= 300 * tower_quadratic.tau_max
        assert (qc.lambda_f, qc.lambda_f_se) == (0.625, 0.125)
        assert qc.gap == abs(qc.quotient - 0.625)

    def test_requires_a_verified_tower(self, doubling_map, mu_doubling12):
        F = sl.first_return_map(doubling_map, sl.Interval(0.0, 0.5), 12)
        with pytest.raises(sl.UnverifiedTowerError):
            sl.lyapunov_quotient_check(doubling_map, F, mu_doubling12, sample=2, n=100)

    @pytest.mark.parametrize("mapname,tower,mu", [
        ("doubling_map", "tower_doubling20", "mu_doubling20"),
        ("tent2_map", "tower_tent2", "mu_tent2"),
    ])
    def test_a_return_time_one_too_large_is_caught(self, mapname, tower, mu, mutant, request):
        m, F, mu_F = (request.getfixturevalue(name) for name in (mapname, tower, mu))
        wrong = mutant(F, "tau", int(F.cells.tau[0]) + 1)
        # the axioms and the majorant do not see it
        assert sl.verify_axioms(wrong).all_ok
        assert sl.majorant_check(wrong).passed
        clean, caught = (sl.lyapunov_quotient_check(m, G, mu_F, sample=8, n=2000, seed=0).gap
                         for G in (F, wrong))
        assert clean < 0.01
        assert caught > 0.1


class TestEntropyReport:
    def test_doubling_report_is_consistent(self, doubling_map, tower_doubling20):
        rep = sl.entropy_report(doubling_map, tower_doubling20, bins=2048,
                                n_orbits=16, n_iters=20000, smb_depth=32, seed=0)
        assert rep.errors == {}
        h = {method: route.estimate for method, route in rep.routes.items()}
        assert h["abramov"] == pytest.approx(LOG2, abs=2e-3)
        assert h["lyapunov"] == pytest.approx(LOG2, abs=1e-6)
        assert h["pesin"] == pytest.approx(LOG2, abs=2e-3)
        assert h["induced"] == pytest.approx(2 * LOG2, abs=2e-3)
        assert h["kac_mass"] == pytest.approx(2.0, abs=1e-3)
        assert abs(h["smb"] - h["induced"]) < 0.5

    def test_report_without_a_tower_keeps_ambient_estimators(self, tent2_map):
        rep = sl.entropy_report(tent2_map, None, bins=512, n_orbits=8,
                                n_iters=5000, seed=0)
        assert rep.errors == {}
        assert rep.routes["lyapunov"].estimate == pytest.approx(LOG2, abs=1e-8)
        assert rep.routes["pesin"].estimate == pytest.approx(LOG2, abs=1e-8)
        assert math.isnan(rep.routes["induced"].estimate)
        assert math.isnan(rep.routes["smb"].estimate)

    def test_a_report_without_a_tower_gaps_only_the_ambient_routes(self, quadratic_map):
        rep = sl.entropy_report(quadratic_map, None, bins=256, n_orbits=4, n_iters=500)
        h = {method: route.estimate for method, route in rep.routes.items()}
        assert rep.discrepancies == {"pesin_vs_lyapunov": abs(h["pesin"] - h["lyapunov"])}
        assert rep.tau_cap == 0
        assert all(route.tau_cap is None for route in rep.routes.values())

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

    @settings(max_examples=40, deadline=None)
    @given(m=st.one_of(
        st.floats(1.4, 2.0).map(lambda a: sl.make_map("quadratic", a=a)),
        st.floats(1.5, 2.0, exclude_min=True).map(lambda s: sl.make_map("tent", slope=s)),
        st.floats(0.0, 0.4).map(lambda t: sl.make_map("circle_perturbed", t=t))))
    @example(m=sl.make_map("quadratic", a=1.7501))
    @example(m=sl.make_map("quadratic", a=1.76))
    def test_every_ambient_route_is_non_negative(self, m):
        rep = sl.entropy_report(m, None, bins=256, n_orbits=8, n_iters=2000)
        assert rep.routes["pesin"].estimate >= 0.0
        assert rep.routes["lyapunov"].estimate >= 0.0

    @pytest.mark.parametrize("bins,held", [(1000, 992), (5000, 4970), (4096, 4096)])
    def test_report_records_the_bins_its_cylinder_grid_holds(self, viana_map, bins, held):
        # a cylinder grid is whole rows of theta cells: 32 x 31 for 1000 bins
        rep = sl.entropy_report(viana_map, None, bins=bins, lyapunov="not run")
        assert rep.density.grid.n == held
        assert {r.method for r in rep.routes.values() if r.bins == held} == {"pesin"}
        # the tower routes never ran: their records carry no bins
        assert {r.method for r in rep.routes.values() if r.bins is None} == \
            {"lyapunov", "induced", "abramov", "smb", "kac_mass"}

    def test_discrepancies_cover_the_estimator_pairs(self, doubling_map, tower_doubling20):
        rep = sl.entropy_report(doubling_map, tower_doubling20, bins=512,
                                n_orbits=8, n_iters=5000, smb_depth=16, seed=0)
        h = {method: route.estimate for method, route in rep.routes.items()}
        assert rep.discrepancies == {
            "abramov_vs_pesin": abs(h["abramov"] - h["pesin"]),
            "abramov_vs_lyapunov": abs(h["abramov"] - h["lyapunov"]),
            "pesin_vs_lyapunov": abs(h["pesin"] - h["lyapunov"]),
            "smb_vs_induced": abs(h["smb"] - h["induced"]),
        }
        assert rep.tau_cap == tower_doubling20.tau_max
