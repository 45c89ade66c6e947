"""Orbit statistics: exponents, settling times, tail fits."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srblab as sl
from srblab.rng import stream


@pytest.mark.parametrize("slope", [1.5, 1.7, 1.9, 2.0])
def test_lyapunov_exponent_tent_is_log_slope(slope):
    m = sl.make_map("tent", slope=slope)
    (lam,) = sl.lyapunov_exponents(m, 0.2341, 4000)
    assert lam == pytest.approx(math.log(slope), abs=1e-10)


def test_lyapunov_exponent_doubling_is_log_two():
    m = sl.make_map("doubling")
    (lam,) = sl.lyapunov_exponents(m, 0.377, 4000)
    assert lam == pytest.approx(math.log(2.0), abs=1e-12)


def test_lyapunov_exponents_viana(viana_map):
    lams = sl.lyapunov_exponents(viana_map, (0.2, 0.3), 5000)
    assert len(lams) == 2
    fiber, base = sorted(lams)
    assert base == pytest.approx(math.log(16.0), abs=1e-9)
    assert 0.2 < fiber < 0.5


@pytest.mark.parametrize("d,alpha", [(2, 0.0), (3, 0.05), (16, 0.01)])
def test_viana_exponents_are_the_fibre_mean_and_log_d(d, alpha):
    m = sl.make_map("viana", alpha=alpha, d=d)
    fibre, base = sl.lyapunov_exponents(m, (0.2, 0.3), 3000)
    assert base == math.log(d)
    xs = m.orbit(np.array([[0.2, 0.3]]), 3000)[:3000, 0, 1]
    total = 0.0
    for v in np.log(np.abs(2.0 * xs)):
        total += v
    assert fibre == total / 3000


def _ordered_quadratic_exponent(n):
    """The quadratic exponent from 0.3123 over ``n`` points, summed in a loop."""
    xs = sl.make_map("quadratic", a=2.0).orbit(np.array([0.3123]), n)[:n, 0]
    total = 0.0
    for v in np.log(np.abs(-2.0 * xs)):
        total += v
    return total / n


def test_lyapunov_exponent_sums_in_orbit_order_across_blocks():
    # one orbit steps in blocks of 2^15: 2 * 2^15 + 3 points take three
    # of them, and the sum runs on in orbit order
    m = sl.make_map("quadratic", a=2.0)
    n = 2 * 2 ** 15 + 3
    assert sl.lyapunov_exponents(m, 0.3123, n) == [_ordered_quadratic_exponent(n)]


@pytest.mark.parametrize("n", [2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1])
def test_lyapunov_exponent_sums_in_orbit_order_at_the_block_end(n):
    m = sl.make_map("quadratic", a=2.0)
    assert m.block_steps(1) == 2 ** 15
    assert sl.lyapunov_exponents(m, 0.3123, n) == [_ordered_quadratic_exponent(n)]


@pytest.mark.parametrize("n", [2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1])
def test_viana_exponent_sums_in_orbit_order_across_blocks(n):
    # a cylinder point has two coordinates: its orbit steps in blocks of 2^14
    m = sl.make_map("viana", alpha=0.01, d=16)
    assert m.block_steps(1) == 2 ** 14
    xs = m.orbit(np.array([[0.2, 0.3]]), n)[:n, 0, 1]
    total = 0.0
    for v in np.log(np.abs(2.0 * xs)):
        total += v
    assert sl.lyapunov_exponents(m, (0.2, 0.3), n) == sorted([total / n, math.log(16)])


def test_lyapunov_exponents_stop_at_the_first_near_critical_point():
    # f(sqrt 2) rounds to -4.4e-16, within the floor of the critical point
    m = sl.make_map("quadratic", a=2.0)
    with pytest.raises(sl.NearCriticalError, match="iterate 1"):
        sl.lyapunov_exponents(m, math.sqrt(2.0), 10)
    with pytest.raises(sl.NearCriticalError, match="iterate 0"):
        sl.lyapunov_exponents(m, 0.0, 10)


def test_expansion_time_settles_immediately_for_uniform_expansion():
    m = sl.make_map("doubling")
    assert sl.expansion_time(m, 0.37, 0.5, 50) == 1


def test_expansion_time_censored_when_threshold_unreachable():
    # the running exponent of the doubling map is exactly log 2
    m = sl.make_map("doubling")
    assert sl.expansion_time(m, 0.37, 2.0, 50) == 51


@pytest.mark.parametrize("lam", [0.0, -0.3])
def test_expansion_time_rejects_nonpositive_threshold(lam):
    m = sl.make_map("doubling")
    with pytest.raises(sl.ArgumentError):
        sl.expansion_time(m, 0.37, lam, 50)


def test_recurrence_time_trivial_without_critical_set():
    m = sl.make_map("doubling")
    assert sl.recurrence_time(m, 0.37, 0.05, 0.01, 50) == 1


def test_recurrence_time_delayed_near_critical_point():
    m = sl.make_map("quadratic", a=2.0)
    # starting on top of the critical point forces a slow start
    slow = sl.recurrence_time(m, 1e-9, 0.05, 0.1, 400)
    fast = sl.recurrence_time(m, 1.2, 0.05, 0.1, 400)
    assert fast <= 400
    assert slow > fast


def test_tail_profile_empty_for_uniformly_expanding_map(doubling_map):
    params = sl.TailParams(lam=0.5, eps=0.125, delta=1e-6, n_max=30, sample_size=500)
    prof = sl.tail_profile(doubling_map, params, seed=3)
    assert prof.censored_count == 0
    assert prof.frac_union.max() == 0.0
    assert prof.frac_expansion.max() == 0.0
    assert prof.frac_recurrence.max() == 0.0


def test_tail_profile_is_deterministic_in_the_seed(viana_map):
    params = sl.TailParams(lam=0.3, eps=0.075, delta=1e-6, n_max=40, sample_size=300)
    a = sl.tail_profile(viana_map, params, seed=9)
    b = sl.tail_profile(viana_map, params, seed=9)
    c = sl.tail_profile(viana_map, params, seed=10)
    np.testing.assert_array_equal(a.frac_union, b.frac_union)
    assert not np.array_equal(a.frac_union, c.frac_union)


def test_tail_profile_fractions_are_monotone(viana_map):
    params = sl.TailParams(lam=0.3, eps=0.075, delta=1e-6, n_max=60, sample_size=1000)
    prof = sl.tail_profile(viana_map, params, seed=0)
    for frac in (prof.frac_expansion, prof.frac_recurrence, prof.frac_union):
        assert np.all(np.diff(frac) <= 1e-12)
    # union dominates each component
    assert np.all(prof.frac_union >= prof.frac_expansion - 1e-12)
    assert np.all(prof.frac_union >= prof.frac_recurrence - 1e-12)


@pytest.mark.parametrize("family,params,tail", [
    ("quadratic", {"a": 2.0}, sl.TailParams(lam=0.3, eps=0.1, delta=0.05, n_max=100,
                                             sample_size=64)),
    ("viana", {"alpha": 0.01, "d": 16}, sl.TailParams(lam=0.3, eps=0.075, delta=1e-2,
                                                       n_max=60, sample_size=64)),
])
def test_tail_profile_matches_the_per_point_times(family, params, tail):
    # one walk gives both settling times; the fractions must be those of
    # the single-point settling times of the same sample points
    m = sl.make_map(family, **params)
    prof = sl.tail_profile(m, tail, seed=4)
    pts = m.sample_uniform(stream(4, 31), tail.sample_size)
    texp = np.array([sl.expansion_time(m, x, tail.lam, tail.n_max) for x in pts])
    trec = np.array([sl.recurrence_time(m, x, tail.delta, tail.eps, tail.n_max)
                     for x in pts])
    over_e, over_r = texp[:, None] > prof.n, trec[:, None] > prof.n
    assert over_e.any() and over_r.any()
    np.testing.assert_array_equal(prof.frac_expansion, over_e.mean(axis=0))
    np.testing.assert_array_equal(prof.frac_recurrence, over_r.mean(axis=0))
    np.testing.assert_array_equal(prof.frac_union, (over_e | over_r).mean(axis=0))
    assert prof.censored_count == int(np.sum((texp > tail.n_max) | (trec > tail.n_max)))


@pytest.mark.parametrize("family,params", [("quadratic", {"a": 1.9}),
                                           ("viana", {"alpha": 0.01, "d": 16})])
def test_tail_profile_builds_no_generator(monkeypatch, family, params):
    # no generator per point: the whole sample comes from one keyed stream
    m = sl.make_map(family, **params)
    tail = sl.TailParams(lam=0.3, eps=0.075, delta=1e-2, n_max=30, sample_size=500)
    want = sl.tail_profile(m, tail, seed=6)
    keys = []

    def counted(seed, *key):
        keys.append((seed, *key))
        return stream(seed, *key)

    monkeypatch.setattr(sl.orbits, "stream", counted)
    got = sl.tail_profile(m, tail, seed=6)
    assert keys == [(6, 31)]
    for a, b in ((got.frac_expansion, want.frac_expansion),
                 (got.frac_recurrence, want.frac_recurrence), (got.frac_union, want.frac_union)):
        assert np.array_equal(a, b)
    assert got.censored_count == want.censored_count


@pytest.mark.parametrize("family,params", [("quadratic", {"a": 1.9}),
                                           ("viana", {"alpha": 0.01, "d": 16})])
def test_tail_profile_settle_times_of_a_prefix_ignore_the_sample_size(
        monkeypatch, family, params):
    # point i of the sample, and so its settle times, is the same for any
    # sample size: the first 50 points of 50 and of 400 walk alike
    m = sl.make_map(family, **params)
    walk, walked = sl.orbits._settle_walk, []

    def recorded(*args):
        walked.append(walk(*args))
        return walked[-1]

    monkeypatch.setattr(sl.orbits, "_settle_walk", recorded)
    for npts in (50, 400):
        sl.tail_profile(m, sl.TailParams(lam=0.3, eps=0.075, delta=1e-2, n_max=60,
                                         sample_size=npts), seed=8)
    (texp, trec), (texp_all, trec_all) = walked
    assert texp_all.size == 400 and (texp > 1).any() and (trec > 1).any()
    assert np.array_equal(texp_all[:50], texp) and np.array_equal(trec_all[:50], trec)


def _summand_matrices(m, pts, delta, n_max):
    """The (points, n_max) matrices of the expansion and recurrence
    summands, one map step per column."""
    inverse_norm = np.empty((n_max, pts.shape[0]))
    truncated_dist = np.zeros_like(inverse_norm)
    cur = pts.copy()
    for j in range(n_max):
        if m.dimension == 1:
            d = np.abs(m.branch_dlift(0, cur))  # -2x on both branches
        else:
            a, c, e = m.jac_entries_batch(cur)
            _, d = sl.maps._op_norms_2x2_lower(a, c, e)
        inverse_norm[j] = -np.log(np.maximum(d, 1e-300))
        if m.has_critical_set:
            dist = m.crit_dist_batch(cur)
            truncated_dist[j] = -np.log(np.where(dist < delta, np.maximum(dist, 1e-300), 1.0))
        cur = m.f_batch(cur)
    return inverse_norm.T, truncated_dist.T


def _matrix_settle_times(summands, budget_per_step):
    """Settling times from the cumulative sums of a summand matrix:
    one plus the last failing step, ``n_max + 1`` when the last one fails."""
    npts, n_max = summands.shape
    fail = ~(np.cumsum(summands, axis=1) <= budget_per_step * np.arange(1, n_max + 1))
    times = np.where(fail.any(axis=1), n_max - np.argmax(fail[:, ::-1], axis=1), 0) + 1
    times[fail[:, -1]] = n_max + 1
    return times


def _matrix_tail_profile(m, params, seed):
    """The tail profile from the whole summand matrices and boolean means."""
    pts = m.sample_uniform(stream(seed, 31), params.sample_size)
    exp_logs, rec_logs = _summand_matrices(m, pts, params.delta, params.n_max)
    texp = _matrix_settle_times(exp_logs, -0.5 * params.lam)
    trec = _matrix_settle_times(rec_logs, 2.0 * params.eps)
    ns = np.arange(1, params.n_max + 1)
    over_e, over_r = texp[:, None] > ns, trec[:, None] > ns
    censored = int(np.sum((texp > params.n_max) | (trec > params.n_max)))
    return (ns, over_e.mean(axis=0), over_r.mean(axis=0), (over_e | over_r).mean(axis=0),
            censored, texp, trec, pts)


@pytest.mark.parametrize("family,params,tail", [
    ("viana", {"alpha": 0.01, "d": 16}, (0.3, 0.075, 1e-6, 200, 1000)),
    ("viana", {"alpha": 0.05, "d": 3}, (0.3, 0.075, 1e-2, 120, 600)),
    ("quadratic", {"a": 1.9}, (0.3, 0.05, 1e-2, 300, 600)),
    # just below the period-3 window: most points are censored in both times
    ("quadratic", {"a": 1.7499}, (0.3, 0.1, 0.05, 100, 600)),
    ("doubling", {}, (0.3, 0.05, 1e-2, 100, 300)),
])
def test_streamed_settle_times_match_the_summand_matrices_bit_for_bit(family, params, tail):
    m = sl.make_map(family, **params)
    tp = sl.TailParams(*tail)
    prof = sl.tail_profile(m, tp, seed=5)
    ns, frac_e, frac_r, frac_u, censored, texp, trec, pts = _matrix_tail_profile(m, tp, 5)
    for got, want in ((prof.n, ns), (prof.frac_expansion, frac_e),
                      (prof.frac_recurrence, frac_r), (prof.frac_union, frac_u)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert prof.censored_count == censored
    if family == "quadratic" and params["a"] == 1.7499:
        assert (texp > tp.n_max).sum() > 100 and (trec > tp.n_max).sum() > 100
    for x, te, tr in list(zip(pts, texp, trec))[:20]:
        assert sl.expansion_time(m, x, tp.lam, tp.n_max) == te
        assert sl.recurrence_time(m, x, tp.delta, tp.eps, tp.n_max) == tr


def test_tail_profile_memory_does_not_grow_with_the_horizon():
    # the summand matrices took 8 bytes per point and step each: 51.9 MiB
    # for 10,000 points x 200 steps on this map (Python 3.11, numpy 2.4)
    m = sl.make_map("viana", alpha=0.01, d=16)
    peaks = []
    for n_max in (100, 1000):
        params = sl.TailParams(lam=0.3, eps=0.075, delta=1e-6, n_max=n_max, sample_size=2000)
        tracemalloc.start()
        try:
            sl.tail_profile(m, params, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 2 ** 20


_TAIL_MAPS = st.one_of(
    st.just(sl.make_map("doubling")),
    st.builds(lambda s: sl.make_map("tent", slope=s), st.floats(1.05, 2.0)),
    st.builds(lambda a: sl.make_map("quadratic", a=a), st.floats(1.3, 2.0)),
    st.builds(lambda alpha, d: sl.make_map("viana", alpha=alpha, d=d),
              st.floats(0.0, 0.1), st.integers(2, 16)),
)


@settings(max_examples=60, deadline=None)
@given(m=_TAIL_MAPS, lam=st.floats(0.05, 1.5), eps=st.floats(0.01, 0.5),
       delta=st.floats(1e-6, 0.3), n_max=st.integers(1, 50),
       sample_size=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_tail_fractions_are_non_increasing_and_the_union_dominates(
        m, lam, eps, delta, n_max, sample_size, seed):
    params = sl.TailParams(lam=lam, eps=eps, delta=delta, n_max=n_max,
                           sample_size=sample_size)
    prof = sl.tail_profile(m, params, seed=seed)
    for frac in (prof.frac_expansion, prof.frac_recurrence, prof.frac_union):
        assert frac.shape == (n_max,)
        assert np.all(np.diff(frac) <= 0.0)
    assert np.all(prof.frac_union >= np.maximum(prof.frac_expansion, prof.frac_recurrence))


def _planted_profile(frac, n_max=150):
    n = np.arange(1, n_max + 1)
    params = sl.TailParams(lam=0.3, eps=0.075, delta=1e-6, n_max=n_max,
                           sample_size=100000)
    return sl.TailProfile(n=n, frac_expansion=frac, frac_recurrence=np.zeros_like(frac),
                          frac_union=frac, sample_size=100000, censored_count=0,
                          params=params, seed=0)


def test_fit_recovers_planted_stretched_exponential():
    n = np.arange(1, 151)
    prof = _planted_profile(0.9 * np.exp(-0.8 * np.sqrt(n)))
    fit = sl.fit_tail_decay(prof, "stretched_exp")
    assert fit.model == "stretched_exp"
    assert fit.gamma == pytest.approx(0.8, rel=1e-10)
    assert fit.C == pytest.approx(0.9, rel=1e-9)
    assert fit.residual < 1e-12


def test_fit_recovers_planted_polynomial():
    n = np.arange(1, 151)
    prof = _planted_profile(0.7 * n ** -1.5)
    fit = sl.fit_tail_decay(prof, "polynomial")
    assert fit.gamma == pytest.approx(1.5, rel=1e-10)
    assert fit.C == pytest.approx(0.7, rel=1e-9)


def test_fit_model_mismatch_leaves_residual():
    n = np.arange(1, 151)
    prof = _planted_profile(0.9 * np.exp(-0.8 * np.sqrt(n)))
    right = sl.fit_tail_decay(prof, "stretched_exp")
    wrong = sl.fit_tail_decay(prof, "polynomial")
    assert wrong.residual > 10 * max(right.residual, 1e-12)


def test_fit_requires_enough_positive_fractions():
    frac = np.zeros(150)
    frac[:3] = [0.5, 0.2, 0.1]
    prof = _planted_profile(frac)
    with pytest.raises(sl.InsufficientDataError):
        sl.fit_tail_decay(prof, "polynomial")


def test_fit_rejects_unknown_model():
    n = np.arange(1, 151)
    prof = _planted_profile(0.9 * np.exp(-0.8 * np.sqrt(n)))
    with pytest.raises(sl.ArgumentError, match="unknown tail model"):
        sl.fit_tail_decay(prof, "exponential")


@pytest.mark.parametrize("field", ["lam", "eps", "delta"])
def test_tail_params_refuse_nan_thresholds(field):
    kw = {"lam": 0.3, "eps": 0.075, "delta": 1e-6, "n_max": 10, "sample_size": 10,
          field: math.nan}
    with pytest.raises(sl.ArgumentError, match="must be positive"):
        sl.TailParams(**kw)


@pytest.mark.parametrize("field", ["lam", "eps", "delta"])
def test_tail_params_refuse_infinite_thresholds(field):
    kw = {"lam": 0.3, "eps": 0.075, "delta": 1e-6, "n_max": 10, "sample_size": 10,
          field: math.inf}
    with pytest.raises(sl.ArgumentError, match="must be positive and finite"):
        sl.TailParams(**kw)


def test_nondegeneracy_probe_refuses_a_nan_exponent(viana_map):
    with pytest.raises(sl.ArgumentError, match="must be positive"):
        sl.nondegeneracy_probe(viana_map, B=32.0, beta=math.nan, points=[[0.3, 0.5]])


def test_nondegeneracy_probe_reports_finite_ratios(viana_map):
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 1, 64),
                           rng.uniform(-1.0, 1.5, 64)])
    rep = sl.nondegeneracy_probe(viana_map, B=32.0, beta=0.6, points=pts)
    assert rep.B == 32.0 and rep.beta == 0.6
    assert 0 < rep.norm_ratio < 32.0
    assert rep.lipschitz_inv_ratio > 0
    assert rep.lipschitz_det_ratio > 0
    assert np.isfinite(rep.lipschitz_inv_ratio)
