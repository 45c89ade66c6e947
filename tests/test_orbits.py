"""Orbit statistics: Birkhoff averages, exponents, settling times, tail fits."""

import math

import numpy as np
import pytest

import srblab as sl
from srblab.rng import stream


def test_birkhoff_average_quadratic_mean():
    # the a=2 invariant density 1/(pi sqrt(4-x^2)) has zero mean
    m = sl.make_map("quadratic", a=2.0)
    avg = sl.birkhoff_average(m, 0.3123, lambda x: x, 100000)
    assert abs(avg) < 0.05


def test_birkhoff_average_quadratic_second_moment():
    # and second moment 2
    m = sl.make_map("quadratic", a=2.0)
    avg = sl.birkhoff_average(m, 0.3123, lambda x: x * x, 100000)
    assert avg == pytest.approx(2.0, abs=0.1)


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


def test_truncated_distance_is_one_away_from_the_critical_set():
    m = sl.make_map("quadratic", a=2.0)
    assert sl.truncated_distance(m, 0.03, 0.05) == pytest.approx(0.03)
    assert sl.truncated_distance(m, 0.001, 0.05) == pytest.approx(0.001)
    assert sl.truncated_distance(m, 0.06, 0.05) == 1.0
    assert sl.truncated_distance(m, 1.5, 0.05) == 1.0


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
    # one walk gives both summand matrices; the fractions must be those of
    # the single-point settling times of the same sample points
    m = sl.make_map(family, **params)
    prof = sl.tail_profile(m, tail, seed=4)
    pts = [m.sample_uniform(stream(4, i), 1)[0] for i in range(tail.sample_size)]
    texp = np.array([sl.expansion_time(m, x, tail.lam, tail.n_max) for x in pts])
    trec = np.array([sl.recurrence_time(m, x, tail.delta, tail.eps, tail.n_max)
                     for x in pts])
    over_e, over_r = texp[:, None] > prof.n, trec[:, None] > prof.n
    assert over_e.any() and over_r.any()
    np.testing.assert_array_equal(prof.frac_expansion, over_e.mean(axis=0))
    np.testing.assert_array_equal(prof.frac_recurrence, over_r.mean(axis=0))
    np.testing.assert_array_equal(prof.frac_union, (over_e | over_r).mean(axis=0))
    assert prof.censored_count == int(np.sum((texp > tail.n_max) | (trec > tail.n_max)))


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
