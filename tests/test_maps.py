"""Map family construction and pointwise evaluation."""

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srblab as sl
from srblab.maps import PerturbedDoublingMap, wrap_unit_batch


@pytest.mark.parametrize("family,params,dim", [
    ("doubling", {}, 1),
    ("circle_linear", {"d": 3}, 1),
    ("circle_perturbed", {"t": 0.1}, 1),
    ("tent", {"slope": 1.8}, 1),
    ("quadratic", {"a": 2.0}, 1),
    ("viana", {"alpha": 0.01, "d": 16}, 2),
])
def test_families_construct(family, params, dim):
    m = sl.make_map(family, **params)
    assert m.family == family
    assert m.dimension == dim


def test_unknown_family_rejected():
    with pytest.raises(sl.ArgumentError, match="unknown map family"):
        sl.make_map("hyperbolic_toral")


@pytest.mark.parametrize("family,params,message", [
    ("nonsense", {}, "unknown map family 'nonsense'"),
    ("tent", {"slop": 1.8}, "tent has no parameter 'slop'; its parameters: slope"),
    ("viana", {"beta": 0.1}, "its parameters: alpha, d, a0, lo, hi"),
    ("doubling", {"d": 2}, "doubling has no parameter 'd'; its parameters: none"),
    ("tent", {"slope": "abc"}, "tent parameter slope = 'abc' is not a number"),
    ("quadratic", {"a": True}, "quadratic parameter a = True is not a number"),
    ("circle_linear", {"d": 2.5}, "circle_linear needs an integer d, got 2.5"),
    ("viana", {"d": 2.5}, "viana needs an integer d, got 2.5"),
    ("viana", {"d": math.inf}, "viana needs an integer d, got inf"),
])
def test_make_map_rejects_names_and_types_no_family_takes(family, params, message):
    with pytest.raises(sl.MapParameterError, match=re.escape(message)):
        sl.make_map(family, **params)


@pytest.mark.parametrize("family,params,message", [
    ("tent", {"slope": 2.5}, "slope in"),
    ("viana", {"alpha": math.nan}, "alpha >= 0"),
    ("viana", {"a0": math.nan}, "not mapped into its own interior"),
])
def test_a_value_out_of_range_is_not_a_parameter_error(family, params, message):
    with pytest.raises(sl.ArgumentError, match=message) as info:
        sl.make_map(family, **params)
    assert not isinstance(info.value, sl.MapParameterError)


@pytest.mark.parametrize("family", ["circle_linear", "viana"])
def test_an_integral_float_degree_is_accepted(family):
    assert sl.make_map(family, d=3.0).d == 3
    assert sl.make_map(family, d=np.int64(4)).d == 4


@pytest.mark.parametrize("x,fx", [
    (0.3, 0.6),
    (0.7, 0.4),
    (0.25, 0.5),
    (0.75, 0.5),
])
def test_doubling_values(x, fx):
    m = sl.make_map("doubling")
    assert m.f_batch([x])[0] == pytest.approx(fx, abs=1e-15)
    assert m.branch_dlift(m.branch_containing(x), np.array([x]))[0] == 2.0


def test_circle_linear_values():
    m = sl.make_map("circle_linear", d=3)
    xs = np.array([0.1, 0.4, 0.8])
    np.testing.assert_allclose(m.f_batch(xs), (3 * xs) % 1.0, atol=1e-15)
    np.testing.assert_allclose([m.branch_dlift(m.branch_containing(x), x) for x in xs], 3.0)


@pytest.mark.parametrize("t", [0.0, 0.05, 0.1])
def test_circle_perturbed_values(t):
    m = sl.make_map("circle_perturbed", t=t)
    xs = np.linspace(0.01, 0.99, 17)
    want = (2 * xs + t * np.sin(2 * np.pi * xs) / (2 * np.pi)) % 1.0
    np.testing.assert_allclose(m.f_batch(xs), want, atol=1e-14)
    np.testing.assert_allclose([m.branch_dlift(m.branch_containing(x), x) for x in xs],
                               2 + t * np.cos(2 * np.pi * xs), atol=1e-14)


def test_perturbed_with_zero_t_matches_doubling():
    m0 = sl.make_map("circle_perturbed", t=0.0)
    md = sl.make_map("doubling")
    xs = np.linspace(0.0, 0.999, 64)
    np.testing.assert_allclose(m0.f_batch(xs), md.f_batch(xs), atol=1e-15)


@pytest.mark.parametrize("slope", [1.5, 1.7, 2.0])
def test_tent_values(slope):
    m = sl.make_map("tent", slope=slope)
    assert m.f_batch([0.25])[0] == pytest.approx(slope * 0.25)
    assert m.f_batch([0.75])[0] == pytest.approx(slope * 0.25)
    for x in (0.2, 0.8):
        assert abs(m.branch_dlift(m.branch_containing(x), np.array([x]))[0]) == \
            pytest.approx(slope)


def test_quadratic_values(quadratic_map):
    m = quadratic_map
    assert (m.domain.lo, m.domain.hi) == (-2.0, 2.0)
    for x in (-1.5, 0.3, 1.2):
        assert m.f_batch([x])[0] == pytest.approx(2.0 - x * x)
        assert m.branch_dlift(m.branch_containing(x), np.array([x]))[0] == \
            pytest.approx(-2.0 * x)


def test_quadratic_critical_set(quadratic_map):
    assert quadratic_map.has_critical_set
    assert quadratic_map.crit_dist_batch([0.3])[0] == pytest.approx(0.3)


@pytest.mark.parametrize("family,params", [
    ("doubling", {}), ("tent", {"slope": 1.7}), ("quadratic", {"a": 2.0}),
    ("viana", {"alpha": 0.01, "d": 16}),
])
def test_crit_dist_of_an_orbit_block_has_one_value_per_point(family, params):
    # an orbit block holds steps x slots points: (k, n), or (k, n, 2) on the cylinder
    m = sl.make_map(family, **params)
    block = m.orbit(m.sample_uniform(np.random.default_rng(0), 5), 3)
    dist = m.crit_dist_batch(block)
    assert dist.shape == block.shape[:2]
    if m.has_critical_set:
        fibre = block if m.dimension == 1 else block[..., 1]
        assert np.array_equal(dist, np.abs(fibre))
    else:
        assert np.all(dist == np.inf)


def test_critical_points_are_zeros_of_the_derivative(quadratic_map, doubling_map,
                                                     tent17_map):
    np.testing.assert_array_equal(quadratic_map.critical_points, [0.0])
    assert quadratic_map.branch_dlift(0, np.array([0.0]))[0] == 0.0
    assert doubling_map.critical_points.size == 0
    assert tent17_map.critical_points.size == 0


def test_doubling_has_no_critical_set(doubling_map):
    assert not doubling_map.has_critical_set


def test_viana_step(viana_map):
    a0 = sl.misiurewicz_parameter()
    theta, x = 0.2, 0.3
    out = viana_map.f_batch(np.array([[theta, x]]))[0]
    assert out[0] == pytest.approx((16 * theta) % 1.0)
    assert out[1] == pytest.approx(a0 + 0.01 * math.sin(2 * math.pi * theta) - x * x)


@pytest.mark.parametrize("d", [2, 3, 16])
def test_base_step_needs_no_fold(d):
    # d theta - floor(d theta) is exact and below 1 for theta in [0, 1),
    # so the fold of wrap_unit_batch never fires on the base circle
    m = sl.make_map("viana", alpha=0.05, d=d)
    k = np.arange(d)
    theta = np.concatenate([
        np.random.default_rng(d).uniform(0.0, 1.0, 4096),
        1.0 - np.arange(1, 65) * 2.0 ** -53,
        k / d, np.nextafter(k / d, 1.0), np.nextafter((k + 1) / d, 0.0),
    ])
    got = m.base_step(theta)
    assert np.array_equal(got, wrap_unit_batch(d * theta))
    assert got.min() >= 0.0 and got.max() < 1.0


_SAMPLED = [("quadratic", {"a": 1.9}), ("tent", {"slope": 1.7}),
            ("viana", {"alpha": 0.01, "d": 16})]


@pytest.mark.parametrize("family,params", _SAMPLED)
def test_sample_uniform_is_the_generators_uniform_point_by_point(family, params):
    # one dimension: Generator.uniform; the cylinder takes its draws in pairs
    m = sl.make_map(family, **params)
    many = m.sample_uniform(np.random.default_rng(4), 64)
    rng = np.random.default_rng(4)
    if m.dimension == 1:
        assert np.array_equal(many, rng.uniform(m.domain.lo, m.domain.hi, 64))
    else:
        pairs = rng.random((64, 2))
        assert np.array_equal(many[:, 0], pairs[:, 0])
        assert np.array_equal(many[:, 1], m.domain.lo + (m.domain.hi - m.domain.lo)
                              * pairs[:, 1])


@pytest.mark.parametrize("family,params", _SAMPLED)
@pytest.mark.parametrize("j", [1, 7, 100])
def test_a_sample_prefix_does_not_depend_on_the_sample_size(family, params, j):
    m = sl.make_map(family, **params)
    full = m.sample_uniform(sl.rng.stream(3, 31), 100)
    assert np.array_equal(full[:j], m.sample_uniform(sl.rng.stream(3, 31), j))


def test_viana_domain_is_forward_invariant(viana_map):
    rng = np.random.default_rng(1)
    pts = np.column_stack([
        rng.uniform(0.0, 1.0, 256),
        rng.uniform(viana_map.domain.lo, viana_map.domain.hi, 256),
    ])
    for _ in range(20):
        pts = viana_map.f_batch(pts)
    assert np.all(pts[:, 1] >= viana_map.domain.lo - 1e-12)
    assert np.all(pts[:, 1] <= viana_map.domain.hi + 1e-12)


@pytest.mark.parametrize("d,alpha", [(3, 0.05), (16, 0.01)])
def test_viana_f_batch_owns_its_image(d, alpha):
    # a view into the orbit buffer would keep the starting points alive too
    m = sl.make_map("viana", alpha=alpha, d=d)
    pts = m.sample_uniform(np.random.default_rng(d), 64)
    image = m.f_batch(pts)
    assert image.flags.owndata
    assert image.shape == pts.shape
    assert image.tobytes() == m.orbit(pts, 1)[1].tobytes()


def _skew_step(p, d, alpha, a0):
    """One step of the skew product in one expression per coordinate, the
    reference for ``VianaMap.orbit``, which splits the base from the fibre."""
    out = np.empty_like(p)
    out[:, 0] = wrap_unit_batch(d * p[:, 0])
    out[:, 1] = a0 + alpha * np.sin(2 * np.pi * p[:, 0]) - p[:, 1] ** 2
    return out


@pytest.mark.parametrize("columns", [False, True])
@pytest.mark.parametrize("d,alpha", [(2, 0.0), (3, 0.05), (16, 0.0), (16, 0.05)])
def test_viana_orbit_equals_successive_steps_bit_for_bit(d, alpha, columns):
    m = sl.make_map("viana", alpha=alpha, d=d)
    rng = np.random.default_rng(d)
    pts = m.sample_uniform(rng, 40)
    if columns:
        # per-slot parameters, as the lockstep orbit driver sets them
        m = copy.copy(m)
        m.alpha = np.repeat([alpha, 0.5 * alpha, 0.0, 0.01], 10)
        m.d = np.repeat([d, 2, 3, 16], 10)
    k = 3 * 256 + 7
    buf = m.orbit(pts, k)
    assert buf.shape == (k + 1, 40, 2)
    step = ref = pts
    for j in range(k + 1):
        assert np.array_equal(buf[j], step)
        assert np.array_equal(buf[j], ref)
        step, ref = m.f_batch(step), _skew_step(ref, m.d, m.alpha, m.a0)
    assert np.array_equal(m.orbit(pts, 0)[0], pts)


_ONE_D = [("doubling", {}), ("circle_linear", {"d": 3}), ("circle_perturbed", {"t": 0.3}),
          ("tent", {"slope": 1.7}), ("quadratic", {"a": 2.0})]


@pytest.mark.parametrize("family,params", _ONE_D)
def test_base_class_orbit_is_successive_f_batch_calls(family, params):
    m = sl.make_map(family, **params)
    x = np.linspace(m.domain.lo, m.domain.hi, 17)
    buf = m.orbit(x, 50)
    for j in range(51):
        assert np.array_equal(buf[j], x)
        x = m.f_batch(x)


def test_wrap_unit_batch_writes_into_out():
    x = np.array([-1e-20, -0.25, 0.0, 0.5, 1.0, 2.75, np.nextafter(1.0, 0.0)])
    want = wrap_unit_batch(x)
    assert want.tolist() == [0.0, 0.75, 0.0, 0.5, 0.0, 0.75, np.nextafter(1.0, 0.0)]
    out = np.full_like(x, np.nan)
    assert wrap_unit_batch(x, out=out) is out
    assert out.tobytes() == want.tobytes()
    y = x.copy()  # out may be the input itself
    assert wrap_unit_batch(y, out=y) is y
    assert y.tobytes() == want.tobytes()
    assert wrap_unit_batch(np.float64(-1e-20)) == 0.0


# a map of every family, and a parameter the lockstep driver may sweep
_SWEPT = pytest.mark.parametrize("family,params,key,values", [
    ("doubling", {}, "d", [2, 3, 5, 7]),
    ("circle_linear", {"d": 3}, "d", [2, 3, 5, 7]),
    ("circle_perturbed", {"t": 0.3}, "t", [0.0, 0.1, 0.3, 1.5]),
    ("tent", {"slope": 1.7}, "slope", [1.5, 1.7, 1.9, 2.0]),
    ("quadratic", {"a": 1.9}, "a", [1.6, 1.8, 1.9, 2.0]),
    ("viana", {"alpha": 0.05, "d": 3}, "alpha", [0.0, 0.01, 0.05, 0.1]),
])


def _swept_map(family, params, key, values, columns):
    """The map and 64 sample points; with ``columns``, a copy holding the
    swept parameter as a per-slot column, as the lockstep orbit driver
    sets it."""
    m = sl.make_map(family, **params)
    x = m.sample_uniform(np.random.default_rng(7), 64)
    if columns:
        m = copy.copy(m)
        setattr(m, key, np.repeat(values, 16))
    return m, x


@pytest.mark.parametrize("columns", [False, True])
@_SWEPT
def test_f_batch_writes_its_image_into_out(family, params, key, values, columns):
    m, x = _swept_map(family, params, key, values, columns)
    batches = [x] if m.dimension == 2 else [x, np.stack([x, x[::-1], 1.0 - x])]
    for pts in batches:
        out = np.full(pts.shape, np.nan)
        assert m.f_batch(pts, out=out) is out
        assert out.tobytes() == m.f_batch(pts).tobytes()


@pytest.mark.parametrize("columns", [False, True])
@_SWEPT
def test_fibre_derivative_writes_into_out(family, params, key, values, columns):
    # the orbit driver writes a block's |f'| straight into its log buffer
    m, x = _swept_map(family, params, key, values, columns)
    for pts in (x, m.orbit(x, 3)[:3]):
        out = np.full(pts.shape[:pts.ndim - m.dimension + 1], np.nan)
        assert m.fibre_derivative_batch(pts, out=out) is out
        assert out.tobytes() == m.fibre_derivative_batch(pts).tobytes()


@pytest.mark.parametrize("family,params", [
    ("doubling", {}),
    ("circle_linear", {"d": 3}),
    ("circle_perturbed", {"t": 0.3}),
    ("tent", {"slope": 1.7}),
    ("quadratic", {"a": 1.8}),
])
@pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 0.9])
def test_f_batch_takes_a_0d_point(family, params, x):
    m = sl.make_map(family, **params)
    assert m.f_batch(x) == m.f_batch([x])[0]
    assert np.ndim(m.f_batch(x)) == 0
    out = np.empty(())
    assert m.f_batch(np.float64(x), out=out) is out
    assert out.tobytes() == m.f_batch(np.array([x])).tobytes()


def test_check_point_rejects_outside_domain(quadratic_map, viana_map):
    with pytest.raises(sl.DomainViolationError):
        quadratic_map.check_point(2.5)
    # the cylinder checks its fibre coordinate against [-1.75, 1.75]
    for x in (1.75 + 1e-9, -1.75 - 1e-9):
        with pytest.raises(sl.DomainViolationError, match="fibre coordinate"):
            viana_map.check_point((0.3, x))
    viana_map.check_point((0.3, 1.75))
    # and its base coordinate against the circle, as the 1D circle maps do
    for theta in (float("nan"), 5.0):
        with pytest.raises(sl.DomainViolationError, match="base coordinate"):
            viana_map.check_point((theta, 0.3))


def test_misiurewicz_parameter_lands_on_repelling_orbit():
    a0 = sl.misiurewicz_parameter()
    assert a0 == pytest.approx(1.5436890126920764, abs=1e-12)
    # orbit of the critical value under x -> a0 - x^2 must hit a fixed point
    x = a0
    for _ in range(64):
        if abs((a0 - x * x) - x) < 1e-9:
            break
        x = a0 - x * x
    assert abs((a0 - x * x) - x) < 1e-6


# -- inverse branches ------------------------------------------------------

_FAMILY_STRATEGIES = st.one_of(
    st.floats(1.0, 2.0, exclude_min=True).map(lambda s: sl.make_map("tent", slope=s)),
    st.floats(1.0, 2.0, exclude_min=True).map(lambda a: sl.make_map("quadratic", a=a)),
    st.floats(0.0, 1.9).map(lambda t: sl.make_map("circle_perturbed", t=t)),
    st.integers(2, 7).map(lambda d: sl.make_map("circle_linear", d=d)),
)


@settings(max_examples=60, deadline=None)
@given(m=_FAMILY_STRATEGIES, u=st.floats(0.0, 1.0), branch=st.integers(0, 6))
def test_branch_inverse_undoes_the_branch(m, u, branch):
    i = branch % m.n_branches
    lo, hi = m.branch_bounds(i)
    x = lo + u * (hi - lo)
    y = m.branch_lift(i, np.array([x]))
    back = float(m.branch_inverse(i, y)[0])
    # a plain lift rounds at ulp(y), so a critical point caps the recovery
    # at eps / |Df(x)|; every other branch point comes back to 1e-12
    slack = 1e-15 / max(abs(float(m.branch_dlift(i, np.array([x]))[0])), 1e-300)
    assert abs(back - x) <= 1e-12 + slack


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 1.9), seed=st.integers(0, 2 ** 32 - 1), branch=st.integers(0, 1))
def test_perturbed_inverse_of_a_point_does_not_depend_on_its_batch(t, seed, branch):
    # Newton stops element by element, so the other points of a call
    # cannot add iterations to this one
    m = sl.make_map("circle_perturbed", t=t)
    ys = np.random.default_rng(seed).uniform(0.0, 1.0, 32)
    batch = m.branch_inverse(branch, ys)
    for k in range(ys.size):
        assert m.branch_inverse(branch, ys[k:k + 1])[0] == batch[k]


def test_math_sin_and_cos_equal_numpys_float64_sin_and_cos():
    # precondition of the per-point Newton in circle_perturbed's
    # branch_inverse: small batches use math.sin/math.cos, large ones
    # numpy's, and the two paths agree bit for bit only if these do
    x = np.random.default_rng(16).uniform(0.0, 2 * np.pi, 10 ** 5)
    for name in ("sin", "cos"):
        want = getattr(np, name)(x)
        got = np.array([getattr(math, name)(v) for v in x.tolist()])
        differ = int(np.count_nonzero(got != want))
        assert differ == 0, (
            f"math.{name} differs from numpy.{name} on {differ} of {x.size} doubles, so "
            "PerturbedDoublingMap.branch_inverse is no longer bit-identical across batch sizes")


@pytest.mark.parametrize("t", [0.0, 0.05, 0.2, 0.4, 1.0, 1.9])
@pytest.mark.parametrize("branch", [0, 1])
def test_perturbed_inverse_per_point_path_equals_the_array_path_bit_for_bit(t, branch):
    m = sl.make_map("circle_perturbed", t=t)
    ys = np.concatenate([np.random.default_rng(int(10 * t)).uniform(0.0, 1.0, 20_000),
                         [0.0, 0.5, np.nextafter(1.0, 0.0), 1.0]])
    cut = sl.maps._POINTWISE_MAX
    whole = m.branch_inverse(branch, ys)  # one array loop
    pieces = [m.branch_inverse(branch, ys[k:k + cut]) for k in range(0, ys.size, cut)]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


@pytest.mark.parametrize("shape", ["0-d", (1,), "cut", "cut+1", (2, 3), (0,)])
def test_perturbed_inverse_keeps_the_shape_of_its_batch(shape):
    m = sl.make_map("circle_perturbed", t=0.3)
    cut = sl.maps._POINTWISE_MAX
    shape = {"0-d": (), "cut": (cut,), "cut+1": (cut + 1,)}.get(shape, shape)
    ys = np.random.default_rng(3).uniform(0.0, 1.0, shape)
    back = m.branch_inverse(1, ys)
    assert np.shape(back) == shape
    assert np.asarray(back).tobytes() == m._newton_batch(1, ys + 1).tobytes()
    if shape == ():
        assert m.branch_inverse(1, float(ys)) == back


def test_perturbed_inverse_of_non_finite_targets_matches_the_array_path():
    # math.sin(inf) raises where np.sin gives nan: such a batch takes the array loop
    m = sl.make_map("circle_perturbed", t=0.3)
    ys = np.array([np.inf, np.nan, 0.3])
    with np.errstate(invalid="ignore"):
        for k in range(1, ys.size + 1):
            want = m._newton_batch(0, ys[k - 1:])
            assert m.branch_inverse(0, ys[k - 1:]).tobytes() == want.tobytes()


def test_tower_chains_invert_point_by_point(monkeypatch):
    # most chain calls of first_return_map pass 2 to 6 points; the array
    # loop sees only the calls above the cut-off
    cut = sl.maps._POINTWISE_MAX
    sizes, array_sizes = [], []
    inverse, array_loop = PerturbedDoublingMap.branch_inverse, PerturbedDoublingMap._newton_batch

    def counted_inverse(self, i, y):
        sizes.append(np.size(y))
        return inverse(self, i, y)

    def counted_array_loop(self, i, target):
        array_sizes.append(target.size)
        return array_loop(self, i, target)

    monkeypatch.setattr(PerturbedDoublingMap, "branch_inverse", counted_inverse)
    monkeypatch.setattr(PerturbedDoublingMap, "_newton_batch", counted_array_loop)
    sl.first_return_map(sl.make_map("circle_perturbed", t=0.2), sl.Interval(0.0, 0.5), 20)
    small = [n for n in sizes if n <= cut]
    assert len(small) > 200
    assert all(n > cut for n in array_sizes)
    assert len(array_sizes) == len(sizes) - len(small)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(1.0, 2.0, exclude_min=True),
       x=st.floats(-1.0, 1.0).filter(lambda v: v == 0.0 or abs(v) > 1e-100),
       scale=st.integers(0, 12))
def test_compensated_quadratic_branches_round_trip_near_the_critical_point(a, x, scale):
    m = sl.make_map("quadratic", a=a)
    x = x * 10.0 ** -scale  # x^2 stays clear of underflow
    i = 0 if x < 0 else 1
    hi, lo = m.branch_lift_dd(i, np.array([x]), np.zeros(1))
    # the double-double image keeps the digits of x^2 that a - x^2 rounds away
    back = sum(m.branch_inverse_dd(i, hi, lo))[0]
    assert abs(back - x) <= 4e-16 * abs(x)


def test_closed_form_inverse_branches():
    m = sl.make_map("circle_linear", d=3)
    assert list(m.branch_inverse(2, np.array([0.0, 0.5]))) == [2 / 3, 2.5 / 3]
    tent = sl.make_map("tent", slope=2.0)
    assert list(tent.branch_inverse(1, np.array([0.0, 1.0]))) == [1.0, 0.5]
    quad = sl.make_map("quadratic", a=2.0)
    assert list(quad.branch_inverse(0, np.array([-2.0, 1.0]))) == [-2.0, -1.0]
    # at t = 0 Newton starts on the exact doubling inverse and stays there
    flat = sl.make_map("circle_perturbed", t=0.0)
    ys = np.linspace(0.0, 1.0, 101)
    np.testing.assert_array_equal(flat.branch_inverse(1, ys), (ys + 1) / 2)


# -- derivative interface ----------------------------------------------------

#: the five 1D families on random parameters, each with its closed-form f'
_ONE_D_CASES = st.one_of(
    st.just((sl.make_map("doubling"), lambda x: np.full(x.shape, 2.0))),
    st.integers(2, 7).map(lambda d: (sl.make_map("circle_linear", d=d),
                                     lambda x: np.full(x.shape, float(d)))),
    st.floats(0.0, 1.9).map(lambda t: (sl.make_map("circle_perturbed", t=t),
                                       lambda x: 2.0 + t * np.cos(2.0 * np.pi * x))),
    st.floats(1.0, 2.0, exclude_min=True).map(lambda s: (sl.make_map("tent", slope=s),
                                                         lambda x: np.where(x <= 0.5, s, -s))),
    st.floats(1.0, 2.0, exclude_min=True).map(lambda a: (sl.make_map("quadratic", a=a),
                                                         lambda x: -2.0 * x)),
)
_ONE_D_MAPS = _ONE_D_CASES.map(lambda case: case[0])
_INTERFACE = ("fibre_derivative_batch", "abs_det_batch", "conorm_batch", "norm_batch")


def _domain_points(m, us):
    """``lo + width u`` for each ``u``, clipped to the domain that rounding can leave."""
    return np.clip(m.domain.lo + m.domain.width * np.array(us), m.domain.lo, m.domain.hi)


@settings(max_examples=100, deadline=None)
@given(case=_ONE_D_CASES, us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_one_dimensional_derivative_interface_is_abs_df(case, us):
    m, fprime = case
    x = _domain_points(m, us)
    want = np.abs(fprime(x)).tobytes()
    for name in _INTERFACE:
        assert getattr(m, name)(x).tobytes() == want, name
    # the branch that holds each point lifts with the signed f'
    branch = np.searchsorted(m.interior_cuts(), x)
    for i in np.unique(branch).tolist():
        assert np.array_equal(m.branch_dlift(i, x[branch == i]), fprime(x[branch == i]))
    assert m.base_exponent == 0.0


@settings(max_examples=100, deadline=None)
@given(m=_ONE_D_MAPS, us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_branch_data_cuts_the_domain_into_monotone_branches(m, us):
    edges, signs = m.branch_edges, m.branch_signs
    assert edges[0] == m.domain.lo and edges[-1] == m.domain.hi
    assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
    assert len(signs) == len(edges) - 1 == m.n_branches
    for i, sign in enumerate(signs):
        assert m.branch_bounds(i) == edges[i:i + 2]
        # in double-double: near a = 1 the quadratic's left branch [a - a^2, 0]
        # is so short that its plain lift rounds both ends to a
        hi, lo = m.branch_lift_dd(i, np.array(edges[i:i + 2]), np.zeros(2))
        assert sign * ((hi[1] - hi[0]) + (lo[1] - lo[0])) > 0
    assert m.interior_cuts().tolist() == list(edges[1:-1])
    # a point on an edge belongs to the lower branch, as searchsorted puts it
    for x in [*_domain_points(m, us).tolist(), *edges]:
        assert m.branch_containing(x) == np.searchsorted(edges[1:-1], x)


class _KernelOnly(sl.MapSystem):
    """1D test family that writes only the ``|f'|`` kernel, ``1 + x``."""

    def __init__(self):
        super().__init__()
        self.domain = sl.Interval(0.0, 1.0)

    def fibre_derivative_batch(self, x, out=None):
        return np.add(1.0, x, out=out)


@pytest.mark.parametrize("cls,params", [
    (_KernelOnly, {}), (sl.maps.DoublingMap, {}), (sl.maps.LinearCircleMap, {"d": 3}),
    (PerturbedDoublingMap, {"t": 0.3}), (sl.maps.TentMap, {"slope": 1.7}),
    (sl.maps.QuadraticMap, {"a": 1.9}),
])
def test_every_one_dimensional_family_answers_through_its_kernel(cls, params):
    # abs_det_batch, conorm_batch and norm_batch call the family's own
    # fibre_derivative_batch, once each
    calls = []

    class Counting(cls):
        def fibre_derivative_batch(self, x, out=None):
            calls.append(np.shape(x))
            return super().fibre_derivative_batch(x, out=out)

    m = Counting(**params)
    x = m.domain.lo + m.domain.width * np.array([0.1, 0.45, 0.9])
    want = m.fibre_derivative_batch(x).tobytes()
    for name in _INTERFACE[1:]:
        assert getattr(m, name)(x).tobytes() == want, name
    assert calls == [(3,)] * 4


# results below the normal range carry fewer than 52 bits, so no
# relative tolerance holds for them: the fibre coordinate stays normal
_FIBRE = st.floats(-1.75, 1.75, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.0, 0.1), d=st.integers(2, 16),
       theta=st.floats(0.0, 1.0, exclude_max=True), x=_FIBRE)
# |2x| near d with no coupling: two nearly equal singular values, where the
# roots of the Gram matrix's characteristic polynomial lose 1e-8 of each
@example(alpha=0.0, d=2, theta=0.3, x=1.0 + 1e-9)
@example(alpha=1e-9, d=3, theta=0.25, x=-1.5 + 1e-10)
@example(alpha=0.1, d=16, theta=0.0, x=0.0)
def test_viana_derivative_interface_is_the_jacobians_det_and_svd(alpha, d, theta, x):
    m = sl.make_map("viana", alpha=alpha, d=d)
    p = np.array([[theta, x]])
    jac = np.array([[d, 0.0], [2 * np.pi * alpha * np.cos(2 * np.pi * theta), -2.0 * x]])
    smax, smin = np.linalg.svd(jac, compute_uv=False)
    for name, want in (("abs_det_batch", abs(np.linalg.det(jac))), ("norm_batch", smax),
                       ("conorm_batch", smin)):
        got = getattr(m, name)(p)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(want, rel=1e-12, abs=0.0), name
    assert m.fibre_derivative_batch(p).tobytes() == np.abs(2.0 * p[:, 1]).tobytes()
    assert m.base_exponent == math.log(d)


@pytest.mark.parametrize("family,params", [("tent", {"slope": 1.7}), ("quadratic", {"a": 1.9}),
                                           ("viana", {"alpha": 0.05, "d": 3})])
def test_derivative_interface_answers_an_orbit_block_point_by_point(family, params):
    # the orbit driver asks for a whole (steps, orbits) block at once
    m = sl.make_map(family, **params)
    block = m.orbit(m.sample_uniform(np.random.default_rng(2), 6), 4)
    for name in _INTERFACE:
        whole = getattr(m, name)(block)
        assert whole.shape == block.shape[:2]
        for j in range(block.shape[0]):
            assert whole[j].tobytes() == getattr(m, name)(block[j]).tobytes(), name
