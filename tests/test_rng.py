"""Seeded streams, the samples read from them, and the low-bit refresh."""

import numpy as np
import pytest

import srblab as sl
from srblab.rng import DITHER_SCALE, StreamKey, dither, stream

# one seed word; two words, the second 1; two words, the top bit set; five words
_SEEDS = [0, 12345, 2 ** 32 + 5, 2 ** 63 + 11, 2 ** 128 + 9]

# a map whose points take k draws each
_BY_DIM = {1: ("quadratic", {"a": 1.9}), 2: ("viana", {"alpha": 0.01, "d": 16})}


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("count", [0, 1, 300])
def test_rows_equal_the_streams_bit_for_bit(seed, k, count):
    # point i of a sample takes draws i*k .. i*k + k - 1 of its one stream
    family, params = _BY_DIM[k]
    m = sl.make_map(family, **params)
    got = m.sample_uniform(stream(seed, 31), count)
    u = stream(seed, 31).random(count * k).reshape(count, k)
    lo, hi = m.domain.lo, m.domain.hi
    assert got.dtype == np.float64
    if k == 1:
        assert got.shape == (count,)
        assert np.array_equal(got, lo + (hi - lo) * u[:, 0])
    else:
        assert got.shape == (count, 2)
        assert np.array_equal(got[:, 0], u[:, 0])
        assert np.array_equal(got[:, 1], lo + (hi - lo) * u[:, 1])


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("key", [(31,), (11, 3)])
def test_a_key_names_the_spawned_child(seed, key):
    # stream(seed, i, j) is child j of child i of SeedSequence(seed)
    ss = np.random.SeedSequence(seed)
    for k in key:
        ss = ss.spawn(k + 1)[k]
    assert np.array_equal(stream(seed, *key).random(8), np.random.default_rng(ss).random(8))


@pytest.mark.parametrize("args", [(-1,), (-1, 31), (0, -1), (0, 11, -3)])
def test_bad_arguments_raise(args):
    with pytest.raises(ValueError):
        stream(*args)


_INTERVALS = [(0.0, 1.0), (-1.71, 1.9), (0.25, 0.25 + 1e-3)]


@pytest.mark.parametrize("lo,hi", _INTERVALS)
def test_dither_stays_in_the_interval_within_one_grid_step(lo, hi):
    q = (hi - lo) * DITHER_SCALE
    x = np.concatenate([[lo, np.nextafter(hi, lo), hi - q / 2],
                        stream(2, 0).uniform(lo, hi, 1000)])
    y = dither(x, stream(2, 1), lo, hi)
    assert y.shape == x.shape
    assert np.all((lo <= y) & (y < hi))
    assert np.all(np.abs(y - x) <= q)
    assert np.array_equal(y, dither(x, stream(2, 1), lo, hi))


@pytest.mark.parametrize("lo,hi", _INTERVALS)
def test_dither_clips_its_points_into_the_interval_first(lo, hi):
    top = np.nextafter(hi, lo)
    x = np.array([lo - 0.5, lo, 0.5 * (lo + hi), top, hi, hi + 0.5])
    y = dither(x, stream(4, 0), lo, hi)
    assert np.all((lo <= y) & (y < hi))
    assert np.array_equal(y, dither(np.clip(x, lo, top), stream(4, 0), lo, hi))


@pytest.mark.parametrize("shape", [(1,), (3, 4)])
def test_dither_draws_one_double_per_point(shape):
    x = np.full(shape, 0.5)
    rng = stream(7, 0)
    dither(x, rng, 0.0, 1.0)
    ref = stream(7, 0)
    ref.uniform(size=shape)
    assert rng.random() == ref.random()


def test_dither_keeps_a_doubling_orbit_off_its_dyadic_cycle():
    # without the refresh x -> 2x mod 1 drains the mantissa and sits at 0
    x = np.array([0.1, 0.3, 1 / 3])
    plain = x.copy()
    rng = stream(3, 0)
    for _ in range(80):
        plain = np.mod(2.0 * plain, 1.0)
        x = dither(np.mod(2.0 * x, 1.0), rng, 0.0, 1.0)
    assert np.all(plain == 0.0)
    assert np.all(x > 0.0) and len(set(x.tolist())) == 3


def test_stream_keys_are_distinct_and_keep_their_values():
    keys = {name: key for name, key in vars(StreamKey).items() if name.isupper()}
    assert len(set(keys.values())) == len(keys)
    # a changed key changes every number drawn from its stream
    assert keys == {"LYAPUNOV": 11, "QUOTIENT": 13, "SMB_START": 17, "SWEEP_ROW": 19,
                    "PROBE": 23, "SMB_DITHER": 29, "TAIL": 31}


def test_a_named_key_draws_the_stream_of_its_number():
    assert stream(5, StreamKey.TAIL, 2).random() == stream(5, 31, 2).random()
