"""Keyed random streams: the batched first draws equal the generators'."""

import numpy as np
import pytest

import srblab as sl
from srblab.rng import _KEY_CHUNK, keyed_uniforms, stream

# one seed word; two words, the second 1; two words, the top bit set; five words
_SEEDS = [0, 12345, 2 ** 32 + 5, 2 ** 63 + 11, 2 ** 128 + 9]


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("count", [0, 1, 300])
def test_rows_equal_the_streams_bit_for_bit(seed, k, count):
    got = keyed_uniforms(seed, count, k)
    want = np.array([stream(seed, i).random(k) for i in range(count)]).reshape(count, k)
    assert got.shape == (count, k) and got.dtype == np.float64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [2 ** 32 + 5, 2 ** 63 + 11])
@pytest.mark.parametrize("k", [1, 2])
def test_rows_past_a_chunk_boundary_equal_the_streams(seed, k):
    count = 70_000
    assert count > _KEY_CHUNK
    got = keyed_uniforms(seed, count, k)
    rows = sorted({*range(0, count, 211), *range(_KEY_CHUNK - 8, _KEY_CHUNK + 8),
                   count - 1})
    want = np.array([stream(seed, i).random(k) for i in rows])
    assert np.array_equal(got[rows], want)


def test_chunk_size_changes_nothing(monkeypatch):
    want = keyed_uniforms(7, 50, 2)
    monkeypatch.setattr(sl.rng, "_KEY_CHUNK", 7)
    assert np.array_equal(keyed_uniforms(7, 50, 2), want)


@pytest.mark.parametrize("args", [(-1, 5, 1), (0, -1, 1), (0, 5, -1), (0, 2 ** 32 + 1, 1)])
def test_bad_arguments_raise(args):
    with pytest.raises(sl.ArgumentError):
        keyed_uniforms(*args)


@pytest.mark.parametrize("family,params", [("quadratic", {"a": 1.9}), ("tent", {"slope": 1.7}),
                                           ("viana", {"alpha": 0.01, "d": 16})])
def test_from_unit_gives_the_sampled_points(family, params):
    # sample_uniform is from_unit of the generator's doubles, coordinate by coordinate
    m = sl.make_map(family, **params)
    pts = np.array([m.sample_uniform(stream(9, i), 1)[0] for i in range(100)])
    assert np.array_equal(m.from_unit(keyed_uniforms(9, 100, m.dimension)), pts)
    rng = np.random.default_rng(4)
    many = m.sample_uniform(rng, 64)
    rng = np.random.default_rng(4)
    if m.dimension == 1:
        assert np.array_equal(many, rng.uniform(m.domain.lo, m.domain.hi, 64))
    else:
        assert np.array_equal(many[:, 0], rng.uniform(0.0, 1.0, 64))
        assert np.array_equal(many[:, 1], rng.uniform(m.domain.lo, m.domain.hi, 64))
