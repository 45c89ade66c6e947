"""Deterministic random-number streams.

Every stochastic routine in the package draws from a PCG64 generator
keyed by ``(seed, *key)`` through :class:`numpy.random.SeedSequence`.
Keying each unit of work (a sample point, a sweep row) by its index makes
results independent of scheduling and worker count: stream ``(seed, i)``
is the same object no matter which process asks for it.

A caller that needs only the first few doubles of many keyed streams,
one per sample point, takes them from :func:`keyed_uniforms` instead of
building a generator per key.  It runs numpy's derivation in uint32 and
uint64 arrays, all keys at once: ``SeedSequence`` hashes the seed words
(padded to its pool of four) and then the key word into the pool, with
hash constants that do not depend on the data; ``generate_state(4,
uint64)`` gives the 128-bit PCG64 seed and increment; PCG64 seeds by a
step from state 0, adds the seed and steps again; each draw is one
128-bit LCG step, the XSL-RR output and ``(raw >> 11) * 2**-53``.  Its
rows must stay bit-identical to ``stream(seed, i).random(k)``: every
sampled number of the package depends on it, and the tests compare the
two.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for ``(seed, *key)``.

    Parameters
    ----------
    seed : int
        Experiment-level seed.
    *key : int
        Index path of the unit of work (e.g. sample index, row index).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
# PCG64's 128-bit multiplier as (high, low) halves
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
# keys derived per pass of keyed_uniforms
_KEY_CHUNK = 2 ** 16


def _words(n: int) -> list[np.ndarray]:
    """The little-endian 32-bit words of ``n >= 0`` as SeedSequence splits
    it, each a one-element uint32 array."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return [np.array([w], dtype=np.uint32) for w in words]


def _hashmix(value: np.ndarray, const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's word hash; returns the hashed words and the next constant."""
    value = value ^ np.uint32(const)
    const = const * mult & _M32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a hashed word ``y`` into the pool word ``x``."""
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _mul_hi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit limbs."""
    m32 = np.uint64(_M32)
    s32 = np.uint64(32)
    a0, a1, b0, b1 = a & m32, a >> s32, b & m32, b >> s32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    return a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step ``state * MULT + inc`` on 128-bit states as uint64 halves."""
    mult_hi, mult_lo = _PCG_MULT
    new_hi = _mul_hi(lo, mult_lo) + lo * mult_hi + hi * mult_lo
    new_lo = lo * mult_lo
    return _add128(new_hi, new_lo, inc_hi, inc_lo)


def _first_uniforms(seed_words: list[np.ndarray], keys: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` doubles of the streams ``(seed, key)`` for one-word keys."""
    # SeedSequence.mix_entropy: with a spawn key the seed fills the pool of four
    entropy = seed_words + [np.zeros(1, dtype=np.uint32)] * (4 - len(seed_words)) + [keys]
    const = _INIT_A
    pool = []
    for word in entropy[:4]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[4:]:
        for dst in range(4):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    # SeedSequence.generate_state(4, uint64): eight words, paired little-endian
    const = _INIT_B
    state = []
    for i in range(8):
        value, const = _hashmix(pool[i % 4], const, _MULT_B)
        state.append(value.astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (state[2 * j] | state[2 * j + 1] << np.uint64(32)
                                        for j in range(4))
    # PCG64 seeding: inc = (seq << 1) | 1, step from 0, add the seed, step
    one = np.uint64(1)
    inc_hi = seq_hi << one | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << one | one
    hi, lo = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((keys.size, k))
    for j in range(k):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: rotate high ^ low right by the top six bits of the state
        rot = hi >> np.uint64(58)
        raw = (hi ^ lo) >> rot | (hi ^ lo) << (-rot & np.uint64(63))
        out[:, j] = (raw >> np.uint64(11)).astype(float) * 2.0 ** -53
    return out


def keyed_uniforms(seed: int, count: int, k: int) -> np.ndarray:
    """The first ``k`` uniform doubles of every stream ``(seed, i)``, ``i < count``.

    Row ``i`` equals ``stream(seed, i).random(k)`` bit for bit, with no
    generator built: see the module docstring.  Keys are derived 2^16 at
    a time, so the working memory beyond the ``(count, k)`` result does
    not grow with ``count``.
    """
    if seed < 0 or not 0 <= count <= 2 ** 32 or k < 0:
        raise ArgumentError(f"keyed_uniforms needs seed >= 0, 0 <= count <= 2**32 and "
                            f"k >= 0; got {seed}, {count}, {k}")
    seed_words = _words(int(seed))
    out = np.empty((count, k))
    for start in range(0, count, _KEY_CHUNK):
        keys = np.arange(start, min(start + _KEY_CHUNK, count), dtype=np.uint32)
        out[start:start + keys.size] = _first_uniforms(seed_words, keys, k)
    return out


#: Relative scale of the low-order bit refresh used by orbit samplers.
DITHER_SCALE = 2.0 ** -26


def dither(x: np.ndarray, rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """Re-randomize the low-order bits of orbit points in ``[lo, hi)``.

    Branches whose slopes are powers of two act on doubles as exact bit
    shifts, so every floating-point orbit drains its mantissa and lands on
    a short dyadic cycle after ~50 steps — a measure-zero behaviour that
    poisons Birkhoff averages.  Quantizing to the grid of spacing
    ``(hi - lo) * DITHER_SCALE`` and redrawing the remainder uniformly
    replaces everything below that scale with fresh bits, which simulates
    the orbit of a generic real refinement of the same sample.  The scale
    must exceed the worst single-step bit consumption (slopes up to
    ``2**26``), and sits far below every tolerance in the package.

    Points that the refresh would push to ``hi`` or beyond are left
    unchanged.

    Parameters
    ----------
    x : ndarray
        Points in ``[lo, hi)``; one point goes in as an array of one.
    rng : numpy.random.Generator
        Stream supplying the refresh bits.
    lo, hi : float
        Interval bounds.
    """
    q = (hi - lo) * DITHER_SCALE
    y = lo + (np.floor((x - lo) / q) + rng.uniform(size=np.shape(x))) * q
    return np.where(y < hi, y, x)
