"""Deterministic random-number streams.

Every stochastic routine in the package draws from a PCG64 generator
keyed by ``(seed, *key)`` through :class:`numpy.random.SeedSequence`.
Keying each unit of work (a sweep row, an orbit slot, a whole sample) by
its index makes results independent of scheduling and worker count:
stream ``(seed, i)`` is the same object no matter which process asks for
it.  A sample takes all its points from one stream, which
:meth:`~srblab.maps.MapSystem.sample_uniform` reads point by point, so
point ``i`` of a sample keeps its draws whatever the sample size.
"""

from __future__ import annotations

import numpy as np


class StreamKey:
    """First key of each kind of stream: no two kinds of work share one."""

    LYAPUNOV = 11    # orbit slot i of the Lyapunov route: (seed, LYAPUNOV, i)
    QUOTIENT = 13    # tower orbits of lyapunov_quotient_check
    SMB_START = 17   # starting points of the SMB route in entropy_report
    SWEEP_ROW = 19   # per-row seeds of a sweep
    PROBE = 23       # the sample of ``srblab probe``
    SMB_DITHER = 29  # dither of an SMB orbit, seeded by the bits of its start
    TAIL = 31        # the sample of tail_profile


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

    The points are first clipped into ``[lo, hi)``; a clipped point that
    the refresh would push to ``hi`` or beyond is left as it is.

    Parameters
    ----------
    x : ndarray
        Points; one point goes in as an array of one.
    rng : numpy.random.Generator
        Stream supplying the refresh bits.
    lo, hi : float
        Interval bounds.
    """
    x = np.clip(x, lo, np.nextafter(hi, lo))
    q = (hi - lo) * DITHER_SCALE
    y = lo + (np.floor((x - lo) / q) + rng.uniform(size=np.shape(x))) * q
    return np.where(y < hi, y, x)
