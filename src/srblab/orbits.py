"""Orbit statistics: Lyapunov exponents, hyperbolicity and recurrence
times, tail profiles and tail-decay fits.

The expansion time of a point is the first index from which the running
average of ``log |Df^-1|`` along the orbit stays below ``-lambda/2`` up to
the horizon; the recurrence time is the analogous index for the running
average of ``-log dist_delta(., C)`` against the budget ``2 epsilon``,
where ``dist_delta`` is the distance to the critical set truncated to 1
outside a ``delta``-neighbourhood.  Points that fail at the horizon are
censored and reported as ``n_max + 1``.  One walk of each orbit keeps
the running sums of both summands and the last step at which each broke
its budget; a tail profile, ``expansion_time`` and ``recurrence_time``
(its one-point case) call the map once per step, and their memory
follows the number of points, not points x horizon.  Derivatives come
from the derivative interface of :class:`~srblab.maps.MapSystem`, so
every function here serves 1D and cylinder maps alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InsufficientDataError, NearCriticalError
from .maps import NEAR_CRITICAL_FLOOR, MapSystem
from .measures import ordered_sum
from .rng import StreamKey, stream

_LOG_CLAMP = 1e-300


def lyapunov_exponents(m: MapSystem, x, n: int) -> list[float]:
    """Finite-time Lyapunov exponents along one orbit, ascending.

    The average of ``log`` of the map's ``fibre_derivative_batch`` over the
    first ``n`` orbit points, and, when the map has a base direction, its
    ``base_exponent``.  The sum keeps orbit order across ``block_steps`` blocks:
    this is the per-orbit reference of :func:`~srblab.entropy.entropy_lyapunov_rows`.

    Raises
    ------
    NearCriticalError
        At the first orbit point within the floor of the critical set.
    """
    if n < 1:
        raise ArgumentError("lyapunov_exponents needs n >= 1")
    m.check_point(x)
    total = 0.0
    cur = np.asarray([x], dtype=float)
    block = m.block_steps(1)
    for start in range(0, n, block):
        buf = m.orbit(cur, min(n - start, block))
        cur, pts = buf[-1], buf[:-1, 0]
        dist = m.crit_dist_batch(pts)
        if (bad := dist < NEAR_CRITICAL_FLOOR).any():
            j = int(bad.argmax())
            raise NearCriticalError(float(dist[j]),
                                    f"orbit hit the critical set at iterate {start + j}")
        total = ordered_sum(np.append(total, np.log(m.fibre_derivative_batch(pts))))
    mean = total / n
    return sorted([mean, m.base_exponent]) if m.base_exponent else [mean]


@dataclass(frozen=True)
class TailParams:
    """Thresholds and horizon for hyperbolicity/recurrence tail profiles."""

    lam: float
    eps: float
    delta: float
    n_max: int
    sample_size: int

    def __post_init__(self):
        if not all(0 < x < np.inf for x in (self.lam, self.eps, self.delta)):
            raise ArgumentError("tail thresholds lambda, epsilon, delta must be positive "
                                "and finite")
        if self.n_max < 1 or self.sample_size < 1:
            raise ArgumentError("tail horizon and sample size must be >= 1")


@dataclass(frozen=True)
class TailProfile:
    """Fractions of a sample whose times exceed each n = 1..n_max."""

    n: np.ndarray
    frac_expansion: np.ndarray
    frac_recurrence: np.ndarray
    frac_union: np.ndarray
    sample_size: int
    censored_count: int
    params: TailParams
    seed: int


def _settle_walk(m: MapSystem, pts: np.ndarray, lam: float, delta: float, eps: float,
                 n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Expansion and recurrence times of the points ``pts``, from one walk.

    Each step adds the ``log |Df^-1|`` (minus the log of the map's
    ``conorm_batch``) and ``-log dist_delta(., C)`` summands of every
    point to its two running sums, in orbit order, and records step ``n``
    as the last failing one of a sum above its budget, ``-lam/2 * n`` or
    ``2 eps * n``.  A time is the last failing step plus one: 1 when no
    step fails, ``n_max + 1`` (censored) when step ``n_max`` fails.  Only
    per-point state is kept, so memory follows the points and not the
    horizon.  Maps without a critical set have zero recurrence summands,
    so their recurrence times are 1.
    """
    sums = np.zeros((2, pts.shape[0]))
    last_fail = np.zeros((2, pts.shape[0]), dtype=int)
    budgets = np.array([[-0.5 * lam], [2.0 * eps]])
    cur = pts.copy()
    for n in range(1, n_max + 1):
        sums[0] -= np.log(np.maximum(m.conorm_batch(cur), _LOG_CLAMP))
        if m.has_critical_set:
            dist = m.crit_dist_batch(cur)
            sums[1] -= np.log(np.where(dist < delta, np.maximum(dist, _LOG_CLAMP), 1.0))
        last_fail[~(sums <= budgets * n)] = n
        if n < n_max:
            cur = m.f_batch(cur)
    return last_fail[0] + 1, last_fail[1] + 1


def expansion_time(m: MapSystem, x, lam: float, n_max: int) -> int:
    """Hyperbolicity settling time of one point (``n_max + 1`` = censored).

    Smallest ``N`` such that the running average of ``log |Df^-1|`` along
    the orbit is at most ``-lam/2`` for every ``n`` in ``[N, n_max]``.
    """
    if lam <= 0:
        raise ArgumentError("expansion threshold lambda must be positive")
    if n_max < 1:
        raise ArgumentError("expansion horizon must be >= 1")
    m.check_point(x)
    # any delta and eps will do: only the expansion time is read
    texp, _ = _settle_walk(m, np.asarray([x], dtype=float), lam, 1.0, 1.0, n_max)
    return int(texp[0])


def recurrence_time(m: MapSystem, x, delta: float, eps: float, n_max: int) -> int:
    """Slow-recurrence settling time of one point (``n_max + 1`` = censored).

    Smallest ``N`` such that the running average of
    ``-log dist_delta(., C)`` along the orbit is at most ``2 eps`` for
    every ``n`` in ``[N, n_max]``.  Maps with empty critical set return 1.
    """
    if delta <= 0 or eps <= 0:
        raise ArgumentError("recurrence parameters delta, eps must be positive")
    if n_max < 1:
        raise ArgumentError("recurrence horizon must be >= 1")
    m.check_point(x)
    # any lambda will do: only the recurrence time is read
    _, trec = _settle_walk(m, np.asarray([x], dtype=float), 1.0, delta, eps, n_max)
    return int(trec[0])


def tail_profile(m: MapSystem, params: TailParams, seed: int = 0) -> TailProfile:
    """Monte Carlo tail profile of the settling times over a uniform sample.

    The sample is ``m.sample_uniform(stream(seed, StreamKey.TAIL),
    sample_size)``: one stream, read point by point, so point ``i`` does
    not depend on the sample size, the evaluation order or the worker
    count.  For each ``n`` the profile records the fraction of points whose
    expansion time exceeds ``n``, likewise for the recurrence time, and for
    the union of the two events: a count divided by the sample size.  The
    orbits are walked once, keeping per-point state only, so memory
    follows the sample and not sample x horizon.
    """
    npts = params.sample_size
    pts = m.sample_uniform(stream(seed, StreamKey.TAIL), npts)
    texp, trec = _settle_walk(m, pts, params.lam, params.delta, params.eps, params.n_max)

    def frac_over(times):
        # points with time > n, for n = 1 .. n_max: times run from 1 to n_max + 1
        at_most = np.cumsum(np.bincount(times, minlength=params.n_max + 2))[1:-1]
        return (npts - at_most) / npts

    censored = int(np.sum((texp > params.n_max) | (trec > params.n_max)))
    return TailProfile(np.arange(1, params.n_max + 1), frac_over(texp), frac_over(trec),
                       frac_over(np.maximum(texp, trec)), npts, censored, params, seed)


@dataclass(frozen=True)
class TailFit:
    """Least-squares fit of a tail profile in log scale."""

    model: str
    C: float
    gamma: float
    residual: float
    n_points: int


def fit_tail_decay(profile: TailProfile, model: str = "polynomial") -> TailFit:
    """Fit ``C n^-gamma`` or ``C exp(-gamma sqrt(n))`` to the union fractions.

    Only strictly positive fractions enter the fit (log scale); fewer than
    5 of them raise :class:`InsufficientDataError`.  The residual is the
    root-mean-square misfit of ``log frac``.

    Parameters
    ----------
    profile : TailProfile
    model : str
        ``"polynomial"`` or ``"stretched_exp"``.
    """
    if model not in ("polynomial", "stretched_exp"):
        raise ArgumentError(f"unknown tail model {model!r}")
    mask = profile.frac_union > 0
    n = profile.n[mask].astype(float)
    y = np.log(profile.frac_union[mask])
    if n.size < 5:
        raise InsufficientDataError(
            f"only {n.size} positive tail fractions; need at least 5"
        )
    regressor = -np.log(n) if model == "polynomial" else -np.sqrt(n)
    A = np.column_stack([np.ones_like(n), regressor])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return TailFit(model, float(np.exp(coef[0])), float(coef[1]), rms, int(n.size))
