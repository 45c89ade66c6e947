"""Built-in map families and critical-set geometry.

The package works with a small gallery of expanding maps: linear circle
maps ``x -> d x (mod 1)``, the doubling map, tent maps, quadratic maps
``x -> a - x^2`` on their invariant interval, a perturbed doubling family
``x -> 2x + t sin(2 pi x)/(2 pi) (mod 1)`` and a quadratic skew product on
the cylinder (``theta -> d theta (mod 1)`` in the base, ``x -> a(theta) - x^2``
in the fibre).

One-dimensional maps expose their maximal monotone branches through
continuous branch lifts, which downstream code uses to build first-return
partitions and transfer-operator discretisations without finite
differences.  Jacobians are guarded near the critical set: below
``NEAR_CRITICAL_FLOOR`` the logarithm is refused rather than silently
overflowing.

Each family writes its formula once, in batch methods (``f_batch``,
``fibre_derivative_batch``, ``crit_dist_batch``, ``orbit``, ...), the only
way to evaluate a map: one point goes in as a batch of shape (1,), or
(1, 2) on the cylinder.  Every derivative question goes through the
derivative interface of :class:`MapSystem`.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, DomainViolationError, MapParameterError

#: points closer than this to the critical set have no usable log-Jacobian
NEAR_CRITICAL_FLOOR = 1e-15

_DOMAIN_SLACK = 1e-12

#: Values (points x coordinates) of one orbit block, 256 KiB of float64: on the
#: benchmark's 2-core Xeon a 352 KiB tent-sweep block came back from the allocator
#: as fresh pages every block (144 faults) and took twice the time per step.
ORBIT_BLOCK_VALUES = 1 << 15


# Compensated arithmetic: a value is carried as an unevaluated sum hi + lo
# of two floats (double-double), so that orbit points close to a critical
# value or to a repelling fixed point keep the digits that plain floats
# round away.  Dekker's splitter makes the products error-free without FMA.
_SPLIT = 134217729.0  # 2^27 + 1


def _two_sum(a, b):
    """``a + b`` as ``(s, e)`` with ``s + e`` exact."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_square(a):
    """``a * a`` as ``(p, e)`` with ``p + e`` exact."""
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    p = a * a
    return p, ((ah * ah - p) + 2.0 * ah * al) + al * al


def wrap_unit_batch(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Reduce reals to [0, 1), sending an exact 1.0 to 0.0; 0-d input too.
    Writes into ``out`` when one is given (it may be ``x`` itself)."""
    y = np.asarray(np.subtract(x, np.floor(x), out=out))
    # floating point can round y up to 1.0; fold it back onto 0.0
    np.copyto(y, 0.0, where=y >= 1.0)
    return y


def _image(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``out``, or a new float array of the shape of ``x`` for an image."""
    return np.empty(np.shape(x)) if out is None else out


@dataclass(frozen=True)
class Interval:
    """Closed interval ``[lo, hi]`` used for domains and induction regions."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ArgumentError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo - _DOMAIN_SLACK <= x <= self.hi + _DOMAIN_SLACK


class MapSystem:
    """Common interface of the built-in families.

    Attributes
    ----------
    dimension : int
        1 for interval/circle maps, 2 for the cylinder skew product.
    family : str
        Family tag used by configuration files and reports.
    params : dict
        Parameters the instance was built with.
    domain : Interval
        Ambient domain (the x-interval; circle maps use [0, 1)).

    The batch methods are the only way to evaluate a map; one point goes
    in as a batch of shape (1,), or (1, 2) on the cylinder.  Each family
    keeps the parameters its batch methods use as attributes named like
    their ``params`` keys, and the batch methods broadcast them against
    the points: a copy holding a parameter as an array with one value per
    point (per column of a 2D array of 1D points) evaluates every point at
    its own parameter value in one call.  ``f_batch(x, out=None)`` writes
    the image into ``out`` when one is given (an array of the shape of
    ``x`` that does not overlap it) and returns it, and allocates the
    image otherwise; both give the same bits.  :meth:`orbit` steps many
    orbits at once; the base class writes each row in place with one
    ``f_batch(rows[j], out=rows[j + 1])`` call per step, and a family may
    override it with a faster loop that gives the same values bit for bit.

    The derivative interface: ``base_exponent``, the exponent of an
    invariant base direction (0.0 in 1D), and, one value per point,
    ``fibre_derivative_batch`` (the other direction's expansion),
    ``abs_det_batch`` and the least and largest singular values of ``Df``,
    ``conorm_batch`` and ``norm_batch``; in 1D all four are ``|f'|``, which
    a 1D family writes once, as ``fibre_derivative_batch(x, out=None)``.
    That takes ``out`` as ``f_batch`` does (an array of one value per point
    that does not overlap ``x``), with the same bits as its allocating call.
    """

    dimension = 1
    family = "?"
    #: True when every monotone branch has constant slope
    piecewise_affine = False
    base_exponent = 0.0

    def __init__(self):
        self.params: dict = {}

    # -- evaluation ---------------------------------------------------
    def f_batch(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def orbit(self, x: np.ndarray, k: int) -> np.ndarray:
        """Rows ``x, f(x), ..., f^k(x)`` of the orbits of the points ``x``,
        one ``f_batch`` call per row, each writing its row in place."""
        buf = np.empty((k + 1,) + np.shape(x))
        buf[0] = x
        rows = list(buf)
        for j in range(k):
            self.f_batch(rows[j], out=rows[j + 1])
        return buf

    def block_steps(self, points: int) -> int:
        """Steps of an orbit block of ``points`` orbits (at least one)."""
        return max(1, ORBIT_BLOCK_VALUES // (points * self.dimension))

    def fibre_derivative_batch(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def abs_det_batch(self, x: np.ndarray) -> np.ndarray:
        return self.fibre_derivative_batch(x)

    conorm_batch = norm_batch = abs_det_batch

    # -- critical set -------------------------------------------------
    def crit_dist_batch(self, x: np.ndarray) -> np.ndarray:
        """Distances of the points ``x`` to the critical set, one per point:
        the shape of ``x``, less the trailing coordinate axis of a 2D map.
        With no critical set, a read-only broadcast of inf that takes no
        memory, since the orbit driver asks for a whole block's distances."""
        return np.broadcast_to(np.inf, np.shape(x))

    @property
    def has_critical_set(self) -> bool:
        return False

    @property
    def critical_points(self) -> np.ndarray:
        """Sorted critical points of a 1D map (empty when it has none)."""
        return np.empty(0)

    # -- branches (1D only) -------------------------------------------
    @property
    def n_branches(self) -> int:
        raise NotImplementedError

    def branch_bounds(self, i: int) -> tuple[float, float]:
        raise NotImplementedError

    def branch_lift(self, i: int, x):
        """Continuous monotone extension of the map on branch ``i``."""
        raise NotImplementedError

    def branch_dlift(self, i: int, x):
        raise NotImplementedError

    def branch_inverse(self, i: int, y):
        """Inverse of :meth:`branch_lift` on branch ``i``, vectorised over ``y``.

        Points of the image of branch ``i`` go back into the branch;
        composed along an itinerary, these give the inverse branches of a
        first-return tower without any root bracketing.
        """
        raise NotImplementedError

    def branch_lift_dd(self, i: int, hi, lo):
        """:meth:`branch_lift` of the double-double ``hi + lo``, as ``(hi, lo)``.

        The default carries ``lo`` to first order, which suffices on
        branches whose derivative stays away from zero.
        """
        return self.branch_lift(i, hi), self.branch_dlift(i, hi) * lo

    def branch_inverse_dd(self, i: int, hi, lo):
        """:meth:`branch_inverse` of the double-double ``hi + lo``, as ``(hi, lo)``."""
        x = self.branch_inverse(i, hi)
        return x, lo / self.branch_dlift(i, x)

    def branch_containing(self, y: float) -> int:
        """Index of the branch whose interior or closure holds ``y``."""
        for i in range(self.n_branches):
            lo, hi = self.branch_bounds(i)
            if lo <= y <= hi:
                return i
        raise DomainViolationError(f"{y} outside every branch of {self.family}")

    def interior_cuts(self) -> np.ndarray:
        """Sorted interior branch endpoints (monotonicity/continuity cuts)."""
        return np.array([self.branch_bounds(i)[1] for i in range(self.n_branches - 1)])

    # -- sampling -----------------------------------------------------
    def sample_uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` uniform points of the domain, ``lo + (hi - lo) u`` (the
        formula of ``Generator.uniform``).  The draws are taken point by
        point, ``dimension`` at a time, so the first ``j`` points do not
        depend on ``n``."""
        u = rng.random((n, self.dimension))
        return self.domain.lo + (self.domain.hi - self.domain.lo) * u[:, 0]

    def check_point(self, x) -> None:
        if not self.domain.contains(float(x)):
            raise DomainViolationError(
                f"{x} outside domain [{self.domain.lo}, {self.domain.hi}] of {self.family}"
            )

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{type(self).__name__}({ps})"


class LinearCircleMap(MapSystem):
    """``x -> d x (mod 1)`` on the circle, integer ``d >= 2``."""

    family = "circle_linear"
    piecewise_affine = True

    def __init__(self, d: int = 2):
        super().__init__()
        d = int(d)
        if d < 2:
            raise ArgumentError("circle_linear needs integer d >= 2")
        self.d = d
        self.params = {"d": d}
        self.domain = Interval(0.0, 1.0)

    def f_batch(self, x, out=None):
        x = np.asarray(x, dtype=float)
        y = np.multiply(self.d, x, out=_image(x, out))
        return wrap_unit_batch(y, out=y)

    def fibre_derivative_batch(self, x, out=None):
        # |f'| is d everywhere
        out = _image(x, out)
        out[...] = self.d
        return out

    @property
    def n_branches(self):
        return self.d

    def branch_bounds(self, i):
        return (i / self.d, (i + 1) / self.d)

    def branch_lift(self, i, x):
        return self.d * np.asarray(x, dtype=float) - i

    def branch_dlift(self, i, x):
        return np.full(np.shape(x), self.d, dtype=float)

    def branch_inverse(self, i, y):
        return (np.asarray(y, dtype=float) + i) / self.d


class DoublingMap(LinearCircleMap):
    """The doubling map, i.e. the linear circle map with d = 2."""

    family = "doubling"

    def __init__(self):
        super().__init__(2)
        self.params = {}


#: ``PerturbedDoublingMap.branch_inverse`` runs Newton point by point in
#: Python floats on batches of at most this many points, and as one array
#: loop on larger ones.  Measured per call on a 2-core Xeon (Python 3.11,
#: numpy 2.4): one point 7 us against 141 us, six points 25 us against
#: 140 us; the two cost the same between 24 and 32 points, and at 16 the
#: point loop is 1.4 to 2.8 times faster for t in {0.05, 0.4, 1.0, 1.9}.
#: Most calls of the tower chains pass 2 to 6 points, the Ulam grid 1,025.
_POINTWISE_MAX = 16


class PerturbedDoublingMap(MapSystem):
    """``x -> 2x + t sin(2 pi x) / (2 pi) (mod 1)``, smooth in ``t``.

    For ``t < 2`` the lift is strictly increasing, so the map keeps the
    two full branches of the doubling map; ``t = 0`` recovers doubling
    exactly.  Used as a smooth one-parameter family for statistical
    stability experiments.

    :meth:`branch_inverse` inverts a batch of at most ``_POINTWISE_MAX``
    points (with a scalar ``t``) one point at a time in Python floats,
    with ``math.sin`` and ``math.cos``; larger batches run the same
    Newton iteration as one array loop.  Both paths evaluate the one lift
    and derivative formula, take the same steps and give the same roots
    bit for bit: Python floats round as numpy's float64 does, and
    ``math.sin``/``math.cos`` equal numpy's float64 ``sin``/``cos`` (a
    test checks this precondition on the host).
    """

    family = "circle_perturbed"

    def __init__(self, t: float = 0.0):
        super().__init__()
        t = float(t)
        if not 0.0 <= t < 2.0:
            raise ArgumentError("circle_perturbed needs 0 <= t < 2")
        self.t = t
        self.params = {"t": t}
        self.domain = Interval(0.0, 1.0)
        self.piecewise_affine = t == 0.0

    # the formulas take their sin/cos so that numpy arrays and Python
    # floats evaluate them alike
    def _lift(self, x, sin=np.sin):
        return 2.0 * x + self.t * sin(2.0 * np.pi * x) / (2.0 * np.pi)

    def _dlift(self, x, cos=np.cos):
        return 2.0 + self.t * cos(2.0 * np.pi * x)

    def f_batch(self, x, out=None):
        return wrap_unit_batch(self._lift(np.asarray(x, dtype=float)), out=out)

    def fibre_derivative_batch(self, x, out=None):
        # |_dlift| in place, in its order of operations
        x = np.asarray(x, dtype=float)
        y = np.multiply(2.0 * np.pi, x, out=_image(x, out))
        np.cos(y, out=y)
        np.multiply(self.t, y, out=y)
        np.add(2.0, y, out=y)
        return np.abs(y, out=y)

    @property
    def n_branches(self):
        return 2

    def branch_bounds(self, i):
        # the lift crosses 1 exactly at x = 1/2 (sin(pi) = 0) for every t
        return (0.0, 0.5) if i == 0 else (0.5, 1.0)

    def branch_lift(self, i, x):
        y = self._lift(np.asarray(x, dtype=float))
        return y if i == 0 else y - 1.0

    def branch_dlift(self, i, x):
        return self._dlift(np.asarray(x, dtype=float))

    def branch_inverse(self, i, y):
        # Newton on the increasing lift (derivative >= 2 - t > 0), started
        # from the doubling inverse, which is exact at t = 0.  A step that
        # leaves the bracket kept around the root falls back to bisection;
        # each point stops after its own step below 1e-12 (so no other
        # point of the call moves its root), and one last Newton step
        # polishes the roots to rounding level (quadratic convergence).
        target = np.asarray(y, dtype=float) + i
        if target.size <= _POINTWISE_MAX and np.ndim(self.t) == 0:
            try:
                roots = [self._newton_point(i, v) for v in target.ravel().tolist()]
            except ValueError:  # math.sin(inf) raises where np.sin gives nan
                pass
            else:
                return np.array(roots).reshape(target.shape)[()]
        return self._newton_batch(i, target)

    def _newton_batch(self, i, target):
        lo = np.full(target.shape, 0.5 * i)
        hi = np.full(target.shape, 0.5 * (i + 1))
        x = 0.5 * target
        live = np.ones(target.shape, dtype=bool)
        for _ in range(100):
            r = self._lift(x) - target
            lo = np.where(r < 0, x, lo)
            hi = np.where(r > 0, x, hi)
            nxt = x - r / self._dlift(x)
            nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            x, live = np.where(live, nxt, x), live & (np.abs(nxt - x) > 1e-12)
            if not live.any():
                break
        return x - (self._lift(x) - target) / self._dlift(x)

    def _newton_point(self, i, target):
        """:meth:`_newton_batch` on one float, with ``if`` for its masks."""
        lo, hi = 0.5 * i, 0.5 * (i + 1)
        x = 0.5 * target
        for _ in range(100):
            r = self._lift(x, math.sin) - target
            if r < 0:
                lo = x
            if r > 0:
                hi = x
            nxt = x - r / self._dlift(x, math.cos)
            if not lo <= nxt <= hi:
                nxt = 0.5 * (lo + hi)
            x, live = nxt, abs(nxt - x) > 1e-12
            if not live:
                break
        return x - (self._lift(x, math.sin) - target) / self._dlift(x, math.cos)


class TentMap(MapSystem):
    """Tent map ``x -> s min(x, 1 - x)`` on [0, 1], slope ``1 < s <= 2``."""

    family = "tent"

    def __init__(self, slope: float = 2.0):
        super().__init__()
        slope = float(slope)
        if not 1.0 < slope <= 2.0:
            raise ArgumentError("tent needs slope in (1, 2]")
        self.slope = slope
        self.params = {"slope": slope}
        self.domain = Interval(0.0, 1.0)
        self.piecewise_affine = True

    def f_batch(self, x, out=None):
        x = np.asarray(x, dtype=float)
        y = np.subtract(1.0, x, out=_image(x, out))
        np.minimum(x, y, out=y)
        return np.multiply(self.slope, y, out=y)

    def fibre_derivative_batch(self, x, out=None):
        # |f'| is the slope everywhere
        out = _image(x, out)
        out[...] = self.slope
        return out

    @property
    def n_branches(self):
        return 2

    def branch_bounds(self, i):
        return (0.0, 0.5) if i == 0 else (0.5, 1.0)

    def branch_lift(self, i, x):
        x = np.asarray(x, dtype=float)
        return self.slope * x if i == 0 else self.slope * (1.0 - x)

    def branch_dlift(self, i, x):
        s = self.slope if i == 0 else -self.slope
        return np.full(np.shape(x), s)

    def branch_inverse(self, i, y):
        y = np.asarray(y, dtype=float)
        return y / self.slope if i == 0 else 1.0 - y / self.slope


class QuadraticMap(MapSystem):
    """``x -> a - x^2`` on its invariant interval ``[a - a^2, a]``.

    The critical set is {0}; the Jacobian ``-2x`` vanishes there linearly.
    For ``a`` in (1, 2] the interval maps into itself, with equality of the
    endpoints at the classical parameter ``a = 2``.
    """

    family = "quadratic"

    def __init__(self, a: float = 2.0):
        super().__init__()
        a = float(a)
        if not 1.0 < a <= 2.0:
            raise ArgumentError("quadratic needs a in (1, 2]")
        self.a = a
        self.params = {"a": a}
        self.domain = Interval(a - a * a, a)

    def f_batch(self, x, out=None):
        x = np.asarray(x, dtype=float)
        y = np.multiply(x, x, out=_image(x, out))
        return np.subtract(self.a, y, out=y)

    def fibre_derivative_batch(self, x, out=None):
        x = np.asarray(x, dtype=float)
        y = np.multiply(-2.0, x, out=_image(x, out))
        return np.abs(y, out=y)

    def crit_dist_batch(self, x):
        return np.abs(np.asarray(x, dtype=float))

    @property
    def has_critical_set(self):
        return True

    @property
    def critical_points(self):
        return np.zeros(1)

    @property
    def n_branches(self):
        return 2

    def branch_bounds(self, i):
        return (self.domain.lo, 0.0) if i == 0 else (0.0, self.domain.hi)

    def branch_lift(self, i, x):
        x = np.asarray(x, dtype=float)
        return self.a - x * x

    def branch_dlift(self, i, x):
        return -2.0 * np.asarray(x, dtype=float)

    def branch_inverse(self, i, y):
        root = np.sqrt(np.maximum(self.a - np.asarray(y, dtype=float), 0.0))
        return -root if i == 0 else root

    # Error-free transformations, good to the double-double rounding: near
    # the critical value a the plain lift and inverse lose the digits of
    # x^2 that sit below ulp(a).
    def branch_lift_dd(self, i, hi, lo):
        p, e = _two_square(hi)
        yh, t = _two_sum(self.a, -p)
        return _two_sum(yh, t - e - lo * (2.0 * hi + lo))

    def branch_inverse_dd(self, i, hi, lo):
        uh, t = _two_sum(self.a, -hi)
        uh, ul = _two_sum(uh, t - lo)
        root = np.sqrt(np.maximum(uh + ul, 0.0))
        p, e = _two_square(root)
        # one Newton step on root^2 = uh + ul, with the residual taken exactly
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(root > 0, (((uh - p) - e) + ul) / (2.0 * root), 0.0)
        xh, xl = _two_sum(root, corr)
        return (-xh, -xl) if i == 0 else (xh, xl)


class VianaMap(MapSystem):
    """Quadratic skew product over an expanding circle map.

    ``(theta, x) -> (d theta mod 1, a0 + alpha sin(2 pi theta) - x^2)`` on
    the cylinder ``S^1 x I``.  The default ``a0`` is the root in (1, 2) at
    which the critical orbit of ``x -> a0 - x^2`` lands on the
    orientation-reversing fixed point, computed by
    :func:`misiurewicz_parameter`.  The fibre interval ``I`` must absorb
    its image; this is checked on a boundary sample at construction.

    The critical set is the circle {x = 0}; the derivative matrix
    ``[[d, 0], [2 pi alpha cos(2 pi theta), -2x]]`` is lower triangular, so
    the base Lyapunov exponent is ``log d`` exactly and the fibre line is
    invariant, with expansion ``|2x|``.

    The base never depends on the fibre, so :meth:`orbit` steps ``theta``
    alone (:meth:`base_step`), takes the forcing
    ``c_j = a0 + alpha sin(2 pi theta_j)`` of every step in one call
    (:meth:`forcing`), and leaves the fibre steps ``x -> c_j - x^2``
    (:meth:`fibre_steps`).  :meth:`f_batch` takes one step with the same
    three methods, so the skew-product formula is written once.
    """

    family = "viana"
    dimension = 2

    def __init__(self, alpha: float = 0.05, d: int = 16, a0: float | None = None,
                 lo: float = -1.75, hi: float = 1.75):
        super().__init__()
        d = int(d)
        if d < 2:
            raise ArgumentError("viana needs integer d >= 2")
        alpha = float(alpha)
        if not alpha >= 0:
            raise ArgumentError("viana needs alpha >= 0")
        if a0 is None:
            a0 = misiurewicz_parameter()
        a0 = float(a0)
        self.d = d
        self.alpha = alpha
        self.a0 = a0
        self.base_exponent = math.log(d)
        self.domain = Interval(float(lo), float(hi))
        self.params = {"alpha": alpha, "d": d, "a0": a0, "lo": float(lo), "hi": float(hi)}
        self._check_invariance()

    def _check_invariance(self):
        thetas = np.linspace(0.0, 1.0, 257)
        for x in (self.domain.lo, self.domain.hi, 0.0):
            img = self.forcing(thetas) - x * x
            if not (img.min() > self.domain.lo and img.max() < self.domain.hi):
                raise ArgumentError(
                    "fibre interval is not mapped into its own interior; "
                    f"image range [{img.min():.4f}, {img.max():.4f}] vs "
                    f"({self.domain.lo}, {self.domain.hi})"
                )

    # state is a pair (theta, x); batches are arrays of shape (n, 2)
    def f_batch(self, p, out=None):
        p = np.asarray(p, dtype=float)
        out = np.empty_like(p) if out is None else out
        out[..., 0] = self.base_step(p[..., 0])
        self.fibre_steps([self.forcing(p[..., 0])], [p[..., 1], out[..., 1]])
        return out

    def base_step(self, theta: np.ndarray) -> np.ndarray:
        """``d theta (mod 1)``: one step of the base circle.

        For ``theta`` in [0, 1) and an integer ``d``, ``y - floor(y)`` is
        exact and below 1, so no fold onto 0 is needed (as it is in
        :func:`wrap_unit_batch`).
        """
        y = self.d * theta
        return y - np.floor(y)

    def forcing(self, theta: np.ndarray) -> np.ndarray:
        """``a0 + alpha sin(2 pi theta)``: the fibre parameter over ``theta``."""
        return self.a0 + self.alpha * np.sin(2 * np.pi * theta)

    @staticmethod
    def fibre_steps(c, x) -> None:
        """``x[j + 1] = c[j] - x[j]^2`` in place, for each row ``j`` of the
        forcing ``c``; ``x`` is any sequence of ``len(c) + 1`` arrays."""
        for j in range(len(c)):
            np.subtract(c[j], np.square(x[j]), out=x[j + 1])

    def orbit(self, p, k):
        """Rows ``p, f(p), ..., f^k(p)`` of the orbits of the points ``p``
        (shape (n, 2)), as an array of shape (k + 1, n, 2)."""
        out = np.empty((k + 1,) + np.shape(p))
        out[0] = p
        theta, x = out[..., 0], out[..., 1]
        for j in range(k):
            theta[j + 1] = self.base_step(theta[j])
        self.fibre_steps(self.forcing(theta[:k]), x)
        return out

    def jac_entries_batch(self, p):
        """Jacobian entries (base, coupling, fibre); the base is one float."""
        p = np.asarray(p, dtype=float)
        return (float(self.d), self.alpha * 2 * np.pi * np.cos(2 * np.pi * p[..., 0]),
                -2.0 * p[..., 1])

    def fibre_derivative_batch(self, p, out=None):
        x = np.asarray(p, dtype=float)[..., 1]
        y = np.multiply(2.0, x, out=_image(x, out))
        return np.abs(y, out=y)

    def abs_det_batch(self, p):
        return self.d * self.fibre_derivative_batch(p)

    def conorm_batch(self, p):
        return _op_norms_2x2_lower(*self.jac_entries_batch(p))[1]

    def norm_batch(self, p):
        return _op_norms_2x2_lower(*self.jac_entries_batch(p))[0]

    def crit_dist_batch(self, p):
        return np.abs(np.asarray(p, dtype=float)[..., 1])

    @property
    def has_critical_set(self):
        return True

    def sample_uniform(self, rng, n):
        """``theta = u0`` and ``x = lo + (hi - lo) u1`` from each point's
        pair of draws ``(u0, u1)``."""
        u = rng.random((n, 2))
        return np.column_stack([u[:, 0], self.domain.lo
                                + (self.domain.hi - self.domain.lo) * u[:, 1]])

    def check_point(self, p):
        if not Interval(0.0, 1.0).contains(float(p[0])):
            raise DomainViolationError(f"base coordinate {p[0]} outside the circle [0, 1]")
        if not self.domain.contains(float(p[1])):
            raise DomainViolationError(
                f"fibre coordinate {p[1]} outside [{self.domain.lo}, {self.domain.hi}]"
            )


@lru_cache(maxsize=None)
def misiurewicz_parameter() -> float:
    """Parameter in (1, 2) whose critical orbit lands on the reversing fixed point.

    For ``p(x) = a - x^2`` the positive fixed point
    ``beta = (-1 + sqrt(1 + 4a)) / 2`` has derivative ``-2 beta < 0``.  The
    third image of the critical point, ``a - (a - a^2)^2``, crosses
    ``beta`` once on (1, 2); bisection on the difference pins the crossing
    down to machine precision.  The landing is then confirmed: one of the
    first 64 iterates sits within 1e-12 of ``beta``.

    Returns
    -------
    float
        The preperiodic parameter (about 1.5437).
    """

    def gap(a: float) -> float:
        beta = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * a))
        return a - (a - a * a) ** 2 - beta

    lo, hi = 1.4, 1.7
    glo, ghi = gap(lo), gap(hi)
    if not (glo > 0 > ghi):
        raise ArgumentError("bisection bracket lost for the preperiodic parameter")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    a = 0.5 * (lo + hi)
    beta = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * a))
    x = 0.0
    for _ in range(64):
        x = a - x * x
        if abs(x - beta) <= 1e-12:
            return a
    raise ArgumentError("critical orbit failed to land on the fixed point")


_FAMILIES = {
    "circle_linear": LinearCircleMap,
    "doubling": DoublingMap,
    "circle_perturbed": PerturbedDoublingMap,
    "tent": TentMap,
    "quadratic": QuadraticMap,
    "viana": VianaMap,
}


def make_map(family: str, **params) -> MapSystem:
    """Instantiate a built-in family by tag.

    Parameters
    ----------
    family : str
        One of ``circle_linear``, ``doubling``, ``circle_perturbed``,
        ``tent``, ``quadratic``, ``viana``.
    **params
        Family parameters (``d``, ``slope``, ``a``, ``t``, ``alpha`` ...).
        An unknown family or name, a value that is not a real number and
        a non-integral ``d`` raise :class:`MapParameterError`.
    """
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise MapParameterError(f"unknown map family {family!r}") from None
    names = list(inspect.signature(cls).parameters)
    for name, value in params.items():
        if name not in names:
            raise MapParameterError(f"{family} has no parameter {name!r}; its parameters: "
                                    f"{', '.join(names) or 'none'}")
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise MapParameterError(f"{family} parameter {name} = {value!r} is not a number")
        if name == "d" and not float(value).is_integer():
            raise MapParameterError(f"{family} needs an integer d, got {value!r}")
    return cls(**params)


def _op_norms_2x2_lower(a, c, e):
    """Largest/smallest singular values of [[a, 0], [c, e]], ``a > 0``, to a
    few ulps (vectorised): the mean ``s`` of the lengths of ``(a +- |e|, c)``
    and ``a |e| / s``; the Gram matrix's eigenvalues lose 1e-8 near ``|e| = a``."""
    ae, c2 = np.abs(e), c * c
    smax = 0.5 * (np.sqrt(np.square(a + ae) + c2) + np.sqrt(np.square(a - ae) + c2))
    return smax, a * ae / smax


@dataclass(frozen=True)
class NondegeneracyReport:
    """Worst observed ratios for the three power-law derivative conditions.

    Each ratio is normalised so that values <= 1 mean the condition holds
    with constants (B, beta) on the sample; maps with empty critical set
    report zeros by convention.
    """

    B: float
    beta: float
    norm_ratio: float
    norm_witness: tuple
    lipschitz_inv_ratio: float
    lipschitz_inv_witness: tuple
    lipschitz_det_ratio: float
    lipschitz_det_witness: tuple

    @property
    def passed(self) -> bool:
        return max(self.norm_ratio, self.lipschitz_inv_ratio, self.lipschitz_det_ratio) <= 1.0


def nondegeneracy_probe(m: MapSystem, B: float, beta: float, points) -> NondegeneracyReport:
    """Check the power-law lower bound on ``|Df|`` and the local Lipschitz
    bounds on ``log |Df^-1|`` and ``log |det Df^-1|`` on a sample.

    For each sample point ``x`` the probe evaluates

    * ``B dist(x,C)^beta / |Df(x)|``  (should be <= 1),
    * the log-derivative variation over a nearby pair ``(x, y)`` with
      ``|x - y| < dist(x,C)/2``, divided by ``B dist(x,C)^-beta |x - y|``.

    Parameters
    ----------
    m : MapSystem
    B, beta : float
        Candidate constants, both positive.
    points : array_like
        Nonempty sample; shape (n,) for 1D maps, (n, 2) for 2D.

    Returns
    -------
    NondegeneracyReport
    """
    if not (B > 0 and beta > 0):
        raise ArgumentError("probe constants B, beta must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ArgumentError("nondegeneracy probe needs a nonempty sample")

    if not m.has_critical_set:
        # constant-distance convention: the conditions are vacuous
        return NondegeneracyReport(B, beta, 0.0, (), 0.0, (), 0.0, ())

    dist = m.crit_dist_batch(pts)
    keep = dist >= NEAR_CRITICAL_FLOOR
    pts, dist = pts[keep], dist[keep]
    if pts.shape[0] == 0:
        raise ArgumentError("all probe points sit on the critical set")
    step = 0.4 * np.minimum(dist, m.domain.width)
    if m.dimension == 1:
        # pair partner: step 0.4 dist towards the domain centre
        centre = 0.5 * (m.domain.lo + m.domain.hi)
        ys = pts + np.where(pts <= centre, step, -step)
        sep = np.abs(pts - ys)
    else:
        # perturb the fibre coordinate away from {x = 0}
        ys = pts.copy()
        ys[:, 1] += np.where(pts[:, 1] >= 0, step, -step)
        sep = step
    norm = m.norm_batch(pts)
    dfinv, ydfinv = 1.0 / m.conorm_batch(pts), 1.0 / m.conorm_batch(ys)
    detinv, ydetinv = 1.0 / m.abs_det_batch(pts), 1.0 / m.abs_det_batch(ys)

    with np.errstate(divide="ignore", invalid="ignore"):
        denom = B * dist ** (-beta) * sep
        ratios = (B * dist ** beta / norm, np.abs(np.log(dfinv) - np.log(ydfinv)) / denom,
                  np.abs(np.log(detinv) - np.log(ydetinv)) / denom)
    worst = []
    for r, pair in zip(ratios, (False, True, True)):
        r = np.nan_to_num(r, nan=np.inf)
        i = int(np.argmax(r))
        p = tuple(np.atleast_1d(pts[i]).tolist())
        worst += [float(r[i]), (p, tuple(np.atleast_1d(ys[i]).tolist())) if pair else p]
    return NondegeneracyReport(B, beta, *worst)
