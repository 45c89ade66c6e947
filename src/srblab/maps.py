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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, DomainViolationError, NearCriticalError

#: points closer than this to the critical set have no usable log-Jacobian
NEAR_CRITICAL_FLOOR = 1e-15

_DOMAIN_SLACK = 1e-12


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


def wrap_unit(x: float) -> float:
    """Reduce a real number to [0, 1), sending an exact 1.0 to 0.0."""
    y = x - math.floor(x)
    return 0.0 if y >= 1.0 else y


def wrap_unit_batch(x: np.ndarray) -> np.ndarray:
    y = x - np.floor(x)
    # floating point can round y up to 1.0; fold it back onto 0.0
    y[y >= 1.0] = 0.0
    return y


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

    def contains(self, x: float, slack: float = _DOMAIN_SLACK) -> bool:
        return self.lo - slack <= x <= self.hi + slack


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
    circle : bool
        Whether the 1D coordinate wraps around.

    Each family keeps the parameters its batch methods use as attributes
    named like their ``params`` keys, and the batch methods broadcast
    them against the points: a copy holding a parameter as an array with
    one value per point (per column of a 2D array of 1D points) evaluates
    every point at its own parameter value in one call.
    """

    dimension = 1
    family = "?"
    circle = False
    #: True when every monotone branch has constant slope
    piecewise_affine = False

    def __init__(self):
        self.params: dict = {}

    # -- evaluation ---------------------------------------------------
    def __call__(self, x):
        return self.f_scalar(x)

    def f_scalar(self, x: float) -> float:
        raise NotImplementedError

    def f_batch(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def df_scalar(self, x: float) -> float:
        raise NotImplementedError

    def df_batch(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- critical set -------------------------------------------------
    def crit_dist_scalar(self, x) -> float:
        """Distance from ``x`` to the critical set (inf when empty)."""
        return math.inf

    def crit_dist_batch(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.shape(x)[0] if np.ndim(x) else (), np.inf)

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
        cuts = []
        for i in range(self.n_branches - 1):
            cuts.append(self.branch_bounds(i)[1])
        return np.asarray(cuts)

    # -- sampling -----------------------------------------------------
    def sample_uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.domain.lo, self.domain.hi, size=n)

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
    circle = True
    piecewise_affine = True

    def __init__(self, d: int = 2):
        super().__init__()
        d = int(d)
        if d < 2:
            raise ArgumentError("circle_linear needs integer d >= 2")
        self.d = d
        self.params = {"d": d}
        self.domain = Interval(0.0, 1.0)

    def f_scalar(self, x):
        return wrap_unit(self.d * x)

    def f_batch(self, x):
        return wrap_unit_batch(self.d * np.asarray(x, dtype=float))

    def df_scalar(self, x):
        return float(self.d)

    def df_batch(self, x):
        return np.full(np.shape(x), self.d, dtype=float)

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


class PerturbedDoublingMap(MapSystem):
    """``x -> 2x + t sin(2 pi x) / (2 pi) (mod 1)``, smooth in ``t``.

    For ``t < 2`` the lift is strictly increasing, so the map keeps the
    two full branches of the doubling map; ``t = 0`` recovers doubling
    exactly.  Used as a smooth one-parameter family for statistical
    stability experiments.
    """

    family = "circle_perturbed"
    circle = True

    def __init__(self, t: float = 0.0):
        super().__init__()
        t = float(t)
        if not 0.0 <= t < 2.0:
            raise ArgumentError("circle_perturbed needs 0 <= t < 2")
        self.t = t
        self.params = {"t": t}
        self.domain = Interval(0.0, 1.0)
        self.piecewise_affine = t == 0.0

    def _lift(self, x):
        return 2.0 * x + self.t * np.sin(2.0 * np.pi * x) / (2.0 * np.pi)

    def f_scalar(self, x):
        return wrap_unit(2.0 * x + self.t * math.sin(2.0 * math.pi * x) / (2.0 * math.pi))

    def f_batch(self, x):
        return wrap_unit_batch(self._lift(np.asarray(x, dtype=float)))

    def df_scalar(self, x):
        return 2.0 + self.t * math.cos(2.0 * math.pi * x)

    def df_batch(self, x):
        return 2.0 + self.t * np.cos(2.0 * np.pi * np.asarray(x, dtype=float))

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
        return self.df_batch(x)

    def branch_inverse(self, i, y):
        # Newton on the increasing lift (derivative >= 2 - t > 0), started
        # from the doubling inverse, which is exact at t = 0.  A step that
        # leaves the bracket kept around the root falls back to bisection;
        # each element stops after its own step below 1e-12 (so no other
        # element of the call moves its root), and one last Newton step
        # polishes the roots to rounding level (quadratic convergence).
        target = np.asarray(y, dtype=float) + i
        lo = np.full(target.shape, 0.5 * i)
        hi = np.full(target.shape, 0.5 * (i + 1))
        x = 0.5 * target
        live = np.ones(target.shape, dtype=bool)
        for _ in range(100):
            r = self._lift(x) - target
            lo = np.where(r < 0, x, lo)
            hi = np.where(r > 0, x, hi)
            nxt = x - r / self.df_batch(x)
            nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            x, live = np.where(live, nxt, x), live & (np.abs(nxt - x) > 1e-12)
            if not live.any():
                break
        return x - (self._lift(x) - target) / self.df_batch(x)


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

    def f_scalar(self, x):
        return self.slope * (x if x <= 0.5 else 1.0 - x)

    def f_batch(self, x):
        x = np.asarray(x, dtype=float)
        return self.slope * np.minimum(x, 1.0 - x)

    def df_scalar(self, x):
        return self.slope if x < 0.5 else -self.slope

    def df_batch(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.5, self.slope, -self.slope)

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

    def f_scalar(self, x):
        return self.a - x * x

    def f_batch(self, x):
        x = np.asarray(x, dtype=float)
        return self.a - x * x

    def df_scalar(self, x):
        return -2.0 * x

    def df_batch(self, x):
        return -2.0 * np.asarray(x, dtype=float)

    def crit_dist_scalar(self, x):
        return abs(x)

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

    The critical set is the circle {x = 0}; the derivative matrix is lower
    triangular with constant entry ``d`` in the base, so the base Lyapunov
    exponent is ``log d`` exactly.
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
        if alpha < 0:
            raise ArgumentError("viana needs alpha >= 0")
        if a0 is None:
            a0 = misiurewicz_parameter()
        a0 = float(a0)
        self.d = d
        self.alpha = alpha
        self.a0 = a0
        self.domain = Interval(float(lo), float(hi))
        self.params = {"alpha": alpha, "d": d, "a0": a0, "lo": float(lo), "hi": float(hi)}
        self._check_invariance()

    def _check_invariance(self):
        thetas = np.linspace(0.0, 1.0, 257)
        for x in (self.domain.lo, self.domain.hi, 0.0):
            img = self.a0 + self.alpha * np.sin(2 * np.pi * thetas) - x * x
            if img.min() <= self.domain.lo or img.max() >= self.domain.hi:
                raise ArgumentError(
                    "fibre interval is not mapped into its own interior; "
                    f"image range [{img.min():.4f}, {img.max():.4f}] vs "
                    f"({self.domain.lo}, {self.domain.hi})"
                )

    # state is a pair (theta, x); batches are arrays of shape (n, 2)
    def f_scalar(self, p):
        theta, x = p
        return (wrap_unit(self.d * theta),
                self.a0 + self.alpha * math.sin(2 * math.pi * theta) - x * x)

    def f_batch(self, p):
        p = np.asarray(p, dtype=float)
        out = np.empty_like(p)
        out[:, 0] = wrap_unit_batch(self.d * p[:, 0])
        out[:, 1] = self.a0 + self.alpha * np.sin(2 * np.pi * p[:, 0]) - p[:, 1] ** 2
        return out

    def jac_entries_batch(self, p):
        """Entries (base, coupling, fibre) of the lower-triangular Jacobian."""
        p = np.asarray(p, dtype=float)
        a = np.full(p.shape[0], float(self.d))
        c = self.alpha * 2 * np.pi * np.cos(2 * np.pi * p[:, 0])
        e = -2.0 * p[:, 1]
        return a, c, e

    def jac_scalar(self, p):
        theta, x = p
        return np.array([
            [float(self.d), 0.0],
            [self.alpha * 2 * math.pi * math.cos(2 * math.pi * theta), -2.0 * x],
        ])

    def det_batch(self, p):
        a, _, e = self.jac_entries_batch(p)
        return a * e

    def crit_dist_scalar(self, p):
        return abs(p[1])

    def crit_dist_batch(self, p):
        p = np.asarray(p, dtype=float)
        return np.abs(p[:, 1])

    @property
    def has_critical_set(self):
        return True

    def sample_uniform(self, rng, n):
        out = np.empty((n, 2))
        out[:, 0] = rng.uniform(0.0, 1.0, size=n)
        out[:, 1] = rng.uniform(self.domain.lo, self.domain.hi, size=n)
        return out

    def check_point(self, p):
        if not self.domain.contains(float(p[1])):
            raise DomainViolationError(
                f"fibre coordinate {p[1]} outside [{self.domain.lo}, {self.domain.hi}]"
            )


@lru_cache(maxsize=None)
def misiurewicz_parameter(tol: float = 1e-12, max_landing: int = 64) -> float:
    """Parameter in (1, 2) whose critical orbit lands on the reversing fixed point.

    For ``p(x) = a - x^2`` the positive fixed point
    ``beta = (-1 + sqrt(1 + 4a)) / 2`` has derivative ``-2 beta < 0``.  The
    third image of the critical point, ``a - (a - a^2)^2``, crosses
    ``beta`` once on (1, 2); bisection on the difference pins the crossing
    down to machine precision.  The landing is then confirmed: some
    iterate within ``max_landing`` steps sits within ``tol`` of ``beta``.

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
    for _ in range(max_landing):
        x = a - x * x
        if abs(x - beta) <= tol:
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
    """
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ArgumentError(f"unknown map family {family!r}") from None
    return cls(**params)


def log_jacobian(m: MapSystem, x) -> float:
    """``log |det Df(x)|`` with a guard near the critical set.

    Raises
    ------
    NearCriticalError
        If ``dist(x, critical set) < NEAR_CRITICAL_FLOOR``.
    DomainViolationError
        If ``x`` lies outside the domain of ``m``.
    """
    if m.dimension == 1:
        m.check_point(x)
        d = m.crit_dist_scalar(x)
        if d < NEAR_CRITICAL_FLOOR:
            raise NearCriticalError(d)
        return math.log(abs(m.df_scalar(x)))
    m.check_point(x)
    d = m.crit_dist_scalar(x)
    if d < NEAR_CRITICAL_FLOOR:
        raise NearCriticalError(d)
    jac = m.jac_scalar(x)
    return math.log(abs(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]))


def truncated_distance(m: MapSystem, x, delta: float) -> float:
    """Distance to the critical set, truncated to 1 outside a
    ``delta``-neighbourhood.

    Returns ``dist(x, C)`` when that distance is below ``delta`` and 1.0
    otherwise; maps with empty critical set always return 1.0.
    """
    if delta <= 0:
        raise ArgumentError("truncation radius must be positive")
    m.check_point(x)
    d = m.crit_dist_scalar(x)
    return d if d < delta else 1.0


def _op_norms_2x2_lower(a, c, e):
    """Largest/smallest singular values of [[a, 0], [c, e]] (vectorised)."""
    tr = a * a + c * c + e * e
    det2 = (a * e) ** 2
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det2, 0.0))
    smax = np.sqrt(0.5 * (tr + disc))
    smin2 = np.where(tr + disc > 0, 2.0 * det2 / (tr + disc), 0.0)
    return smax, np.sqrt(smin2)


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
    if B <= 0 or beta <= 0:
        raise ArgumentError("probe constants B, beta must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ArgumentError("nondegeneracy probe needs a nonempty sample")

    if not m.has_critical_set:
        # constant-distance convention: the conditions are vacuous
        return NondegeneracyReport(B, beta, 0.0, (), 0.0, (), 0.0, ())

    if m.dimension == 1:
        dist = m.crit_dist_batch(pts)
        keep = dist >= NEAR_CRITICAL_FLOOR
        pts, dist = pts[keep], dist[keep]
        if pts.size == 0:
            raise ArgumentError("all probe points sit on the critical set")
        norm = np.abs(m.df_batch(pts))
        dfinv = 1.0 / norm
        detinv = dfinv
        # pair partner: step 0.4 dist towards the domain centre
        centre = 0.5 * (m.domain.lo + m.domain.hi)
        step = 0.4 * np.minimum(dist, m.domain.width)
        ys = pts + np.where(pts <= centre, step, -step)
        ndist = dist
        ynorm = np.abs(m.df_batch(ys))
        ydfinv = 1.0 / ynorm
        ydetinv = ydfinv
        sep = np.abs(pts - ys)
    else:
        dist = m.crit_dist_batch(pts)
        keep = dist >= NEAR_CRITICAL_FLOOR
        pts, dist = pts[keep], dist[keep]
        if pts.shape[0] == 0:
            raise ArgumentError("all probe points sit on the critical set")
        a, c, e = m.jac_entries_batch(pts)
        smax, smin = _op_norms_2x2_lower(a, c, e)
        norm = smax
        dfinv = 1.0 / smin
        detinv = 1.0 / np.abs(a * e)
        # perturb the fibre coordinate away from {x = 0}
        step = 0.4 * np.minimum(dist, m.domain.width)
        ys = pts.copy()
        ys[:, 1] += np.where(pts[:, 1] >= 0, step, -step)
        ndist = dist
        ya, yc, ye = m.jac_entries_batch(ys)
        ysmax, ysmin = _op_norms_2x2_lower(ya, yc, ye)
        ydfinv = 1.0 / ysmin
        ydetinv = 1.0 / np.abs(ya * ye)
        sep = step

    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = B * dist ** beta / norm
        denom = B * dist ** (-beta) * sep
        r2 = np.abs(np.log(dfinv) - np.log(ydfinv)) / denom
        r3 = np.abs(np.log(detinv) - np.log(ydetinv)) / denom
    r1 = np.nan_to_num(r1, nan=np.inf)
    r2 = np.nan_to_num(r2, nan=np.inf)
    r3 = np.nan_to_num(r3, nan=np.inf)

    i1, i2, i3 = int(np.argmax(r1)), int(np.argmax(r2)), int(np.argmax(r3))

    def _wit(i, pair):
        p = pts[i]
        p = tuple(np.atleast_1d(p).tolist())
        if not pair:
            return p
        q = ys[i]
        return (p, tuple(np.atleast_1d(q).tolist()))

    return NondegeneracyReport(
        B, beta,
        float(r1[i1]), _wit(i1, False),
        float(r2[i2]), _wit(i2, True),
        float(r3[i3]), _wit(i3, True),
    )
