"""Weighted L_p spaces on [-1, 1] with weight (1 - x^2)^alpha.

The norm is ||f|| = || f(x) (1 - x^2)^alpha ||_p.  The admissible parameter
region (together with the smoothness exponent lambda) is:

    p = 1:        1/2 < alpha <= 1
    1 < p < inf:  1 - 1/(2p) <= alpha < 3/2 - 1/(2p)
    p = inf:      1 <= alpha < 3/2
    lambda:       0 < lambda < 2

The left boundary for 1 < p < inf is accepted (alpha = 1 - 1/(2p) is valid).

The discrete norm raises |e| to the p-th power by products and at most one
square root when 2p is an integer (p = 3/2, 3, ...), not by `pow`, and sums
a row again from |e| / max |e| when its sum of p-th powers leaves
[1e-100, 1e100], so the norm of a finite f is finite at any scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .orthopoly import _check_int, _require_finite, _symmetric, gauss_legendre
from .translation import EDGE_EPS, SampledFunction, as_sampled

__all__ = [
    "WeightedSpace",
    "ParamVerdict",
    "validate_params",
    "SampledFunction",
    "as_sampled",
    "sup_grid",
    "weighted_norm",
]


@dataclass(frozen=True)
class WeightedSpace:
    """Integrability exponent p in [1, inf] and weight exponent alpha."""

    p: float
    alpha: float

    def __post_init__(self) -> None:
        if not (self.p >= 1):
            raise ValueError(f"integrability exponent must satisfy p >= 1, got {self.p}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"weight exponent must be finite, got {self.alpha}")

    @property
    def is_sup(self) -> bool:
        return math.isinf(self.p)

    def require_admissible(self, lam: float | None = None) -> None:
        """Raise ValueError with the violated clause when :func:`validate_params`
        rejects (p, alpha), or lambda if given."""
        verdict = validate_params(self, lam)
        if not verdict:
            raise ValueError(f"parameters outside the admissible region: {verdict.clause}")

    @lru_cache(maxsize=32, typed=True)  # typed: a float is refused, not served from the cache
    def _grid(self, resolution: int | None) -> _NormGrid:
        """The grid of this space's norm: a Gauss-Legendre rule for p < inf
        (default 256 nodes), the points of :func:`sup_grid` for p = inf
        (default 4097), built once per resolution."""
        if resolution is None:  # the default is the same grid, not a second one
            return self._grid(4097 if self.is_sup else 256)
        if self.is_sup:
            return _NormGrid(self, sup_grid(resolution), None)
        _check_int(resolution, "resolution", 16)
        rule = gauss_legendre(resolution)
        return _NormGrid(self, rule.nodes, rule.weights)


@dataclass(frozen=True)
class ParamVerdict:
    """Outcome of parameter validation: valid, or the violated clause."""

    valid: bool
    clause: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def validate_params(space: WeightedSpace, lam: float | None = None) -> ParamVerdict:
    """Check (p, alpha) and optionally lambda against the admissible region.

    Invalid parameters are a verdict, not an error; the verdict carries the
    first violated clause as a string.
    """
    p, a = space.p, space.alpha
    if math.isinf(p):
        if not (a >= 1):
            return ParamVerdict(False, "α ≥ 1")
        if not (a < 1.5):
            return ParamVerdict(False, "α < 3/2")
    elif p == 1:
        if not (a > 0.5):
            return ParamVerdict(False, "α > 1/2")
        if not (a <= 1):
            return ParamVerdict(False, "α ≤ 1")
    else:
        if not (a >= 1 - 1 / (2 * p)):
            return ParamVerdict(False, "α ≥ 1 − 1/(2p)")
        # exactly, as 2 alpha p < 3p - 1: 1.5 - 1 / (2p) rounds to 1.0 just above p = 1
        (an, ad), (pn, pd) = float(a).as_integer_ratio(), float(p).as_integer_ratio()
        if not 2 * an * pn < (3 * pn - pd) * ad:
            return ParamVerdict(False, "α < 3/2 − 1/(2p)")
    if lam is not None:
        if not (lam > 0):
            return ParamVerdict(False, "λ > 0")
        if not (lam < 2):
            return ParamVerdict(False, "λ < 2")
    return ParamVerdict(True, None)


@lru_cache(maxsize=8, typed=True)  # typed: a float is refused, not served from the cache
def sup_grid(resolution: int = 4097) -> np.ndarray:
    """Chebyshev-extrema-distributed grid, scaled into |x| <= 1 - EDGE_EPS.

    The grid clusters near the endpoints, where the weight competes with
    growth of translated functions, and resolutions of the form 2^k + 1 nest,
    so refining can only increase a grid max.  The scaling keeps every point
    outside the translation operator's singular edge band.  Point i < X / 2
    of X is -(1 - EDGE_EPS) cos(pi i / (X - 1)), and the rest mirror them:
    the grid is symmetric bit for bit, with 0.0 in the middle of an odd X.
    """
    _check_int(resolution, "resolution", 16)
    i = np.arange(resolution // 2)
    return _symmetric(-(1.0 - EDGE_EPS) * np.cos(np.pi * i / (resolution - 1)), resolution)


_SUM_RANGE = (1e-100, 1e100)  # sums of q |e|^p that _NormGrid.norm takes as they are


def _power(a: np.ndarray, p: float) -> np.ndarray:
    """a ** p for a >= 0, computed in a and returned.

    When 2p is an integer and 0 < |p| <= 4.5, the power is made from
    products and at most one square root, of the reciprocal of a when p < 0,
    with at most one temporary the size of a: within a few ulp of `pow`, and
    cheaper.  p = 1 leaves a as it is and p = 2 squares it, as `a **= p`
    does.  Any other p is `a **= p`.
    """
    k = 2.0 * p
    if not 0 < abs(k) <= 9 or k != round(k):  # first, as round(inf) raises
        a **= p
        return a
    if p < 0:
        np.reciprocal(a, out=a)
    m, half = divmod(int(abs(k)), 2)
    if m == 0:
        return np.sqrt(a, out=a)
    t = np.sqrt(a) if half else None
    if m == 3:  # one factor a set aside, so that squaring gives a^2 a
        t = a.copy() if t is None else np.multiply(t, a, out=t)
    for _ in range(m.bit_length() - 1):  # a^m for m = 1, 2, 4; a^2 for m = 3
        a *= a
    if t is not None:
        a *= t
    return a


class _NormGrid:
    """The points the norm of a space samples a function on, with its one
    discrete norm.

    `x` holds the nodes, `qw` the quadrature weights (None at p = inf, where
    the norm is a max) and `wgt` the weight (1 - x^2)^alpha; all three are
    read-only, as grids are shared through the cache of WeightedSpace._grid.
    """

    def __init__(self, space: WeightedSpace, x: np.ndarray, qw: np.ndarray | None,
                 wgt: np.ndarray | None = None):
        self.space, self.p, self.x, self.qw = space, space.p, x, qw
        self.wgt = (1.0 - x * x) ** space.alpha if wgt is None else wgt
        self.wgt.flags.writeable = False

    @cached_property
    def half(self) -> _NormGrid:
        """The nodes x >= 0 of this Gauss-Legendre grid, which is symmetric
        about 0 bit for bit, each weight doubled except that of the node
        x = 0 of an odd-sized rule.  A sum of an even function over the half
        equals the sum over the whole grid, up to the order of addition.
        Nodes and `wgt` are views of the full grid's."""
        m = self.x.size // 2
        qw = 2.0 * self.qw[m:]
        if self.x.size % 2:
            qw[0] = self.qw[m]
        qw.flags.writeable = False
        return _NormGrid(self.space, self.x[m:], qw, self.wgt[m:])

    def norm(self, e: np.ndarray):
        """The norm of each row of weighted samples e = wgt * (f at x).

        For p < inf a row whose sum s of q |e|^p leaves [1e-100, 1e100] is
        summed once more from |e| / max |e|: s may have overflowed or lost
        its small terms, and s ** (1/p) errs by about |ln s| ulp, as 1/p is
        rounded.  The norm of any finite row is thus finite and exact to
        roundoff.  Raises ValueError naming the first x with a non-finite
        sample.
        """
        a = np.abs(e)
        if self.qw is None:
            out = a.max(axis=-1)
        else:
            with np.errstate(over="ignore"):
                s = _power(a, self.p) @ self.qw
            out = s ** (1.0 / self.p)
            lo, hi = _SUM_RANGE
            # sums in range are finite; a scalar compares far cheaper than by min and max
            if s.ndim == 0:
                inside = lo <= s <= hi
            else:
                inside = not s.size or (lo <= s.min() and s.max() <= hi)
            if inside:
                return out
            rows = np.abs(e).reshape(-1, e.shape[-1])
            top = rows.max(axis=-1)
            # a zero row keeps 0, a non-finite one its non-finite sum
            far = ~((s >= lo) & (s <= hi)).reshape(-1) & np.isfinite(top) & (top > 0)
            out = np.array(out, ndmin=1)
            a = rows[far] / top[far, None]
            out[far] = top[far] * (_power(a, self.p) @ self.qw) ** (1.0 / self.p)
            out = out.reshape(e.shape[:-1])
        # a non-finite sample makes its row's norm non-finite, so only then is e searched
        if not np.isfinite(out).all():
            _require_finite(e, self.x)
        return out


def weighted_norm(f, space: WeightedSpace, resolution: int | None = None) -> float:
    """The norm || f(x) (1 - x^2)^alpha ||_p.

    For p < inf the integral uses a Gauss-Legendre rule (default 256 nodes)
    with the weight folded into the integrand; for p = inf the essential sup
    is approximated by the max over :func:`sup_grid` (default 4097 points).
    """
    grid = space._grid(resolution)
    return float(grid.norm(grid.wgt * as_sampled(f)(grid.x)))
