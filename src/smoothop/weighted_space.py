"""Weighted L_p spaces on [-1, 1] with weight (1 - x^2)^alpha.

The norm is ||f|| = || f(x) (1 - x^2)^alpha ||_p.  The admissible parameter
region (together with the smoothness exponent lambda) is:

    p = 1:        1/2 < alpha <= 1
    1 < p < inf:  1 - 1/(2p) <= alpha < 3/2 - 1/(2p)
    p = inf:      1 <= alpha < 3/2
    lambda:       0 < lambda < 2

The left boundary for 1 < p < inf is accepted (alpha = 1 - 1/(2p) is valid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .orthopoly import gauss_legendre
from .translation import EDGE_EPS

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

    @lru_cache(maxsize=32)
    def _grid(self, resolution: int | None) -> _NormGrid:
        """The grid of this space's norm: a Gauss-Legendre rule for p < inf
        (default 256 nodes), the points of :func:`sup_grid` for p = inf
        (default 4097), built once per resolution."""
        if resolution is None:  # the default is the same grid, not a second one
            return self._grid(4097 if self.is_sup else 256)
        if self.is_sup:
            return _NormGrid(self, sup_grid(resolution), None)
        if resolution < 16:
            raise ValueError(f"resolution must be at least 16, got {resolution}")
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
        lo = 1 - 1 / (2 * p)
        hi = 1.5 - 1 / (2 * p)
        if not (a >= lo):
            return ParamVerdict(False, "α ≥ 1 − 1/(2p)")
        if not (a < hi):
            return ParamVerdict(False, "α < 3/2 − 1/(2p)")
    if lam is not None:
        if not (lam > 0):
            return ParamVerdict(False, "λ > 0")
        if not (lam < 2):
            return ParamVerdict(False, "λ < 2")
    return ParamVerdict(True, None)


@dataclass
class SampledFunction:
    """A real function on [-1, 1], vectorized over its argument.

    `degree` marks exact polynomials (it tightens quadrature defaults in the
    translation module); leave it None for black-box functions.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = "f"
    degree: int | None = None

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        vals = np.asarray(self.evaluator(xs), dtype=float)
        vals = np.broadcast_to(vals, xs.shape).copy() if vals.shape != xs.shape else vals
        if np.ndim(x) == 0:
            return float(vals)
        return vals


def as_sampled(f, name: str = "f", degree: int | None = None) -> SampledFunction:
    """Wrap a plain callable; SampledFunction inputs pass through unchanged."""
    if isinstance(f, SampledFunction):
        return f
    return SampledFunction(f, name=name, degree=degree)


@lru_cache(maxsize=8)
def sup_grid(resolution: int = 4097) -> np.ndarray:
    """Chebyshev-extrema-distributed grid, scaled into |x| <= 1 - EDGE_EPS.

    The grid clusters near the endpoints, where the weight competes with
    growth of translated functions, and resolutions of the form 2^k + 1 nest,
    so refining can only increase a grid max.  The scaling keeps every point
    outside the translation operator's singular edge band.
    """
    if resolution < 16:
        raise ValueError(f"resolution must be at least 16, got {resolution}")
    i = np.arange(resolution)
    grid = (1.0 - EDGE_EPS) * np.cos(np.pi * i / (resolution - 1))
    grid = grid[::-1].copy()
    grid.flags.writeable = False  # shared through the cache
    return grid


class _NormGrid:
    """The points the norm of a space samples a function on, with its one
    discrete norm.

    `x` holds the nodes, `qw` the quadrature weights (None at p = inf, where
    the norm is a max) and `wgt` the weight (1 - x^2)^alpha; all three are
    read-only, as grids are shared through the cache of WeightedSpace._grid.
    """

    def __init__(self, space: WeightedSpace, x: np.ndarray, qw: np.ndarray | None):
        self.p, self.x, self.qw = space.p, x, qw
        self.wgt = (1.0 - x * x) ** space.alpha
        self.wgt.flags.writeable = False

    def norm(self, e: np.ndarray):
        """The norm of each row of weighted samples e = wgt * (f at x).

        Raises ValueError naming the first x with a non-finite sample.
        """
        a = np.abs(e)
        if self.qw is None:
            out = a.max(axis=-1)
        else:
            a **= self.p
            out = (a @ self.qw) ** (1.0 / self.p)
        # a non-finite sample makes its row's norm non-finite, so only then is e searched
        if not np.isfinite(out).all() and not np.isfinite(e).all():
            i = int(np.argmin(np.isfinite(e)))  # the first non-finite sample
            raise ValueError(f"non-finite sample value {e.flat[i]} at x = {self.x[i % self.x.size]}")
        return out


def weighted_norm(f, space: WeightedSpace, resolution: int | None = None) -> float:
    """The norm || f(x) (1 - x^2)^alpha ||_p.

    For p < inf the integral uses a Gauss-Legendre rule (default 256 nodes)
    with the weight folded into the integrand; for p = inf the essential sup
    is approximated by the max over :func:`sup_grid` (default 4097 points).
    """
    grid = space._grid(resolution)
    return float(grid.norm(grid.wgt * as_sampled(f)(grid.x)))
