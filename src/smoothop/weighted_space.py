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


def _norm_nodes(space: WeightedSpace, resolution: int | None = None):
    """The points the norm of `space` samples a function on, and their weights.

    For p < inf these are a Gauss-Legendre rule (default 256 nodes); for
    p = inf the points of :func:`sup_grid` (default 4097) and weights None.
    """
    if space.is_sup:
        return sup_grid(4097 if resolution is None else resolution), None
    res = 256 if resolution is None else resolution
    if res < 16:
        raise ValueError(f"resolution must be at least 16, got {res}")
    rule = gauss_legendre(res)
    return rule.nodes, rule.weights


def _sampled_norm(vals: np.ndarray, space: WeightedSpace, xs: np.ndarray, weights) -> float:
    """The norm of `space` from samples `vals` at the points of :func:`_norm_nodes`.

    Raises ValueError naming the first x with a non-finite sample.
    """
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(f"non-finite sample value {vals[bad]} at x = {xs[bad]}")
    core = np.abs(vals) * (1.0 - xs * xs) ** space.alpha
    if weights is None:
        return float(np.max(core))
    return float(np.sum(weights * core**space.p) ** (1.0 / space.p))


def weighted_norm(f, space: WeightedSpace, resolution: int | None = None) -> float:
    """The norm || f(x) (1 - x^2)^alpha ||_p.

    For p < inf the integral uses a Gauss-Legendre rule (default 256 nodes)
    with the weight folded into the integrand; for p = inf the essential sup
    is approximated by the max over :func:`sup_grid` (default 4097 points).
    """
    xs, weights = _norm_nodes(space, resolution)
    return _sampled_norm(as_sampled(f)(xs), space, xs, weights)
