"""The generalized modulus of smoothness induced by the translation operator.

    omega(f, delta) = sup over |t| <= delta of || T_{cos t} f - f ||

The sup over the continuum is approximated by a uniform grid of t values on
[-delta, delta].  The operator is asymmetric in x and y, not in t: it sees t
only through cos t and |sin t|, so T_{cos t} f = T_{cos(-t)} f and only the
t <= 0 half of the grid is evaluated.  delta is an angle in radians and the
trigonometric form of the operator is used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .translation import translate_trig
from .weighted_space import WeightedSpace, as_sampled

__all__ = ["ModulusReport", "modulus_omega", "modulus_curve"]


@dataclass
class ModulusReport:
    """omega(f, delta) together with the grid parameters that produced it."""

    delta: float
    value: float
    argmax_t: float
    t_grid_size: int
    norm_resolution: int
    flags: tuple[str, ...] = ()


def _check_args(space: WeightedSpace, delta: float, t_grid: int) -> None:
    space.require_admissible()
    if not 0 <= delta < math.inf:  # NaN fails the comparison too
        raise ValueError(f"delta must be finite and >= 0, got delta = {delta}")
    if t_grid < 3 or t_grid % 2 == 0:
        raise ValueError(f"t_grid must be odd and >= 3, got {t_grid}")


def modulus_omega(
    f,
    delta: float,
    space: WeightedSpace,
    t_grid: int = 33,
    M: int | None = None,
    norm_resolution: int | None = None,
) -> ModulusReport:
    """Grid maximum of || T_{cos t} f - f || over t in [-delta, delta].

    The grid is np.linspace(-delta, delta, t_grid); since the translate at t
    equals the one at -t, only its first t_grid // 2 + 1 points (t <= 0) are
    evaluated.  f is sampled once on the norm's grid.  Ties go to the first
    (most negative) t, so `argmax_t` <= 0.

    Parameters
    ----------
    f : SampledFunction or callable
    delta : float
        Radius of the t-range, in radians, >= 0.
    space : WeightedSpace
        Must lie in the admissible parameter region.
    t_grid : int
        Number of uniform t samples (odd, >= 3, endpoints included).
    M : int, optional
        Quadrature size handed to the translation operator.
    norm_resolution : int, optional
        Grid size of the norm (defaults of :func:`~smoothop.weighted_norm`).
    """
    fn = as_sampled(f)
    _check_args(space, delta, t_grid)
    grid = space._grid(norm_resolution)
    res = grid.x.size
    if delta == 0:
        return ModulusReport(0.0, 0.0, 0.0, t_grid, res)
    fx = fn(grid.x)
    best = -1.0
    best_t = 0.0
    for t in np.linspace(-delta, delta, t_grid)[: t_grid // 2 + 1]:
        val = float(grid.norm(grid.wgt * (translate_trig(fn, float(t), grid.x, M=M) - fx)))
        if val > best:
            best, best_t = val, float(t)
    return ModulusReport(float(delta), best, best_t, t_grid, res)


def modulus_curve(
    f,
    deltas,
    space: WeightedSpace,
    t_grid: int = 33,
    M: int | None = None,
    norm_resolution: int | None = None,
) -> list[ModulusReport]:
    """omega(f, delta) along an ascending list of positive deltas.

    The sup over a nested family is non-decreasing; a decrease beyond 1e-12
    is a grid-resolution failure and flags the offending report.
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("need at least one delta")
    if min(deltas) <= 0:
        raise ValueError(f"deltas must be positive, got {min(deltas)}")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly ascending")
    fn = as_sampled(f)
    reports = []
    for d in deltas:
        rep = modulus_omega(fn, d, space, t_grid=t_grid, M=M, norm_resolution=norm_resolution)
        if reports and rep.value < reports[-1].value - 1e-12:
            rep.flags = rep.flags + ("monotonicity_violation",)
        reports.append(rep)
    return reports
