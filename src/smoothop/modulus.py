"""The generalized modulus of smoothness induced by the translation operator.

    omega(f, delta) = sup over |t| <= delta of || T_{cos t} f - f ||

The sup over the continuum is approximated by a uniform grid of t values on
[-delta, delta]; the operator is asymmetric, so negative t must be scanned
even though the grid is symmetric.  delta is an angle in radians and the
trigonometric form of the operator is used throughout.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .translation import translate_trig
from .weighted_space import (
    SampledFunction,
    WeightedSpace,
    as_sampled,
    validate_params,
    weighted_norm,
)

__all__ = ["ModulusReport", "modulus_omega", "modulus_curve", "curve_to_csv"]


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
    verdict = validate_params(space)
    if not verdict:
        raise ValueError(f"space parameters outside the admissible region: {verdict.clause}")
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
        Grid size of the norm (defaults of :func:`weighted_norm`).
    """
    fn = as_sampled(f)
    _check_args(space, delta, t_grid)
    res = norm_resolution if norm_resolution is not None else (4097 if space.is_sup else 256)
    if delta == 0:
        return ModulusReport(0.0, 0.0, 0.0, t_grid, res)
    best = -1.0
    best_t = 0.0
    for t in np.linspace(-delta, delta, t_grid):
        def diff(xs, _t=float(t)):
            return translate_trig(fn, _t, xs, M=M) - fn(xs)

        val = weighted_norm(SampledFunction(diff), space, res)
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


def curve_to_csv(reports: list[ModulusReport], buf) -> None:
    """Write a curve as CSV with columns δ, ω, argmax_t."""
    buf.write("δ,ω,argmax_t\n")
    for r in reports:
        buf.write(f"{r.delta:.16e},{r.value:.16e},{r.argmax_t:.16e}\n")


def curve_csv(reports: list[ModulusReport]) -> str:
    out = io.StringIO()
    curve_to_csv(reports, out)
    return out.getvalue()
