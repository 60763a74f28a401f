"""The generalized modulus of smoothness induced by the translation operator.

    omega(f, delta) = sup over |t| <= delta of || T_{cos t} f - f ||

The sup over the continuum is approximated by a uniform grid of t values on
[-delta, delta].  The operator is asymmetric in x and y, not in t: it sees t
only through cos t and |sin t|, so T_{cos t} f = T_{cos(-t)} f and only the
t <= 0 half of the grid is evaluated.  delta is an angle in radians and the
trigonometric form of the operator is used throughout.

T_y maps a polynomial of degree d to one of degree d in x, so an f that
declares a degree is translated at d + 1 Chebyshev nodes only and each
translate interpolated onto the norm grid, still by the operator's own
quadrature (the closed-form multiplier is not used).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .orthopoly import _check_int, gauss_chebyshev
from .translation import EDGE_EPS, _degree, _exact_quad_size, translate_trig
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


def _check_omega_args(fn, space: WeightedSpace, deltas, t_grid: int, M, norm_resolution,
                      lam: float | None = None):
    """Check every parameter of the omega computations of fn at `deltas`,
    and lambda if given; returns the norm grid.  Cheap, so a driver that
    first solves for best approximations checks here before it solves.  A
    grid in the translation's edge band is refused unless fn is only
    interpolated onto it (:func:`_interpolation_nodes`); a mislabelled
    degree then takes the grid, and the translation names the x refused.
    """
    space.require_admissible(lam)
    for delta in deltas:
        if not 0 <= delta < math.inf:  # NaN fails the comparison too
            raise ValueError(f"delta must be finite and >= 0, got delta = {delta}")
    if _check_int(t_grid, "t_grid", 3) % 2 == 0:
        raise ValueError(f"t_grid must be odd, got t_grid = {t_grid}")
    if M is not None:
        _check_int(M, "M", 1)
    if norm_resolution is not None:
        _check_int(norm_resolution, "norm_resolution", 16)
    grid = space._grid(norm_resolution)
    edge = float(np.abs(grid.x).max())
    clear = edge <= 1 - EDGE_EPS or _interpolation_nodes(fn, grid.x.size, M) is not None
    if any(deltas) and not clear:
        raise ValueError(
            f"norm_resolution = {grid.x.size} puts a norm grid point at |x| = {edge}, inside "
            f"the translation's singular edge band (need |x| <= 1 - {EDGE_EPS}); "
            f"use a coarser norm_resolution"
        )
    return grid


# f's samples on the norm grid must lie within this share of max |f| of its
# interpolant at the Chebyshev nodes for omega to translate at the nodes only
_INTERP_TOL = 1e-10


def _interpolation_nodes(fn, size: int, M):
    """The nodes of gauss_chebyshev(d + 1) (symmetric bit for bit) to translate
    an fn of declared degree d at on a norm grid of `size` points, or None."""
    d = _degree(fn)
    if d is None or (M is not None and M < _exact_quad_size(d)) or d + 1 >= size:
        return None
    nodes = gauss_chebyshev(d + 1).nodes
    return nodes if nodes[-1] <= 1 - EDGE_EPS else None


def _translation_points(fn, fx, x, M):
    """The points to translate fn at for a norm grid x on which fn samples
    to fx, and the matrix that maps a translate there onto x, or None when
    fn is translated at x itself.

    The points are the nodes :func:`_interpolation_nodes` picks, if any,
    and the matrix that of the degree-d interpolant at them in barycentric
    form, forward stable (Higham, IMA J. Numer. Anal. 24 (2004) 547-556):
    row i is w_j / (x_i - node_j) normalized to sum 1, w_j = (-1)^j
    sin((2j + 1) pi / (2(d + 1))), or the unit row of a node that x_i
    equals.  They are used only if fx matches the interpolant of fn's own
    samples at the nodes to _INTERP_TOL max |fx|: a mislabelled f takes
    the full grid.
    """
    nodes = _interpolation_nodes(fn, x.size, M)
    if nodes is None:
        return x, None
    j = np.arange(nodes.size)
    w = np.where(j % 2, -1.0, 1.0) * np.sin((2 * j + 1) * np.pi / (2 * nodes.size))
    gap = x[:, None] - nodes
    hit = gap == 0.0
    gap[hit] = 1.0
    interp = w / gap
    on_node = hit.any(axis=1)
    interp[on_node] = hit[on_node]
    interp /= interp.sum(axis=1, keepdims=True)
    if not np.abs(interp @ fn(nodes) - fx).max() <= _INTERP_TOL * np.abs(fx).max():
        return x, None
    return nodes, interp


def _omegas(fn, deltas, grid, t_grid, M) -> tuple[list[ModulusReport], float]:
    """omega(fn, delta) for each delta, translating each distinct t once, and
    ||fn|| on the norm grid (0.0 when every delta is 0: fn is then not sampled).
    `grid` is the norm grid :func:`_check_omega_args` returned for these
    parameters.

    The t grids of nested deltas overlap: every other point of
    linspace(-d, d, k) is, up to rounding, a point of linspace(-2d, 2d, k).
    ||T_{cos t} f - f|| is kept per t, keyed by the exact float, so the points
    that coincide exactly are translated once, and a shared value is the one
    a separate call would compute, bit for bit.  Each delta's new t values
    are translated in one call.  Ties go to the first t of each delta's own
    grid.  A report more than 1e-12 ||fn|| (on the norm grid) below that of
    the next smaller delta is flagged `monotonicity_violation`.  The deltas
    may come in any order: each report is the same.
    fn is translated at the points :func:`_translation_points` picks, each
    row mapped onto the grid by its own matrix-vector product, so a row does
    not depend on the others in its call.
    """
    res = grid.x.size
    fnorm = 0.0  # every delta 0: every omega is 0
    if any(deltas):
        fx = fn(grid.x)  # a non-finite sample is named by the norm
        fnorm = float(grid.norm(grid.wgt * fx))
        points, interp = _translation_points(fn, fx, grid.x, M)
    dist: dict[float, float] = {}
    reports = []
    for delta in deltas:
        if delta == 0:
            reports.append(ModulusReport(0.0, 0.0, 0.0, t_grid, res))
            continue
        ts = np.linspace(-delta, delta, t_grid)[: t_grid // 2 + 1].tolist()
        new = [t for t in ts if t not in dist]
        for t, row in zip(new, translate_trig(fn, new, points, M=M)):
            if interp is not None:
                row = interp @ row
            # one norm per row: a matrix norm need not round as a vector's does
            dist[t] = float(grid.norm(grid.wgt * (row - fx)))
        best = -1.0
        best_t = 0.0
        for t in ts:
            if dist[t] > best:
                best, best_t = dist[t], t
        reports.append(ModulusReport(float(delta), best, best_t, t_grid, res))
    order = sorted(range(len(deltas)), key=deltas.__getitem__)
    for i, j in zip(order, order[1:]):
        if reports[j].value < reports[i].value - 1e-12 * fnorm:
            reports[j].flags += ("monotonicity_violation",)
    return reports, fnorm


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
    grid = _check_omega_args(fn, space, [delta], t_grid, M, norm_resolution)
    return _omegas(fn, [delta], grid, t_grid, M)[0][0]


def modulus_curve(
    f,
    deltas,
    space: WeightedSpace,
    t_grid: int = 33,
    M: int | None = None,
    norm_resolution: int | None = None,
) -> list[ModulusReport]:
    """omega(f, delta) along an ascending list of positive deltas.

    The sup over a nested family is non-decreasing; a decrease beyond
    1e-12 ||f||, with ||f|| on the norm's grid, is a grid-resolution failure
    and flags the offending report, so c f is flagged as f is for any c != 0.
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("need at least one delta")
    if min(deltas) <= 0:
        raise ValueError(f"deltas must be positive, got {min(deltas)}")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly ascending")
    fn = as_sampled(f)
    grid = _check_omega_args(fn, space, deltas, t_grid, M, norm_resolution)
    return _omegas(fn, deltas, grid, t_grid, M)[0]
