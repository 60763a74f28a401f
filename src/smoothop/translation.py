"""The asymmetric generalized translation operator on [-1, 1].

The operator is

    (T_y f)(x) = 1 / (pi (1 - x^2)) * int_{-1}^{1} K(x, y, z) f(R) dz / sqrt(1 - z^2),

with R = x y - z sqrt(1 - x^2) sqrt(1 - y^2) and kernel

    K = 1 - R^2 - 2 (1 - y^2) (1 - z^2) + 4 (1 - x^2) (1 - y^2) (1 - z^2)^2.

T_y acts diagonally on the (2, 2) Jacobi family: T_y p_n = p_n(x) R_n(y) with a
multiplier sequence R_n that this module measures numerically and matches
against closed-form candidates.  The prefactor is singular at x = +-1, so all
evaluations stay inside the band |x| <= 1 - EDGE_EPS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .orthopoly import (
    JACOBI_22,
    JacobiBasis,
    _check_domain,
    fourier_jacobi_coeff,
    gauss_chebyshev,
    gauss_legendre,
    jacobi_eval,
)

__all__ = [
    "EDGE_EPS",
    "COMPANION_DEGREE_SHIFT",
    "kernel_eval",
    "translate",
    "translate_trig",
    "Multiplier",
    "multiplier_eval",
    "fit_multiplier",
    "calibrate_multiplier",
    "default_multiplier",
    "calibration_report",
    "DEFAULT_CANDIDATES",
]

# Evaluations of T_y f(x) are refused within this distance of x = +-1,
# where the 1 / (1 - x^2) prefactor blows up.
EDGE_EPS = 1e-6

# The second term of the validated multiplier sits two degrees below the
# first: R_n pairs the degree-(n + 2) first-family polynomial with the
# degree-n (2, 2) polynomial.
COMPANION_DEGREE_SHIFT = 2

DEFAULT_CANDIDATES: list[tuple[tuple[float, float], tuple[float, float]]] = [
    ((0.0, 0.0), (2.0, 2.0)),
    ((1.0, 1.0), (2.0, 2.0)),
    ((2.0, 2.0), (2.0, 2.0)),
    ((3.0, 1.0), (2.0, 2.0)),
]


def kernel_eval(x, y, z):
    """Kernel K(x, y, z) of the translation operator.

    All three arguments must lie in [-1, 1]; they broadcast together.
    """
    xa, ya, za = (np.asarray(v, dtype=float) for v in (x, y, z))
    for name, v in (("x", xa), ("y", ya), ("z", za)):
        _check_domain(v, name, "kernel argument")
    sx = 1.0 - xa * xa
    sy = 1.0 - ya * ya
    sz = 1.0 - za * za
    r = xa * ya - za * np.sqrt(sx) * np.sqrt(sy)
    out = 1.0 - r * r - 2.0 * sy * sz + 4.0 * sx * sy * sz * sz
    return float(out) if out.ndim == 0 else out


def _exact_quad_size(deg: int) -> int:
    """Chebyshev nodes that translate a polynomial of degree `deg` exactly."""
    return max(16, (deg + 6) // 2)


def _default_quad_size(f) -> int:
    deg = getattr(f, "degree", None)
    return 128 if deg is None else _exact_quad_size(int(deg))


def _check_translate_args(x: np.ndarray, y: float, M: int) -> None:
    if M < 1:
        raise ValueError(f"quadrature size must be positive, got M = {M}")
    _check_domain(y, "y", "translation parameter")
    inside = np.abs(x) <= 1 - EDGE_EPS  # NaN is never inside
    if not inside.all():
        raise ValueError(
            f"evaluation point not finite or too close to the singular endpoints: "
            f"x = {x[~inside].flat[0]} (need |x| <= 1 - {EDGE_EPS})"
        )


# Elements of the (x, z) grid computed per pass: one pass's temporaries stay
# in cache, and a small call is a single pass.
_CHUNK = 16384


def _translate(f, y: float, sy_root: float, x, M: int | None):
    """(T_y f)(x) with sy_root = sqrt(1 - y^2) given by the caller.

    The core of :func:`translate` and :func:`translate_trig`: checks x, y and
    M, then evaluates the (x, z) grid in passes of whole rows, in place.
    """
    if M is None:
        M = _default_quad_size(f)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    _check_translate_args(xs, y, M)
    rule = gauss_chebyshev(M)
    z = rule.nodes
    sy = sy_root * sy_root
    sz = 1.0 - z * z
    zs = z * sy_root
    # K = 1 - R^2 - 2 sy sz + 4 sx sy sz^2 = a_z - R^2 + sx c_z
    a = 1.0 - 2.0 * sy * sz
    c = 4.0 * sy * sz * sz
    sx = 1.0 - xs * xs
    rx = np.sqrt(sx)
    xy = xs * y

    def rows(lo, hi):
        r = np.multiply.outer(rx[lo:hi], zs)
        np.subtract(xy[lo:hi, None], r, out=r)
        np.clip(r, -1.0, 1.0, out=r)
        k = np.multiply.outer(sx[lo:hi], c)
        k += a
        k -= r * r
        k *= np.asarray(f(r.ravel()), dtype=float).reshape(r.shape)
        return k @ rule.weights

    step = max(1, _CHUNK // M)
    if xs.size <= step:
        vals = rows(0, xs.size)
    else:
        vals = np.concatenate([rows(lo, lo + step) for lo in range(0, xs.size, step)])
    vals /= np.pi * sx
    if np.ndim(x) == 0:
        return float(vals[0])
    return vals


def translate(f, y: float, x, M: int | None = None):
    """Evaluate (T_y f)(x) by Gauss-Chebyshev quadrature in z.

    Parameters
    ----------
    f : callable
        Real function on [-1, 1], vectorized over its argument.
    y : float
        Translation parameter in [-1, 1].
    x : float or array_like
        Evaluation points with |x| <= 1 - EDGE_EPS.
    M : int, optional
        Number of Chebyshev nodes.  Defaults to max(16, ceil((deg + 5) / 2))
        when f exposes a polynomial degree, else 128; that default is exact
        (to roundoff) for polynomials.

    Returns
    -------
    float or ndarray, matching the shape of `x`.
    """
    y = float(y)
    # max() keeps sqrt real for |y| within the domain slack beyond 1
    return _translate(f, y, math.sqrt(max(0.0, 1.0 - y * y)), x, M)


def translate_trig(f, t: float, x, M: int | None = None):
    """Evaluate T_{cos t} f at x through the substitution y = cos t.

    The operator sees t only through cos t and |sin t|, so the result is the
    same for t and -t, bit for bit.  Using sin t itself (not sqrt(1 - cos^2 t))
    keeps the small-t translate accurate.  The z-quadrature is the
    Gauss-Chebyshev rule of :func:`translate`, node for node.
    """
    if not math.isfinite(t):
        raise ValueError(f"translation angle must be finite, got t = {t}")
    return _translate(f, math.cos(t), abs(math.sin(t)), x, M)


@dataclass
class Multiplier:
    """A calibrated closed form for the multiplier sequence R_n(y).

    The form is

        R_n(y) = p_{n+2}^{first}(y) + (3/2) (1 - y^2) p_n^{second}(y)

    with both families normalized to 1 at y = 1.  `validated` records whether
    this candidate matched the operator-measured multiplier during
    calibration; evaluation refuses to run otherwise.
    """

    first_term_basis: JacobiBasis
    second_term_basis: JacobiBasis
    validated: bool = False
    n_max: int | None = None
    max_residual: float | None = None
    residual_table: dict[str, float] = field(default_factory=dict)


def multiplier_eval(mult: Multiplier, n: int, y):
    """Evaluate the calibrated multiplier R_n(y)."""
    if not mult.validated:
        raise ValueError(
            "multiplier has not been validated by calibration; "
            "run calibrate_multiplier first"
        )
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    ya = np.asarray(y, dtype=float)
    _check_domain(ya, "y")
    first = jacobi_eval(mult.first_term_basis, n + COMPANION_DEGREE_SHIFT, ya)
    second = jacobi_eval(mult.second_term_basis, n, ya)
    out = first + 1.5 * (1.0 - ya * ya) * second
    return float(out) if out.ndim == 0 else out


def fit_multiplier(n: int, y: float, M: int | None = None) -> float:
    """Measure R_n(y) directly from the operator as a_n(T_y p_n) / a_n(p_n).

    The translation's z-quadrature uses M nodes (default exact for the
    degree-n integrand); the two coefficient integrals share one
    Gauss-Legendre grid sized to be exact as well.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if M is None:
        M = _exact_quad_size(n)

    def pn(x):
        return jacobi_eval(JACOBI_22, n, x)

    def tpn(x):
        return translate(pn, y, x, M=M)

    m_coeff = 2 * (n + 8)
    denom = fourier_jacobi_coeff(pn, n, M=m_coeff)
    if abs(denom) < 1e-300:
        raise ZeroDivisionError(f"vanishing reference coefficient a_{n}(p_{n})")
    numer = fourier_jacobi_coeff(tpn, n, M=m_coeff)
    return numer / denom


def _candidate_key(cand: tuple[tuple[float, float], tuple[float, float]]) -> str:
    (a1, b1), (a2, b2) = cand
    return f"({a1:g},{b1:g})+({a2:g},{b2:g})"


def calibrate_multiplier(
    candidates: list[tuple[tuple[float, float], tuple[float, float]]] | None = None,
    n_max: int = 8,
    y_grid: np.ndarray | None = None,
) -> Multiplier:
    """Match closed-form candidates against the operator-measured multiplier.

    Each candidate is a pair of Jacobi index pairs (first family, second
    family).  A candidate validates when

        max over n <= n_max, y in y_grid of
            |candidate R_n(y) - fit_multiplier(n, y)| <= 1e-8.

    Returns the winning candidate as a validated Multiplier; if none (or
    several) validate, returns the best-scoring candidate with
    validated=False and the full residual table attached.  Raises
    ValueError for n_max < 0 or an empty y_grid, which would leave nothing
    to measure.
    """
    if candidates is None:
        candidates = DEFAULT_CANDIDATES
    if not candidates:
        raise ValueError("need at least one candidate")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if y_grid is None:
        y_grid = np.linspace(-0.9, 0.9, 7)
    y_grid = np.asarray(y_grid, dtype=float)
    if not y_grid.size:
        raise ValueError("y_grid must be non-empty")

    measured = np.empty((n_max + 1, y_grid.size))
    for n in range(n_max + 1):
        for iy, y in enumerate(y_grid):
            measured[n, iy] = fit_multiplier(n, float(y))

    table: dict[str, float] = {}
    results = []
    for cand in candidates:
        (a1, b1), (a2, b2) = cand
        first = JacobiBasis(a1, b1)
        second = JacobiBasis(a2, b2)
        trial = Multiplier(first, second, validated=True)
        resid = 0.0
        for n in range(n_max + 1):
            model = multiplier_eval(trial, n, y_grid)
            resid = max(resid, float(np.max(np.abs(model - measured[n]))))
        table[_candidate_key(cand)] = resid
        results.append((resid, cand))

    # a sole winner is the minimum, so the minimum is always the choice
    best_resid, ((a1, b1), (a2, b2)) = min(results, key=lambda rc: rc[0])
    return Multiplier(
        JacobiBasis(a1, b1),
        JacobiBasis(a2, b2),
        validated=sum(resid <= 1e-8 for resid, _ in results) == 1,
        n_max=n_max,
        max_residual=best_resid,
        residual_table=table,
    )


@lru_cache(maxsize=1)
def default_multiplier() -> Multiplier:
    """The package-default calibration (default candidates, n_max = 8)."""
    mult = calibrate_multiplier()
    if not mult.validated:
        raise RuntimeError(
            "default multiplier calibration failed to single out a candidate; "
            f"residual table: {mult.residual_table}"
        )
    return mult


def calibration_report(mult: Multiplier) -> dict:
    """JSON-ready summary of a calibration result."""
    return {
        "first_term_basis": [mult.first_term_basis.alpha_idx, mult.first_term_basis.beta_idx],
        "second_term_basis": [mult.second_term_basis.alpha_idx, mult.second_term_basis.beta_idx],
        "degree_shift": COMPANION_DEGREE_SHIFT,
        "validated": mult.validated,
        "n_max": mult.n_max,
        "max_residual": mult.max_residual,
        "residual_table": dict(mult.residual_table),
    }
