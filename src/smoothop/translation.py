"""The asymmetric generalized translation operator on [-1, 1].

The operator is

    (T_y f)(x) = 1 / (pi (1 - x^2)) * int_{-1}^{1} K(x, y, z) f(R) dz / sqrt(1 - z^2),

with R = x y - z sqrt(1 - x^2) sqrt(1 - y^2) and kernel

    K = 1 - R^2 - 2 (1 - y^2) (1 - z^2) + 4 (1 - x^2) (1 - y^2) (1 - z^2)^2.

T_y acts diagonally on the (2, 2) Jacobi family: T_y p_n = p_n(x) R_n(y) with a
multiplier sequence R_n that this module measures numerically and matches
against closed-form candidates.  The prefactor is singular at x = +-1, so all
evaluations stay inside the band |x| <= 1 - EDGE_EPS.

The module also holds the package's one input contract for f,
:class:`SampledFunction` and :func:`as_sampled`, which every entry point
shares (weighted_space re-exports both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .orthopoly import (
    JACOBI_22,
    JacobiBasis,
    _check_domain,
    _check_int,
    _coefficients,
    _jacobi_rows,
    _require_finite,
    gauss_chebyshev,
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


def _degree(f) -> int | None:
    """The polynomial degree f declares, or None: its `degree` attribute,
    called when it is a method, as on numpy's polynomials."""
    deg = getattr(f, "degree", None)
    return deg() if callable(deg) else deg


def _default_quad_size(f) -> int:
    deg = _degree(f)
    return 128 if deg is None else _exact_quad_size(deg)


@dataclass
class SampledFunction:
    """A real function on [-1, 1], vectorized over its argument; a
    constant-valued evaluator is broadcast to the shape of x.

    `degree` marks exact polynomials (it tightens quadrature defaults in
    this module, and omega translates such an f at degree + 1 points); left
    None, it is read from the evaluator's own `degree`, as on numpy's
    polynomials, and stays None for black-box functions.  Any other value
    than None or an integer >= 0 raises ValueError naming `degree`.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = "f"
    degree: int | None = None

    def __post_init__(self) -> None:
        if self.degree is None:
            self.degree = _degree(self.evaluator)
        if self.degree is not None:
            self.degree = _check_int(self.degree, "degree", 0)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        vals = np.asarray(self.evaluator(xs), dtype=float)
        vals = np.broadcast_to(vals, xs.shape).copy() if vals.shape != xs.shape else vals
        if np.ndim(x) == 0:
            return float(vals)
        return vals


def as_sampled(f) -> SampledFunction:
    """The one input contract for f: a plain callable is wrapped, with its
    degree read by :class:`SampledFunction`; SampledFunction inputs pass
    through unchanged."""
    if isinstance(f, SampledFunction):
        return f
    return SampledFunction(f)


def _check_translate_args(x: np.ndarray, y: np.ndarray, M: int) -> None:
    _check_int(M, "M", 1)
    _check_domain(y, "y", "translation parameter")
    inside = np.abs(x) <= 1 - EDGE_EPS  # NaN is never inside
    if not inside.all():
        raise ValueError(
            f"evaluation point not finite or too close to the singular endpoints: "
            f"x = {x[~inside].flat[0]} (need |x| <= 1 - {EDGE_EPS})"
        )


# Elements of the (y, x, z) grid computed per pass: one pass's temporaries
# stay in cache, and a small call is a single pass.
_CHUNK = 16384


def _translate(f, y, sy_root, x, M: int | None, members: int | None = None):
    """(T_y f)(x) for a scalar or 1-d y, with sy_root = sqrt(1 - y^2) given
    by the caller; the result has shape y.shape + x.shape.

    The core of :func:`translate` and :func:`translate_trig`: checks x, y and
    M, then evaluates the (y, x, z) grid in passes of at most _CHUNK
    elements (one x-row when M exceeds it), in place.  A pass takes whole
    y-blocks when one y's rows fit, and otherwise chunks of one y's x-rows,
    as many as fit and at least one.  Each (y, x) entry is its own sum over
    the M nodes, taken in an order fixed by M alone, so no value depends on
    how a call is cut into passes.  The rule's weights are all pi / M, so
    the sum is of K f(R) alone and is divided by M (1 - x^2), the
    prefactor's pi cancelled.

    Mirror pairs.  R(-x, y, -z) = -R(x, y, z), and K depends on x and z only
    through x^2, z^2 and R^2, so on the Gauss-Chebyshev rule, symmetric bit
    for bit, (T_y f)(-x) = 1 / (M (1 - x^2)) sum_z K(x, y, z) f(-R).
    When x is symmetric about 0 bit for bit (and a pair of rows fits in a
    pass, 2M <= _CHUNK), the rows of its upper half are taken with both
    signs: R, its clip and K once, f called on R and -R together, and the
    value at -x summed over z in the same order as that at x.  It is the
    quadrature of the same rule up to the order of addition.  The middle
    row x = 0 of an odd-sized grid, and every row of any other x, takes one
    sign in the same loop.

    A non-finite sample of f makes its (y, x) entry non-finite, so the
    result is checked once, and only on failure are the passes of its
    non-finite entries evaluated again and searched in order: ValueError
    names the first point where f is not finite, or, when every sample is
    finite, the x and y of the first entry that overflows.

    With `members` = k, f is a family of k functions: it returns one row of
    samples per member, shape (k, N) for N points, and is called once per
    pass for all of them.  The result then has shape (k,) + y.shape +
    x.shape, each member its own one-function call bit for bit, and a pass
    holds at most _CHUNK elements across its k rows (one x-row, or mirror
    pair, when a row alone exceeds that).
    """
    if M is None:
        M = _default_quad_size(f)
    ys = np.atleast_1d(y)
    xs = np.asarray(x, dtype=float).ravel()
    _check_translate_args(xs, ys, M)
    z = gauss_chebyshev(M).nodes
    sroot = np.atleast_1d(sy_root)[:, None]
    sy = sroot * sroot
    sz = 1.0 - z * z
    zs = z * sroot
    # K = 1 - R^2 - 2 sy sz + 4 sx sy sz^2 = a_z - R^2 + sx c_z, per y
    a = 1.0 - 2.0 * sy * sz
    c = 4.0 * sy * sz * sz
    sx = 1.0 - xs * xs
    rx = np.sqrt(sx)
    xy = np.multiply.outer(ys, xs)
    n, fam = xs.size, members or 1
    out = np.empty((fam, ys.size, n))
    # the upper half's h rows as mirror pairs: column g of `out` holds x,
    # column g of `back` its mirror -x
    h = n // 2 if 2 * M <= _CHUNK and np.array_equal(xs, -xs[::-1]) else 0
    back = out[..., ::-1]
    passes = []  # (signs, y from i to j, x-rows lo:hi), in order
    for signs, first, last in ((2, n - h, n), (1, h, n - h)):
        rows = max(1, _CHUNK // (fam * signs * M))  # x-rows a pass may hold
        per_pass = max(1, rows // max(1, last - first))  # y per pass; 1 unless a y's rows fit
        passes += [
            (signs, i, min(i + per_pass, ys.size), lo, min(lo + rows, last))
            for i in range(0, ys.size, per_pass)
            for lo in range(first, last, rows)
        ]

    def arguments(signs: int, i: int, j: int, lo: int, hi: int) -> np.ndarray:
        """R on the pass over y from i to j and x-rows lo:hi, and -R after it
        for a mirror pass: the arguments of f, shape (signs, j - i, hi - lo, M)."""
        r = np.empty((signs, j - i, hi - lo, M))
        np.multiply(rx[lo:hi, None], zs[i:j, None], out=r[0])
        np.subtract(xy[i:j, lo:hi, None], r[0], out=r[0])
        np.clip(r[0], -1.0, 1.0, out=r[0])
        if signs == 2:
            np.negative(r[0], out=r[1])
        return r

    # a non-finite sample of f, or a finite one that overflows, is named by
    # the check below, not warned of
    with np.errstate(invalid="ignore", over="ignore"):
        for signs, i, j, lo, hi in passes:
            r = arguments(signs, i, j, lo, hi)
            k = sx[lo:hi, None] * c[i:j, None]
            k += a[i:j, None]
            k -= r[0] * r[0]
            fr = np.asarray(f(r.ravel()), dtype=float).reshape((fam,) + r.shape)
            # each entry's own z-sum, in an order fixed by M (einsum calls no BLAS)
            sums = np.einsum("...z,...z->...", k, fr)
            out[:, i:j, lo:hi] = sums[:, 0]
            if signs == 2:
                back[:, i:j, lo:hi] = sums[:, 1]
        out /= M * sx  # the weights pi / M, over the prefactor's pi
        if not np.isfinite(out).all():
            # finite samples can overflow too, so each such pass is searched in turn
            bad = ~np.isfinite(out).all(axis=0)
            for signs, i, j, lo, hi in passes:
                if any(m[i:j, lo:hi].any() for m in (bad, bad[:, ::-1])[:signs]):
                    r = arguments(signs, i, j, lo, hi).ravel()
                    _require_finite(np.asarray(f(r), dtype=float), r)
            yi, xi = np.nonzero(bad)
            raise ValueError(
                f"f's samples overflow the translate at x = {xs[xi[0]]}, y = {ys[yi[0]]}"
            )
    out = out.reshape(((members,) if members else ()) + np.shape(y) + np.shape(x))
    return float(out) if out.ndim == 0 else out


def translate(f, y, x, M: int | None = None):
    """Evaluate (T_y f)(x) by Gauss-Chebyshev quadrature in z.

    Parameters
    ----------
    f : SampledFunction or callable
        Real function on [-1, 1], vectorized over its argument, taken
        through :func:`as_sampled`; a constant-valued f is broadcast.
    y : float or 1-d array_like
        Translation parameter(s) in [-1, 1].
    x : float or array_like
        Evaluation points with |x| <= 1 - EDGE_EPS.
    M : int, optional
        Number of Chebyshev nodes.  Defaults to max(16, ceil((deg + 5) / 2))
        when f exposes a polynomial degree (an attribute, or a method as on
        numpy polynomials), else 128; that default is exact (to roundoff)
        for polynomials.

    Returns
    -------
    float or ndarray of shape y.shape + x.shape; row i of a 1-d y is the
    scalar call at y[i], bit for bit.

    A non-finite sample of f raises ValueError naming the point it was
    taken at, and finite samples whose translate overflows one naming its
    x and y.
    """
    return _translate(as_sampled(f), *_y_args(y), x, M)


def _y_args(y) -> tuple[np.ndarray, np.ndarray]:
    """y as a scalar or 1-d float array, with sqrt(1 - y^2)."""
    y = np.asarray(y, dtype=float)
    if y.ndim > 1:
        raise ValueError(f"translation parameter y must be a scalar or 1-d, got shape {y.shape}")
    # the maximum keeps sqrt real for |y| within the domain slack beyond 1
    return y, np.sqrt(np.maximum(0.0, 1.0 - y * y))


def translate_trig(f, t, x, M: int | None = None):
    """Evaluate T_{cos t} f at x through the substitution y = cos t.

    The operator sees t only through cos t and |sin t|, so the result is the
    same for t and -t, bit for bit.  Using sin t itself (not sqrt(1 - cos^2 t))
    keeps the small-t translate accurate.  The z-quadrature is the
    Gauss-Chebyshev rule of :func:`translate`, node for node.

    t is a scalar or a 1-d array; the result has shape t.shape + x.shape, and
    row i of a 1-d t is the scalar call at t[i], bit for bit.
    """
    return _translate(as_sampled(f), *_t_args(t), x, M)


def _t_args(t) -> tuple[np.ndarray, np.ndarray]:
    """cos t and |sin t| for a finite scalar or 1-d t."""
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"translation angle t must be a scalar or 1-d, got shape {t.shape}")
    finite = np.isfinite(t)
    if not finite.all():
        raise ValueError(f"translation angle must be finite, got t = {t[~finite].flat[0]}")
    # math, not numpy, per entry: np.cos and math.cos may differ in the last bit
    ts = t.ravel().tolist()
    cos_t = np.array([math.cos(v) for v in ts]).reshape(t.shape)
    sin_t = np.array([abs(math.sin(v)) for v in ts]).reshape(t.shape)
    return cos_t, sin_t


def _translate_jacobi(n: int, y, x, M: int | None = None, lo: int = 0):
    """T_y p_d at x for the (2, 2) Jacobi polynomials p_lo .. p_n, normalized
    to 1 at x = 1, from one family translation: shape (n + 1 - lo,) +
    y.shape + x.shape, row d - lo the call translate(p_d, y, x, M) bit for
    bit.  M defaults to the rule exact for degree n, and so for every row."""
    if M is None:
        M = _exact_quad_size(n)
    rows = partial(_jacobi_rows, JACOBI_22, n, lo=lo)
    return _translate(rows, *_y_args(y), x, M, members=n + 1 - lo)


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
    n = _check_int(n, "n", 0)
    ya = np.asarray(y, dtype=float)
    _check_domain(ya, "y")
    out = _closed_form(mult.first_term_basis, mult.second_term_basis, n, ya, lo=n)[0]
    return float(out) if out.ndim == 0 else out


def _closed_form(first: JacobiBasis, second: JacobiBasis, n: int, y, lo: int = 0) -> np.ndarray:
    """R_lo(y) .. R_n(y) of the :class:`Multiplier` form with families `first`
    and `second`, shape (n + 1 - lo,) + y.shape; y is not checked."""
    upper = _jacobi_rows(first, n + COMPANION_DEGREE_SHIFT, y, lo + COMPANION_DEGREE_SHIFT)
    return upper + 1.5 * (1.0 - y * y) * _jacobi_rows(second, n, y, lo)


def _multipliers(n: int, y, M: int | None = None, lo: int = 0) -> np.ndarray:
    """R_lo(y) .. R_n(y) measured from the operator as a_d(T_y p_d) / a_d(p_d),
    shape (n + 1 - lo,) + y.shape.

    The coefficients of one family translation of p_lo .. p_n (z-quadrature
    of M nodes, default exact for degree n) and of the family itself; their
    rule is exact for every a_d(T_y p_d), whose integrand has degree 2d + 4.
    """
    d = np.arange(n + 1 - lo)
    numer = _coefficients(lambda x: _translate_jacobi(n, y, x, M, lo), n, lo)[d, d]
    denom = _coefficients(partial(_jacobi_rows, JACOBI_22, n, lo=lo), n, lo)[d, d]
    return numer / denom.reshape(denom.shape + (1,) * np.ndim(y))


def fit_multiplier(n: int, y, M: int | None = None):
    """Measure R_n(y) directly from the operator as a_n(T_y p_n) / a_n(p_n).

    y is a scalar or a 1-d array; an array gives one fit per entry from one
    translation call.  The translation's z-quadrature uses M nodes (default
    exact for the degree-n integrand); the two coefficient integrals share
    one Gauss-Legendre grid sized to be exact as well.  This is the
    computation of :func:`calibrate_multiplier` at n_max = n, for degree n
    alone.
    """
    _check_int(n, "n", 0)
    out = _multipliers(n, y, M, lo=n)[0]
    return float(out) if out.ndim == 0 else out


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
            |candidate R_n(y) - measured R_n(y)| <= 1e-8,

    with every R_n measured as :func:`fit_multiplier` measures
    R_{n_max}: one family translation of p_0 .. p_{n_max} on one grid.

    Returns the winning candidate as a validated Multiplier; if none (or
    several) validate, returns the best-scoring candidate with
    validated=False and the full residual table attached.  Raises
    ValueError for n_max < 0 or an empty y_grid, which would leave nothing
    to measure, and for a y_grid that is not 1-d.
    """
    if candidates is None:
        candidates = DEFAULT_CANDIDATES
    if not candidates:
        raise ValueError("need at least one candidate")
    _check_int(n_max, "n_max", 0)
    if y_grid is None:
        y_grid = np.linspace(-0.9, 0.9, 7)
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.ndim != 1:
        raise ValueError(f"y_grid must be 1-d, got shape {y_grid.shape}")
    if not y_grid.size:
        raise ValueError("y_grid must be non-empty")

    measured = _multipliers(n_max, y_grid)

    table: dict[str, float] = {}
    results = []
    for cand in candidates:
        (a1, b1), (a2, b2) = cand
        model = _closed_form(JacobiBasis(a1, b1), JacobiBasis(a2, b2), n_max, y_grid)
        resid = float(np.max(np.abs(model - measured)))
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
