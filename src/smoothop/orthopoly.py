"""Jacobi polynomials, Gaussian quadrature, and Fourier-Jacobi coefficients.

Everything here works with Jacobi polynomials normalized so that the
polynomial takes the value 1 at x = +1 (instead of the standard value
binom(n + alpha, n)).  The coefficient transform integrates against the
(2, 2) family with weight (1 - x^2)^2, which is the analysis side of the
translation operator in :mod:`smoothop.translation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = [
    "JacobiBasis",
    "JACOBI_22",
    "LEGENDRE",
    "jacobi_eval",
    "QuadratureRule",
    "gauss_chebyshev",
    "gauss_legendre",
    "CoefficientSequence",
    "fourier_jacobi_coeff",
    "fourier_jacobi_series",
]

_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class JacobiBasis:
    """Jacobi parameter pair (alpha_idx, beta_idx), normalized to 1 at x = +1."""

    alpha_idx: float
    beta_idx: float

    def __post_init__(self) -> None:
        if not (self.alpha_idx > -1 and self.beta_idx > -1):
            raise ValueError(
                f"Jacobi indices must exceed -1, got "
                f"({self.alpha_idx}, {self.beta_idx})"
            )

    def endpoint_value(self, n: int) -> float:
        """Standard (unnormalized) Jacobi value at x = +1, binom(n + alpha, n)."""
        a = self.alpha_idx
        if float(a).is_integer() and a >= 0:
            return float(math.comb(n + int(a), n))
        return math.gamma(n + a + 1) / (math.gamma(a + 1) * math.factorial(n))


JACOBI_22 = JacobiBasis(2.0, 2.0)
LEGENDRE = JacobiBasis(0.0, 0.0)


def _check_domain(v, name: str, what: str = "argument") -> None:
    """Raise ValueError naming `name` unless every entry of v lies in [-1, 1].

    A slack of _DOMAIN_SLACK beyond the endpoints is tolerated; NaN is rejected.
    """
    inside = np.abs(v) <= 1 + _DOMAIN_SLACK  # NaN is never inside
    if not inside.all():
        raise ValueError(f"{what} outside [-1, 1]: {name} = {np.asarray(v)[~inside].flat[0]}")


def _check_int(v, name: str, minimum: int | None = None) -> int:
    """v as a Python int; raises ValueError naming `name` unless v is an
    integer (Python or numpy, not bool) and, if given, at least `minimum`."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {name} = {v!r}")
    if minimum is not None and v < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {name} = {v}")
    return int(v)


def _require_finite(v: np.ndarray, x: np.ndarray) -> None:
    """Raise ValueError naming the first x with a non-finite sample in v.

    v holds samples at the points x, one row per function (rows of length
    x.size, searched in row-major order).
    """
    finite = np.isfinite(v)
    if not finite.all():
        i = int(np.argmin(finite))  # the first non-finite sample
        raise ValueError(f"non-finite sample value {v.flat[i]} at x = {x[i % x.size]}")


@lru_cache(maxsize=32)
def _recurrence_table(basis: JacobiBasis, size: int) -> tuple[tuple[float, ...], ...]:
    """Coefficients (c1, c2, c3, c4) of the three-term recurrence of `basis`
    for the steps m = 2 .. size + 1.

    Callers ask for a power-of-two size and use a prefix, so a handful of
    entries per basis serves every degree.
    """
    a, b = basis.alpha_idx, basis.beta_idx
    table = []
    for m in range(2, size + 2):
        c1 = 2 * m * (m + a + b) * (2 * m + a + b - 2)
        c2 = (2 * m + a + b - 1) * (a * a - b * b)
        c3 = (2 * m + a + b - 2) * (2 * m + a + b - 1) * (2 * m + a + b)
        c4 = 2 * (m + a - 1) * (m + b - 1) * (2 * m + a + b)
        table.append((c1, c2, c3, c4))
    return tuple(table)


def _jacobi_standard(basis: JacobiBasis, n: int, x: np.ndarray) -> Iterator[np.ndarray]:
    """Standard-normalization Jacobi values of degrees 0..n, yielded in turn
    by the three-term recurrence.

    Each step runs in place on three rotating buffers, so a yielded array is
    overwritten two steps later: use it before advancing the iterator.
    """
    a, b = basis.alpha_idx, basis.beta_idx
    p_prev = np.ones_like(x)
    yield p_prev
    if n == 0:
        return
    # an array even for 0-d x, so that the steps below can write into it
    p_curr = np.asarray(0.5 * (a - b + (a + b + 2) * x))
    yield p_curr
    if n == 1:
        return
    table = _recurrence_table(basis, 1 << int(n - 2).bit_length())
    step = np.empty_like(p_curr)
    for c1, c2, c3, c4 in table[: n - 1]:
        # ((c2 + c3 x) p_curr - c4 p_prev) / c1, operation for operation
        np.multiply(x, c3, out=step)
        step += c2
        step *= p_curr
        p_prev *= c4
        step -= p_prev
        step /= c1
        p_prev, p_curr, step = p_curr, step, p_prev
        yield p_curr


def jacobi_eval(basis: JacobiBasis, n: int, x):
    """Evaluate the degree-n Jacobi polynomial of `basis`, normalized to 1 at x = 1.

    Parameters
    ----------
    basis : JacobiBasis
    n : int
        Degree, n >= 0.
    x : float or array_like
        Points in [-1, 1] (a slack of 1e-12 beyond the endpoints is tolerated).

    Returns
    -------
    float or ndarray, matching the shape of `x`.
    """
    _check_int(n, "n", 0)
    xs = np.asarray(x, dtype=float)
    _check_domain(xs, "x")
    for vals in _jacobi_standard(basis, n, xs):
        pass
    vals = vals / basis.endpoint_value(n)
    if np.ndim(x) == 0:
        return float(vals)
    return vals


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gaussian rule on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")


@lru_cache(maxsize=64, typed=True)  # typed: a float M is refused, not served from the cache
def gauss_chebyshev(M: int) -> QuadratureRule:
    """Gauss-Chebyshev rule (first kind) with M nodes.

    Integrates g(z) / sqrt(1 - z^2) exactly for polynomials g of degree
    <= 2M - 1.  Nodes are cos((2j - 1) pi / (2M)), all weights pi / M.
    Rules are cached per M and shared, so their arrays are read-only.
    """
    _check_int(M, "M", 1)
    j = np.arange(1, M + 1)
    nodes = np.cos((2 * j - 1) * np.pi / (2 * M))[::-1].copy()
    weights = np.full(M, np.pi / M)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes, weights)


def _legendre_pair(M: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_M(x), P_{M-1}(x)) in standard normalization, M >= 1.

    Each step ((2m - 1) x p - (m - 1) p_prev) / m runs in place on three
    rotating buffers.  The Legendre steps are not those of
    :func:`_jacobi_standard` at (0, 0), whose coefficients carry a common
    factor 4m(m - 1) and round differently.
    """
    p_prev = np.ones_like(x)
    p = x.copy()
    step = np.empty_like(x)
    for m in range(2, M + 1):
        np.multiply(x, 2 * m - 1, out=step)
        step *= p
        p_prev *= m - 1
        step -= p_prev
        step /= m
        p_prev, p, step = p, step, p_prev
    return p, p_prev


@lru_cache(maxsize=64, typed=True)  # typed: a float M is refused, not served from the cache
def gauss_legendre(M: int) -> QuadratureRule:
    """Gauss-Legendre rule with M nodes, by Newton iteration on the recurrence.

    Each root is polished until its Newton update is at most 1e-14 (the
    function value itself bottoms out at the recurrence's roundoff floor,
    about M * eps, so the update is the meaningful per-root residual).
    Raises RuntimeError if any root fails to converge within 100 iterations.
    Rules are cached per M and shared, so their arrays are read-only.
    """
    _check_int(M, "M", 1)
    k = np.arange(M)
    x = np.cos(np.pi * (k + 0.75) / (M + 0.5))
    for _ in range(100):
        p, p_prev = _legendre_pair(M, x)
        dp = M * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-14:
            break
    else:
        raise RuntimeError(
            f"Gauss-Legendre root-finding did not converge for M = {M}: "
            f"max update {np.max(np.abs(step)):.3e} after 100 iterations"
        )
    x = np.sort(x)
    x = 0.5 * (x - x[::-1])  # enforce exact symmetry about 0
    p, p_prev = _legendre_pair(M, x)
    dp = M * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = False  # shared through the cache
    w.flags.writeable = False
    return QuadratureRule(x, w)


@dataclass
class CoefficientSequence:
    """Fourier-Jacobi coefficients a_0 .. a_K of one function."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("coefficient sequence must be 1-d")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("coefficient sequence contains non-finite entries")

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])


def fourier_jacobi_coeff(f, n: int, M: int | None = None):
    """Coefficient a_n(f) = integral of f(x) P_n^(2,2)(x) (1 - x^2)^2 dx.

    The integral is taken with a Gauss-Legendre rule of size M
    (default 2 * (n + 8), exact whenever f is a polynomial of degree
    <= 2M - 5 - n).  No normalization by the square norm of the basis
    polynomial is applied.  An f that returns one row of samples per
    function, shape (k, M), gets one coefficient per row.  A non-finite
    sample raises ValueError naming its x.
    """
    _check_int(n, "n", 0)
    if M is None:
        M = 2 * (n + 8)
    rule = gauss_legendre(M)
    x = rule.nodes
    s = 1.0 - x * x
    pn = jacobi_eval(JACOBI_22, n, x)
    fx = np.asarray(f(x), dtype=float)
    _require_finite(fx, x)
    out = (fx * pn * s * s) @ rule.weights
    return float(out) if out.ndim == 0 else out


def fourier_jacobi_series(f, k_max: int, M: int | None = None) -> CoefficientSequence:
    """All coefficients a_0(f) .. a_{k_max}(f) on one shared quadrature grid.

    A non-finite sample raises ValueError naming its x.
    """
    _check_int(k_max, "k_max", 0)
    if M is None:
        M = 2 * (k_max + 8)
    rule = gauss_legendre(M)
    x = rule.nodes
    s2 = (1.0 - x * x) ** 2
    fx = np.asarray(f(x), dtype=float)
    _require_finite(fx, x)
    base = rule.weights * fx * s2
    coeffs = np.empty(k_max + 1)
    for k, pk in enumerate(_jacobi_standard(JACOBI_22, k_max, x)):
        coeffs[k] = base @ (pk / JACOBI_22.endpoint_value(k))
    return CoefficientSequence(coeffs)
