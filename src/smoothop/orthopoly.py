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
from typing import Callable, Iterator

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


def _check_domain(x: np.ndarray) -> None:
    if x.size and (np.abs(x) > 1 + _DOMAIN_SLACK).any():
        bad = x[np.abs(x) > 1 + _DOMAIN_SLACK].flat[0]
        raise ValueError(f"argument outside [-1, 1]: x = {bad}")


def _jacobi_standard(basis: JacobiBasis, n: int, x: np.ndarray) -> Iterator[np.ndarray]:
    """Standard-normalization Jacobi values of degrees 0..n, yielded in turn
    by the three-term recurrence."""
    a, b = basis.alpha_idx, basis.beta_idx
    p_prev = np.ones_like(x)
    yield p_prev
    if n == 0:
        return
    p_curr = 0.5 * (a - b + (a + b + 2) * x)
    yield p_curr
    for m in range(2, n + 1):
        c1 = 2 * m * (m + a + b) * (2 * m + a + b - 2)
        c2 = (2 * m + a + b - 1) * (a * a - b * b)
        c3 = (2 * m + a + b - 2) * (2 * m + a + b - 1) * (2 * m + a + b)
        c4 = 2 * (m + a - 1) * (m + b - 1) * (2 * m + a + b)
        p_prev, p_curr = p_curr, ((c2 + c3 * x) * p_curr - c4 * p_prev) / c1
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
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    xs = np.asarray(x, dtype=float)
    _check_domain(xs)
    for vals in _jacobi_standard(basis, n, xs):
        pass
    vals = vals / basis.endpoint_value(n)
    if np.ndim(x) == 0:
        return float(vals)
    return vals


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gaussian rule on [-1, 1]."""

    kind: str
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")

    @property
    def size(self) -> int:
        return self.nodes.size

    def integrate(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(self.weights @ np.asarray(fn(self.nodes), dtype=float))


@lru_cache(maxsize=64)
def gauss_chebyshev(M: int) -> QuadratureRule:
    """Gauss-Chebyshev rule (first kind) with M nodes.

    Integrates g(z) / sqrt(1 - z^2) exactly for polynomials g of degree
    <= 2M - 1.  Nodes are cos((2j - 1) pi / (2M)), all weights pi / M.
    Rules are cached per M and shared, so their arrays are read-only.
    """
    if M < 1:
        raise ValueError(f"need at least one node, got M = {M}")
    j = np.arange(1, M + 1)
    nodes = np.cos((2 * j - 1) * np.pi / (2 * M))[::-1].copy()
    weights = np.full(M, np.pi / M)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule("chebyshev-first-kind", nodes, weights)


def _legendre_pair(M: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_M(x), P_{M-1}(x)) in standard normalization, M >= 1."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for m in range(2, M + 1):
        p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
    return p, p_prev


@lru_cache(maxsize=64)
def gauss_legendre(M: int) -> QuadratureRule:
    """Gauss-Legendre rule with M nodes, by Newton iteration on the recurrence.

    Each root is polished until its Newton update is at most 1e-14 (the
    function value itself bottoms out at the recurrence's roundoff floor,
    about M * eps, so the update is the meaningful per-root residual).
    Raises RuntimeError if any root fails to converge within 100 iterations.
    Rules are cached per M and shared, so their arrays are read-only.
    """
    if M < 1:
        raise ValueError(f"need at least one node, got M = {M}")
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
    return QuadratureRule("legendre", x, w)


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


def fourier_jacobi_coeff(f, n: int, M: int | None = None) -> float:
    """Coefficient a_n(f) = integral of f(x) P_n^(2,2)(x) (1 - x^2)^2 dx.

    The integral is taken with a Gauss-Legendre rule of size M
    (default 2 * (n + 8), exact whenever f is a polynomial of degree
    <= 2M - 5 - n).  No normalization by the square norm of the basis
    polynomial is applied.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if M is None:
        M = 2 * (n + 8)
    rule = gauss_legendre(M)
    x = rule.nodes
    s = 1.0 - x * x
    pn = jacobi_eval(JACOBI_22, n, x)
    fx = np.asarray(f(x), dtype=float)
    return float(rule.weights @ (fx * pn * s * s))


def fourier_jacobi_series(f, k_max: int, M: int | None = None) -> CoefficientSequence:
    """All coefficients a_0(f) .. a_{k_max}(f) on one shared quadrature grid."""
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    if M is None:
        M = 2 * (k_max + 8)
    rule = gauss_legendre(M)
    x = rule.nodes
    s2 = (1.0 - x * x) ** 2
    fx = np.asarray(f(x), dtype=float)
    base = rule.weights * fx * s2
    coeffs = np.empty(k_max + 1)
    for k, pk in enumerate(_jacobi_standard(JACOBI_22, k_max, x)):
        coeffs[k] = base @ (pk / JACOBI_22.endpoint_value(k))
    return CoefficientSequence(coeffs)
