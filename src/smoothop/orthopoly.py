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
        """Standard (unnormalized) Jacobi value at x = +1, binom(n + alpha, n):
        exact for an integer alpha, else the product of (k + alpha) / k over
        k = 1 .. n, finite where gamma(n + alpha + 1) overflows."""
        a = self.alpha_idx
        if float(a).is_integer():
            return float(math.comb(n + int(a), n))
        return math.prod((k + a) / k for k in range(1, n + 1))


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
    vals = _jacobi_rows(basis, n, xs, n)[0]
    if np.ndim(x) == 0:
        return float(vals)
    return vals


def _jacobi_rows(basis: JacobiBasis, n: int, x: np.ndarray, lo: int = 0) -> np.ndarray:
    """Degrees lo..n of `basis` at the points x, normalized to 1 at x = 1, one
    row each from one pass of the recurrence: shape (n + 1 - lo,) + x.shape.
    x is not checked against [-1, 1]."""
    out = np.empty((n + 1 - lo,) + np.shape(x))
    for d, vals in enumerate(_jacobi_standard(basis, n, np.asarray(x, dtype=float))):
        if d >= lo:
            np.divide(vals, basis.endpoint_value(d), out=out[d - lo, ...])
    return out


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
    <= 2M - 1.  Nodes are cos((2j - 1) pi / (2M)), all weights pi / M; those
    below 0 are taken as -cos((2j - 1) pi / (2M)), j <= M / 2, and mirrored,
    so the rule is symmetric bit for bit and an odd M has the node 0.0.
    Rules are cached per M and shared, so their arrays are read-only.
    """
    _check_int(M, "M", 1)
    j = np.arange(1, M // 2 + 1)
    nodes = _symmetric(-np.cos((2 * j - 1) * np.pi / (2 * M)), M)
    weights = np.full(M, np.pi / M)
    weights.flags.writeable = False
    return QuadratureRule(nodes, weights)


def _symmetric(lower: np.ndarray, size: int) -> np.ndarray:
    """The read-only grid of `size` points, symmetric about 0 bit for bit,
    whose first size // 2 points are `lower`, ascending below 0, mirrored;
    an odd size has 0.0 in the middle."""
    grid = np.concatenate((lower, np.zeros(size % 2), -lower[::-1]))
    grid.flags.writeable = False  # shared through the caches of its builders
    return grid


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


# j_{0,k}, k = 1 .. 20: the first zeros of the Bessel function J_0, the
# starting guesses of the nodes nearest x = +1 in gauss_legendre
_J0_ZEROS = (
    2.4048255576957724, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815, 49.482609897397815,
    52.624051841115, 55.76551075501998, 58.90698392608094, 62.048469190227166,
)


def _legendre_guesses(M: int) -> np.ndarray:
    """Starting guesses for the nodes x >= 0 of the M-point Gauss-Legendre
    rule, the node nearest 1 first.

    Tricomi's expansion x = (1 - (M - 1)/(8M^3) - (39 - 28/sin^2 phi)/(384M^4))
    cos phi, phi = (4k - 1) pi / (4M + 2), is O(M^-5) in the interior; near
    x = 1 its error grows as 1/sin^2 phi, so the first 20 nodes take Olver's
    Bessel-zero expansion theta = psi + (psi cot psi - 1)/(8 rho^2 psi),
    psi = j_{0,k} / rho, rho = M + 1/2, instead.  An odd M gets 0.0 exactly.
    """
    half = (M + 1) // 2
    phi = (4 * np.arange(1, half + 1) - 1) * np.pi / (4 * M + 2)
    x = np.cos(phi) * (
        1 - (M - 1) / (8.0 * M**3) - (39 - 28 / np.sin(phi) ** 2) / (384.0 * M**4)
    )
    rho = M + 0.5
    psi = np.array(_J0_ZEROS[:half]) / rho
    x[: psi.size] = np.cos(psi + (psi / np.tan(psi) - 1) / (8 * rho * rho * psi))
    if M % 2:
        x[-1] = 0.0
    return x


@lru_cache(maxsize=64, typed=True)  # typed: a float M is refused, not served from the cache
def gauss_legendre(M: int) -> QuadratureRule:
    """Gauss-Legendre rule with M nodes, by Newton iteration on the recurrence.

    Newton runs on the nodes x >= 0 only, from the guesses of
    :func:`_legendre_guesses`, and the rule mirrors them: nodes and weights
    are symmetric bit for bit, and an odd M has the node 0.0 exactly.  After a
    step s the error left in a node is about |P''/2P'| s^2 = |x| s^2 / (1 - x^2)
    (Legendre's equation at a root); the iteration stops once that is at most
    1e-17 at every node, one pass of the recurrence for M >= 64 and two for
    3 <= M < 64 (M = 2 takes three).  The weights 2 / ((1 - x^2) P'(x)^2) come
    from the last pass, its P' carried to the updated node by the Taylor step
    P'' s, P'' = (2x P' - M(M + 1) P) / (1 - x^2).
    Raises RuntimeError if the bound is not met within 100 passes.
    Rules are cached per M and shared, so their arrays are read-only.
    """
    _check_int(M, "M", 1)
    x = _legendre_guesses(M)
    for _ in range(100):
        p, p_prev = _legendre_pair(M, x)
        s = 1.0 - x * x
        dp = M * (p_prev - x * p) / s
        step = p / dp
        ddp = (2.0 * x * dp - M * (M + 1) * p) / s
        done = np.all(np.abs(x) * step * step <= 1e-17 * s)
        x = x - step
        dp = dp - step * ddp
        if done:
            break
    else:
        raise RuntimeError(
            f"Gauss-Legendre root-finding did not converge for M = {M}: "
            f"max update {np.max(np.abs(step)):.3e} after 100 passes"
        )
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    pos = M // 2  # the nodes x > 0, nearest 1 first; an odd M's 0.0 follows
    x = _symmetric(-x[:pos], M)
    w = np.concatenate((w[:pos], w[::-1]))
    w.flags.writeable = False  # shared through the cache
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


def _coefficients(f, n: int, lo: int = 0) -> np.ndarray:
    """a_lo(f) .. a_n(f), the package's one analysis rule: shape (n + 1 - lo,)
    + f's leading row shape, for an f that returns rows of samples.

    a_k(f) is the integral of f p_k (1 - x^2)^2, p_k the (2, 2) Jacobi
    polynomial normalized to 1 at x = 1, taken as one product of the weighted
    samples with the row of p_k on 2(n + 8) Gauss-Legendre nodes: exact for
    a polynomial f of degree <= 3n + 27.  A non-finite sample raises
    ValueError naming its x, a finite f that overflows a_k one naming k.
    """
    rule = gauss_legendre(2 * (n + 8))
    x = rule.nodes
    fx = np.asarray(f(x), dtype=float)
    _require_finite(fx, x)
    base = rule.weights * fx * (1.0 - x * x) ** 2
    with np.errstate(over="ignore", invalid="ignore"):  # named below, not warned of
        out = np.array([base @ row for row in _jacobi_rows(JACOBI_22, n, x, lo)])
    bad = np.nonzero(~np.isfinite(out))[0]  # degrees, the lowest first
    if bad.size:
        raise ValueError(f"f's samples overflow the degree-{lo + bad[0]} coefficient")
    return out


def fourier_jacobi_coeff(f, n: int):
    """Coefficient a_n(f) = integral of f(x) P_n^(2,2)(x) (1 - x^2)^2 dx: entry
    n of fourier_jacobi_series(f, n), bit for bit.  An f that returns one row
    of samples per function, shape (k, M), gets one coefficient per row."""
    n = _check_int(n, "n", 0)
    out = _coefficients(f, n, lo=n)[0]
    return float(out) if out.ndim == 0 else out


def fourier_jacobi_series(f, k_max: int) -> CoefficientSequence:
    """All coefficients a_0(f) .. a_{k_max}(f) on one shared quadrature grid.

    A non-finite sample raises ValueError naming its x, and a finite f that
    overflows a coefficient one naming its degree.
    """
    return CoefficientSequence(_coefficients(f, _check_int(k_max, "k_max", 0)))
