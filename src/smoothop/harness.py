"""Experiment drivers: operator property checks, the converse-inequality
table, its dyadic proof mechanics, and the smoothness-class exponent fit.

The drivers combine the lower modules into the package's headline
experiments:

* :func:`verify_lemma1` checks the five structural properties of the
  translation operator (linearity, identity at y = 1, rank-1 action on the
  Jacobi family, preservation of constants, and the coefficient multiplier
  identity).
* :func:`converse_table` measures the ratio omega(f, 1/n) * n^2 / sum(nu *
  E_nu), which the converse inequality bounds by a constant.
* :func:`dyadic_bound` reproduces the dyadic block decomposition behind that
  inequality and its two combinatorial steps.
* :func:`class_fit` fits decay exponents of E_n and omega(f, delta) and
  reports their difference; the two characterize the same smoothness class,
  so the exponents should agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as C

from .approx import _solver, best_approx_sequence
from .modulus import _check_omega_args, _omegas
from .orthopoly import (
    JACOBI_22, _check_int, _coefficients, _jacobi_rows, _symmetric, fourier_jacobi_series,
)
from .translation import _closed_form, _translate_jacobi, default_multiplier, translate
from .weighted_space import (
    SampledFunction,
    WeightedSpace,
    as_sampled,
    weighted_norm,
)

__all__ = [
    "get_test_function",
    "TEST_FUNCTION_NAMES",
    "PropertyCheck",
    "Lemma1Report",
    "verify_lemma1",
    "ConverseTableRow",
    "converse_table",
    "DyadicDecomposition",
    "choose_block_level",
    "dyadic_bound",
    "ClassFitResult",
    "class_fit",
]


# ---------------------------------------------------------------------------
# built-in test functions

def _randpoly(seed: int) -> SampledFunction:
    rng = np.random.default_rng(seed)
    return SampledFunction(C.Chebyshev(rng.uniform(-1.0, 1.0, 11)), name=f"randpoly(seed={seed})")


_LIBRARY = {
    "one": lambda seed: SampledFunction(lambda x: np.ones_like(x), name="one", degree=0),
    "x": lambda seed: SampledFunction(lambda x: np.asarray(x, dtype=float), name="x", degree=1),
    "x2": lambda seed: SampledFunction(lambda x: np.asarray(x) ** 2, name="x2", degree=2),
    "abs": lambda seed: SampledFunction(np.abs, name="abs"),
    "signabs32": lambda seed: SampledFunction(
        lambda x: np.sign(x) * np.abs(x) ** 1.5, name="signabs32"
    ),
    "absshift": lambda seed: SampledFunction(lambda x: np.abs(x - 0.25), name="absshift"),
    "randpoly": _randpoly,
}

TEST_FUNCTION_NAMES = tuple(_LIBRARY)


def get_test_function(spec: str, seed: int = 0) -> SampledFunction:
    """Resolve a test function by name, or parse comma-separated Chebyshev
    coefficients (e.g. "0.5,0,1" for T_0/2 + T_2), each finite and with a
    finite sum of magnitudes, which bounds |f| on [-1, 1]."""
    _check_int(seed, "seed", 0)
    if spec in _LIBRARY:
        return _LIBRARY[spec](seed)
    tokens = spec.split(",")
    try:
        coeffs = np.array([float(c) for c in tokens])
    except ValueError:
        raise ValueError(
            f"unknown function {spec!r}; known names: {', '.join(TEST_FUNCTION_NAMES)} "
            f"or comma-separated Chebyshev coefficients"
        ) from None
    finite = np.isfinite(coeffs)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"Chebyshev coefficient {i} must be finite, got {tokens[i].strip()}")
    # |f| <= sum |c_k| on [-1, 1]; Python floats overflow to inf without a warning
    if not np.isfinite(sum(map(abs, coeffs.tolist()))):
        raise ValueError(f"Chebyshev coefficients {spec!r} overflow: their magnitudes sum to inf")
    return SampledFunction(C.Chebyshev(coeffs), name=f"cheb{coeffs.tolist()}")


# ---------------------------------------------------------------------------
# Operator property suite (verify_lemma1)

@dataclass
class PropertyCheck:
    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass
class Lemma1Report:
    checks: list[PropertyCheck]
    n_max: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_lemma1(n_max: int = 20, grid: int = 24, seed: int = 0) -> Lemma1Report:
    """Check the five structural properties of the translation operator.

    n_max <= 20 bounds the degrees of the identity check; the rank-1 check
    needs grid >= 2 y values.
    """
    if _check_int(n_max, "n_max", 0) > 20:
        raise ValueError(f"n_max must be <= 20, got n_max = {n_max}")
    _check_int(grid, "grid", 2)
    _check_int(seed, "seed", 0)
    xg = _symmetric(np.linspace(-0.97, 0.97, grid)[: grid // 2], grid)  # translated in mirror pairs
    yg = np.linspace(-1.0, 1.0, grid)

    checks: list[PropertyCheck] = []

    # property 1: linearity
    rng = np.random.default_rng(seed)
    f1 = C.Chebyshev(rng.uniform(-1, 1, 8))
    f2 = C.Chebyshev(rng.uniform(-1, 1, 8))
    a, b = 1.7, -0.6
    combo = lambda x: a * f1(x) + b * f2(x)
    y2 = np.array([0.3, -0.8])
    lhs = translate(combo, y2, xg, M=16)
    rhs = a * translate(f1, y2, xg, M=16) + b * translate(f2, y2, xg, M=16)
    resid = float(np.max(np.abs(lhs - rhs)))
    checks.append(PropertyCheck("linearity", resid, 1e-12))

    # property 2: T_1 is the identity, on p_0 .. p_n_max in one family translation
    profiles = _jacobi_rows(JACOBI_22, n_max, xg)
    resid = float(np.max(np.abs(_translate_jacobi(n_max, 1.0, xg) - profiles)))
    checks.append(PropertyCheck("identity", resid, 1e-10))

    # property 3: rank-1 action on the Jacobi family
    resid = 0.0
    shifted = _translate_jacobi(min(n_max, 12), yg, xg)
    for profile, T in zip(profiles, shifted):
        A = np.ascontiguousarray(T.T)  # column j is y = yg[j], in C order
        sv = np.linalg.svd(A, compute_uv=False)
        sv_ratio = float(sv[1] / sv[0]) if sv[0] > 0 else 0.0
        coef = profile @ A / (profile @ profile)
        dev = float(np.linalg.norm(A - np.outer(profile, coef)) / np.linalg.norm(A))
        resid = max(resid, sv_ratio, dev)
    checks.append(PropertyCheck("rank1", resid, 1e-8))

    # property 4: T_y preserves constants (certifies the prefactor)
    one = lambda x: np.ones_like(x)
    resid = float(np.max(np.abs(translate(one, yg, xg, M=16) - 1.0)))
    checks.append(PropertyCheck("constant", resid, 1e-12))

    # property 5: a_k(T_y f) = R_k(y) a_k(f) on a seeded degree-10 polynomial,
    # R_0 .. R_10 from one run of the validated closed form's recurrences
    mult = default_multiplier()
    f = _randpoly(seed)
    base = fourier_jacobi_series(f, 10).values
    y9 = np.linspace(-1.0, 1.0, 9)
    expected = _closed_form(mult.first_term_basis, mult.second_term_basis, 10, y9) * base[:, None]
    shifted = _coefficients(lambda x: translate(f, y9, x), 10)
    resid = float(np.max(np.abs(shifted - expected)))
    checks.append(PropertyCheck("multiplier", resid, 1e-9))

    return Lemma1Report(checks, n_max)


# ---------------------------------------------------------------------------
# converse-inequality table

def _usable_sequence(fn: SampledFunction, n_max: int, space: WeightedSpace):
    """E_1, ..., E_{n_max}, each a usable best approximation: raises ValueError
    naming the first nu whose solver flags `reference_collapse`, or
    `exceeds_zero_polynomial` (E_nu above ||f|| on the solver's own grid)."""
    seq = best_approx_sequence(fn, n_max, space)
    for r in seq:
        if {"reference_collapse", "exceeds_zero_polynomial"} & set(r.flags):
            raise ValueError(
                f"best approximation at nu = {r.n} is unusable: E_nu = {r.value:.3e}, "
                f"solver flags {r.flags}"
            )
    return seq


def _converse_inputs(f, n_max: int, deltas, space: WeightedSpace, t_grid, M, norm_resolution,
                     lam: float | None = None):
    """The values E_1, ..., E_{n_max}, omega(f, delta) for each delta, and
    ||f|| on the norm grid.

    Each step refuses before the next, dearer one runs: the parameters of
    omega (and lambda, if given) are checked before any E_nu is solved, and
    every E_nu is checked usable before any omega is computed.
    """
    fn = as_sampled(f)
    grid = _check_omega_args(fn, space, deltas, t_grid, M, norm_resolution, lam)
    e = np.array([r.value for r in _usable_sequence(fn, n_max, space)])
    reports, fnorm = _omegas(fn, deltas, grid, t_grid, M)
    return e, [r.value for r in reports], fnorm


@dataclass
class ConverseTableRow:
    n: int
    omega: float
    rhs_sum: float
    ratio: float


def converse_table(
    f,
    n_list,
    space: WeightedSpace,
    t_grid: int = 33,
    M: int | None = None,
    norm_resolution: int | None = None,
) -> list[ConverseTableRow]:
    """omega(f, 1/n), the weighted sum of best approximations, and their ratio.

    ratio = omega(f, 1/n) * n^2 / sum_{nu=1..n} nu * E_nu.  The converse
    inequality bounds the ratio by a constant independent of f and n.

    Raises ValueError before any E_nu is solved for a bad parameter of omega
    (t_grid, M, norm_resolution), and before any omega is computed for an
    E_nu that is no usable best approximation.
    """
    n_list = [_check_int(n, f"n_list[{i}]", 1) for i, n in enumerate(n_list)]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be non-empty and strictly ascending, got {n_list}")
    e, omegas, fnorm = _converse_inputs(f, n_list[-1], [1.0 / n for n in n_list], space,
                                        t_grid, M, norm_resolution)
    nu = np.arange(1, len(e) + 1)
    # Noise floor for the degenerate case (f itself a polynomial): both sides
    # of the ratio are then pure roundoff and the ratio is reported as 0.
    floor = 1e-10 * fnorm
    rows = []
    for n, omega in zip(n_list, omegas):
        rhs = float(nu[:n] @ e[:n])
        if omega <= floor and rhs <= floor * n * (n + 1) / 2:
            ratio = 0.0
        elif rhs == 0:
            ratio = float("inf")
        else:
            ratio = omega * n * n / rhs
        rows.append(ConverseTableRow(n, omega, rhs, ratio))
    return rows


# ---------------------------------------------------------------------------
# dyadic proof mechanics

def choose_block_level(n: int) -> int:
    """The integer N with n/2 < 2^N <= n + 1 (largest such power of two)."""
    n = _check_int(n, "n", 2)
    N = (n + 1).bit_length() - 1
    assert n / 2 < 2**N <= n + 1
    return N


@dataclass
class DyadicDecomposition:
    n: int
    N: int
    blocks: np.ndarray
    e_values: np.ndarray
    block_sums: dict[str, float]
    checks: list[PropertyCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def dyadic_bound(f, n: int, space: WeightedSpace) -> DyadicDecomposition:
    """Dyadic block decomposition Q_k = P_{2^k} - P_{2^(k-1)} behind the
    converse inequality, with its two combinatorial proof steps.  Each
    ||Q_k|| is taken on the grid the E_nu are solved on.

    Checks, with the solver gap added to the tolerance budget:

    * triangle step: ||Q_k|| <= E_{2^(k-1)} + E_{2^k} + 2 gap;
    * block-sum step: 2^(2(mu-1)) E_{2^mu} <= sum_{nu=2^(mu-1)}^{2^mu-1} nu
      E_nu, which follows from monotonicity of E_nu.

    Raises ValueError for an E_nu that is no usable best approximation.
    """
    N = choose_block_level(n)
    seq = _usable_sequence(as_sampled(f), 2**N, space)
    e = np.array([r.value for r in seq])
    gap = max(r.residual_norm_gap for r in seq)

    polys = {k: seq[2**k - 1].polynomial() for k in range(N + 1)}
    res = _solver(space)[1]  # the triangle step holds within one discrete norm
    blocks = np.empty(N + 1)
    blocks[0] = weighted_norm(polys[0], space, res)
    for k in range(1, N + 1):
        blocks[k] = weighted_norm(polys[k] - polys[k - 1], space, res)

    checks = []
    tri = 0.0
    for k in range(1, N + 1):
        bound = e[2 ** (k - 1) - 1] + e[2**k - 1] + 2 * gap
        tri = max(tri, blocks[k] - bound)
    checks.append(PropertyCheck("block_triangle", tri, 1e-9))

    blk = 0.0
    for mu in range(1, N + 1):
        lhs = 2.0 ** (2 * (mu - 1)) * e[2**mu - 1]
        nus = np.arange(2 ** (mu - 1), 2**mu)
        rhs = float(nus @ e[nus - 1])
        budget = (2.0 ** (2 * (mu - 1)) + float(nus.sum())) * gap
        blk = max(blk, lhs - rhs - budget)
    checks.append(PropertyCheck("block_sum", blk, 1e-9))

    nu_all = np.arange(1, min(n, 2**N) + 1)
    block_sums = {
        "sum_block_norms": float(blocks.sum()),
        "nu_weighted_sum": float(nu_all @ e[: nu_all.size]),
        "solver_gap": float(gap),
    }
    return DyadicDecomposition(n, N, blocks, e, block_sums, checks)


# ---------------------------------------------------------------------------
# smoothness-class exponent fit

@dataclass
class ClassFitResult:
    lambda_best_approx: float
    lambda_modulus: float
    difference: float
    degenerate: bool
    points_best_approx: int
    points_modulus: int


def class_fit(
    f,
    space: WeightedSpace,
    n_max: int,
    lam: float | None = None,
    t_grid: int = 33,
    M: int | None = None,
) -> ClassFitResult:
    """Fit decay exponents: -slope of log E_n vs log n and slope of
    log omega(f, delta) vs log delta on the dyadic grid delta = 1/n.

    Both exponents estimate the same smoothness parameter; their difference
    is the desk-scale check.  E_n and omega values at roundoff level
    relative to ||f|| are left out of the fits, so c f fits as f does;
    with fewer than three points left (polynomial input) the fit is
    degenerate, which is reported, not raised.  A bad lambda or parameter
    of omega (t_grid, M) is refused before any E_n is solved, and an E_n
    that is no usable best approximation before any omega is computed.
    """
    _check_int(n_max, "n_max", 8)  # three dyadic deltas, the fewest a fit takes
    deltas = [1.0 / 2**k for k in range(1, 13) if 2**k <= n_max]
    e, omegas, fnorm = _converse_inputs(f, n_max, deltas, space, t_grid, M, None, lam)
    nu = np.arange(1, n_max + 1)
    mask = e > 1e-12 * fnorm
    omegas = np.array(omegas)
    wmask = omegas > 1e-14 * fnorm

    degenerate = int(mask.sum()) < 3 or int(wmask.sum()) < 3
    if degenerate:
        lam_e = lam_w = diff = float("nan")
    else:
        lam_e = -float(np.polyfit(np.log(nu[mask]), np.log(e[mask]), 1)[0])
        lam_w = float(np.polyfit(np.log(deltas)[wmask], np.log(omegas[wmask]), 1)[0])
        diff = abs(lam_e - lam_w)
    return ClassFitResult(lam_e, lam_w, diff, degenerate, int(mask.sum()), int(wmask.sum()))
