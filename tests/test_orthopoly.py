import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings, strategies as st
from scipy.special import binom, eval_jacobi, jn_zeros

from smoothop import orthopoly
from smoothop.approx import best_approx, best_approx_sequence
from smoothop.harness import (
    choose_block_level,
    class_fit,
    converse_table,
    dyadic_bound,
    get_test_function,
    verify_lemma1,
)
from smoothop.modulus import modulus_omega
from smoothop.orthopoly import (
    JACOBI_22,
    LEGENDRE,
    CoefficientSequence,
    JacobiBasis,
    fourier_jacobi_coeff,
    fourier_jacobi_series,
    gauss_chebyshev,
    gauss_legendre,
    jacobi_eval,
)
from smoothop.translation import (
    calibrate_multiplier,
    default_multiplier,
    fit_multiplier,
    multiplier_eval,
    translate,
)
from smoothop.weighted_space import WeightedSpace, sup_grid, weighted_norm


def jacobi_reference(basis, n, x):
    """Explicit binomial-sum Jacobi evaluation, normalized to 1 at x = 1.

    Safe up to n ~ 12; beyond that the alternating sum starts losing digits.
    """
    a, b = basis.alpha_idx, basis.beta_idx
    total = np.zeros_like(np.asarray(x, dtype=float))
    for s in range(n + 1):
        total = total + (
            math.comb(n + int(a), n - s)
            * math.comb(n + int(b), s)
            * ((x - 1) / 2) ** s
            * ((x + 1) / 2) ** (n - s)
        )
    return total / math.comb(n + int(a), n)


def jacobi_recurrence_reference(basis, n, x):
    """Degrees 0..n by the three-term recurrence, coefficients recomputed at
    every step and a fresh array per step (the loop jacobi_eval replaced)."""
    a, b = basis.alpha_idx, basis.beta_idx
    p_prev = np.ones_like(x)
    out = [p_prev]
    if n == 0:
        return out
    p_curr = 0.5 * (a - b + (a + b + 2) * x)
    out.append(p_curr)
    for m in range(2, n + 1):
        c1 = 2 * m * (m + a + b) * (2 * m + a + b - 2)
        c2 = (2 * m + a + b - 1) * (a * a - b * b)
        c3 = (2 * m + a + b - 2) * (2 * m + a + b - 1) * (2 * m + a + b)
        c4 = 2 * (m + a - 1) * (m + b - 1) * (2 * m + a + b)
        p_prev, p_curr = p_curr, ((c2 + c3 * x) * p_curr - c4 * p_prev) / c1
        out.append(p_curr)
    return out


def legendre_pair_reference(M, x):
    """(P_M(x), P_{M-1}(x)) with a fresh array per step (the loop
    gauss_legendre's Newton iteration used to run)."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for m in range(2, M + 1):
        p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
    return p, p_prev


def legendre_node_weight_reference(M, x0):
    """(node, weight) of the M-point Gauss-Legendre rule nearest x0, as
    Decimals: Newton on the recurrence in 40-digit decimal arithmetic.

    numpy's leggauss and scipy's roots_legendre are off by 1e-8 in the end
    weights at M = 1025, so neither can serve as the reference.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(float(x0))
        for _ in range(5):  # quadratic from a double: 1e-17, 1e-34, then the floor
            p_prev, p = Decimal(1), x
            for m in range(2, M + 1):
                p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
            dp = M * (x * p - p_prev) / (x * x - 1)
            x -= p / dp
        return x, 2 / ((1 - x * x) * dp * dp)


def chebyshev_moment(k):
    """integral of z^k / sqrt(1 - z^2) over [-1, 1]."""
    if k % 2 == 1:
        return 0.0
    num = math.prod(range(k - 1, 0, -2)) or 1
    den = math.prod(range(k, 0, -2)) or 1
    return math.pi * num / den


class TestJacobiEval:
    def test_degree_zero_is_one(self):
        x = np.linspace(-1, 1, 7)
        assert_allclose(jacobi_eval(JACOBI_22, 0, x), np.ones(7))

    def test_endpoint_normalization_exact(self):
        for n in range(31):
            assert jacobi_eval(JACOBI_22, n, 1.0) == 1.0

    def test_odd_degree_vanishes_at_origin(self):
        assert jacobi_eval(JACOBI_22, 1, 0.0) == 0.0
        assert abs(jacobi_eval(JACOBI_22, 5, 0.0)) < 1e-15

    @pytest.mark.parametrize("basis", [JACOBI_22, LEGENDRE, JacobiBasis(3, 1)])
    def test_matches_binomial_sum(self, basis):
        x = np.linspace(-1, 1, 25)
        for n in range(13):
            assert_allclose(
                jacobi_eval(basis, n, x), jacobi_reference(basis, n, x),
                atol=1e-12, rtol=0,
            )

    def test_recurrence_consistency(self):
        # one recurrence step applied outside the implementation
        a = b = 2.0
        x = np.linspace(-0.99, 0.99, 40)
        for n in range(1, 30):
            m = n + 1
            c1 = 2 * m * (m + a + b) * (2 * m + a + b - 2)
            c2 = (2 * m + a + b - 1) * (a * a - b * b)
            c3 = (2 * m + a + b - 2) * (2 * m + a + b - 1) * (2 * m + a + b)
            c4 = 2 * (m + a - 1) * (m + b - 1) * (2 * m + a + b)
            e_prev = JACOBI_22.endpoint_value(n - 1)
            e_curr = JACOBI_22.endpoint_value(n)
            e_next = JACOBI_22.endpoint_value(n + 1)
            stepped = (
                (c2 + c3 * x) * e_curr * jacobi_eval(JACOBI_22, n, x)
                - c4 * e_prev * jacobi_eval(JACOBI_22, n - 1, x)
            ) / (c1 * e_next)
            assert_allclose(stepped, jacobi_eval(JACOBI_22, n + 1, x), atol=1e-12)

    def test_symmetry_for_equal_indices(self):
        x = np.linspace(-1, 1, 17)
        for n in range(9):
            assert_allclose(
                jacobi_eval(JACOBI_22, n, -x),
                (-1.0) ** n * jacobi_eval(JACOBI_22, n, x),
                atol=1e-14,
            )

    def test_domain_and_degree_errors(self):
        with pytest.raises(ValueError):
            jacobi_eval(JACOBI_22, 3, 1.5)
        with pytest.raises(ValueError):
            jacobi_eval(JACOBI_22, -1, 0.5)
        with pytest.raises(ValueError):
            JacobiBasis(-1.5, 0.0)

    def test_scalar_in_scalar_out(self):
        out = jacobi_eval(JACOBI_22, 4, 0.3)
        assert isinstance(out, float)

    @pytest.mark.parametrize("basis", [LEGENDRE, JacobiBasis(1, 1), JACOBI_22, JacobiBasis(3, 1)])
    def test_recurrence_bit_identical_to_reference_loop(self, basis):
        xs = [np.asarray(0.3), np.linspace(-1, 1, 37),
              np.random.default_rng(2).uniform(-1, 1, (5, 7))]
        # a falling and rising n reuses the cached coefficient tables by prefix
        for n in (64, 3, 17, 0, 1, 2, 40):
            for x in xs:
                got = [p.copy() for p in orthopoly._jacobi_standard(basis, n, x)]
                ref = jacobi_recurrence_reference(basis, n, x)
                assert len(got) == n + 1
                assert all(np.array_equal(g, r) for g, r in zip(got, ref))

    @pytest.mark.parametrize("basis", [LEGENDRE, JacobiBasis(1, 1), JACOBI_22, JacobiBasis(3, 1)])
    def test_matches_scipy(self, basis):
        a, b = basis.alpha_idx, basis.beta_idx
        x = np.linspace(-1, 1, 101)
        for n in range(65):
            expected = eval_jacobi(n, a, b, x) / eval_jacobi(n, a, b, 1.0)
            assert np.max(np.abs(jacobi_eval(basis, n, x) - expected)) <= 1e-13

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5])
    def test_endpoint_value_of_non_integer_alpha_past_the_gamma_range(self, alpha):
        # gamma(n + alpha + 1) overflows from n + alpha = 171 on
        basis = JacobiBasis(alpha, 0.0)
        ns = np.arange(1001)
        got = np.array([basis.endpoint_value(int(n)) for n in ns])
        # scipy's binom itself errs by up to 2e-12 relative at these n
        assert_allclose(got, binom(ns + alpha, ns), rtol=5e-12)
        for n in (170, 171, 200, 1000):
            exact = math.prod((k + Fraction(alpha)) / k for k in range(1, n + 1))
            assert_allclose(got[n], float(exact), rtol=1e-14)
            assert_allclose(jacobi_eval(basis, n, 1.0), 1.0, rtol=1e-10)


class TestQuadrature:
    def test_chebyshev_single_node(self):
        rule = gauss_chebyshev(1)
        assert_allclose(rule.nodes, [0.0], atol=1e-16)
        assert_allclose(rule.weights, [math.pi])

    def test_legendre_single_node(self):
        rule = gauss_legendre(1)
        assert_allclose(rule.nodes, [0.0], atol=1e-16)
        assert_allclose(rule.weights, [2.0])

    def test_legendre_nodes_interior_ascending_symmetric(self):
        for M in (2, 7, 64, 256, 257, 1025):
            rule = gauss_legendre(M)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(np.abs(rule.nodes) < 1)
            # mirrored bit for bit, weights too, with +0.0 in the middle of an odd M
            assert np.array_equal(rule.nodes, -rule.nodes[::-1]), M
            assert np.array_equal(rule.weights, rule.weights[::-1]), M
            if M % 2:
                middle = rule.nodes[M // 2]
                assert middle == 0.0 and not np.signbit(middle), M
            assert_allclose(rule.weights.sum(), 2.0, rtol=1e-14)

    def test_chebyshev_nodes_mirrored_cosines(self):
        for M in (1, 2, 7, 16, 128, 129):
            nodes = gauss_chebyshev(M).nodes
            assert np.all(np.diff(nodes) > 0)
            # mirrored bit for bit, with +0.0 in the middle of an odd M
            assert np.array_equal(nodes, -nodes[::-1]), M
            if M % 2:
                assert nodes[M // 2] == 0.0 and not np.signbit(nodes[M // 2]), M
            j = np.arange(1, M + 1)
            assert_allclose(nodes, np.cos((2 * j - 1) * np.pi / (2 * M))[::-1], rtol=0, atol=4e-16)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.data())
    def test_chebyshev_moment_exactness(self, M, data):
        k = data.draw(st.integers(min_value=0, max_value=2 * M - 1))
        rule = gauss_chebyshev(M)
        assert abs(rule.weights @ rule.nodes**k - chebyshev_moment(k)) < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.data())
    def test_legendre_moment_exactness(self, M, data):
        k = data.draw(st.integers(min_value=0, max_value=2 * M - 1))
        rule = gauss_legendre(M)
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(rule.weights @ rule.nodes**k - exact) < 1e-12

    def test_legendre_known_integrals(self):
        rule = gauss_legendre(3)
        assert_allclose(rule.weights @ rule.nodes**4, 2 / 5, rtol=1e-14)
        rule = gauss_legendre(10)
        assert_allclose(rule.weights @ (1 - rule.nodes**2) ** 2, 16 / 15, rtol=1e-14)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            gauss_chebyshev(0)
        with pytest.raises(ValueError):
            gauss_legendre(0)

    def test_legendre_rule_cached_and_read_only(self):
        rule = gauss_legendre(64)
        assert gauss_legendre(64) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    @pytest.mark.parametrize("M", [1, 2, 17, 256, 1025])
    def test_legendre_rule_bit_identical_to_reference_recurrence(self, M, monkeypatch):
        rule = gauss_legendre(M)
        monkeypatch.setattr(orthopoly, "_legendre_pair", legendre_pair_reference)
        ref = gauss_legendre.__wrapped__(M)  # an uncached build on the reference loop
        assert np.array_equal(rule.nodes, ref.nodes)
        assert np.array_equal(rule.weights, ref.weights)

    @pytest.mark.parametrize("M, weight_rtol", [(256, 2e-12), (1025, 5e-11)])
    def test_legendre_rule_matches_decimal_reference(self, M, weight_rtol):
        rule = gauss_legendre(M)
        for i in [*range(M - 8, M), M // 2]:  # the 8 nodes nearest 1 and the middle one
            x, w = legendre_node_weight_reference(M, rule.nodes[i])
            assert abs(float(Decimal(float(rule.nodes[i])) - x)) <= 1e-16, i
            assert abs(float((Decimal(float(rule.weights[i])) - w) / w)) <= weight_rtol, i

    def test_bessel_zero_table(self):
        np.testing.assert_array_max_ulp(orthopoly._J0_ZEROS, jn_zeros(0, 20), maxulp=1)

    def test_legendre_rule_pass_count(self, monkeypatch):
        # one pass of the recurrence from 64 nodes on, at most two below; the
        # one guess of M = 2 is 2e-4 off, and its error bound holds after three
        passes = []
        pair = orthopoly._legendre_pair

        def counted(M, x):
            passes.append(M)
            return pair(M, x)

        monkeypatch.setattr(orthopoly, "_legendre_pair", counted)
        for M in [*range(1, 321), 511, 512, 1024, 1025, 2048, 2049]:
            passes.clear()
            gauss_legendre.__wrapped__(M)
            if M == 2:
                assert len(passes) == 3
            elif M < 64:
                assert len(passes) <= 2, M
            else:
                assert len(passes) == 1, M

    def test_legendre_rule_not_converging_raises(self, monkeypatch):
        passes = []

        def stuck(M, x):  # a Newton step of 1e-6 / M at every pass
            passes.append(M)
            p = np.full_like(x, 1e-6)
            return p, x * p + (1.0 - x * x)

        monkeypatch.setattr(orthopoly, "_legendre_pair", stuck)
        with pytest.raises(RuntimeError, match=r"did not converge for M = 8:"):
            gauss_legendre.__wrapped__(8)
        assert len(passes) == 100

    def test_chebyshev_rule_cached_and_read_only(self):
        rule = gauss_chebyshev(128)
        assert gauss_chebyshev(128) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0


class TestFourierJacobi:
    def test_constant_against_weight_mass(self):
        a0 = fourier_jacobi_coeff(lambda x: np.ones_like(x), 0)
        assert_allclose(a0, 16 / 15, rtol=1e-14)

    def test_orthogonality_cross_terms_vanish(self):
        p3 = lambda x: jacobi_eval(JACOBI_22, 3, x)
        assert abs(fourier_jacobi_coeff(p3, 5)) < 1e-12
        assert abs(fourier_jacobi_coeff(p3, 0)) < 1e-12

    def test_diagonal_value_closed_form(self):
        p2 = lambda x: jacobi_eval(JACOBI_22, 2, x)
        assert_allclose(fourier_jacobi_coeff(p2, 2), 16 / 405, rtol=1e-13)

    def test_diagonal_value_polynomial_algebra(self):
        # same number through explicit coefficient algebra, no quadrature
        from numpy.polynomial import polynomial as P

        coeffs = np.zeros(3)
        for s in range(3):
            term = np.array([1.0])
            for _ in range(s):
                term = P.polymul(term, [-0.5, 0.5])
            for _ in range(2 - s):
                term = P.polymul(term, [0.5, 0.5])
            coeffs[: term.size] += math.comb(4, 2 - s) * math.comb(4, s) * term
        coeffs /= math.comb(4, 2)
        integrand = P.polymul(P.polymul(coeffs, coeffs), [1, 0, -2, 0, 1])
        anti = P.polyint(integrand)
        exact = P.polyval(1.0, anti) - P.polyval(-1.0, anti)
        p2 = lambda x: jacobi_eval(JACOBI_22, 2, x)
        assert_allclose(fourier_jacobi_coeff(p2, 2), exact, rtol=1e-13)

    def test_series_matches_single_coefficients(self):
        f = lambda x: x**3 - 0.2 * x + 0.5
        series = fourier_jacobi_series(f, 5)
        assert len(series) == 6
        for k in range(6):
            assert_allclose(series[k], fourier_jacobi_coeff(f, k), atol=1e-14)

    def test_series_bit_identical_to_per_degree_recurrence(self):
        f = lambda x: np.abs(x - 0.3) + np.cos(4 * x)
        k_max = 40
        rule = gauss_legendre(2 * (k_max + 8))
        x = rule.nodes
        base = rule.weights * f(x) * (1.0 - x * x) ** 2
        reference = [base @ jacobi_eval(JACOBI_22, k, x) for k in range(k_max + 1)]
        assert np.array_equal(fourier_jacobi_series(f, k_max).values, reference)

    @pytest.mark.parametrize("n", [3, 10, 20])
    def test_coeff_is_series_entry_bit_for_bit(self, n):
        f = get_test_function("randpoly")
        assert fourier_jacobi_coeff(f, n) == fourier_jacobi_series(f, n)[n]

    @pytest.mark.filterwarnings("error")
    def test_finite_samples_overflowing_a_coefficient_named(self):
        huge = lambda x: np.full_like(x, 1.7e308)
        with pytest.raises(ValueError, match="samples overflow the degree-0 coefficient"):
            fourier_jacobi_coeff(huge, 0)
        with pytest.raises(ValueError, match="samples overflow the degree-0 coefficient"):
            fourier_jacobi_series(huge, 3)

    def test_non_finite_sample_named_by_x(self):
        x0 = gauss_legendre(2 * (3 + 8)).nodes[0]
        with pytest.raises(ValueError, match=f"x = {x0}"):
            fourier_jacobi_coeff(lambda x: x * np.nan, 3)
        x5 = gauss_legendre(2 * (4 + 8)).nodes[5]
        with pytest.raises(ValueError, match=f"x = {x5}"):
            fourier_jacobi_series(lambda x: np.where(x >= x5, np.inf, x), 4)

    def test_coeff_of_rows(self):
        f = lambda x: np.stack([x**2, np.abs(x)])
        rows = fourier_jacobi_coeff(f, 2)
        assert rows.shape == (2,)
        assert_allclose(rows, [fourier_jacobi_coeff(lambda x: x**2, 2),
                               fourier_jacobi_coeff(np.abs, 2)], rtol=1e-15, atol=1e-16)

    def test_coefficient_sequence_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CoefficientSequence(np.array([1.0, np.nan]))


SP2 = WeightedSpace(2, 1)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: gauss_legendre(16.5), "M", id="gauss_legendre"),
    pytest.param(lambda: gauss_chebyshev(16.5), "M", id="gauss_chebyshev"),
    pytest.param(lambda: translate(np.abs, 0.3, 0.1, M=16.5), "M", id="translate-M"),
    pytest.param(lambda: jacobi_eval(JACOBI_22, 2.0, 0.3), "n", id="jacobi_eval"),
    pytest.param(lambda: multiplier_eval(default_multiplier(), 1.5, 0.3), "n", id="multiplier_eval"),
    pytest.param(lambda: fourier_jacobi_coeff(np.abs, 2.5), "n", id="fourier_jacobi_coeff"),
    pytest.param(lambda: fourier_jacobi_series(np.abs, 2.5), "k_max", id="fourier_jacobi_series"),
    pytest.param(lambda: fourier_jacobi_series(np.abs, math.nan), "k_max", id="series-nan"),
    pytest.param(lambda: best_approx(np.abs, 2.0, SP2), "n", id="best_approx"),
    pytest.param(lambda: best_approx_sequence(np.abs, 4.0, SP2), "n_max", id="best_approx_sequence"),
    pytest.param(lambda: weighted_norm(np.abs, SP2, math.nan), "resolution", id="weighted_norm-nan"),
    pytest.param(lambda: modulus_omega(np.abs, 0.1, SP2, t_grid=5.0), "t_grid", id="modulus-t_grid"),
    # an integral float is refused even when the integer's rule or grid is cached
    pytest.param(lambda: gauss_legendre(16) and gauss_legendre(16.0), "M", id="cached-float"),
    pytest.param(lambda: sup_grid(4097).size and sup_grid(4097.0), "resolution",
                 id="sup_grid-cached-float"),
    # sup_grid(16.5) used to return a grid whose first two points coincide
    pytest.param(lambda: sup_grid(16.5), "resolution", id="sup_grid"),
    pytest.param(lambda: fit_multiplier(1.5, 0.3), "n", id="fit_multiplier"),
    pytest.param(lambda: calibrate_multiplier(n_max=2.5), "n_max", id="calibrate_multiplier"),
    # converse_table used to compute the row of int(4.5) = 4
    pytest.param(lambda: converse_table(np.abs, [4.5, 8], SP2), "n_list[0]",
                 id="converse_table"),
    pytest.param(lambda: verify_lemma1(n_max=2.5), "n_max", id="verify_lemma1-n_max"),
    pytest.param(lambda: verify_lemma1(n_max=True), "n_max", id="verify_lemma1-bool"),
    pytest.param(lambda: verify_lemma1(grid=5.5), "grid", id="verify_lemma1-grid"),
    pytest.param(lambda: verify_lemma1(seed=0.5), "seed", id="verify_lemma1-seed"),
    pytest.param(lambda: get_test_function("abs", seed=1.5), "seed", id="get_test_function"),
    pytest.param(lambda: choose_block_level(2.5), "n", id="choose_block_level"),
    pytest.param(lambda: dyadic_bound(np.abs, 8.5, SP2), "n", id="dyadic_bound"),
    pytest.param(lambda: class_fit(np.abs, SP2, 8.5), "n_max", id="class_fit"),
])
def test_non_integer_size_or_degree_named(call, name):
    with pytest.raises(ValueError, match=f"{re.escape(name)} must be an integer"):
        call()


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: gauss_legendre(0), "M", id="gauss_legendre"),
    pytest.param(lambda: gauss_chebyshev(0), "M", id="gauss_chebyshev"),
    pytest.param(lambda: translate(np.abs, 0.3, 0.1, M=0), "M", id="translate-M"),
    pytest.param(lambda: jacobi_eval(JACOBI_22, -1, 0.3), "n", id="jacobi_eval"),
    pytest.param(lambda: multiplier_eval(default_multiplier(), -1, 0.3), "n", id="multiplier_eval"),
    pytest.param(lambda: fit_multiplier(-1, 0.3), "n", id="fit_multiplier"),
    pytest.param(lambda: calibrate_multiplier(n_max=-1), "n_max", id="calibrate_multiplier"),
    pytest.param(lambda: fourier_jacobi_coeff(np.abs, -1), "n", id="fourier_jacobi_coeff"),
    pytest.param(lambda: fourier_jacobi_series(np.abs, -1), "k_max", id="fourier_jacobi_series"),
    pytest.param(lambda: sup_grid(15), "resolution", id="sup_grid"),
    pytest.param(lambda: weighted_norm(np.abs, SP2, 15), "resolution", id="weighted_norm"),
    pytest.param(lambda: modulus_omega(np.abs, 0.1, SP2, t_grid=1), "t_grid", id="modulus-t_grid"),
    pytest.param(lambda: best_approx(np.abs, 0, SP2), "n", id="best_approx"),
    pytest.param(lambda: best_approx_sequence(np.abs, 0, SP2), "n_max", id="best_approx_sequence"),
    pytest.param(lambda: converse_table(np.abs, [4, 0], SP2), "n_list[1]", id="converse_table"),
    pytest.param(lambda: verify_lemma1(n_max=-1), "n_max", id="verify_lemma1-n_max"),
    pytest.param(lambda: verify_lemma1(grid=1), "grid", id="verify_lemma1-grid"),
    pytest.param(lambda: verify_lemma1(seed=-1), "seed", id="verify_lemma1-seed"),
    pytest.param(lambda: get_test_function("randpoly", seed=-1), "seed", id="get_test_function"),
    pytest.param(lambda: choose_block_level(1), "n", id="choose_block_level"),
    pytest.param(lambda: dyadic_bound(np.abs, 1, SP2), "n", id="dyadic_bound"),
    pytest.param(lambda: class_fit(np.abs, SP2, 3), "n_max", id="class_fit"),
])
def test_integer_below_minimum_named(call, name):
    with pytest.raises(ValueError, match=f"{re.escape(name)} must be >= "):
        call()


def test_numpy_integers_accepted():
    n, M = np.int64(3), np.int32(16)
    assert jacobi_eval(JACOBI_22, n, 0.3) == jacobi_eval(JACOBI_22, 3, 0.3)
    assert np.array_equal(gauss_legendre(M).nodes, gauss_legendre(16).nodes)
    assert fourier_jacobi_series(np.abs, n).values.size == 4
    assert choose_block_level(np.int64(8)) == 3  # numpy ints lack bit_length
