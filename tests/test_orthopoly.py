import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings, strategies as st

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
        for M in (2, 7, 64, 256):
            rule = gauss_legendre(M)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(np.abs(rule.nodes) < 1)
            assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-16)
            assert_allclose(rule.weights.sum(), 2.0, rtol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.data())
    def test_chebyshev_moment_exactness(self, M, data):
        k = data.draw(st.integers(min_value=0, max_value=2 * M - 1))
        rule = gauss_chebyshev(M)
        assert abs(rule.integrate(lambda z: z**k) - chebyshev_moment(k)) < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.data())
    def test_legendre_moment_exactness(self, M, data):
        k = data.draw(st.integers(min_value=0, max_value=2 * M - 1))
        rule = gauss_legendre(M)
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(rule.integrate(lambda x: x**k) - exact) < 1e-12

    def test_legendre_known_integrals(self):
        assert_allclose(gauss_legendre(3).integrate(lambda x: x**4), 2 / 5, rtol=1e-14)
        assert_allclose(
            gauss_legendre(10).integrate(lambda x: (1 - x * x) ** 2), 16 / 15, rtol=1e-14
        )

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

    def test_coefficient_sequence_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CoefficientSequence(np.array([1.0, np.nan]))
