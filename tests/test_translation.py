import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings, strategies as st

from smoothop.orthopoly import JACOBI_22, jacobi_eval
from smoothop.translation import (
    DEFAULT_CANDIDATES,
    EDGE_EPS,
    Multiplier,
    calibrate_multiplier,
    calibration_report,
    default_multiplier,
    fit_multiplier,
    kernel_eval,
    multiplier_eval,
    translate,
    translate_trig,
    weight_S,
)

XGRID = np.linspace(-0.95, 0.95, 21)

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestKernel:
    def test_point_values(self):
        # z = 1 collapses the kernel to 1 - R^2 - 2(1-y^2)(1-z^2) + ... with sz = 0
        assert_allclose(kernel_eval(0.3, 0.7, 1.0), 1.0 - (0.3 * 0.7 - math.sqrt(1 - 0.09) * math.sqrt(1 - 0.49)) ** 2)
        # y = 1 forces R = x and removes both correction terms
        assert_allclose(kernel_eval(0.5, 1.0, 0.3), 0.75)
        # x = 1: R = y, K = 1 - y^2 - 2(1-y^2)(1-z^2)
        y, z = 0.2, -0.4
        assert_allclose(kernel_eval(1.0, y, z), 1 - y**2 - 2 * (1 - y**2) * (1 - z**2))

    @settings(max_examples=60, deadline=None)
    @given(unit, unit, unit)
    def test_finite_on_the_cube(self, x, y, z):
        val = kernel_eval(x, y, z)
        assert np.isfinite(val)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="z ="):
            kernel_eval(0.1, 0.1, 1.2)

    def test_weight_factor(self):
        assert weight_S(0.5) == 0.75
        assert_allclose(weight_S(np.array([0.0, 1.0])), [1.0, 0.0])


class TestTranslate:
    def test_preserves_constants(self):
        one = lambda x: np.ones_like(x)
        for y in (-1.0, -0.3, 0.0, 0.8, 1.0):
            vals = translate(one, y, XGRID, M=16)
            assert np.max(np.abs(vals - 1.0)) < 1e-12

    def test_identity_at_y_one(self):
        for d in range(21):
            f = lambda x, _d=d: jacobi_eval(JACOBI_22, _d, x)
            vals = translate(f, 1.0, XGRID, M=max(16, (d + 6) // 2))
            assert np.max(np.abs(vals - f(XGRID))) < 1e-10

    def test_linearity(self):
        f = lambda x: x**3 - x
        g = lambda x: np.cos(3 * x)
        combo = lambda x: 1.7 * f(x) - 0.6 * g(x)
        lhs = translate(combo, 0.4, XGRID, M=64)
        rhs = 1.7 * translate(f, 0.4, XGRID, M=64) - 0.6 * translate(g, 0.4, XGRID, M=64)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_quadrature_size_saturates_for_polynomials(self):
        f = lambda x: jacobi_eval(JACOBI_22, 6, x)
        exact_m = (6 + 6) // 2
        a = translate(f, 0.35, XGRID, M=exact_m)
        b = translate(f, 0.35, XGRID, M=40)
        assert np.max(np.abs(a - b)) < 1e-13

    def test_rank_one_action_on_basis(self):
        ys = np.linspace(-0.9, 0.9, 7)
        for n in (0, 1, 4, 6):
            f = lambda x, _n=n: jacobi_eval(JACOBI_22, _n, x)
            A = np.column_stack([translate(f, y, XGRID, M=16) for y in ys])
            sv = np.linalg.svd(A, compute_uv=False)
            assert sv[1] <= 1e-10 * sv[0]

    def test_edge_band_refused(self):
        with pytest.raises(ValueError, match="singular"):
            translate(np.abs, 0.5, 1.0 - EDGE_EPS / 2)
        with pytest.raises(ValueError):
            translate(np.abs, 0.5, np.array([0.0, 0.99999999]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            translate(np.abs, 1.5, 0.0)
        with pytest.raises(ValueError):
            translate(np.abs, 0.5, 0.0, M=0)

    def test_scalar_output(self):
        assert isinstance(translate(np.abs, 0.5, 0.25), float)

    def test_y_within_the_domain_slack_beyond_one(self):
        # T_1 f = f and T_{-1} f = f(-x), so both give |x| here
        for y in (1 + 1e-13, -1 - 1e-13):
            assert_allclose(translate(np.abs, y, XGRID, M=16), np.abs(XGRID), atol=1e-10)


class TestTranslateTrig:
    def test_matches_algebraic_form(self):
        fs = [np.abs, lambda x: x**2, lambda x: jacobi_eval(JACOBI_22, 5, x)]
        for f in fs:
            for t in (-1.2, -0.3, 0.3, 1.2, 2.5):
                lhs = translate_trig(f, t, XGRID, M=128)
                rhs = translate(f, math.cos(t), XGRID, M=128)
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_zero_angle_is_identity(self):
        vals = translate_trig(np.abs, 0.0, XGRID, M=32)
        assert np.max(np.abs(vals - np.abs(XGRID))) < 1e-13

    def test_constant_preserved(self):
        vals = translate_trig(lambda x: np.ones_like(x), math.pi / 3, XGRID, M=32)
        assert np.max(np.abs(vals - 1.0)) < 1e-12

    def test_even_in_the_angle_bit_for_bit(self):
        fs = [np.abs, lambda x: x**3 - x, lambda x: np.exp(x) * np.sin(5 * x)]
        for f in fs:
            for t in (1e-9, 0.015625, 0.3, 1.2, 2.5, math.pi):
                assert np.array_equal(translate_trig(f, t, XGRID), translate_trig(f, -t, XGRID))


def test_multi_pass_call_matches_single_point_calls():
    # 4097 x 128 grid points span several passes of the translation core
    x = np.linspace(-0.999, 0.999, 4097)
    f = lambda v: np.abs(v - 0.1) ** 1.5
    for translated in (
        lambda pts: translate_trig(f, 0.2, pts, M=128),
        lambda pts: translate(f, -0.4, pts, M=128),
    ):
        whole = translated(x)
        single = np.array([translated(float(xi)) for xi in x])
        assert np.max(np.abs(whole - single)) <= 1e-14 * np.max(np.abs(single))


class TestMultiplier:
    def test_fit_degree_zero_is_constant_one(self):
        for y in (-0.8, 0.5, 1.0):
            assert_allclose(fit_multiplier(0, y), 1.0, atol=1e-12)

    def test_fit_degree_one_is_y_cubed(self):
        for y in (-0.7, 0.37, 0.9):
            assert_allclose(fit_multiplier(1, y), y**3, atol=1e-12)

    def test_fit_is_one_at_y_one(self):
        for n in range(13):
            assert_allclose(fit_multiplier(n, 1.0), 1.0, atol=1e-10)

    def test_fit_independent_of_quadrature_size(self):
        a = fit_multiplier(3, 0.6, M=8)
        b = fit_multiplier(3, 0.6, M=32)
        assert_allclose(a, b, atol=1e-10)

    def test_unvalidated_multiplier_refuses_evaluation(self):
        m = Multiplier(JACOBI_22, JACOBI_22, validated=False)
        with pytest.raises(ValueError, match="validated"):
            multiplier_eval(m, 2, 0.5)

    def test_calibration_selects_unique_candidate(self):
        m = calibrate_multiplier(n_max=6, y_grid=np.linspace(-1, 1, 9))
        assert m.validated
        assert (m.first_term_basis.alpha_idx, m.first_term_basis.beta_idx) == (0.0, 0.0)
        assert (m.second_term_basis.alpha_idx, m.second_term_basis.beta_idx) == (2.0, 2.0)
        assert m.max_residual <= 1e-8
        losers = {k: v for k, v in m.residual_table.items() if not k.startswith("(0,0)")}
        assert len(losers) == len(DEFAULT_CANDIDATES) - 1
        assert all(v >= 1e-4 for v in losers.values())

    def test_calibration_with_only_wrong_candidates(self):
        wrong = [((1.0, 1.0), (2.0, 2.0)), ((2.0, 2.0), (2.0, 2.0))]
        m = calibrate_multiplier(candidates=wrong, n_max=4)
        assert not m.validated
        assert all(v >= 1e-4 for v in m.residual_table.values())

    def test_calibrated_form_tracks_fit_off_grid(self):
        m = default_multiplier()
        for n in (0, 2, 5, 9):
            for y in (-0.642, 0.118, 0.815):
                assert_allclose(multiplier_eval(m, n, y), fit_multiplier(n, y), atol=1e-8)

    def test_calibrated_form_is_one_at_endpoint(self):
        m = default_multiplier()
        for n in range(13):
            assert_allclose(multiplier_eval(m, n, 1.0), 1.0, atol=1e-10)

    def test_report_round_trips_through_json(self):
        m = default_multiplier()
        blob = json.dumps(calibration_report(m))
        back = json.loads(blob)
        assert back["validated"] is True
        assert back["first_term_basis"] == [0.0, 0.0]
        assert back["degree_shift"] == 2
        assert set(back["residual_table"]) == {
            "(0,0)+(2,2)", "(1,1)+(2,2)", "(2,2)+(2,2)", "(3,1)+(2,2)",
        }


@pytest.mark.parametrize(
    "kernel, param, x, name",
    [
        (translate, math.nan, 0.5, "y"),
        (translate, 0.5, math.nan, "x"),
        (translate, 0.5, np.array([0.1, math.nan]), "x"),
        (translate_trig, math.nan, 0.5, "t"),
        (translate_trig, math.inf, 0.5, "t"),
        (translate_trig, -math.inf, 0.5, "t"),
        (translate_trig, 0.3, math.nan, "x"),
    ],
)
def test_non_finite_arguments_rejected(kernel, param, x, name):
    with pytest.raises(ValueError, match=f"{name} = "):
        kernel(np.abs, param, x)
