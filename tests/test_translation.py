import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings, strategies as st

from smoothop.orthopoly import JACOBI_22, JacobiBasis, fourier_jacobi_coeff, jacobi_eval
from smoothop import translation
from smoothop.weighted_space import SampledFunction
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


@pytest.mark.parametrize("poly", [
    np.polynomial.Chebyshev([1.0, 2.0, 3.0]), np.polynomial.Polynomial([1.0, -2.0, 0.5, 3.0]),
], ids=["Chebyshev", "Polynomial"])
def test_numpy_polynomial_sets_the_exact_rule(poly):
    # a numpy polynomial's degree is a method, called for the default M
    marked = SampledFunction(poly, degree=poly.degree())
    assert np.array_equal(translate(poly, 0.3, XGRID), translate(marked, 0.3, XGRID))
    t = [0.2, 1.1]
    assert np.array_equal(translate_trig(poly, t, XGRID), translate_trig(marked, t, XGRID))


@pytest.mark.parametrize("y", [0.3, [0.3, -0.4]], ids=["scalar", "1-d"])
@pytest.mark.parametrize("x", [0.5, [0.1, 0.5, -0.7]], ids=["scalar-x", "1-d-x"])
def test_constant_valued_callable(y, x):
    # a callable that returns one number is broadcast, as in every entry point
    shape = np.shape(y) + np.shape(x)
    got = translate(lambda x: 1.0, y, x)
    assert np.shape(got) == shape
    assert_allclose(got, 1.0, rtol=1e-12)
    got = translate_trig(lambda x: 2.0, y, x)
    assert np.shape(got) == shape
    assert_allclose(got, 2.0, rtol=1e-12)


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


class TestArrayY:
    F = staticmethod(lambda v: np.abs(v - 0.1) ** 1.5)
    YS = np.concatenate([[-1.0, 1.0], np.linspace(-0.95, 0.95, 11)])

    @pytest.mark.parametrize("X, M", [
        (21, 16),     # every y in one pass
        (40, 128),    # three y per pass, the batch spans five passes
        (4097, 128),  # X * M above _CHUNK: x-row chunks of one y
        (3, 9000),    # one x-row per pass
    ])
    def test_rows_equal_scalar_calls_bit_for_bit(self, X, M):
        x = np.linspace(-0.97, 0.97, X)
        batch = translate(self.F, self.YS, x, M=M)
        assert batch.shape == (self.YS.size, X)
        assert np.array_equal(batch, np.stack([translate(self.F, y, x, M=M) for y in self.YS]))

    def test_pass_sizes_stay_within_chunk(self):
        sizes = []

        def f(v):
            sizes.append(v.size)
            return self.F(v)

        # 13 y: one pass; three y per pass; 33 x-row chunks for each y
        for X, M, passes in [(21, 16, 1), (40, 128, 5), (4097, 128, 13 * 33)]:
            sizes.clear()
            translate(f, self.YS, np.linspace(-0.97, 0.97, X), M=M)
            assert len(sizes) == passes
            assert max(sizes) <= translation._CHUNK
            assert sum(sizes) == self.YS.size * X * M

    def test_output_shapes(self):
        assert translate(np.abs, [0.2, 0.5], 0.25).shape == (2,)
        assert translate(np.abs, [0.2], XGRID).shape == (1, XGRID.size)
        assert translate(np.abs, np.empty(0), XGRID).shape == (0, XGRID.size)

    def test_fit_multiplier_batch_matches_scalar_fits(self):
        ys = np.linspace(-1.0, 1.0, 17)
        for n in (0, 1, 4, 8, 13):
            batch = fit_multiplier(n, ys)
            assert batch.shape == ys.shape
            scalar = np.array([fit_multiplier(n, float(y)) for y in ys])
            assert np.max(np.abs(batch - scalar)) <= 1e-15

    def test_array_y_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="y must be"):
            translate(np.abs, [[0.1, 0.2]], XGRID)
        with pytest.raises(ValueError, match="y must be"):
            fit_multiplier(2, [[0.1, 0.2]])
        with pytest.raises(ValueError, match="y_grid must be 1-d"):
            calibrate_multiplier(y_grid=[[0.1, 0.2]])

    def test_nan_inside_a_y_array_named(self):
        ys = [0.1, math.nan, 0.3]
        with pytest.raises(ValueError, match="y = nan"):
            translate(np.abs, ys, XGRID)
        with pytest.raises(ValueError, match="y = nan"):
            fit_multiplier(2, ys)
        with pytest.raises(ValueError, match="y = nan"):
            calibrate_multiplier(n_max=2, y_grid=ys)


class TestArrayT:
    F = staticmethod(TestArrayY.F)
    TS = np.concatenate([[0.0, 1e-9, -1e-9, 2.5], np.linspace(-0.4, 0.4, 8)])  # t = 0 and +-t

    @pytest.mark.parametrize("X, M", [
        (256, 16),    # several t per pass, as omega at p < inf translates
        (4097, 128),  # x-row chunks of one t, as omega at p = inf translates
    ])
    def test_rows_equal_scalar_calls_bit_for_bit(self, X, M):
        x = np.linspace(-0.97, 0.97, X)
        batch = translate_trig(self.F, self.TS, x, M=M)
        assert batch.shape == (self.TS.size, X)
        assert np.array_equal(batch, np.stack([translate_trig(self.F, float(t), x, M=M) for t in self.TS]))

    def test_array_t_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="t must be"):
            translate_trig(np.abs, [[0.1, 0.2]], XGRID)

    def test_nan_inside_a_t_array_named(self):
        with pytest.raises(ValueError, match="t = nan"):
            translate_trig(np.abs, [0.1, math.nan, 0.3], XGRID)


class TestFamily:
    """The translation core on a family: an f returning one row per member."""

    CS = np.linspace(-0.5, 0.5, 7)

    @classmethod
    def member(cls, i):
        return lambda v: np.abs(v - cls.CS[i % cls.CS.size]) ** 1.5 + i * v

    @classmethod
    def family(cls, k, sizes=None):
        def f(v):
            if sizes is not None:
                sizes.append(v.size)
            return np.stack([cls.member(i)(v) for i in range(k)])
        return f

    @staticmethod
    def y_family(f, k, y, x, M):
        return translation._translate(f, *translation._y_args(y), x, M, members=k)

    @pytest.mark.parametrize("X, M, k", [
        (21, 16, 7),     # every y in one pass
        (40, 128, 3),    # one y per pass
        (333, 37, 2),    # the one-function call's single chunk cut in two runs
        (4097, 128, 2),  # x-row chunks cut into runs of 64 rows
        (4097, 128, 3),  # runs of 40 rows, the last of each chunk 8
        (145, 64, 7),    # runs of 36 rows; the lone last row joins the 4 before it
        (41, 128, 150),  # runs of 4 rows, above _CHUNK; the lone last row as well
    ])
    def test_members_equal_single_calls_bit_for_bit(self, X, M, k):
        x = np.linspace(-0.97, 0.97, X)
        ys = [0.3, TestArrayY.YS] if X * M < 100_000 else [0.3]
        for y in ys:
            got = self.y_family(self.family(k), k, y, x, M)
            for i in range(k):
                assert np.array_equal(got[i], translate(self.member(i), y, x, M=M))

    def test_trig_members_equal_single_calls_bit_for_bit(self):
        k, x = 5, np.linspace(-0.97, 0.97, 256)
        got = translation._translate(self.family(k), *translation._t_args(TestArrayT.TS), x, 16,
                                     members=k)
        for i in range(k):
            assert np.array_equal(got[i], translate_trig(self.member(i), TestArrayT.TS, x, M=16))

    def test_output_shapes(self):
        f = self.family(3)
        assert self.y_family(f, 3, 0.2, 0.25, 16).shape == (3,)
        assert self.y_family(f, 3, [0.2, 0.5], 0.25, 16).shape == (3, 2)
        assert self.y_family(f, 3, 0.2, XGRID, 16).shape == (3, XGRID.size)
        assert self.y_family(f, 3, [0.2], XGRID, 16).shape == (3, 1, XGRID.size)
        assert self.y_family(f, 3, np.empty(0), XGRID, 16).shape == (3, 0, XGRID.size)
        assert self.y_family(f, 3, np.empty(0), 0.25, 16).shape == (3, 0)

    def test_non_finite_member_sample_named(self):
        def f(v):
            rows = np.stack([v, v * v])
            rows[1, v > 0.5] = np.nan
            return rows

        with pytest.raises(ValueError, match=r"non-finite sample value nan at x = 0\.5"):
            self.y_family(f, 2, [0.9, 1.0], XGRID, 16)

    @pytest.mark.parametrize("X, M, k", [
        (21, 16, 13), (24, 16, 21), (4097, 128, 3), (145, 64, 7), (41, 128, 150), (3, 9000, 2),
    ])
    def test_pass_sizes_stay_within_chunk(self, X, M, k):
        sizes = []
        self.y_family(self.family(k, sizes), k, TestArrayY.YS[:3], np.linspace(-0.97, 0.97, X), M)
        assert sum(sizes) == 3 * X * M
        for n in sizes:
            # a pass holds at most _CHUNK elements across its k rows, unless
            # 5 x-rows alone exceed that (see translation._x_runs)
            assert k * n <= translation._CHUNK or (n <= 5 * M and 5 * k * M > translation._CHUNK)

    @pytest.mark.parametrize("trig", [False, True])
    @pytest.mark.parametrize("X, M", [(21, 16), (40, 128), (4097, 128), (3, 9000)])
    def test_single_function_passes_unchanged(self, trig, X, M):
        # f sees the grid R = clip(x y - z sqrt(1 - x^2) sqrt(1 - y^2)) in passes
        # of whole y-blocks of _CHUNK // M x-rows, or of x-row chunks of one y
        seen = []

        def f(v):
            seen.append(v.copy())
            return TestArrayY.F(v)

        x = np.linspace(-0.97, 0.97, X)
        if trig:
            y, sy = translation._t_args(TestArrayT.TS[:4])
            translate_trig(f, TestArrayT.TS[:4], x, M=M)
        else:
            y, sy = translation._y_args(TestArrayY.YS[:4])
            translate(f, TestArrayY.YS[:4], x, M=M)
        z = translation.gauss_chebyshev(M).nodes
        grid = np.clip(np.multiply.outer(y, x)[..., None]
                       - np.sqrt(1.0 - x * x)[:, None] * (z * sy[:, None])[:, None], -1.0, 1.0)
        step = max(1, translation._CHUNK // M)
        per_pass = max(1, step // X)
        expected = [grid[i:i + per_pass, lo:lo + step].ravel()
                    for i in range(0, y.size, per_pass) for lo in range(0, X, step)]
        assert len(seen) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(seen, expected))


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

    def test_closed_form_is_the_per_degree_formula_bit_for_bit(self):
        ys = np.linspace(-1.0, 1.0, 17)
        for (a1, b1), (a2, b2) in DEFAULT_CANDIDATES:
            first, second = JacobiBasis(a1, b1), JacobiBasis(a2, b2)
            rows = translation._closed_form(first, second, 8, ys)
            for n in range(9):
                second_term = 1.5 * (1.0 - ys * ys) * jacobi_eval(second, n, ys)
                assert np.array_equal(rows[n], jacobi_eval(first, n + 2, ys) + second_term)

    def test_calibration_sizes_checked(self):
        # an empty table would score every candidate a residual of 0.0
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            calibrate_multiplier(n_max=-1)
        with pytest.raises(ValueError, match="y_grid must be non-empty"):
            calibrate_multiplier(y_grid=np.empty(0))

    @pytest.mark.parametrize("y_grid", [None, np.linspace(-1.0, 1.0, 17)])
    def test_family_calibration_matches_per_degree_fits(self, y_grid):
        ys = np.linspace(-0.9, 0.9, 7) if y_grid is None else y_grid
        # per degree: one translation and two coefficient integrals on its own grid
        per_degree = []
        for n in range(9):
            pn = lambda x, n=n: jacobi_eval(JACOBI_22, n, x)
            M = translation._exact_quad_size(n)
            numer = fourier_jacobi_coeff(lambda x: translate(pn, ys, x, M=M), n)
            per_degree.append(numer / fourier_jacobi_coeff(pn, n))
        per_degree = np.array(per_degree)
        measured = translation._multipliers(8, ys)
        assert np.max(np.abs(measured - per_degree)) <= 1e-14
        fits = np.array([fit_multiplier(n, ys) for n in range(9)])
        assert np.max(np.abs(measured - fits)) <= 1e-14
        # the per-degree table singles out the same candidate
        resid = []
        for (a1, b1), (a2, b2) in DEFAULT_CANDIDATES:
            trial = Multiplier(JacobiBasis(a1, b1), JacobiBasis(a2, b2), validated=True)
            resid.append(max(float(np.max(np.abs(multiplier_eval(trial, n, ys) - per_degree[n])))
                             for n in range(9)))
        m = calibrate_multiplier(y_grid=y_grid)
        (a1, b1), (a2, b2) = DEFAULT_CANDIDATES[int(np.argmin(resid))]
        assert (m.first_term_basis, m.second_term_basis) == (JacobiBasis(a1, b1), JacobiBasis(a2, b2))
        assert m.validated == (sum(r <= 1e-8 for r in resid) == 1)
        assert m.validated

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
        pytest.param(lambda _, n, x: jacobi_eval(JACOBI_22, n, x), 3, math.nan, "x",
                     id="jacobi_eval-x"),
        pytest.param(lambda _, y, z: kernel_eval(math.nan, y, z), 0.1, 0.2, "x",
                     id="kernel_eval-x"),
        pytest.param(lambda _, x, y: kernel_eval(x, y, math.nan), 0.1, 0.1, "z",
                     id="kernel_eval-z"),
        pytest.param(lambda _, n, y: multiplier_eval(default_multiplier(), n, y), 3, math.nan,
                     "y", id="multiplier_eval-y"),
    ],
)
def test_non_finite_arguments_rejected(kernel, param, x, name):
    with pytest.raises(ValueError, match=f"{name} = "):
        kernel(np.abs, param, x)


class TestNonFiniteSamples:
    """A non-finite sample of f raises ValueError naming where f was sampled."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.sampled_from([translate, translate_trig]),
        st.one_of(unit, st.lists(unit, min_size=1, max_size=3)),
        st.sampled_from([1, 5, 200]),
    )
    def test_named_point_is_non_finite(self, lo, width, bad, kernel, param, X):
        # f is non-finite on [lo, lo + width]; the call raises exactly when some
        # argument of f falls in there, which a finite first call records.
        # With X = 200 and M = 128 each y takes two passes.
        hi = lo + width
        x = np.linspace(-0.95, 0.95, X)
        param = np.pi * np.asarray(param) if kernel is translate_trig else np.asarray(param)

        def f(t):
            out = np.abs(t)
            out[(t >= lo) & (t <= hi)] = bad
            return out

        seen = []

        def spy(t):
            seen.append(t.copy())
            return np.abs(t)

        kernel(spy, param, x)
        args = np.concatenate(seen)
        if not np.any((args >= lo) & (args <= hi)):
            assert np.all(np.isfinite(kernel(f, param, x)))
            return
        with pytest.raises(ValueError, match="non-finite sample") as err:
            kernel(f, param, x)
        named = float(str(err.value).rsplit("x = ", 1)[1])
        assert not np.isfinite(f(np.array([named])))[0]

    def test_overflow_before_it_does_not_hide_it(self):
        # y = 1 makes every argument of row x equal x.  Finite samples of 1e308
        # overflow the rows near x = 0 in the first pass; the NaN samples at
        # x > 1/2 sit in the second, which is searched next.
        def f(t):
            return np.where(t > 0.5, np.nan, 1e308)

        with np.errstate(over="ignore"), pytest.raises(ValueError, match="sample value nan") as err:
            translate(f, 1.0, np.linspace(-0.95, 0.95, 200), M=128)
        assert float(str(err.value).rsplit("x = ", 1)[1]) > 0.5
