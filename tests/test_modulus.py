import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothop import modulus, translation
from smoothop.cli import main
from smoothop.harness import converse_table, get_test_function
from smoothop.modulus import modulus_curve, modulus_omega
from smoothop.orthopoly import JACOBI_22, jacobi_eval
from smoothop.translation import default_multiplier, multiplier_eval, translate_trig
from smoothop.weighted_space import SampledFunction, WeightedSpace, weighted_norm

SP2 = WeightedSpace(2.0, 1.0)
SPINF = WeightedSpace(math.inf, 1.0)


class TestModulusOmega:
    def test_zero_delta_is_exactly_zero(self):
        rep = modulus_omega(np.abs, 0.0, SP2)
        assert rep.value == 0.0
        assert rep.argmax_t == 0.0
        assert rep.delta == 0.0

    def test_constant_function_vanishes(self):
        one = lambda x: np.ones_like(x)
        for delta in (0.1, 0.5, 1.5):
            assert modulus_omega(one, delta, SP2).value <= 1e-10
            assert modulus_omega(one, delta, SPINF).value <= 1e-10

    def test_positive_and_monotone_for_linear(self):
        a = modulus_omega(lambda x: x, 0.5, SP2)
        b = modulus_omega(lambda x: x, 0.6, SP2)
        assert a.value > 0
        assert b.value >= a.value

    def test_argmax_within_range(self):
        rep = modulus_omega(np.abs, 0.25, SP2)
        assert abs(rep.argmax_t) <= 0.25 + 1e-15
        assert rep.t_grid_size == 33
        assert rep.norm_resolution == 256

    def test_grid_parameters_recorded(self):
        rep = modulus_omega(np.abs, 0.1, SPINF, t_grid=9, norm_resolution=1025)
        assert rep.t_grid_size == 9
        assert rep.norm_resolution == 1025

    def test_subadditive_in_the_function(self):
        f = np.abs
        g = lambda x: x**2
        both = lambda x: np.abs(x) + x**2
        for sp in (SP2, SPINF):
            wf = modulus_omega(f, 0.3, sp).value
            wg = modulus_omega(g, 0.3, sp).value
            wfg = modulus_omega(both, 0.3, sp).value
            assert wfg <= wf + wg + 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            modulus_omega(np.abs, -0.1, SP2)
        with pytest.raises(ValueError):
            modulus_omega(np.abs, 0.1, SP2, t_grid=2)
        with pytest.raises(ValueError):
            modulus_omega(np.abs, 0.1, SP2, t_grid=10)
        with pytest.raises(ValueError, match="admissible"):
            modulus_omega(np.abs, 0.1, WeightedSpace(2.0, 1.3))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_extreme_scales(self, p):
        # at c = 1e-150 the p-th powers of the differences underflow, at 1e150
        # they overflow; omega is still |c| times its value at c = 1
        sp = WeightedSpace(p, 1.0)
        base = modulus_omega(np.abs, 0.1, sp).value
        for c in (1e-150, 1e150):
            got = modulus_omega(lambda x, _c=c: _c * np.abs(x), 0.1, sp).value
            assert_allclose(got, c * base, rtol=1e-13, err_msg=f"p={p}, c={c}")


class TestModulusCurve:
    def test_constant_curve_is_zero(self):
        one = lambda x: np.ones_like(x)
        reps = modulus_curve(one, [0.1, 0.2, 0.4], SP2)
        assert all(r.value <= 1e-10 for r in reps)

    def test_nondecreasing_for_abs(self):
        reps = modulus_curve(np.abs, [0.1, 0.2, 0.4], SP2)
        vals = [r.value for r in reps]
        assert vals[0] <= vals[1] <= vals[2]
        assert not any(r.flags for r in reps)

    def test_single_delta_replicates_pointwise_call(self):
        one_shot = modulus_omega(np.abs, 0.35, SP2)
        via_curve = modulus_curve(np.abs, [0.35], SP2)[0]
        assert via_curve == one_shot

    def test_one_translate_per_distinct_t(self, monkeypatch):
        # the benchmark's curve: 3 x 17 half-grid points, 37 distinct floats,
        # in one call per delta
        poly = get_test_function("randpoly")
        deltas = [0.1, 0.2, 0.4]
        calls, ts, sizes = [], [], []

        def counting(f, t, x, M=None):
            calls.append(t)
            ts.extend(np.atleast_1d(t).tolist())
            sizes.append(np.size(x))
            return translate_trig(f, t, x, M=M)

        monkeypatch.setattr(modulus, "translate_trig", counting)
        reps = modulus_curve(poly, deltas, SP2)
        assert len(ts) == len(set(ts)) == 37
        assert len(calls) == len(deltas)
        # randpoly declares degree 10: each row is translated at 11 nodes
        assert sizes == [poly.degree + 1] * len(deltas)
        monkeypatch.undo()
        assert reps == [modulus_omega(poly, d, SP2) for d in deltas]

    def test_deltas_in_any_order(self):
        # omega per delta does not depend on the deltas translated before it
        deltas = [0.05, 0.4, 0.1, 0.2]
        shuffled = modulus._omegas(np.abs, deltas, SP2._grid(None), 9, None)[0]
        ascending = modulus._omegas(np.abs, sorted(deltas), SP2._grid(None), 9, None)[0]
        assert shuffled == [ascending[sorted(deltas).index(d)] for d in deltas]

    @pytest.mark.parametrize("c", [1.0, 1e-20, 1e20])
    def test_flags_do_not_depend_on_the_scale_of_f(self, c):
        # on a 3-point t grid omega of the degree-6 (2, 2) Jacobi polynomial
        # falls by 37% at delta = 1.6 and 2.4; a slack of 1e-12 not relative
        # to ||f|| hid both falls at c = 1e-20
        def f(x):
            return c * jacobi_eval(JACOBI_22, 6, x)

        reps = modulus_curve(f, [0.8, 1.2, 1.6, 2.0, 2.4], SP2, t_grid=3)
        flag = ("monotonicity_violation",)
        assert [(r.delta, r.flags) for r in reps if r.flags] == [(1.6, flag), (2.4, flag)]

    def test_rejects_bad_delta_lists(self):
        with pytest.raises(ValueError):
            modulus_curve(np.abs, [], SP2)
        with pytest.raises(ValueError):
            modulus_curve(np.abs, [0.0, 0.1], SP2)
        with pytest.raises(ValueError):
            modulus_curve(np.abs, [0.2, 0.1], SP2)

    def test_csv_export_columns(self, capsys):
        assert main(["modulus", "--function", "abs", "--p", "2", "--deltas", "0.1,0.2",
                     "--t-grid", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "δ,ω,argmax_t"
        assert len(lines) == 3


def _full_grid_omega(f, delta, space, t_grid):
    """omega by a scan of every t in [-delta, delta], first maximum kept."""
    best, best_t = -1.0, 0.0
    for t in np.linspace(-delta, delta, t_grid):
        val = weighted_norm(lambda x, t=float(t): translate_trig(f, t, x) - f(x), space)
        if val > best:
            best, best_t = val, float(t)
    return best, best_t


@pytest.mark.parametrize("p", [2.0, 1.5, math.inf])
@pytest.mark.parametrize("t_grid", [3, 9, 33])
def test_half_scan_matches_full_grid_scan(p, t_grid):
    space = WeightedSpace(p, 1.0)
    for f in (np.abs, lambda x: np.abs(x - 0.25) - 0.5 * x):
        for delta in (0.05, 0.4):
            rep = modulus_omega(f, delta, space, t_grid=t_grid)
            value, argmax_t = _full_grid_omega(f, delta, space, t_grid)
            assert rep.value == pytest.approx(value, rel=1e-14)
            assert abs(rep.argmax_t) == abs(argmax_t)
            assert rep.argmax_t <= 0


def test_non_finite_input_named_by_x():
    def bad(x):
        out = np.abs(x)
        out[np.abs(x - 0.5) < 0.01] = np.nan
        return out

    for space in (SP2, SPINF):
        with pytest.raises(ValueError, match="x = "):
            modulus_omega(bad, 0.1, space)


def test_non_finite_sample_named_before_any_translation(monkeypatch):
    # f is sampled on the 4097-point sup grid and checked there, before the
    # first translate_trig batch
    bad = SPINF._grid(4097).x[1234]

    def f(x):
        out = np.abs(x)
        out[x == bad] = np.nan
        return out

    def no_translation(*args, **kwargs):
        raise AssertionError("translate_trig called on a non-finite input")

    monkeypatch.setattr(modulus, "translate_trig", no_translation)
    with pytest.raises(ValueError, match="non-finite") as err:
        modulus_curve(f, [0.1, 0.2], SPINF)
    assert float(str(err.value).rsplit("x = ", 1)[1]) == bad


@pytest.mark.parametrize("space", [SP2, SPINF])
def test_finite_input_whose_translate_overflows_named(space):
    # 1.7e308 x is finite on [-1, 1], but its translates overflow: they are
    # named by x and y, not as a non-finite sample of f
    with pytest.raises(ValueError, match="overflow the translate at x = "):
        modulus_omega(lambda x: 1.7e308 * x, 0.3, space)


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_non_finite_delta_rejected(delta):
    with pytest.raises(ValueError, match="delta = "):
        modulus_omega(np.abs, delta, SP2)


def test_norm_grid_in_the_edge_band_named(monkeypatch):
    # Gauss-Legendre nodes come within EDGE_EPS of +-1 from 1700 nodes on
    def no_translate(*args, **kwargs):
        raise AssertionError("translated on a norm grid inside the edge band")

    monkeypatch.setattr(modulus, "translate_trig", no_translate)
    with pytest.raises(ValueError, match="norm_resolution = 2048"):
        modulus_curve(np.abs, [0.1], WeightedSpace(1.5, 1), norm_resolution=2048)
    with pytest.raises(ValueError, match="norm_resolution = 2048"):
        converse_table(np.abs, [4, 8], SP2, norm_resolution=2048)
    monkeypatch.undo()
    assert modulus_curve(np.abs, [0.1], WeightedSpace(1.5, 1), norm_resolution=1025)[0].value > 0


@pytest.mark.parametrize("space", [SP2, SPINF], ids=["p2", "sup"])
@pytest.mark.parametrize("size, message", [
    (15, "norm_resolution must be >= 16, got norm_resolution = 15"),
    (16.5, "norm_resolution must be an integer, got norm_resolution = 16.5"),
], ids=["below-16", "float"])
@pytest.mark.parametrize("entry", ["modulus_omega", "modulus_curve", "converse_table"])
def test_bad_norm_resolution_named(entry, size, message, space):
    # the parameter is named as the caller passed it, not as the norm's `resolution`
    call = {
        "modulus_omega": lambda: modulus_omega(np.abs, 0.1, space, norm_resolution=size),
        "modulus_curve": lambda: modulus_curve(np.abs, [0.1], space, norm_resolution=size),
        "converse_table": lambda: converse_table(np.abs, [4, 8], space, norm_resolution=size),
    }[entry]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("poly", [
    np.polynomial.Chebyshev([1.0, 2.0, 3.0]), np.polynomial.Polynomial([1.0, -2.0, 0.5, 3.0]),
], ids=["Chebyshev", "Polynomial"])
def test_numpy_polynomial_translated_at_its_exact_rule(poly, monkeypatch):
    # omega's entry points read a numpy polynomial's degree as translate does:
    # each translation uses the exact rule, and omega is that of the marked f
    exact = translation._default_quad_size(poly)
    rule = translation.gauss_chebyshev
    sizes = []

    def recording(M):
        sizes.append(M)
        return rule(M)

    monkeypatch.setattr(translation, "gauss_chebyshev", recording)
    marked = SampledFunction(poly, degree=poly.degree())
    calls = [
        lambda f: modulus_omega(f, 0.3, SPINF).value,
        lambda f: [r.value for r in modulus_curve(f, [0.1, 0.2], SP2)],
        lambda f: [r.omega for r in converse_table(f, [2, 4], SP2)],
    ]
    for call in calls:
        sizes.clear()
        got = call(poly)
        assert sizes and set(sizes) == {exact}
        assert got == call(marked)


def _jacobi_input(d):
    """The (2, 2) Jacobi polynomial p_d, marked with its degree."""
    return SampledFunction(lambda x: jacobi_eval(JACOBI_22, d, x), name=f"p{d}", degree=d)


_POLYNOMIALS = [
    pytest.param(get_test_function("randpoly", seed=0), id="randpoly0"),
    pytest.param(get_test_function("randpoly", seed=3), id="randpoly3"),
    pytest.param(get_test_function("x2"), id="x2"),
    *(pytest.param(_jacobi_input(d), id=f"p{d}") for d in (5, 40, 120)),
]


class TestDeclaredDegree:
    """omega of an f that declares a degree d: translated at the d + 1
    Chebyshev nodes and interpolated onto the norm grid."""

    @pytest.mark.parametrize("p", [2.0, 1.5, math.inf])
    @pytest.mark.parametrize("f", _POLYNOMIALS)
    def test_matches_full_grid_scan(self, f, p):
        space = WeightedSpace(p, 1.0)
        rep = modulus_omega(f, 0.4, space, t_grid=5)
        value, argmax_t = _full_grid_omega(f, 0.4, space, 5)
        assert rep.value == pytest.approx(value, rel=1e-10)
        assert rep.argmax_t == argmax_t

    @pytest.mark.parametrize("space", [SP2, SPINF], ids=["p2", "sup"])
    @pytest.mark.parametrize("d", [5, 40, 120])
    def test_jacobi_polynomial_against_its_multiplier(self, d, space):
        # T_y p_d = R_d(y) p_d, so omega(p_d, delta) = max_t |R_d(cos t) - 1| ||p_d||,
        # with R_d from the closed form, not from the translation's quadrature
        f, mult = _jacobi_input(d), default_multiplier()
        for delta in (0.05, 0.4):
            ts = np.linspace(-delta, delta, 33)[:17]
            lift = max(abs(multiplier_eval(mult, d, math.cos(t)) - 1.0) for t in ts)
            expected = lift * weighted_norm(f, space)
            assert modulus_omega(f, delta, space).value == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("f, M, res", [
        # |x| is no polynomial: its interpolant at 11 nodes misses by 5e-2
        (SampledFunction(np.abs, degree=10), None, None),
        # 12 nodes are not exact for degree 10
        (get_test_function("randpoly"), 12, None),
        # 16 nodes: the interpolant would need as many points as the grid has
        (SampledFunction(np.polynomial.Chebyshev(np.linspace(1.0, 0.5, 16))), None, 16),
    ], ids=["abs-marked-10", "M-below-exact", "d+1-at-grid-size"])
    def test_full_grid_when_a_condition_fails(self, f, M, res, monkeypatch):
        # translated on the whole norm grid, bit for bit as the same f with no
        # degree, at the same z-rule
        plain = SampledFunction(lambda x: f.evaluator(x))
        rule = translation._exact_quad_size(f.degree) if M is None else M
        sizes = []

        def recording(fn, t, x, M=None):
            sizes.append(np.size(x))
            return translate_trig(fn, t, x, M=M)

        monkeypatch.setattr(modulus, "translate_trig", recording)
        got = modulus_curve(f, [0.1, 0.3], SP2, M=M, norm_resolution=res)
        assert set(sizes) == {SP2._grid(res).x.size}
        assert plain.degree is None
        assert got == modulus_curve(plain, [0.1, 0.3], SP2, M=rule, norm_resolution=res)

    def test_grid_point_on_a_node_takes_its_value(self):
        # the sup grid and the 11 nodes of a degree-10 f share the point 0.0,
        # where the barycentric weights would divide by zero
        f, grid = get_test_function("randpoly"), SPINF._grid(None)
        points, interp = modulus._translation_points(f, f(grid.x), grid.x, None)
        assert points.size == 11
        assert np.array_equal(interp[grid.x == 0.0], [points == 0.0])

    def test_nodes_in_the_edge_band_take_the_full_grid(self):
        # cos(pi / (2 (d + 1))) > 1 - EDGE_EPS from d + 1 = 1111 nodes on
        grid = SPINF._grid(None)
        marked = SampledFunction(np.abs, degree=1200)
        points, interp = modulus._translation_points(marked, None, grid.x, None)
        assert points is grid.x and interp is None

    def test_norm_grid_in_the_edge_band_only_interpolated_onto(self):
        # the 2048-node rule reaches the edge band, but randpoly is translated
        # at its 11 interior nodes only and merely interpolated onto that rule
        f, sp = get_test_function("randpoly"), WeightedSpace(2.0, 1.0)
        for delta in (0.1, 0.4):
            fine = modulus_omega(f, delta, sp, norm_resolution=2048)
            coarse = modulus_omega(f, delta, sp, norm_resolution=1024)
            assert fine.value == pytest.approx(coarse.value, rel=1e-12)

    def test_mislabelled_degree_in_the_edge_band_names_x(self):
        # |x| marked degree 10 passes the gate on the declaration alone, fails
        # the sample check and takes the full grid: the translation names x
        with pytest.raises(ValueError, match="too close to the singular endpoints: x = "):
            modulus_omega(SampledFunction(np.abs, degree=10), 0.1, SP2, norm_resolution=2048)
