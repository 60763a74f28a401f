import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from smoothop.modulus import modulus_omega
from smoothop.translation import EDGE_EPS
from smoothop.weighted_space import (
    ParamVerdict,
    SampledFunction,
    WeightedSpace,
    _power,
    as_sampled,
    sup_grid,
    validate_params,
    weighted_norm,
)

INF = math.inf


class TestValidateParams:
    # the boundary probes and their expected verdicts
    @pytest.mark.parametrize(
        "p,alpha,expected",
        [
            (1.0, 0.5, False),
            (1.0, 0.75, True),
            (1.0, 1.0, True),
            (1.0, 1.01, False),
            (2.0, 0.75, True),
            (2.0, 1.25, False),
            (INF, 1.0, True),
            (INF, 1.5, False),
            # 3/2 - 1/(2p) rounds to 1.0 here, yet alpha = 1 is admissible for p > 1
            (math.nextafter(1.0, 2.0), 1.0, True),
        ],
    )
    def test_boundary_probes(self, p, alpha, expected):
        verdict = validate_params(WeightedSpace(p, alpha))
        assert verdict.valid is expected

    def test_violated_clause_reported(self):
        v = validate_params(WeightedSpace(1.0, 0.4))
        assert not v
        assert v.clause == "α > 1/2"
        assert validate_params(WeightedSpace(1.0, 0.75)).clause is None

    def test_lambda_gate(self):
        sp = WeightedSpace(2.0, 0.75)
        assert validate_params(sp, 1.0).valid
        v = validate_params(sp, 2.0)
        assert not v.valid and v.clause == "λ < 2"
        v = validate_params(sp, 0.0)
        assert not v.valid and v.clause == "λ > 0"

    def test_invalid_alpha_beats_lambda(self):
        v = validate_params(WeightedSpace(INF, 0.5), 1.0)
        assert not v.valid and "α" in v.clause

    def test_p_below_one_rejected_at_construction(self):
        with pytest.raises(ValueError):
            WeightedSpace(0.5, 1.0)

    def test_verdict_is_truthy(self):
        assert bool(ParamVerdict(True)) is True
        assert bool(ParamVerdict(False, "x")) is False


class TestWeightedNorm:
    def test_zero_function(self):
        sp = WeightedSpace(2.0, 1.0)
        assert weighted_norm(lambda x: np.zeros_like(x), sp) == 0.0

    def test_constant_p2(self):
        sp = WeightedSpace(2.0, 1.0)
        got = weighted_norm(lambda x: np.ones_like(x), sp)
        assert_allclose(got, math.sqrt(16 / 15), rtol=1e-12)

    def test_linear_p2(self):
        sp = WeightedSpace(2.0, 1.0)
        got = weighted_norm(lambda x: x, sp)
        assert_allclose(got, math.sqrt(16 / 105), rtol=1e-12)

    def test_homogeneity(self):
        # at c = 1e200 the sum of q |c e|^p overflows and at 1e-200 it
        # underflows, so those rows are summed again from |e| / max |e|
        f = lambda x: np.abs(x) + 0.3 * x
        spaces = [WeightedSpace(p, 1.0) for p in (1.5, 2.0, 3.0, INF)]
        for sp in [WeightedSpace(1.0, 0.75), *spaces]:
            base = weighted_norm(f, sp)
            for c in (-2.0, 0.5, 10.0, 1e-200, 1e200):
                got = weighted_norm(lambda x, _c=c: _c * f(x), sp)
                assert_allclose(got, abs(c) * base, rtol=1e-13, err_msg=f"p={sp.p}, c={c}")

    def test_triangle_inequality_on_random_polynomials(self):
        rng = np.random.default_rng(42)
        sp = WeightedSpace(2.0, 1.0)
        spi = WeightedSpace(INF, 1.25)
        for _ in range(10):
            cf = rng.uniform(-1, 1, 6)
            cg = rng.uniform(-1, 1, 6)
            f = np.polynomial.chebyshev.Chebyshev(cf)
            g = np.polynomial.chebyshev.Chebyshev(cg)
            for space in (sp, spi):
                lhs = weighted_norm(lambda x: f(x) + g(x), space)
                rhs = weighted_norm(f, space) + weighted_norm(g, space)
                assert lhs <= rhs + 1e-10

    def test_sup_norm_monotone_under_nested_refinement(self):
        f = lambda x: np.cos(5 * x) + x
        sp = WeightedSpace(INF, 1.0)
        vals = [weighted_norm(f, sp, resolution=r) for r in (1025, 2049, 4097)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_sup_grid_nesting(self):
        coarse = sup_grid(1025)
        fine = sup_grid(2049)
        assert np.isin(coarse, fine).all()
        assert np.max(np.abs(fine)) < 1.0

    @pytest.mark.parametrize("X", [16, 17, 1024, 1025, 4097])
    def test_sup_grid_mirrored_from_its_lower_half(self, X):
        grid = sup_grid(X)
        i = np.arange(X)
        lower = -(1.0 - EDGE_EPS) * np.cos(np.pi * i[: X // 2] / (X - 1))
        assert np.array_equal(grid[: X // 2], lower)
        assert np.array_equal(grid, -grid[::-1])
        if X % 2:
            assert grid[X // 2] == 0.0 and not np.signbit(grid[X // 2])
        assert np.all(np.diff(grid) > 0)
        # within roundoff of (1 - EDGE_EPS) cos(pi i / (X - 1)), descending
        assert_allclose(grid, (1.0 - EDGE_EPS) * np.cos(np.pi * i / (X - 1))[::-1], rtol=0, atol=6e-16)

    def test_nonfinite_sample_names_the_point(self):
        def bad(x):
            out = np.asarray(x, dtype=float).copy()
            out[np.abs(x) < 0.01] = np.nan
            return out

        sp = WeightedSpace(INF, 1.0)
        with pytest.raises(ValueError, match="x ="):
            weighted_norm(bad, sp, resolution=4097)

    @pytest.mark.parametrize("X", [1025, 256])
    def test_half_rule(self, X):
        # the solvers' Gauss-Legendre sizes: odd with a node at x = 0, and even
        grid = WeightedSpace(1.5, 1.0)._grid(X)
        half = grid.half
        assert half is grid.half  # built once per grid
        right = grid.x >= 0
        assert half.x.size == (X + 1) // 2 == right.sum()
        assert np.array_equal(half.x, grid.x[right])
        assert np.array_equal(half.wgt, grid.wgt[right])
        doubled = 2 * grid.qw[right]
        if X % 2:
            assert half.x[0] == 0.0
            doubled[0] = grid.qw[X // 2]
        assert np.array_equal(half.qw, doubled)
        # the sum of an even function over the half is its sum over the grid,
        # within 1e-15 relative to the sum of its magnitudes (2 for T_0, whose
        # two sums differ by 1.1e-15 at X = 1025)
        even = np.polynomial.chebyshev.chebvander(grid.x, X // 2)[:, ::2]
        diff = np.abs(half.qw @ even[right] - grid.qw @ even)
        assert np.all(diff <= 1e-15 * (grid.qw @ np.abs(even)))

    def test_rescaled_rows_only(self):
        # a stack of rows at three scales: each row's norm is that of the
        # row alone (a stacked sum need not round as a single one does), and
        # a zero row stays 0
        grid = WeightedSpace(3.0, 1.0)._grid(256)
        e = grid.wgt * np.abs(grid.x)
        rows = np.stack([1e-200 * e, e, 1e200 * e, 0 * e])
        got = grid.norm(rows)
        assert_allclose(got[1], grid.norm(e), rtol=1e-15)
        assert_allclose(got[[0, 2]], [1e-200 * got[1], 1e200 * got[1]], rtol=1e-13)
        assert got[3] == 0.0

    def test_resolution_floor(self):
        sp = WeightedSpace(2.0, 1.0)
        with pytest.raises(ValueError):
            weighted_norm(lambda x: x, sp, resolution=8)
        with pytest.raises(ValueError):
            sup_grid(8)


class TestPower:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.integers(-4, 9).map(lambda k: k / 2), st.floats(-5.0, 5.0)),
        st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=40),
    )
    def test_matches_pow(self, p, exponents):
        # a log-uniform in [1e-100, 1e100]
        a = 10.0 ** np.array(exponents)
        with np.errstate(all="ignore"):
            ref = a**p
            out = a.copy()
            got = _power(out, p)
        assert got is out  # computed in place
        if p == 1:
            assert np.array_equal(got, a)
        elif p == 2:
            assert np.array_equal(got, a * a)
        elif 2 * p != round(2 * p):
            assert np.array_equal(got, ref)
        normal = np.isfinite(ref) & (ref >= np.finfo(float).tiny)
        assert np.all(np.abs(got[normal] - ref[normal]) <= 8 * np.spacing(ref[normal]))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.floats(0.0, math.log10(1.79e308)).map(lambda e: 10.0**e), st.just(INF)))
    @example(sys.float_info.max)
    @example(math.nextafter(1.0, 2.0))
    def test_huge_p_stays_finite(self, p):
        # from p = 2^1023 on, 2p overflows to inf, which takes the pow branch
        sp = WeightedSpace(p, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(weighted_norm(np.abs, sp))
            assert math.isfinite(modulus_omega(np.abs, 0.1, sp, t_grid=5).value)


class TestSampledFunction:
    def test_scalar_round_trip(self):
        fn = as_sampled(lambda x: 3.0 * x)
        assert isinstance(fn(0.5), float)
        assert fn(0.5) == 1.5

    def test_as_sampled_passthrough(self):
        fn = SampledFunction(np.abs, name="abs")
        assert as_sampled(fn) is fn

    def test_constant_broadcast(self):
        fn = as_sampled(lambda x: 1.0)
        out = fn(np.linspace(-1, 1, 5))
        assert out.shape == (5,)
        assert_allclose(out, 1.0)

    def test_degree_read_from_the_evaluator(self):
        # a numpy polynomial's degree is a method; a black box has none
        assert as_sampled(np.polynomial.Chebyshev([1, 2, 3])).degree == 2
        assert SampledFunction(np.polynomial.Chebyshev([1, 2, 3]), degree=5).degree == 5
        assert as_sampled(lambda x: 2.0 * x).degree is None

    @pytest.mark.parametrize("degree, message", [
        (-3, "degree must be >= 0, got degree = -3"),
        (2.5, "degree must be an integer, got degree = 2.5"),
        (True, "degree must be an integer, got degree = True"),
        ("4", "degree must be an integer, got degree = '4'"),
    ], ids=["negative", "float", "bool", "str"])
    def test_bad_degree_named(self, degree, message):
        # the degree picks the path of omega, so a bad one is refused, not used
        with pytest.raises(ValueError, match=re.escape(message)):
            SampledFunction(np.abs, degree=degree)

    def test_bad_degree_read_from_the_evaluator_named(self):
        def f(x):
            return x

        f.degree = -1
        with pytest.raises(ValueError, match="degree must be >= 0"):
            as_sampled(f)

    def test_integer_degrees_kept_as_int(self):
        assert SampledFunction(np.abs, degree=0).degree == 0
        deg = SampledFunction(np.abs, degree=np.int64(4)).degree
        assert deg == 4 and type(deg) is int
        assert type(as_sampled(np.polynomial.Polynomial([1.0, 0.0, 2.0])).degree) is int
