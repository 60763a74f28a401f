import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothop.weighted_space import (
    ParamVerdict,
    SampledFunction,
    WeightedSpace,
    as_sampled,
    sup_grid,
    validate_params,
    weighted_norm,
)

INF = math.inf


class TestValidateParams:
    # the eight boundary probes and their expected verdicts
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
        f = lambda x: np.abs(x) + 0.3 * x
        for sp in (WeightedSpace(1.0, 0.75), WeightedSpace(2.0, 1.0), WeightedSpace(INF, 1.0)):
            base = weighted_norm(f, sp)
            for c in (-2.0, 0.5, 10.0):
                got = weighted_norm(lambda x, _c=c: _c * f(x), sp)
                assert_allclose(got, abs(c) * base, rtol=1e-12)

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

    def test_nonfinite_sample_names_the_point(self):
        def bad(x):
            out = np.asarray(x, dtype=float).copy()
            out[np.abs(x) < 0.01] = np.nan
            return out

        sp = WeightedSpace(INF, 1.0)
        with pytest.raises(ValueError, match="x ="):
            weighted_norm(bad, sp, resolution=4097)

    def test_resolution_floor(self):
        sp = WeightedSpace(2.0, 1.0)
        with pytest.raises(ValueError):
            weighted_norm(lambda x: x, sp, resolution=8)
        with pytest.raises(ValueError):
            sup_grid(8)


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
