import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothop import modulus
from smoothop.cli import main
from smoothop.harness import converse_table, get_test_function
from smoothop.modulus import modulus_curve, modulus_omega
from smoothop.translation import translate_trig
from smoothop.weighted_space import WeightedSpace, weighted_norm

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
        calls, ts = [], []

        def counting(f, t, x, M=None):
            calls.append(t)
            ts.extend(np.atleast_1d(t).tolist())
            return translate_trig(f, t, x, M=M)

        monkeypatch.setattr(modulus, "translate_trig", counting)
        reps = modulus_curve(poly, deltas, SP2)
        assert len(ts) == len(set(ts)) == 37
        assert len(calls) == len(deltas)
        monkeypatch.undo()
        assert reps == [modulus_omega(poly, d, SP2) for d in deltas]

    def test_deltas_in_any_order(self):
        # omega per delta does not depend on the deltas translated before it
        deltas = [0.05, 0.4, 0.1, 0.2]
        shuffled = modulus._omegas(np.abs, deltas, SP2, 9, None, None)
        ascending = modulus._omegas(np.abs, sorted(deltas), SP2, 9, None, None)
        assert shuffled == [ascending[sorted(deltas).index(d)] for d in deltas]

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
