import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothop import approx, harness, modulus, weighted_space
from smoothop.cli import _parse_p, main
from smoothop.harness import (
    TEST_FUNCTION_NAMES,
    choose_block_level,
    class_fit,
    converse_table,
    dyadic_bound,
    get_test_function,
    verify_lemma1,
)
from smoothop.modulus import modulus_curve, modulus_omega
from smoothop.translation import (
    _closed_form, default_multiplier, multiplier_eval, translate, translate_trig,
)
from smoothop.weighted_space import WeightedSpace

SP2 = WeightedSpace(2.0, 1.0)
SPINF = WeightedSpace(math.inf, 1.0)


@pytest.fixture
def prefactor_fault(monkeypatch):
    """Scale the operator that verify_lemma1 checks by 1.01."""

    def scaled(f, y, x, M=None):
        return 1.01 * translate(f, y, x, M=M)

    monkeypatch.setattr(harness, "translate", scaled)


class TestFunctionLibrary:
    def test_names_resolve(self):
        for name in TEST_FUNCTION_NAMES:
            f = get_test_function(name)
            assert np.isfinite(f(np.linspace(-1, 1, 5))).all()

    def test_degrees_marked(self):
        assert get_test_function("one").degree == 0
        assert get_test_function("x").degree == 1
        assert get_test_function("x2").degree == 2
        assert get_test_function("abs").degree is None
        assert get_test_function("randpoly").degree == 10

    def test_randpoly_seeded_determinism(self):
        a = get_test_function("randpoly", seed=3)
        b = get_test_function("randpoly", seed=3)
        c = get_test_function("randpoly", seed=4)
        xs = np.linspace(-1, 1, 11)
        assert_allclose(a(xs), b(xs))
        assert np.max(np.abs(a(xs) - c(xs))) > 1e-3

    def test_coefficient_parsing(self):
        f = get_test_function("0.5,0,0.5")  # T_0/2 + T_2/2 = x^2
        xs = np.linspace(-1, 1, 9)
        assert_allclose(f(xs), xs**2, atol=1e-15)
        assert f.degree == 2

    def test_unknown_name_rejected(self):
        for spec in ("nope", "", ","):
            with pytest.raises(ValueError, match="unknown function"):
                get_test_function(spec)

    @pytest.mark.parametrize("spec, index, text", [
        ("nan", 0, "nan"), ("inf", 0, "inf"), ("1e400", 0, "1e400"), ("1,nan", 1, "nan"),
    ])
    def test_non_finite_coefficient_named(self, spec, index, text, capsys):
        with pytest.raises(ValueError, match=f"coefficient {index} must be finite, got {text}"):
            get_test_function(spec)
        code = main(["best-approx", "--function", spec, "--p", "2", "--n-max", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"Chebyshev coefficient {index} must be finite, got {text}" in err
        assert "sample" not in err

    def test_overflowing_coefficients_refused(self, capsys):
        # each coefficient is finite, but the series may reach 2e308 on [-1, 1]
        with pytest.raises(ValueError, match=re.escape("'1e308,1e308' overflow")):
            get_test_function("1e308,1e308")
        code = main(["best-approx", "--function", "1e308,1e308", "--p", "2", "--n-max", "4"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'1e308,1e308' overflow" in captured.err
        assert get_test_function("1e308,0")(np.array([1.0]))[0] == 1e308


class TestVerifyLemma1:
    def test_all_properties_pass(self):
        report = verify_lemma1(n_max=10, grid=16)
        assert report.all_passed
        names = [c.name for c in report.checks]
        assert names == ["linearity", "identity", "rank1", "constant", "multiplier"]

    def test_injected_prefactor_fault_is_caught(self, prefactor_fault):
        report = verify_lemma1(n_max=4, grid=12)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["constant"].passed
        assert 0.005 < by_name["constant"].max_residual < 0.02
        # linearity and the rank-1 structure are scale-invariant
        assert by_name["linearity"].passed
        assert by_name["rank1"].passed

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            verify_lemma1(n_max=21)

    def test_multiplier_check_translates_once_over_all_y(self, monkeypatch):
        sizes = []

        def counting(f, y, x, M=None):
            sizes.append(np.size(y))
            return translate(f, y, x, M=M)

        monkeypatch.setattr(harness, "translate", counting)
        assert verify_lemma1(n_max=4, grid=12).all_passed
        # linearity: one call per function over both y; constants: the y grid;
        # the multiplier check: all nine y at once
        assert sizes == [2, 2, 2, 12, 9]

    def test_multiplier_rows_equal_per_degree_evaluations(self):
        # the multiplier check's R_0 .. R_10 from one closed-form run are the
        # eleven multiplier_eval calls bit for bit
        mult = default_multiplier()
        y9 = np.linspace(-1.0, 1.0, 9)
        rows = _closed_form(mult.first_term_basis, mult.second_term_basis, 10, y9)
        assert np.array_equal(rows, [multiplier_eval(mult, k, y9) for k in range(11)])

    @pytest.mark.parametrize("grid", [1, 0, -3])
    def test_degenerate_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="grid"):
            verify_lemma1(n_max=0, grid=grid)

    def test_trivial_degree_zero_run(self):
        report = verify_lemma1(n_max=0, grid=12)
        by_name = {c.name: c for c in report.checks}
        assert by_name["identity"].passed
        assert by_name["constant"].passed


class TestConverseTable:
    def test_constant_function_all_zero(self):
        rows = converse_table(get_test_function("one"), [2, 4], SP2)
        assert all(r.ratio == 0.0 for r in rows)
        assert all(r.omega <= 1e-10 for r in rows)

    def test_degree_one_polynomial_single_term(self):
        rows = converse_table(get_test_function("x"), [2, 4, 8], SP2)
        e1 = math.sqrt(16 / 105)
        for r in rows:
            assert_allclose(r.rhs_sum, e1, rtol=1e-7)
            assert np.isfinite(r.ratio)
            assert r.ratio > 0

    def test_ratios_bounded_for_abs(self):
        rows = converse_table(np.abs, [4, 8, 16], SP2, t_grid=9)
        ratios = [r.ratio for r in rows]
        assert max(ratios) / np.median(ratios) <= 10

    def test_ratios_do_not_depend_on_the_scale_of_f(self):
        # the noise floor is relative to ||f||: a tiny multiple of |x| is no polynomial
        base = converse_table(np.abs, [4, 8, 16], SP2)
        tiny = converse_table(lambda x: 1e-12 * np.abs(x), [4, 8, 16], SP2)
        assert_allclose([r.ratio for r in tiny], [r.ratio for r in base], rtol=1e-9)
        assert_allclose([r.ratio for r in base], [0.8788, 0.7221, 0.5950], atol=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            converse_table(np.abs, [8, 4], SP2)
        with pytest.raises(ValueError):
            converse_table(np.abs, [], SP2)
        with pytest.raises(ValueError, match="admissible"):
            converse_table(np.abs, [2, 4], WeightedSpace(1.0, 0.4))

    def test_collapsed_sup_solver_rejected_before_any_omega(
        self, monkeypatch, collapse_exchange_from
    ):
        # an exchange solve that collapses from nu = 115 on for |x| (E_115 ~ 1e10
        # against ||f|| ~ 0.385): the table must refuse, not sum it
        collapse_exchange_from(115)

        def no_omega(*args, **kwargs):
            raise AssertionError("omega computed for a table that must be refused")

        # every omega translates through modulus's translate_trig, whatever route
        # the table takes to it
        monkeypatch.setattr(modulus, "translate_trig", no_omega)
        with pytest.raises(ValueError, match="nu = 115"):
            converse_table(np.abs, [16, 32, 64, 128], SPINF)

    def test_one_translate_per_distinct_t(self, monkeypatch):
        # 5 x 17 half-grid points, 49 distinct floats among them, in one call
        n_list = [4, 8, 16, 32, 64]
        calls, ts = [], []

        def counting(f, t, x, M=None):
            calls.append(t)
            ts.extend(np.atleast_1d(t).tolist())
            return translate_trig(f, t, x, M=M)

        monkeypatch.setattr(modulus, "translate_trig", counting)
        rows = converse_table(np.abs, n_list, SP2)
        assert len(ts) == len(set(ts)) == 49
        assert len(calls) == 1
        monkeypatch.undo()
        assert [r.omega for r in rows] == [modulus_omega(np.abs, 1.0 / n, SP2).value for n in n_list]

    def test_f_sampled_once_per_grid_use(self):
        # once by the solver's workspace, once for omega and the noise floor
        sizes = []

        def f(x):
            sizes.append(np.size(x))
            return np.abs(x)

        rows = converse_table(f, [4, 8, 16], WeightedSpace(2, 1))
        assert sizes.count(256) == 2
        assert [r.ratio for r in rows] == [r.ratio for r in converse_table(np.abs, [4, 8, 16], SP2)]

    def test_norm_grid_does_not_refuse_a_valid_table(self):
        # E_1 of an odd f equals ||f|| on the 4097-point solver grid, which
        # exceeds ||f|| on the coarser 1025-point norm grid
        f = get_test_function("signabs32")
        rows = converse_table(f, [2, 4], SPINF, t_grid=5, norm_resolution=1025)
        assert len(rows) == 2

    def test_csv_columns(self, capsys):
        assert main(["converse-table", "--function", "x", "--p", "2", "--n-list", "2,4",
                     "--t-grid", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,omega,rhs_sum,ratio"
        assert [line.split(",")[0] for line in lines[1:3]] == ["2", "4"]


class TestDyadic:
    def test_block_level_examples(self):
        assert choose_block_level(5) == 2
        assert choose_block_level(7) == 3

    def test_block_level_inequality_full_range(self):
        for n in range(2, 4097):
            N = choose_block_level(n)
            assert n / 2 < 2**N <= n + 1

    def test_checks_pass_for_abs(self):
        for sp in (SP2, SPINF):
            dec = dyadic_bound(np.abs, 20, sp)
            assert dec.N == 4
            assert dec.all_passed
            assert dec.blocks.size == dec.N + 1
            assert np.isfinite(dec.blocks).all()

    def test_degree_one_polynomial_blocks_vanish(self):
        # x enters through Q_1 = P_2 - P_1 (P_1 is the best constant, zero for
        # an odd function); every later block is a difference of identical fits
        dec = dyadic_bound(get_test_function("x"), 8, SP2)
        assert dec.blocks[0] <= 1e-12
        assert_allclose(dec.blocks[1], math.sqrt(16 / 105), rtol=1e-8)
        assert np.all(dec.blocks[2:] <= 1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_blocks_on_the_grid_of_the_e_values(self, p):
        # the triangle step holds within one discrete norm: each ||Q_k|| is
        # taken on the grid whose norm of f - P_nu is E_nu, not the default one
        sp = WeightedSpace(p, 1.0)
        fn = get_test_function("absshift")
        dec = dyadic_bound(fn, 8, sp)
        grid = sp._grid(approx._solver(sp)[1])
        fits = [r.polynomial() for r in approx.best_approx_sequence(fn, 8, sp)]
        for e, fit in zip(dec.e_values, fits):
            assert_allclose(grid.norm(grid.wgt * (fn(grid.x) - fit(grid.x))), e, rtol=1e-9)
        P = [fits[2**k - 1] for k in range(dec.N + 1)]
        Q = [P[0]] + [b - a for a, b in zip(P, P[1:])]
        assert_allclose(dec.blocks, [grid.norm(grid.wgt * q(grid.x)) for q in Q], rtol=1e-13)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            dyadic_bound(np.abs, 1, SP2)

    def test_unusable_best_approximation_refused(self, collapse_exchange_from):
        # the exchange collapses from nu = 3 on: no block may be built from it
        collapse_exchange_from(3)
        with pytest.raises(ValueError, match="nu = 3 is unusable"):
            dyadic_bound(np.abs, 8, SPINF)


class TestClassFit:
    def test_polynomial_is_degenerate(self):
        res = class_fit(get_test_function("x2"), SP2, 16)
        assert res.degenerate
        assert math.isnan(res.difference)

    def test_exponents_agree_for_abs(self):
        res = class_fit(np.abs, SP2, 32, lam=1.0)
        assert not res.degenerate
        assert res.difference <= 0.35  # coarser n_max than the acceptance run

    def test_smoother_function_has_larger_exponents(self):
        rough = class_fit(np.abs, SP2, 24)
        smooth = class_fit(get_test_function("signabs32"), SP2, 24)
        assert smooth.lambda_best_approx > rough.lambda_best_approx
        assert smooth.lambda_modulus > rough.lambda_modulus

    @pytest.mark.parametrize("n_max", [4, 5, 6, 7])
    def test_two_dyadic_points_rejected(self, n_max, capsys):
        # delta = 1/2 and 1/4 alone leave the omega fit degenerate whatever f is
        with pytest.raises(ValueError, match="n_max must be >= 8"):
            class_fit(np.abs, SP2, n_max)
        assert main(["class-fit", "--function", "abs", "--p", "2", "--n-max", str(n_max)]) == 2
        assert "n_max must be >= 8" in capsys.readouterr().err

    def test_unusable_best_approximation_refused_before_any_omega(
        self, monkeypatch, collapse_exchange_from
    ):
        # the exchange collapses from nu = 3 on: no exponent may be fitted to it
        collapse_exchange_from(3)

        def no_omega(*args, **kwargs):
            raise AssertionError("omega computed for a fit that must be refused")

        monkeypatch.setattr(modulus, "translate_trig", no_omega)
        with pytest.raises(ValueError, match="nu = 3 is unusable"):
            class_fit(np.abs, SPINF, 8)

    def test_one_translate_per_distinct_t(self, monkeypatch):
        # delta = 1/2, ..., 1/64: 6 x 17 half-grid points, 57 distinct floats
        # among them, in one call
        calls, ts = [], []

        def counting(f, t, x, M=None):
            calls.append(t)
            ts.extend(np.atleast_1d(t).tolist())
            return translate_trig(f, t, x, M=M)

        monkeypatch.setattr(modulus, "translate_trig", counting)
        class_fit(np.abs, SP2, 64)
        assert len(calls) == 1
        assert len(ts) == len(set(ts)) == 57
        halves = [np.linspace(-1.0 / 2**k, 1.0 / 2**k, 33)[:17] for k in range(1, 7)]
        assert set(ts) == set(np.concatenate(halves).tolist())

    def test_lambda_hypothesis_validated(self):
        with pytest.raises(ValueError, match="λ"):
            class_fit(np.abs, SP2, 16, lam=2.5)

    def test_fit_does_not_depend_on_the_scale_of_f(self):
        # the roundoff floors are relative to ||f||: at c = 1e-12 an absolute
        # floor of 1e-12 left no E_n point and called the fit degenerate
        base = class_fit(np.abs, SP2, 32, lam=1.0)
        assert (base.points_best_approx, base.points_modulus) == (32, 5)
        for c in (1e-12, 1e-15, 1e9):
            res = class_fit(lambda x, c=c: c * np.abs(x), SP2, 32, lam=1.0)
            assert not res.degenerate, c
            assert (res.points_best_approx, res.points_modulus) == (32, 5), c
            assert_allclose([res.lambda_best_approx, res.lambda_modulus],
                            [base.lambda_best_approx, base.lambda_modulus], rtol=1e-12)


def _table(**kwargs):
    return converse_table(np.abs, [4, 16, 64, 256], SPINF, **kwargs)


def _fit(**kwargs):
    return class_fit(np.abs, SPINF, 256, **kwargs)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _table(t_grid=4), "t_grid must be odd", id="table-t_grid-even"),
    pytest.param(lambda: _table(t_grid=5.0), "t_grid must be an integer", id="table-t_grid-float"),
    pytest.param(lambda: _table(M=0), "M must be >= 1", id="table-M"),
    pytest.param(lambda: _table(norm_resolution=15), "norm_resolution must be >= 16",
                 id="table-norm_resolution"),
    # Gauss-Legendre nodes come within the translation's edge band from 1700 nodes on
    pytest.param(lambda: converse_table(np.abs, [4, 64], SP2, norm_resolution=2048),
                 "norm_resolution = 2048", id="table-norm_resolution-edge"),
    pytest.param(lambda: _fit(t_grid=4), "t_grid must be odd", id="fit-t_grid-even"),
    pytest.param(lambda: _fit(t_grid=5.0), "t_grid must be an integer", id="fit-t_grid-float"),
    pytest.param(lambda: _fit(M=0), "M must be >= 1", id="fit-M"),
])
def test_omega_parameters_refused_before_any_solve(monkeypatch, call, message):
    # a bad parameter of omega costs no E_nu solve, which takes seconds at n = 256
    def no_solve(*args, **kwargs):
        raise AssertionError("best approximations solved before omega's parameters were checked")

    monkeypatch.setattr(harness, "best_approx_sequence", no_solve)
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, verdicts", [
    pytest.param(lambda: class_fit(np.abs, SP2, 8, lam=1.0), 2, id="class_fit"),
    pytest.param(lambda: converse_table(np.abs, [4, 8], SP2), 2, id="converse_table"),
    pytest.param(lambda: modulus_curve(np.abs, [0.1, 0.2], SP2), 1, id="modulus_curve"),
    pytest.param(lambda: modulus_omega(np.abs, 0.1, SP2), 1, id="modulus_omega"),
])
def test_parameters_checked_once_per_call(monkeypatch, call, verdicts):
    # omega's gate runs once; a driver's second verdict is best_approx_sequence's,
    # which checks its space itself as a public entry point
    counts = {"verdict": 0, "gate": 0}
    verdict, gate = weighted_space.validate_params, modulus._check_omega_args

    def counted_verdict(*args):
        counts["verdict"] += 1
        return verdict(*args)

    def counted_gate(*args):
        counts["gate"] += 1
        return gate(*args)

    monkeypatch.setattr(weighted_space, "validate_params", counted_verdict)
    for namespace in (modulus, harness):
        monkeypatch.setattr(namespace, "_check_omega_args", counted_gate)
    call()
    assert counts == {"verdict": verdicts, "gate": 1}


def test_class_fit_checks_n_max_before_lambda():
    # lambda is checked with omega's parameters, after n_max picks the deltas
    with pytest.raises(ValueError, match="n_max must be >= 8"):
        class_fit(np.abs, SP2, 4, lam=2.5)


class TestCLI:
    def test_verify_lemma1_exit_zero(self, capsys):
        code = main(["verify-lemma1", "--n-max", "6", "--grid", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 5

    def test_verify_lemma1_fault_exit_one(self, capsys, prefactor_fault):
        code = main(["verify-lemma1", "--n-max", "4", "--grid", "12"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_calibrate_writes_json(self, tmp_path, capsys):
        code = main(["calibrate-multiplier", "--n-max", "4", "--y-grid-size", "7",
                     "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "calibration.json").read_text())
        assert data["validated"] is True
        assert data["first_term_basis"] == [0.0, 0.0]

    def test_calibrate_sizes_are_usage_errors(self, capsys):
        assert main(["calibrate-multiplier", "--n-max", "-1"]) == 2
        assert "n_max must be >= 0" in capsys.readouterr().err
        assert main(["calibrate-multiplier", "--y-grid-size", "0"]) == 2
        assert "y_grid must be non-empty" in capsys.readouterr().err
        assert main(["calibrate-multiplier", "--y-grid-size", "-1"]) == 2
        assert "--y-grid-size must be >= 0" in capsys.readouterr().err

    def test_best_approx_csv_file(self, tmp_path, capsys):
        code = main(["best-approx", "--function", "x2", "--p", "2", "--alpha", "1",
                     "--n-max", "4", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "best-approx.csv").read_text()
        assert text.splitlines()[0] == "ν,E_ν,solver,iterations,gap"
        assert len(text.strip().splitlines()) == 5

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_unusable_out_is_a_usage_error(self, sub, tmp_path, capsys):
        # --out at an existing file, or below one: refused before the table prints
        path = tmp_path / "F"
        path.touch()
        code = main(["best-approx", "--function", "abs", "--p", "2", "--n-max", "4",
                     "--out", str(path / sub)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_modulus_json_format(self, capsys):
        code = main(["modulus", "--function", "x", "--p", "2", "--alpha", "1",
                     "--deltas", "0.2,0.4", "--t-grid", "5", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert payload[0]["delta"] == 0.2
        assert payload[1]["value"] >= payload[0]["value"]

    def test_converse_table_runs(self, capsys):
        code = main(["converse-table", "--function", "x", "--p", "2", "--alpha", "1",
                     "--n-list", "2,4", "--t-grid", "5"])
        assert code == 0
        assert "n,omega,rhs_sum,ratio" in capsys.readouterr().out

    def test_modulus_flag_exits_one(self, capsys):
        # omega of abs on the 3-point t-grid falls from delta 0.9375 to 1
        code = main(["modulus", "--function", "abs", "--t-grid", "3", "--deltas", "0.9375,1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "delta=1.0" in err and "monotonicity_violation" in err
        assert "delta=0.9375" not in err

    def test_converse_table_unbounded_ratio_exits_one(self, capsys, monkeypatch):
        rows = [harness.ConverseTableRow(n, 1.0, 1.0, ratio) for n, ratio in
                [(4, 1.0), (8, 1.0), (16, 30.0)]]
        monkeypatch.setattr(harness, "converse_table", lambda *args, **kwargs: rows)
        code = main(["converse-table", "--function", "abs", "--n-list", "4,8,16"])
        captured = capsys.readouterr()
        assert code == 1
        assert "max/median ratio spread: 30.000" in captured.out
        assert "boundedness proxy violated" in captured.err

    def test_dyadic_runs(self, capsys):
        code = main(["dyadic", "--function", "abs", "--p", "2", "--alpha", "1", "--n", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "N=2" in out.replace(" ", "")

    def test_usage_error_exit_two(self, capsys):
        assert main(["best-approx", "--function", "abs", "--p", "2",
                     "--alpha", "9", "--n-max", "2"]) == 2
        assert main(["no-such-command"]) == 2
        assert main(["modulus", "--function", "nope", "--p", "2", "--alpha", "1"]) == 2

    @pytest.mark.parametrize("argv, option", [
        (["modulus", "--function", "abs", "--deltas", "0.1,x"], "--deltas"),
        (["converse-table", "--function", "abs", "--n-list", "4,8.5"], "--n-list"),
    ], ids=["deltas", "n-list"])
    def test_malformed_list_names_its_option(self, argv, option, capsys):
        assert main(argv + ["--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {option}: " in err
        assert "Traceback" not in err

    def test_unread_option_is_a_usage_error(self, capsys):
        assert main(["calibrate-multiplier", "--p", "0.1"]) == 2
        assert main(["verify-lemma1", "--quad-size", "-5"]) == 2

    def test_csv_fields_formatted(self, capsys):
        e16 = r"-?\d\.\d{16}e[+-]\d{2}"
        e3 = r"-?\d\.\d{3}e[+-]\d{2}"
        cases = [
            (["converse-table", "--function", "abs", "--n-list", "2,4", "--t-grid", "5"],
             2, [r"\d+", e16, e16, e16]),
            (["best-approx", "--function", "abs", "--n-max", "4"],
             4, [r"\d+", e16, "projection", r"\d+", e3]),
            (["modulus", "--function", "abs", "--deltas", "0.1,0.2", "--t-grid", "5"],
             2, [e16] * 3),
        ]
        for argv, n_rows, fields in cases:
            assert main(argv) == 0
            rows = capsys.readouterr().out.splitlines()[1 : 1 + n_rows]
            assert len(rows) == n_rows
            for row in rows:
                assert re.fullmatch(",".join(fields), row), (argv[0], row)

    @pytest.mark.parametrize("text", ["inf", "infinity", "∞", " INF "])
    def test_p_infinity_spellings(self, text, capsys):
        assert _parse_p(text) == math.inf
        assert main(["best-approx", "--function", "abs", "--p", text, "--n-max", "2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["solver"] for r in payload] == ["exchange"] * 2

    def test_best_approx_json_has_coefficients(self, capsys):
        assert main(["best-approx", "--function", "absshift", "--n-max", "3",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for r, entry in zip(harness.best_approx_sequence(get_test_function("absshift"), 3, SP2),
                            payload):
            assert entry["coefficients"] == r.coefficients.tolist()
            assert (entry["n"], entry["value"], entry["flags"]) == (r.n, r.value, [])

    def test_flagged_degrees_listed_on_stderr(self, capsys, monkeypatch):
        # two IRLS iterations are too few at p = 1: lanes stop at the limit
        monkeypatch.setattr(approx, "_IRLS_MAX_ITER", 2)
        code = main(["best-approx", "--function", "abs", "--p", "1", "--n-max", "4"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.startswith("ν,E_ν,solver,iterations,gap\n")
        lines = captured.err.splitlines()
        assert lines and all(re.fullmatch(r"nu=\d: flags \('max_iterations',\)", s)
                             for s in lines), lines

    def test_class_fit_exponents_printed(self, capsys):
        assert main(["class-fit", "--function", "abs", "--n-max", "8", "--t-grid", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        labels = ["exponent from best approximation", "exponent from modulus", "difference"]
        assert [line.split(":")[0] for line in lines] == labels
        assert all(re.fullmatch(r".*: +-?\d\.\d{4}", line) for line in lines), lines

    def test_degenerate_class_fit_json_names_nan(self, capsys):
        assert main(["class-fit", "--function", "x2", "--n-max", "8", "--t-grid", "5",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degenerate"] is True
        assert payload["lambda_best_approx"] == payload["difference"] == "nan"

    def test_class_fit_reports(self, capsys):
        code = main(["class-fit", "--function", "x2", "--p", "2", "--alpha", "1",
                     "--n-max", "8"])
        assert code == 0
        assert "degenerate" in capsys.readouterr().out


_JSON_COMMANDS = {
    "verify-lemma1": ["verify-lemma1", "--n-max", "4", "--grid", "8"],
    "calibrate-multiplier": ["calibrate-multiplier", "--n-max", "4", "--y-grid-size", "7"],
    "best-approx": ["best-approx", "--function", "abs", "--n-max", "4"],
    "modulus": ["modulus", "--function", "abs", "--deltas", "0.1,0.2", "--t-grid", "5"],
    "converse-table": ["converse-table", "--function", "abs", "--n-list", "2,4", "--t-grid", "5"],
    "dyadic": ["dyadic", "--function", "abs", "--n", "5"],
    "class-fit": ["class-fit", "--function", "abs", "--n-max", "8", "--t-grid", "5"],
}


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("cmd", sorted(_JSON_COMMANDS))
def test_json_format_puts_only_json_on_stdout(cmd, out, tmp_path, capsys):
    argv = list(_JSON_COMMANDS[cmd])
    if cmd != "calibrate-multiplier":  # which writes JSON only
        argv += ["--format", "json"]
    if out:
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    if out:
        [path] = tmp_path.iterdir()
        assert json.loads(path.read_text()) == payload
        assert f"wrote {path}" in captured.err
