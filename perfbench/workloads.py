"""Seeded inputs and the three workloads of the smoothop benchmark.

Each workload is a batch of *items*: one call into smoothop's public API with
inputs drawn from the seed.  A pass runs every item once.  Every item knows
how to flatten its result into numbers (for the bit-identity and determinism
checks), which of those numbers are compared against the reference values
recorded at the default seed, and which invariants hold at any seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import smoothop

DEFAULT_SEED = 0

# Kink locations c of the three kink inputs at the default seed: |x|,
# sign(x)|x|^{3/2} and |x - 1/4| are the library functions abs, signabs32 and
# absshift.
DEFAULT_KINKS = (0.0, 0.0, 0.25)
KINK_KINDS = ("abs", "signabs32", "abs")

N_LIST = [4, 8, 16, 32, 64]
LP_EXPONENTS = (1.0, 1.5, 3.0)
LP_N_MAX = 16
P2_N_MAX = 64
MODULUS_DELTAS = (0.1, 0.2, 0.4)
FOURIER_K_MAX = 64
CALIBRATION_Y_GRID = 17  # the calibrate-multiplier CLI's default y-grid size

# Grid sizes of the norms that E_nu is measured in (smoothop.approx); the
# trivial bound E_nu <= ||f|| is checked on the solver's own grid.
SOLVER_GRID = {"sup": 4097, "p2": 256, "irls": 1025}

# Reference comparison: |value - ref| <= REF_ATOL + REF_RTOL * |ref|.
REF_RTOL = 1e-6
REF_ATOL = 1e-12

# Criterion 6's sup-norm ratio rows (n = 16, 32, 64) for abs and absshift,
# to four decimals.
CRITERION6_ROWS = {"kink0": (2.2310, 2.2719, 2.2835), "kink2": (2.1274, 2.1930, 2.2047)}


def sup_space() -> smoothop.WeightedSpace:
    return smoothop.WeightedSpace(math.inf, 1.0)


def lp_space(p: float) -> smoothop.WeightedSpace:
    return smoothop.WeightedSpace(p, 1.0)


def kink_locations(seed: int) -> tuple[float, float, float]:
    if seed == DEFAULT_SEED:
        return DEFAULT_KINKS
    rng = np.random.default_rng(seed)
    return tuple(float(c) for c in rng.uniform(-0.5, 0.5, 3))


def _kink_evaluator(kind: str, c: float) -> Callable[[np.ndarray], np.ndarray]:
    if kind == "abs":
        return lambda x: np.abs(x - c)
    return lambda x: np.sign(x - c) * np.abs(x - c) ** 1.5


Wrap = Callable[[Callable], Callable]


def _identity(fn: Callable) -> Callable:
    return fn


def kink_inputs(seed: int, wrap: Wrap = _identity) -> list[smoothop.SampledFunction]:
    """The three kink functions of a seed; `wrap` decorates each evaluator."""
    return [
        smoothop.SampledFunction(wrap(_kink_evaluator(kind, c)), name=f"kink{i}")
        for i, (kind, c) in enumerate(zip(KINK_KINDS, kink_locations(seed)))
    ]


def randpoly_input(seed: int, wrap: Wrap = _identity) -> smoothop.SampledFunction:
    """The library's seeded degree-10 polynomial, randpoly(seed)."""
    base = smoothop.get_test_function("randpoly", seed=seed)
    return smoothop.SampledFunction(wrap(base.evaluator), name=base.name, degree=base.degree)


# ---------------------------------------------------------------------------
# items


@dataclass
class Item:
    """One timed call.  `values` flattens the result for the bit-identity
    check, `key` picks the numbers compared against the reference, and
    `check` returns the invariants the result violates."""

    label: str
    run: Callable[[], Any]
    values: Callable[[Any], np.ndarray]
    check: Callable[[Any], list[str]]
    key: Callable[[Any], np.ndarray] | None = None
    flagged: Callable[[Any], tuple[int, int]] = lambda result: (0, 0)

    def key_values(self, result) -> np.ndarray:
        return (self.key or self.values)(result)


def finite(vals: np.ndarray) -> list[str]:
    return [] if np.all(np.isfinite(vals)) else ["non-finite output"]


def _converse_values(rows) -> np.ndarray:
    return np.array([[r.omega, r.rhs_sum, r.ratio] for r in rows], dtype=float).ravel()


def _check_converse(rows, fnorm: float) -> list[str]:
    vals = _converse_values(rows)
    bad = finite(vals)
    omega = np.array([r.omega for r in rows])
    rhs = np.array([r.rhs_sum for r in rows])
    ns = np.array([r.n for r in rows], dtype=float)
    # delta = 1/n falls along the table, so omega may not rise
    if np.any(omega[1:] > omega[:-1] + 1e-12 * max(1.0, omega[0])):
        bad.append("omega not monotone in delta")
    if np.any(omega < 0) or np.any(rhs <= 0):
        bad.append("negative omega or non-positive rhs sum")
    # E_nu <= ||f|| bounds sum nu E_nu by ||f|| n (n + 1) / 2
    if np.any(rhs > fnorm * ns * (ns + 1) / 2 * (1 + 1e-9)):
        bad.append("rhs sum above the trivial bound")
    return bad


def _sequence_values(seq) -> np.ndarray:
    return np.array([r.value for r in seq], dtype=float)


def _check_sequence(seq, fnorm: float) -> list[str]:
    e = _sequence_values(seq)
    bad = finite(e)
    # An increase the solver flags itself is a truthful flag (counted in
    # approx.flagged_frac); an unflagged increase is a wrong answer.
    rises = np.flatnonzero(e[1:] > e[:-1] + 1e-9) + 1
    if any("monotonicity_violation" not in seq[i].flags for i in rises):
        bad.append("E_nu increases without a monotonicity_violation flag")
    if np.any(e < 0) or np.any(e > fnorm * (1 + 1e-9)):
        bad.append("E_nu outside [0, ||f||]")
    return bad


def _sequence_flags(seq) -> tuple[int, int]:
    return sum(1 for r in seq if r.flags), len(seq)


def _converse_items(kinks, space, fnorms, tag: str) -> list[Item]:
    return [
        Item(
            f"converse_table/{tag}/{f.name}",
            lambda f=f: smoothop.converse_table(f, N_LIST, space),
            _converse_values,
            lambda rows, fn=fn: _check_converse(rows, fn),
        )
        for f, fn in zip(kinks, fnorms)
    ]


def _norms(fns, space, resolution) -> list[float]:
    return [smoothop.weighted_norm(f, space, resolution) for f in fns]


def converse_sup_items(seed: int, wrap: Wrap = _identity) -> list[Item]:
    kinks = kink_inputs(seed, wrap)
    space = sup_space()
    return _converse_items(kinks, space, _norms(kink_inputs(seed), space, SOLVER_GRID["sup"]), "sup")


def approx_lp_items(seed: int, wrap: Wrap = _identity) -> list[Item]:
    kinks = kink_inputs(seed, wrap)
    plain = kink_inputs(seed)
    plan = [(p, LP_N_MAX, SOLVER_GRID["irls"]) for p in LP_EXPONENTS]
    plan.append((2.0, P2_N_MAX, SOLVER_GRID["p2"]))
    items = []
    for p, n_max, grid in plan:
        space = lp_space(p)
        for f, fnorm in zip(kinks, _norms(plain, space, grid)):
            items.append(Item(
                f"best_approx_sequence/p={p:g}/{f.name}",
                lambda f=f, space=space, n_max=n_max: smoothop.best_approx_sequence(f, n_max, space),
                _sequence_values,
                lambda seq, fnorm=fnorm: _check_sequence(seq, fnorm),
                flagged=_sequence_flags,
            ))
    return items


def _lemma_values(rep) -> np.ndarray:
    return np.array([c.max_residual for c in rep.checks], dtype=float)


def _check_lemma(rep) -> list[str]:
    bad = finite(_lemma_values(rep))
    if not rep.all_passed:
        bad.append("operator property check failed: "
                   + ", ".join(c.name for c in rep.checks if not c.passed))
    return bad


def _calibration_values(mult) -> np.ndarray:
    bases = [mult.first_term_basis.alpha_idx, mult.first_term_basis.beta_idx,
             mult.second_term_basis.alpha_idx, mult.second_term_basis.beta_idx]
    return np.array(bases + [float(mult.validated), mult.max_residual]
                    + list(mult.residual_table.values()), dtype=float)


def _calibration_key(mult) -> np.ndarray:
    # the chosen candidate's residual is roundoff; the losers' are not
    vals = _calibration_values(mult)
    table = np.array(list(mult.residual_table.values()))
    return np.concatenate([vals[:5], table[table > 1e-6]])


def _check_calibration(mult) -> list[str]:
    bad = finite(_calibration_values(mult))
    if not mult.validated:
        bad.append("multiplier not validated")
    return bad


def _coeff_key(seq) -> np.ndarray:
    return seq.values[:11]


def _check_coeffs(seq) -> list[str]:
    a = seq.values
    bad = finite(a)
    # randpoly has degree 10 and the default rule is exact, so a_k = 0 beyond
    if np.any(np.abs(a[11:]) > 1e-10 * max(1.0, float(np.max(np.abs(a))))):
        bad.append("coefficient beyond the degree of the polynomial")
    return bad


def _curve_values(reports) -> np.ndarray:
    return np.array([[r.value, r.argmax_t] for r in reports], dtype=float).ravel()


def _check_curve(reports) -> list[str]:
    bad = finite(_curve_values(reports))
    if any(r.flags for r in reports):
        bad.append("modulus curve flagged: " + ", ".join(f for r in reports for f in r.flags))
    w = np.array([r.value for r in reports])
    if np.any(w[1:] < w[:-1]) or np.any(w < 0):
        bad.append("omega not monotone in delta")
    return bad


def operator_poly_items(seed: int, wrap: Wrap = _identity) -> list[Item]:
    poly = randpoly_input(seed, wrap)
    kink = kink_inputs(seed, wrap)[0]
    p2 = lp_space(2.0)
    y_grid = np.linspace(-1.0, 1.0, CALIBRATION_Y_GRID)
    return [
        Item("verify_lemma1", lambda: smoothop.verify_lemma1(seed=seed),
             _lemma_values, _check_lemma, key=lambda rep: np.zeros(0)),
        Item("calibrate_multiplier/y17", lambda: smoothop.calibrate_multiplier(y_grid=y_grid),
             _calibration_values, _check_calibration, key=_calibration_key),
        Item("fourier_jacobi_series/randpoly", lambda: smoothop.fourier_jacobi_series(poly, FOURIER_K_MAX),
             lambda s: s.values.copy(), _check_coeffs, key=_coeff_key),
        Item("modulus_curve/p=2/randpoly",
             lambda: smoothop.modulus_curve(poly, MODULUS_DELTAS, p2),
             _curve_values, _check_curve),
        *_converse_items([kink], p2, _norms(kink_inputs(seed)[:1], p2, SOLVER_GRID["p2"]), "p=2"),
    ]


# ---------------------------------------------------------------------------
# CLI commands and set-up touches


def _parse_csv_column(stdout: str, header: str, column: int) -> np.ndarray:
    lines = stdout.splitlines()
    start = lines.index(header) + 1
    vals = []
    for line in lines[start:]:
        parts = line.split(",")
        if len(parts) != header.count(",") + 1:
            break
        vals.append(float(parts[column]))
    return np.array(vals)


def _converse_cli_values(stdout: str) -> np.ndarray:
    rows = [_parse_csv_column(stdout, "n,omega,rhs_sum,ratio", k) for k in (1, 2, 3)]
    return np.column_stack(rows).ravel()


def _best_approx_cli_values(stdout: str) -> np.ndarray:
    return _parse_csv_column(stdout, "ν,E_ν,solver,iterations,gap", 1)


def _calibration_cli_values(stdout: str) -> np.ndarray:
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("{"))
    report = json.loads("\n".join(lines[start:]))
    if not report["validated"]:
        raise ValueError("calibrate-multiplier did not validate a candidate")
    resid = np.array(list(report["residual_table"].values()), dtype=float)
    return np.concatenate([report["first_term_basis"], report["second_term_basis"],
                           resid[resid > 1e-6]])


@dataclass(frozen=True)
class Workload:
    name: str
    items: Callable[..., list[Item]]
    cli: tuple[str, ...]
    cli_reps: int
    cli_values: Callable[[str], np.ndarray]
    spaces: tuple[float, ...]
    sizes: dict


WORKLOADS = {
    # sup-norm converse tables: translate_trig at 4097 x 128 dominates; run by
    # hand, not listed in BENCHMARK.json (README: too few passes per run and
    # a memory-bound pass the speed probe does not follow)
    "converse_sup": Workload(
        name="converse_sup",
        items=converse_sup_items,
        cli=("converse-table", "--function", "abs", "--p", "inf"),
        cli_reps=3,
        cli_values=_converse_cli_values,
        spaces=(math.inf,),
        sizes={"n_list": N_LIST, "kinks": 3, "t_grid": 33, "M": 128,
               "norm_grid": SOLVER_GRID["sup"]},
    ),
    # L^p solvers only: no translation at all
    "approx_lp": Workload(
        name="approx_lp",
        items=approx_lp_items,
        cli=("best-approx", "--function", "abs", "--p", "1", "--n-max", "32"),
        cli_reps=6,
        cli_values=_best_approx_cli_values,
        spaces=(1.0, 1.5, 2.0, 3.0),
        sizes={"p": list(LP_EXPONENTS), "n_max": LP_N_MAX, "p2_n_max": P2_N_MAX, "kinks": 3,
               "irls_grid": SOLVER_GRID["irls"], "p2_grid": SOLVER_GRID["p2"]},
    ),
    # many small translation calls, quadrature builds and Jacobi recurrences;
    # its CLI command is short, so it is sampled more often
    "operator_poly": Workload(
        name="operator_poly",
        items=operator_poly_items,
        cli=("calibrate-multiplier",),
        cli_reps=16,
        cli_values=_calibration_cli_values,
        spaces=(2.0,),
        sizes={"lemma1": {"n_max": 20, "grid": 24}, "calibration_y_grid": CALIBRATION_Y_GRID,
               "fourier_k_max": FOURIER_K_MAX, "modulus_deltas": list(MODULUS_DELTAS),
               "converse_p2_n_list": N_LIST},
    ),
}


def touch(workload: Workload) -> None:
    """First touch of a workload's grids and code paths, at negligible size."""
    one = smoothop.SampledFunction(np.ones_like, name="one", degree=0)
    for p in workload.spaces:
        space = smoothop.WeightedSpace(p, 1.0)
        smoothop.weighted_norm(one, space)
        smoothop.best_approx(one, 1, space)
    smoothop.translate_trig(one, 0.1, 0.5)
    smoothop.fourier_jacobi_series(one, 1)
