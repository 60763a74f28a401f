"""Command-line entry points for the experiment drivers.

Exit codes: 0 all checks pass, 1 a property check failed, 2 usage error
(including an --out directory that cannot be made or written to).
Under --format json, stdout holds the JSON document alone; every other line
goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import harness
from .approx import best_approx_sequence
from .modulus import modulus_curve
from .orthopoly import _check_int
from .translation import calibrate_multiplier, calibration_report
from .weighted_space import WeightedSpace


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "∞"):
        return math.inf
    return float(text)


def _list_of(cast):
    """The argparse type of a comma-separated list of `cast` values: a bad
    entry is an error that names the option."""
    def parse(text: str) -> list:
        try:
            return [cast(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _csv(header: str, rows, spec) -> str:
    """CSV text: the header line, then each row with field i as format(field, spec[i])."""
    lines = [header] + [",".join(map(format, row, spec)) for row in rows]
    return "\n".join(lines) + "\n"


def _note(args, text: str) -> None:
    """Print a human-readable line: to stdout, or to stderr under --format json,
    where stdout holds the JSON document alone."""
    print(text, file=sys.stderr if args.format == "json" else sys.stdout)


def _emit(args, name: str, table, payload) -> None:
    """Print the table and, with --out, write <name>.csv or <name>.json.

    `table` is (header, rows, spec) for :func:`_csv`, or None for JSON only.
    """
    if args.format == "json":
        text = json.dumps(_jsonable(payload), indent=2) + "\n"
        ext = "json"
    else:
        text = _csv(*table)
        ext = "csv"
    sys.stdout.write(text)
    if args.out:  # made by main before the command ran
        path = os.path.join(args.out, f"{name}.{ext}")
        with open(path, "w") as fh:
            fh.write(text)
        _note(args, f"wrote {path}")


_OPTIONS = {
    "p": dict(type=_parse_p, default=2.0, help="integrability exponent (or 'inf')"),
    "alpha": dict(type=float, default=1.0, help="weight exponent"),
    "function": dict(
        required=True,
        help=f"test function name ({', '.join(harness.TEST_FUNCTION_NAMES)}) "
        f"or comma-separated Chebyshev coefficients",
    ),
    "t-grid": dict(type=int, default=33, help="t samples for the modulus"),
    "quad-size": dict(type=int, default=None, help="translation quadrature size"),
    "out": dict(default=None, help="output directory"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "seed": dict(type=int, default=0),
}
_FUNCTION = ("p", "alpha", "function", "seed")  # the seed picks randpoly's coefficients
_MODULUS = ("t-grid", "quad-size")
_OUTPUT = ("out", "format")


def _add_options(sub, *names: str):
    """Register the shared options `names` (keys of _OPTIONS) on a subcommand."""
    for name in names:
        sub.add_argument(f"--{name}", **_OPTIONS[name])
    return sub


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothop",
        description="Generalized-translation smoothness experiments on [-1, 1]",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    s = _add_options(subs.add_parser("verify-lemma1", help="operator property suite"),
                     *_OUTPUT, "seed")
    s.add_argument("--n-max", type=int, default=20)
    s.add_argument("--grid", type=int, default=24)

    s = _add_options(subs.add_parser("calibrate-multiplier", help="match multiplier closed forms"),
                     "out")
    s.add_argument("--n-max", type=int, default=8)
    s.add_argument("--y-grid-size", type=int, default=17)
    s.set_defaults(format="json")  # calibration is inherently structured

    s = _add_options(subs.add_parser("best-approx", help="best-approximation sequence"),
                     *_FUNCTION, *_OUTPUT)
    s.add_argument("--n-max", type=int, default=32)

    s = _add_options(subs.add_parser("modulus", help="modulus-of-smoothness curve"),
                     *_FUNCTION, *_MODULUS, *_OUTPUT)
    s.add_argument("--deltas", type=_list_of(float), default="0.1,0.2,0.4",
                   help="ascending positive deltas")

    s = _add_options(subs.add_parser("converse-table", help="converse-inequality ratios"),
                     *_FUNCTION, *_MODULUS, *_OUTPUT)
    s.add_argument("--n-list", type=_list_of(int), default="4,8,16,32,64",
                   help="ascending n values")

    s = _add_options(subs.add_parser("dyadic", help="dyadic proof mechanics"),
                     *_FUNCTION, *_OUTPUT)
    s.add_argument("--n", type=int, required=True)

    s = _add_options(subs.add_parser("class-fit", help="smoothness exponent fit"),
                     *_FUNCTION, *_MODULUS, *_OUTPUT)
    s.add_argument("--n-max", type=int, default=64)
    s.add_argument("--lam", type=float, default=None, help="smoothness hypothesis in (0, 2)")

    return parser


def _cmd_verify_lemma1(args) -> int:
    report = harness.verify_lemma1(n_max=args.n_max, grid=args.grid, seed=args.seed)
    rows = [(c.name, c.max_residual, c.tolerance, "PASS" if c.passed else "FAIL")
            for c in report.checks]
    for name, resid, tol, status in rows:
        _note(args, f"property {name}: {status} (max residual {resid:.3e}, tolerance {tol:.1e})")
    if args.out or args.format == "json":
        table = ("property,max_residual,tolerance,status", rows, ("", ".3e", ".1e", ""))
        _emit(args, "verify-lemma1", table, report)
    return 0 if report.all_passed else 1


def _cmd_calibrate(args) -> int:
    _check_int(args.y_grid_size, "--y-grid-size", 0)
    y_grid = np.linspace(-1.0, 1.0, args.y_grid_size)
    mult = calibrate_multiplier(n_max=args.n_max, y_grid=y_grid)
    report = calibration_report(mult)
    for key, resid in report["residual_table"].items():
        _note(args, f"candidate {key}: max residual {resid:.3e}")
    status = "validated" if mult.validated else "NOT validated"
    _note(args, f"chosen {report['first_term_basis']} + {report['second_term_basis']} "
                f"(degree shift {report['degree_shift']}): {status}")
    _emit(args, "calibration", None, report)
    return 0 if mult.validated else 1


def _cmd_best_approx(args) -> int:
    results = best_approx_sequence(args.f, args.n_max, args.space)
    rows = [(r.n, r.value, r.solver, r.iterations, r.residual_norm_gap) for r in results]
    table = ("ν,E_ν,solver,iterations,gap", rows, ("", ".16e", "", "", ".3e"))
    _emit(args, "best-approx", table, results)
    flagged = [r for r in results if r.flags]
    for r in flagged:
        print(f"nu={r.n}: flags {r.flags}", file=sys.stderr)
    return 1 if flagged else 0


def _cmd_modulus(args) -> int:
    reports = modulus_curve(args.f, args.deltas, args.space, t_grid=args.t_grid, M=args.quad_size)
    rows = [(r.delta, r.value, r.argmax_t) for r in reports]
    _emit(args, "modulus", ("δ,ω,argmax_t", rows, (".16e",) * 3), reports)
    flagged = [r for r in reports if r.flags]
    for r in flagged:
        print(f"delta={r.delta}: flags {r.flags}", file=sys.stderr)
    return 1 if flagged else 0


def _cmd_converse(args) -> int:
    rows = harness.converse_table(
        args.f, args.n_list, args.space,
        t_grid=args.t_grid, M=args.quad_size,
    )
    table = ("n,omega,rhs_sum,ratio", [(r.n, r.omega, r.rhs_sum, r.ratio) for r in rows],
             ("", ".16e", ".16e", ".16e"))
    _emit(args, "converse-table", table, rows)
    ratios = [r.ratio for r in rows if r.ratio > 0]
    if ratios:
        spread = max(ratios) / float(np.median(ratios))
        _note(args, f"max/median ratio spread: {spread:.3f}")
        if spread > 10:
            print("boundedness proxy violated (max/median > 10)", file=sys.stderr)
            return 1
    return 0


def _cmd_dyadic(args) -> int:
    dec = harness.dyadic_bound(args.f, args.n, args.space)
    _note(args, f"n={dec.n}  N={dec.N}  (n/2 < 2^N <= n+1)")
    for k, q in enumerate(dec.blocks):
        _note(args, f"  ||Q_{k}|| = {q:.6e}")
    for c in dec.checks:
        status = "PASS" if c.passed else "FAIL"
        _note(args, f"check {c.name}: {status} (max violation {c.max_residual:.3e})")
    if args.out or args.format == "json":
        _emit(args, "dyadic", ("k,block_norm", enumerate(dec.blocks), ("", ".16e")), dec)
    return 0 if dec.all_passed else 1


def _cmd_class_fit(args) -> int:
    res = harness.class_fit(
        args.f, args.space, args.n_max, lam=args.lam,
        t_grid=args.t_grid, M=args.quad_size,
    )
    if res.degenerate:
        _note(args, "degenerate fit (under 3 values above roundoff; is the input a polynomial?)")
    else:
        _note(args, f"exponent from best approximation: {res.lambda_best_approx:.4f}")
        _note(args, f"exponent from modulus:            {res.lambda_modulus:.4f}")
        _note(args, f"difference:                       {res.difference:.4f}")
    if args.out or args.format == "json":
        row = (res.lambda_best_approx, res.lambda_modulus, res.difference, res.degenerate)
        table = ("lambda_best_approx,lambda_modulus,difference,degenerate", [row], ("",) * 4)
        _emit(args, "class-fit", table, res)
    return 0


_HANDLERS = {
    "verify-lemma1": _cmd_verify_lemma1,
    "calibrate-multiplier": _cmd_calibrate,
    "best-approx": _cmd_best_approx,
    "modulus": _cmd_modulus,
    "converse-table": _cmd_converse,
    "dyadic": _cmd_dyadic,
    "class-fit": _cmd_class_fit,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.out:  # an unusable directory is refused before any work
            os.makedirs(args.out, exist_ok=True)
        if "function" in args:  # the commands on a test function in a weighted space
            args.f = harness.get_test_function(args.function, seed=args.seed)
            args.space = WeightedSpace(args.p, args.alpha)
        return _HANDLERS[args.cmd](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
