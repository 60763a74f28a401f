"""Spans around calls into smoothop's public functions, recorded from outside.

A `Tracer` replaces each traced function with a wrapper in every smoothop
namespace that holds it (callers bind names at import, e.g. `modulus` holds
its own `translate_trig`), records a span per call in memory (name, start,
end, parent) and restores the originals on `uninstall`.  Per-layer metrics
are computed from one root span's subtree after the pass.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

import numpy as np

from smoothop import translation

# (module, function, span name): the public functions the traced run times.
TRACED = [
    ("orthopoly", "gauss_legendre", "orthopoly.gauss_legendre"),
    ("orthopoly", "gauss_chebyshev", "orthopoly.gauss_chebyshev"),
    ("orthopoly", "jacobi_eval", "orthopoly.jacobi_eval"),
    ("orthopoly", "fourier_jacobi_coeff", "orthopoly.fourier_jacobi"),
    ("orthopoly", "fourier_jacobi_series", "orthopoly.fourier_jacobi"),
    ("weighted_space", "weighted_norm", "weighted_space.weighted_norm"),
    ("translation", "translate", "translation.translate"),
    ("translation", "translate_trig", "translation.translate_trig"),
    ("translation", "calibrate_multiplier", "translation.calibrate"),
    ("translation", "multiplier_eval", "translation.multiplier_eval"),
    ("modulus", "modulus_omega", "modulus.omega"),
    ("modulus", "modulus_curve", "modulus.curve"),
    ("approx", "best_approx", "approx.best_approx"),
    ("approx", "best_approx_sequence", "approx.sequence"),
    ("harness", "verify_lemma1", "harness.verify_lemma1"),
    ("harness", "converse_table", "harness.converse_table"),
    ("cli", "main", "cli.main"),
]

LAYERS = ("orthopoly", "weighted_space", "translation", "modulus", "approx", "harness",
          "cli", "input")

# float64 temporaries of size len(x) * M that one translation call computes
TRANSLATE_TEMPORARIES = 10


def _translate_points(args, kwargs) -> int:
    f, x = args[0], args[2] if len(args) > 2 else kwargs["x"]
    M = kwargs.get("M", args[3] if len(args) > 3 else None)
    if M is None:
        M = translation._default_quad_size(f)
    return int(np.size(x)) * int(M)


def _count_translate(counts, name, args, kwargs, result) -> None:
    points = _translate_points(args, kwargs)
    counts[f"{name}.points"] += points
    counts["translation.bytes_computed"] += TRANSLATE_TEMPORARIES * 8 * points


def _count_solves(counts, name, args, kwargs, result) -> None:
    results = result if isinstance(result, list) else [result]
    for r in results:
        counts["approx.solves"] += 1
        counts[f"approx.{r.solver}.iters"] += r.iterations
        counts["approx.flagged"] += bool(r.flags)


COUNTERS = {
    "translation.translate": _count_translate,
    "translation.translate_trig": _count_translate,
    "approx.best_approx": _count_solves,
    "approx.sequence": _count_solves,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[dict, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span (a pass, the set-up, a CLI call); yields its index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[f"{name}.calls"] += 1
            if counter is not None:
                counter(self.counts, name, args, kwargs, result)
            return result

        return wrapper

    def wrap_input(self, fn):
        """Wrap the benchmark's own input evaluator; counts calls and points."""
        inner = self.wrap("input.f", fn)

        def evaluator(x):
            self.counts["input.f.points"] += int(np.size(x))
            return inner(x)

        return evaluator

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "smoothop" or k.startswith("smoothop.")]
        for mod_name, attr, span in TRACED:
            original = getattr(sys.modules[f"smoothop.{mod_name}"], attr)
            wrapper = self.wrap(span, original)
            for mod in modules:
                ns = vars(mod)
                for key, val in list(ns.items()):
                    if val is original:
                        self._installed.append((ns, key, original))
                        ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._installed):
            ns[key] = original
        self._installed.clear()

    # -- analysis ---------------------------------------------------------

    def layer_metrics(self, root: int) -> dict[str, float]:
        """Per-layer busy, self and count metrics of one root span's subtree."""
        spans = self.spans
        n = len(spans)
        dur = np.array([s[2] - s[1] for s in spans])
        parent = np.array([s[3] for s in spans])
        child = np.zeros(n)
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        self_t = dur - child

        in_tree = np.zeros(n, dtype=bool)
        in_tree[root] = True
        for i in range(root + 1, n):  # parents precede children
            in_tree[i] = parent[i] >= 0 and in_tree[parent[i]]

        busy: Counter = Counter()
        selft: Counter = Counter()
        under_omega = 0
        for i in np.flatnonzero(in_tree):
            if i == root:
                continue
            name = spans[i][0]
            layer = name.split(".")[0]
            selft[layer] += self_t[i]
            selft[name] += self_t[i]
            ancestors = []
            j = parent[i]
            while j >= 0:
                ancestors.append(spans[j][0])
                j = parent[j]
            if name not in ancestors:  # count a recursive call once
                busy[name] += dur[i]
            if name == "translation.translate_trig" and "modulus.omega" in ancestors:
                under_omega += 1

        c = self.counts
        trig_points = c["translation.translate_trig.points"]
        solves = c["approx.solves"]
        m = {
            "translation.translate_trig.calls": c["translation.translate_trig.calls"],
            "translation.translate_trig.points": trig_points,
            "translation.translate_trig.busy_s": busy["translation.translate_trig"],
            "translation.translate_trig.ns_per_point":
                1e9 * busy["translation.translate_trig"] / trig_points if trig_points else 0.0,
            "translation.translate.calls": c["translation.translate.calls"],
            "translation.translate.points": c["translation.translate.points"],
            "translation.translate.busy_s": busy["translation.translate"],
            "translation.bytes_computed": c["translation.bytes_computed"],
            "translation.calibrate.busy_s": busy["translation.calibrate"],
            "modulus.omega.calls": c["modulus.omega.calls"],
            "modulus.omega.self_s": selft["modulus.omega"],
            "modulus.omega.translates":
                under_omega / c["modulus.omega.calls"] if c["modulus.omega.calls"] else 0.0,
            "input.f_evals": c["input.f.calls"],
            "input.f_points": c["input.f.points"],
            "input.f_busy_s": busy["input.f"],
            "approx.sequence.calls": c["approx.sequence.calls"],
            "approx.busy_s": busy["approx.sequence"] + busy["approx.best_approx"],
            "approx.solves": solves,
            "approx.exchange.iters": c["approx.exchange.iters"],
            "approx.irls.iters": c["approx.irls.iters"],
            "approx.flagged_frac": c["approx.flagged"] / solves if solves else 0.0,
            "orthopoly.gauss_legendre.calls": c["orthopoly.gauss_legendre.calls"],
            "orthopoly.gauss_legendre.busy_s": busy["orthopoly.gauss_legendre"],
            "orthopoly.jacobi_eval.calls": c["orthopoly.jacobi_eval.calls"],
            "orthopoly.jacobi_eval.busy_s": busy["orthopoly.jacobi_eval"],
            "orthopoly.fourier_jacobi.busy_s": busy["orthopoly.fourier_jacobi"],
            "weighted_space.weighted_norm.calls": c["weighted_space.weighted_norm.calls"],
            "weighted_space.weighted_norm.self_s": selft["weighted_space.weighted_norm"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = selft[layer]
        m["trace.spans"] = int(in_tree.sum()) - 1
        m["trace.run_s"] = float(dur[root])
        return {k: float(v) for k, v in m.items()}
