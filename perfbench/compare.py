"""Compare two result sets of the smoothop benchmark, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py RUNS.jsonl          # spread of one set only

Each file holds the records that `run.py --out FILE` appends.  Records are
grouped by (workload, trace); within a group the i-th BASE run is paired with
the i-th NEW run, so run the two sides alternately.  Each (metric, workload)
pair gets one label, by the rule of choosing-metrics section 8 with the bounds
of BENCHMARK.json:

* unresolved: the metric has a bound, BASE's spread (interquartile distance
  over median) exceeds it, and not every NEW run beats every BASE run;
* better: NEW wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than BASE's interquartile distance,
  or, where the spread exceeds the bound, every NEW run beats every BASE run;
* worse: the same rule with the sides swapped, or NEW's median is worse than
  BASE's by more than the bound;
* same: anything else.

The exit code is 1 if any pair is worse or any run failed a check, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_specs() -> dict[str, dict]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_runs(path: str) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def spread(vals: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median), quartiles as statistics.quantiles gives them."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0], 0.0
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def label(base: list[float], new: list[float], spec: dict) -> tuple[str, str]:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    q1, med_b, q3, rel = spread(base)
    med_n = statistics.median(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0)
    beyond_iqr = abs(med_n - med_b) > q3 - q1
    bound = spec.get("bound")
    why = f"wins {wins}/{len(pairs)}, losses {losses}/{len(pairs)}"
    if bound is not None and rel > bound:
        all_beat = all(sign * (n - b) < 0 for n in new for b in base)
        return ("better" if all_beat else "unresolved"), why + f", spread {rel:.3f} > bound"
    if pairs and wins >= WIN_SHARE * len(pairs) and beyond_iqr and sign * (med_n - med_b) < 0:
        return "better", why
    if pairs and losses >= WIN_SHARE * len(pairs) and beyond_iqr and sign * (med_n - med_b) > 0:
        return "worse", why
    if bound is not None and sign * (med_n - med_b) > bound * abs(med_b):
        return "worse", why + f", median worse by more than {bound:g}"
    return "same", why


def failures(runs: list[dict]) -> tuple[int, int]:
    return (sum(r["result"]["failed"] for r in runs), sum(r["result"]["attempted"] for r in runs))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    specs = load_specs()
    sets = [load_runs(p) for p in argv]
    status = 0
    for key in sorted(sets[0]):
        workload, trace = key
        sides = [s.get(key, []) for s in sets]
        if not all(sides):
            print(f"{workload} trace={trace}: missing from one set, skipped")
            continue
        fails = [failures(runs) for runs in sides]
        print(f"\n{workload} (trace={trace}): runs {' vs '.join(str(len(r)) for r in sides)}, "
              f"failed {' vs '.join(f'{f}/{a}' for f, a in fails)}")
        status |= any(f for f, _ in fails)
        for name in sides[0][0]["result"]["metrics"]:
            spec = specs.get(name)
            vals = [[r["result"]["metrics"][name]["value"] for r in runs] for runs in sides]
            unit = sides[0][0]["result"]["metrics"][name]["unit"]
            q1, med, q3, rel = spread(vals[0])
            bound = spec.get("bound") if spec else None
            text = f"  {name:42s} {med:12.6g} {unit:6s} [{q1:.6g}, {q3:.6g}] spread {rel:.3f}"
            if bound is not None:
                text += f" (bound {bound:g}{', above' if rel > bound else ''})"
            if len(vals) == 2 and spec is not None:
                verdict, why = label(vals[0], vals[1], spec)
                text += f"  -> {statistics.median(vals[1]):.6g}: {verdict} ({why})"
                status |= verdict == "worse"
            print(text)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
