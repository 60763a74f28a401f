"""The smoothop benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload converse_sup --seed 0 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics (run_s, setup_s, cli_s,
peak_rss_mb; fail_frac is failed / attempted in the result line); with
--trace 1 the per-layer metrics of a traced run.  Every output is checked.
The last line of standard output is the result JSON; --out FILE also appends
the full record (environment manifest, quartiles, checks) as one JSON line.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# Set for this process and its children, before numpy loads.  One BLAS thread:
# the solvers' matrices are small (at most 4097 x 65), and on a shared two-core
# machine a second thread measured slower and noisier.
BENCH_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BENCH_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 8
MIN_PASSES = 3
CHILD_PROBES = 3  # speed probes just before, and again just after, each fresh process
SUBPROCESS_TIMEOUT = 60


def _fail_setup(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "smoothop" / "__init__.py").is_file():
    _fail_setup(f"no smoothop package under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import smoothop  # noqa: E402
import smoothop.cli  # noqa: E402

if Path(smoothop.__file__).resolve().parent != SRC / "smoothop":
    _fail_setup(f"imported smoothop from {smoothop.__file__}, not from {SRC}")

import speedprobe  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE_FILE = HERE / "reference.json"


# ---------------------------------------------------------------------------
# environment manifest


def _blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(workload: wl.Workload, seed: int) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain", "--", "src") if in_repo else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "env": BENCH_ENV,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": (status != "") if status is not None else None,
        "seed": seed,
        "kinks": wl.kink_locations(seed),
        "workload": workload.name,
        "sizes": workload.sizes,
    }


# ---------------------------------------------------------------------------
# checks


class Ledger:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def _load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def _compare_reference(values: np.ndarray, ref: list[float] | None) -> list[str]:
    if ref is None:
        return ["no reference value recorded"]
    ref_a = np.asarray(ref, dtype=float)
    if ref_a.shape != values.shape:
        return [f"{values.size} values, reference has {ref_a.size}"]
    err = np.abs(values - ref_a)
    tol = wl.REF_ATOL + wl.REF_RTOL * np.abs(ref_a)
    if np.all(err <= tol):
        return []
    k = int(np.argmax(err - tol))
    return [f"value {k} = {values[k]!r} differs from reference {ref_a[k]!r}"]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_first_pass(items, results, seed: int, ledger: Ledger,
                     reference: dict) -> list[np.ndarray]:
    """Invariants at any seed, reference values at the default seed."""
    flagged = total = 0
    for item, res in zip(items, results):
        problems = item.check(res)
        if seed == wl.DEFAULT_SEED:
            problems += _compare_reference(item.key_values(res), reference["items"].get(item.label))
        ledger.record(item.label, problems)
        f, t = item.flagged(res)
        flagged, total = flagged + f, total + t
    if total:
        ledger.note(f"solver flags on {flagged} of {total} solves (not failures)")
    return [item.values(res) for item, res in zip(items, results)]


def criterion6_note(items, results) -> None:
    """Print criterion 6's sup-norm ratios and whether they still rise; no assertion."""
    for item, rows in zip(items, results):
        ratios = [r.ratio for r in rows[-3:]]
        rising = ratios[0] < ratios[1] < ratios[2]
        print(f"criterion 6 {item.label}: ratios n=16,32,64 "
              + " ".join(f"{r:.4f}" for r in ratios) + (" (rising)" if rising else ""))


def check_criterion6_rows(items, results, ledger: Ledger) -> None:
    for item, rows in zip(items, results):
        kink = item.label.rsplit("/", 1)[1]
        if kink in wl.CRITERION6_ROWS:
            got = tuple(round(r.ratio, 4) for r in rows[-3:])
            want = wl.CRITERION6_ROWS[kink]
            ledger.record(f"criterion 6 rows {kink}",
                          [] if got == want else [f"ratios {got}, criterion 6 has {want}"])


# ---------------------------------------------------------------------------
# measurements


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(BENCH_ENV)
    return env


def timed_child(cmd: list[str]) -> tuple[float, int | None, str, str]:
    """Run a fresh process from the checkout root: (wall s, exit code, stdout, stderr).
    A child that outlives SUBPROCESS_TIMEOUT is killed and gets exit code None."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, "", f"killed after {SUBPROCESS_TIMEOUT} s"
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def setup_probe(workload: wl.Workload, ledger: Ledger | None) -> float:
    """Fresh-process set-up time; with ledger None the probe is only a warm-up."""
    dt, code, _, err = timed_child([sys.executable, str(HERE / "setup_probe.py"), workload.name])
    if ledger is not None:
        ledger.record("setup probe", [] if code == 0 else [f"exit {code}: {err.strip()[-300:]}"])
    return dt


def check_cli(workload: wl.Workload, code: int | None, out: str, err: str, reference: dict,
              ledger: Ledger) -> None:
    """Exit code 2, any other unexpected code or a traceback fails; 1 is noted."""
    problems = []
    if code not in (0, 1) or "Traceback" in err:
        problems.append(f"exit {code}: {err.strip()[-300:]}")
    else:
        if code == 1:
            ledger.note(f"CLI {' '.join(workload.cli)} exited 1 (a numerical check flagged)")
        try:
            vals = workload.cli_values(out)
        except (ValueError, KeyError, StopIteration) as exc:
            problems.append(f"unparsable output: {exc!r}")
        else:
            problems += wl.finite(vals) + _compare_reference(vals, reference["cli"].get(workload.name))
    ledger.record(f"cli {workload.cli[0]}", problems)


def cli_run(workload: wl.Workload, reference: dict, ledger: Ledger) -> float:
    dt, code, out, err = timed_child([sys.executable, "-m", "smoothop.cli", *workload.cli])
    check_cli(workload, code, out, err, reference, ledger)
    return dt


def run_pass(items, speed: speedprobe.SpeedProbe | None = None
             ) -> tuple[list[float], list, list[float]]:
    """Time each item once: (item times, results, probe times).  With `speed`,
    a speed probe runs before each item and after the last."""
    times, results, probes = [], [], []
    for item in items:
        if speed is not None:
            probes.append(speed.probe())
        t0 = time.perf_counter()
        res = item.run()
        times.append(time.perf_counter() - t0)
        results.append(res)
    if speed is not None:
        probes.append(speed.probe())
    return times, results, probes


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, q2, q3


# ---------------------------------------------------------------------------
# the two kinds of run


def run_untraced(workload, seed, seconds, reference, ledger, detail) -> dict:
    """Passes fill the window; the set-up probes and CLI runs are due at evenly
    spaced moments of it, so that every metric samples the whole window.

    Every time is scaled to the reference speed of speedprobe.py and each
    metric is the median of its scaled samples.  On a shared machine the
    same code runs up to 2x slower for minutes at a time; speed probes next
    to the timed code follow that drift, and no change to the package moves
    them.  A pass is scaled by the probes before each of its items, a fresh
    process by those just before and after it.  The raw samples are recorded.
    """
    start = time.perf_counter()
    speed = speedprobe.SpeedProbe()
    speed.probe()  # warm-up
    setup_probe(workload, None)  # fills the file cache and writes bytecode
    due = sorted([((i + 0.5) / SETUP_REPS * seconds, "setup") for i in range(SETUP_REPS)]
                 + [((i + 0.5) / workload.cli_reps * seconds, "cli")
                    for i in range(workload.cli_reps)])
    samples: dict[str, list[float]] = {"setup": [], "cli": []}
    factors: dict[str, list[float]] = {"run": [], "setup": [], "cli": []}

    smoothop.default_multiplier()
    wl.touch(workload)
    items = workload.items(seed)
    item_times: list[list[float]] = []
    first = None
    while True:
        now = time.perf_counter() - start
        pass_fits = len(item_times) < MIN_PASSES or now + sum(item_times[-1]) <= seconds
        if due and (due[0][0] <= now or not pass_fits):
            kind = due.pop(0)[1]
            probes = [speed.probe() for _ in range(CHILD_PROBES)]
            samples[kind].append(setup_probe(workload, ledger) if kind == "setup"
                                 else cli_run(workload, reference, ledger))
            probes += [speed.probe() for _ in range(CHILD_PROBES)]
            factors[kind].append(speedprobe.factor(probes))
            continue
        if not pass_fits:
            break
        times, results, probes = run_pass(items, speed)
        item_times.append(times)
        factors["run"].append(speedprobe.factor(probes))
        if first is None:
            first = check_first_pass(items, results, seed, ledger, reference)
            if workload.name == "converse_sup":
                criterion6_note(items, results)
                if seed == wl.DEFAULT_SEED:
                    check_criterion6_rows(items, results, ledger)
        else:
            same = all(_same_bits(v, it.values(r)) for v, it, r in zip(first, items, results))
            ledger.record("repeat pass", [] if same else ["outputs differ from the first pass"])

    passes = [sum(t) for t in item_times]
    raw = {"run": passes, **samples}
    scaled = {k: [t * f for t, f in zip(raw[k], factors[k])] for k in raw}
    detail.update({
        "passes": len(passes), "pass_s": passes, "pass_s_quartiles": quartiles(passes),
        "items": [it.label for it in items],
        "item_s": [list(col) for col in zip(*item_times)],
        "setup_s_samples": samples["setup"], "setup_s_quartiles": quartiles(samples["setup"]),
        "cli_s_samples": samples["cli"], "cli_s_quartiles": quartiles(samples["cli"]),
        "speed_factors": factors,
        "speed_factor_quartiles": quartiles([f for fs in factors.values() for f in fs]),
    })
    return {
        "run_s": (statistics.median(scaled["run"]), "s"),
        "setup_s": (statistics.median(scaled["setup"]), "s"),
        "cli_s": (statistics.median(scaled["cli"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


PER_LAYER_UNITS = {"calls": "count", "points": "count", "bytes_computed": "bytes",
                   "ns_per_point": "ns", "translates": "count", "f_evals": "count",
                   "f_points": "count", "solves": "count", "iters": "count",
                   "flagged_frac": "ratio", "spans": "count", "minor_faults": "count"}


def unit_of(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "s")


def run_traced(workload, seed, seconds, reference, ledger, detail) -> dict:
    deadline = time.perf_counter() + seconds
    tracer = tracing.Tracer()

    tracer.install()
    with tracer.root("bench.setup") as root:
        smoothop.default_multiplier()
        wl.touch(workload)
    setup_m = tracer.layer_metrics(root)

    tracer.reset()
    out, err = io.StringIO(), io.StringIO()
    with tracer.root("bench.cli") as root:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = smoothop.cli.main(list(workload.cli))
            except Exception:  # a crash is a failed operation, not a benchmark error
                code = -1
                err.write(traceback.format_exc())
    cli_m = tracer.layer_metrics(root)
    tracer.uninstall()
    check_cli(workload, code, out.getvalue(), err.getvalue(), reference, ledger)

    plain = workload.items(seed)
    traced = workload.items(seed, tracer.wrap_input)
    plain_s, traced_s, per_pass = [], [], []
    first = None
    while not per_pass or time.perf_counter() + plain_s[-1] + traced_s[-1] <= deadline:
        times, results, _ = run_pass(plain)
        plain_s.append(sum(times))
        if first is None:
            first = check_first_pass(plain, results, seed, ledger, reference)
        tracer.reset()
        tracer.install()
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        try:
            with tracer.root("bench.pass") as root:
                times, tresults, _ = run_pass(traced)
        finally:
            tracer.uninstall()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        traced_s.append(sum(times))
        per_pass.append(tracer.layer_metrics(root))
        per_pass[-1].update({
            "process.minor_faults": float(r1.ru_minflt - r0.ru_minflt),
            "process.user_s": r1.ru_utime - r0.ru_utime,
            "process.sys_s": r1.ru_stime - r0.ru_stime,
        })
        same = all(_same_bits(v, it.values(r)) for v, it, r in zip(first, traced, tresults))
        ledger.record("traced pass", [] if same else ["traced outputs differ from untraced"])

    # the tracer's counts must repeat exactly; the kernel's fault count need not
    counts = [k for k in per_pass[0]
              if unit_of(k) not in ("s", "ns") and not k.startswith("process.")]
    varying = sorted({k for m in per_pass for k in counts if m[k] != per_pass[0][k]})
    ledger.record("trace counts", [f"counts differ between traced passes: {varying}"] if varying else [])
    metrics = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["cli.self_s"] = cli_m["cli.self_s"]
    metrics["cli.busy_s"] = cli_m["trace.run_s"]
    metrics["translation.calibrate.setup_busy_s"] = setup_m["translation.calibrate.busy_s"]
    metrics["trace.overhead_s"] = statistics.fmean(traced_s) - statistics.fmean(plain_s)
    detail.update({"passes": len(per_pass),
                   "untraced_pass_s": plain_s, "untraced_pass_s_quartiles": quartiles(plain_s),
                   "traced_pass_s": traced_s, "traced_pass_s_quartiles": quartiles(traced_s)})
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="append the full record to this JSON-lines file")
    args = ap.parse_args(argv)

    # One CPU for this process and the children it starts: the speed probes
    # then run where the timed code runs.  Nothing here runs in parallel.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = wl.WORKLOADS[args.workload]
    man = manifest(workload, args.seed)
    print("manifest " + json.dumps(man))
    reference = _load_reference()
    ledger = Ledger()
    detail: dict = {}
    run = run_traced if args.trace else run_untraced
    metrics = run(workload, args.seed, args.seconds, reference, ledger, detail)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {len(ledger.failures)}/{ledger.attempted}")
    for line in ledger.notes + [f"FAILED {f}" for f in ledger.failures]:
        print(line)
    for key, val in detail.items():
        if key == "passes" or key.endswith("quartiles"):
            print(f"{key} = {json.dumps(val)}")

    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                  "manifest": man, "detail": detail, "failures": ledger.failures,
                  "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
