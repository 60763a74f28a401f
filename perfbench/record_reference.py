"""Write perfbench/reference.json: the checked outputs of every workload and
CLI command at the default seed.

The committed file was recorded at the commit that introduced the benchmark,
before any change to the package.  Re-record only in a change that moves the
outputs on purpose, and say so in CHANGES.md.

    python3 perfbench/record_reference.py
"""

import contextlib
import io
import json

import run  # sets the benchmark's environment and puts src/ on the path
import smoothop.cli
import workloads as wl


def main() -> None:
    ref = {"seed": wl.DEFAULT_SEED, "rtol": wl.REF_RTOL, "atol": wl.REF_ATOL,
           "items": {}, "cli": {}}
    for workload in wl.WORKLOADS.values():
        items = workload.items(wl.DEFAULT_SEED)
        _, results = run.run_pass(items)
        for item, res in zip(items, results):
            problems = item.check(res)
            if problems:
                raise SystemExit(f"{item.label}: {problems}")
            ref["items"][item.label] = item.key_values(res).tolist()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            smoothop.cli.main(list(workload.cli))
        ref["cli"][workload.name] = workload.cli_values(out.getvalue()).tolist()
    with open(run.REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
