#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every scan against.

    python3 benchmark/record_reference.py [WORKLOAD ...]

Runs every scan of the named workloads (default: all) from this checkout's
src/, once per input variant for the seeded scans, and writes
benchmark/reference/<workload>.json mapping reference key -> output text.
The references were recorded at the seed code; re-record only when an
output is meant to change, and say so in the change that does it.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def record(workload, tmp):
    ref = {}
    for scan in workloads.WORKLOADS[workload]:
        for seed in range(workloads.VARIANTS if scan.seeded else 1):
            out = tmp / (scan.label + ".out")
            workloads.prepare(scan, run.SRC, out)
            argv = [sys.executable, "-m", "detsums.cli", *workloads.command(scan, seed, out)]
            subprocess.run(argv, cwd=run.ROOT, env=run.child_env(), check=True, stdout=subprocess.DEVNULL)
            ref[workloads.reference_key(scan, seed)] = out.read_text()
    return ref


def main(names):
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    run.TMP_ROOT.mkdir(exist_ok=True)
    for workload in names or list(workloads.WORKLOADS):
        with tempfile.TemporaryDirectory(dir=run.TMP_ROOT) as tmp:
            ref = record(workload, Path(tmp))
        path = workloads.REFERENCE_DIR / (workload + ".json")
        path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
        print("wrote %s (%d entries)" % (path, len(ref)))
    run.TMP_ROOT.rmdir()


if __name__ == "__main__":
    main(sys.argv[1:])
