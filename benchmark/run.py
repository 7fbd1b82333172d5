#!/usr/bin/env python3
"""detsums benchmark: timed `detsums scan` / `detsums calibrate` processes.

    python3 benchmark/run.py --workload charsum_scan --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --trace 1     # every workload and metric

Runs from a checkout of the repository and imports the package from its
`src/`.  Each scan is a fresh `python -m detsums.cli` process with
`--workers 1`, started only after the previous one has ended (a closed
loop with one client).  A pass runs every scan of the workload once;
passes repeat until --seconds have elapsed, and each end-to-end metric is
the median over passes.  Times are scaled to a reference host speed by
probes run between passes (see hostspeed.py); the raw times are printed
and saved beside them.  Every output is checked against the reference
recorded in benchmark/reference/.  With --trace 1, traced passes (see
trace_child.py) alternate with untraced ones and the per-layer metrics
are reported instead.  The last line of stdout is one JSON object.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import hostspeed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
RESULTS_DIR = ROOT / ".bench_results"

# One thread per BLAS/OpenMP pool in every child: on a 2-CPU machine the
# pool's extra threads compete with the scan's own.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_DEADLINE_S = 170.0  # no scan may run past this, so a run ends within 180 s
SETUP_EXTRA = 2  # setup samples taken before the first pass, on top of one per pass

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import detsums.cli
t1 = time.perf_counter()
import numpy
print(json.dumps({"import_s": t1 - t0, "python": sys.version.split()[0], "numpy": numpy.__version__}))
"""


def child_env():
    """The caller's environment without Python or detsums overrides, importing from SRC."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "DETSUM_"))}
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv, env, log_path, timeout):
    """Run argv to completion; returns (wall_s, rusage, exit code or None if it was killed)."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return wall, usage, None if killed.is_set() else proc.returncode


def _last_line(path):
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Run:
    """One benchmark run of one workload: its temp dir, reference and scan records."""

    def __init__(self, workload, seed, reference=None):
        self.workload = workload
        self.seed = seed
        self.reference = reference if reference is not None else workloads.load_reference(workload)
        self.env = child_env()
        self.start = time.perf_counter()
        self.tmp = TMP_ROOT / ("%s-%d" % (workload, os.getpid()))
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.gauge = hostspeed.Gauge(self.env)

    def close(self):
        self.gauge.close()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    def setup(self):
        """Import time of detsums.cli in a fresh interpreter, plus the versions it reports."""
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60
        )
        if out.returncode != 0:
            raise RuntimeError("cannot import detsums.cli from %s:\n%s" % (SRC, out.stderr))
        info = json.loads(out.stdout)
        return info.pop("import_s"), info

    def scan(self, scan, traced):
        """Run one scan process and check its output; returns its record."""
        out = self.tmp / (scan.label + ".out")
        workloads.prepare(scan, SRC, out)
        argv = workloads.command(scan, self.seed, out)
        rec = {"label": scan.label, "traced": traced}
        if traced:
            spans = self.tmp / (scan.label + ".spans.json")
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans), scan.label, *argv]
        else:
            argv = [sys.executable, "-m", "detsums.cli", *argv]
        timeout = RUN_DEADLINE_S - (time.perf_counter() - self.start)
        if timeout <= 0:
            rec["error"] = "run deadline passed before the scan started"
            return rec
        log = self.tmp / (scan.label + ".log")
        wall, usage, code = run_process(argv, self.env, log, timeout)
        rec.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0)
        if code is None:
            rec["error"] = "timed out"
        elif code != 0:
            rec["error"] = "exit code %d: %s" % (code, _last_line(log))
        else:
            error = workloads.check(scan, self.reference[workloads.reference_key(scan, self.seed)], out)
            if error:
                rec["error"] = "output differs from reference: " + error
        if traced and code == 0:
            rec["trace"] = json.loads(spans.read_text())
        return rec

    def run_pass(self, traced):
        scans = [self.scan(scan, traced) for scan in workloads.WORKLOADS[self.workload]]
        self.gauge.after(sum(s.get("wall_s", 0.0) for s in scans))
        return scans


def pass_totals(scans):
    return {
        "wall_s": sum(s.get("wall_s", 0.0) for s in scans),
        "cpu_s": sum(s.get("cpu_s", 0.0) for s in scans),
        "peak_rss_mb": max(s.get("rss_mb", 0.0) for s in scans),
    }


def layer_totals(scans):
    """Per-layer metrics of one traced pass, summed over its scans.

    Metric names are `<span name>.calls`, `.s` (inclusive time), `.self_s`
    (time not covered by child spans) and `.<counter>`, plus the cli
    process and cache figures.
    """
    out = defaultdict(float)
    hits = misses = 0
    for scan in scans:
        trace = scan.get("trace")
        if trace is None:
            continue
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span, covered in zip(spans, child_time):
            name, dur = span["name"], span["end"] - span["start"]
            out[name + ".calls"] += 1
            out[name + ".s"] += dur
            out[name + ".self_s"] += dur - covered
            for counter, amount in span["work"].items():
                out[name + "." + counter] += amount
            if name == "cli":
                out["cli.process_s"] += scan["wall_s"] - dur
        hits += trace["field_cache"]["hits"]
        misses += trace["field_cache"]["misses"]
    out["cli.field_cache.hits"] = hits
    out["cli.field_cache.misses"] = misses
    out["cli.field_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def top_self_times(scans, n=5):
    totals = layer_totals(scans)
    selfs = {k[: -len(".self_s")]: v for k, v in totals.items() if k.endswith(".self_s")}
    return sorted(selfs.items(), key=lambda kv: -kv[1])[:n]


def _median_of(dicts, key):
    return statistics.median(d.get(key, 0.0) for d in dicts)


def environment(seed, info, load_start, probes):
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "detsums").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "python": info.get("python"),
        "numpy": info.get("numpy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "input_seed": workloads.input_seed(seed),
        "probe_s": {"median": statistics.median(probes), "min": min(probes), "max": max(probes), "n": len(probes)},
        "probe_reference_s": hostspeed.REFERENCE_S,
    }


def run_workload(workload, seed, seconds, trace, reference=None):
    """Measure one workload; returns a dict with metrics, counts and the raw records."""
    load_start = list(os.getloadavg())
    if load_start[0] > (os.cpu_count() or 1):
        print("warning: load average %.2f exceeds %d CPUs" % (load_start[0], os.cpu_count()), file=sys.stderr)
    run = Run(workload, seed, reference)
    try:
        setup, plain, traced = [], [], []
        for _ in range(SETUP_EXTRA):
            setup.append(run.setup()[0])
        while True:
            import_s, info = run.setup()
            setup.append(import_s)
            plain.append(run.run_pass(traced=False))
            if trace:
                traced.append(run.run_pass(traced=True))
            if time.perf_counter() - run.start >= seconds:
                break
    finally:
        run.close()
    records = [s for p in plain + traced for s in p]
    failed = sum(1 for s in records if "error" in s)
    totals = [pass_totals(p) for p in plain]
    speed = run.gauge.factor()
    scan_speed = speed if workload in workloads.PROBE_SCALED else 1.0
    metrics = {"raw_" + key: _median_of(totals, key) for key in ("wall_s", "cpu_s")}
    metrics["raw_setup_s"] = statistics.median(setup)
    metrics["wall_s"] = metrics["raw_wall_s"] * scan_speed
    metrics["cpu_s"] = metrics["raw_cpu_s"] * scan_speed
    metrics["setup_s"] = metrics["raw_setup_s"] * speed
    metrics["peak_rss_mb"] = _median_of(totals, "peak_rss_mb")
    metrics["fail_ratio"] = failed / len(records)
    if trace:
        layers = [layer_totals(p) for p in traced]
        for key in {k for d in layers for k in d}:
            metrics[key] = _median_of(layers, key)
        traced_wall = statistics.median(pass_totals(p)["wall_s"] for p in traced)
        metrics["trace_overhead_ratio"] = traced_wall / metrics["raw_wall_s"] - 1.0
    return {
        "workload": workload,
        "env": environment(seed, info, load_start, run.gauge.samples),
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "setup_samples": setup,
        "top_self_s": top_self_times(traced[0]) if traced else [],
        "scans": [[{k: v for k, v in s.items() if k != "trace"} for s in p] for p in plain + traced],
    }


def report(result, units):
    """Human-readable lines for one workload result."""
    env = result["env"]
    print(
        "%s  seed=%s (%s)  passes=%d traced=%d  attempted=%d failed=%d  nproc=%s load=%.2f->%.2f  probe=%.4f s"
        % (
            result["workload"],
            env["seed"],
            env["input_seed"],
            result["passes"],
            result["traced_passes"],
            result["attempted"],
            result["failed"],
            env["nproc"],
            env["loadavg_start"][0],
            env["loadavg_end"][0],
            env["probe_s"]["median"],
        )
    )
    for name, unit in units.items():
        if name in result["metrics"]:
            print("  %-34s %14.6g %s" % (name, result["metrics"][name], unit))
    for name, self_s in result["top_self_s"]:
        print("  self time  %-34s %10.4f s" % (name, self_s))
    for scans in result["scans"]:
        for s in scans:
            if "error" in s:
                print("  FAILED %s: %s" % (s["label"], s["error"]))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "detsums" / "cli.py").is_file():
        print("error: no detsums package under %s" % SRC, file=sys.stderr)
        return 2

    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(raw_wall_s="s", raw_cpu_s="s", raw_setup_s="s", fail_ratio="ratio")
    if args.trace:
        units.update((m["name"], m["unit"]) for m in spec["per_layer"])

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS_DIR.mkdir(exist_ok=True)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        path = RESULTS_DIR / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        path.write_text(json.dumps(result, indent=1) + "\n")
        report(result, units)
        prefix = "" if len(names) == 1 else name + "."
        for m in reported:
            metrics[prefix + m["name"]] = {"value": result["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
