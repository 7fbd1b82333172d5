"""The benchmark's workloads, their recorded reference outputs, and the output checks.

A workload is a fixed list of detsums CLI invocations, each run as its own
process.  Only `u`, `t_abs` and `de_moment` read `--seed`; for those the
reference holds one output per input variant, and a benchmark seed picks
variant `seed % VARIANTS`.  Every other output is seed-independent.
"""

import csv
import io
import json
import math
import shutil
from pathlib import Path
from typing import NamedTuple

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Number of recorded input variants for the seeded scans.
VARIANTS = 64

# The package's documented tolerance for floating-point readouts.
REL_TOL = 1e-9

# Columns that are floating-point readouts in every row.
FLOAT_COLUMNS = {"normalized", "ratio", "density", "kappa_empirical"}
# Sum kinds whose values are floats; the order-2 `s` and `u` sums are integers.
FLOAT_SUM_KINDS = {"t_abs", "de_moment"}
SUM_VALUE_COLUMNS = {"re_value", "im_value", "abs_value"}
# Per-run timing column, never compared.
IGNORED_COLUMNS = {"wall_ms"}


class Scan(NamedTuple):
    label: str  # unique within its workload; names the output file and reference entry
    argv: tuple  # CLI arguments; argv[0] is the subcommand
    seeded: bool  # takes --seed, so the reference is kept per input variant


WORKLOADS = {
    # The paper's core sums at a prime that is 1 mod 4, so S is not trivially 0.
    "charsum_scan": (
        Scan("s", ("scan", "--kind", "s", "--p", "10009", "--n-grid", "50,100,150,200"), False),
        Scan("u", ("scan", "--kind", "u", "--p", "10009", "--n-grid", "50,100,150"), True),
        Scan("t_abs", ("scan", "--kind", "t_abs", "--p", "1000003", "--abc", "60,60,60", "--shift-count", "12"), True),
        Scan("de_moment", ("scan", "--kind", "de_moment", "--p", "1000003", "--shift-count", "12", "--nu", "2"), True),
    ),
    # The acceptance gate's criterion-2 primes; p^4 enumeration, tiny fields.
    "matrix_census": (Scan("census", ("scan", "--kind", "census", "--p", "31,61,101,127"), False),),
    # Thousands of small fields, the sieve, and calibration.
    "prime_sweep": (
        Scan("nonresidue", ("scan", "--kind", "nonresidue", "--p-range", "3:10000"), False),
        Scan("sift", ("scan", "--kind", "sift", "--n-grid", "100000,1000000", "--sift-x", "5", "--sift-y", "1000"), False),
        Scan(
            "sift_distinct",
            ("scan", "--kind", "sift", "--n-grid", "100000,1000000", "--sift-x", "5", "--sift-y", "1000", "--distinct"),
            False,
        ),
        Scan("calibrate", ("calibrate",), False),
    ),
}

# Workloads whose scan times are scaled by the host speed probe (see
# hostspeed.py); `setup_s` is scaled on every workload.  matrix_census is
# left out: its time goes to memory traffic on a 374 MB table, which host
# load slows less, and less regularly, than the probe.  In two sets of ten
# runs its raw wall_s spread by 0.054 and 0.039 of the median, its scaled
# wall_s by 0.147 and 0.074.
PROBE_SCALED = {"charsum_scan", "prime_sweep"}


def input_seed(seed):
    """The CLI --seed string for benchmark seed `seed`."""
    return "bench-%d" % (seed % VARIANTS)


def reference_key(scan, seed):
    return "%s@%d" % (scan.label, seed % VARIANTS) if scan.seeded else scan.label


def load_reference(workload):
    return json.loads((REFERENCE_DIR / (workload + ".json")).read_text())


def prepare(scan, src, out):
    """Clear the previous output; give calibrate a fresh copy of the packaged file."""
    out.unlink(missing_ok=True)
    Path(str(out) + ".manifest.json").unlink(missing_ok=True)
    if scan.argv[0] == "calibrate":
        shutil.copyfile(src / "detsums" / "data" / "calibration.txt", out)


def command(scan, seed, out):
    """CLI arguments for one scan of benchmark seed `seed`, writing to `out`."""
    if scan.argv[0] == "calibrate":
        return [*scan.argv, "--calibration-file", str(out)]
    argv = [*scan.argv, "--workers", "1", "--out", str(out)]
    if scan.seeded:
        argv += ["--seed", input_seed(seed)]
    return argv


def _same(ref, got, tolerant):
    if ref == got:
        return True
    try:
        x, y = float(ref), float(got)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=REL_TOL) if tolerant else x == y


def compare_csv(ref_text, out_text):
    """None when out_text matches the reference CSV, else the first difference."""
    ref = list(csv.reader(io.StringIO(ref_text)))
    out = list(csv.reader(io.StringIO(out_text)))
    if not out:
        return "empty output"
    if out[0] != ref[0]:
        return "header %s, reference %s" % (out[0], ref[0])
    if len(out) != len(ref):
        return "%d rows, reference %d" % (len(out) - 1, len(ref) - 1)
    header = ref[0]
    for i, (r, o) in enumerate(zip(ref[1:], out[1:]), start=1):
        if len(o) != len(header):
            return "row %d has %d fields" % (i, len(o))
        floats = FLOAT_COLUMNS
        if dict(zip(header, r)).get("sum_kind") in FLOAT_SUM_KINDS:
            floats = floats | SUM_VALUE_COLUMNS
        for col, a, b in zip(header, r, o):
            if col not in IGNORED_COLUMNS and not _same(a, b, col in floats):
                return "row %d column %s: %s, reference %s" % (i, col, b, a)
    return None


def _constants(text):
    pairs = (line.split() for line in text.splitlines() if line.strip() and not line.startswith("#"))
    return {name: float(value) for name, value in pairs}


def compare_constants(ref_text, out_text):
    """None when every calibration constant matches within REL_TOL."""
    ref, out = _constants(ref_text), _constants(out_text)
    if sorted(out) != sorted(ref):
        return "constants %s, reference %s" % (sorted(out), sorted(ref))
    for name, value in ref.items():
        if not math.isclose(out[name], value, rel_tol=REL_TOL):
            return "%s = %r, reference %r" % (name, out[name], value)
    return None


def check(scan, ref_text, out):
    """None when the scan's output file matches its reference, else why not."""
    if not out.is_file():
        return "no output file"
    compare = compare_constants if scan.argv[0] == "calibrate" else compare_csv
    return compare(ref_text, out.read_text())
