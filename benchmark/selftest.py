#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and failure counting.

    python3 benchmark/selftest.py

Checks the CSV and calibration comparisons on hand-made cases, then runs
one traced pass of charsum_scan against a reference with one corrupted
row and asserts that exactly the scans of that row are counted as failed.
Takes about 20 s.
"""

import csv
import io

import run
import workloads

SUMS = "p,d,N,sum_kind,re_value,im_value,abs_value,normalized,wall_ms\n"


def check_comparisons():
    ref = SUMS + "10009,2,50,s,-1234.0,0.0,1234.0,0.0001974,1.000\n10009,2,4,t_abs,56.25,0.0,56.25,0.2197265625,2.0\n"
    same = ref.replace("1.000", "9.999")
    assert workloads.compare_csv(ref, same) is None, "wall_ms must be ignored"
    close = ref.replace("56.25,0.0,56.25", "56.25000000001,0.0,56.25")
    assert workloads.compare_csv(ref, close) is None, "t_abs values compare within 1e-9"
    far = ref.replace("56.25,0.0,56.25", "56.2501,0.0,56.25")
    assert "re_value" in workloads.compare_csv(ref, far)
    exact = ref.replace("-1234.0", "-1234.0000000001")
    assert "re_value" in workloads.compare_csv(ref, exact), "order-2 sums compare exactly"
    assert "rows" in workloads.compare_csv(ref, SUMS)
    cal = "a0_C 1.0860620686163431\nprime_tail_C 1.2538959085537782\n"
    assert workloads.compare_constants(cal, cal.replace("782", "775")) is None
    assert "prime_tail_C" in workloads.compare_constants(cal, cal.replace("1.2538", "1.2539"))


def corrupt_first_row(text, column):
    rows = list(csv.reader(io.StringIO(text)))
    i = rows[0].index(column)
    rows[1][i] = repr(float(rows[1][i]) + 2.0)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def check_failure_counted():
    reference = workloads.load_reference("charsum_scan")
    reference["s"] = corrupt_first_row(reference["s"], "re_value")
    result = run.run_workload("charsum_scan", seed=0, seconds=0, trace=1, reference=reference)
    per_pass = len(workloads.WORKLOADS["charsum_scan"])
    assert result["attempted"] == 2 * per_pass, result["attempted"]
    assert result["failed"] == 2, result["failed"]
    failures = [s for p in result["scans"] for s in p if "error" in s]
    assert all(s["label"] == "s" and "row 1 column re_value" in s["error"] for s in failures), failures
    assert result["metrics"]["fail_ratio"] == 2 / (2 * per_pass)
    assert result["metrics"]["sums.delta_profile.calls"] == 4
    assert result["top_self_s"][0][0] == "sums.delta_profile", result["top_self_s"]


if __name__ == "__main__":
    check_comparisons()
    check_failure_counted()
    print("benchmark self-test passed")
