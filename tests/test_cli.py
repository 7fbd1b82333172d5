"""CLI wiring: schemas, exit codes, determinism, worker independence."""

import csv
import json
import math

import pytest

from detsums import cli
from detsums.sifter import write_calibration, read_calibration


def run_cli(argv):
    return cli.main(argv)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def strip_wall(rows):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


def test_census_scan(tmp_path):
    out = tmp_path / "census.csv"
    assert run_cli(["scan", "--kind", "census", "--p-range", "3:13", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [r["p"] for r in rows] == ["3", "5", "7", "11", "13"]
    for r in rows:
        assert 0.0 < float(r["ratio"]) < 1.0
        assert int(r["n_total"]) == int(r["p"]) ** 4
    manifest = json.loads((tmp_path / "census.csv.manifest.json").read_text())
    assert manifest["rows"] == 5 and manifest["kind"] == "census"


def test_sums_scan_schema(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(["scan", "--kind", "s", "--p", "101", "--order", "2", "--n-grid", "5,10,20", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 3
    for r in rows:
        n = int(r["N"])
        assert math.isclose(float(r["normalized"]), float(r["abs_value"]) / n**4)
        assert r["sum_kind"] == "s"


def test_invalid_order_exit_2(capsys):
    code = run_cli(["scan", "--kind", "s", "--p", "11", "--order", "4", "--n-grid", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "d=4" in err and "p=11" in err


def test_validation_errors():
    assert run_cli(["scan", "--kind", "s", "--p", "9", "--n-grid", "2"]) == 2  # not prime
    assert run_cli(["scan", "--kind", "s", "--p", "7", "--n-grid", "9"]) == 2  # N >= p
    assert run_cli(["scan", "--kind", "s", "--n-grid", "4"]) == 2  # no primes
    assert run_cli(["scan", "--kind", "t_n", "--p", "31", "--n-grid", "4"]) == 2  # N^3 >= p
    assert run_cli(["scan", "--kind", "sift", "--n-grid", ""]) == 2


@pytest.mark.parametrize(
    "argv, env",
    [
        (["--kind", "s", "--p", "101", "--n-grid", "x"], {}),
        (["--kind", "delta_profile", "--n-grid", "0"], {}),
        (["--kind", "de_moment", "--p", "101", "--nu", "9"], {}),
        (["--kind", "de_moment", "--p", "101", "--shift-count", "0"], {}),
        (["--kind", "t_abs", "--p", "101", "--abc", "2,2,2", "--shift-count", "-3"], {}),
        (["--kind", "t_abs", "--p", "101", "--abc", "0,3,3"], {}),
        (["--kind", "s", "--p", "101", "--n-grid", "5"], {"DETSUM_MAX_TABLE": "abc"}),
        (["--kind", "s", "--p", "101", "--n-grid", "5", "--workers", "0"], {}),
        (["--kind", "nonresidue", "--p", "101", "--x-limit", "-5"], {}),
    ],
)
def test_bad_input_exit_2_without_traceback(argv, env, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    cli._field.cache_clear()  # a cached field would skip the DETSUM_MAX_TABLE lookup
    assert run_cli(["scan", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_table_cap_env_exit_2(tmp_path, monkeypatch):
    monkeypatch.setenv("DETSUM_MAX_TABLE", "50")
    cli._field.cache_clear()
    out = tmp_path / "s.csv"
    assert run_cli(["scan", "--kind", "s", "--p", "101", "--n-grid", "5", "--out", str(out)]) == 2
    monkeypatch.delenv("DETSUM_MAX_TABLE")
    cli._field.cache_clear()


def test_determinism_and_seed(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    args = ["scan", "--kind", "u", "--p", "31,61", "--n-grid", "4,8", "--seed", "s1"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert strip_wall(read_rows(a)) == strip_wall(read_rows(b))
    assert run_cli(["scan", "--kind", "u", "--p", "31,61", "--n-grid", "4,8", "--seed", "s2", "--out", str(c)]) == 0
    assert strip_wall(read_rows(a)) != strip_wall(read_rows(c))


def test_worker_count_independence(tmp_path):
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    args = ["scan", "--kind", "u", "--p", "31,61,101", "--n-grid", "4,6", "--seed", "w"]
    assert run_cli(args + ["--workers", "1", "--out", str(one)]) == 0
    assert run_cli(args + ["--workers", "3", "--out", str(two)]) == 0
    assert strip_wall(read_rows(one)) == strip_wall(read_rows(two))


def test_delta_profile_scan(tmp_path):
    out = tmp_path / "delta.csv"
    assert run_cli(["scan", "--kind", "delta_profile", "--n-grid", "2", "--out", str(out)]) == 0
    rows = read_rows(out)
    by_delta = {int(r["delta"]): int(r["count"]) for r in rows}
    assert by_delta[0] == 6 and by_delta[3] == 1 and by_delta[-3] == 1
    assert sum(by_delta.values()) == 16


def test_nonresidue_scan(tmp_path):
    out = tmp_path / "nr.csv"
    assert run_cli(["scan", "--kind", "nonresidue", "--p", "7,101", "--x-limit", "6", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0]["z_p"] == "3"
    for r in rows:
        assert math.isclose(float(r["density"]), int(r["count"]) / int(r["X"]))


def test_sift_scan(tmp_path):
    out = tmp_path / "sift.csv"
    assert run_cli(
        ["scan", "--kind", "sift", "--n-grid", "30", "--sift-x", "2", "--sift-y", "30", "--out", str(out)]
    ) == 0
    rows = read_rows(out)
    assert rows[0]["r"] == "0" and rows[0]["size"] == "5"
    assert sum(int(r["size"]) for r in rows) == 30


def test_t_abs_and_de_moment_scan(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(
        ["scan", "--kind", "t_abs", "--p", "101", "--abc", "3,3,4", "--shift-count", "5", "--out", str(out)]
    ) == 0
    rows = read_rows(out)
    assert rows[0]["sum_kind"] == "t_abs" and float(rows[0]["abs_value"]) >= 0.0
    out2 = tmp_path / "dm.csv"
    assert run_cli(["scan", "--kind", "de_moment", "--p", "101", "--nu", "2", "--out", str(out2)]) == 0
    rows2 = read_rows(out2)
    assert rows2[0]["sum_kind"] == "de_moment" and float(rows2[0]["re_value"]) >= 0.0


def test_calibrate_roundtrip(tmp_path, capsys):
    path = tmp_path / "cal.txt"
    assert run_cli(["calibrate", "--calibration-file", str(path)]) == 0
    first = capsys.readouterr().out
    assert "(new)" in first
    stored = read_calibration(path)
    assert set(stored) == {"a0_C", "tau2_C", "tau3_C", "tau4_C", "prime_tail_C"}

    assert run_cli(["calibrate", "--calibration-file", str(path)]) == 0
    second = capsys.readouterr().out
    assert "(unchanged)" in second and "->" not in second

    # Tamper: shrink one pinned constant so the fresh value worsens it by >5%
    stored["a0_C"] = stored["a0_C"] / 2
    write_calibration(path, stored)
    assert run_cli(["calibrate", "--calibration-file", str(path)]) == 3
    third = capsys.readouterr().out
    assert "->" in third


def test_stdout_output(capsys):
    assert run_cli(["scan", "--kind", "census", "--p", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("p,n_total")
    assert "timestamp" in captured.err
