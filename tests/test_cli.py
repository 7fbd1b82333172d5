"""CLI wiring: schemas, exit codes, determinism, worker independence."""

import ast
import concurrent.futures
import csv
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import detsums
from detsums import characters, cli, make_character, make_field, mat2, residues, sifter, sums
from detsums.sifter import calibration_text, read_calibration


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


def test_census_scan_at_p_10007(capsys):
    assert run_cli(["scan", "--kind", "census", "--p", "10007"]) == 0
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    assert row["p"] == "10007" and row["n_total"] == str(10007**4)


def test_census_scan_above_table_cap(capsys):
    """The census builds no table, so a prime above the table cap scans, with the library's row."""
    assert run_cli(["scan", "--kind", "census", "--p", "3000017"]) == 0
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    cen = mat2.census(make_field(3000017))
    assert row == {k: str(getattr(cen, k)) for k in ("p", "n_total", "n_square", "n_nonsquare_invertible", "ratio")}


def test_census_p_at_psi13_named_before_tasks_run(capsys, monkeypatch):
    """A census holds p only below psi_13, where primality is proven; 2^31 is no cap for it."""
    ran = []
    monkeypatch.setattr(cli, "_run_task", ran.append)
    assert run_cli(["scan", "--kind", "census", "--p", "3317044064679887385961981"]) == 2
    assert capsys.readouterr().err == (
        "error: p=3317044064679887385961981 is at or above 3317044064679887385961981,"
        " the bound below which primality is proven\n"
    )
    assert ran == []


def test_device_out_gets_no_manifest_file(monkeypatch, capsys):
    """--out /dev/null: the CSV goes to the device, the manifest line to stderr, no file is written beside it."""
    writes = []
    monkeypatch.setattr(cli, "_write", lambda path, text: writes.append(path))  # writes nothing
    assert run_cli(["scan", "--kind", "census", "--p", "3", "--out", os.devnull]) == 0
    assert writes == [os.devnull]
    assert json.loads(capsys.readouterr().err)["rows"] == 1


def test_sums_scan_schema(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(["scan", "--kind", "s", "--p", "101", "--order", "2", "--n-grid", "5,10,20", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 3
    for r in rows:
        n = int(r["N"])
        assert math.isclose(float(r["normalized"]), float(r["abs_value"]) / n**4)
        assert r["sum_kind"] == "s"


def test_t_n_scan_rows_match_t_n_sum(tmp_path):
    out = tmp_path / "t_n.csv"
    assert run_cli(["scan", "--kind", "t_n", "--p", "1009", "--n-grid", "3,5", "--out", str(out)]) == 0
    rows = read_rows(out)
    chi = make_character(make_field(1009), 2)
    assert [(r["N"], r["sum_kind"]) for r in rows] == [("3", "t_n"), ("5", "t_n")]
    for r in rows:
        N = int(r["N"])
        val = complex(sums.t_n_sum(chi, N))
        assert (float(r["re_value"]), float(r["im_value"]), float(r["abs_value"])) == (val.real, val.imag, abs(val))
        assert float(r["normalized"]) == abs(val) / N**4


def test_invalid_order_exit_2(capsys):
    code = run_cli(["scan", "--kind", "s", "--p", "11", "--order", "4", "--n-grid", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "d=4" in err and "p=11" in err


@pytest.mark.parametrize(
    "extra, n, bound_mib",
    [(["--kind", "de_moment"], 2**16, 1), (["--kind", "t_abs", "--abc", "60,60,60"], 32590, 5)],
    ids=["de_moment", "t_abs"],
)
def test_huge_order_tally_exits_2(capsys, extra, n, bound_mib):
    """Order 166667 divides p - 1 at p = 1000003.  de_moment tallies blocks of n = 2^16 lams,
    t_abs over a 60^3 box the n = 32590 occupied ratio bins; either way the d*n float64 tally
    cells take more bytes than the hard cap 2^31: TooLarge, exit 2 and one error line naming
    d and p, before the index table or any tally is allocated (t_abs has built its ratio bins,
    the occupied (lam, I(lam)) pairs, by then)."""
    tracemalloc.start()
    try:
        code = run_cli(["scan", *extra, "--p", "1000003", "--order", "166667"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: tally bytes at d=166667, p=1000003: 8*d*n=%d exceeds the hard cap 2^31" % (8 * 166667 * n)
    ]
    assert peak < bound_mib * 2**20


def test_tally_bytes_exit_2(monkeypatch, capsys):
    """Order 16384 at p = 65537: a de_moment block's d*n = 2^30 tally cells are 8 GiB as
    float64.  The tally's bytes are held to the hard cap: TooLarge, exit 2 and one error
    line naming d and p, before the index table or the tally is allocated.  np.zeros is made
    to refuse any shape above 2^28 cells, so that a tally allocated before the check fails the
    test instead of asking for the 8 GiB."""
    real_zeros = np.zeros

    def guarded_zeros(shape, *args, **kwargs):
        if math.prod(np.atleast_1d(shape).tolist()) > 2**28:
            raise AssertionError("np.zeros asked for %r" % (shape,))
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded_zeros)
    tracemalloc.start()
    try:
        code = run_cli(["scan", "--kind", "de_moment", "--p", "65537", "--order", "16384", "--shift-count", "8"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: tally bytes at d=16384, p=65537: 8*d*n=%d exceeds the hard cap 2^31" % (8 * 16384 * 2**16)
    ]
    assert peak < 2**20


def test_t_abs_high_order_small_box_matches_direct(tmp_path):
    """d*p passes 2^31 at p = 65537, d = 65536, but the default 4^3 box tallies d rows of at
    most 64 occupied ratio bins: the scan succeeds with the value of t_abs_sum_direct."""
    p, d, out = 65537, 65536, tmp_path / "t_abs.csv"
    assert run_cli(["scan", "--kind", "t_abs", "--p", str(p), "--order", str(d), "--out", str(out)]) == 0
    [row] = read_rows(out)
    shifts, alpha = cli._signed_shifts(p, 8, "detsums", "t", (p, d, 4, 4, 4))
    want = sums.t_abs_sum_direct(make_character(make_field(p), d), 4, 4, 4, shifts, alpha)
    assert math.isclose(float(row["re_value"]), want, rel_tol=1e-9)


def test_validation_errors():
    assert run_cli(["scan", "--kind", "s", "--p", "9", "--n-grid", "2"]) == 2  # not prime
    assert run_cli(["scan", "--kind", "s", "--p", "7", "--n-grid", "9"]) == 2  # N >= p
    assert run_cli(["scan", "--kind", "s", "--n-grid", "4"]) == 2  # no primes
    assert run_cli(["scan", "--kind", "t_n", "--p", "31", "--n-grid", "4"]) == 2  # N^3 >= p
    assert run_cli(["scan", "--kind", "sift", "--n-grid", ""]) == 2


@pytest.mark.parametrize(
    "argv, env",
    [
        (["scan", "--kind", "s", "--p", "101", "--n-grid", "x"], {}),
        (["scan", "--kind", "delta_profile", "--n-grid", "0"], {}),
        (["scan", "--kind", "de_moment", "--p", "101", "--nu", "9"], {}),
        (["scan", "--kind", "de_moment", "--p", "101", "--shift-count", "0"], {}),
        (["scan", "--kind", "t_abs", "--p", "101", "--abc", "2,2,2", "--shift-count", "-3"], {}),
        (["scan", "--kind", "t_abs", "--p", "101", "--abc", "0,3,3"], {}),
        (["scan", "--kind", "s", "--p", "101", "--n-grid", "5"], {"DETSUM_MAX_TABLE": "abc"}),
        (["scan", "--kind", "s", "--p", "101", "--n-grid", "5", "--workers", "0"], {}),
        (["scan", "--kind", "nonresidue", "--p", "101", "--x-limit", "-5"], {}),
        (["scan", "--kind", "census", "--p", "3", "--out", "/nonexistent/x.csv"], {}),
        (["calibrate", "--calibration-file", "/nonexistent/x.txt"], {}),
        (["calibrate", "--calibration-file", "{tmp}"], {}),
        (["calibrate", "--calibration-file", "{tmp}/bad.txt"], {}),
        (["scan", "--kind", "nonresidue", "--p-range", "3:101"], {"DETSUM_MAX_TABLE": "50"}),
        (["scan", "--kind", "census", "--p-range", "3:4294967296"], {}),
        (["scan", "--kind", "sift", "--n-grid", "10000000000"], {}),
        (["scan", "--kind", "sift", "--n-grid", "-5"], {}),
        (["scan", "--kind", "s", "--p-range", "100:50", "--n-grid", "5"], {}),
        (["scan", "--kind", "s", "--p-range", "5", "--n-grid", "3"], {}),
        (["scan", "--kind", "delta_profile"], {}),
        (["scan", "--kind", "t_abs", "--p", "101", "--abc", "2,2"], {}),
        (["scan", "--kind", "t_abs", "--p", "101", "--abc", "5,5,5"], {}),
        (["scan", "--kind", "u", "--p", "101"], {}),
        (["scan", "--kind", "nonresidue", "--p", "101", "--x-limit", "3000000"], {}),
        (["scan", "--kind", "sift", "--n-grid", "100", "--sift-y", "nan"], {}),
        (["scan", "--kind", "sift", "--n-grid", "100", "--sift-y", "-7"], {}),
    ],
)
def test_bad_input_exit_2_without_traceback(argv, env, tmp_path, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)

    def no_sieve(n):
        raise AssertionError("a bad input reached the prime sieve")

    def no_tally(*args, **kwargs):
        raise AssertionError("a bad input reached the sift tally")

    monkeypatch.setattr(cli, "prime_flags", no_sieve)  # the HI check must come before the sieve
    monkeypatch.setattr(sifter, "prime_factor_tally", no_tally)  # the N check must come before sift's and tau's tally
    (tmp_path / "bad.txt").write_text("a0_C 1 2\n")  # a malformed calibration line
    assert run_cli([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_nonresidue_prime_meets_no_table_cap(capsys, monkeypatch):
    """A nonresidue scan builds no p-entry table; only --x-limit, its arrays' length, meets the table cap."""
    monkeypatch.setenv("DETSUM_MAX_TABLE", "50")
    assert run_cli(["scan", "--kind", "nonresidue", "--p", "101"]) == 0
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    rep = residues.nonresidue_report(101, 10)
    want = [rep.p, rep.z_p, rep.kappa_empirical, rep.X, rep.count, rep.count / rep.X]
    assert row == {k: str(v) for k, v in zip(cli.HEADERS["nonresidue"], want)}
    ran = []
    monkeypatch.setattr(cli, "_run_task", ran.append)
    assert run_cli(["scan", "--kind", "nonresidue", "--p", "101", "--x-limit", "51"]) == 2
    assert capsys.readouterr().err == "error: --x-limit: X=51 exceeds the table cap 50 (DETSUM_MAX_TABLE)\n"
    assert ran == []


@pytest.mark.parametrize("p, z", [(2305843009213693973, 2), (2305843009878671041, 131)])
def test_nonresidue_scan_near_2_61(capsys, monkeypatch, p, z):
    """Near 2^61 the scan runs with an --x-limit under the table cap.  The default X = isqrt(p) is held to the
    cap before any task runs, and a failure names --x-limit in one error line."""
    assert run_cli(["scan", "--kind", "nonresidue", "--p", str(p), "--x-limit", "1000"]) == 0
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    rep = residues.nonresidue_report(p, 1000)
    assert (row["p"], row["z_p"], row["count"]) == (str(p), str(z), str(rep.count)) and rep.z_p == z
    ran = []
    monkeypatch.setattr(cli, "_run_task", ran.append)
    assert run_cli(["scan", "--kind", "nonresidue", "--p", "101,%d" % p]) == 2
    assert capsys.readouterr().err == "error: --x-limit: X=%d exceeds the table cap 2000000 (DETSUM_MAX_TABLE)\n" % (
        math.isqrt(p)
    )
    assert ran == []


@pytest.mark.parametrize("kind", cli.SUM_KINDS)
def test_sums_kinds_held_to_hard_cap(capsys, monkeypatch, kind):
    """The sums kinds build p-entry index tables, so above 2^31 they exit 2 naming --p, with the table cap raised."""
    ran = []
    monkeypatch.setattr(cli, "_run_task", ran.append)
    monkeypatch.setenv("DETSUM_MAX_TABLE", str(2**62))
    assert run_cli(["scan", "--kind", kind, "--p", "2305843009213693973", "--n-grid", "5"]) == 2
    assert capsys.readouterr().err == "error: --p: p=2305843009213693973 exceeds the hard cap 2^31\n"
    assert ran == []


@pytest.mark.parametrize("kind", cli.SUM_KINDS + ("census", "nonresidue"))
def test_every_prime_kind_exits_2_at_psi13(capsys, monkeypatch, kind):
    """psi_13 is the bound below which primality is proven: every kind that takes --p exits 2 there."""
    ran = []
    monkeypatch.setattr(cli, "_run_task", ran.append)
    assert run_cli(["scan", "--kind", kind, "--p", "3317044064679887385961981", "--n-grid", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "3317044064679887385961981" in err
    assert ran == []


def test_sift_n_cap_names_flag(capsys, monkeypatch):
    monkeypatch.setenv("DETSUM_MAX_TABLE", "1000")
    assert run_cli(["scan", "--kind", "sift", "--n-grid", "500,1001"]) == 2
    assert capsys.readouterr().err == "error: --n-grid: N=1001 exceeds the table cap 1000 (DETSUM_MAX_TABLE)\n"


def test_negative_cap_named_as_the_variable(capsys, monkeypatch):
    """A negative DETSUM_MAX_TABLE is a bad setting, not a p above the cap."""
    monkeypatch.setenv("DETSUM_MAX_TABLE", "-5")
    assert run_cli(["scan", "--kind", "s", "--p", "10009", "--n-grid", "10"]) == 2
    assert capsys.readouterr().err == "error: DETSUM_MAX_TABLE must be a non-negative integer, got '-5'\n"


def test_bad_out_path_named_before_tasks_run(tmp_path, capsys, monkeypatch):
    out = tmp_path / "missing" / "x.csv"
    ran = []
    monkeypatch.setattr(cli, "_run_task", ran.append)
    assert run_cli(["scan", "--kind", "census", "--p", "3", "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert ran == []


def test_p_above_cap_named_before_tasks_run(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "_run_task", ran.append)
    assert run_cli(["scan", "--kind", "s", "--p", "101,3000017", "--n-grid", "5"]) == 2
    assert "--p: p=3000017 exceeds the table cap" in capsys.readouterr().err
    assert ran == []


def test_order_6_scan_real_parts_are_exact(capsys):
    argv = ["scan", "--kind", "s", "--p", "10009", "--order", "6", "--n-grid", "10,50,100"]
    assert run_cli(argv) == 0
    rows = csv.DictReader(capsys.readouterr().out.splitlines())
    assert [row["re_value"] for row in rows] == ["629.0", "-105068.0", "-330750.0"]


def test_order_4_scan_is_exact(capsys):
    assert run_cli(["scan", "--kind", "s", "--p", "10009", "--order", "4", "--n-grid", "10"]) == 0
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    assert (row["re_value"], row["im_value"]) == ("-44.0", "42.0")


def test_table_cap_env_exit_2(tmp_path, monkeypatch):
    monkeypatch.setenv("DETSUM_MAX_TABLE", "50")
    out = tmp_path / "s.csv"
    assert run_cli(["scan", "--kind", "s", "--p", "101", "--n-grid", "5", "--out", str(out)]) == 2
    monkeypatch.delenv("DETSUM_MAX_TABLE")


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


def fresh_python(code):
    """The stdout lines of `code` run in a fresh interpreter that imports detsums from this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.splitlines()


def test_import_leaves_worker_pool_unloaded():
    """Importing the CLI in a fresh interpreter loads neither concurrent.futures nor multiprocessing."""
    code = "import sys, detsums.cli; print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    assert fresh_python(code) == ["[]"]


def main_exit(*argv):
    """Code for fresh_python: run cli.main(argv) and print its exit code, SystemExit's for --help."""
    return "from detsums import cli\ntry:\n    code = cli.main(%r)\nexcept SystemExit as exc:\n    code = exc.code\nprint(code)" % (
        list(argv),
    )


@pytest.mark.parametrize(
    "code, printed",
    [
        ("import detsums", None),
        ("import detsums.cli", None),
        (main_exit("scan", "--kind", "census", "--p", "31,61", "--out", "-"), "0"),
        (main_exit("scan", "--kind", "s", "--p", "15"), "2"),  # not prime
        (main_exit("scan", "--kind", "s", "--p", "7", "--n-grid", "9"), "2"),  # N >= p
        (main_exit("scan", "--kind", "s", "--p-range", "100:50", "--n-grid", "5"), "2"),  # empty range, no sieve
        (main_exit("--help"), "0"),
        ("import detsums\nprint(detsums.mat2.census is detsums.census)", "True"),
        (main_exit("scan", "--kind", "nonresidue", "--p-range", "3:200", "--out", "-"), "0"),
        (main_exit("scan", "--kind", "nonresidue", "--p", "2147398009", "--out", "-"), "0"),
        (main_exit("scan", "--kind", "sift", "--n-grid", "1000", "--out", "-"), "0"),
        (main_exit("calibrate", "--calibration-file", "{tmp}/calibration.txt"), "0"),
    ],
    ids=[
        "import",
        "import-cli",
        "census",
        "not-prime",
        "N-at-least-p",
        "empty-range",
        "help",
        "submodule",
        "nonresidue-range",
        "nonresidue-near-2^31",
        "sift",
        "calibrate",
    ],
)
def test_start_without_numpy(code, printed, tmp_path):
    """The package, the CLI, census, nonresidue and sift scans, calibrate, --help and an early validation exit
    run without numpy."""
    lines = fresh_python(code.replace("{tmp}", str(tmp_path)) + "\nimport sys\nprint('numpy' in sys.modules)")
    assert lines[-1] == "False"
    if printed is not None:
        assert lines[-2] == printed


@pytest.mark.parametrize(
    "code, built",
    [
        ("import detsums.cli", "0"),
        (main_exit("scan", "--kind", "census", "--p", "31", "--out", "-"), "0"),
        (main_exit("scan", "--kind", "s", "--p", "10009", "--n-grid", "50", "--out", "-"), "0"),
        (main_exit("scan", "--kind", "nonresidue", "--p", "101", "--out", "-"), "1"),  # the probe sees a build
    ],
    ids=["import-cli", "census", "charsum", "nonresidue"],
)
def test_step_tables_built_on_first_use(code, built):
    """Importing the CLI and the scans that run no prime-power walk build none of the 256-entry step tables;
    a nonresidue scan builds the xor ones."""
    probe = "\nfrom detsums.fp_arith import step_tables\nprint(step_tables.cache_info().currsize)"
    assert fresh_python(code + probe)[-1] == built


@pytest.mark.parametrize("module", ["errors", "fp_arith", "mat2", "residues", "sifter"])
def test_scalar_modules_import_no_numpy(module):
    """The scalar layers import numpy nowhere, not even inside a function: only characters and sums do."""
    tree = ast.parse(pathlib.Path(detsums.__file__).with_name(module + ".py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def test_no_dead_public_surface():
    """Every public top-level function and class in src is referenced in src (as a name, an
    attribute or an import alias) or exported by the package: none is kept for the tests alone."""
    trees = {path.stem: ast.parse(path.read_text()) for path in pathlib.Path(detsums.__file__).parent.glob("*.py")}
    used = {name for text in detsums._EXPORTS.values() for name in text.split()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname))
    public = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert [module + "." + name for module, name in public if name not in used] == []


# The names `detsums` exported by eager imports, each from its submodule.
EXPORTS = {
    "characters": "CharSumAccumulator Character WeightSeq de_moment make_character",
    "errors": "BadOrder BadWindow DetsumsError DomainTooLarge InternalInvariantViolation NotPrime Overflow TooLarge "
    "ValidationError WeightOutOfRange ZeroInverse",
    "fp_arith": "PrimeField is_prime make_field",
    "mat2": "Census Mat2 SquareWitness census has_square_root mul pair_image_census",
    "residues": "NonResidueReport SmallNonSquareMatrix construct_nonsquare count_nonresidues least_nonresidue "
    "nonresidue_report",
    "sifter": "SiftProfile a0_bound_check prime_tail sift tau tau_square_average",
    "sums": "BinTable DeltaProfile delta_profile holder_chain ratio_bins s_sum_binned s_sum_direct t_abs_sum "
    "t_abs_sum_direct t_n_sum u_sum u_sum_direct",
}


def test_package_exports_resolve_to_submodules():
    """Each of the 50 exported names is its submodule's object; __all__ lists them; an unknown name raises."""
    names = [(module, name) for module, text in EXPORTS.items() for name in text.split()]
    assert len(names) == 50
    for module, name in names:
        assert getattr(detsums, name) is getattr(importlib.import_module("detsums." + module), name), name
    assert sorted(detsums.__all__) == sorted(name for _, name in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        detsums.no_such_name


def test_pool_never_larger_than_task_count(monkeypatch, tmp_path):
    """--workers K starts min(K, tasks) workers and no pool for one task; the pool is a fake, no process starts."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for ps, workers in (("31", 500), ("3,5,7", 8), ("3,5,7", 2)):
        assert run_cli(["scan", "--kind", "census", "--p", ps, "--workers", str(workers), "--out", str(tmp_path / "c.csv")]) == 0
    assert sizes == [3, 2]


def test_sums_scan_builds_one_index_table_per_prime(monkeypatch, tmp_path):
    builds = []
    index_table = characters.Character.index_table

    def spy(chi):
        if chi._ktab is None:
            builds.append((chi.field.p, chi.d))
        return index_table(chi)

    monkeypatch.setattr(characters.Character, "index_table", spy)
    cli._character.cache_clear()  # a character cached by an earlier scan would hide the build
    argv = ["scan", "--kind", "s", "--p", "1009,1013", "--n-grid", "5,6,7", "--out", str(tmp_path / "s.csv")]
    assert run_cli(argv) == 0
    assert builds == [(1009, 2), (1013, 2)]


@pytest.mark.parametrize("span", ["24:28", "100:50", "-5:-1", "0:1"])
def test_p_range_without_prime_named(span, capsys):
    assert run_cli(["scan", "--kind", "s", "--p-range=" + span, "--n-grid", "5"]) == 2
    assert capsys.readouterr().err == "error: --p-range %s holds no odd prime\n" % span


def test_p_range_from_1_names_the_first_non_odd_prime(capsys):
    assert run_cli(["scan", "--kind", "nonresidue", "--p-range", "1:100"]) == 2
    assert "got 2" in capsys.readouterr().err


def test_delta_profile_scan(tmp_path):
    out = tmp_path / "delta.csv"
    assert run_cli(["scan", "--kind", "delta_profile", "--n-grid", "2", "--out", str(out)]) == 0
    rows = read_rows(out)
    by_delta = {int(r["delta"]): int(r["count"]) for r in rows}
    assert by_delta[0] == 6 and by_delta[3] == 1 and by_delta[-3] == 1
    assert sum(by_delta.values()) == 16


def test_delta_profile_rows_match_per_lag(tmp_path):
    """The CSV is byte-identical to one row per nonzero lag Delta in (-N^2, N^2) read by DeltaProfile.count."""
    out = tmp_path / "delta.csv"
    assert run_cli(["scan", "--kind", "delta_profile", "--n-grid", "1,2,7,30", "--out", str(out)]) == 0
    lines = ["N,delta,count"]
    for N in (1, 2, 7, 30):
        prof = sums.delta_profile(N)
        lines += ["%d,%d,%d" % (N, delta, prof.count(delta)) for delta in range(1 - N * N, N * N) if prof.count(delta)]
    assert out.read_text().split("\n") == lines + [""]  # a list diff stays fast if they differ


def test_nonresidue_scan(tmp_path):
    out = tmp_path / "nr.csv"
    assert run_cli(["scan", "--kind", "nonresidue", "--p", "7,101", "--x-limit", "6", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0]["z_p"] == "3"
    for r in rows:
        assert math.isclose(float(r["density"]), int(r["count"]) / int(r["X"]))


def test_nonresidue_scan_runs_of_eight(tmp_path):
    """A --p-range becomes tasks of eight consecutive primes, the last one short, and each row equals the
    one-prime report, serially and across two workers."""
    args = cli.build_parser().parse_args(["scan", "--kind", "nonresidue", "--p-range", "3:200", "--x-limit", "5"])
    tasks, _ = cli._build_tasks(args)
    assert [len(run) for _, run, _ in tasks] == [8] * 5 + [5]
    ps = [p for _, run, _ in tasks for p in run]
    assert ps == sorted(ps) and len(ps) == 45
    texts = []
    for workers in ("1", "2"):
        out = tmp_path / ("nr%s.csv" % workers)
        argv = ["scan", "--kind", "nonresidue", "--p-range", "3:200", "--x-limit", "5", "--workers", workers]
        assert run_cli([*argv, "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    for row, p in zip(read_rows(tmp_path / "nr1.csv"), ps):
        rep = residues.nonresidue_report(p, min(5, p - 1))
        want = [rep.p, rep.z_p, rep.kappa_empirical, rep.X, rep.count, rep.count / rep.X]
        assert row == {k: str(v) for k, v in zip(cli.HEADERS["nonresidue"], want)}


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
    path.write_text(calibration_text(stored))
    assert run_cli(["calibrate", "--calibration-file", str(path)]) == 3
    third = capsys.readouterr().out
    assert "->" in third


def test_calibrate_drops_stale_constant(tmp_path, capsys):
    """A constant the grid no longer measures is printed as stale and left out of the rewritten file."""
    path = tmp_path / "cal.txt"
    pinned = pathlib.Path(cli.default_calibration_path()).read_text()
    path.write_text(pinned + "old_C 2.0\n")
    assert run_cli(["calibrate", "--calibration-file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "old_C 2.0 (stale, dropped)" in out
    assert out.count("(unchanged)") == 5
    assert path.read_text() == pinned


def test_stdout_output(capsys):
    assert run_cli(["scan", "--kind", "census", "--p", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("p,n_total")
    assert "timestamp" in captured.err
