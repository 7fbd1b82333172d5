"""Command line driver: prime scans to CSV, plus calibration management.

One kind per run, one CSV schema per kind:
  s, u, t_abs, t_n, de_moment -> p,d,N,sum_kind,re_value,im_value,abs_value,normalized,wall_ms
  delta_profile               -> N,delta,count
  census                      -> p,n_total,n_square,n_nonsquare_invertible,ratio
  nonresidue                  -> p,z_p,kappa_empirical,X,count,density
  sift                        -> N,x,y,r,size
Exit codes: 0 success, 2 validation problem, 3 internal invariant violation.

Only the numpy-free `errors`, `fp_arith` and `mat2` are imported up front; the other layers
in the branches that use them.  numpy comes in only with `sums` and `characters`, so a
census, nonresidue or sift scan, calibrate (its tau and prime-tail sums are plain Python),
--help and a validation failure found before the first task start without it.  Each layer
is called as `module.function` (`sums.de_moment`, `mat2.census`), the names
benchmark/trace_child.py wraps.
At interpreter exit the heap is frozen, so shutdown's collections skip it; `main` freezes nothing.
"""

import argparse
import atexit
import functools
import gc
import itertools
import json
import math
import os
import random
import sys
import time

from . import __version__, mat2
from .errors import DetsumsError, InternalInvariantViolation, ValidationError
from .fp_arith import PrimeField, _check_length, _check_table_size, make_field, prime_flags

# Run before finalization's full collections: every object the process loaded or built (numpy's
# modules, the layers, a scan's tables) moves to the permanent generation, which those never traverse.
atexit.register(gc.freeze)

SUM_KINDS = ("s", "u", "t_abs", "t_n", "de_moment")
ALL_KINDS = SUM_KINDS + ("delta_profile", "census", "nonresidue", "sift")

HEADERS = {
    "sums": ["p", "d", "N", "sum_kind", "re_value", "im_value", "abs_value", "normalized", "wall_ms"],
    "delta_profile": ["N", "delta", "count"],
    "census": ["p", "n_total", "n_square", "n_nonsquare_invertible", "ratio"],
    "nonresidue": ["p", "z_p", "kappa_empirical", "X", "count", "density"],
    "sift": ["N", "x", "y", "r", "size"],
}


def _parse_int_list(flag, text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError("%s wants comma-separated integers, got %r" % (flag, text)) from None


def _collect_primes(args):
    """Fields of the sorted distinct primes from --p and --p-range; NotPrime for one that is not an odd prime.

    Each --p value is tested once, by `make_field`, and for a sums kind (its tasks build p-entry
    tables) held to the table cap before any task runs; any kind takes p below psi_13.  A prime
    sifted from --p-range becomes a field untested, as the sieve has proven it, but 2 still raises,
    so `--p-range 1:100` exits 2 with "got 2"; a range with LO > HI is empty.  No later layer tests
    a field again.
    """
    ps = []
    for p in _parse_int_list("--p", args.p):
        if args.kind in SUM_KINDS:
            _check_table_size(p, "--p: p")
        ps.append(p)
    sieved = set()
    if args.p_range:
        try:
            lo, hi = (int(tok) for tok in args.p_range.split(":"))
        except ValueError:
            raise ValidationError("--p-range wants LO:HI, got %r" % args.p_range)
        _check_table_size(hi, "--p-range HI: p")  # before the sieve allocates HI + 1 bytes
        if lo <= hi:
            sieved = {q for q in itertools.compress(range(hi + 1), prime_flags(hi)) if q >= lo}
    return [PrimeField(p) if p in sieved and p != 2 else make_field(p) for p in sorted(sieved.union(ps))]


@functools.lru_cache(maxsize=1)  # one index table per (p, d): tasks come grouped by p, a field hashes by p
def _character(F, d):
    from . import characters
    return characters.make_character(F, d)


def _rng(*seed_parts):
    return random.Random("|".join(str(s) for s in seed_parts))


def _signed_shifts(p, n_shifts, seed, tag, key):
    """Seeded random shift set of size n_shifts in [1, p-1] and +-1 weights on it."""
    from .characters import WeightSeq
    shifts = sorted(_rng(seed, tag + "-shifts", *key).sample(range(1, p), min(n_shifts, p - 1)))
    return shifts, WeightSeq.signs(shifts, _rng(seed, tag + "-alpha", *key))


def _sum_call(kind, chi, params, seed):
    """(zero-argument call returning the sum, value of the N column) for one sums task."""
    from . import sums
    from .characters import WeightSeq
    p, d = chi.field.p, chi.d
    if kind == "s":
        return (lambda: sums.s_sum_binned(chi, params).value()), params
    if kind == "u":
        N = params
        alpha = WeightSeq.signs(range(1, N + 1), _rng(seed, "u-alpha", p, d, N))
        beta = WeightSeq.signs(range(1, N + 1), _rng(seed, "u-beta", p, d, N))
        return (lambda: sums.u_sum(chi, alpha, beta, N)), N
    if kind == "t_n":
        return (lambda: sums.t_n_sum(chi, params)), params
    if kind == "t_abs":
        (A, B, C), n_shifts = params
        shifts, alpha = _signed_shifts(p, n_shifts, seed, "t", (p, d, A, B, C))
        return (lambda: sums.t_abs_sum(chi, A, B, C, shifts, alpha)), A * B * C
    n_shifts, nu = params
    shifts, alpha = _signed_shifts(p, n_shifts, seed, "dm", (p, d, n_shifts, nu))
    return (lambda: sums.de_moment(chi, shifts, alpha, nu)), len(shifts)


def _run_task(task):
    """Compute one task tuple into CSV rows; must stay picklable for workers."""
    kind = task[0]
    if kind in SUM_KINDS:
        _, F, d, params, seed = task
        call, n_col = _sum_call(kind, _character(F, d), params, seed)
        t0 = time.perf_counter()
        val = complex(call())
        ms = (time.perf_counter() - t0) * 1000.0
        mag = abs(val)
        return [[F.p, d, n_col, kind, val.real, val.imag, mag, mag / n_col**4, "%.3f" % ms]]
    if kind == "delta_profile":
        from . import sums
        _, N = task
        counts = sums.delta_profile(N).counts
        nz = counts.nonzero()[0]
        return [[N, delta, c] for delta, c in zip((nz - (N * N - 1)).tolist(), counts[nz].tolist())]
    if kind == "census":
        _, F = task
        cen = mat2.census(F)
        return [[cen.p, cen.n_total, cen.n_square, cen.n_nonsquare_invertible, cen.ratio]]
    if kind == "nonresidue":
        from . import residues
        _, Fs, Xs = task
        reports = residues.nonresidue_reports(Fs, Xs)  # one walk per run
        return [[rep.p, rep.z_p, rep.kappa_empirical, rep.X, rep.count, rep.count / rep.X] for rep in reports]
    from . import sifter  # sift, the one kind left: argparse's choices admit no other
    _, N, x, y, multiplicity = task
    prof = sifter.sift(N, x, y, multiplicity)
    return [[prof.N, prof.x, prof.y, r, size] for r, size in enumerate(prof.sizes)]


def _build_tasks(args):
    kind = args.kind
    unused = [flag for flag, value in (("--p", args.p), ("--p-range", args.p_range)) if value]
    if kind in ("sift", "delta_profile") and unused:  # neither kind reads a prime
        raise ValidationError("kind %s takes no %s" % (kind, " or ".join(unused)))
    if args.workers < 1:
        raise ValidationError("--workers must be >= 1, got %d" % args.workers)
    if args.x_limit < 0:
        raise ValidationError("--x-limit must be >= 0, got %d" % args.x_limit)
    if args.shift_count < 1:
        raise ValidationError("--shift-count must be >= 1, got %d" % args.shift_count)
    n_grid = _parse_int_list("--n-grid", args.n_grid)
    if kind == "sift":
        if not n_grid:
            raise ValidationError("sift needs --n-grid")
        if not args.sift_y >= 0:  # NaN fails too
            raise ValidationError("--sift-y must be >= 0, got %r" % args.sift_y)
        tasks = []
        for N in n_grid:
            if N < 1:  # before isqrt(N) picks the default y
                raise ValidationError("--n-grid: sift needs N >= 1, got %d" % N)
            _check_table_size(N, "--n-grid: N")  # before sift allocates a length-N tally
            x = args.sift_x
            y = args.sift_y if args.sift_y > 0 else max(x, math.isqrt(N))
            tasks.append(("sift", N, x, y, not args.distinct))
        return tasks, "sift"
    if kind == "delta_profile":
        if not n_grid:
            raise ValidationError("delta_profile needs --n-grid")
        return [("delta_profile", N) for N in n_grid], "delta_profile"

    Fs = _collect_primes(args)
    if not Fs:
        raise ValidationError(
            "--p-range %s holds no odd prime" % args.p_range if args.p_range else "kind %s needs --p or --p-range" % kind
        )
    if kind == "census":
        return [("census", F) for F in Fs], "census"
    if kind == "nonresidue":
        Xs = [min(args.x_limit or max(2, math.isqrt(F.p)), F.p - 1) for F in Fs]
        _check_table_size(max(args.x_limit, *Xs), "--x-limit: X")  # the count holds X + 1 parity bytes, default X too
        starts = range(0, len(Fs), 8)  # eight primes to a walk, a bit of its byte each
        return [("nonresidue", tuple(Fs[i : i + 8]), tuple(Xs[i : i + 8])) for i in starts], "nonresidue"

    d = args.order
    for F in Fs:
        if d < 2 or (F.p - 1) % d != 0:
            raise ValidationError("order d=%d does not divide p-1 for p=%d" % (d, F.p))
    if kind == "de_moment":
        return [("de_moment", F, d, (args.shift_count, args.nu), args.seed) for F in Fs], "sums"
    if kind == "t_abs":
        abc = tuple(_parse_int_list("--abc", args.abc))
        if len(abc) != 3:
            raise ValidationError("--abc wants three comma-separated values")
        tasks = []
        for F in Fs:
            if abc[0] * abc[1] * abc[2] >= F.p:
                raise ValidationError("t_abs needs A*B*C < p, got %s with p=%d" % (list(abc), F.p))
            tasks.append(("t_abs", F, d, (abc, args.shift_count), args.seed))
        return tasks, "sums"
    if not n_grid:
        raise ValidationError("kind %s needs --n-grid" % kind)
    tasks = []
    for F in Fs:
        for N in n_grid:
            _check_length(N, F.p)
            if kind == "t_n" and N**3 >= F.p:
                raise ValidationError("t_n needs N^3 < p, got N=%d with p=%d" % (N, F.p))
            tasks.append((kind, F, d, N, args.seed))
    return tasks, "sums"


def default_calibration_path():
    from importlib import resources  # imported here: only calibrate needs it

    return str(resources.files("detsums") / "data" / "calibration.txt")


def _check_out(flag, path):
    """ValidationError unless `path` can be written.

    An existing path (a regular file, or a device such as /dev/null) must
    be writable itself and not a directory; a new one needs a writable
    directory to create the file in.
    """
    if path == "-":
        return
    if os.path.exists(path):
        ok = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        parent = os.path.dirname(os.path.abspath(path))
        ok = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if not ok:
        raise ValidationError("%s %r is not a writable file path" % (flag, path))


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError("cannot write %r: %s" % (path, exc.strerror)) from None


def _cmd_scan(args):
    tasks, schema = _build_tasks(args)
    _check_out("--out", args.out)  # before any task runs, so a long scan cannot fail at the end
    if args.out != "-" and (os.path.isfile(args.out) or not os.path.exists(args.out)):
        _check_out("--out manifest", args.out + ".manifest.json")
    t0 = time.perf_counter()
    workers = min(args.workers, len(tasks), os.cpu_count() or 1)  # a pool starts every worker it is given at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: a serial scan needs no pool

        with ProcessPoolExecutor(max_workers=workers) as ex:
            chunks = list(ex.map(_run_task, tasks))
    else:
        chunks = [_run_task(t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    wall = time.perf_counter() - t0

    lines = [",".join(HEADERS[schema])]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write(args.out, text)

    manifest = {
        "kind": args.kind,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "version": __version__,
        "python": sys.version.split()[0],
        "rows": len(rows),
        "wall_s": round(wall, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if args.out != "-" and os.path.isfile(args.out):  # beside a regular file, never beside a device
        _write(args.out + ".manifest.json", json.dumps(manifest, indent=2) + "\n")
    else:
        sys.stderr.write(json.dumps(manifest) + "\n")
    return 0


def _cmd_calibrate(args):
    path = args.calibration_file or default_calibration_path()
    _check_out("--calibration-file", path)  # before the constants are measured
    from . import sifter
    try:
        old = sifter.read_calibration(path)
    except FileNotFoundError:
        old = {}
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError("cannot read %r: %s" % (path, exc)) from None
    fresh = sifter.measure_constants()
    worsened = []
    for name in sorted(fresh):
        if name in old:
            prev, cur = old[name], fresh[name]
            if cur == prev:
                print("%s %r (unchanged)" % (name, cur))
            else:
                rel = (cur - prev) / prev if prev else float("inf")
                print("%s %r -> %r (%+.2f%%)" % (name, prev, cur, 100 * rel))
                if cur > prev * 1.05:
                    worsened.append(name)
        else:
            print("%s %r (new)" % (name, fresh[name]))
    for name in sorted(set(old) - set(fresh)):
        print("%s %r (stale, dropped)" % (name, old[name]))
    if worsened:
        sys.stderr.write("constants worsened by more than 5%%: %s\n" % ", ".join(worsened))
        return 3
    _write(path, sifter.calibration_text(fresh))
    print("wrote %s" % path)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="detsums", description="Exact character-sum and matrix-square experiments over F_p")
    sub = ap.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scan", help="compute one kind over a prime/N grid, emit CSV")
    sc.add_argument("--kind", required=True, choices=ALL_KINDS)
    sc.add_argument("--p", default="", help="comma-separated primes")
    sc.add_argument("--p-range", default="", help="LO:HI, all primes in the range")
    sc.add_argument("--order", type=int, default=2, help="character order d (default 2, the quadratic character)")
    sc.add_argument("--n-grid", default="", help="comma-separated N values")
    sc.add_argument("--workers", type=int, default=1)
    sc.add_argument("--out", default="-", help="CSV path, - for stdout")
    sc.add_argument("--seed", default="detsums", help="seed string for randomized weights")
    sc.add_argument("--x-limit", type=int, default=0, help="nonresidue count limit X (0: isqrt(p))")
    sc.add_argument("--sift-x", type=float, default=2.0)
    sc.add_argument("--sift-y", type=float, default=0.0, help="0 picks isqrt(N)")
    sc.add_argument("--distinct", action="store_true", help="count distinct window primes instead of multiplicity")
    sc.add_argument("--shift-count", type=int, default=8, help="size of the random shift set for t_abs/de_moment")
    sc.add_argument("--nu", type=int, default=2, help="moment index for de_moment")
    sc.add_argument("--abc", default="4,4,4", help="A,B,C box for t_abs")
    sc.set_defaults(func=_cmd_scan)

    ca = sub.add_parser("calibrate", help="measure grid constants, diff and rewrite the calibration file")
    ca.add_argument("--calibration-file", default="", help="target file (default: the packaged one)")
    ca.set_defaults(func=_cmd_calibrate)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantViolation as exc:
        sys.stderr.write("internal invariant violation: %s\n" % exc)
        return 3
    except DetsumsError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
