"""Sieve decompositions, divisor-function averages, prime reciprocal tails.

A_r(N; x, y) partitions [1, N] by the number r of prime divisors inside
the window (x, y], counted with multiplicity by default (a flag switches
to distinct primes).  `sift` tallies it in a bytearray by the one
prime-power walk `fp_arith.prime_factor_tally`, adding 1 per window
prime; #A_0 alone takes a bit of the byte per window, eight windows to a
walk.  The tau sums count prime signatures, starting from the same
walk's tally of distinct primes; a single tau value comes from
`fp_arith.factorize`.  The module also measures the constants
hidden in the asymptotic bounds on a fixed grid, so they can be pinned in
a calibration file and re-asserted by the test suite.  Plain Python
throughout: no numpy, so a sift or calibrate process never loads it.
"""

import itertools
import math
import operator
from collections import Counter
from typing import NamedTuple

from .errors import BadWindow, ValidationError
from .fp_arith import BIT_TABLES, _check_table_size, _prime_powers, factorize, prime_factor_tally, prime_flags
from .fp_arith import step_tables

_FIELD = 8  # bits per exponent field of a prime-signature code; an n <= 2^31 has at most 10 distinct primes


class SiftProfile(NamedTuple):
    N: int
    x: float
    y: float
    multiplicity: bool
    sizes: tuple  # sizes[r] = #A_r, r = 0..R
    R: int


def _check_window(N, x, y):
    """N as an int; BadWindow unless N >= y >= x >= 2, then N held to the table cap (TooLarge)."""
    N = int(N)
    if not N >= y >= x >= 2:
        raise BadWindow("need N >= y >= x >= 2, got N=%s x=%s y=%s" % (N, x, y))
    _check_table_size(N, "N")
    return N


def _window_counts(N, x, y, multiplicity):
    """N + 1 bytes: the count of window primes x < q <= y in each n <= N (0 at n = 0).

    Checks the window (BadWindow) and holds N to the table cap (TooLarge)
    before anything is allocated.  Counts stay below 32, as N <= 2^31.
    """
    N = _check_window(N, x, y)
    window = prime_flags(math.floor(y))
    lo = math.floor(x) + 1
    window[:lo] = bytes(lo)  # the window primes are lo <= q <= y
    return prime_factor_tally(window, N, step_tables(operator.add), distinct=not multiplicity)


def _a0_sizes(N, windows):
    """[#A_0(N; x, y) for (x, y) in windows], up to eight windows, from one walk of distinct primes.

    Bit j of a prime's window byte is set when x_j < q <= y_j: the byte is
    constant between the cut points floor(x_j) + 1 and floor(y_j) + 1, so
    the prime flags of each such segment become its byte by one `replace`.
    The or `step_tables` set bit j at every multiple of such a prime, and
    #A_0 of window j is the count of n in [1, N] with bit j clear.  Each
    window is checked (BadWindow) and N held to the table cap before
    anything is allocated.
    """
    for x, y in windows:
        N = _check_window(N, x, y)
    bounds = [(math.floor(x), math.floor(y)) for x, y in windows]
    window = prime_flags(max(hi for _, hi in bounds))
    cuts = sorted({0, len(window)}.union(*((lo + 1, hi + 1) for lo, hi in bounds)))
    for a, b in zip(cuts, cuts[1:]):
        byte = sum(1 << j for j, (lo, hi) in enumerate(bounds) if lo < a <= hi)
        window[a:b] = window[a:b].replace(b"\x01", bytes((byte,)))
    tally = prime_factor_tally(window, N, step_tables(operator.or_), distinct=True)
    return [tally.translate(bit).count(0, 1) for bit, _ in zip(BIT_TABLES, windows)]


def sift(N, x, y, multiplicity=True):
    """Partition [1, N] by window prime-divisor count; O(N log N) byte work, no numpy.

    Window primes are the q with x < q <= y.  In multiplicity mode the
    count of n is sum of exponents of window primes in n; otherwise the
    number of distinct window primes dividing n.  The counts come from
    `fp_arith.prime_factor_tally`.  The strata r = 1..R take R
    `bytearray.count` passes, R + 1 being the first count that
    `bytearray.find` misses: they are contiguous, since dividing n by one
    of its window primes lowers its count by one.  Stratum 0, the densest,
    is N minus the rest.  N is held to the table cap (TooLarge) before the
    tally is allocated.
    """
    counts = _window_counts(N, x, y, multiplicity)
    N = len(counts) - 1
    sizes = [0]
    while counts.find(len(sizes), 1) >= 0:
        sizes.append(counts.count(len(sizes), 1))
    sizes[0] = N - sum(sizes)
    return SiftProfile(N, float(x), float(y), multiplicity, tuple(sizes), len(sizes) - 1)


def a0_bound_check(N, x, y, C):
    """Is #A_0(N; x, y) <= C * N * log(2x) / log(2y)?

    Compared in product form (both sides scaled by log(2y) > 0) so the
    x = y boundary, where the two sides coincide, never flaps on a
    division rounding.  #A_0 is the a0 grid's `_a0_sizes`, a batch of one.
    """
    return _a0_sizes(N, [(x, y)])[0] * math.log(2 * y) <= C * N * math.log(2 * x)


def tau(m, s):
    """s-fold divisor function: ordered factorizations of m into s factors.

    Multiplicative; equals the product of C(e + s - 1, s - 1) over prime
    exponents e of m.
    """
    m = int(m)
    if m < 1:
        raise ValidationError("m must be >= 1")
    s = int(s)
    if not 1 <= s <= 4:
        raise ValidationError("s must be in [1, 4]")
    return math.prod(math.comb(e + s - 1, s - 1) for _, e in factorize(m))


def _signature_codes(M):
    """An iterator over the prime-signature codes of n = 1..M, in order, from one prime-power walk; O(M log log M).

    The code of n holds in bits 8(e - 1) .. 8e - 1 the number of primes
    with exponent exactly e in n, so tau_s(n) depends on n through its
    code alone.  A byte per n counts the distinct primes dividing n, from
    `fp_arith.prime_factor_tally`.  A list of ints per n moves one prime
    up an exponent at each multiple of q^e, e >= 2, by one strided `map`
    of the packed delta; the code is the sum of the two.  Sum over q^e of
    M/q^e = O(M log log M) byte steps in C, O(M) Python int adds for the
    powers e >= 2, about 0.77 M of them.
    """
    flags, root = prime_flags(M), math.isqrt(M)
    primes = prime_factor_tally(flags, M, step_tables(operator.add), distinct=True)
    moved = [0] * (M + 1)
    for _, e, qe in _prime_powers(itertools.compress(range(root + 1), flags[: root + 1]), M):
        if e >= 2:  # one prime of n moves from exponent e - 1 to e
            delta = (1 << _FIELD * (e - 1)) - (1 << _FIELD * (e - 2))
            moved[qe::qe] = list(map(delta.__add__, moved[qe::qe]))
    return map(operator.add, itertools.islice(primes, 1, None), itertools.islice(moved, 1, None))


def _code_tau(code, s):
    """tau_s of an n with signature `code`: the product of C(e + s - 1, s - 1) over its primes of exponent e."""
    out, e = 1, 1
    while code:
        out *= math.comb(e + s - 1, s - 1) ** (code & ((1 << _FIELD) - 1))
        code >>= _FIELD
        e += 1
    return out


def _tau_square_sum(counts, s):
    """Sum of tau_s(n)^2 over the n whose codes `counts` tallies, in exact ints."""
    return sum(_code_tau(code, s) ** 2 * count for code, count in counts.items())


def tau_square_average(M, s):
    """Exact sum of tau_s(m)^2 over m <= M, as a Python int; O(M log log M).

    tau_s is read off each prime signature from `_signature_codes`, once
    per distinct signature (a few hundred up to the table cap), and the
    sum is taken over the signature counts in exact ints.  M is held to
    the table cap (TooLarge) before the sieve is allocated.
    """
    M = int(M)
    if M < 1:
        raise ValidationError("M must be >= 1")
    s = int(s)
    if s not in (2, 3, 4):
        raise ValidationError("s must be in {2, 3, 4}")
    _check_table_size(M, "M")
    return _tau_square_sum(Counter(_signature_codes(M)), s)


def prime_tail(x, P):
    """Sum of 1/q^2 over primes q with x <= q <= P (0 for an empty range); O(P log log P).

    P is held to the table cap (TooLarge) before the sieve allocates P + 1 bytes.
    """
    if not x >= 2:
        raise ValidationError("x must be >= 2, got %r" % (x,))
    return _prime_tails(P, (x,))[0]


# The residues mod 30 prime to 30: every prime q >= 7 lies on one of these eight spokes.
_SPOKES = (1, 7, 11, 13, 17, 19, 23, 29)


def _prime_tails(P, xs):
    """[sum of 1/q^2 over the primes x <= q <= P for x in xs], from one sieve.

    The terms are 1.0 / q^2, each a correctly rounded division by an
    exact q^2 < 2^53.  Those of the primes below `head`, ceil(max xs) but
    at least 30, come in order, so the tail from x starts at the number of
    primes below ceil(x); those from `head` on, all prime to 30, come spoke
    by spoke off the eight residues mod 30, which reads 8/30 of the sieve
    in place of its odd half.  `math.fsum` rounds the sum of its terms
    correctly whatever their order, so a tail is within 2^-52 relative of
    the exact sum of 1/q^2.
    """
    flags = prime_flags(P, "P")  # P capped before the sieve is allocated
    head = min(max(math.ceil(min(max(xs), len(flags))), 30), len(flags))  # no terms past P
    ordered = [1.0 / (q * q) for q in itertools.compress(range(head), flags[:head])]
    starts = (head + (r - head) % 30 for r in _SPOKES)  # the first n >= head on each spoke
    rest = [1.0 / (q * q) for s in starts for q in itertools.compress(range(s, P + 1, 30), flags[s::30])]
    counts = [flags.count(1, 0, math.ceil(min(x, head))) for x in xs]
    return [math.fsum(itertools.chain(itertools.islice(ordered, count, None), rest)) for count in counts]


# Fixed calibration grids.  The measured constants get pinned into the
# packaged calibration file and re-asserted by the suite, so a change in
# any of these numbers is loud.

A0_GRID_N = (1000, 10_000, 100_000)
TAU_GRID_M = (100, 1000, 10_000, 100_000)
TAIL_GRID_X = (2, 10, 100, 1000, 10_000)
TAIL_P = 1_000_000


def a0_grid():
    """The (N, x, y) triples the a0 constant is measured on."""
    triples = []
    for N in A0_GRID_N:
        for x in (2, 5, 20, 100):
            for y in (x, 4 * x, x * x, math.isqrt(N), N):
                y = min(y, N)
                if y >= x and (N, x, y) not in triples:
                    triples.append((N, x, y))
    return triples


def tau_grid_sums():
    """{(M, s): sum of tau_s(m)^2 over m <= M} on TAU_GRID_M x {2, 3, 4}, from one signature walk to the top M.

    The signature counts grow prefix by prefix, each M's read for all three s.
    """
    codes, counts, done, sums = _signature_codes(max(TAU_GRID_M)), Counter(), 0, {}
    for M in TAU_GRID_M:
        counts.update(itertools.islice(codes, M - done))
        done = M
        for s in (2, 3, 4):
            sums[M, s] = _tau_square_sum(counts, s)
    return sums


def measure_constants():
    """Measure every calibration constant on the fixed grids.

    a0_C: sup of #A_0 * log(2y) / (N log(2x));
    tau{s}_C: sup of tau-square sums over M (log 2M)^(s^2-1);
    prime_tail_C: sup of tail * x * log(2x) at the fixed sieve bound.
    Plain Python: the 56 a0 windows in 9 walks, eight windows of one N to
    a walk, one signature walk to the top of TAU_GRID_M for all twelve
    tau sums, and one sieve to TAIL_P whose five tails are correctly
    rounded by `math.fsum`.  O(N log N) bytes for the a0 grid at
    N <= 10^5 and O(P log log P) for the rest; about 0.05 s on a 2-CPU
    VM.  Deterministic, so repeated runs agree bit for bit.
    """
    out = {}
    best = 0.0
    for N, triples in itertools.groupby(a0_grid(), key=lambda t: t[0]):
        windows = [(x, y) for _, x, y in triples]
        for i in range(0, len(windows), 8):
            run = windows[i : i + 8]
            for (x, y), size in zip(run, _a0_sizes(N, run)):
                best = max(best, size * math.log(2 * y) / (N * math.log(2 * x)))
    out["a0_C"] = best
    sums = tau_grid_sums()
    for s in (2, 3, 4):
        out["tau%d_C" % s] = max(sums[M, s] / (M * math.log(2 * M) ** (s * s - 1)) for M in TAU_GRID_M)
    tails = _prime_tails(TAIL_P, TAIL_GRID_X)
    out["prime_tail_C"] = max(tail * x * math.log(2 * x) for tail, x in zip(tails, TAIL_GRID_X))
    return out


def calibration_text(constants):
    return "".join("%s %r\n" % (name, constants[name]) for name in sorted(constants))


def read_calibration(path):
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                name, value = line.split()
                out[name] = float(value)
            except ValueError:
                raise ValidationError("%s line %d: want 'name value', got %r" % (path, lineno, line)) from None
    return out
