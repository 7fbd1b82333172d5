"""Sieve decompositions, divisor-function averages, prime reciprocal tails.

A_r(N; x, y) partitions [1, N] by the number r of prime divisors inside
the window (x, y], counted with multiplicity by default (a flag switches
to distinct primes).  The strata and the table of tau_s(m) for m <= M
come from one walk over prime powers q^e (`fp_arith._prime_powers`) of the
primes q <= sqrt(N), each a strided numpy slice update.  A prime q > sqrt(N)
divides each n <= N at most once, so its only update is at e = 1; the
multiples of all such primes are built together and applied in blocks of
about 2^18 indices (`_large_prime_multiples`).  A single tau value comes
from `fp_arith.factorize`.  The module also measures the constants hidden in
the asymptotic bounds on a fixed grid, so they can be pinned in a
calibration file and re-asserted by the test suite.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import BadWindow, Overflow, ValidationError
from .fp_arith import _check_table_size, _prime_powers, factorize, prime_flags


def primes_upto(n):
    """All primes <= n as an int64 array, read off the sieve `fp_arith.prime_flags`."""
    return np.flatnonzero(np.frombuffer(prime_flags(n), dtype=bool)).astype(np.int64)  # each flag byte is 0 or 1


# Indices per block of the large-prime pass: its temporaries stay at a few MB.
_BLOCK = 1 << 18


def _large_prime_multiples(primes, N):
    """Yield every multiple k*q <= N of each q in `primes`, in blocks of about _BLOCK indices.

    Meant for distinct primes q > isqrt(N), each dividing any n <= N at
    most once; two of them share no multiple <= N, so a block's indices
    are distinct.  Callers still apply a block by `np.add.at` /
    `np.multiply.at`: at N = 2*10^6 (numpy 2.4, 2-CPU VM) it ran about
    2.5x faster than the plain indexed update `counts[block] += 1`.
    """
    counts = N // primes
    ends = np.cumsum(counts)  # ends[i]: how many multiples primes[:i + 1] have in all
    lo = 0
    while lo < primes.size:
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _BLOCK, side="right")))
        cnt = counts[lo:hi]
        block = np.arange(start + 1, int(ends[hi - 1]) + 1, dtype=np.int64)
        block -= np.repeat(ends[lo:hi] - cnt, cnt)  # k = 1, 2, ... within each prime's run
        block *= np.repeat(primes[lo:hi], cnt)
        yield block
        lo = hi


def _split_at_root(primes, N):
    """(primes q <= isqrt(N), primes q > isqrt(N))."""
    r = math.isqrt(N)
    return primes[primes <= r], primes[primes > r]


class SiftProfile(NamedTuple):
    N: int
    x: float
    y: float
    multiplicity: bool
    sizes: tuple  # sizes[r] = #A_r, r = 0..R
    R: int


def sift(N, x, y, multiplicity=True):
    """Partition [1, N] by window prime-divisor count; O(N log log N).

    Window primes are the q with x < q <= y.  In multiplicity mode the
    count of n is sum of exponents of window primes in n; otherwise the
    number of distinct window primes dividing n.  Window primes up to
    sqrt(N) walk their powers; the larger ones add 1 on their multiples
    in blocks, so the temporaries beside the int64 tally of N + 1 entries
    stay at a few MB.  N is held to the table cap (TooLarge) before the
    length-N tally is allocated.
    """
    N = int(N)
    if not N >= y >= x >= 2:
        raise BadWindow("need N >= y >= x >= 2, got N=%s x=%s y=%s" % (N, x, y))
    _check_table_size(N, "N")
    counts = np.zeros(N + 1, dtype=np.int64)
    window = primes_upto(math.floor(y))
    small, large = _split_at_root(window[window > x], N)
    for _, e, qe in _prime_powers(small, N):
        if multiplicity or e == 1:
            counts[qe::qe] += 1
    for block in _large_prime_multiples(large, N):
        np.add.at(counts, block, 1)
    sizes = np.bincount(counts[1:])
    return SiftProfile(N, float(x), float(y), multiplicity, tuple(int(v) for v in sizes), len(sizes) - 1)


def a0_bound_check(N, x, y, C):
    """Is #A_0(N; x, y) <= C * N * log(2x) / log(2y)?

    Compared in product form (both sides scaled by log(2y) > 0) so the
    x = y boundary, where the two sides coincide, never flaps on a
    division rounding.
    """
    prof = sift(N, x, y)
    return prof.sizes[0] * math.log(2 * y) <= C * N * math.log(2 * x)


def tau(m, s):
    """s-fold divisor function: ordered factorizations of m into s factors.

    Multiplicative; equals the product of C(e + s - 1, s - 1) over prime
    exponents e of m.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    s = int(s)
    if not 1 <= s <= 4:
        raise ValueError("s must be in [1, 4]")
    return math.prod(math.comb(e + s - 1, s - 1) for _, e in factorize(m))


def tau_square_average(M, s):
    """Exact sum of tau_s(m)^2 over m <= M, as a Python int; O(M log log M).

    Builds tau_s(m) for every m <= M in one int64 array by the prime-power
    walk over q <= sqrt(M): at q^e, each multiple of q^e swaps its factor
    C(e+s-2, s-1) for C(e+s-1, s-1) (the division is exact).  A prime
    q > sqrt(M) only has e = 1, where that swap is a factor
    C(s, s-1) / C(s-1, s-1) = s, applied to its multiples in blocks of a
    few MB.  The sum of squares is taken in int64 only while
    max(tau)^2 * M < 2^63; above that it raises Overflow.  M is held to
    the table cap (TooLarge) before the table is allocated.
    """
    M = int(M)
    if M < 1:
        raise ValueError("M must be >= 1")
    s = int(s)
    if s not in (2, 3, 4):
        raise ValueError("s must be in {2, 3, 4}")
    _check_table_size(M, "M")
    t = np.ones(M + 1, dtype=np.int64)
    small, large = _split_at_root(primes_upto(M), M)
    for _, e, qe in _prime_powers(small, M):
        t[qe::qe] = t[qe::qe] // math.comb(e + s - 2, s - 1) * math.comb(e + s - 1, s - 1)
    for block in _large_prime_multiples(large, M):
        np.multiply.at(t, block, s)
    t = t[1:]
    if int(t.max()) ** 2 * M >= 2**63:
        raise Overflow("sum of tau_%d(m)^2 over m <= %d may exceed int64" % (s, M))
    return int(np.dot(t, t))


def prime_tail(x, P):
    """Sum of 1/q^2 over primes q with x <= q <= P (0 for an empty range)."""
    if x < 2:
        raise ValueError("x must be >= 2")
    _check_table_size(P, "P")  # before the sieve allocates P + 1 bytes
    return _prime_tail(primes_upto(P), x)


def _prime_tail(qs, x):
    """Sum of 1/q^2 over the primes q >= x in the prime array `qs`."""
    qs = qs[qs >= x]
    return float(np.sum(1.0 / (qs.astype(np.float64) ** 2)))  # 0.0 when no prime is left


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


def measure_constants():
    """Measure every calibration constant on the fixed grids.

    a0_C: sup of #A_0 * log(2y) / (N log(2x));
    tau{s}_C: sup of tau-square sums over M (log 2M)^(s^2-1);
    prime_tail_C: sup of tail * x * log(2x) at the fixed sieve bound.
    Deterministic, so repeated runs agree bit for bit.
    """
    out = {}
    best = 0.0
    for N, x, y in a0_grid():
        prof = sift(N, x, y)
        best = max(best, prof.sizes[0] * math.log(2 * y) / (N * math.log(2 * x)))
    out["a0_C"] = best
    for s in (2, 3, 4):
        best = 0.0
        for M in TAU_GRID_M:
            best = max(best, tau_square_average(M, s) / (M * math.log(2 * M) ** (s * s - 1)))
        out["tau%d_C" % s] = best
    best = 0.0
    qs = primes_upto(TAIL_P)  # one sieve for the whole tail grid
    for x in TAIL_GRID_X:
        best = max(best, _prime_tail(qs, x) * x * math.log(2 * x))
    out["prime_tail_C"] = best
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
