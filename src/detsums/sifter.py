"""Sieve decompositions, divisor-function averages, prime reciprocal tails.

A_r(N; x, y) partitions [1, N] by the number r of prime divisors inside
the window (x, y], counted with multiplicity by default (a flag switches
to distinct primes).  `sift` tallies it in a bytearray, without numpy:
one pass of strided byte copies (`_large_prime_flags`) marks the window
primes above sqrt(N), sum over k of (N/k - a) = O(N log N) bytes in C
over O(sqrt N) Python steps, and each power q^e of a smaller window prime
adds 1 on the multiples of q^e in one `bytes.translate`.  The tau table
starts from the same pass; a single tau value comes from
`fp_arith.factorize`.  The module also measures the constants hidden in
the asymptotic bounds on a fixed grid, so they can be pinned in a
calibration file and re-asserted by the test suite.  numpy is imported
only inside `primes_upto`, `tau_square_average` and `_prime_tail`.
"""

import itertools
import math
from typing import NamedTuple

from .errors import BadWindow, Overflow, ValidationError
from .fp_arith import _check_table_size, _prime_powers, factorize, prime_flags

# bytes.translate table adding 1 to a count byte
_INC = bytes(range(1, 256)) + b"\0"


def primes_upto(n):
    """All primes <= n as an int64 array, read off the sieve `fp_arith.prime_flags`."""
    import numpy as np
    return np.flatnonzero(np.frombuffer(prime_flags(n), dtype=bool)).astype(np.int64)  # each flag byte is 0 or 1


def _large_prime_flags(window, a, N):
    """N + 1 bytes: 1 at each n <= N with a prime factor q >= a flagged in `window`, else 0.

    `window` flags primes only, and a > isqrt(N).  For k = 1, 2, ...
    window[a : N//k + 1] is copied onto k*a, ..., N in steps of k, so the
    last write at n, if any, flags n's least divisor m >= a in the window:
    n's one prime factor above sqrt(N) if that is >= a, else a composite.
    Sum over k of (N/k - a) = O(N log N) byte copies in O(N/a) steps.
    """
    flags = bytearray(N + 1)
    top = len(window) - 1
    with memoryview(window) as src:
        for k in range(1, N // a + 1):
            hi = min(N // k, top)
            flags[k * a : k * hi + 1 : k] = src[a : hi + 1]  # empty when top < a
    return flags


class SiftProfile(NamedTuple):
    N: int
    x: float
    y: float
    multiplicity: bool
    sizes: tuple  # sizes[r] = #A_r, r = 0..R
    R: int


def sift(N, x, y, multiplicity=True):
    """Partition [1, N] by window prime-divisor count; O(N log N) byte work, no numpy.

    Window primes are the q with x < q <= y.  In multiplicity mode the
    count of n is sum of exponents of window primes in n; otherwise the
    number of distinct window primes dividing n.  The counts are a byte
    per n (below 32, as N <= 2^31), started at `_large_prime_flags` for
    the window primes above sqrt(N), sum over k of (N/k - a) byte copies
    in O(sqrt N) Python steps; each power q^e of the others adds 1 on its
    multiples by `bytes.translate`.  The strata take R + 1 `bytearray.count`
    passes.  In process this is about 3x slower than a numpy tally at
    N = 10^6, x = 5, y = 1000, mostly in those passes, but a scan loads no
    numpy.  N is held to the table cap (TooLarge) before the tally is allocated.
    """
    N = int(N)
    if not N >= y >= x >= 2:
        raise BadWindow("need N >= y >= x >= 2, got N=%s x=%s y=%s" % (N, x, y))
    _check_table_size(N, "N")
    window = prime_flags(math.floor(y))
    root, lo = math.isqrt(N), math.floor(x) + 1  # the window primes are lo <= q <= y
    counts = _large_prime_flags(window, max(lo, root + 1), N)
    for _, e, qe in _prime_powers(itertools.compress(range(lo, root + 1), window[lo : root + 1]), N):
        if multiplicity or e == 1:
            counts[qe::qe] = counts[qe::qe].translate(_INC)
    sizes, left = [], N
    while left:
        sizes.append(counts.count(len(sizes), 1))  # the stratum's size, n = 0 left out
        left -= sizes[-1]
    return SiftProfile(N, float(x), float(y), multiplicity, tuple(sizes), len(sizes) - 1)


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
    """Exact sum of tau_s(m)^2 over m <= M, as a Python int; O(M log M).

    Builds tau_s(m) for every m <= M in one int64 array, started as
    mask * (s - 1) + 1 from the byte mask of `_large_prime_flags` (a prime
    q > sqrt(M) has e = 1, a factor C(s, s-1) = s).  The prime-power walk
    over q <= sqrt(M) follows: at q^e, each multiple of q^e swaps its
    factor C(e+s-2, s-1) for C(e+s-1, s-1) (the division is exact).  The
    sum of squares is taken in int64 only while max(tau)^2 * M < 2^63;
    above that it raises Overflow.  M is held to the table cap (TooLarge)
    before the sieve is allocated.
    """
    import numpy as np
    M = int(M)
    if M < 1:
        raise ValueError("M must be >= 1")
    s = int(s)
    if s not in (2, 3, 4):
        raise ValueError("s must be in {2, 3, 4}")
    _check_table_size(M, "M")
    flags, root = prime_flags(M), math.isqrt(M)
    t = (np.frombuffer(_large_prime_flags(flags, root + 1, M), dtype=np.uint8) * (s - 1) + 1).astype(np.int64)
    for _, e, qe in _prime_powers(itertools.compress(range(root + 1), flags[: root + 1]), M):
        t[qe::qe] = t[qe::qe] // math.comb(e + s - 2, s - 1) * math.comb(e + s - 1, s - 1)
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
    import numpy as np
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
