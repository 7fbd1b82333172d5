"""Exact arithmetic in F_p: primality, sieve, factorization, inverses, Legendre symbol, square roots.

A PrimeField holds only p and a primitive root g, so building one costs
the factorization of p - 1 by `factorize`, the package's one trial
division (`sifter.tau` takes its primes from it too).  `prime_flags` is
the one sieve, a bytearray, and `prime_factor_tally` the one walk over
prime powers into bytes: up to eight completely additive functions on
[1, N], one per bit of a window byte, applied through the translate
table that `step_tables` keeps for each byte.  It serves `sifter.sift`
and the tau signature walk (add), the non-residue parities of up to
eight primes in `residues.nonresidue_counts` (xor) and eight #A_0
windows of the calibration grid (or).  Legendre symbols are Euler's
criterion by `pow` (the non-residue count takes them mod q by
reciprocity), and square roots Tonelli-Shanks with g as the known
non-residue.  p is held to the hard cap 2^31; a table or array of length
n to the table cap (default 2*10^6, env DETSUM_MAX_TABLE).  Scalar only:
no numpy.
"""

import functools
import itertools
import math
import operator
import os

from .errors import NotPrime, TooLarge, ValidationError, ZeroInverse

DEFAULT_MAX_TABLE = 2_000_000
HARD_CAP = 2**31

# BIT_TABLES[j] is the `bytes.translate` table x -> bit j of x: it reads one tally of a byte that holds eight.
BIT_TABLES = tuple((bytes(1 << j) + b"\x01" * (1 << j)) * (128 >> j) for j in range(8))

# Deterministic Miller-Rabin witness set, valid for all n < _MR_LIMIT.
# The bases 2..37 alone stop at 3.18 * 10^23: they pass the composite
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all of _MR_BASES: 1287836182261 * 2575672364521.
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin primality test, proven only for n < _MR_LIMIT = psi_13 (about 3.3 * 10^24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _OddPrime(int):
    """An int known to be an odd prime, so `check_odd_prime` passes it through untested."""

    __slots__ = ()


def check_odd_prime(p):
    """p as an int known to be an odd prime; NotPrime unless it is one.

    TooLarge from _MR_LIMIT up, where `is_prime` is not proven.  The
    result is an `_OddPrime`, so checking it again runs no primality
    test: a prime is tested once, however many calls it passes through.
    """
    if type(p) is _OddPrime:
        return p
    p = int(p)
    if p >= _MR_LIMIT:
        raise TooLarge("p=%d is at or above %d, the bound below which primality is proven" % (p, _MR_LIMIT))
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotPrime("p must be an odd prime, got %d" % p)
    return _OddPrime(p)


def prime_flags(n, name="n"):
    """bytearray of n + 1 bytes, 1 at the primes k <= n and 0 elsewhere (empty for n < 0); n capped first as `name`."""
    n = int(n)
    _check_table_size(n, name)
    flags = bytearray(b"\x01") * (n + 1)
    flags[:2] = bytes(len(flags[:2]))  # 0 and 1 are not prime
    flags[4::2] = bytes(len(range(4, n + 1, 2)))
    for q in range(3, math.isqrt(max(n, 0)) + 1, 2):
        if flags[q]:  # strike the odd multiples of q from q^2 on; the even ones are struck already
            flags[q * q :: 2 * q] = bytes(len(range(q * q, n + 1, 2 * q)))
    return flags


def _prime_powers(primes, N):
    """Yield (q, e, q^e) for each prime q in `primes` and each e >= 1 with q^e <= N."""
    for q in primes:
        q = int(q)
        e, qe = 1, q
        while qe <= N:
            yield q, e, qe
            e, qe = e + 1, qe * q


def _large_prime_flags(window, N):
    """N + 1 bytes: at each n <= N, the `window` byte of n's prime factor above sqrt(N), else 0.

    `window` is 0 at every composite above sqrt(N).  With a = isqrt(N) + 1,
    for k = 1, 2, ... window[a : N//k + 1] is copied onto k*a, ..., N in
    steps of k, so the last write at n, if any, is the byte of n's least
    divisor m >= a: n's one prime factor above sqrt(N) if it has one, else
    a composite.  Sum over k of (N/k - a) = O(N log N) byte copies in C
    over O(sqrt N) Python steps.
    """
    a = math.isqrt(N) + 1
    flags = bytearray(N + 1)
    top = len(window) - 1
    with memoryview(window) as src:
        for k in range(1, N // a + 1):
            hi = min(N // k, top)
            flags[k * a : k * hi + 1 : k] = src[a : hi + 1]  # empty when top < a
    return flags


@functools.cache
def step_tables(op):
    """The 256 `bytes.translate` tables x -> op(x, b) mod 256, table b at index b; op is
    `operator.xor`, `operator.or_` or `operator.add`.

    Each op composes bit by bit (op(op(x, a), c) = op(x, a | c) for a, c
    with no common bit), so the tables of the masks below 2^(j+1) are those
    below 2^j and their translates by the table of the one bit 2^j: 8 small
    tables and 255 translates, about 0.2 ms, built on first use and kept.
    Table b maps 0 to b, as `prime_factor_tally` needs.
    """
    tables = [bytes(range(256))]
    for j in range(8):
        bit = bytes(op(x, 1 << j) & 255 for x in range(256))
        tables += [table.translate(bit) for table in tables]
    return tuple(tables)


def prime_factor_tally(window, N, steps, distinct=False):
    """N + 1 bytes: steps[b] applied once per prime factor q of n with window byte b != 0, for each n <= N.

    The one walk over prime powers into bytes.  `window` holds a byte per
    prime q, 0 at the unflagged ones and at every composite; `steps` is a
    sequence of `bytes.translate` tables indexed by that byte, each with
    steps[b][0] == b.  With the `step_tables` of xor, or or add, the eight
    bits of a byte are eight independent tallies: `sifter.sift` and the
    tau signature walk add 1 per window prime, `residues.nonresidue_counts`
    flips bit j per non-residue prime of its j-th p, and the a0 grid of
    `sifter.measure_constants` sets bit j per prime of its j-th window.
    Factors count with multiplicity unless `distinct`.  n's one prime
    factor above sqrt(N) starts the tally with its window byte, through
    `_large_prime_flags`, which is steps[b] applied once to 0; then each
    power q^e (e = 1 only, if `distinct`) of a flagged q <= sqrt(N) applies
    steps[window[q]] to every multiple of q^e in one strided slice.
    O(N log N) byte copies in C over O(sqrt N) Python steps.
    """
    tally = _large_prime_flags(window, N)
    root = math.isqrt(N)
    for q, e, qe in _prime_powers(itertools.compress(range(root + 1), window[: root + 1]), N):
        if e == 1 or not distinct:
            tally[qe::qe] = tally[qe::qe].translate(steps[window[q]])
    return tally


def factorize(n):
    """Prime factorization of n >= 1 as [(q, e), ...], primes increasing, by trial division.

    The one trial-division loop in the package: O(sqrt n) steps, fine at
    desk scale (p - 1 for p below the hard cap 2^31, single tau values).
    """
    n = int(n)
    if n < 1:
        raise ValidationError("n must be >= 1, got %d" % n)
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        q += 1 if q == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def find_primitive_root(p):
    """Smallest g generating F_p^*, verified via the prime factors of p-1."""
    parts = [(p - 1) // q for q, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, e, p) != 1 for e in parts):
            return g
        g += 1


class PrimeField:
    """Immutable arithmetic context for a fixed odd prime p.

    Do not construct directly; use make_field, which validates p, checks
    the hard cap and finds the primitive root g.  Nothing is tabulated.
    """

    __slots__ = ("p", "g")

    def __init__(self, p, g):
        self.p, self.g = p, g

    def __repr__(self):
        return "PrimeField(p=%d, g=%d)" % (self.p, self.g)

    def _check_residue(self, x):
        if not 0 <= x < self.p:
            raise ValidationError("residue out of range: %r" % (x,))

    def legendre(self, x):
        """Legendre symbol (x/p) in {-1, 0, 1}, by the Euler criterion."""
        self._check_residue(x)
        if x == 0:
            return 0
        return 1 if pow(x, (self.p - 1) // 2, self.p) == 1 else -1

    def inv(self, x):
        """Multiplicative inverse of x mod p."""
        self._check_residue(x)
        if x == 0:
            raise ZeroInverse("0 has no inverse mod %d" % self.p)
        return pow(x, self.p - 2, self.p)

    def sqrt_roots(self, x):
        """All square roots of x mod p: (), (0,), or a pair (r, p-r) with r <= (p-1)/2.

        Tonelli-Shanks with p - 1 = q 2^e, q odd, reading the Euler symbol off t = x^q.  g is
        primitive, so a non-residue, and g^q generates the 2-Sylow subgroup: no search, O(log^2 p).
        """
        self._check_residue(x)
        if x == 0:
            return (0,)
        x, p = operator.index(x), self.p  # a numpy integer would wrap in x * w * w
        e = ((p - 1) & (1 - p)).bit_length() - 1  # 2^e exactly divides p - 1
        w = pow(x, (p - 1) >> (e + 1), p)  # x^((q-1)/2)
        r, t = x * w % p, x * w * w % p  # x^((q+1)/2), x^q
        if pow(t, 1 << (e - 1), p) != 1:  # t^(2^(e-1)) = x^((p-1)/2)
            return ()
        c, m = pow(self.g, (p - 1) >> e, p), e
        while t != 1:  # invariant: r^2 = x t, c of order 2^m, t of order below 2^m
            i, u = 0, t
            while u != 1:  # the least i with t^(2^i) = 1
                u, i = u * u % p, i + 1
            b = pow(c, 1 << (m - i - 1), p)
            r, t, c, m = r * b % p, t * b * b % p, b * b % p, i
        return (min(r, p - r), max(r, p - r))


def _check_hard_cap(n, name="p"):
    """TooLarge if n exceeds the hard cap 2^31; `name` labels n in the message."""
    if n > HARD_CAP:
        raise TooLarge("%s=%d exceeds the hard cap 2^31" % (name, n))


def _check_length(N, p, name="N"):
    """N as an int; ValidationError unless 1 <= N < p (a box side of a sum, a count's X), labelled `name`."""
    N = int(N)
    if not 1 <= N < p:
        raise ValidationError("need 1 <= %s < p, got %s=%d with p=%d" % (name, name, N, p))
    return N


def _check_table_size(n, name="p"):
    """TooLarge unless a dense table of length n fits the cap: DETSUM_MAX_TABLE, else the default.

    `name` labels n in the message (p for a residue table, X for a count, N or M for a sieve range).
    """
    raw = os.environ.get("DETSUM_MAX_TABLE", str(DEFAULT_MAX_TABLE))
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValidationError("DETSUM_MAX_TABLE must be a non-negative integer, got %r" % raw)
    _check_hard_cap(n, name)
    if n > cap:
        raise TooLarge("%s=%d exceeds the table cap %d (DETSUM_MAX_TABLE)" % (name, n, cap))


def make_field(p):
    """Build a PrimeField for an odd prime p: validate p, find its primitive root.

    Raises NotPrime for composite or even input, TooLarge above the hard cap
    2^31.  O(sqrt p), factoring p - 1; immutable and safe to share across workers.
    """
    p = int(check_odd_prime(p))  # an exact int: numpy reads an int subclass as int64, not as a Python int
    _check_hard_cap(p)
    return PrimeField(p, find_primitive_root(p))
