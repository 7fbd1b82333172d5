"""Exact arithmetic in F_p: primality, sieve, factorization, inverses, Legendre symbol, square roots.

A PrimeField holds only p and a primitive root g, so building one costs
the factorization of p - 1 by `factorize`, the package's one trial
division (`sifter.tau` takes its primes from it too).  `prime_flags` is
the one sieve, a bytearray, and `_prime_powers` the one walk over prime
powers that `sifter` and `residues.count_nonresidues` share.  Legendre
symbols are Euler's criterion by `pow`, and square roots Tonelli-Shanks
with g as the known non-residue; `pow_mod` is the same criterion over an
int64 array.  p is held to the hard cap 2^31; a table or array of length
n, such as the power walk `PrimeField.powers`, to the table cap (default
2*10^6, env DETSUM_MAX_TABLE).  Only `powers` and `pow_mod` import numpy.
"""

import math
import operator
import os

from .errors import NotPrime, TooLarge, ValidationError, ZeroInverse

DEFAULT_MAX_TABLE = 2_000_000
HARD_CAP = 2**31

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
# The bases 2..37 alone stop at 3.18 * 10^23: they pass the composite
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin primality test for n < 3.3 * 10^24."""
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

    The result is an `_OddPrime`, so checking it again runs no primality
    test: a prime is tested once, however many calls it passes through.
    """
    if type(p) is _OddPrime:
        return p
    p = int(p)
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotPrime("p must be an odd prime, got %d" % p)
    return _OddPrime(p)


def prime_flags(n):
    """bytearray of n + 1 bytes, 1 at the primes k <= n and 0 elsewhere (empty for n < 0); plain sieve."""
    n = int(n)
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


def factorize(n):
    """Prime factorization of n >= 1 as [(q, e), ...], primes increasing, by trial division.

    The one trial-division loop in the package: O(sqrt n) steps, fine at
    desk scale (p - 1 for p below the hard cap 2^31, single tau values).
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
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
            raise ValueError("residue out of range: %r" % (x,))

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

    def powers(self):
        """int64 array W with W[k] = g^k mod p for k = 0, ..., p-2, by a blocked walk.

        With B = ceil(sqrt(p-1)), two Python loops of about sqrt(p) pows
        give g^(iB) per row i and g^j for j < B; their outer product mod p
        (products below p^2 < 2^62) gives all p - 1 powers in order.
        Nothing here checks that g is primitive: a caller that needs every
        unit to appear must check it (a character's index table does).
        """
        import numpy as np  # imported here, as in pow_mod: a census or a prime check needs no array
        p, g = self.p, self.g
        _check_table_size(p)
        B = math.isqrt(p - 2) + 1
        rows = np.array([pow(g, i * B, p) for i in range(-(-(p - 1) // B))], dtype=np.int64)
        walk = np.multiply.outer(rows, np.array([pow(g, j, p) for j in range(B)], dtype=np.int64))
        walk %= p
        return walk.ravel()[: p - 1]


def _check_hard_cap(n, name="p"):
    """TooLarge if n exceeds the hard cap 2^31; `name` labels n in the message."""
    if n > HARD_CAP:
        raise TooLarge("%s=%d exceeds the hard cap 2^31" % (name, n))


def _check_length(N, p):
    """N as an int; ValidationError unless 1 <= N < p (a box side of a sum mod p)."""
    N = int(N)
    if not 1 <= N < p:
        raise ValidationError("need 1 <= N < p, got N=%d with p=%d" % (N, p))
    return N


def _check_table_size(n, name="p"):
    """TooLarge unless a dense table of length n fits the cap: DETSUM_MAX_TABLE, else the default.

    `name` labels n in the message (p for a residue table, X for a count, N or M for a sieve range).
    """
    raw = os.environ.get("DETSUM_MAX_TABLE", str(DEFAULT_MAX_TABLE))
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError("DETSUM_MAX_TABLE must be an integer, got %r" % raw) from None
    _check_hard_cap(n, name)
    if n > cap:
        raise TooLarge("%s=%d exceeds the table cap %d (DETSUM_MAX_TABLE)" % (name, n, cap))


def pow_mod(xs, e, p):
    """int64 array of x^e mod p for each x in xs, e >= 0, by square-and-multiply; p < 2^31 keeps products below 2^62."""
    import numpy as np
    _check_hard_cap(p)
    base = np.asarray(xs, dtype=np.int64) % p
    out = base.copy() if e else np.ones_like(base)
    for bit in bin(e)[3:]:  # below e's top bit: out = x^(the bits of e read so far), in place
        out *= out
        out %= p
        if bit == "1":
            out *= base
            out %= p
    return out


def make_field(p):
    """Build a PrimeField for an odd prime p: validate p, find its primitive root.

    Raises NotPrime for composite or even input, TooLarge above the hard cap
    2^31.  O(sqrt p), factoring p - 1; immutable and safe to share across workers.
    """
    p = int(check_odd_prime(p))  # an exact int: numpy reads an int subclass as int64, not as a Python int
    _check_hard_cap(p)
    return PrimeField(p, find_primitive_root(p))
