"""Exact arithmetic in F_p: primality, inverses, Legendre symbol, discrete logs.

A PrimeField carries a verified primitive root g and a dense table of
discrete logarithms, so that downstream character evaluation is a single
array lookup.  The dense table caps the supported modulus (default 2*10^6,
override with the DETSUM_MAX_TABLE environment variable).
"""

import os

import numpy as np

from .errors import InternalInvariantViolation, NotPrime, TooLarge, ValidationError, ZeroInverse

DEFAULT_MAX_TABLE = 2_000_000
HARD_CAP = 2**31

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def check_odd_prime(p):
    """p as an int; NotPrime unless it is an odd prime."""
    p = int(p)
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotPrime("p must be an odd prime, got %d" % p)
    return p


def prime_factors(n):
    """Distinct prime factors of n, by trial division (fine at desk scale)."""
    out = []
    if n % 2 == 0:
        out.append(2)
        while n % 2 == 0:
            n //= 2
    q = 3
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 2
    if n > 1:
        out.append(n)
    return out


def find_primitive_root(p):
    """Smallest g generating F_p^*, verified via the prime factors of p-1."""
    parts = [(p - 1) // q for q in prime_factors(p - 1)]
    g = 2
    while True:
        if all(pow(g, e, p) != 1 for e in parts):
            return g
        g += 1


class PrimeField:
    """Immutable arithmetic context for a fixed odd prime p.

    Do not construct directly; use make_field, which validates p and
    builds the discrete-log table.
    """

    __slots__ = ("p", "g", "dlog", "_leg")

    def __init__(self, p, g, dlog):
        self.p = p
        self.g = g
        self.dlog = dlog
        self._leg = None

    def __repr__(self):
        return "PrimeField(p=%d, g=%d)" % (self.p, self.g)

    def legendre(self, x):
        """Legendre symbol (x/p) in {-1, 0, 1}, by the Euler criterion."""
        if not 0 <= x < self.p:
            raise ValueError("residue out of range: %r" % (x,))
        if x == 0:
            return 0
        r = pow(x, (self.p - 1) // 2, self.p)
        return 1 if r == 1 else -1

    def inv(self, x):
        """Multiplicative inverse of x mod p."""
        if not 0 <= x < self.p:
            raise ValueError("residue out of range: %r" % (x,))
        if x == 0:
            raise ZeroInverse("0 has no inverse mod %d" % self.p)
        return pow(x, self.p - 2, self.p)

    def sqrt_roots(self, x):
        """All square roots of x mod p: (), (0,), or a pair (r, p-r)."""
        if x == 0:
            return (0,)
        k = int(self.dlog[x])
        if k % 2 == 1:
            return ()
        r = pow(self.g, k // 2, self.p)
        return (r, self.p - r)

    def legendre_table(self):
        """int8 array L with L[x] = (x/p); built once by marking squares."""
        if self._leg is None:
            p = self.p
            tab = np.full(p, -1, dtype=np.int8)
            tab[0] = 0
            r = np.arange(1, p, dtype=np.int64)
            tab[(r * r) % p] = 1
            self._leg = tab
        return self._leg


def max_table_bound():
    """Current dlog table cap: DETSUM_MAX_TABLE env var, else the default."""
    raw = os.environ.get("DETSUM_MAX_TABLE")
    if raw is None:
        return DEFAULT_MAX_TABLE
    try:
        return int(raw)
    except ValueError:
        raise ValidationError("DETSUM_MAX_TABLE must be an integer, got %r" % raw) from None


def make_field(p, max_table=None):
    """Build a PrimeField for an odd prime p with a full dlog table.

    Raises NotPrime for composite or even input, TooLarge above the
    table cap.  Construction is O(p); the result is immutable and safe
    to share across workers.
    """
    p = check_odd_prime(p)
    cap = max_table if max_table is not None else max_table_bound()
    if p > HARD_CAP:
        raise TooLarge("p=%d exceeds the hard cap 2^31" % p)
    if p > cap:
        raise TooLarge("p=%d exceeds the dlog table cap %d" % (p, cap))

    g = find_primitive_root(p)
    dlog = np.empty(p, dtype=np.int32)
    dlog[0] = -1  # sentinel, never a valid log
    x = 1
    for k in range(p - 1):
        dlog[x] = k
        x = x * g % p
    if x != 1:  # pragma: no cover
        raise InternalInvariantViolation("primitive root loop failed to close")
    return PrimeField(p, g, dlog)
