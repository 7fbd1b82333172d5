"""Exact arithmetic in F_p: primality, factorization, inverses, Legendre symbol, discrete logs.

A PrimeField carries a verified primitive root g and a dense table of
discrete logarithms, so that downstream character evaluation is a single
array lookup.  The dense tables (dlog, Legendre) cap the supported modulus
(default 2*10^6, override with the DETSUM_MAX_TABLE environment variable).
`factorize` is the package's one trial-division factorization: the
primitive-root check and `sifter.tau` take their primes from it.
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


def factorize(n):
    """Prime factorization of n >= 1 as [(q, e), ...], primes increasing, by trial division.

    The one trial-division loop in the package: O(sqrt n) steps, fine at
    desk scale (p - 1 for p below the table cap, single tau values).
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
        """legendre_table(p), built once per field."""
        if self._leg is None:
            self._leg = legendre_table(self.p)
        return self._leg


def _check_table_size(n, name="p"):
    """TooLarge unless a dense table of length n fits the cap: DETSUM_MAX_TABLE, else the default.

    `name` labels n in the message (p for a field, N or M for a sieve range).
    """
    raw = os.environ.get("DETSUM_MAX_TABLE", str(DEFAULT_MAX_TABLE))
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError("DETSUM_MAX_TABLE must be an integer, got %r" % raw) from None
    if n > HARD_CAP:
        raise TooLarge("%s=%d exceeds the hard cap 2^31" % (name, n))
    if n > cap:
        raise TooLarge("%s=%d exceeds the table cap %d (DETSUM_MAX_TABLE)" % (name, n, cap))


def legendre_table(p):
    """int8 array L with L[x] = (x/p) for an odd prime p, by marking squares.

    O(p) time and memory, so it is held to the same cap as the dlog table.
    """
    _check_table_size(p)
    tab = np.full(p, -1, dtype=np.int8)
    tab[0] = 0
    r = np.arange(1, p, dtype=np.int64)
    tab[(r * r) % p] = 1
    return tab


def make_field(p):
    """Build a PrimeField for an odd prime p with a full dlog table.

    Raises NotPrime for composite or even input, TooLarge above the
    table cap.  Construction is O(p); the result is immutable and safe
    to share across workers.
    """
    p = check_odd_prime(p)
    _check_table_size(p)

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
