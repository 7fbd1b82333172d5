"""Least quadratic non-residue machinery and the small non-square matrix.

Operations accept either a PrimeField or a plain int modulus, so a scan
over many primes (say every p up to 10^6) needs no field per prime and
so no primitive-root search.  Every Legendre symbol is Euler's criterion
by scalar `pow`: the least non-residue tries n = 2, 3, ... in turn mod p.
The count up to X takes the symbol only at the primes q <= X, by
quadratic reciprocity as Euler's criterion mod q (with (2/p) read off
p mod 8), and extends it to 1..X as a parity byte per n, by the one
prime-power walk `fp_arith.prime_factor_tally`.  No numpy.  An int p is
tested for primality once per report, and not at all when it arrives
checked (`fp_arith.check_odd_prime`), as a `--p-range` prime sifted by
the CLI does.
"""

import math
from itertools import compress
from typing import NamedTuple

from . import mat2
from .errors import InternalInvariantViolation
from .fp_arith import PrimeField, _check_hard_cap, _check_length, check_odd_prime, prime_factor_tally, prime_flags

# Swaps the bytes 0 and 1: a parity flip of every byte of a slice in one C call.
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _as_modulus(F):
    """p from a PrimeField, or F checked to be an odd prime (a checked prime passes untested)."""
    return F.p if isinstance(F, PrimeField) else check_odd_prime(F)


def least_nonresidue(F):
    """Smallest n >= 2 with (n/p) = -1, by linear scan with the Euler criterion."""
    p = _as_modulus(F)
    e = (p - 1) // 2
    for n in range(2, p):
        if pow(n, e, p) != 1:
            return n
    raise InternalInvariantViolation("no non-residue below p=%d" % p)  # pragma: no cover


def count_nonresidues(F, X):
    """Exact #{1 <= n <= X : (n/p) = -1}; 1 <= X < p, p held to the hard cap and X to the table cap.

    The Legendre symbol is completely multiplicative, so n is a
    non-residue exactly when it has an odd number of prime factors q with
    (q/p) = -1, counted with multiplicity.  `_nonresidue_primes` takes the
    symbol at the primes q <= X only; `fp_arith.prime_factor_tally` then
    flips a parity byte per non-residue prime factor.  O(X log X) byte
    copies in C plus about X / ln X `pow`s, each mod a prime q <= X.
    """
    p = _as_modulus(F)
    _check_hard_cap(p)
    X = _check_length(X, p, "X")
    return prime_factor_tally(_nonresidue_primes(p, X), X, _FLIP).count(1)


def _nonresidue_primes(p, X):
    """X + 1 bytes, 1 at the primes q <= X with (q/p) = -1 and 0 elsewhere, for an odd prime p > X.

    (2/p) = -1 iff p = 3 or 5 mod 8.  At an odd prime q, quadratic
    reciprocity gives (q/p) = (p*/q) with p* = (-1)^((p-1)/2) p, taken by
    Euler's criterion mod q: no power is taken mod p.  X is held to the
    table cap before the sieve is allocated.
    """
    window = prime_flags(X, "X")
    if X >= 2:
        window[2] = p % 8 in (3, 5)
    pstar = p if p % 4 == 1 else -p
    for q in compress(range(3, X + 1, 2), window[3::2]):
        window[q] = pow(pstar % q, (q - 1) // 2, q) != 1  # only the byte just read changes
    return window


class NonResidueReport(NamedTuple):
    p: int
    z_p: int
    X: int
    count: int
    kappa_empirical: float


def nonresidue_report(F, X):
    """Report: least non-residue, its log_p size, and the count up to X."""
    F = F if isinstance(F, PrimeField) else check_odd_prime(F)  # tested here at most once
    p = int(_as_modulus(F))  # the report holds a plain int
    z = least_nonresidue(F)
    return NonResidueReport(p, z, X, count_nonresidues(F, X), math.log(z) / math.log(p))


class SmallNonSquareMatrix(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    det_value: int


def construct_nonsquare(F):
    """Integer matrix with tiny entries whose determinant is the least non-residue.

    With z the least non-residue: a = ceil(sqrt(z)), b = -z mod a taken
    in [1, a], c = 1, d = (z + b)/a.  Then ad - bc = z, all entries are
    at most ceil(sqrt(z)) + 1, and the reduction mod p has no matrix
    square root.  Every one of those facts is re-checked before
    returning; a failure would be a build-stopping bug.
    """
    if not isinstance(F, PrimeField):
        raise TypeError("construct_nonsquare needs a PrimeField (the matrix check does)")
    z = least_nonresidue(F)
    a = math.isqrt(z)
    if a * a < z:
        a += 1
    b = (-z) % a
    if b == 0:
        b = a  # the convention placing b in [1, a]
    c = 1
    if (z + b * c) % a != 0:
        raise InternalInvariantViolation("d is not integral for z=%d" % z)
    d = (z + b * c) // a

    bound = a + 1
    ok = (
        d >= 1
        and max(a, b, c, d) <= bound
        and min(a, b, c, d) >= 1
        and a * d - b * c == z
        and F.legendre(z % F.p) == -1
    )
    if not ok:
        raise InternalInvariantViolation("construction invariants failed for p=%d" % F.p)
    reduced = mat2.reduce_mat((a, b, c, d), F)
    if mat2.has_square_root(reduced, F).found:
        raise InternalInvariantViolation("constructed matrix has a square root mod %d" % F.p)
    return SmallNonSquareMatrix(a, b, c, d, z)
