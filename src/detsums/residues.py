"""Least quadratic non-residue machinery and the small non-square matrix.

Operations accept either a PrimeField or a plain int modulus: scans over
many primes (say every p up to 10^6) would be crippled by building a
dense dlog table per prime, so the int path works through modular
exponentiation only.
"""

import math
from typing import NamedTuple

import numpy as np

from . import mat2
from .errors import InternalInvariantViolation, ValidationError
from .fp_arith import PrimeField, check_odd_prime


def _as_modulus(F):
    """(p, legendre_callable) from a PrimeField or a validated int prime."""
    if isinstance(F, PrimeField):
        return F.p, F.legendre
    p = check_odd_prime(F)
    e = (p - 1) // 2

    def leg(n):
        if n % p == 0:
            return 0
        return 1 if pow(n, e, p) == 1 else -1

    return p, leg


def least_nonresidue(F):
    """Smallest n >= 2 with (n/p) = -1, by linear scan."""
    p, leg = _as_modulus(F)
    for n in range(2, p):
        if leg(n) == -1:
            return n
    raise InternalInvariantViolation("no non-residue below p=%d" % p)  # pragma: no cover


def count_nonresidues(F, X):
    """Exact #{1 <= n <= X : (n/p) = -1}; X must stay below p."""
    p, leg = _as_modulus(F)
    if not 1 <= X < p:
        raise ValidationError("need 1 <= X < p, got X=%d with p=%d" % (X, p))
    if isinstance(F, PrimeField):
        # dlog parity: odd exponent of the primitive root marks a non-residue
        return int(np.count_nonzero(F.dlog[1 : X + 1] & 1))
    return sum(1 for n in range(1, X + 1) if leg(n) == -1)


class NonResidueReport(NamedTuple):
    p: int
    z_p: int
    X: int
    count: int
    kappa_empirical: float


def nonresidue_report(F, X):
    """Report: least non-residue, its log_p size, and the count up to X."""
    p, _ = _as_modulus(F)
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
