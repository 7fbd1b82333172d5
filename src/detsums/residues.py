"""Least quadratic non-residue machinery and the small non-square matrix.

Operations accept either a PrimeField or a plain int modulus, so a scan
over many primes (say every p up to 10^6) needs no field per prime and
so no primitive-root search.  Both paths take every Legendre symbol
from the Euler criterion: the least non-residue by scalar `pow`, the
count by one `pow_mod` over 1..X.  An int p is checked for primality
once per report, however many operations the report runs.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from . import mat2
from .errors import InternalInvariantViolation, ValidationError
from .fp_arith import PrimeField, _check_table_size, check_odd_prime, pow_mod


@functools.lru_cache(maxsize=1)
def _checked_prime(p):
    """check_odd_prime(p), remembered for the last p (a NotPrime is never cached)."""
    return check_odd_prime(p)


def _as_modulus(F):
    """p from a PrimeField or a validated int prime."""
    return F.p if isinstance(F, PrimeField) else _checked_prime(F)


def least_nonresidue(F):
    """Smallest n >= 2 with (n/p) = -1, by linear scan with the Euler criterion."""
    p = _as_modulus(F)
    e = (p - 1) // 2
    for n in range(2, p):
        if pow(n, e, p) != 1:
            return n
    raise InternalInvariantViolation("no non-residue below p=%d" % p)  # pragma: no cover


def count_nonresidues(F, X):
    """Exact #{1 <= n <= X : (n/p) = -1} by the Euler criterion; 1 <= X < p, X held to the table cap."""
    p = _as_modulus(F)
    if not 1 <= X < p:
        raise ValidationError("need 1 <= X < p, got X=%d with p=%d" % (X, p))
    _check_table_size(X, "X")
    return int(np.count_nonzero(pow_mod(np.arange(1, X + 1), (p - 1) // 2, p) != 1))


class NonResidueReport(NamedTuple):
    p: int
    z_p: int
    X: int
    count: int
    kappa_empirical: float


def nonresidue_report(F, X):
    """Report: least non-residue, its log_p size, and the count up to X."""
    p = _as_modulus(F)
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
