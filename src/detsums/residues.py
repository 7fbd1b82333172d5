"""Least quadratic non-residue machinery and the small non-square matrix.

Operations accept a PrimeField or a plain int modulus, any odd prime
below psi_13, so a scan over many primes needs no field per prime, and
no p-length table is built.  Every Legendre symbol is Euler's criterion
by scalar `pow`; the least non-residue is `fp_arith.least_nonresidue`,
re-exported here, the one Euler scan, which square roots share.
The count up to X takes the symbol only at the primes q <= X, by
quadratic reciprocity as Euler's criterion mod q (with (2/p) read off
p mod 8), and extends it to 1..X as a parity bit per n, by the one
prime-power walk `fp_arith.prime_factor_tally`: one walk and one sieve
serve a run of eight primes, a bit of the byte each.  No numpy.  An int
p is tested for primality once per report, and not at all when it
arrives checked (`fp_arith.check_odd_prime`), as a `--p-range` prime
sifted by the CLI does.
"""

import math
import operator
from itertools import compress
from typing import NamedTuple

from . import mat2
from .errors import InternalInvariantViolation
from .fp_arith import BIT_TABLES, PrimeField, _as_modulus, _check_length, check_odd_prime, least_nonresidue
from .fp_arith import prime_factor_tally, prime_flags, step_tables


def count_nonresidues(F, X):
    """Exact #{1 <= n <= X : (n/p) = -1}; 1 <= X < p, X held to the table cap.

    A batch of one of `nonresidue_counts`.
    """
    return nonresidue_counts([F], [X])[0]


def nonresidue_counts(Fs, Xs):
    """[#{1 <= n <= X : (n/p) = -1} for each p of Fs and X of Xs], one walk per run of eight primes.

    The Legendre symbol is completely multiplicative, so n is a
    non-residue exactly when it has an odd number of prime factors q with
    (q/p) = -1, counted with multiplicity.  `_nonresidue_primes` sets bit
    j of the byte of each prime q <= X_j with (q/p_j) = -1; the xor
    `step_tables` of `fp_arith.prime_factor_tally` then flip bit j once per
    such prime factor, up to the largest X of the run.  A factor of an
    n <= X_j is at most X_j, so bit j is read on the prefix [1, X_j] alone,
    by one translate and one `count`.  Per run, O(X log X) byte copies in
    C plus about X / ln X `pow`s per prime, each mod a prime q <= X.  Each
    (p, X) is checked, in order, as a count of one would check it.
    """
    ps, checked = [], []
    for F, X in zip(Fs, Xs, strict=True):
        p = _as_modulus(F)
        ps.append(p)
        checked.append(_check_length(X, p, "X"))
    counts = []
    for i in range(0, len(ps), 8):
        run = checked[i : i + 8]
        tally = prime_factor_tally(_nonresidue_primes(ps[i : i + 8], run), max(run), step_tables(operator.xor))
        counts += [tally.translate(bit).count(1, 0, X + 1) for bit, X in zip(BIT_TABLES, run)]
    return counts


def _nonresidue_primes(ps, Xs):
    """max(Xs) + 1 bytes, bit j set at the primes q <= X_j with (q/p_j) = -1, for up to eight odd primes p_j > X_j.

    (2/p) = -1 iff p = 3 or 5 mod 8.  At an odd prime q, quadratic
    reciprocity gives (q/p) = (p*/q) with p* = (-1)^((p-1)/2) p, taken by
    Euler's criterion mod q: no power is taken mod p.  The largest X is
    held to the table cap before the sieve is allocated.
    """
    primes = prime_flags(max(Xs), "X")
    window = bytearray(len(primes))
    for j, (p, X) in enumerate(zip(ps, Xs)):
        bit = 1 << j
        if X >= 2 and p % 8 in (3, 5):
            window[2] |= bit
        pstar = p if p % 4 == 1 else -p
        for q in compress(range(3, X + 1, 2), primes[3 : X + 1 : 2]):
            if pow(pstar % q, (q - 1) // 2, q) != 1:
                window[q] |= bit
    return window


class NonResidueReport(NamedTuple):
    p: int
    z_p: int
    X: int
    count: int
    kappa_empirical: float


def nonresidue_report(F, X):
    """Report: least non-residue, its log_p size, and the count up to X.  A batch of one of `nonresidue_reports`."""
    return nonresidue_reports([F], [X])[0]


def nonresidue_reports(Fs, Xs):
    """A `NonResidueReport` for each p of Fs and X of Xs, the counts from `nonresidue_counts`."""
    Fs = [F if isinstance(F, PrimeField) else check_odd_prime(F) for F in Fs]  # tested here at most once
    reports = []
    for F, X, count in zip(Fs, Xs, nonresidue_counts(Fs, Xs)):
        p = int(_as_modulus(F))  # the report holds a plain int
        z = least_nonresidue(F)
        reports.append(NonResidueReport(p, z, X, count, math.log(z) / math.log(p)))
    return reports


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
