"""Shared helpers: cached fields and the brute-force oracles the fast routes are checked against."""

import functools
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from detsums import InternalInvariantViolation, Overflow, make_field
from detsums.characters import contract
from detsums.mat2 import Census, Mat2, PairImageCensus, _class_size, has_square_root
from detsums.sums import _products

# One profile for every property test: reproducible examples, no example database on disk.
settings.register_profile("detsums", max_examples=60, deadline=None, derandomize=True, database=None)
settings.load_profile("detsums")


@functools.lru_cache(maxsize=64)
def field(p):
    return make_field(p)


# Orders whose roots of unity are not all real, for the route-equivalence tests.
HIGH_ORDER_PAIRS = ((13, 4), (13, 6), (37, 4), (37, 6), (61, 4), (61, 6))


@pytest.fixture
def rng():
    return random.Random("detsums-test-suite")


def legendre_oracle(x, p):
    """Independent Legendre decision: scan all squares."""
    if x % p == 0:
        return 0
    squares = {(i * i) % p for i in range(1, p)}
    return 1 if x % p in squares else -1


def dlog_by_loop(p, g):
    """int32 discrete-log table: dlog[g^k mod p] = k for k < p - 1, dlog[0] = -1.

    One Python step per unit, O(p): the oracle for the blocked power walk
    behind `Character.index_table`.
    """
    dlog = np.empty(p, dtype=np.int32)
    dlog[0] = -1  # sentinel, never a valid log
    x = 1
    for k in range(p - 1):
        dlog[x] = k
        x = x * g % p
    if x != 1:  # pragma: no cover
        raise InternalInvariantViolation("primitive root loop failed to close")
    return dlog


def shifted_sums_by_add_at(chi, lams, terms):
    """sum_{(s, w) in terms} w * chi(lam + s) per lam, tallied by one np.add.at per shift.

    The oracle for the per-index tally in `characters.shifted_sums`.
    """
    p = chi.field.p
    ktab = chi.index_table()
    per_index = np.zeros((chi.d, len(lams)))
    for s, w in terms:
        if w == 0.0:
            continue
        idx = ktab[(lams + s) % p]
        nz = idx >= 0
        np.add.at(per_index, (idx[nz], np.flatnonzero(nz)), w)
    return contract(per_index, chi.d)


def correlation_by_convolution(wa, wb):
    """Weighted determinant correlation T_Delta = sum over ad - bc = Delta of wa_a wb_b.

    (a,b,c,d) runs over [1,N]^4 with N = len(wa); entry i holds
    Delta = i - (N^2 - 1).  Each side bins its weighted products,
    r(v) = sum over xy = v of w_x, and the two bins are cross-correlated
    by one float64 convolution: O(N^4) operations.  For weights in
    {-1, 0, 1} every partial sum is an integer of size at most N^4, so the
    result is exact below the guard N^4 < 2^53.  The oracle for the FFT
    correlation in `sums._correlation`.
    """
    N = len(wa)
    if N**4 >= 2**53:
        raise Overflow("N^4 exceeds the float64 integer range 2^53 at N=%d" % N)
    prods = _products(N, N)  # row index a (or b) carries its weight
    ra = np.bincount(prods, weights=np.repeat(wa, N), minlength=N * N + 1)
    rb = np.bincount(prods, weights=np.repeat(wb, N), minlength=N * N + 1)
    # full[N^2 + Delta] = sum_v ra(v + Delta) rb(v); the ends are empty lags
    return np.convolve(ra, rb[::-1])[1:-1]


def ratio_bins_oracle(p, A, B, C):
    """I(lam) over residues mod p by counting every triple (a, b, c): one a*b*c^-1 each."""
    a = np.arange(1, A + 1, dtype=np.int64).reshape(-1, 1, 1)
    b = np.arange(1, B + 1, dtype=np.int64).reshape(1, -1, 1)
    c_inv = np.array([pow(c, p - 2, p) for c in range(1, C + 1)], dtype=np.int64).reshape(1, 1, -1)
    return np.bincount((a * b % p * c_inv % p).ravel(), minlength=p)


def census_by_enumeration(F):
    """Census of squares in M_2(F_p) by squaring all p^4 matrices B.

    Marks B*B in a flat table indexed by ((m11*p + m12)*p + m21)*p + m22,
    then tallies squares and invertible non-squares: O(p^4) time and a
    p^4-entry table, the oracle for the class census in `mat2.census`.
    """
    p = F.p
    p3 = p**3
    n_total = p**4
    marked = np.zeros(n_total, dtype=bool)

    b = np.arange(p, dtype=np.int64).reshape(p, 1, 1)
    c = np.arange(p, dtype=np.int64).reshape(1, p, 1)
    d = np.arange(p, dtype=np.int64).reshape(1, 1, p)
    bc = (b * c) % p
    e22 = (d * d + bc) % p
    for a in range(p):
        apd = (a + d) % p
        e11 = (a * a + bc) % p
        e12 = (b * apd) % p
        e21 = (c * apd) % p
        idx = ((e11 * p + e12) * p + e21) * p + e22
        marked[idx.ravel()] = True

    n_square = int(np.count_nonzero(marked))
    n_singular = 0
    n_nonsq_inv = 0
    for a in range(p):
        blk = marked[a * p3 : (a + 1) * p3].reshape(p, p, p)
        singular = (a * d - b * c) % p == 0
        n_singular += int(np.count_nonzero(singular))
        n_nonsq_inv += int(np.count_nonzero(~blk & ~singular))

    return Census(p, n_total, n_singular, n_square, n_nonsq_inv, n_nonsq_inv / n_total)


def conjugacy_classes(F):
    """Yield (representative, det, class size) for every class of M_2(F_p).

    The p scalar classes u*I have size 1; the p^2 non-scalar classes are
    one per characteristic polynomial x^2 - t*x + n, represented by the
    companion matrix [[0, -n], [1, t]].  Class sizes take the symbol of
    the discriminant from `F.legendre`, the Euler criterion.
    """
    p = F.p
    for u in range(p):
        yield Mat2(u, 0, 0, u), u * u % p, 1
    for t in range(p):
        for n in range(p):
            yield Mat2(0, -n % p, 1, t), n, _class_size(p, F.legendre((t * t - 4 * n) % p))


def census_by_classes(F):
    """Census of squares in M_2(F_p): one `has_square_root` decision per conjugacy class.

    p + p^2 Python decisions weighted by the class sizes, with both
    certificates: the oracle for the eigenvalue rule in `mat2.census`.
    The decisions ask `sqrt_roots` about p^2 times on only p arguments, so
    they see F with its `sqrt_roots` memoized; each decision still runs.
    """
    p = F.p
    memo = SimpleNamespace(p=p, inv=F.inv, sqrt_roots=functools.cache(F.sqrt_roots))
    n_total = p**4
    n_counted = n_singular = n_square = n_nonsq_inv = 0
    for rep, n, size in conjugacy_classes(F):
        n_counted += size
        if n == 0:
            n_singular += size
        if has_square_root(rep, memo).found:
            n_square += size
        elif n != 0:
            n_nonsq_inv += size

    if n_counted != n_total:
        raise InternalInvariantViolation("class sizes sum to %d, not p^4 = %d (p=%d)" % (n_counted, n_total, p))
    n_gl2 = (p * p - 1) * (p * p - p)
    if n_singular != n_total - n_gl2:
        raise InternalInvariantViolation(
            "singular classes sum to %d, not p^4 - |GL_2| = %d (p=%d)" % (n_singular, n_total - n_gl2, p)
        )
    return Census(p, n_total, n_singular, n_square, n_nonsq_inv, n_nonsq_inv / n_total)


def pair_image_by_enumeration(F):
    """Pair census by enumerating all p(p+1)/2 pairs (s, q), q a square, in slabs of s.

    Counts the type A pairs (q - 4s a nonzero square) from a square
    marking and the image of (s, q) -> (s^2, q - 2s) by `np.unique`
    over the codes s^2 * p + (q - 2s): O(p^2) time, the oracle for the
    closed form in `mat2.pair_image_census`.
    """
    p = F.p
    r = np.arange((p + 1) // 2, dtype=np.int64)
    R = np.full(p, -1, dtype=np.int64)
    R[r * r % p] = r  # each square has one root in [0, (p-1)/2], so sign(R[x]) is (x/p)
    squares = np.flatnonzero(R >= 0)  # the (p+1)/2 squares, 0 included, increasing

    type_a = 0
    uniques = []
    slab = max(1, 2_000_000 // len(squares))
    for lo in range(0, p, slab):
        s = np.arange(lo, min(lo + slab, p), dtype=np.int64).reshape(-1, 1)
        disc = (squares - 4 * s) % p
        type_a += int(np.count_nonzero(R[disc] > 0))
        codes = ((s * s) % p) * p + (squares - 2 * s) % p
        uniques.append(np.unique(codes))
    image = int(np.unique(np.concatenate(uniques)).size)
    return PairImageCensus(type_a, p * (p + 1) // 2 - type_a, image)
