"""Character sums over the determinant equation, by direct enumeration and binning.

Two routes everywhere: a direct route that touches every index tuple,
and a binned route that first counts how many tuples land on each value
(difference profile over integer determinants, or residue bins for the
ratio map) and then contracts the counts against the character.  Both
are exact in integer arithmetic; agreement of the two routes is the
module's core correctness check.
"""

from typing import NamedTuple

import numpy as np

from .characters import CharSumAccumulator, as_weights, check_shifts, contract, de_moment, shifted_sums
from .errors import DomainTooLarge, InternalInvariantViolation, Overflow, ValidationError

_DIRECT_CHUNK = 4_000_000  # cap on scratch entries per block in direct sums


class DeltaProfile:
    """Counts T_Delta = #{(a,b,c,d) in [1,N]^4 : ad - bc = Delta} over integer Delta."""

    __slots__ = ("N", "counts")

    def __init__(self, N, counts):
        self.N = N
        self.counts = counts  # int64, index i holds Delta = i - (N^2 - 1)

    def count(self, delta):
        i = delta + self.N * self.N - 1
        if 0 <= i < len(self.counts):
            return int(self.counts[i])
        return 0

    def deltas(self):
        top = self.N * self.N - 1
        return range(-top, top + 1)

    def total(self):
        return int(self.counts.sum())


def _products(A, B):
    """Flat int64 array of a*b over (a, b) in [1,A]x[1,B], entry (a-1)*B + (b-1)."""
    return np.outer(np.arange(1, A + 1, dtype=np.int64), np.arange(1, B + 1, dtype=np.int64)).ravel()


def _check_length(N, p):
    """N as an int; ValidationError unless 1 <= N < p."""
    N = int(N)
    if not 1 <= N < p:
        raise ValidationError("need 1 <= N < p, got N=%d with p=%d" % (N, p))
    return N


def delta_profile(N):
    """Exact DeltaProfile via the product-count autocorrelation.

    r(v) = #{(x,y) in [1,N]^2 : xy = v}; then T_Delta = sum_v r(v) r(v - Delta),
    computed as one direct integer convolution of two length N^2 + 1 arrays:
    O(N^4) operations, exact in int64.
    """
    N = int(N)
    if N < 1:
        raise ValidationError("N must be >= 1, got %d" % N)
    if N**4 >= 2**63:
        raise Overflow("N^4 exceeds int64 tally capacity at N=%d" % N)
    r = np.bincount(_products(N, N), minlength=N * N + 1)
    full = np.convolve(r, r[::-1])  # lag N^2 - k at position k, ends are empty lags
    counts = full[1:-1][::-1].copy()
    prof = DeltaProfile(N, counts.astype(np.int64))
    if prof.total() != N**4:  # pragma: no cover
        raise InternalInvariantViolation("delta profile mass %d != N^4" % prof.total())
    return prof


def _direct_blocks(chi, N):
    """Index-table values of chi(ad - bc) over [1,N]^4, in blocks of (a,d) rows.

    Yields (rows, ks): ks[i, j] is the index of chi(ad - bc), -1 for
    chi(0), where (a,d) is the product pair of row rows.start + i and (b,c)
    that of column j, both numbered as in _products(N, N).  Blocks keep
    scratch memory under _DIRECT_CHUNK entries.
    """
    p = chi.field.p
    ktab = chi.index_table()
    prods = _products(N, N)
    step = max(1, _DIRECT_CHUNK // len(prods))
    for lo in range(0, len(prods), step):
        diff = (prods[lo : lo + step, None] - prods[None, :]) % p
        yield slice(lo, lo + step), ktab[diff]


def _delta_index(chi, N):
    """Index of chi(Delta mod p) for Delta = -(N^2-1) .. N^2-1, -1 for chi(0)."""
    top = N * N - 1
    return chi.index_table()[np.arange(-top, top + 1, dtype=np.int64) % chi.field.p]


def s_sum_direct(chi, N):
    """S(N, chi) = sum over all (a,b,c,d) in [1,N]^4 of chi(ad - bc), term by term.

    The O(N^4) reference route: every quadruple contributes one table
    lookup (blocked to keep scratch memory flat).
    """
    N = _check_length(N, chi.field.p)
    counts = np.zeros(chi.d, dtype=np.int64)
    zero_terms = 0
    for _, ks in _direct_blocks(chi, N):
        nz = ks >= 0
        counts += np.bincount(ks[nz], minlength=chi.d)
        zero_terms += int(np.count_nonzero(~nz))
    return CharSumAccumulator(chi.d, counts, zero_terms)


def s_sum_binned(chi, N):
    """S(N, chi) via the integer-determinant profile; must equal s_sum_direct.

    chi is evaluated at Delta mod p, and Delta values that are nonzero
    multiples of p land in the zero tally like any other chi(0) term.
    """
    N = _check_length(N, chi.field.p)
    if N * N >= 2**31:
        raise Overflow("N^2 must stay below 2^31")
    prof = delta_profile(N)
    ks = _delta_index(chi, N)
    nz = ks >= 0
    counts = np.zeros(chi.d, dtype=np.int64)
    np.add.at(counts, ks[nz], prof.counts[nz])
    zero_terms = int(prof.counts[~nz].sum())
    return CharSumAccumulator(chi.d, counts, zero_terms)


def _weight_array(w, N):
    w = as_weights(w)
    return np.array([w[i] for i in range(1, N + 1)], dtype=np.float64)


def u_sum(chi, alpha, beta, N):
    """U(alpha, beta, N) = sum alpha_a beta_b chi(ad - bc) over [1,N]^4, binned.

    alpha weights index a, beta weights index b; c and d are unweighted.
    Weighted product counts on each side are cross-correlated, then
    contracted against chi per character index.
    """
    N = _check_length(N, chi.field.p)
    wa = _weight_array(alpha, N)
    wb = _weight_array(beta, N)
    prods = _products(N, N)

    ra = np.zeros(N * N + 1)
    np.add.at(ra, prods, np.repeat(wa, N))  # row index a carries alpha_a
    rb = np.zeros(N * N + 1)
    np.add.at(rb, prods, np.repeat(wb, N))

    # cross[N^2 + Delta] = sum_v ra(v + Delta) rb(v); cross[1:-1] spans |Delta| < N^2
    cross = np.convolve(ra, rb[::-1])
    ks = _delta_index(chi, N)
    nz = ks >= 0
    per_index = np.zeros(chi.d)
    np.add.at(per_index, ks[nz], cross[1:-1][nz])
    return complex(contract(per_index, chi.d))


def u_sum_direct(chi, alpha, beta, N):
    """O(N^4) reference route for u_sum: one weighted term per quadruple."""
    N = _check_length(N, chi.field.p)
    w_ad = np.repeat(_weight_array(alpha, N), N)  # weight of the (a,d) slot is alpha_a
    w_bc = np.repeat(_weight_array(beta, N), N)
    per_index = np.zeros(chi.d)
    for rows, ks in _direct_blocks(chi, N):
        w2 = np.outer(w_ad[rows], w_bc)
        nz = ks >= 0  # chi(0) terms drop out of the weighted sum
        np.add.at(per_index, ks[nz], w2[nz])
    return complex(contract(per_index, chi.d))


class BinTable:
    """Counts I(lam) over residues lam in [1, p-1]; bin 0 stays empty."""

    __slots__ = ("p", "counts")

    def __init__(self, p, counts):
        self.p = p
        self.counts = counts  # int64, length p, indexed by residue

    def count(self, lam):
        return int(self.counts[lam])

    def total(self):
        return int(self.counts.sum())


def ratio_bins(F, A, B, C, strategy="auto"):
    """I(lam) = #{(a,b,c) in [1,A]x[1,B]x[1,C] : a*b/c = lam mod p}, exactly.

    Two exact strategies: "direct" walks all A*B*C triples (O(ABC)), and
    "table" first bins the A*B products then scatters each product class
    through the C inverses (O(AB + C*p)).  "auto" picks table when
    A*B > p, i.e. when A*B*C > C*p.
    """
    p = F.p
    A, B, C = int(A), int(B), int(C)
    if not (1 <= A < p and 1 <= B < p and 1 <= C < p):
        raise ValidationError("need 1 <= A, B, C < p, got %d, %d, %d with p=%d" % (A, B, C, p))
    if strategy == "auto":
        strategy = "table" if A * B > p else "direct"
    ab = _products(A, B) % p
    bins = np.zeros(p, dtype=np.int64)
    if strategy == "direct":
        for c in range(1, C + 1):
            idx = ab * F.inv(c) % p
            bins += np.bincount(idx, minlength=p)
    elif strategy == "table":
        table = np.bincount(ab, minlength=p)
        support = np.flatnonzero(table)
        mass = table[support]
        for c in range(1, C + 1):
            # multiplication by a unit is injective, so the targets are distinct
            bins[support * F.inv(c) % p] += mass
    else:
        raise ValueError("unknown strategy %r" % (strategy,))
    if bins[0] != 0 or bins.sum() != A * B * C:  # pragma: no cover
        raise InternalInvariantViolation("ratio bins lost mass")
    return BinTable(p, bins)


def t_abs_sum(chi, A, B, C, D_set, alpha):
    """T(A,B,C,D;alpha) = sum over triples of |sum_d alpha_d chi(ab - cd)|.

    Factoring chi(c) out of each term leaves sum_lam I(lam) * |inner(lam)|,
    so the triple loop collapses onto the ratio bins.  Needs A*B*C < p.
    """
    p = chi.field.p
    if int(A) * int(B) * int(C) >= p:
        raise DomainTooLarge("t_abs_sum needs A*B*C < p")
    alpha = as_weights(alpha)
    ds = check_shifts(D_set, p)
    table = ratio_bins(chi.field, A, B, C)
    lams = np.flatnonzero(table.counts)
    mags = np.abs(shifted_sums(chi, lams, [(-s, alpha[s]) for s in ds]))
    return float(np.sum(table.counts[lams] * mags))


def t_abs_sum_direct(chi, A, B, C, D_set, alpha):
    """O(ABC*D) reference route for t_abs_sum, one term per triple."""
    p = chi.field.p
    alpha = as_weights(alpha)
    ds = check_shifts(D_set, p)
    ktab = chi.index_table()
    total = 0.0
    for a in range(1, int(A) + 1):
        for b in range(1, int(B) + 1):
            ab = a * b
            for c in range(1, int(C) + 1):
                per = np.zeros(chi.d)
                for d0 in ds:
                    k = ktab[(ab - c * d0) % p]
                    if k >= 0:
                        per[k] += alpha[d0]
                total += abs(contract(per, chi.d))
    return total


def t_n_sum(chi, N):
    """T(N) = t_abs_sum with A = B = C = N, D = [1,N], unit weights."""
    N = int(N)
    if N < 1:
        raise ValidationError("N must be >= 1, got %d" % N)
    ones = {i: 1.0 for i in range(1, N + 1)}
    return t_abs_sum(chi, N, N, N, range(1, N + 1), ones)


class HolderChain(NamedTuple):
    lhs: float  # t_abs_sum ** (2 nu)
    sigma1: float  # shifted-product moment
    sigma2: float  # (ABC) ** (2 nu - 2)
    sigma3: float  # sum of I(lam)^2


def holder_chain(chi, A, B, C, D_set, alpha, nu):
    """The three-factor bound lhs <= sigma1 * sigma2 * sigma3 as computed numbers."""
    t = t_abs_sum(chi, A, B, C, D_set, alpha)
    sigma1 = de_moment(chi, D_set, alpha, nu)
    sigma2 = float(int(A) * int(B) * int(C)) ** (2 * nu - 2)
    table = ratio_bins(chi.field, A, B, C)
    sigma3 = float(np.sum(table.counts.astype(np.float64) ** 2))
    return HolderChain(t ** (2 * nu), sigma1, sigma2, sigma3)
