"""Character sums over the determinant equation, by direct enumeration and binning.

Two routes everywhere: a direct route that touches every index tuple,
and a binned route that first counts how many tuples land on each value
(difference profile over integer determinants, or residue bins for the
ratio map) and then contracts the counts against the character.  The
binned s and u sums and the Delta-profile share one determinant
correlation, an O(N^2 log N) real FFT with a rounding certificate: for
integral weights (unit, +-1, or in {-1, 0, 1}) it is rounded to exact
integers below the guard N^4 < 2^53 and raises Overflow above; other
weights keep a float result within 1e-9 * N^4.  The character is read
only through `characters`: `shifted_sums` for the binned t sum, and
`Character.tally` everywhere else, on the lags Delta of the binned s and
u sums and on blocks of raw determinants ad - bc in the direct routes.
Agreement of the two routes is the module's core correctness check.
"""

from typing import NamedTuple

import numpy as np

from .characters import CharSumAccumulator, as_weights, check_shifts, contract, de_moment, shifted_sums
from .errors import DomainTooLarge, InternalInvariantViolation, Overflow, ValidationError
from .fp_arith import _check_length, _check_table_size

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

    def total(self):
        return int(self.counts.sum())


def _products(A, B):
    """Flat int64 array of a*b over (a, b) in [1,A]x[1,B], entry (a-1)*B + (b-1)."""
    return np.outer(np.arange(1, A + 1, dtype=np.int64), np.arange(1, B + 1, dtype=np.int64)).ravel()


# Largest |x - rint(x)| an integral-weight correlation may show before it is
# rounded; far below 1/2, so a result that passes rounds to the exact integers.
_RESIDUAL_MARGIN = 1 / 16
# Tolerance of a general-weight correlation, relative to N^4.
_FLOAT_TOL = 1e-9


def _correlation(wa, wb):
    """Weighted determinant correlation T_Delta = sum over ad - bc = Delta of wa_a wb_b.

    (a,b,c,d) runs over [1,N]^4 with N = len(wa); entry i holds
    Delta = i - (N^2 - 1).  Each side bins its weighted products,
    r(v) = sum over xy = v of w_x for v in [1, N^2], and the two bins are
    cross-correlated by one zero-padded real FFT of power-of-two length
    n in [2N^2 - 1, 4N^2): O(N^2 log N) time.  Memory: about 3n float64
    entries at peak, so within 12N^2 (n = 2^23 at N = 2000, a measured
    peak of 203 MB).

    With every weight in {-1, 0, 1} each T_Delta is an integer of size at
    most N^4, and the result is rounded to those exact integers; the guard
    N^4 < 2^53 raises Overflow before any array is built.  Other weights in
    [-1, 1] keep the float result, within 1e-9 * N^4 of the exact one.
    Every call is certified by _certified before it returns.
    """
    N = len(wa)
    if N**4 >= 2**53:
        raise Overflow("N^4 exceeds the float64 integer range 2^53 at N=%d" % N)
    size = 2 * N * N - 1  # lags Delta in (-N^2, N^2)
    n = 1 << (size - 1).bit_length()
    prods = _products(N, N) - 1  # bin v - 1 holds product v; row index a (or b) carries its weight
    # out[N^2 - 1 + Delta] = sum_v ra(v + Delta) rb(v): a convolution with rb reversed
    spec = np.fft.rfft(np.bincount(prods, weights=np.repeat(wa, N), minlength=N * N), n)
    spec *= np.fft.rfft(np.bincount(prods, weights=np.repeat(wb, N), minlength=N * N)[::-1], n)
    del prods  # the certificates allocate next; keep the peak to the transform arrays
    out = np.fft.irfft(spec, n)[:size]
    del spec
    return _certified(out, wa, wb)


def _certified(out, wa, wb):
    """The correlation `out` of weights wa, wb once it passes its checks, rounded if integral.

    InternalInvariantViolation names the failed check and its margin:
      residual  integral weights: max |x - rint(x)| < 1/16, then x -> rint(x);
      mass      sum of T_Delta equals (sum wa)(sum wb) N^2, exactly for
                integral weights (every partial sum is then an integer of
                size at most N^4 < 2^53), within 1e-9 * N^4 otherwise;
      symmetry  integral weights with wa == wb (unit weights among them):
                T_Delta = T_{-Delta} exactly.
    """
    N = len(wa)
    integral = bool(np.all(wa == np.rint(wa)) and np.all(wb == np.rint(wb)))
    if integral:
        exact = np.rint(out)
        dev = out - exact
        residual = float(np.max(np.abs(dev, out=dev)))
        if not residual < _RESIDUAL_MARGIN:
            raise InternalInvariantViolation(
                "correlation residual certificate failed at N=%d: max |x - rint(x)| = %.3g, margin %g"
                % (N, residual, _RESIDUAL_MARGIN)
            )
        out = exact
    mass = float(np.sum(wa)) * float(np.sum(wb)) * N * N
    err = abs(float(out.sum()) - mass)
    tol = 0.0 if integral else _FLOAT_TOL * N**4
    if not err <= tol:
        raise InternalInvariantViolation(
            "correlation mass certificate failed at N=%d: sum is off by %.3g from %r, tolerance %.3g"
            % (N, err, mass, tol)
        )
    if integral and np.array_equal(wa, wb) and not np.array_equal(out, out[::-1]):
        worst = float(np.max(np.abs(out - out[::-1])))
        raise InternalInvariantViolation(
            "correlation symmetry certificate failed at N=%d: max |T(D) - T(-D)| = %g" % (N, worst)
        )
    return out


def delta_profile(N):
    """Exact DeltaProfile: the determinant correlation with unit weights.

    O(N^2 log N) time and about 3n float64 entries of memory, n < 4N^2 the
    padded FFT length (n = 2^23 at N = 2000), by the certified correlation:
    its residual, mass and symmetry checks run on every call.  The mass
    N^4 is checked once more here on the int64 counts.
    """
    N = int(N)
    if N < 1:
        raise ValidationError("N must be >= 1, got %d" % N)
    ones = np.ones(N)
    prof = DeltaProfile(N, _correlation(ones, ones).astype(np.int64))
    if prof.total() != N**4:  # pragma: no cover
        raise InternalInvariantViolation("delta profile mass %d != N^4" % prof.total())
    return prof


def _direct_blocks(N):
    """The determinants ad - bc over [1,N]^4, in blocks of (a,d) rows.

    Yields (rows, dets): dets[i, j] = ad - bc as an int64, where (a,d) is
    the product pair of row rows.start + i and (b,c) that of column j,
    both numbered as in _products(N, N).  Blocks keep scratch memory
    under _DIRECT_CHUNK entries.
    """
    prods = _products(N, N)
    step = max(1, _DIRECT_CHUNK // len(prods))
    for lo in range(0, len(prods), step):
        yield slice(lo, lo + step), prods[lo : lo + step, None] - prods[None, :]


def s_sum_direct(chi, N):
    """S(N, chi) = sum over all (a,b,c,d) in [1,N]^4 of chi(ad - bc), term by term.

    The O(N^4) reference route: every quadruple's determinant is tallied
    by chi (blocked to keep scratch memory flat).
    """
    N = _check_length(N, chi.field.p)
    counts = np.zeros(chi.d, dtype=np.int64)
    zero_terms = 0
    for _, dets in _direct_blocks(N):
        block_counts, block_zeros = chi.tally(dets)
        counts += block_counts
        zero_terms += block_zeros
    return CharSumAccumulator(chi.d, counts, zero_terms)


def s_sum_binned(chi, N):
    """S(N, chi) via the integer-determinant profile; must equal s_sum_direct.

    chi is evaluated at Delta mod p, and Delta values that are nonzero
    multiples of p land in the zero tally like any other chi(0) term.
    """
    N = _check_length(N, chi.field.p)
    profile = delta_profile(N).counts  # its guard fires before the lags Delta are built
    counts, zero_terms = chi.tally(np.arange(1 - N * N, N * N, dtype=np.int64), profile)
    return CharSumAccumulator(chi.d, counts, zero_terms)


def _weight_array(w, N):
    w = as_weights(w)
    return np.array([w[i] for i in range(1, N + 1)], dtype=np.float64)


def u_sum(chi, alpha, beta, N):
    """U(alpha, beta, N) = sum alpha_a beta_b chi(ad - bc) over [1,N]^4, binned.

    alpha weights index a, beta weights index b; c and d are unweighted.
    The weighted determinant correlation (O(N^2 log N), certified) is
    binned per character index, then contracted against chi.  With weights
    in {-1, 0, 1}, as in every CLI u scan, the correlation is exact
    integers and the value equals u_sum_direct bit for bit; other weights
    in [-1, 1] keep the float correlation, within 1e-9 * N^4 per entry.
    """
    N = _check_length(N, chi.field.p)
    corr = _correlation(_weight_array(alpha, N), _weight_array(beta, N))  # guard before the lags
    per_index, _ = chi.tally(np.arange(1 - N * N, N * N, dtype=np.int64), corr)
    return complex(contract(per_index, chi.d))


def u_sum_direct(chi, alpha, beta, N):
    """O(N^4) reference route for u_sum: one weighted term per quadruple."""
    N = _check_length(N, chi.field.p)
    w_ad = np.repeat(_weight_array(alpha, N), N)  # weight of the (a,d) slot is alpha_a
    w_bc = np.repeat(_weight_array(beta, N), N)
    per_index = np.zeros(chi.d)
    for rows, dets in _direct_blocks(N):
        per_index += chi.tally(dets, np.outer(w_ad[rows], w_bc))[0]  # chi(0) terms drop out
    return complex(contract(per_index, chi.d))


class BinTable:
    """Counts I(lam) over residues lam in [1, p-1]; bin 0 stays empty."""

    __slots__ = ("p", "counts")

    def __init__(self, p, counts):
        self.p = p
        self.counts = counts  # int64, length p, indexed by residue

    def total(self):
        return int(self.counts.sum())


def ratio_bins(F, A, B, C):
    """I(lam) = #{(a,b,c) in [1,A]x[1,B]x[1,C] : a*b/c = lam mod p}, exactly.

    The A*B products are binned by residue once, then each occupied
    product class is scattered through the C inverses:
    O(AB + p + C*min(AB, p)), its length-p arrays held to the table cap.
    """
    p = F.p
    A, B, C = int(A), int(B), int(C)
    if not (1 <= A < p and 1 <= B < p and 1 <= C < p):
        raise ValidationError("need 1 <= A, B, C < p, got %d, %d, %d with p=%d" % (A, B, C, p))
    _check_table_size(p)
    table = np.bincount(_products(A, B) % p, minlength=p)
    support = np.flatnonzero(table)
    mass = table[support]
    bins = np.zeros(p, dtype=np.int64)
    for c in range(1, C + 1):
        # multiplication by a unit is injective, so the targets are distinct
        bins[support * F.inv(c) % p] += mass
    if bins[0] != 0 or bins.sum() != A * B * C:  # pragma: no cover
        raise InternalInvariantViolation("ratio bins lost mass")
    return BinTable(p, bins)


def t_abs_sum(chi, A, B, C, D_set, alpha):
    """T(A,B,C,D;alpha) = sum over triples of |sum_d alpha_d chi(ab - cd)|.

    Factoring chi(c) out of each term leaves sum_lam I(lam) * |inner(lam)|,
    so the triple loop collapses onto the ratio bins.  Needs A*B*C < p.
    """
    return _t_abs_with_bins(chi, A, B, C, D_set, alpha)[0]


def _t_abs_with_bins(chi, A, B, C, D_set, alpha):
    """(t_abs_sum, the ratio bins it was summed over), so holder_chain builds the bins once."""
    p = chi.field.p
    if int(A) * int(B) * int(C) >= p:
        raise DomainTooLarge("t_abs_sum needs A*B*C < p")
    alpha = as_weights(alpha)
    ds = check_shifts(D_set, p)
    table = ratio_bins(chi.field, A, B, C)
    lams = np.flatnonzero(table.counts)
    mags = np.abs(shifted_sums(chi, lams, [(-s, alpha[s]) for s in ds]))
    return float(np.sum(table.counts[lams] * mags)), table


def t_abs_sum_direct(chi, A, B, C, D_set, alpha):
    """O(ABC*D) reference route for t_abs_sum, one term per triple."""
    alpha = as_weights(alpha)
    ds = check_shifts(D_set, chi.field.p)
    shifts = np.array(ds, dtype=np.int64)
    weights = np.array([alpha[d0] for d0 in ds])
    total = 0.0
    for a in range(1, int(A) + 1):
        for b in range(1, int(B) + 1):
            for c in range(1, int(C) + 1):
                per, _ = chi.tally(a * b - c * shifts, weights)
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
    t, table = _t_abs_with_bins(chi, A, B, C, D_set, alpha)
    sigma1 = de_moment(chi, D_set, alpha, nu)
    sigma2 = float(int(A) * int(B) * int(C)) ** (2 * nu - 2)
    sigma3 = float(np.sum(table.counts.astype(np.float64) ** 2))
    return HolderChain(t ** (2 * nu), sigma1, sigma2, sigma3)
