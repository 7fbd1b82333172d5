"""Multiplicative characters mod p of order d, as exact root-of-unity indices.

A character value is either Zero (argument divisible by p) or an index
k in [0, d-1] standing for e(k/d) = exp(2*pi*i*k/d).  All sums are
tallied as integer counts per index and only converted to complex at
readout, so every identity that holds in exact arithmetic can be tested
exactly; order-2 sums never leave integer arithmetic.  `pow_mod` is
x^e mod p over an int64 array.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import BadOrder, InternalInvariantViolation, ValidationError, WeightOutOfRange
from .fp_arith import _check_hard_cap, _check_table_size


class CharValue(NamedTuple):
    zero: bool
    k: int


CHAR_ZERO = CharValue(True, 0)

_WALK_BLOCK = 1 << 16  # g^k walk entries per block of Character.index_table


_H = math.sqrt(3) / 2  # correctly rounded: the one irrational coordinate of a twelfth root
# e(m/12) for m = 0, ..., 11; every coordinate 0, +-1/2 or +-1 is exact
_TWELFTH_ROOTS = np.array(
    [1, _H + 0.5j, 0.5 + _H * 1j, 1j, -0.5 + _H * 1j, -_H + 0.5j]
    + [-1, -_H - 0.5j, -0.5 - _H * 1j, -1j, 0.5 - _H * 1j, _H - 0.5j]
)


def roots_of_unity(d):
    """Complex array [e(0/d), e(1/d), ..., e((d-1)/d)].

    Where d divides 12k (decided on integers, never by a float tolerance)
    e(k/d) is the twelfth root e((12k/d)/12), so orders 2 and 4 read out
    exactly and orders 3 and 6 have exact real parts; the rest is np.exp.
    """
    k = np.arange(d)
    roots = np.exp(2j * np.pi * k / d)
    exact = 12 * k % d == 0
    roots[exact] = _TWELFTH_ROOTS[12 * k[exact] // d]
    return roots


def contract(per_index, d):
    """sum_k per_index[k] * e(k/d) along axis 0, the one readout of per-index totals.

    For d = 2 this is the real difference per_index[0] - per_index[1],
    exact for integer totals; for d > 2 it is complex.  The real and
    imaginary parts are contracted separately, so the real tally is never
    copied to complex.
    """
    if d == 2:
        return per_index[0] - per_index[1]
    roots = roots_of_unity(d)
    out = np.empty(np.shape(per_index)[1:], dtype=complex)
    out.real = roots.real @ per_index
    out.imag = roots.imag @ per_index
    return out


class WeightSeq:
    """Real weights indexed by integers, with sup norm at most 1.

    Stored as a mapping index -> float; lookups are strict (an index the
    sequence does not cover raises KeyError).
    """

    def __init__(self, mapping):
        self._w = {int(i): float(v) for i, v in dict(mapping).items()}
        for i, v in self._w.items():
            if abs(v) > 1.0:
                raise WeightOutOfRange("weight at index %d is %g, sup norm bound is 1" % (i, v))

    @classmethod
    def ones(cls, indices):
        return cls({i: 1.0 for i in indices})

    @classmethod
    def signs(cls, indices, rng):
        """Random +-1 weights drawn from rng (a random.Random instance)."""
        return cls({i: float(rng.choice((-1, 1))) for i in indices})

    def __getitem__(self, i):
        return self._w[i]

    def __repr__(self):
        return "WeightSeq(%r)" % (self._w,)


def as_weights(alpha):
    if isinstance(alpha, WeightSeq):
        return alpha
    return WeightSeq(alpha)


class CharSumAccumulator:
    """Exact tally of character values: counts per index plus a zero tally."""

    __slots__ = ("d", "counts", "zero_terms")

    def __init__(self, d, counts=None, zero_terms=0):
        self.d = d
        self.counts = np.zeros(d, dtype=np.int64) if counts is None else np.asarray(counts, dtype=np.int64)
        self.zero_terms = int(zero_terms)

    def value(self):
        """Complex value sum_k counts[k] * e(k/d); exact integer real part for d=2."""
        return complex(contract(self.counts, self.d))

    def int_value(self):
        """Integer value, defined for order 2 only."""
        if self.d != 2:
            raise ValueError("int_value requires order 2")
        return int(self.counts[0]) - int(self.counts[1])

    def is_exactly_zero(self):
        """True when index pairing forces the value to vanish exactly.

        Pairs k with k + d/2 (values differ by sign), so equal counts in
        every pair give value 0 with no floating point involved.  Only a
        sufficient condition for d odd, where it requires all counts equal.
        """
        c = self.counts
        if self.d % 2 == 0:
            h = self.d // 2
            return bool(np.all(c[:h] == c[h:]))
        return bool(np.all(c == c[0]))

    def __eq__(self, other):
        if not isinstance(other, CharSumAccumulator):
            return NotImplemented
        return self.d == other.d and self.zero_terms == other.zero_terms and bool(np.all(self.counts == other.counts))

    def __repr__(self):
        return "CharSumAccumulator(d=%d, counts=%s, zero_terms=%d)" % (self.d, self.counts.tolist(), self.zero_terms)


class Character:
    """Character chi of order d mod p with chi(g) = e(power/d), gcd(power, d) = 1."""

    __slots__ = ("field", "d", "power", "_ktab")

    def __init__(self, field, d, power):
        self.field = field
        self.d = d
        self.power = power
        self._ktab = None

    def __repr__(self):
        return "Character(p=%d, d=%d, power=%d)" % (self.field.p, self.d, self.power)

    def index_table(self):
        """int32 array T with T[x] = index of chi(x), and T[0] = -1.

        p is held to the table cap first.  With B = ceil(sqrt(p-1)), about
        2 sqrt(p) pows give g^(iB) and g^j for j < B.  The walk g^k for
        k < p - 1 is taken in blocks of rows, about _WALK_BLOCK entries
        each: one outer product mod p (below p^2 < 2^62) per block, onto
        which the period-d pattern (k mod d) * power mod d is scattered.
        A block holds a multiple of d / gcd(B, d) rows, so it starts at
        k = 0 mod d and reads one pre-tiled slice of the pattern; a tile
        capped at p - 1 entries spans the walk, and any block reads its own
        slice.  Beyond the table, memory is one block of int64 walk, its
        int32 tile, one int64 period of the pattern and a bool per residue
        for the certificate: g is certified primitive by every unit getting
        written, else InternalInvariantViolation.
        """
        if self._ktab is None:
            p, g, d = self.field.p, self.field.g, self.d
            _check_table_size(p)
            n = p - 1
            B = math.isqrt(p - 2) + 1
            rows = [pow(g, i * B, p) for i in range(-(-n // B))]
            cols = np.array([pow(g, j, p) for j in range(B)], dtype=np.int64)
            period = d // math.gcd(B, d)  # rows per whole number of pattern periods
            step = max(1, _WALK_BLOCK // (B * period)) * period
            pattern = np.arange(d, dtype=np.int64)  # built in place: one int64 period, then int32
            pattern *= self.power
            pattern %= d
            pattern = pattern.astype(np.int32)
            tile = np.tile(pattern, min(step * B, n) // d)
            del pattern  # a one-period tile is a copy
            if tile.size == n:
                step = max(1, _WALK_BLOCK // B)
            tab = np.full(p, -1, dtype=np.int32)
            for lo in range(0, len(rows), step):
                walk = np.multiply.outer(np.array(rows[lo : lo + step], dtype=np.int64), cols)
                walk %= p
                size = min(walk.size, n - lo * B)
                k = lo * B % tile.size  # 0 unless the tile spans the whole walk
                tab[walk.ravel()[:size]] = tile[k : k + size]
            missed = int(np.count_nonzero(tab[1:] < 0))
            if missed:
                raise InternalInvariantViolation(
                    "index table certificate failed at p=%d: g=%d leaves %d units unwritten, so it is not primitive"
                    % (p, g, missed)
                )
            self._ktab = tab
        return self._ktab

    def tally(self, xs, weights=None):
        """(per-index totals, chi(0) total) of chi over the integers xs, each reduced mod p.

        Unweighted: int64 counts.  Weighted (an array shaped like xs):
        float sums of the weights, per index in element order.  Outside
        this module the index table is read only through this method.
        """
        ks = self.index_table()[np.asarray(xs, dtype=np.int64) % self.field.p]
        nz = ks >= 0
        if weights is None:
            return np.bincount(ks[nz], minlength=self.d), int(np.count_nonzero(~nz))
        w = np.asarray(weights)
        return np.bincount(ks[nz], weights=w[nz], minlength=self.d), float(w[~nz].sum())

    def eval(self, x):
        """CharValue of chi(x) for a residue 0 <= x < p, read from index_table()."""
        self.field._check_residue(x)
        k = int(self.index_table()[x])
        return CHAR_ZERO if k < 0 else CharValue(False, k)

    def minus_one_index(self):
        """Index of chi(-1); 0 for even characters, d/2 for odd ones."""
        # -1 = g^((p-1)/2), because g^((p-1)/2) is the unique element of order 2.
        return (self.field.p - 1) // 2 * self.power % self.d

    def is_odd(self):
        return self.minus_one_index() != 0


def make_character(F, d, power=1):
    """Character of exact order d mod F.p; BadOrder unless d | p-1, d >= 2.

    power selects among the phi(d) characters of order d (gcd(power, d)
    must be 1); power=1 is the normalized choice chi(g) = e(1/d).
    """
    d = int(d)
    if d < 2 or (F.p - 1) % d != 0:
        raise BadOrder("order %d invalid for p=%d (need d >= 2 and d | p-1)" % (d, F.p))
    power = int(power) % d
    if math.gcd(power, d) != 1:
        raise BadOrder("power %d shares a factor with order %d" % (power, d))
    return Character(F, d, power)


def pow_mod(xs, e, p):
    """int64 array of x^e mod p for each x in xs, e >= 0, by square-and-multiply; p < 2^31 keeps products below 2^62."""
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


def interval_sum(chi, M, N):
    """Exact accumulator of chi(n) for n in [M, M+N], arguments reduced mod p.

    M may be any integer (it is reduced mod p first).  N = 0 is allowed and
    gives the single term chi(M mod p).  N is held to the table cap.
    """
    if N < 0:
        raise ValidationError("interval length N must be >= 0, got %d" % N)
    _check_table_size(N, "N")
    counts, zero_terms = chi.tally(M % chi.field.p + np.arange(N + 1, dtype=np.int64))
    return CharSumAccumulator(chi.d, counts, zero_terms)


def check_shifts(D_set, p):
    """The shift set as a sorted list of distinct residues in [1, p-1]; nonempty."""
    ds = sorted(set(int(x) for x in D_set))
    if not ds:
        raise ValidationError("shift set D must be nonempty")
    for s in (ds[0], ds[-1]):
        if not 1 <= s <= p - 1:
            raise ValidationError("shifts must be residues in [1, p-1], got %d with p=%d" % (s, p))
    return ds


def shifted_sums(chi, lams, terms):
    """Contracted inner sums sum_{(s, w) in terms} w * chi(lam + s), one per lam in lams.

    lams=None asks for the full range lam = 1..p-1 without building it:
    chi(lam + s) then reads two contiguous slices of the one-hot rows
    (index table == j).  Weights are tallied per character index before
    the single contraction, shift by shift, each row adding w where
    chi(lam + s) has its index: the same addends in the same order as a
    scatter-add.  A +-1 weight adds or subtracts the bool row in place;
    any other weight adds w or a signed zero per cell.  The tally is int16
    when d = 2, every nonzero weight is +-1 and there are fewer than 2^15
    terms: each term adds to at most one row per lam, so a count and the
    contracted difference are at most len(terms) < 2^15 in absolute value
    and exact.  Otherwise it is float64, since at d > 2 an integer tally
    would be cast whole for the contraction; its sums of +-1 are exact
    integers too.
    """
    p, d = chi.field.p, chi.d
    ktab = chi.index_table()
    terms = [(s % p, w) for s, w in terms if w != 0.0]
    int_tally = d == 2 and len(terms) < 2**15 and all(abs(w) == 1.0 for _, w in terms)
    per_index = np.zeros((d, p - 1 if lams is None else len(lams)), dtype=np.int16 if int_tally else np.float64)
    hots = [ktab == j for j in range(d)] if lams is None else None
    for s, w in terms:
        if lams is None:
            # lam + s for lam = 1..p-1 runs through s+1..p-1, then wraps to 0..s-1
            cut = p - 1 - s
            for row, hot in zip(per_index, hots):
                _add_where(row[:cut], w, hot[s + 1 :])
                _add_where(row[cut:], w, hot[:s])
        else:
            idx = ktab[(lams + s) % p]
            for j, row in enumerate(per_index):
                _add_where(row, w, idx == j)
    return contract(per_index, d)


def _add_where(cell, w, mask):
    """cell += w where the bool mask is set: +-1 in place, any other w by a w-or-signed-zero row."""
    if abs(w) == 1.0:
        (np.add if w > 0 else np.subtract)(cell, mask, out=cell)
    else:
        cell += w * mask


def de_moment(chi, D_set, alpha, nu):
    """Shifted-product moment sum_{lam=1}^{p-1} |sum_{d in D} alpha_d chi(lam+d)|^(2 nu).

    The inner sums come from shifted_sums over the full range: an exact
    int16 tally for fewer than 2^15 +-1 weights at order 2, float64
    otherwise.  The readout squares them into one float64 row and applies
    the power in place.
    """
    alpha = as_weights(alpha)
    p = chi.field.p
    ds = check_shifts(D_set, p)
    nu = int(nu)
    if not 1 <= nu <= 6:
        raise ValidationError("moment index nu must be in [1, 6], got %d" % nu)
    inner = shifted_sums(chi, None, [(s, alpha[s]) for s in ds])
    mag2 = np.square(inner.real, dtype=np.float64)
    if np.iscomplexobj(inner):
        mag2 += np.square(inner.imag)
    mag2 **= nu
    return float(np.sum(mag2))
