"""Multiplicative characters mod p of order d, as exact root-of-unity indices.

A character value is 0 (argument divisible by p, marked -1 in an index
table) or an index k in [0, d-1] standing for e(k/d) = exp(2*pi*i*k/d).
All sums are tallied as integer counts per index and only converted to
complex at readout, so every identity that holds in exact arithmetic can
be tested exactly; order-2 sums never leave integer arithmetic.  An
index table holds one entry per residue in the narrowest signed type for
-1..d-1: one byte for d <= 128, two up to 32768, four above.
"""

import math

import numpy as np

from .errors import BadOrder, InternalInvariantViolation, ValidationError, WeightOutOfRange
from .fp_arith import _check_hard_cap, _check_table_size


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
    copied to complex.  For even d, index k + d/2 stands for -e(k/d), so
    the tally is first folded to the d/2 differences per_index[k] -
    per_index[k + d/2], exact for integer tallies: a tally equal across
    those pairs (an odd character's, `CharSumAccumulator.is_exactly_zero`)
    reads out as 0 exactly.  Each part multiplies the (folded) tally by
    its coordinates and adds the products in increasing k (`_sum_rows`),
    never paired or blocked as a matrix product or `np.sum` may: a column
    reads out the same bits however many columns the tally holds.  O(d n)
    work; the fold and the products are each one d/2 x n (odd d: d x n)
    float64 buffer.
    """
    if d == 2:
        return per_index[0] - per_index[1]
    roots = roots_of_unity(d)
    if d % 2 == 0:
        per_index = per_index[: d // 2] - per_index[d // 2 :]
        roots = roots[: d // 2]
    coords = (len(roots),) + (1,) * (np.ndim(per_index) - 1)  # a coordinate per row, broadcast along the columns
    out = np.empty(np.shape(per_index)[1:], dtype=complex)
    terms = np.empty(np.shape(per_index))
    for part, roots_part in ((out.real, roots.real), (out.imag, roots.imag)):
        part[...] = _sum_rows(np.multiply(roots_part.reshape(coords), per_index, out=terms))
    return out


def _sum_rows(terms):
    """terms[0] + terms[1] + ... along axis 0, added in that order in every column; terms is overwritten.

    The same adds either way, picked by shape: with fewer columns than
    rows (one, for a 1-D array) `np.add.accumulate` makes one strided pass
    per column in C; otherwise the rows are added into terms[0], one
    Python step per row.
    """
    if terms.ndim == 1 or len(terms) > terms.shape[1]:
        return np.add.accumulate(terms, axis=0, out=terms)[-1]
    for row in terms[1:]:
        terms[0] += row
    return terms[0]


class WeightSeq:
    """Real weights indexed by integers, with sup norm at most 1.

    Stored as a mapping index -> float; lookups are strict (an index the
    sequence does not cover raises KeyError).
    """

    def __init__(self, mapping):
        self._w = {int(i): float(v) for i, v in dict(mapping).items()}
        for i, v in self._w.items():
            if not abs(v) <= 1.0:  # NaN fails every comparison, so it is rejected too
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
            raise ValidationError("int_value requires order 2")
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
        """Array T with T[x] = index of chi(x), and T[0] = -1, of dtype np.min_scalar_type(-d).

        That is int8 for d <= 128, int16 up to d = 32768 and int32 above,
        so at order 2 the table is one byte per residue.

        p is held to the table cap first.  With B = ceil(sqrt(p-1)), about
        2 sqrt(p) pows give g^(iB) and g^j for j < B.  The walk g^k for
        k < p - 1 is taken in blocks of rows, about _WALK_BLOCK entries
        each: one outer product mod p (below p^2 < 2^62) per block, onto
        which the period-d pattern (k mod d) * power mod d is scattered.
        The pattern is tiled to the whole periods that cover one block plus
        d - 1 entries, at most p - 1, and the block starting at k reads the
        slice at k mod d.  Beyond the table, memory is one block of int64
        walk, the tile in the table's dtype and one int64 period of the
        pattern.  g is certified primitive by every unit getting written,
        read as the minimum of tab[1:] with no p-length mask, else
        InternalInvariantViolation (the missed units are counted only then).
        """
        if self._ktab is None:
            p, g, d = self.field.p, self.field.g, self.d
            _check_table_size(p)
            n = p - 1
            B = math.isqrt(p - 2) + 1
            rows = [pow(g, i * B, p) for i in range(-(-n // B))]
            cols = np.array([pow(g, j, p) for j in range(B)], dtype=np.int64)
            step = max(1, _WALK_BLOCK // B)
            dtype = np.min_scalar_type(-d)  # the narrowest signed type holding -1..d-1
            pattern = np.arange(d, dtype=np.int64)  # built in place: one int64 period, then the table's dtype
            pattern *= self.power
            pattern %= d
            pattern = pattern.astype(dtype)
            tile = np.tile(pattern, -(-min(step * B + d - 1, n) // d))
            del pattern  # a one-period tile is a copy
            tab = np.full(p, -1, dtype=dtype)
            for lo in range(0, len(rows), step):
                walk = np.multiply.outer(np.array(rows[lo : lo + step], dtype=np.int64), cols)
                walk %= p
                size = min(walk.size, n - lo * B)
                k = lo * B % d  # k <= lo * B, so the slice stays inside a tile of n entries too
                tab[walk.ravel()[:size]] = tile[k : k + size]
            if tab[1:].min() < 0:
                missed = int(np.count_nonzero(tab[1:] < 0))
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
    """Contracted inner sums sum_{(s, w) in terms} w * chi(lam + s), one per lam in the array lams.

    Weights are tallied per character index before the single contraction,
    shift by shift, each index adding w where chi(lam + s) has it: the same
    addends in the same order as a scatter-add.  A +-1 weight adds or
    subtracts the bool mask in place; any other weight adds w or a signed
    zero per cell.  The tally is int16 when d = 2, every nonzero weight is
    +-1 and there are fewer than 2^15 terms: each term adds to at most one
    row per lam, so a count and the contracted difference are at most
    len(terms) < 2^15 in absolute value and exact.  Otherwise it is
    float64, since at d > 2 an integer tally would be cast whole for the
    contraction; its sums of +-1 are exact integers too.  The tally's
    d*len(lams) cells, and its bytes, are held to the hard cap 2^31 before
    anything is allocated.
    """
    p = chi.field.p
    return _tally(chi, len(lams), terms, lambda ktab, s: ktab[(lams + s) % p])


def shifted_sum_blocks(chi, terms):
    """shifted_sums over the full range lam = 1..p-1, as consecutive blocks of _WALK_BLOCK lams (the last one fewer).

    A block reads chi(lam + s) as one slice of the index table, joined to
    its start where lam + s wraps past p to 0, so no p-length array is
    built: memory is one block of d tally rows.  `contract` reads each
    column out on its own, in a fixed order, so the blocks join into the
    full-range row bit for bit at every order.
    """
    p = chi.field.p
    for lo in range(1, p, _WALK_BLOCK):
        n = min(_WALK_BLOCK, p - lo)
        yield _tally(chi, n, terms, lambda ktab, s: _wrapped(ktab, (lo + s) % p, n))


def _tally(chi, n, terms, indices):
    """The contracted per-index tally of n cells, the one tally of the shifted sums.

    indices(ktab, s) reads the index table ktab at lam + s over the n
    cells.  The tally's d*n cells, then its bytes, are held to the hard
    cap before the index table or the tally is built.
    """
    p, d = chi.field.p, chi.d
    _check_hard_cap(d * n, "tally size at d=%d, p=%d: d*n" % (d, p))
    terms = [(s % p, w) for s, w in terms if w != 0.0]
    int_tally = d == 2 and len(terms) < 2**15 and all(abs(w) == 1.0 for _, w in terms)
    dtype = np.dtype(np.int16 if int_tally else np.float64)
    _check_hard_cap(dtype.itemsize * d * n, "tally bytes at d=%d, p=%d: %d*d*n" % (d, p, dtype.itemsize))
    ktab = chi.index_table()
    per_index = np.zeros((d, n), dtype=dtype)
    for s, w in terms:
        idx = indices(ktab, s)
        for j, row in enumerate(per_index):
            _add_where(row, w, idx == j)
    return contract(per_index, d)


def _wrapped(table, start, n):
    """table[start], table[start + 1], ..., n entries wrapping past the end to table[0]."""
    return np.concatenate((table[start : start + n], table[: max(0, start + n - len(table))]))


def _add_where(cell, w, mask):
    """cell += w where the bool mask is set: +-1 in place, any other w by a w-or-signed-zero row."""
    if abs(w) == 1.0:
        (np.add if w > 0 else np.subtract)(cell, mask, out=cell)
    else:
        cell += w * mask


def de_moment(chi, D_set, alpha, nu):
    """Shifted-product moment sum_{lam=1}^{p-1} |sum_{d in D} alpha_d chi(lam+d)|^(2 nu).

    The inner sums come from shifted_sum_blocks, an exact int16 tally for
    fewer than 2^15 +-1 weights at order 2, float64 otherwise.  Each block
    is squared, powered and summed as it comes, so memory is one block of
    d tally rows and its float64 readout.  With +-1 weights at orders 2
    and 4 every term is an integer, and while the moment stays below 2^53
    every partial sum is exact, so the moment is bit-identical however the
    range is blocked.  Orders 3 and 6, and weights other than +-1, read out
    in floating point: every term is nonnegative, and the moment is within
    a relative 1e-12 of the sum of |inner|^(2 nu) taken term by term.
    """
    alpha = as_weights(alpha)
    p = chi.field.p
    ds = check_shifts(D_set, p)
    nu = int(nu)
    if not 1 <= nu <= 6:
        raise ValidationError("moment index nu must be in [1, 6], got %d" % nu)
    total = 0.0
    for inner in shifted_sum_blocks(chi, [(s, alpha[s]) for s in ds]):
        mag2 = np.square(inner.real, dtype=np.float64)
        if np.iscomplexobj(inner):
            mag2 += np.square(inner.imag)
        mag2 **= nu
        total += float(np.sum(mag2))
    return total
