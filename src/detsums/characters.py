"""Multiplicative characters mod p of order d, as exact root-of-unity indices.

A character value is either Zero (argument divisible by p) or an index
k in [0, d-1] standing for e(k/d) = exp(2*pi*i*k/d).  All sums are
tallied as integer counts per index and only converted to complex at
readout, so every identity that holds in exact arithmetic can be tested
exactly; order-2 sums never leave integer arithmetic.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import BadOrder, ValidationError, WeightOutOfRange


class CharValue(NamedTuple):
    zero: bool
    k: int


CHAR_ZERO = CharValue(True, 0)


def roots_of_unity(d):
    """Complex array [e(0/d), e(1/d), ..., e((d-1)/d)]; exact for d = 2."""
    if d == 2:
        return np.array([1.0 + 0.0j, -1.0 + 0.0j])
    return np.exp(2j * np.pi * np.arange(d) / d)


def contract(per_index, d):
    """sum_k per_index[k] * e(k/d) along axis 0, the one readout of per-index totals.

    For d = 2 this is the real difference per_index[0] - per_index[1],
    exact for integer totals; for d > 2 it is complex.
    """
    if d == 2:
        return per_index[0] - per_index[1]
    return roots_of_unity(d) @ per_index


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
    def from_values(cls, values, start=1):
        return cls({start + i: v for i, v in enumerate(values)})

    @classmethod
    def ones(cls, indices):
        return cls({i: 1.0 for i in indices})

    @classmethod
    def signs(cls, indices, rng):
        """Random +-1 weights drawn from rng (a random.Random instance)."""
        return cls({i: float(rng.choice((-1, 1))) for i in indices})

    def __getitem__(self, i):
        return self._w[i]

    def __len__(self):
        return len(self._w)

    def indices(self):
        return sorted(self._w)

    def items(self):
        return [(i, self._w[i]) for i in sorted(self._w)]

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

    def add(self, val):
        if val.zero:
            self.zero_terms += 1
        else:
            self.counts[val.k] += 1

    def merge(self, other):
        if other.d != self.d:
            raise ValueError("cannot merge accumulators of different order")
        self.counts += other.counts
        self.zero_terms += other.zero_terms
        return self

    def total_terms(self):
        return int(self.counts.sum()) + self.zero_terms

    def value(self):
        """Complex value sum_k counts[k] * e(k/d); exact integer real part for d=2."""
        return complex(contract(self.counts, self.d))

    def int_value(self):
        """Integer value, defined for order 2 only."""
        if self.d != 2:
            raise ValueError("int_value requires order 2")
        return int(self.counts[0]) - int(self.counts[1])

    def reversed_indices(self):
        """Accumulator of the conjugate character: counts[k] -> counts[-k mod d]."""
        rev = np.empty_like(self.counts)
        rev[0] = self.counts[0]
        rev[1:] = self.counts[:0:-1]
        return CharSumAccumulator(self.d, rev, self.zero_terms)

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
        """int32 array T with T[x] = index of chi(x), and T[0] = -1."""
        if self._ktab is None:
            tab = np.empty(self.field.p, dtype=np.int32)
            tab[0] = -1
            dl = self.field.dlog[1:].astype(np.int64)
            tab[1:] = (dl * self.power) % self.d
            self._ktab = tab
        return self._ktab

    def eval(self, x):
        """CharValue of chi(x) for a residue 0 <= x < p; O(1)."""
        if not 0 <= x < self.field.p:
            raise ValueError("residue out of range: %r" % (x,))
        if x == 0:
            return CHAR_ZERO
        k = int(self.field.dlog[x]) * self.power % self.d
        return CharValue(False, k)

    def minus_one_index(self):
        """Index of chi(-1); 0 for even characters, d/2 for odd ones."""
        # dlog(-1) = (p-1)/2 because g^((p-1)/2) is the unique element of order 2.
        return (self.field.p - 1) // 2 * self.power % self.d

    def is_odd(self):
        return self.minus_one_index() != 0

    def conjugate(self):
        return Character(self.field, self.d, (-self.power) % self.d)


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


def interval_sum(chi, M, N):
    """Exact accumulator of chi(n) for n in [M, M+N], arguments reduced mod p.

    N = 0 is allowed and gives the single term chi(M mod p).
    """
    if N < 0:
        raise ValidationError("interval length N must be >= 0, got %d" % N)
    p = chi.field.p
    ktab = chi.index_table()
    xs = np.arange(M, M + N + 1, dtype=np.int64) % p
    ks = ktab[xs]
    nz = ks >= 0
    counts = np.bincount(ks[nz], minlength=chi.d).astype(np.int64)
    return CharSumAccumulator(chi.d, counts, int(np.count_nonzero(~nz)))


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

    Weights are tallied per character index before the single contraction,
    so +-1 weights with order 2 stay in exact arithmetic.
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


def de_moment(chi, D_set, alpha, nu):
    """Shifted-product moment sum_{lam=1}^{p-1} |sum_{d in D} alpha_d chi(lam+d)|^(2 nu)."""
    alpha = as_weights(alpha)
    p = chi.field.p
    ds = check_shifts(D_set, p)
    nu = int(nu)
    if not 1 <= nu <= 6:
        raise ValidationError("moment index nu must be in [1, 6], got %d" % nu)
    inner = shifted_sums(chi, np.arange(1, p, dtype=np.int64), [(s, alpha[s]) for s in ds])
    mag2 = inner.real**2 + inner.imag**2
    return float(np.sum(mag2**nu))
