"""Character evaluation, interval sums, accumulators, moment sums."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from detsums import (
    BadOrder,
    WeightOutOfRange,
    WeightSeq,
    de_moment,
    interval_sum,
    make_character,
)
from detsums.characters import CHAR_ZERO, CharSumAccumulator, roots_of_unity

from conftest import HIGH_ORDER_PAIRS, field


def test_make_character_order_three():
    chi = make_character(field(7), 3)
    g = chi.field.g
    assert chi.eval(g).k == 1  # chi(g) = e(1/3), not 1
    assert chi.eval(g * g % 7).k == 2
    assert chi.eval(pow(g, 3, 7)).k == 0  # chi(g)^3 = 1: exact order 3


def test_make_character_bad_order():
    with pytest.raises(BadOrder):
        make_character(field(7), 4)
    with pytest.raises(BadOrder):
        make_character(field(7), 1)
    with pytest.raises(BadOrder):
        make_character(field(7), 6, power=2)  # gcd(2,6) > 1 drops the order


def test_order_two_is_legendre():
    for p in (5, 13):
        F = field(p)
        chi = make_character(F, 2)
        for x in range(p):
            v = chi.eval(x)
            if x == 0:
                assert v.zero
            else:
                assert (1 if v.k == 0 else -1) == F.legendre(x)


def test_eval_examples():
    chi = make_character(field(5), 2)
    assert chi.eval(1) == (False, 0)
    assert chi.eval(2).k == 1  # 2 is a non-residue mod 5
    assert chi.eval(0) == CHAR_ZERO


def test_index_is_multiplicative():
    chi = make_character(field(13), 4)
    for x in range(1, 13):
        for y in range(1, 13):
            kxy = chi.eval(x * y % 13).k
            assert kxy == (chi.eval(x).k + chi.eval(y).k) % 4


def test_minus_one_index():
    # p = 3 mod 4: Legendre is odd; p = 1 mod 4: even
    assert make_character(field(7), 2).is_odd()
    assert not make_character(field(13), 2).is_odd()
    chi3 = make_character(field(13), 3)
    assert chi3.eval(12).k == chi3.minus_one_index()


def test_interval_sum_full_period():
    for p, d in ((11, 2), (7, 3), (13, 4)):
        chi = make_character(field(p), d)
        acc = interval_sum(chi, 1, p - 1)
        if d == 2:
            assert acc.int_value() == 0
        else:
            assert abs(acc.value()) < 1e-9
        assert acc.zero_terms == 1  # the residue 0 shows up once per period


def test_interval_sum_legendre_mod7():
    chi = make_character(field(7), 2)
    acc = interval_sum(chi, 1, 2)  # chi(1) + chi(2) + chi(3)
    assert acc.int_value() == 1


def test_interval_sum_single_term():
    chi = make_character(field(7), 2)
    acc = interval_sum(chi, 0, 0)
    assert acc.total_terms() == 1 and acc.zero_terms == 1
    acc = interval_sum(chi, 10, 0)  # 10 mod 7 = 3, a non-residue
    assert acc.int_value() == -1


def test_interval_sum_matches_scalar_eval(rng):
    for _ in range(25):
        p, d = rng.choice(((11, 2), (13, 3), (17, 4), (31, 5)))
        chi = make_character(field(p), d)
        M = rng.randrange(-50, 50)
        N = rng.randrange(0, 120)
        acc = interval_sum(chi, M, N)
        ref = CharSumAccumulator(d)
        for n in range(M, M + N + 1):
            ref.add(chi.eval(n % p))
        assert acc == ref


def test_conjugate_reverses_indices(rng):
    for p, d in ((13, 3), (17, 4), (31, 6)):
        chi = make_character(field(p), d)
        bar = chi.conjugate()
        M, N = rng.randrange(-20, 20), rng.randrange(1, 80)
        assert interval_sum(bar, M, N) == interval_sum(chi, M, N).reversed_indices()


def test_accumulator_value_and_merge():
    acc = CharSumAccumulator(3, [2, 1, 1], 4)
    w = cmath.exp(2j * math.pi / 3)
    assert abs(acc.value() - (2 + w + w * w)) < 1e-12
    other = CharSumAccumulator(3, [1, 0, 2], 1)
    acc.merge(other)
    assert acc.counts.tolist() == [3, 1, 3] and acc.zero_terms == 5
    with pytest.raises(ValueError):
        acc.merge(CharSumAccumulator(2))
    with pytest.raises(ValueError):
        acc.int_value()


def test_exact_zero_detection():
    assert CharSumAccumulator(2, [5, 5], 3).is_exactly_zero()
    assert not CharSumAccumulator(2, [5, 4], 0).is_exactly_zero()
    assert CharSumAccumulator(4, [2, 7, 2, 7], 0).is_exactly_zero()


def test_weightseq_validation():
    with pytest.raises(WeightOutOfRange):
        WeightSeq({1: 1.5})
    w = WeightSeq.from_values([1.0, -1.0, 0.25])
    assert w[1] == 1.0 and w[3] == 0.25
    assert WeightSeq.ones([2, 5]).items() == [(2, 1.0), (5, 1.0)]


def test_de_moment_zero_weights():
    chi = make_character(field(11), 2)
    assert de_moment(chi, {1, 2}, {1: 0.0, 2: 0.0}, 2) == 0.0


def test_de_moment_single_unit_shift():
    # |chi(lam + 1)| = 1 except at lam = p - 1, for any nu
    for p in (11, 13):
        chi = make_character(field(p), 2)
        for nu in (1, 2, 3):
            assert de_moment(chi, {1}, {1: 1.0}, nu) == p - 2


def test_de_moment_bound_example():
    chi = make_character(field(101), 2)
    V = de_moment(chi, range(1, 11), {i: 1.0 for i in range(1, 11)}, 2)
    assert V <= (2 * 2 * 10) ** 2 * 101 + 2 * 2 * 10**4 * math.sqrt(101)


def test_de_moment_matches_naive(rng):
    draws = (rng.choice(((11, 2), (13, 2), (13, 3), (31, 3))) for _ in range(15))
    for p, d in itertools.chain(draws, HIGH_ORDER_PAIRS):
        chi = make_character(field(p), d)
        shifts = sorted(rng.sample(range(1, p), rng.randrange(1, 6)))
        alpha = {s: rng.choice((-1.0, 1.0, 0.5)) for s in shifts}
        nu = rng.randrange(1, 4)
        roots = roots_of_unity(d)
        naive = 0.0
        for lam in range(1, p):
            inner = 0.0 + 0.0j
            for s in shifts:
                v = chi.eval((lam + s) % p)
                if not v.zero:
                    inner += alpha[s] * roots[v.k]
            naive += abs(inner) ** (2 * nu)
        got = de_moment(chi, shifts, alpha, nu)
        assert math.isclose(got, naive, rel_tol=1e-9, abs_tol=1e-9)


def test_de_moment_weight_validation():
    chi = make_character(field(11), 2)
    with pytest.raises(WeightOutOfRange):
        de_moment(chi, {1}, {1: 2.0}, 1)
    with pytest.raises(ValueError):
        de_moment(chi, set(), {}, 1)
    with pytest.raises(ValueError):
        de_moment(chi, {1}, {1: 1.0}, 7)
