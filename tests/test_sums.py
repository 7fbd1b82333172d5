"""Determinant sums: profiles, direct/binned equality, ratio bins, t-sums."""

import itertools
import math
import random

import numpy as np
import pytest

from detsums import (
    DomainTooLarge,
    Overflow,
    WeightOutOfRange,
    WeightSeq,
    delta_profile,
    holder_chain,
    make_character,
    ratio_bins,
    s_sum_binned,
    s_sum_direct,
    t_abs_sum,
    t_abs_sum_direct,
    t_n_sum,
    u_sum,
    u_sum_direct,
)

from conftest import HIGH_ORDER_PAIRS, field


def quadruple_profile_oracle(N):
    counts = {}
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            for c in range(1, N + 1):
                for d in range(1, N + 1):
                    delta = a * d - b * c
                    counts[delta] = counts.get(delta, 0) + 1
    return counts


def test_delta_profile_n2_fixture():
    prof = delta_profile(2)
    oracle = quadruple_profile_oracle(2)
    assert prof.count(0) == oracle[0] == 6
    assert prof.count(3) == oracle[3] == 1
    assert prof.count(-3) == oracle[-3] == 1
    assert prof.total() == 16


def test_delta_profile_matches_bruteforce():
    for N in (1, 2, 3, 5, 8):
        prof = delta_profile(N)
        oracle = quadruple_profile_oracle(N)
        for delta in prof.deltas():
            assert prof.count(delta) == oracle.get(delta, 0)
        assert prof.count(N * N) == 0  # out of the profile's range entirely


def test_delta_profile_symmetry_and_mass():
    for N in (1, 2, 7, 20, 50):
        prof = delta_profile(N)
        assert prof.total() == N**4
        for delta in range(0, N * N):
            assert prof.count(delta) == prof.count(-delta)


def test_delta_profile_overflow():
    with pytest.raises(Overflow):
        delta_profile(60_000)


def test_s_sum_n1_is_zero_term():
    chi = make_character(field(7), 2)
    acc = s_sum_direct(chi, 1)
    assert acc.total_terms() == 1 and acc.zero_terms == 1


def test_s_sum_fixture_mod5():
    # Hand oracle over all 16 quadruples
    F = field(5)
    chi = make_character(F, 2)
    ref = 0
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                for d in (1, 2):
                    ref += F.legendre((a * d - b * c) % 5)
    assert ref == -2
    assert s_sum_direct(chi, 2).int_value() == -2
    assert s_sum_binned(chi, 2).int_value() == -2


def test_s_sum_odd_character_vanishes():
    for p in (7, 11, 19):  # all 3 mod 4, so the quadratic character is odd
        chi = make_character(field(p), 2)
        for N in (2, 4, 6):
            acc = s_sum_binned(chi, N)
            assert acc.int_value() == 0
            assert acc.is_exactly_zero()


def test_s_sum_binned_equals_direct(rng):
    def draw():
        p = rng.choice((5, 7, 13, 31, 61, 97))
        d = rng.choice((2, 3))
        if (p - 1) % d:
            d = 2
        return p, d

    for p, d in itertools.chain((draw() for _ in range(20)), HIGH_ORDER_PAIRS):
        chi = make_character(field(p), d)
        N = rng.randrange(1, min(13, p))
        assert s_sum_binned(chi, N) == s_sum_direct(chi, N)


def test_u_sum_zero_weights():
    chi = make_character(field(7), 2)
    zeros = WeightSeq({i: 0.0 for i in range(1, 4)})
    ones = WeightSeq.ones(range(1, 4))
    assert u_sum(chi, zeros, ones, 3) == 0


def test_u_sum_ones_specializes_to_s():
    for p, d, N in ((13, 2, 4), (13, 3, 5), (31, 2, 6)):
        chi = make_character(field(p), d)
        ones = WeightSeq.ones(range(1, N + 1))
        got = u_sum(chi, ones, ones, N)
        want = s_sum_direct(chi, N).value()
        assert abs(got - want) < 1e-9


def test_u_sum_fixture_mod5():
    chi = make_character(field(5), 2)
    alpha = WeightSeq.from_values([1.0, -1.0])
    ones = WeightSeq.ones((1, 2))
    got = u_sum(chi, alpha, ones, 2)
    # direct weighted quadruple loop
    F = field(5)
    ref = 0.0
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                for d in (1, 2):
                    ref += alpha[a] * F.legendre((a * d - b * c) % 5)
    assert got == complex(ref, 0.0)
    assert u_sum_direct(chi, alpha, ones, 2) == got


def test_u_sum_binned_equals_direct_signs(rng):
    def draw():
        p = rng.choice((11, 13, 31))
        return p, 3 if p % 3 == 1 and rng.random() < 0.5 else 2

    for p, d in itertools.chain((draw() for _ in range(15)), HIGH_ORDER_PAIRS):
        chi = make_character(field(p), d)
        N = rng.randrange(1, 9)
        alpha = WeightSeq.signs(range(1, N + 1), rng)
        beta = WeightSeq.signs(range(1, N + 1), rng)
        assert u_sum(chi, alpha, beta, N) == u_sum_direct(chi, alpha, beta, N)


def test_u_sum_conjugate_symmetry(rng):
    chi = make_character(field(13), 3)
    alpha = WeightSeq.signs(range(1, 6), rng)
    beta = WeightSeq.signs(range(1, 6), rng)
    a = u_sum(chi, alpha, beta, 5)
    b = u_sum(chi.conjugate(), alpha, beta, 5)
    assert abs(a - b.conjugate()) < 1e-9


def test_u_sum_weight_validation():
    chi = make_character(field(7), 2)
    with pytest.raises(WeightOutOfRange):
        u_sum(chi, {1: 2.0, 2: 0.0}, {1: 1.0, 2: 1.0}, 2)


def test_ratio_bins_trivial():
    table = ratio_bins(field(7), 1, 1, 1)
    assert table.count(1) == 1
    assert table.total() == 1


def test_ratio_bins_eight_triples():
    table = ratio_bins(field(7), 2, 2, 2)
    # I(1) counts ab = c: (1,1,1), (1,2,2), (2,1,2)
    assert table.count(1) == 3
    assert table.total() == 8


def test_ratio_bins_strategies_agree(rng):
    for _ in range(25):
        p = rng.choice((7, 11, 31, 97))
        A, B, C = (rng.randrange(1, p) for _ in range(3))
        direct = ratio_bins(field(p), A, B, C, strategy="direct")
        table = ratio_bins(field(p), A, B, C, strategy="table")
        auto = ratio_bins(field(p), A, B, C)
        assert np.array_equal(direct.counts, table.counts)
        assert np.array_equal(direct.counts, auto.counts)
        assert direct.total() == A * B * C
        assert direct.count(0) == 0


def test_ratio_bins_oracle():
    p = 11
    F = field(p)
    A, B, C = 3, 4, 5
    ref = [0] * p
    for a in range(1, A + 1):
        for b in range(1, B + 1):
            for c in range(1, C + 1):
                ref[a * b * F.inv(c) % p] += 1
    got = ratio_bins(F, A, B, C)
    assert got.counts.tolist() == ref


def test_t_abs_zero_weights():
    chi = make_character(field(11), 2)
    assert t_abs_sum(chi, 2, 2, 2, {1, 2}, {1: 0.0, 2: 0.0}) == 0.0


def test_t_abs_single_shift_identity():
    for p, (A, B, C), d0 in ((11, (2, 2, 2), 1), (31, (3, 2, 4), 7)):
        chi = make_character(field(p), 2)
        got = t_abs_sum(chi, A, B, C, {d0}, {d0: 1.0})
        table = ratio_bins(field(p), A, B, C)
        assert got == A * B * C - table.count(d0)


def test_t_abs_binned_equals_direct(rng):
    def draw():
        p = rng.choice((11, 31, 61, 97))
        return p, 3 if (p - 1) % 3 == 0 and rng.random() < 0.5 else 2

    for p, d in itertools.chain((draw() for _ in range(15)), HIGH_ORDER_PAIRS):
        chi = make_character(field(p), d)
        while True:
            A, B, C = (rng.randrange(1, 8) for _ in range(3))
            if A * B * C < p:
                break
        shifts = sorted(rng.sample(range(1, p), rng.randrange(1, 6)))
        alpha = WeightSeq.signs(shifts, rng)
        lhs = t_abs_sum(chi, A, B, C, shifts, alpha)
        rhs = t_abs_sum_direct(chi, A, B, C, shifts, alpha)
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


def test_t_abs_domain_guard():
    chi = make_character(field(11), 2)
    with pytest.raises(DomainTooLarge):
        t_abs_sum(chi, 3, 2, 2, {1}, {1: 1.0})  # 12 >= 11


def test_t_n_small():
    chi = make_character(field(11), 2)
    assert t_n_sum(chi, 1) == 0.0  # |chi(1*1 - 1*1)| = |chi(0)| = 0
    chi97 = make_character(field(97), 2)
    for N in (2, 3, 4):
        got = t_n_sum(chi97, N)
        ones = {i: 1.0 for i in range(1, N + 1)}
        ref = t_abs_sum_direct(chi97, N, N, N, range(1, N + 1), ones)
        assert math.isclose(got, ref, rel_tol=1e-9)
        assert got <= N**4


def test_holder_chain_bound(rng):
    for _ in range(10):
        p = rng.choice((31, 61, 97))
        chi = make_character(field(p), 2)
        while True:
            A, B, C = (rng.randrange(1, 6) for _ in range(3))
            if A * B * C < p:
                break
        shifts = sorted(rng.sample(range(1, p), 4))
        alpha = WeightSeq.signs(shifts, rng)
        for nu in (1, 2):
            hc = holder_chain(chi, A, B, C, shifts, alpha, nu)
            assert hc.lhs <= hc.sigma1 * hc.sigma2 * hc.sigma3 * (1 + 1e-9)
