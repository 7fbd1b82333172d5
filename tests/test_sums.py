"""Determinant sums: profiles, direct/binned equality, ratio bins, t-sums."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detsums import (
    CharSumAccumulator,
    DomainTooLarge,
    InternalInvariantViolation,
    Overflow,
    TooLarge,
    ValidationError,
    WeightOutOfRange,
    WeightSeq,
    de_moment,
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
from detsums import cli, sums
from detsums.fp_arith import is_prime
from detsums.sums import _correlation, _fft_length, _products

from conftest import HIGH_ORDER_PAIRS, correlation_by_convolution, field, ratio_bins_oracle


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
        for delta in range(1 - N * N, N * N):
            assert prof.count(delta) == oracle.get(delta, 0)
        assert prof.count(N * N) == 0  # out of the profile's range entirely


def test_delta_profile_symmetry_and_mass():
    for N in (1, 2, 7, 20, 50):
        prof = delta_profile(N)
        assert prof.total() == N**4
        for delta in range(0, N * N):
            assert prof.count(delta) == prof.count(-delta)


def test_delta_profile_overflow(monkeypatch):
    with pytest.raises(Overflow):
        delta_profile(60_000)
    # N^4 >= 2^53 at N = 10^4: the binned sums refuse before any convolution starts
    chi = make_character(field(100_003), 2)
    ones = WeightSeq.ones(range(1, 10_001))
    monkeypatch.setattr(np, "convolve", None)
    with pytest.raises(Overflow):
        s_sum_binned(chi, 10_000)
    with pytest.raises(Overflow):
        u_sum(chi, ones, ones, 10_000)


def test_correlation_guard_before_fft(monkeypatch):
    # the N^4 < 2^53 guard fires before any product bin or transform is built
    chi = make_character(field(100_003), 2)
    ones = WeightSeq.ones(range(1, 10_001))
    monkeypatch.setattr(np.fft, "rfft", None)
    monkeypatch.setattr(sums, "_products", None)
    with pytest.raises(Overflow):
        delta_profile(10_000)
    with pytest.raises(Overflow):
        s_sum_binned(chi, 10_000)
    with pytest.raises(Overflow):
        u_sum(chi, ones, ones, 10_000)


def test_binned_sums_refuse_before_allocating():
    # N^4 >= 2^53 at N = 10^4: Overflow before the correlation or the 2N^2 - 1 lags (1.6 GB) exist
    chi = make_character(field(100_003), 2)
    ones = WeightSeq.ones(range(1, 10_001))
    for call in (lambda: s_sum_binned(chi, 10_000), lambda: u_sum(chi, ones, ones, 10_000)):
        tracemalloc.start()
        try:
            with pytest.raises(Overflow):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_delta_profile_large_mass_and_symmetry():
    for N in (400, 1000):
        prof = delta_profile(N)
        assert prof.total() == N**4
        assert np.array_equal(prof.counts, prof.counts[::-1])


@given(st.integers(1, 40), st.data())
def test_correlation_matches_convolution_property(N, data):
    def draw(elements):
        return np.array(data.draw(st.lists(elements, min_size=N, max_size=N)), dtype=np.float64)

    integral = st.sampled_from((-1.0, 0.0, 1.0))
    wa, wb = draw(integral), draw(integral)
    assert np.array_equal(_correlation(wa, wb), correlation_by_convolution(wa, wb))
    assert np.array_equal(_correlation(wa, wa), correlation_by_convolution(wa, wa))  # symmetry certificate path
    real = st.floats(-1.0, 1.0)
    wa, wb = draw(real), draw(real)
    assert np.max(np.abs(_correlation(wa, wb) - correlation_by_convolution(wa, wb))) <= 1e-9


def _is_5_smooth(n):
    for q in (2, 3, 5):
        while n % q == 0:
            n //= q
    return n == 1


def test_fft_length_is_least_5_smooth():
    smooth = [n for n in range(1, 6001) if _is_5_smooth(n)]
    for m in range(1, 5001):
        assert _fft_length(m) == next(n for n in smooth if n >= m)
    # every 2^a 3^b 5^c up to 2^26 covers the lag counts 2N^2 - 1 at N = 2000, 3000, 4000
    big = sorted(n for n in (2**a * 3**b * 5**c for a in range(27) for b in range(17) for c in range(12)) if n <= 2**26)
    for N, n in ((2000, 8_000_000), (3000, 18_000_000), (4000, 32_000_000)):
        m = 2 * N * N - 1
        assert _fft_length(m) == next(k for k in big if k >= m) == n


@pytest.mark.parametrize("N, n, pow2", [(41, 3375, 4096), (46, 4320, 8192), (57, 6561, 8192), (71, 10125, 16384)])
def test_correlation_at_smooth_lengths_matches_convolution(N, n, pow2):
    """At N where the 5-smooth length is far from the next power of two, the cyclic correlation
    still matches the O(N^4) convolution: exactly for unit and {-1, 0, 1} weights, within
    1e-9 for float weights, with one transform (wa == wb) and with two."""
    assert (_fft_length(2 * N * N - 1), 1 << (2 * N * N - 2).bit_length()) == (n, pow2)
    rng = np.random.default_rng(N)
    signs = [rng.integers(-1, 2, N).astype(np.float64) for _ in range(2)]
    floats = [rng.uniform(-1.0, 1.0, N) for _ in range(2)]
    for wa, wb in ((np.ones(N), np.ones(N)), (signs[0], signs[0]), tuple(signs)):
        assert np.array_equal(_correlation(wa, wb), correlation_by_convolution(wa, wb))
    for wa, wb in ((floats[0], floats[0]), tuple(floats)):
        assert np.max(np.abs(_correlation(wa, wb) - correlation_by_convolution(wa, wb))) <= 1e-9


def test_delta_profile_peak_memory():
    """At N = 1000 the 5-smooth length is n = 2 * 10^6, and one transform serves both sides:
    about 2n float64 entries at peak, near 32 MiB."""
    delta_profile(50)
    tracemalloc.start()
    try:
        delta_profile(1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 44 * 2**20


def bump_irfft(monkeypatch, bumps):
    """Make np.fft.irfft add bumps[i] to entry i of its result."""
    real_irfft = np.fft.irfft

    def bumped(*args, **kwargs):
        out = real_irfft(*args, **kwargs)
        for i, b in bumps.items():
            out[i] += b
        return out

    monkeypatch.setattr(np.fft, "irfft", bumped)


def test_correlation_residual_certificate(monkeypatch, capsys):
    bump_irfft(monkeypatch, {0: 0.4})
    with pytest.raises(InternalInvariantViolation, match="residual.*0.4"):
        delta_profile(5)
    signs = np.array([1.0, -1.0, 0.0, 1.0])
    with pytest.raises(InternalInvariantViolation, match="residual"):
        _correlation(signs, signs[::-1].copy())
    assert cli.main(["scan", "--kind", "delta_profile", "--n-grid", "5"]) == 3
    assert capsys.readouterr().err.startswith("internal invariant violation: correlation residual")


def test_correlation_mass_certificate(monkeypatch):
    bump_irfft(monkeypatch, {0: 1.0})  # still integral, so only the mass is off
    with pytest.raises(InternalInvariantViolation, match="mass.*off by 1"):
        delta_profile(5)
    with pytest.raises(InternalInvariantViolation, match="mass"):
        _correlation(np.full(5, 0.5), np.full(5, -0.25))  # general weights: float mass


def test_correlation_symmetry_certificate(monkeypatch):
    bump_irfft(monkeypatch, {0: 1.0, 1: -1.0})  # integral, same mass, no longer symmetric
    with pytest.raises(InternalInvariantViolation, match="symmetry"):
        delta_profile(5)


# S(N, chi) at p = 10009 as the O(N^4) convolution route computed it, order 2
# (an integer) and order 4 (a Gaussian integer); the order-4 scan is exact too.
PINNED_S_10009 = {
    50: (461338, 5046 + 6316j),
    100: (1921572, -10790 - 2218j),
    150: (3774722, 217072 + 148766j),
    200: (5511800, 192570 + 85914j),
}


def test_s_sum_pinned_p10009():
    chi2 = make_character(field(10009), 2)
    chi4 = make_character(field(10009), 4)
    for N, (s2, s4) in PINNED_S_10009.items():
        acc2 = s_sum_binned(chi2, N)
        acc4 = s_sum_binned(chi4, N)
        assert acc2.int_value() == s2
        assert acc4.value() == s4
        # chi_4^2 = chi_2: the order-4 tallies fold onto the order-2 value
        c = acc4.counts
        assert int(c[0] - c[1] + c[2] - c[3]) == s2 and acc4.zero_terms == acc2.zero_terms


def test_s_sum_n1_is_zero_term():
    chi = make_character(field(7), 2)
    assert s_sum_direct(chi, 1) == CharSumAccumulator(2, [0, 0], 1)


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


PROPERTY_PRIMES = tuple(q for q in range(5, 200) if is_prime(q))


@st.composite
def field_order_length(draw):
    """(p, d, N): an odd prime, an order in {2, 3, 4, 6} dividing p - 1, and 1 <= N <= 12."""
    p = draw(st.sampled_from(PROPERTY_PRIMES))
    d = draw(st.sampled_from([d for d in (2, 3, 4, 6) if (p - 1) % d == 0]))
    return p, d, draw(st.integers(1, min(12, p - 1)))


@given(field_order_length(), st.data())
def test_binned_equals_direct_property(pdn, data):
    p, d, N = pdn
    chi = make_character(field(p), d)
    assert s_sum_binned(chi, N) == s_sum_direct(chi, N)
    signs = st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=N, max_size=N)
    alpha = WeightSeq(enumerate(data.draw(signs), 1))
    beta = WeightSeq(enumerate(data.draw(signs), 1))
    assert u_sum(chi, alpha, beta, N) == u_sum_direct(chi, alpha, beta, N)


@pytest.mark.parametrize("p, d, odd", [(103, 2, True), (37, 4, True), (37, 6, False)])
def test_s_sum_binned_equals_direct_past_p(p, d, odd):
    """N^2 > p puts the lags +-p and +-2p in the profile: the half-range tally folds them into
    the zero tally twice and the negative lags in by chi(-1), for odd and even characters."""
    for power in (q for q in range(1, d) if math.gcd(q, d) == 1):
        chi = make_character(field(p), d, power)
        assert chi.is_odd() == odd
        for N in range(1, 13):
            assert s_sum_binned(chi, N) == s_sum_direct(chi, N)


def test_s_sum_binned_peak_memory():
    """On a built table, s_sum_binned(chi, 200) at p = 10009 holds the profile (n = 80,000
    transform points) and tallies only the lags Delta >= 0: near 2 MiB."""
    chi = make_character(field(10009), 2)
    chi.index_table()
    s_sum_binned(chi, 20)
    tracemalloc.start()
    try:
        s_sum_binned(chi, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


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
    alpha = WeightSeq({1: 1.0, 2: -1.0})
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
    b = u_sum(make_character(field(13), 3, -1), alpha, beta, 5)
    assert abs(a - b.conjugate()) < 1e-9


def test_u_sum_weight_validation():
    chi = make_character(field(7), 2)
    with pytest.raises(WeightOutOfRange):
        u_sum(chi, {1: 2.0, 2: 0.0}, {1: 1.0, 2: 1.0}, 2)


def test_nan_weight_out_of_range():
    """A NaN weight fails the sup-norm check (NaN <= 1 is false) wherever weights enter, so no sum
    returns nan and u_sum's mass certificate never blames the program for it."""
    nan = float("nan")
    chi = make_character(field(31), 2)
    with pytest.raises(WeightOutOfRange):
        WeightSeq({1: nan})
    with pytest.raises(WeightOutOfRange):
        u_sum(chi, {1: nan, 2: 1.0}, {1: 1.0, 2: 1.0}, 2)
    with pytest.raises(WeightOutOfRange):
        de_moment(chi, {1, 2}, {1: 1.0, 2: nan}, 2)
    with pytest.raises(WeightOutOfRange):
        t_abs_sum(chi, 2, 2, 2, {1, 2}, {1: nan, 2: 1.0})


def _assert_matches_oracle(table, p, A, B, C):
    """table holds exactly the occupied residues of the triple-count oracle, in order, with their counts."""
    want = ratio_bins_oracle(p, A, B, C)
    lams = np.flatnonzero(want)
    assert table.lams.dtype == table.counts.dtype == np.int64
    assert np.array_equal(table.lams, lams) and np.array_equal(table.counts, want[lams])


def test_ratio_bins_trivial():
    table = ratio_bins(field(7), 1, 1, 1)
    assert table.lams.tolist() == [1] and table.counts.tolist() == [1]
    assert table.total() == 1


def test_ratio_bins_eight_triples():
    table = ratio_bins(field(7), 2, 2, 2)
    # I(1) counts ab = c: (1,1,1), (1,2,2), (2,1,2); I(2) and I(4) take the other five
    assert table.lams.tolist() == [1, 2, 4] and table.counts.tolist() == [3, 3, 2]
    assert table.total() == 8


def test_ratio_bins_matches_triple_count(rng):
    for _ in range(25):
        p = rng.choice((7, 11, 31, 97))
        A, B, C = (rng.randrange(1, p) for _ in range(3))
        table = ratio_bins(field(p), A, B, C)
        _assert_matches_oracle(table, p, A, B, C)
        assert table.total() == A * B * C


def test_ratio_bins_oracle():
    _assert_matches_oracle(ratio_bins(field(11), 3, 4, 5), 11, 3, 4, 5)


def test_ratio_bins_peak_memory():
    """At p = 1000003 the 3,600 products are histogrammed into their own residue range, not a
    length-p int64 array, and their 1,116 classes times 60 inverses are the only other arrays:
    a peak near 1.8 MiB, where the p-length histogram beside the bins peaked near 15.3 MiB."""
    F = field(1_000_003)
    tracemalloc.start()
    try:
        table = ratio_bins(F, 60, 60, 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20
    assert table.total() == 60**3


def test_ratio_bins_peak_memory_at_hard_cap_prime():
    """No array of length p: at p = 2^31 - 1, far above the table cap, the 60^3 box bins in the
    same 1.8 MiB peak as at p = 1000003, where a p-length int32 table was 3.8 MiB."""
    F = field(2**31 - 1)
    tracemalloc.start()
    try:
        table = ratio_bins(F, 60, 60, 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert table.total() == 60**3


@pytest.mark.parametrize("C", [2047, 2048])
def test_ratio_bins_exact_near_2_31(monkeypatch, C):
    """A*B*C = 2^31 - 2^20 and 2^31 count every triple, each bin the sum over c of the product
    classes it receives.  The products fill all 2052 unit classes, so C = 2048 sends 2048 * 2052
    targets, above the default table cap: the cap is raised to that count here."""
    monkeypatch.setenv("DETSUM_MAX_TABLE", str(2048 * 2052))
    p, A, B = 2053, 512, 2048
    F = field(p)
    table = ratio_bins(F, A, B, C)
    assert table.total() == A * B * C
    classes = np.bincount(_products(A, B) % p, minlength=p)
    want = sum(classes[np.arange(p) * c % p] for c in range(1, C + 1))
    assert np.array_equal(table.lams, np.flatnonzero(want)) and np.array_equal(table.counts, want[table.lams])


@pytest.mark.parametrize("p", [1_000_003, 1_999_993, 2**31 - 1])
@pytest.mark.parametrize(
    "box, energy", [((4, 4, 4), 340), ((10, 10, 10), 12484), ((20, 30, 15), 183474), ((60, 60, 60), 10560576)]
)
def test_ratio_bins_sigma3_is_multiplicative_energy(p, box, energy):
    """With A*B*C < p, ab/c = a'b'/c' mod p only when abc' = a'b'c as integers, so the sum of
    I(lam)^2 (holder_chain's sigma3) is the box's multiplicative energy at every such p."""
    table = ratio_bins(field(p), *box)
    assert table.total() == math.prod(box)
    assert int(np.sum(table.counts**2)) == energy


def test_ratio_bins_caps_products(monkeypatch):
    """The A*B products are an array of their own, held to the table cap even when p is under it."""
    monkeypatch.setenv("DETSUM_MAX_TABLE", "1000")
    F = field(101)
    with pytest.raises(TooLarge, match=r"A\*B=10000 exceeds the table cap 1000"):
        ratio_bins(F, 100, 100, 1)
    assert ratio_bins(F, 10, 100, 1).total() == 1000


def test_ratio_bins_held_below_2_31():
    """Above 2^31 the int32 keys and the int64 products of residues would wrap: ratio_bins raises TooLarge itself."""
    with pytest.raises(TooLarge, match="p=2147483659 exceeds the hard cap 2"):
        ratio_bins(field(2147483659), 2, 2, 2)


def test_t_abs_zero_weights():
    chi = make_character(field(11), 2)
    assert t_abs_sum(chi, 2, 2, 2, {1, 2}, {1: 0.0, 2: 0.0}) == 0.0


@pytest.mark.parametrize("shift", (0, 11))
def test_shifts_outside_units_rejected(shift):
    """A shift of 0 or of p is not a residue in [1, p-1]: de_moment and t_abs_sum both refuse it."""
    chi = make_character(field(11), 2)
    with pytest.raises(ValidationError, match=r"shifts must be residues in \[1, p-1\], got %d with p=11" % shift):
        de_moment(chi, {1, shift}, {1: 1.0, shift: 1.0}, 1)
    with pytest.raises(ValidationError, match="got %d with p=11" % shift):
        t_abs_sum(chi, 2, 2, 2, {shift, 3}, {shift: 1.0, 3: 1.0})


def test_t_abs_single_shift_identity():
    for p, (A, B, C), d0 in ((11, (2, 2, 2), 1), (31, (3, 2, 4), 7)):
        chi = make_character(field(p), 2)
        got = t_abs_sum(chi, A, B, C, {d0}, {d0: 1.0})
        lams, counts = ratio_bins(field(p), A, B, C)
        assert got == A * B * C - counts[lams == d0].sum()


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


@st.composite
def t_abs_instance(draw):
    """(p, d, A, B, C, shifts, alpha): p < 200, d | p - 1, A*B*C < p, +-1 weights on the shifts."""
    p, d, _ = draw(field_order_length())
    A = draw(st.integers(1, p - 1))
    B = draw(st.integers(1, (p - 1) // A))
    C = draw(st.integers(1, (p - 1) // (A * B)))
    shifts = sorted(draw(st.sets(st.integers(1, p - 1), min_size=1, max_size=8)))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=len(shifts), max_size=len(shifts)))
    return p, d, A, B, C, shifts, WeightSeq(dict(zip(shifts, signs)))


@given(t_abs_instance())
def test_t_abs_binned_equals_direct_property(inst):
    p, d, A, B, C, shifts, alpha = inst
    chi = make_character(field(p), d)
    lhs = t_abs_sum(chi, A, B, C, shifts, alpha)
    rhs = t_abs_sum_direct(chi, A, B, C, shifts, alpha)
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


def test_t_abs_peak_memory():
    """A fresh order-2 character at p = 1000003 over 60^3 with 12 +-1 shifts: the ratio bins are
    the 32,590 occupied (lam, I(lam)) pairs, so the int8 index table (0.95 MiB) is the one
    p-length array: near 2.7 MiB, where a p-length int32 ratio table made it 4.2 MiB."""
    F = field(1_000_003)
    rng = random.Random(12)
    shifts = sorted(rng.sample(range(1, F.p), 12))
    alpha = WeightSeq.signs(shifts, rng)
    t_abs_sum(make_character(F, 2), 4, 4, 4, shifts, alpha)  # imports and caches outside the trace
    chi = make_character(F, 2)
    tracemalloc.start()
    try:
        t_abs_sum(chi, 60, 60, 60, shifts, alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_t_abs_domain_guard():
    chi = make_character(field(11), 2)
    with pytest.raises(DomainTooLarge):
        t_abs_sum(chi, 3, 2, 2, {1}, {1: 1.0})  # 12 >= 11


def test_t_n_small():
    chi = make_character(field(11), 2)
    assert t_n_sum(chi, 1) == 0.0  # |chi(1*1 - 1*1)| = |chi(0)| = 0
    with pytest.raises(ValidationError, match="N must be >= 1, got 0"):
        t_n_sum(chi, 0)
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


@pytest.mark.parametrize("p, A, B, C", [(97, 3, 5, 6), (1_000_003, 60, 60, 60)])
def test_holder_chain_sigma3_is_sum_of_squared_bins(p, A, B, C):
    """sigma3 is the exact integer sum of I(lam)^2 over the triple-count oracle's bins."""
    chi = make_character(field(p), 2)
    shifts = [1, 2, 5]
    hc = holder_chain(chi, A, B, C, shifts, WeightSeq.ones(shifts), 1)
    assert hc.sigma3 == float(sum(int(n) ** 2 for n in ratio_bins_oracle(p, A, B, C)))
