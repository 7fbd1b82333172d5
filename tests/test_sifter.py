"""Sift partitions, divisor-function sums, prime tails, calibration pins."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detsums import BadWindow, DetsumsError, TooLarge, a0_bound_check, fp_arith, prime_tail, sift, sifter, tau, tau_square_average
from detsums.characters import CharSumAccumulator
from detsums.cli import default_calibration_path
from detsums.fp_arith import factorize
from detsums.sifter import (
    a0_grid,
    measure_constants,
    read_calibration,
    TAIL_GRID_X,
    TAIL_P,
    TAU_GRID_M,
)

from conftest import field, primes_upto


def window_count_oracle(n, x, y, multiplicity):
    count = 0
    m = n
    q = 2
    while q * q <= m:
        e = 0
        while m % q == 0:
            m //= q
            e += 1
        if e and x < q <= y:
            count += e if multiplicity else 1
        q += 1
    if m > 1 and x < m <= y:
        count += 1
    return count


def test_primes_upto():
    assert primes_upto(1).size == 0
    assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for n in (-1, 1, 30, 10_000):
        assert primes_upto(n).dtype == np.int64


def test_sift_fixture_30():
    prof = sift(30, 2, 30)
    # A_0 = {1, 2, 4, 8, 16}: nothing with a prime divisor in (2, 30]
    assert prof.sizes[0] == 5
    assert sum(prof.sizes) == 30
    assert prof.R == len(prof.sizes) - 1
    assert prof.sizes[prof.R] > 0


def assert_sift_matches_oracle(N, x, y):
    for multiplicity in (True, False):
        prof = sift(N, x, y, multiplicity)
        ref = [0] * (prof.R + 1)
        for n in range(1, N + 1):
            ref[window_count_oracle(n, x, y, multiplicity)] += 1
        assert list(prof.sizes) == ref


def test_sift_matches_oracle():
    for N, x, y in ((50, 2, 50), (100, 3, 10), (60, 2, 7.5)):
        assert_sift_matches_oracle(N, x, y)


@st.composite
def sift_window(draw):
    """(N, x, y) with N >= y >= x >= 2 and N <= 300."""
    N = draw(st.integers(2, 300))
    x = draw(st.integers(2, N))
    return N, x, draw(st.integers(x, N))


@given(sift_window())
def test_sift_matches_oracle_property(window):
    assert_sift_matches_oracle(*window)


def test_sift_split_at_root_matches_oracle():
    """Windows that straddle sqrt(N) = 97, where the walk hands over to the large-prime pass."""
    q = 97
    for N in (q * q - 1, q * q, q * q + 1):
        for x, y in ((2, N), (q - 1, q + 1), (q, N)):
            assert_sift_matches_oracle(N, x, y)


def large_prime_flags_oracle(N, a, y):
    """0/1 per n <= N: does a prime q with a <= q <= y divide n?  One prime at a time."""
    want = [0] * (N + 1)
    for q in primes_upto(int(y)).tolist():
        if q >= a:
            for n in range(q, N + 1, q):
                want[n] = 1
    return want


def test_large_prime_flags_matches_oracle():
    """The strided copies flag exactly the multiples of the window primes above sqrt(N) = 97.

    x runs below and above sqrt(N); y runs from x up to N, mostly short of
    it, so the window flags end before the longest copies would reach them.
    """
    q = 97
    for N in (q * q - 1, q * q, q * q + 1):
        for x in (2, 50, q - 1, q, q + 1, 200):
            for y in (x, q + 1, 300, N // 3, N - 1, N):
                if N >= y >= x:
                    window = fp_arith.prime_flags(y)
                    window[: math.floor(x) + 1] = bytes(math.floor(x) + 1)
                    got = fp_arith._large_prime_flags(window, N)
                    a = max(math.floor(x), math.isqrt(N)) + 1
                    assert list(got) == large_prime_flags_oracle(N, a, y), (N, x, y)


def test_sift_memory_stays_blocked():
    """The byte tally: a few MB at the table cap, and below the N + 1 count bytes plus one
    N + 1 byte budget for the window sieve and strided slices when no prime passes sqrt(N)."""
    peaks = []
    for args in ((2_000_000, 2, 2_000_000), (1_000_000, 5, 1000)):
        tracemalloc.start()
        try:
            sift(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 32 * 2**20
    assert peaks[1] < 2 * (1_000_000 + 1) + 2**19


def test_sift_highest_stratum_under_the_cap():
    """3^13 <= 2*10^6 sits alone in stratum 13 of the window (2, 3], the deepest count the
    table cap allows; every window prime is >= 3, so no count byte nears 255."""
    prof = sift(3**13, 2, 3)
    assert prof.R == 13
    assert prof.sizes[13] == 1
    assert sum(prof.sizes) == 3**13


def test_sift_empty_window():
    """x = y leaves no window prime: one stratum, all of [1, N], in both modes."""
    for N, x in ((40, 5), (2, 2), (1000, 7), (100_000, 7), (100_000, 2.5), (100_000, 100_000)):
        for multiplicity in (True, False):
            prof = sift(N, x, x, multiplicity)
            assert prof.sizes == (N,) and prof.R == 0, (N, x, multiplicity)


@pytest.mark.parametrize(
    "N, x, y", [(100_000, 2, 100_000), (100_000, 2, 3), (1_000_000, 5, 1000), (100_000, 1000, 100_000)]
)
def test_sift_strata_match_count_oracle(N, x, y):
    """Stratum 0 by subtraction equals a `count` pass over the tally, where it is sparse (x = 2: the
    powers of 2 only) and where it is dense; each stratum r >= 1 equals its own `count` pass."""
    for multiplicity in (True, False):
        counts = sifter._window_counts(N, x, y, multiplicity)
        want = [counts.count(r, 1) for r in range(max(counts) + 1)]
        assert list(sift(N, x, y, multiplicity).sizes) == want, multiplicity
        assert all(want), want  # the strata are contiguous


def test_sift_partition_and_rbound():
    for N, x, y in ((1000, 2, 1000), (5000, 10, 500), (2000, 3, 40)):
        prof = sift(N, x, y)
        assert sum(prof.sizes) == N
        assert prof.R <= math.log(N) / math.log(x)


def test_sift_multiplicity_flag():
    # window (2, 9] holds 3, 5, 7; the square 9 = 3^2 splits the modes
    assert sift(9, 2, 9).sizes == (4, 4, 1)
    assert sift(9, 2, 9, multiplicity=False).sizes == (4, 5)


def test_sift_bad_window():
    with pytest.raises(BadWindow):
        sift(10, 5, 3)
    with pytest.raises(BadWindow):
        sift(10, 1.5, 5)
    with pytest.raises(BadWindow):
        sift(10, 2, 11)


def test_representation_identity():
    """Each n in A_r splits as (window prime) * (member of A_{r-1}), r times.

    Counting with multiplicity: the number of ways to peel one window
    prime off n, weighted by its exponent, is exactly r, and every
    peeled cofactor sits one stratum down.
    """
    N, x, y = 2000, 3, 100
    window = [int(q) for q in primes_upto(int(y)) if q > x]
    r_of = {n: window_count_oracle(n, x, y, True) for n in range(1, N + 1)}
    for n in range(1, N + 1):
        r = r_of[n]
        if r == 0:
            continue
        weight = 0
        for q in window:
            if n % q == 0:
                e = 0
                m = n
                while m % q == 0:
                    m //= q
                    e += 1
                weight += e
                assert r_of[n // q] == r - 1  # the cofactor drops one stratum
        assert weight == r


def test_a0_bound_examples():
    assert a0_bound_check(30, 2, 30, 8)  # 5 <= 8 * 30 * log4/log60
    assert a0_bound_check(100, 7, 7, 1.0)  # empty window: ratio exactly 1
    assert not a0_bound_check(30, 2, 30, 0.01)


def a0_oracle(N, x, y):
    return sifter._window_counts(N, x, y, True).count(0, 1)


def test_a0_sizes_match_window_count():
    """#A_0 from a bit of the byte equals the count of zeros of the multiplicity tally: on every a0_grid()
    triple, one at a time and packed eight to a walk as the calibration packs them, and at x = y, y = N
    and real x, y around sqrt(N) = 97."""
    grid = a0_grid()
    for N, x, y in grid:
        assert sifter._a0_sizes(N, [(x, y)]) == [a0_oracle(N, x, y)], (N, x, y)
    for N in sorted({N for N, _, _ in grid}):
        windows = [(x, y) for M, x, y in grid if M == N]
        for i in range(0, len(windows), 8):
            run = windows[i : i + 8]
            assert sifter._a0_sizes(N, run) == [a0_oracle(N, x, y) for x, y in run], (N, run)
    for N in (97 * 97 - 1, 97 * 97, 97 * 97 + 1):
        windows = [(2, 2), (97, 97), (2, N), (96, N), (97, N), (98, N), (2.5, 96.5), (5, 97)]
        assert sifter._a0_sizes(N, windows) == [a0_oracle(N, x, y) for x, y in windows], N
        for x, y in windows:
            assert sifter._a0_sizes(N, [(x, y)]) == [a0_oracle(N, x, y)], (N, x, y)


def test_a0_sizes_check_every_window():
    with pytest.raises(BadWindow):
        sifter._a0_sizes(100, [(2, 10), (20, 10)])
    with pytest.raises(BadWindow):
        a0_bound_check(100, 2, 101, 1.0)


def test_tau_values():
    assert tau(6, 2) == 4
    assert tau(1, 4) == 1
    assert tau(4, 3) == 6  # C(2+2, 2)
    assert tau(12, 2) == 6
    assert tau(30, 3) == 27  # 3 primes, each contributes s = 3


def test_tau_divisor_count_oracle():
    for m in range(1, 500):
        divisors = sum(1 for k in range(1, m + 1) if m % k == 0)
        assert tau(m, 2) == divisors


def test_tau_multiplicative():
    rng = random.Random("tau")
    for _ in range(50):
        m = rng.randrange(1, 400)
        n = rng.randrange(1, 400)
        if math.gcd(m, n) == 1:
            for s in (2, 3, 4):
                assert tau(m * n, s) == tau(m, s) * tau(n, s)


def test_tau_square_average():
    assert tau_square_average(1, 2) == 1
    assert tau_square_average(10, 2) == 83
    for M in (50, 200):
        for s in (2, 3):
            assert tau_square_average(M, s) == sum(tau(m, s) ** 2 for m in range(1, M + 1))


def test_tau_square_average_split_at_root():
    q = 97
    for M in (q * q - 1, q * q, q * q + 1):
        for s in (2, 3, 4):
            assert tau_square_average(M, s) == sum(tau(m, s) ** 2 for m in range(1, M + 1))


@given(st.integers(1, 2000), st.sampled_from((2, 3, 4)))
def test_tau_square_average_property(M, s):
    assert tau_square_average(M, s) == sum(tau(m, s) ** 2 for m in range(1, M + 1))


def test_sift_and_tau_caps_before_allocation(monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(sifter, "prime_flags", no_alloc)
    monkeypatch.setattr(sifter, "prime_factor_tally", no_alloc)  # sift's and tau's tally
    with pytest.raises(TooLarge, match="N=10000000000 exceeds the hard cap"):
        sift(10**10, 2, 100)
    with pytest.raises(TooLarge, match="M=10000000000 exceeds the hard cap"):
        tau_square_average(10**10, 2)
    monkeypatch.setenv("DETSUM_MAX_TABLE", "1000")
    with pytest.raises(TooLarge, match="N=1001"):
        sift(1001, 2, 100)
    with pytest.raises(TooLarge, match="M=1001"):
        tau_square_average(1001, 2)


def test_prime_tail_caps_P(monkeypatch):
    """The tail's sieve takes P + 1 bytes, so P is held to the table cap like sift's N."""
    monkeypatch.setenv("DETSUM_MAX_TABLE", "1000")
    with pytest.raises(TooLarge, match="P=5000 exceeds the table cap 1000"):
        prime_tail(2, 5000)
    assert prime_tail(2, 1000) == prime_tail(2, 997)


def decode_signature(code):
    """The exponents of a prime-signature code, increasing: field e - 1 (8 bits) counts the exponents e."""
    exponents, e = [], 1
    while code:
        exponents += [e] * (code & 0xFF)
        code >>= 8
        e += 1
    return exponents


@pytest.mark.parametrize("M", (5000, 97 * 97 - 1, 97 * 97, 97 * 97 + 1))
def test_signature_codes_match_factorize(M):
    """Every code of the one walk decodes to the exponents of n's trial-division factorization."""
    codes = list(sifter._signature_codes(M))
    assert len(codes) == M
    for n, code in enumerate(codes, 1):
        assert decode_signature(code) == sorted(e for _, e in factorize(n)), n


def test_tau_grid_sums_match_tau_square_average():
    """The one-walk prefix sums that measure_constants reads equal a walk of their own at each grid point."""
    sums = sifter.tau_grid_sums()
    assert sorted(sums) == sorted((M, s) for M in TAU_GRID_M for s in (2, 3, 4))
    for (M, s), value in sums.items():
        assert value == tau_square_average(M, s), (M, s)


def correctly_rounded_sum(terms):
    """The exact sum of the floats `terms`, rounded once: their ratios as ints over a common power of two."""
    ratios = [t.as_integer_ratio() for t in terms]  # each denominator a power of two
    top = max((d for _, d in ratios), default=1)
    return sum(n * (top // d) for n, d in ratios) / top  # int / int rounds correctly


def test_prime_tails_match_numpy_sum():
    """Each calibration tail is the correctly rounded sum of its float64 terms 1.0 / q^2."""
    qs = primes_upto(TAIL_P).tolist()
    tails = sifter._prime_tails(TAIL_P, TAIL_GRID_X)
    for x, tail in zip(TAIL_GRID_X, tails):
        assert tail == correctly_rounded_sum(1.0 / (q * q) for q in qs if q >= x), x


@pytest.mark.parametrize("P", (1, 2, 3, 4, 10, 97, 29, 30, 31, 59, 60, 61))
def test_prime_tails_small_P_match_numpy_sum(P):
    """Small sieves, tails from the prime 2 on to tails that hold no prime, correctly rounded; P and x on
    and between the spokes mod 30 where the ordered terms hand over to the wheel."""
    xs = (2, 3, 4, 11, 98, 1000, 29.5, 30, 32, 60)
    qs = primes_upto(P).tolist()
    for x, tail in zip(xs, sifter._prime_tails(P, xs)):
        assert tail == correctly_rounded_sum(1.0 / (q * q) for q in qs if q >= x), x
        assert sifter._prime_tails(P, (x,)) == [tail], x  # alone, x sets where the wheel takes over


@pytest.mark.parametrize("P", (2, 10, 97, 100, 1000, 29, 30, 31, 59, 60, 61))
def test_prime_tails_within_2_52_of_exact(P):
    """Each tail is within 2^-52 relative of the exact rational sum of 1/q^2: one rounding per term and
    one for the sum."""
    xs = (2, 2.5, 3, 11, 98, 500, 1000, 1001, 29.5, 30, 32, 60)
    qs = primes_upto(P).tolist()
    for x, tail in zip(xs, sifter._prime_tails(P, xs)):
        exact = sum(Fraction(1, q * q) for q in qs if q >= x)
        assert abs(Fraction(tail) - exact) <= exact * Fraction(1, 2**52), x
        assert sifter._prime_tails(P, (x,)) == [tail], x  # alone, x sets where the wheel takes over


def test_prime_tail_real_x():
    """A tail from a real x starts at the least prime >= x: the prime count is taken below ceil(x)."""
    assert prime_tail(2.5, 100) == prime_tail(3, 100)
    assert prime_tail(2.5, 100) != prime_tail(2, 100)
    assert prime_tail(10.5, 100) == prime_tail(11, 100)
    assert prime_tail(97.5, 100) == prime_tail(float("inf"), 100) == 0.0


def test_prime_tail():
    assert prime_tail(11, 10) == 0.0
    want = 1 / 4 + 1 / 9 + 1 / 25 + 1 / 49
    assert abs(prime_tail(2, 10) - want) < 1e-9
    last = prime_tail(2, 1000)
    for x in (3, 10, 50, 500):
        cur = prime_tail(x, 1000)
        assert cur <= last
        last = cur
    with pytest.raises(ValueError):
        prime_tail(1, 100)


@pytest.mark.parametrize(
    "call, args",
    [
        pytest.param(factorize, (0,), id="factorize"),
        pytest.param(lambda x: field(7).legendre(x), (7,), id="PrimeField._check_residue"),
        pytest.param(tau, (0, 2), id="tau-m"),
        pytest.param(tau, (4, 5), id="tau-s"),
        pytest.param(tau_square_average, (0, 2), id="tau_square_average-M"),
        pytest.param(tau_square_average, (10, 5), id="tau_square_average-s"),
        pytest.param(prime_tail, (1, 100), id="prime_tail"),
        pytest.param(prime_tail, (float("nan"), 100), id="prime_tail-nan"),
        pytest.param(lambda: CharSumAccumulator(3, [1, 0, 0]).int_value(), (), id="CharSumAccumulator.int_value"),
    ],
)
def test_bad_arguments_raise_detsums_error(call, args):
    """Every argument check in the package raises a DetsumsError, still a ValueError for older callers."""
    with pytest.raises(DetsumsError) as info:
        call(*args)
    assert isinstance(info.value, ValueError)


def test_calibration_pinned():
    """The packaged constants reproduce exactly and still dominate the grid."""
    stored = read_calibration(default_calibration_path())
    fresh = measure_constants()
    assert set(stored) == set(fresh)
    for name, value in fresh.items():
        assert stored[name] == value, name

    # Bounds hold with the pinned constants on every grid point.
    for N, x, y in a0_grid():
        assert a0_bound_check(N, x, y, stored["a0_C"] * (1 + 1e-12))
    for s in (2, 3, 4):
        for M in TAU_GRID_M:
            bound = stored["tau%d_C" % s] * (1 + 1e-12) * M * math.log(2 * M) ** (s * s - 1)
            assert tau_square_average(M, s) <= bound
    for x in TAIL_GRID_X:
        assert prime_tail(x, TAIL_P) <= stored["prime_tail_C"] * (1 + 1e-12) / (x * math.log(2 * x))
