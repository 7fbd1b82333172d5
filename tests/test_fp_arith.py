"""Field construction, Legendre symbol, inverses, square roots, the index table and the prime-factor tally against
their oracles."""

import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detsums import NotPrime, TooLarge, ZeroInverse, count_nonresidues, make_character, make_field
from detsums import fp_arith, residues, sifter
from detsums.fp_arith import check_odd_prime, factorize, find_primitive_root, is_prime, prime_factor_tally, prime_flags
from detsums.fp_arith import BIT_TABLES, step_tables
from detsums.residues import _nonresidue_primes
from detsums.sums import ratio_bins

from conftest import dlog_by_loop, field, legendre_oracle, primes_upto


def test_composite_rejected():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(9)
    with pytest.raises(NotPrime):
        make_field(1)


def test_two_rejected():
    # 2 is prime but the field must be odd
    with pytest.raises(NotPrime):
        make_field(2)


def test_p3_has_generator_two():
    F = field(3)
    assert F.g == 2
    assert pow(2, 1, 3) == 2 and pow(2, 2, 3) == 1


def test_dlog_defining_property():
    """The dlog oracle inverts g^k, and the order p-1 index table, which pins the whole power walk, is the dlog."""
    for p in (7, 101):
        F = field(p)
        dlog = dlog_by_loop(p, F.g)
        for k in range(p - 1):
            assert dlog[pow(F.g, k, p)] == k
        assert np.array_equal(make_character(F, p - 1).index_table(), dlog)


def test_generator_enumerates_units():
    F = field(31)
    seen = {pow(F.g, k, 31) for k in range(30)}
    assert seen == set(range(1, 31))


def test_table_cap_env(monkeypatch):
    """The cap holds the tables, not the field: the index table, the one p-sized table, raises where it is built.

    Square roots, the ratio bins of a small box and a short non-residue count build no p-sized
    table, so they run under the cap.
    """
    monkeypatch.setenv("DETSUM_MAX_TABLE", "5")
    F = make_field(7)
    with pytest.raises(TooLarge, match="p=7 exceeds the table cap 5"):
        make_character(F, 2).index_table()
    assert ratio_bins(F, 1, 1, 1).total() == 1
    assert F.sqrt_roots(2) == (3, 4)
    assert count_nonresidues(F, 3) == 1  # only n = 3
    monkeypatch.delenv("DETSUM_MAX_TABLE")
    assert make_character(F, 2).index_table().size == 7


def test_field_held_to_hard_cap_only():
    F = make_field(2147483647)
    assert (F.p, F.g) == (2147483647, 7)
    with pytest.raises(TooLarge, match="p=2147483659 exceeds the hard cap 2"):
        make_field(2147483659)


def test_legendre_examples():
    assert field(5).legendre(0) == 0
    assert field(7).legendre(4) == 1
    # Euler criterion oracle: 3^3 mod 7 = 27 mod 7 = 6 = -1
    assert pow(3, 3, 7) == 7 - 1
    assert field(7).legendre(3) == -1


def test_legendre_range_check():
    with pytest.raises(ValueError):
        field(7).legendre(7)
    with pytest.raises(ValueError):
        field(7).legendre(-1)


def test_legendre_against_square_scan():
    for p in (3, 5, 7, 11, 13, 23):
        F = field(p)
        for x in range(p):
            assert F.legendre(x) == legendre_oracle(x, p)


def test_legendre_multiplicative():
    for p in (7, 23):
        F = field(p)
        for x in range(1, p):
            for y in range(1, p):
                assert F.legendre(x * y % p) == F.legendre(x) * F.legendre(y)


def test_legendre_sums_to_zero():
    for p in (3, 5, 7, 11, 13, 17, 101, 997):
        F = field(p)
        assert sum(F.legendre(x) for x in range(1, p)) == 0


def test_dlog_parity_crosscheck():
    """Three-way Legendre agreement: scalar Euler pow, order-2 index parity, the reciprocity parity walk.

    The parity of the order-2 index table equals that of the dlog oracle,
    and both it and the walk that `count_nonresidues` counts (Euler's
    criterion at each prime q < p by reciprocity, mod q, flipped at the
    multiples of each non-residue prime power) are swept in full for every
    odd prime below 10^4; the scalar `legendre` is swept in full below 500
    and sampled above (it is the slow scalar route).
    """
    rng = random.Random("parity")
    for p in primes_upto(10_000)[1:]:
        p = int(p)
        F = field(p) if p <= 101 else make_field(p)
        ktab = make_character(F, 2).index_table()[1:]
        assert np.array_equal(ktab, dlog_by_loop(p, F.g)[1:] & 1)
        walk = prime_factor_tally(_nonresidue_primes((p,), (p - 1,)), p - 1, step_tables(operator.xor))
        assert ktab.tobytes() == walk[1:]
        parity = np.where(ktab & 1, -1, 1)
        xs = range(1, p) if p < 500 else [rng.randrange(1, p) for _ in range(20)]
        for x in xs:
            assert F.legendre(x) == (1 if parity[x - 1] == 1 else -1)


def test_inv():
    assert field(7).inv(1) == 1
    assert field(7).inv(2) == 4
    with pytest.raises(ZeroInverse):
        field(7).inv(0)
    for p in (11, 97):
        F = field(p)
        for x in range(1, p):
            assert x * F.inv(x) % p == 1
            assert F.inv(F.inv(x)) == x


def test_sqrt_roots_range_check():
    F = field(13)
    for x in (13, -1, 14, -13):
        with pytest.raises(ValueError):
            F.sqrt_roots(x)


def test_sqrt_roots_brute_force():
    """Tonelli-Shanks against squaring every residue, for every x and every odd p < 200."""
    for p in primes_upto(200)[1:]:
        p = int(p)
        F = make_field(p)
        roots = {x: [] for x in range(p)}
        for r in range(p):
            roots[r * r % p].append(r)
        for x in range(p):
            assert F.sqrt_roots(x) == tuple(roots[x])  # increasing, so the smaller root first


@pytest.mark.parametrize("p", [65537, 7340033, 998244353, 2013265921, 2147483647])
def test_sqrt_roots_sampled_where_tonelli_shanks_branches(p):
    """Sampled residues at primes with 2^16, 2^20, 2^23, 2^27 and 2^1 exactly dividing p - 1."""
    F = make_field(p)
    rng = random.Random(p)
    for x in [rng.randrange(1, p) for _ in range(300)] + [pow(rng.randrange(1, p), 2, p) for _ in range(300)]:
        roots = F.sqrt_roots(x)
        assert (roots == ()) == (F.legendre(x) == -1)
        if roots:
            r = roots[0]
            assert r * r % p == x and r <= (p - 1) // 2 and roots == (r, p - r)


def test_sqrt_roots():
    for p in (5, 13, 97):
        F = field(p)
        assert F.sqrt_roots(0) == (0,)
        for x in range(1, p):
            roots = F.sqrt_roots(x)
            assert F.sqrt_roots(np.int64(x)) == roots
            if F.legendre(x) == 1:
                assert len(roots) == 2 and roots[0] != roots[1]
                for r in roots:
                    assert r * r % p == x
            else:
                assert roots == ()


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2_147_483_647)  # 2^31 - 1
    assert not is_prime(2_147_483_647 * 3)


def test_prime_flags_match_is_prime():
    """The sieve flags exactly the n <= 10^4 that is_prime accepts, at its shortest lengths too; empty below 0."""
    assert list(prime_flags(10_000)) == [int(is_prime(n)) for n in range(10_001)]
    for n in (0, 1, 2, 3):
        assert list(prime_flags(n)) == [int(is_prime(k)) for k in range(n + 1)]
    assert prime_flags(-1) == prime_flags(-5) == bytearray()


def test_prime_flags_capped(monkeypatch):
    """The sieve is held to the table cap before it allocates, naming n as its caller labels it."""
    monkeypatch.setenv("DETSUM_MAX_TABLE", "1000")
    with pytest.raises(TooLarge, match="n=5000 exceeds the table cap 1000"):
        prime_flags(5000)
    with pytest.raises(TooLarge, match="X=5000 exceeds the table cap 1000"):
        prime_flags(5000, "X")
    assert len(prime_flags(1000)) == 1001


def tally_windows(N, rng):
    """Flagged-prime windows: none, only 2, only the primes above sqrt(N), and random prime sets of random length."""
    yield bytearray(N + 1)
    only_two = bytearray(max(N, 2) + 1)
    only_two[2] = 1
    yield only_two
    above = prime_flags(N)
    above[: math.isqrt(N) + 1] = bytes(math.isqrt(N) + 1)
    yield above
    for _ in range(3):
        window = prime_flags(rng.randint(0, N + 5))
        for q in range(len(window)):
            window[q] &= rng.random() < 0.5
        yield window


def tally_by_factorize(factors, window, steps, distinct):
    """steps[b] applied once per prime factor q of each n with window byte b != 0 (per distinct q if `distinct`),
    read off `factorize`."""
    want = [0] * len(factors)
    for n in range(1, len(factors)):
        for q, e in factors[n]:
            if q < len(window) and window[q]:
                for _ in range(1 if distinct else e):
                    want[n] = steps[window[q]][want[n]]
    return want


def assert_tally_matches_factorize(N, rng):
    """Every byte of the tally equals the step applied once per flagged prime factor of n, read off `factorize`."""
    factors = [[]] + [factorize(n) for n in range(1, N + 1)]
    for window in tally_windows(N, rng):
        for op in (operator.add, operator.xor):
            for distinct in (False, True):
                want = tally_by_factorize(factors, window, step_tables(op), distinct)
                got = prime_factor_tally(window, N, step_tables(op), distinct)
                assert list(got) == want, (N, list(window), op, distinct)


def test_prime_factor_tally_matches_factorize():
    """N at the small end and around sqrt(N) = 97, where the large-prime pass hands over to the walk."""
    rng = random.Random(21)
    for N in (1, 2, 97 * 97 - 1, 97 * 97, 97 * 97 + 1):
        assert_tally_matches_factorize(N, rng)


@given(st.integers(1, 3000), st.randoms(use_true_random=False))
def test_prime_factor_tally_property(N, rng):
    assert_tally_matches_factorize(N, rng)


def random_byte_windows(N, rng):
    """Windows with a random byte 0..255 at each prime (0 at the composites), reaching short of, to and past N."""
    for top in (N // 3, N, N + 5, rng.randint(0, N + 5)):
        window = prime_flags(top)
        for q in range(len(window)):
            window[q] *= rng.randrange(256)
        yield window


@pytest.mark.parametrize("op", [operator.xor, operator.or_, operator.add], ids=["xor", "or", "add"])
def test_prime_factor_tally_byte_windows_match_factorize(op):
    """Eight tallies in one byte: random 8-bit window bytes under each op's tables, with and without `distinct`,
    around sqrt(N) = 97 and at small N."""
    rng = random.Random(op.__name__)
    for N in (1, 2, 30, 97 * 97 - 1, 97 * 97, 97 * 97 + 1):
        factors = [[]] + [factorize(n) for n in range(1, N + 1)]
        for window in random_byte_windows(N, rng):
            for distinct in (False, True):
                got = prime_factor_tally(window, N, step_tables(op), distinct)
                assert list(got) == tally_by_factorize(factors, window, step_tables(op), distinct), (N, distinct)


def test_step_and_bit_tables():
    """Table b of each op maps x to op(x, b) mod 256, so to b at 0; bit table j maps x to bit j of x."""
    for op in (operator.xor, operator.or_, operator.add):
        tables = step_tables(op)
        assert len(tables) == 256 and step_tables(op) is tables  # built once
        for b, table in enumerate(tables):
            assert list(table) == [op(x, b) & 255 for x in range(256)], (op, b)
    assert [list(bit) for bit in BIT_TABLES] == [[x >> j & 1 for x in range(256)] for j in range(8)]


def test_every_steps_src_passes_maps_zero_to_its_byte(monkeypatch):
    """The large-prime start writes a prime's window byte b where the walk would apply steps[b] to 0: every
    `steps` that a caller in src passes has steps[b][0] == b for each byte b."""
    seen = []

    def spy(window, N, steps, distinct=False):
        seen.append(steps)
        return prime_factor_tally(window, N, steps, distinct)

    for module in (residues, sifter):
        monkeypatch.setattr(module, "prime_factor_tally", spy)
    residues.nonresidue_counts([3, 101, 2147398009], [2, 10, 1000])
    sifter.sift(1000, 2, 30)
    sifter.sift(1000, 2, 30, multiplicity=False)
    sifter.a0_bound_check(1000, 5, 100, 1.0)
    sifter.tau_square_average(100, 2)
    sifter.measure_constants()
    assert len(seen) == 1 + 2 + 1 + 1 + (9 + 1)
    for steps in seen:
        assert len(steps) == 256 and all(steps[b][0] == b for b in range(256))


def test_checked_prime_is_tested_once(monkeypatch):
    tested = []
    monkeypatch.setattr(fp_arith, "is_prime", lambda n: tested.append(n) or is_prime(n))
    p = check_odd_prime(101)
    assert p == 101 and check_odd_prime(p) is p and tested == [101]
    F = make_field(p)
    assert tested == [101]
    assert type(F.p) is int  # numpy would read an int subclass as int64, not as a weak Python int


def test_is_prime_beyond_bases_2_to_37():
    """The least strong pseudoprime to the bases 2..37 is composite to is_prime."""
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    assert is_prime(2**89 - 1)  # a Mersenne prime, about 6.2 * 10^26: above the proven range n < 3.3 * 10^24


def test_modulus_held_below_proven_primality_range():
    """psi_13 = 1287836182261 * 2575672364521 passes every Miller-Rabin base of is_prime, so a modulus
    at or above it is refused as TooLarge before it is tested, prime (2^89 - 1) or not."""
    psi13 = fp_arith._MR_LIMIT
    assert psi13 == 3317044064679887385961981 == 1287836182261 * 2575672364521
    assert is_prime(psi13)  # the composite the bases cannot tell from a prime
    for n in (psi13, 2**89 - 1):
        with pytest.raises(TooLarge, match="3317044064679887385961981"):
            residues.least_nonresidue(n)
        with pytest.raises(TooLarge):
            check_odd_prime(n)
    assert residues.least_nonresidue(2**61 - 1) == 3


def test_factorize():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(1) == []
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(1, 10**9))
def test_factorize_property(n):
    """The factors multiply back to n, with increasing primes and positive exponents."""
    factors = factorize(n)
    assert math.prod(q**e for q, e in factors) == n
    qs = [q for q, _ in factors]
    assert qs == sorted(set(qs))
    assert all(is_prime(q) and e >= 1 for q, e in factors)


def test_primitive_root_order():
    for p in (7, 41, 101):
        g = find_primitive_root(p)
        seen = {pow(g, k, p) for k in range(p - 1)}
        assert len(seen) == p - 1
