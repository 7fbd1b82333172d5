"""Character evaluation, interval sums, accumulators, moment sums."""

import cmath
import itertools
import math
import pathlib
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detsums import (
    BadOrder,
    InternalInvariantViolation,
    TooLarge,
    WeightOutOfRange,
    WeightSeq,
    de_moment,
    interval_sum,
    make_character,
)
from detsums import characters, cli, fp_arith
from detsums.characters import CHAR_ZERO, CharSumAccumulator, contract, roots_of_unity, shifted_sums
from detsums.sifter import primes_upto

from conftest import HIGH_ORDER_PAIRS, dlog_by_loop, field, shifted_sums_by_add_at

ODD_PRIMES_BELOW_5000 = [int(q) for q in primes_upto(5000)[1:]]


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


# (p, d) with gcd(B, d) > 1 for B = ceil(sqrt(p - 1)), and d * B above the smaller walk blocks
SHARED_FACTOR_ORDERS = ((37, 4), (37, 18), (101, 20), (101, 50), (4801, 20), (4817, 56))


@given(st.data())
def test_index_table_matches_dlog_oracle(data):
    """index_table() is (dlog * power) mod d, and eval(x) reads it, for drawn p, d | p-1, power
    and walk block.  Every p < 5000 fits one real block; blocks of 1, 5 and 64 entries run
    several, on orders that share a factor with B among them."""
    block = data.draw(st.sampled_from((1, 5, 64, characters._WALK_BLOCK)))
    if data.draw(st.booleans()):
        p, d = data.draw(st.sampled_from(SHARED_FACTOR_ORDERS))
        assert math.gcd(math.isqrt(p - 2) + 1, d) > 1
    else:
        p = data.draw(st.sampled_from(ODD_PRIMES_BELOW_5000))
        d = data.draw(st.sampled_from([q for q in range(2, p) if (p - 1) % q == 0]))
    power = data.draw(st.sampled_from([k for k in range(1, d) if math.gcd(k, d) == 1]))
    F = field(p)
    chi = make_character(F, d, power)
    dlog = dlog_by_loop(p, F.g).astype(np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "_WALK_BLOCK", block)
        tab = chi.index_table()
    assert tab.dtype == np.int32
    assert np.array_equal(tab, np.where(dlog < 0, -1, dlog * power % d))
    assert chi.eval(0) == CHAR_ZERO
    for x in range(1, p):
        assert chi.eval(x) == (False, tab[x])


def test_index_table_order_two_is_euler_at_a_million():
    """At the real block size and p = 1000003 (16 blocks), order 2 is Euler's criterion x^((p-1)/2)."""
    p = 1_000_003
    tab = make_character(field(p), 2).index_table()
    euler = characters.pow_mod(np.arange(1, p), (p - 1) // 2, p)
    assert tab[0] == -1
    assert np.array_equal(tab[1:], np.where(euler == 1, 0, 1))
    assert np.all((euler == 1) | (euler == p - 1))


def test_index_table_certificate_rejects_non_primitive_root(monkeypatch, capsys):
    """A field whose g is a square leaves units unwritten: InternalInvariantViolation, CLI exit 3."""
    monkeypatch.setattr(fp_arith, "find_primitive_root", lambda p: 4)
    with pytest.raises(InternalInvariantViolation, match="not primitive"):
        make_character(fp_arith.make_field(13), 2).index_table()
    cli._character.cache_clear()  # the CLI's character cache must not hand back a good index table
    try:
        assert cli.main(["scan", "--kind", "s", "--p", "13", "--n-grid", "3"]) == 3
    finally:
        cli._character.cache_clear()
    assert "internal invariant violation" in capsys.readouterr().err


@pytest.mark.parametrize("block", (1, 5, 64))
@pytest.mark.parametrize("p, d", ((13, 2), (101, 4), (101, 20)))
def test_index_table_blocked_certificate_rejects_non_primitive_root(monkeypatch, block, p, d):
    """A square g walks only the squares: in blocks as in one, units stay unwritten and the certificate fires."""
    monkeypatch.setattr(characters, "_WALK_BLOCK", block)
    monkeypatch.setattr(fp_arith, "find_primitive_root", lambda p: 4)
    with pytest.raises(InternalInvariantViolation, match="not primitive"):
        make_character(fp_arith.make_field(p), d).index_table()


@pytest.mark.parametrize("p, bound_mib", [(1_000_003, 7), (1_999_993, 12)])
def test_index_table_build_peak_memory(p, bound_mib):
    """The blocked walk holds one block of the g^k walk beside the int32 table (3.8 MiB at
    p = 1000003, 7.6 MiB at p = 1999993): peaks near 5.4 and 10.2 MiB, where the whole walk
    as int64 with a full-length tile peaked near 15.3 and 30.5 MiB."""
    chi = make_character(field(p), 2)
    tracemalloc.start()
    try:
        chi.index_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


@pytest.mark.parametrize("block", (1, 5, 64))
@pytest.mark.parametrize("p, d", ((101, 100), (4999, 4998), (4999, 2499), (4999, 1666)))
def test_index_table_full_tile_blocks_match_dlog(block, p, d):
    """A tile capped at p - 1 entries spans the whole walk, so blocks of any row count read
    their own slices of it, at offsets that are not multiples of d."""
    F = field(p)
    dlog = dlog_by_loop(p, F.g).astype(np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "_WALK_BLOCK", block)
        tab = make_character(F, d).index_table()
    assert np.array_equal(tab, np.where(dlog < 0, -1, dlog % d))


def test_index_table_full_order_build_peak_memory():
    """At p = 1999993, d = p - 1 the pattern is built in place (one int64 period, then int32)
    and the p - 1 entry tile lets the walk run in blocks: the build peaks near 23 MiB, where
    an int64 pattern temporary and the whole walk in one int64 block peaked near 32.5 MiB."""
    p = 1_999_993
    chi = make_character(field(p), p - 1)
    tracemalloc.start()
    try:
        chi.index_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 26 * 2**20


@given(st.data())
def test_tally_matches_eval(data):
    """tally(xs) and tally(xs, weights) total chi(x mod p) as eval reads it, for drawn p, d | p-1.

    xs mixes negatives, values >= p and multiples of p; weighted per-index
    totals are summed in element order, so they match the loop exactly.
    """
    p = data.draw(st.sampled_from(ODD_PRIMES_BELOW_5000))
    d = data.draw(st.sampled_from([q for q in range(2, p) if (p - 1) % q == 0]))
    chi = make_character(field(p), d)
    xs = data.draw(
        st.lists(
            st.one_of(
                st.integers(-3 * p, 3 * p),
                st.integers(-5, 5).map(lambda k: k * p),
                st.integers(-(2**62), 2**62),
            ),
            max_size=80,
        )
    )
    ws = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(xs), max_size=len(xs)))
    counts, zero_terms = np.zeros(d, dtype=np.int64), 0
    sums, zero_sum = [0.0] * d, 0.0
    for x, w in zip(xs, ws):
        v = chi.eval(x % p)
        if v.zero:
            zero_terms += 1
            zero_sum += w
        else:
            counts[v.k] += 1
            sums[v.k] += w
    got, got_zero = chi.tally(np.array(xs, dtype=np.int64))
    assert got.dtype == np.int64 and np.array_equal(got, counts) and got_zero == zero_terms
    got, got_zero = chi.tally(np.array(xs, dtype=np.int64), np.array(ws))
    assert got.tolist() == sums
    assert math.isclose(got_zero, zero_sum, rel_tol=1e-12, abs_tol=1e-12)


def test_only_characters_reads_the_index_table():
    """Other modules read the index table only through Character.tally, so only characters.py names it."""
    src = pathlib.Path(characters.__file__).parent
    assert sorted(f.name for f in src.glob("*.py") if "index_table" in f.read_text()) == ["characters.py"]


def test_no_module_names_the_root_table():
    """Legendre symbols come from the Euler criterion and roots from Tonelli-Shanks, so no table of squares exists."""
    src = pathlib.Path(characters.__file__).parent
    assert [f.name for f in src.glob("*.py") if "root_table" in f.read_text()] == []


def test_roots_of_unity_exact_where_d_divides_12k():
    """Orders 2 and 4 keep their exact roots bit for bit; 3, 6 and 12 have exact rational coordinates."""
    assert roots_of_unity(2).tobytes() == np.array([1.0 + 0.0j, -1.0 + 0.0j]).tobytes()
    assert roots_of_unity(4).tobytes() == np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j]).tobytes()
    h = math.sqrt(3) / 2
    for d in (3, 6, 12):
        roots = roots_of_unity(d)
        for k, z in enumerate(roots):
            want = cmath.exp(2j * math.pi * k / d)
            for got, ref in ((z.real, want.real), (z.imag, want.imag)):
                exact = min((0.0, 0.5, 1.0, -0.5, -1.0, h, -h), key=lambda c: abs(c - ref))
                assert got == exact, (d, k)
    # decided on integers: at d = 10^6 only k = 0, d/4, d/2, 3d/4 are exact, and e(1/d) is not snapped to 1
    roots = roots_of_unity(10**6)
    assert (roots[0], roots[250_000], roots[500_000], roots[750_000]) == (1, 1j, -1, -1j)
    assert roots[1].real < 1.0 and roots[1].imag > 0.0


@given(
    st.sampled_from((13, 37, 61)),
    st.sampled_from((2, 3, 4, 6)),
    st.sampled_from(("sparse", "full array", "full request")),
    st.sampled_from((st.sampled_from((-1.0, 0.0, 1.0)), st.floats(-1.0, 1.0))),
    st.data(),
)
def test_shifted_sums_matches_add_at_oracle(p, d, lams_kind, weights, data):
    """The per-index tally equals the np.add.at oracle bit for bit, over sparse lams, the
    full range as an array, and the full range asked for by lams=None."""
    chi = make_character(field(p), d)
    shifts = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=1, max_size=8))
    if lams_kind == "sparse":
        drawn = data.draw(st.sets(st.integers(1, p - 1), min_size=1, max_size=p // 2))
        hit_zero = -shifts[0] % p  # lam + s = 0 mod p for the first shift
        lams = np.array(sorted(drawn | ({hit_zero} if hit_zero else set())), dtype=np.int64)
    else:
        lams = np.arange(1, p, dtype=np.int64)
    terms = [(s, data.draw(weights)) for s in shifts]
    asked = None if lams_kind == "full request" else lams
    assert np.array_equal(shifted_sums(chi, asked, terms), shifted_sums_by_add_at(chi, lams, terms))


@pytest.mark.parametrize("d, bound_mib", [(2, 24), (2, 11), (6, 78)])
def test_de_moment_sign_weights_peak_memory(d, bound_mib):
    """+-1 weights at p = 1000003 and 12 shifts, with the index table built: order 2 tallies
    one-hot rows in int16 and peaks below 11 MiB (near 9.6 MiB; int32 rows peaked near 13.4),
    order 6 in float64 in place and peaks below 78 MiB (float64 rows with per-shift temporaries
    peak near 35 and 80 MiB, an integer tally cast to float64 for the order-6 contraction near
    97 MiB)."""
    p = 1_000_003
    chi = make_character(field(p), d)
    chi.index_table()
    shifts = sorted(random.Random(11).sample(range(1, p), 12))
    alpha = WeightSeq.signs(shifts, random.Random(12))
    tracemalloc.start()
    try:
        value = de_moment(chi, shifts, alpha, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20
    assert value == int(value) > 0


def test_shifted_sums_int16_tally_boundary():
    """One cell of the +-1 order-2 tally reaches 2^15 - 1 in int16 and matches the oracle;
    at 2^15 terms the float64 route gives the same values.

    At p = 65537 the shifts s = r - lam0, r over the 2^15 quadratic residues and lam0 a
    non-residue, put every term of the lam0 cell on index 0.  The full-range request agrees
    with the sparse one at the boundary.
    """
    p = 65537
    chi = make_character(field(p), 2)
    ktab = chi.index_table()
    squares = np.flatnonzero(ktab == 0)
    lam0 = int(np.flatnonzero(ktab == 1)[0])
    lams = np.array(sorted({1, 2, lam0, p // 2, p - 1}), dtype=np.int64)
    at = int(np.flatnonzero(lams == lam0)[0])
    for n, dtype in ((2**15 - 1, np.int16), (2**15, np.float64)):
        terms = [(int(r) - lam0, 1.0) for r in squares[:n]]
        got = shifted_sums(chi, lams, terms)
        assert got.dtype == dtype
        assert got[at] == n
        assert np.array_equal(got, shifted_sums_by_add_at(chi, lams, terms))
        if dtype == np.int16:
            assert np.array_equal(shifted_sums(chi, None, terms)[lams - 1], got)


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


def test_interval_sum_caps_N(monkeypatch):
    """The N + 1 arguments are an array of their own, held to the table cap even when p is under it."""
    chi = make_character(field(101), 2)
    monkeypatch.setenv("DETSUM_MAX_TABLE", "1000")
    with pytest.raises(TooLarge, match="N=5000 exceeds the table cap 1000"):
        interval_sum(chi, 0, 5000)
    assert interval_sum(chi, 0, 1000).zero_terms == 10  # 0, 101, ..., 909


def eval_tally(chi, M, N):
    """Accumulator of chi(n) for n in [M, M+N], one scalar chi.eval per term, tallied by a Counter."""
    vals = Counter(chi.eval(n % chi.field.p) for n in range(M, M + N + 1))
    return CharSumAccumulator(chi.d, [vals[(False, k)] for k in range(chi.d)], vals[CHAR_ZERO])


def test_interval_sum_legendre_mod7():
    chi = make_character(field(7), 2)
    acc = interval_sum(chi, 1, 2)  # chi(1) + chi(2) + chi(3)
    assert acc.int_value() == 1


def test_interval_sum_single_term():
    chi = make_character(field(7), 2)
    assert interval_sum(chi, 0, 0) == CharSumAccumulator(2, [0, 0], 1)
    acc = interval_sum(chi, 10, 0)  # 10 mod 7 = 3, a non-residue
    assert acc.int_value() == -1


def test_interval_sum_matches_scalar_eval(rng):
    for _ in range(25):
        p, d = rng.choice(((11, 2), (13, 3), (17, 4), (31, 5)))
        chi = make_character(field(p), d)
        M = rng.randrange(-50, 50)
        N = rng.randrange(0, 120)
        assert interval_sum(chi, M, N) == eval_tally(chi, M, N)


@given(
    st.sampled_from(((11, 2), (13, 3), (13, 4), (13, 6), (17, 4), (31, 5), (37, 6), (61, 4), (97, 3))),
    st.integers(),
    st.integers(0, 300),
)
def test_interval_sum_property(pd, M, N):
    # any integer start, negative and far beyond int64 included; N up to 300 wraps round p
    p, d = pd
    chi = make_character(field(p), d)
    assert interval_sum(chi, M, N) == eval_tally(chi, M, N)


def test_conjugate_reverses_indices(rng):
    for p, d in ((13, 3), (17, 4), (31, 6)):
        chi, bar = make_character(field(p), d), make_character(field(p), d, -1)
        M, N = rng.randrange(-20, 20), rng.randrange(1, 80)
        acc, acc_bar = interval_sum(chi, M, N), interval_sum(bar, M, N)
        assert acc_bar.counts.tolist() == acc.counts[-np.arange(d) % d].tolist()  # counts[k] -> counts[-k mod d]
        assert acc_bar.zero_terms == acc.zero_terms


def test_accumulator_value():
    acc = CharSumAccumulator(3, [2, 1, 1], 4)
    w = cmath.exp(2j * math.pi / 3)
    assert abs(acc.value() - (2 + w + w * w)) < 1e-12
    with pytest.raises(ValueError):
        acc.int_value()


@pytest.mark.parametrize("d", [3, 4, 6, 12])
def test_contract_matches_complex_product(d):
    """Real and imaginary parts contracted apart equal the complex product, exactly at d = 4."""
    rng = np.random.default_rng(d)
    for per_index in (rng.integers(-1000, 1000, size=d), rng.integers(-1000, 1000, size=(d, 50)).astype(float)):
        got = contract(per_index, d)
        want = roots_of_unity(d) @ per_index
        assert got.shape == want.shape
        if d == 4:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)


def test_exact_zero_detection():
    assert CharSumAccumulator(2, [5, 5], 3).is_exactly_zero()
    assert not CharSumAccumulator(2, [5, 4], 0).is_exactly_zero()
    assert CharSumAccumulator(4, [2, 7, 2, 7], 0).is_exactly_zero()


def test_weightseq_validation():
    with pytest.raises(WeightOutOfRange):
        WeightSeq({1: 1.5})
    w = WeightSeq({1: 1.0, 2: -1.0, 3: 0.25})
    assert w[1] == 1.0 and w[3] == 0.25
    ones = WeightSeq.ones([2, 5])
    assert ones[2] == ones[5] == 1.0
    with pytest.raises(KeyError):  # lookups are strict
        ones[3]


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
