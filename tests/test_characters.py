"""Index tables, tallies, accumulators, moment sums."""

import cmath
import itertools
import math
import operator
import pathlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detsums import (
    BadOrder,
    InternalInvariantViolation,
    WeightOutOfRange,
    WeightSeq,
    de_moment,
    make_character,
)
from detsums import characters, cli, fp_arith, residues
from detsums.characters import (
    CharSumAccumulator,
    contract,
    roots_of_unity,
    shifted_sum_blocks,
    shifted_sums,
)
from detsums.fp_arith import prime_factor_tally, step_tables

from conftest import HIGH_ORDER_PAIRS, dlog_by_loop, field, primes_upto, shifted_sums_by_add_at

ODD_PRIMES_BELOW_5000 = [int(q) for q in primes_upto(5000)[1:]]


def index_dtype(d):
    """The one dtype of an order-d index table: the narrowest signed type holding -1..d-1."""
    return np.int8 if d <= 128 else np.int16 if d <= 32768 else np.int32


def full_range(chi, terms):
    """The blocks of shifted_sum_blocks joined into one row over lam = 1..p-1."""
    return np.concatenate(list(shifted_sum_blocks(chi, terms)))


def test_make_character_order_three():
    chi = make_character(field(7), 3)
    g, tab = fp_arith.find_primitive_root(7), chi.index_table()
    assert tab[g] == 1  # chi(g) = e(1/3), not 1
    assert tab[g * g % 7] == 2
    assert tab[pow(g, 3, 7)] == 0  # chi(g)^3 = 1: exact order 3


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
        tab = make_character(F, 2).index_table()
        assert tab[0] == -1
        for x in range(1, p):
            assert (1 if tab[x] == 0 else -1) == F.legendre(x)


def test_eval_examples():
    """The order-2 table mod 5, read entry by entry; -1 stands for chi(0) = 0."""
    tab = make_character(field(5), 2).index_table()
    assert tab[1] == 0
    assert tab[2] == 1  # 2 is a non-residue mod 5
    assert tab[0] == -1


def test_index_is_multiplicative():
    tab = make_character(field(13), 4).index_table()
    for x in range(1, 13):
        for y in range(1, 13):
            assert tab[x * y % 13] == (tab[x] + tab[y]) % 4


# (p, d) with gcd(B, d) > 1 for B = ceil(sqrt(p - 1)), and d * B above the smaller walk blocks,
# so blocks start at k with k mod d running through more than one offset
SHARED_FACTOR_ORDERS = ((37, 4), (37, 18), (101, 20), (101, 50), (4801, 20), (4817, 56))


@given(st.data())
def test_index_table_matches_dlog_oracle(data):
    """index_table() is (dlog * power) mod d, for drawn p, d | p-1, power and walk block.  Every
    p < 5000 fits one real block; blocks of 1, 5 and 64 entries run several, on orders that
    share a factor with B among them."""
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
    dlog = dlog_by_loop(p, fp_arith.find_primitive_root(p)).astype(np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "_WALK_BLOCK", block)
        tab = chi.index_table()
    assert tab.dtype == index_dtype(d)
    assert np.array_equal(tab, np.where(dlog < 0, -1, dlog * power % d))


@pytest.mark.parametrize(
    "p, d, dtype", [(257, 128, np.int8), (257, 256, np.int16), (65537, 32768, np.int16), (65537, 65536, np.int32)]
)
def test_index_table_dtype_boundaries(p, d, dtype):
    """At each edge of the dtype rule the table takes exactly the one dtype, and its entries
    (up to d - 1, the top of the type for int8 and int16) are the oracle's."""
    F = field(p)
    tab = make_character(F, d).index_table()
    dlog = dlog_by_loop(p, fp_arith.find_primitive_root(p)).astype(np.int64)
    assert tab.dtype == dtype == index_dtype(d)
    assert np.array_equal(tab, np.where(dlog < 0, -1, dlog % d))
    assert tab.max() == d - 1


def test_index_table_order_two_is_euler_at_a_million():
    """At the real block size and p = 1000003 (16 blocks), the order-2 table is the parity walk
    that `count_nonresidues` counts: Euler's criterion at each prime q < p by reciprocity, taken
    mod q, then flipped at the multiples of every non-residue prime power.  Neither g nor a
    power mod p enters it."""
    p = 1_000_003
    tab = make_character(field(p), 2).index_table()
    walk = prime_factor_tally(residues._nonresidue_primes((p,), (p - 1,)), p - 1, step_tables(operator.xor))
    assert tab[0] == -1
    assert tab[1:].tobytes() == walk[1:]


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


@pytest.mark.parametrize("p, bound_mib", [(1_000_003, 7), (1_999_993, 12), (1_000_003, 3.5)])
def test_index_table_build_peak_memory(p, bound_mib):
    """The blocked walk holds one block of the g^k walk beside the table, int8 at order 2
    (0.95 MiB at p = 1000003, 1.9 MiB at p = 1999993): peaks near 2.3 and 4.3 MiB.  The int32
    table peaked near 5.4 and 10.2 MiB, the whole walk as int64 with a full-length tile near
    15.3 and 30.5 MiB."""
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
    """A tile capped at p - 1 entries spans the whole walk; blocks of any row count read
    their own slices of it, each at its start k mod d."""
    F = field(p)
    dlog = dlog_by_loop(p, fp_arith.find_primitive_root(p)).astype(np.int64)
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


def test_index_table_large_order_build_peak_memory():
    """At p = 1000003, d = 166667 the int32 tile covers one walk block plus d - 1 entries
    (about 0.9 MiB), not the whole walk (3.8 MiB): the build peaks near 6.25 MiB, where a tile
    of the whole walk peaked near 8.8 MiB."""
    p = 1_000_003
    chi = make_character(field(p), 166_667)
    tracemalloc.start()
    try:
        chi.index_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2**20


@given(st.data())
def test_tally_matches_eval(data):
    """tally(xs) and tally(xs, weights) total chi(x mod p) as the index table reads it, one entry at a
    time, for drawn p, d | p-1.

    xs mixes negatives, values >= p and multiples of p; weighted per-index
    totals are summed in element order, so they match the loop exactly.
    """
    p = data.draw(st.sampled_from(ODD_PRIMES_BELOW_5000))
    d = data.draw(st.sampled_from([q for q in range(2, p) if (p - 1) % q == 0]))
    chi = make_character(field(p), d)
    tab = chi.index_table()
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
        k = int(tab[x % p])
        if k < 0:
            zero_terms += 1
            zero_sum += w
        else:
            counts[k] += 1
            sums[k] += w
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
    full range as an array, and the full range in blocks from shifted_sum_blocks."""
    chi = make_character(field(p), d)
    shifts = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=1, max_size=8))
    if lams_kind == "sparse":
        drawn = data.draw(st.sets(st.integers(1, p - 1), min_size=1, max_size=p // 2))
        hit_zero = -shifts[0] % p  # lam + s = 0 mod p for the first shift
        lams = np.array(sorted(drawn | ({hit_zero} if hit_zero else set())), dtype=np.int64)
    else:
        lams = np.arange(1, p, dtype=np.int64)
    terms = [(s, data.draw(weights)) for s in shifts]
    got = full_range(chi, terms) if lams_kind == "full request" else shifted_sums(chi, lams, terms)
    assert np.array_equal(got, shifted_sums_by_add_at(chi, lams, terms))


@pytest.mark.parametrize("d, bound_mib", [(2, 24), (2, 11), (6, 78), (2, 5), (3, 10), (6, 16)])
def test_de_moment_sign_weights_peak_memory(d, bound_mib):
    """+-1 weights at p = 1000003 and 12 shifts, with the index table built: one block of 2^16
    tally rows and its readout, int16 at order 2, float64 above, so warm peaks near 1.2, 5.6
    and 8.6 MiB at orders 2, 3 and 6 with the fixed-order readout's product buffer (4.6 and
    6.1 MiB by matrix product; 3.1, 7.4 and 11.7 MiB with d one-hot rows beside them).
    p-length rows peaked near 9.6 MiB (int16), 48.6 and 74.4 MiB (float64), int32 rows near
    13.4 MiB at order 2 and an integer tally cast to float64 near 97 MiB at order 6."""
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


@pytest.mark.parametrize("block", (1, 5, 64))
@pytest.mark.parametrize("d", (2, 3, 4, 6))
@pytest.mark.parametrize("weights", ("signs", "fractional"))
def test_de_moment_blocks_match_oracle(monkeypatch, block, d, weights):
    """Blocks of 1, 5 and 64 lams at p = 73, with the shifts 1 and p - 1 so that lam + s wraps
    inside a block.  The joined blocks equal the add-at oracle bit for bit at every order: the
    contraction adds each column's d products in a fixed order, whatever the block's length.
    The moment is sum |inner|^(2 nu) over the oracle's inner sums, exactly (==) for +-1 weights
    at orders 2 and 4, within the stated relative 1e-12 otherwise."""
    monkeypatch.setattr(characters, "_WALK_BLOCK", block)
    p = 73
    chi = make_character(field(p), d)
    rng = random.Random("blocks-%d-%d-%s" % (block, d, weights))
    shifts = sorted({1, p - 1} | set(rng.sample(range(2, p - 1), 4)))
    if weights == "signs":
        alpha = WeightSeq.signs(shifts, rng)
    else:
        alpha = WeightSeq({s: rng.uniform(-1.0, 1.0) for s in shifts})
    terms = [(s, alpha[s]) for s in shifts]
    inner = shifted_sums_by_add_at(chi, np.arange(1, p, dtype=np.int64), terms)
    assert [len(b) for b in shifted_sum_blocks(chi, terms)] == [min(block, p - lo) for lo in range(1, p, block)]
    assert np.array_equal(full_range(chi, terms), inner)
    mag2 = np.square(inner.real) + np.square(np.imag(inner))
    for nu in (1, 2, 3, 6):
        want = float(np.sum(mag2**nu))
        got = de_moment(chi, shifts, alpha, nu)
        if weights == "signs" and d in (2, 4):
            assert got == want
        else:
            assert math.isclose(got, want, rel_tol=1e-12)


def test_shifted_sums_int16_tally_boundary():
    """One cell of the +-1 order-2 tally reaches 2^15 - 1 in int16 and matches the oracle;
    at 2^15 terms the float64 route gives the same values.

    At p = 65537 the shifts s = r - lam0, r over the 2^15 quadratic residues and lam0 a
    non-residue, put every term of the lam0 cell on index 0.  The full range, joined from its
    blocks, agrees with the sparse request at the boundary.
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
            assert np.array_equal(full_range(chi, terms)[lams - 1], got)


def test_minus_one_index():
    # p = 3 mod 4: Legendre is odd; p = 1 mod 4: even
    assert make_character(field(7), 2).is_odd()
    assert not make_character(field(13), 2).is_odd()
    chi3 = make_character(field(13), 3)
    assert chi3.index_table()[12] == chi3.minus_one_index()


def test_conjugate_reverses_indices():
    """The conjugate character's index on each unit is -k mod d; both tables read -1 at 0."""
    for p, d in ((13, 3), (17, 4), (31, 6)):
        tab, bar = make_character(field(p), d).index_table(), make_character(field(p), d, -1).index_table()
        assert np.array_equal(bar[1:], -tab[1:] % d)
        assert tab[0] == bar[0] == -1


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
    assert CharSumAccumulator(3, [4, 4, 4], 0).is_exactly_zero()  # odd d: only all counts equal
    assert not CharSumAccumulator(3, [4, 4, 5], 0).is_exactly_zero()


@pytest.mark.parametrize("d", [4, 6, 8, 10, 12, 16, 30, 1000, 65536])
def test_paired_counts_read_out_as_exact_zero(d):
    """Counts equal at k and k + d/2, as an odd character's are, contract to 0 exactly at every even order."""
    rng = np.random.default_rng(d)
    half = rng.integers(0, 10**6, size=d // 2)
    acc = CharSumAccumulator(d, np.concatenate((half, half)), 0)
    assert acc.is_exactly_zero()
    assert acc.value() == 0
    per_index = np.concatenate((half, half)).reshape(d, 1) * np.arange(1, 6)
    assert np.array_equal(contract(per_index.astype(float), d), np.zeros(5))


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
        roots, tab = roots_of_unity(d), chi.index_table()
        naive = 0.0
        for lam in range(1, p):
            inner = 0.0 + 0.0j
            for s in shifts:
                k = tab[(lam + s) % p]
                if k >= 0:
                    inner += alpha[s] * roots[k]
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
