"""Least non-residue scans and the small non-square construction."""

import itertools
import math
import random
from collections import Counter

import pytest

from detsums import cli, fp_arith, residues
from detsums import (
    NotPrime,
    SmallNonSquareMatrix,
    TooLarge,
    construct_nonsquare,
    count_nonresidues,
    has_square_root,
    least_nonresidue,
    nonresidue_report,
)
from detsums.mat2 import reduce_mat
from detsums.fp_arith import is_prime, make_field

from conftest import field, primes_upto


def test_least_examples():
    assert least_nonresidue(field(3)) == 2
    assert least_nonresidue(field(5)) == 2  # squares mod 5 are {1, 4}
    assert least_nonresidue(field(7)) == 3  # squares mod 7 are {1, 2, 4}


def test_least_scan_oracle():
    for p in (11, 13, 17, 19, 23, 73):
        F = field(p)
        squares = {(x * x) % p for x in range(1, p)}
        want = next(n for n in range(2, p) if n not in squares)
        assert least_nonresidue(F) == want
        assert want <= (p + 1) // 2


def test_int_path_matches_field_path():
    for p in primes_upto(200)[1:]:
        p = int(p)
        assert least_nonresidue(p) == least_nonresidue(field(p))


def test_int_path_validates():
    with pytest.raises(NotPrime):
        least_nonresidue(15)
    with pytest.raises(NotPrime):
        least_nonresidue(2)
    with pytest.raises(TooLarge, match="p=3317044064679887385961981 is at or above"):
        count_nonresidues(fp_arith._MR_LIMIT, 10)  # psi_13, the bound below which primality is proven


@pytest.fixture
def prime_checks(monkeypatch):
    """Counter of fp_arith.is_prime calls by argument."""
    calls = Counter()
    real = fp_arith.is_prime

    def spy(n):
        calls[n] += 1
        return real(n)

    monkeypatch.setattr(fp_arith, "is_prime", spy)
    return calls


def test_report_checks_an_int_prime_once(prime_checks):
    for p in (10007, 101, 10007):  # no memory across reports: 10007 is checked again after 101
        prime_checks.clear()
        nonresidue_report(p, 10)
        assert prime_checks == {p: 1}
    prime_checks.clear()
    nonresidue_report(fp_arith.make_field(211), 10)
    assert prime_checks == {211: 1}  # by make_field; the report does not test a field again


def test_scan_checks_each_prime_at_most_twice(prime_checks, capsys):
    """A sieved --p-range prime is never tested: the sieve has already decided it."""
    assert cli.main(["scan", "--kind", "nonresidue", "--p-range", "3:200", "--out", "-"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(primes_upto(200)[1:])
    assert prime_checks == {}


def test_scan_checks_range_primes_only_in_reports(prime_checks):
    """A sieved --p-range prime is tested by no layer; a --p value once, by the CLI."""
    assert cli.main(["scan", "--kind", "nonresidue", "--p-range", "3:200", "--p", "211", "--out", "-"]) == 0
    assert prime_checks == {211: 1}


def test_census_scan_checks_each_prime_once(prime_checks, capsys):
    """make_field does not test again a prime the CLI has sifted or checked."""
    assert cli.main(["scan", "--kind", "census", "--p-range", "3:50", "--p", "211", "--out", "-"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(primes_upto(50)[1:]) + 1
    assert prime_checks == {211: 1}


def test_not_prime_is_never_cached():
    for _ in range(2):
        with pytest.raises(NotPrime):
            nonresidue_report(9, 2)
        with pytest.raises(NotPrime):
            least_nonresidue(15)


def test_least_is_prime_sample():
    for p in primes_upto(20_000)[1:]:
        assert is_prime(least_nonresidue(int(p)))


def euler_counts(p, X):
    """[#{1 <= n <= x : n^((p-1)/2) != 1 mod p} for x = 0, ..., X], by scalar Euler's criterion."""
    e = (p - 1) // 2
    return list(itertools.accumulate((pow(n, e, p) != 1 for n in range(1, X + 1)), initial=0))


def test_count_matches_euler_every_X():
    """The parity walk equals the scalar Euler count at every X in [1, p - 1], every odd p < 300."""
    for p in primes_upto(300)[1:]:
        F = fp_arith.make_field(p)
        assert [count_nonresidues(F, X) for X in range(1, F.p)] == euler_counts(F.p, F.p - 1)[1:], p


@pytest.mark.parametrize("p, top", [(1000003, 60000), (2147398009, 46340)])
def test_count_matches_euler_sampled(p, top):
    """Sampled X, each prime power q^e <= top of a small q and q^e - 1 among them, against the scalar count."""
    want = euler_counts(p, top)
    rng = random.Random(p)
    xs = {1, 2, top} | {rng.randrange(1, top + 1) for _ in range(8)}
    for q in (2, 3, 23, 211):
        qe = q
        while qe <= top:
            xs |= {qe, qe - 1}
            qe *= q
    F = fp_arith.make_field(p)
    assert {X: count_nonresidues(F, X) for X in xs} == {X: want[X] for X in xs}


def odd_primes(lo, count):
    """The first `count` primes >= lo, as fields."""
    out, p = [], lo
    while len(out) < count:
        if is_prime(p):
            out.append(fp_arith.make_field(p))
        p += 1
    return out


@pytest.mark.parametrize("size", range(1, 10))
def test_batched_counts_match_euler(size):
    """A run of `size` consecutive primes from 3 (so 3, 5 and 7 with X as small as 1 and 2), one bit of the byte
    each and a ninth on a second walk: every count on its own prefix [1, X_j], at random X_j and at the CLI's
    --x-limit X_j = min(limit, p - 1), which differ across the run."""
    rng = random.Random(size)
    for lo in (3, 1000, 1000003):
        ps = odd_primes(lo, size)
        wants = [euler_counts(F.p, min(F.p - 1, 3000)) for F in ps]
        draws = [[rng.randint(1, min(F.p - 1, 3000)) for F in ps] for _ in range(3)]
        limits = [[min(limit, F.p - 1) for F in ps] for limit in (1, 2, 5, 50)]
        for Xs in draws + limits + [[min(max(2, math.isqrt(F.p)), F.p - 1) for F in ps]]:
            assert [count for count, _ in residues._counts_and_least(ps, Xs)] == [want[X] for want, X in zip(wants, Xs)], (ps, Xs)


def test_batched_reports_match_one_by_one():
    """The CLI's runs of eight: each report equals the batch-of-one report, fields and int paths alike."""
    ps = [F.p for F in odd_primes(3, 8)] + [2147398009]
    Xs = [min(5, p - 1) for p in ps[:8]] + [46340]
    reports = residues.nonresidue_reports([*ps[:4], *map(field, ps[4:8]), ps[8]], Xs)
    assert reports == [nonresidue_report(p, X) for p, X in zip(ps, Xs)]
    assert reports[-1].count == count_nonresidues(2147398009, 46340) == 21174  # the pinned worst prime


def test_window_z_p_matches_euler_scan_below_10_4():
    """At the CLI's default X, the window's least flagged prime of each run of eight is `least_nonresidue` at every
    odd prime below 10^4 whose z_p <= X, and is missing (-1) at the others; every report's z_p is the scan's."""
    Fs = [field(p) for p in primes_upto(10_000)[1:].tolist()]
    Xs = [min(max(2, math.isqrt(F.p)), F.p - 1) for F in Fs]
    zs = [least_nonresidue(F) for F in Fs]
    assert [z for _, z in residues._counts_and_least(Fs, Xs)] == [z if z <= X else -1 for z, X in zip(zs, Xs)]
    assert [rep.z_p for rep in residues.nonresidue_reports(Fs, Xs)] == zs


def test_window_z_p_falls_back_to_euler_scan_past_X(monkeypatch):
    """A run of eight at X = 2 mixes z_p = 2 (p = +-3 mod 8) with z_p >= 3 (p = +-1 mod 8): only the latter scan."""
    scanned = []

    def spy(F):
        scanned.append(F.p)
        return least_nonresidue(F)

    monkeypatch.setattr(residues, "least_nonresidue", spy)
    Fs = odd_primes(3, 8)  # 3, 5, 7, 11, 13, 17, 19, 23
    reports = residues.nonresidue_reports(Fs, [2] * 8)
    assert scanned == [7, 17, 23]
    assert [rep.z_p for rep in reports] == [2, 2, 3, 2, 2, 3, 2, 5]


def test_nonresidue_scan_csv_matches_euler_rows(capsys):
    """`scan --kind nonresidue --p-range 3:10000` prints, byte for byte, the rows built from the Euler scan and
    the Euler count at the default X."""
    assert cli.main(["scan", "--kind", "nonresidue", "--p-range", "3:10000", "--out", "-"]) == 0
    lines = ["p,z_p,kappa_empirical,X,count,density"]
    for p in primes_upto(10_000)[1:].tolist():
        z, X = least_nonresidue(p), min(max(2, math.isqrt(p)), p - 1)
        count = euler_counts(p, X)[X]
        lines.append(",".join(map(str, (p, z, math.log(z) / math.log(p), X, count, count / X))))
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_batched_counts_check_each_prime_in_order():
    """A bad entry of a run raises what a count of one raises, the first bad one in order."""
    with pytest.raises(NotPrime):
        residues._counts_and_least([7, 9, fp_arith._MR_LIMIT], [3, 2, 10])
    with pytest.raises(TooLarge):
        residues._counts_and_least([7, fp_arith._MR_LIMIT, 9], [3, 10, 2])
    with pytest.raises(ValueError, match="X=7"):
        residues._counts_and_least([11, 7], [3, 7])


def euler_nonresidue_primes(p, X):
    """The primes q <= X with q^((p-1)/2) != 1 mod p: Euler's criterion mod p at each."""
    return [q for q in primes_upto(X).tolist() if pow(q, (p - 1) // 2, p) != 1]


def reciprocity_nonresidue_primes(p, X):
    window = residues._nonresidue_primes((fp_arith.make_field(p).p,), (X,))
    assert len(window) == X + 1
    return [q for q, flag in enumerate(window) if flag]


def test_reciprocity_matches_euler_below_3000():
    """Every prime q < p for every odd prime p < 3000: the window's symbols equal Euler's mod p."""
    for p in primes_upto(3000)[1:].tolist():
        assert reciprocity_nonresidue_primes(p, p - 1) == euler_nonresidue_primes(p, p - 1), p


def test_reciprocity_two_in_every_odd_class_mod_8():
    """(2/p) read off p mod 8, against Euler's criterion, for primes in each of the four odd classes."""
    seen = Counter()
    for p in [*primes_upto(200)[1:].tolist(), 1000003, 2147398009, 2147483629, 2147483647, 2147483587]:
        seen[p % 8] += 1
        window = residues._nonresidue_primes((fp_arith.make_field(p).p,), (2,))
        assert bool(window[2]) == (pow(2, (p - 1) // 2, p) != 1), p
    assert sorted(seen) == [1, 3, 5, 7]


@pytest.mark.parametrize("p", [898716289, 2147398009, 2147483629])
def test_reciprocity_matches_euler_near_2_31(p):
    """Every prime q <= 10^4 at large p, both classes mod 4 (898716289 and 2147398009 are 1 mod 4)."""
    assert reciprocity_nonresidue_primes(p, 10_000) == euler_nonresidue_primes(p, 10_000)


def test_count_takes_no_power_mod_p(monkeypatch):
    """Reciprocity: the count's powers run mod the primes q <= X, never mod p."""
    moduli = set()

    def spy(base, exp, mod):
        moduli.add(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(residues, "pow", spy, raising=False)  # shadows the builtin in the module
    F, X = fp_arith.make_field(2147483629), 500
    assert count_nonresidues(F, X) == euler_counts(F.p, X)[X]
    assert moduli and F.p not in moduli and max(moduli) <= X


def test_count_full_range():
    for p in (5, 13, 101):
        assert count_nonresidues(field(p), p - 1) == (p - 1) // 2


def test_count_examples(rng):
    assert count_nonresidues(field(7), 4) == 1  # only n = 3
    F = field(23)
    z = least_nonresidue(F)
    assert count_nonresidues(F, z - 1) == 0
    assert count_nonresidues(23, 11) == count_nonresidues(F, 11)
    for p in rng.sample([int(q) for q in primes_upto(5000)[1:]], 20):
        X = rng.randrange(1, p)
        assert count_nonresidues(p, X) == count_nonresidues(field(p), X)


def test_count_monotone():
    F = field(97)
    prev = 0
    for X in range(1, 97):
        cur = count_nonresidues(F, X)
        assert cur >= prev
        prev = cur


def test_report_fields():
    rep = nonresidue_report(field(7), 6)
    assert rep == (7, 3, 6, 3, math.log(3) / math.log(7))


def test_construct_fixtures():
    # Re-derive by following the construction by hand:
    # p=7: z=3, a=ceil(sqrt 3)=2, b=(-3) mod 2=1, c=1, d=(3+1)/2=2
    assert construct_nonsquare(field(7)) == (2, 1, 1, 2, 3)
    # p=5: z=2, a=2, b=(-2) mod 2=0 -> b=a=2, d=(2+2)/2=2
    assert construct_nonsquare(field(5)) == (2, 2, 1, 2, 2)


def test_construct_invariants():
    for p in primes_upto(2000)[1:]:
        F = make_field(int(p))
        m = construct_nonsquare(F)
        z = least_nonresidue(F)
        bound = math.isqrt(z)
        if bound * bound < z:
            bound += 1
        assert m.det_value == z
        assert m.a * m.d - m.b * m.c == z
        assert 1 <= min(m.a, m.b, m.c, m.d)
        assert max(m.a, m.b, m.c, m.d) <= bound + 1
        assert not has_square_root(reduce_mat((m.a, m.b, m.c, m.d), F), F).found


def test_worst_prime_near_2_31(capsys):
    """The worst prime of the window below 2^31, least non-residue 23: its scan row and its small non-square."""
    assert cli.main(["scan", "--kind", "nonresidue", "--p", "2147398009"]) == 0
    (line,) = capsys.readouterr().out.splitlines()[1:]
    p, z, _, X, count, _ = line.split(",")
    assert (p, z, X, count) == ("2147398009", "23", "46340", "21174")
    assert count_nonresidues(2147398009, 46340) == 21174
    assert construct_nonsquare(make_field(2147398009)) == SmallNonSquareMatrix(5, 2, 1, 5, 23)


def test_construct_above_table_cap():
    """The square-root decision builds no table, so the construction runs above the 2*10^6 table cap."""
    assert construct_nonsquare(make_field(3000017)).det_value == least_nonresidue(3000017)


def test_construct_near_2_61():
    """Above 2^31 too: at p = 2305843009878671041, z_p = 131, and the verified matrix is (12, 1, 1, 11)."""
    F = make_field(2305843009878671041)
    assert construct_nonsquare(F) == SmallNonSquareMatrix(12, 1, 1, 11, 131)
    assert F.legendre(131) == -1 and all(F.legendre(n) == 1 for n in range(2, 131))
