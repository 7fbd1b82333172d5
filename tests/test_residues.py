"""Least non-residue scans and the small non-square construction."""

import itertools
import math
import random
from collections import Counter

import pytest

from detsums import cli, fp_arith
from detsums import (
    NotPrime,
    SmallNonSquareMatrix,
    construct_nonsquare,
    count_nonresidues,
    has_square_root,
    least_nonresidue,
    nonresidue_report,
)
from detsums.mat2 import reduce_mat
from detsums.sifter import primes_upto
from detsums.fp_arith import is_prime, make_field

from conftest import field


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
    nonresidue_report(fp_arith.check_odd_prime(211), 10)
    assert prime_checks == {211: 1}  # by check_odd_prime; the report does not test a checked prime again


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
        p = fp_arith.check_odd_prime(p)
        assert [count_nonresidues(p, X) for X in range(1, p)] == euler_counts(p, p - 1)[1:], p


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
    p = fp_arith.check_odd_prime(p)
    assert {X: count_nonresidues(p, X) for X in xs} == {X: want[X] for X in xs}


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
