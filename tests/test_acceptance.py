"""Acceptance suite: pinned end-to-end checks at stated tolerances.

Each test prints one [PASS]/[FAIL] line (run with -s to see them live).
Tolerances are frozen here on purpose; a change in any of these numbers
is a behavioral regression, not a tuning knob.
"""

import contextlib
import csv
import math
import random
import warnings

import numpy as np

import detsums
from detsums import (
    Mat2,
    WeightSeq,
    census,
    construct_nonsquare,
    count_nonresidues,
    de_moment,
    delta_profile,
    has_square_root,
    holder_chain,
    least_nonresidue,
    make_character,
    make_field,
    mul,
    pair_image_census,
    ratio_bins,
    s_sum_binned,
    s_sum_direct,
    sift,
    t_abs_sum,
    t_abs_sum_direct,
    u_sum,
    u_sum_direct,
)
from detsums import cli
from detsums.fp_arith import is_prime
from detsums.mat2 import det, reduce_mat
from detsums.sifter import primes_upto

from conftest import field


@contextlib.contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print("[FAIL] criterion %d: %s" % (number, text))
        raise
    print("[PASS] criterion %d: %s" % (number, text))


def test_criterion_01_square_decision_complete():
    with criterion(1, "square decision agrees with full enumeration, p in 3..13"):
        for p in (3, 5, 7, 11, 13):
            F = field(p)
            mats = [Mat2(a, b, c, d) for a in range(p) for b in range(p) for c in range(p) for d in range(p)]
            squares = {mul(B, B, F) for B in mats}
            disagreements = sum(1 for A in mats if has_square_root(A, F).found != (A in squares))
            assert disagreements == 0, "p=%d: %d disagreements" % (p, disagreements)
            assert census(F).n_square == len(squares)


def test_criterion_02_census_ratio():
    with criterion(2, "census ratio within 5/p of 5/8 and deviation nonincreasing, p in {31,61,101,127}"):
        devs = []
        for p in (31, 61, 101, 127):
            cen = census(field(p))
            dev = abs(cen.ratio - 5 / 8)
            assert dev <= 5 / p, "p=%d: |ratio - 5/8| = %g > %g" % (p, dev, 5 / p)
            devs.append(dev)
        assert all(a >= b for a, b in zip(devs, devs[1:])), "deviations not nonincreasing: %s" % devs


def test_criterion_03_pair_image_count():
    with criterion(3, "pair image within 4p of 3p^2/8, p in {11,31,101}"):
        for p in (11, 31, 101):
            pic = pair_image_census(field(p))
            dev = abs(pic.image_size - 3 * p * p / 8)
            assert dev <= 4 * p, "p=%d: |image - 3p^2/8| = %g > %g" % (p, dev, 4 * p)


def _primes_3_mod_4():
    ps = [int(p) for p in primes_upto(10_000) if p % 4 == 3 and p > 50]
    return ps[:10] + ps[-10:]


def test_criterion_04_odd_character_vanishing():
    with criterion(4, "odd quadratic character: S(N) is the exact zero accumulator, 20 primes, N in {5,20,50}"):
        ps = _primes_3_mod_4()
        assert len(ps) == 20
        for p in ps:
            F = make_field(p)
            chi = make_character(F, 2)
            assert chi.is_odd()
            for N in (5, 20, 50):
                for acc in (s_sum_direct(chi, N), s_sum_binned(chi, N)):
                    assert acc.int_value() == 0, "p=%d N=%d" % (p, N)
                    assert acc.is_exactly_zero()


_INSTANCES = None


def _c5_instances():
    """100 randomized instances shared by criteria 5 and 8."""
    global _INSTANCES
    if _INSTANCES is not None:
        return _INSTANCES
    rng = random.Random("acceptance-criterion-5")
    primes = [int(p) for p in primes_upto(97) if p >= 5]
    out = []
    for _ in range(100):
        p = rng.choice(primes)
        d = 3 if (p - 1) % 3 == 0 and rng.random() < 0.4 else 2
        N = rng.randrange(1, min(13, p))
        while True:
            A, B, C = (rng.randrange(1, 11) for _ in range(3))
            if A * B * C < p:
                break
        shifts = sorted(rng.sample(range(1, p), rng.randrange(1, min(9, p))))
        out.append(
            {
                "p": p,
                "d": d,
                "N": N,
                "ABC": (A, B, C),
                "shifts": shifts,
                "alpha": {s: float(rng.choice((-1, 1))) for s in shifts},
                "ua": {i: float(rng.choice((-1, 1))) for i in range(1, N + 1)},
                "ub": {i: float(rng.choice((-1, 1))) for i in range(1, N + 1)},
            }
        )
    _INSTANCES = out
    return out


def test_criterion_05_binned_direct_equivalence():
    with criterion(5, "binned vs direct on 100 randomized instances: s/u exact, t within 1e-9"):
        for inst in _c5_instances():
            chi = make_character(field(inst["p"]), inst["d"])
            assert s_sum_binned(chi, inst["N"]) == s_sum_direct(chi, inst["N"])
            ub = u_sum(chi, inst["ua"], inst["ub"], inst["N"])
            ud = u_sum_direct(chi, inst["ua"], inst["ub"], inst["N"])
            assert ub == ud, "u mismatch on %r" % (inst,)
            A, B, C = inst["ABC"]
            tb = t_abs_sum(chi, A, B, C, inst["shifts"], inst["alpha"])
            td = t_abs_sum_direct(chi, A, B, C, inst["shifts"], inst["alpha"])
            assert math.isclose(tb, td, rel_tol=1e-9, abs_tol=1e-9), "t mismatch on %r" % (inst,)


def test_criterion_06_fixed_value_fixtures():
    with criterion(6, "frozen fixtures: S(2) mod 5, delta profile N=2, small non-square matrices"):
        # re-derive each number with a plain loop before pinning it
        F5 = field(5)
        brute = sum(
            F5.legendre((a * d - b * c) % 5)
            for a in (1, 2)
            for b in (1, 2)
            for c in (1, 2)
            for d in (1, 2)
        )
        assert brute == -2
        assert s_sum_direct(make_character(F5, 2), 2).int_value() == -2

        prof = delta_profile(2)
        hand = {}
        for a in (1, 2):
            for b in (1, 2):
                for c in (1, 2):
                    for d in (1, 2):
                        hand[a * d - b * c] = hand.get(a * d - b * c, 0) + 1
        assert hand[0] == 6 and hand[3] == 1 and hand[-3] == 1
        assert prof.count(0) == 6 and prof.count(3) == 1 and prof.count(-3) == 1

        m7 = construct_nonsquare(field(7))
        assert (m7.a, m7.b, m7.c, m7.d) == (2, 1, 1, 2)
        m5 = construct_nonsquare(field(5))
        assert (m5.a, m5.b, m5.c, m5.d) == (2, 2, 1, 2)


def test_criterion_07_moment_bound():
    with criterion(7, "moment bound (2 nu D)^nu p + 2 nu D^(2 nu) sqrt(p) on 200 randomized trials"):
        rng = random.Random("acceptance-criterion-7")
        primes = [int(p) for p in primes_upto(997) if p >= 5]
        fields = {}
        for _ in range(200):
            p = rng.choice(primes)
            F = fields.get(p)
            if F is None:
                F = fields[p] = make_field(p)
            d = 3 if (p - 1) % 3 == 0 and rng.random() < 0.25 else 2
            chi = make_character(F, d)
            D = rng.randrange(1, 21)
            shifts = sorted(rng.sample(range(1, p), min(D, p - 1)))
            alpha = {s: float(rng.choice((-1, 1))) for s in shifts}
            nu = rng.randrange(1, 4)
            value = de_moment(chi, shifts, alpha, nu)
            D = len(shifts)
            bound = (2 * nu * D) ** nu * p + 2 * nu * D ** (2 * nu) * math.sqrt(p)
            assert value <= bound * (1 + 1e-9), "p=%d D=%d nu=%d: %g > %g" % (p, D, nu, value, bound)


def test_criterion_08_holder_chain():
    with criterion(8, "t^(2 nu) <= sigma1 sigma2 sigma3 on the criterion-5 suite, nu in {1,2}"):
        for inst in _c5_instances():
            chi = make_character(field(inst["p"]), inst["d"])
            A, B, C = inst["ABC"]
            for nu in (1, 2):
                hc = holder_chain(chi, A, B, C, inst["shifts"], inst["alpha"], nu)
                assert hc.lhs <= hc.sigma1 * hc.sigma2 * hc.sigma3 * (1 + 1e-9), (inst, nu, hc)


def test_criterion_09_partition_identities():
    with criterion(9, "profile mass N^4 and symmetry to N=200; bin mass ABC; sift partition to N=10^5"):
        for N in range(1, 201):
            prof = delta_profile(N)
            assert prof.total() == N**4
            assert np.array_equal(prof.counts, prof.counts[::-1])

        rng = random.Random("acceptance-criterion-9")
        primes = [int(p) for p in primes_upto(997) if p >= 5]
        for _ in range(50):
            p = rng.choice(primes)
            A, B, C = (rng.randrange(1, p) for _ in range(3))
            assert ratio_bins(field(p), A, B, C).total() == A * B * C

        for N in (100, 1000, 10_000, 100_000):
            for x, y in ((2, max(2, math.isqrt(N))), (2, N), (5, min(100, N))):
                prof = sift(N, x, y)
                assert sum(prof.sizes) == N


def test_criterion_10_nonresidue_facts():
    with criterion(10, "z_p prime for all p <= 10^6; exact non-residue counts and matrix invariants, 1000 primes"):
        for p in primes_upto(1_000_000)[1:]:
            z = least_nonresidue(int(p))
            assert is_prime(z), "z_%d = %d is not prime" % (p, z)

        count = 0
        for p in primes_upto(10**6)[1:]:
            p = int(p)
            F = make_field(p)
            assert count_nonresidues(F, p - 1) == (p - 1) // 2
            z = least_nonresidue(F)
            m = construct_nonsquare(F)
            bound = math.isqrt(z) + (0 if math.isqrt(z) ** 2 == z else 1)
            assert m.det_value == z and m.a * m.d - m.b * m.c == z
            assert max(m.a, m.b, m.c, m.d) <= bound + 1
            reduced = reduce_mat((m.a, m.b, m.c, m.d), F)
            assert F.legendre(det(reduced, F)) == -1
            assert not has_square_root(reduced, F).found
            count += 1
            if count == 1000:
                break
        assert count == 1000


def test_criterion_11_scan_trend(tmp_path):
    with criterion(11, "scan p=10007 quadratic, N grid {10,18,32,56,100}: normalized values all <= 1"):
        out = tmp_path / "trend.csv"
        code = cli.main(
            ["scan", "--kind", "s", "--p", "10007", "--order", "2", "--n-grid", "10,18,32,56,100", "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        normalized = {int(r["N"]): float(r["normalized"]) for r in rows}
        for N, value in normalized.items():
            assert value <= 1.0, "N=%d normalized %g > 1" % (N, value)
        # Trend diagnostic, reported rather than asserted: 10007 = 3 mod 4
        # makes the quadratic character odd, so every value here is exactly
        # zero and the strict decrease cannot manifest.
        if not normalized[100] < normalized[10]:
            warnings.warn(
                "trend diagnostic: normalized[N=100]=%g not below normalized[N=10]=%g"
                % (normalized[100], normalized[10])
            )
        print("  trend values:", {N: normalized[N] for N in sorted(normalized)})


def test_scan_trend_p10009(tmp_path):
    # The non-vacuous companion of criterion 11: 10009 = 1 (mod 4), so the
    # quadratic character is even and S(N) is not forced to vanish.
    out = tmp_path / "trend.csv"
    code = cli.main(["scan", "--kind", "s", "--p", "10009", "--n-grid", "10,18,32,56,100", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        values = [float(r["normalized"]) for r in csv.DictReader(fh)]
    assert len(values) == 5
    assert all(a > b for a, b in zip(values, values[1:])), values
