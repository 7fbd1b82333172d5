"""Matrix products, the square-root decision, and the exact censuses."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from detsums import InternalInvariantViolation, Mat2, census, has_square_root, make_field, mul, pair_image_census
from detsums import mat2
from detsums.mat2 import det, trace

from conftest import census_by_classes, census_by_enumeration, conjugacy_classes, field, pair_image_by_enumeration, primes_upto

# Census numbers frozen from this package's own full-enumeration runs.
CENSUS_FIXTURES = {
    3: (29, 33, 32),
    5: (223, 145, 318),
    7: (865, 385, 1320),
    11: (5341, 1441, 8520),
    13: (10459, 2353, 16842),
}


I = Mat2(1, 0, 0, 1)


def all_mats(p):
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    yield Mat2(a, b, c, d)


def test_mul_identity(rng):
    F = field(7)
    for _ in range(20):
        A = Mat2(*(rng.randrange(7) for _ in range(4)))
        assert mul(A, I, F) == A
        assert mul(I, A, F) == A


def test_mul_nilpotent():
    F = field(11)
    N = Mat2(0, 1, 0, 0)
    assert mul(N, N, F) == Mat2(0, 0, 0, 0)


def test_mul_shear():
    for p in (5, 13):
        F = field(p)
        S = Mat2(1, 1, 0, 1)
        assert mul(S, S, F) == Mat2(1, 2 % p, 0, 1)


def test_mul_associative(rng):
    F = field(13)
    for _ in range(30):
        A, B, C = (Mat2(*(rng.randrange(13) for _ in range(4))) for _ in range(3))
        assert mul(mul(A, B, F), C, F) == mul(A, mul(B, C, F), F)


def test_identity_has_root():
    w = has_square_root(I, field(7))
    assert w.found
    assert mul(w.B, w.B, field(7)) == I


def test_nilpotent_has_no_root():
    for p in (5, 7, 13):
        assert not has_square_root(Mat2(0, 1, 0, 0), field(p)).found


def test_nonsquare_det_blocks_root():
    F = field(5)
    A = Mat2(2, 0, 0, 1)  # det = 2, a non-residue mod 5
    assert F.legendre(det(A, F)) == -1
    assert not has_square_root(A, F).found


def test_scalar_matrices_always_decided():
    for p in (5, 13):
        F = field(p)
        for u in range(p):
            w = has_square_root(Mat2(u, 0, 0, u), F)
            assert w.found
            assert w.B == Mat2(0, 1, u, 0)
            assert mul(w.B, w.B, F) == Mat2(u, 0, 0, u)


def test_witness_soundness(rng):
    for p in (5, 13, 31):
        F = field(p)
        for _ in range(150):
            A = Mat2(*(rng.randrange(p) for _ in range(4)))
            w = has_square_root(A, F)
            if w.found:
                assert mul(w.B, w.B, F) == A
            if F.legendre(det(A, F)) == -1:
                assert not w.found


def test_decision_matches_exhaustive_oracle():
    """Full agreement with the mark-all-squares oracle at p = 3 and 5."""
    for p in (3, 5):
        F = field(p)
        squares = {mul(B, B, F) for B in all_mats(p)}
        for A in all_mats(p):
            assert has_square_root(A, F).found == (A in squares), (p, A)


def test_census_fixtures():
    for p, (n_sq, n_sing, n_nsi) in CENSUS_FIXTURES.items():
        cen = census(field(p))
        assert cen.n_total == p**4
        assert (cen.n_square, cen.n_singular, cen.n_nonsquare_invertible) == (n_sq, n_sing, n_nsi)
        assert cen.ratio == n_nsi / p**4


def test_census_totals():
    for p in (3, 5, 7, 11):
        cen = census(field(p))
        # singular count has a closed form: p^4 - |GL_2|
        assert cen.n_singular == p**4 - (p * p - 1) * (p * p - p)
        assert cen.n_square >= p * p
        assert cen.n_nonsquare_invertible <= (p * p - 1) * (p * p - p)
        # categories partition: squares, invertible non-squares, singular non-squares
        singular_nonsquares = cen.n_total - cen.n_square - cen.n_nonsquare_invertible
        assert 0 <= singular_nonsquares <= cen.n_singular


def test_census_against_decision():
    for p in (3, 7):
        F = field(p)
        cen = census(F)
        n_sq = sum(1 for A in all_mats(p) if has_square_root(A, F).found)
        n_nsi = sum(
            1 for A in all_mats(p) if det(A, F) != 0 and not has_square_root(A, F).found
        )
        assert (cen.n_square, cen.n_nonsquare_invertible) == (n_sq, n_nsi)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 61])
def test_census_matches_enumeration(p):
    """Every Census field, ratio included, equals the p^4 enumeration's."""
    F = field(p)
    assert census(F) == census_by_enumeration(F)


def test_census_class_size_certificate(monkeypatch):
    real_size = mat2._class_size
    monkeypatch.setattr(mat2, "_class_size", lambda p, symbol: real_size(p, symbol) + (symbol == -1))
    with pytest.raises(InternalInvariantViolation, match="class sizes"):
        census(field(7))


def test_census_singular_certificate(monkeypatch):
    real_tally = mat2._class_tally

    def singular_class_relabelled(F):
        tally = real_tally(F)
        tally[2][1][0] += 1  # one split square class with n = 0 counted as invertible
        tally[2][1][1] -= 1
        return tally

    monkeypatch.setattr(mat2, "_class_tally", singular_class_relabelled)
    with pytest.raises(InternalInvariantViolation, match="singular classes"):
        census(field(7))


@pytest.mark.parametrize("p", [int(q) for q in primes_upto(61)[1:]])
def test_square_rule_matches_decision(p):
    """Every cell of the closed-form tally equals a count of `has_square_root` over the class representatives."""
    F = field(p)
    tally = [[[0, 0], [0, 0]] for _ in range(3)]
    n_scalar = 0
    for rep, n, _ in conjugacy_classes(F):
        found = has_square_root(rep, F).found
        if rep.c == 0:  # the scalar classes u*I, all squares
            n_scalar += 1
            assert found, rep
        else:
            t = rep.d
            tally[F.legendre((t * t - 4 * n) % p) + 1][int(found)][int(n == 0)] += 1
    assert n_scalar == p
    assert mat2._class_tally(F) == tally


# Up to a second per example, so no shrinking: a failing prime is reported as drawn.
@settings(max_examples=8, phases=(Phase.explicit, Phase.generate))
@given(st.sampled_from([int(q) for q in primes_upto(400)[1:]]))
def test_census_matches_class_decisions(p):
    """The closed-form tally gives the same Census as one decision per class."""
    F = field(p)
    assert census(F) == census_by_classes(F)


def test_census_p257():
    p = 257
    cen = census(field(p))
    assert cen.n_singular == p**4 - (p * p - 1) * (p * p - p)
    assert abs(cen.ratio - 5 / 8) <= 5 / p


def test_census_p1009():
    p = 1009
    cen = census(field(p))
    assert cen.n_singular == p**4 - (p * p - 1) * (p * p - p)
    assert abs(cen.ratio - 5 / 8) <= 5 / p


def test_census_p1999993():
    """Near the table cap: census runs both certificates on every call, so a return means they passed."""
    p = 1999993
    cen = census(make_field(p))
    assert cen.n_total == p**4
    assert cen.n_singular == p**4 - (p * p - 1) * (p * p - p)
    assert abs(cen.ratio - 5 / 8) <= 5 / p


def test_census_at_hard_cap():
    """The census row at p = 2147483629, pinned: the class tally is Python ints, exact at any p below 2^31."""
    F = make_field(2147483629)
    assert all(type(c) is int for cells in mat2._class_tally(F) for pair in cells for c in pair)
    assert census(F) == (
        2147483629,
        21267647179891120069861562821178948881,
        9903520056028627409232193201,
        7975367691221230020347429115993834091,
        13292279483718130019193977032157513370,
        0.624999999825377,
    )


def test_pair_image_fixtures():
    # Frozen from this package's own enumeration runs.
    assert pair_image_census(field(11)) == (30, 36, 51)
    assert pair_image_census(field(31)) == (240, 256, 376)


@pytest.mark.parametrize("p", [int(q) for q in primes_upto(200)[1:]])
def test_pair_image_matches_enumeration(p):
    """The closed form equals the O(p^2) slab enumeration on every odd prime below 200."""
    F = field(p)
    assert pair_image_census(F) == pair_image_by_enumeration(F)


def test_pair_image_at_hard_cap():
    """At p = 2^31 - 1 the counts are the three formulas, taken in Python ints."""
    p = 2147483647
    assert pair_image_census(make_field(p)) == ((p * p - 1) // 4, (p + 1) ** 2 // 4, (p + 1) * (3 * p + 1) // 8)


def test_pair_image_certificate_names_p():
    """The formulas are exact only for odd p; at p = 4 their floors break the first certificate."""
    with pytest.raises(InternalInvariantViolation, match=r"fails its certificates \(p=4\)"):
        pair_image_census(SimpleNamespace(p=4))


def test_census_above_table_cap():
    """The closed-form census builds no table, so it runs at p above the default table cap."""
    p = 3000017
    cen = census(make_field(p))
    assert cen.n_singular == p**4 - (p * p - 1) * (p * p - p)
    assert abs(cen.ratio - 5 / 8) <= 5 / p


def test_pair_image_domain_and_range():
    for p in (3, 5, 11, 31, 101):
        pic = pair_image_census(field(p))
        assert pic.typeA_count + pic.typeB_count == p * (p + 1) // 2
        assert 0 < pic.image_size <= p * p


def test_pair_image_oracle():
    """Re-derive the p=11 classification with plain loops."""
    p = 11
    F = field(p)
    squares = sorted({(t * t) % p for t in range(p)})
    type_a = 0
    image = set()
    for s in range(p):
        for q in squares:
            disc = (q - 4 * s) % p
            if F.legendre(disc) == 1:
                type_a += 1
            image.add(((s * s) % p, (q - 2 * s) % p))
    pic = pair_image_census(F)
    assert pic.typeA_count == type_a
    assert pic.image_size == len(image)
