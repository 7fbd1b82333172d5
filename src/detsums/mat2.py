"""2x2 matrices over F_p: the square-root decision and exact censuses.

The decision procedure follows the trace identity for B with B*B = A:
with s = det B and t = Tr B, t*B = A + s*I and t^2 = Tr A + 2s.  For a
non-scalar A, t is nonzero, so A has a root iff Tr A + 2s is a nonzero
square for some root s of det A, and then (A + s*I)/t is one (proof in
`has_square_root`).  Each scalar u*I is the square of [[0,1],[u,0]].  The
one witness built is checked by an actual matrix product, and a failed
check raises InternalInvariantViolation instead of answering "not found";
the tests pin the decision down on every matrix for small p.  The census
counts the conjugacy classes of each kind in closed form, from an
eigenvalue rule on their characteristic polynomials; the tests check
those counts against `has_square_root` on every class and the census
against squaring all p^4 matrices.  The pair census is a closed form too, and the decision's
roots are Tonelli-Shanks: no tables.
"""

from typing import NamedTuple, Optional

from .errors import InternalInvariantViolation


class Mat2(NamedTuple):
    a: int
    b: int
    c: int
    d: int


def reduce_mat(A, F):
    p = F.p
    return Mat2(A[0] % p, A[1] % p, A[2] % p, A[3] % p)


def mul(A, B, F):
    """Exact product A*B mod p."""
    p = F.p
    return Mat2(
        (A.a * B.a + A.b * B.c) % p,
        (A.a * B.b + A.b * B.d) % p,
        (A.c * B.a + A.d * B.c) % p,
        (A.c * B.b + A.d * B.d) % p,
    )


def det(A, F):
    return (A.a * A.d - A.b * A.c) % F.p


def trace(A, F):
    return (A.a + A.d) % F.p


class SquareWitness(NamedTuple):
    found: bool
    B: Optional[Mat2]


def _verified(A, B, F):
    """SquareWitness(True, B) if the product B*B is A; else InternalInvariantViolation naming p."""
    if mul(B, B, F) != A:
        raise InternalInvariantViolation("witness %r does not square to %r (p=%d)" % (B, A, F.p))
    return SquareWitness(True, B)


def has_square_root(A, F):
    """Decide whether some B satisfies B*B = A; the one witness is checked by a product.

    Accepts every matrix in M_2(F_p), scalar and singular ones included.
    A scalar u*I is the square of [[0,1],[u,0]].  If a non-scalar A has a
    root B, then t = Tr B is nonzero, since t = 0 would make
    A = B^2 = -(det B) I scalar by Cayley-Hamilton.  So B = (A + sI)/t,
    with s = det B, s^2 = det A and t^2 = Tr A + 2s.  Conversely
    (A + sI)^2 = t^2 A for any such pair (s, t), so the first root s of
    det A at which Tr A + 2s is a nonzero square gives a root, and if there
    is none, A has no root.
    """
    p = F.p
    if A.b == 0 and A.c == 0 and A.a == A.d:
        return _verified(A, Mat2(0, 1, A.a, 0), F)
    tA = trace(A, F)
    for s in F.sqrt_roots(det(A, F)):
        roots = F.sqrt_roots((tA + 2 * s) % p)
        if roots and roots[0]:  # t = roots[0], a nonzero root of Tr A + 2s
            ti = F.inv(roots[0])
            return _verified(A, Mat2(ti * (A.a + s) % p, ti * A.b % p, ti * A.c % p, ti * (A.d + s) % p), F)
    return SquareWitness(False, None)


class Census(NamedTuple):
    p: int
    n_total: int
    n_singular: int
    n_square: int
    n_nonsquare_invertible: int
    ratio: float


def _class_size(p, disc_symbol):
    """Size |GL_2| / |centralizer| of a non-scalar conjugacy class, by the
    Legendre symbol of its discriminant: 1 split, -1 non-split, 0 repeated."""
    if disc_symbol == 1:
        return p * (p + 1)
    if disc_symbol == -1:
        return p * (p - 1)
    return p * p - 1


def _class_tally(F):
    """Count the p^2 non-scalar classes by (discriminant symbol, square, singular).

    Returns nested lists C of Python ints, exact at every p, with
    C[symbol + 1][square][n == 0] the number of characteristic polynomials
    x^2 - t*x + n of that kind.  A square root of a non-scalar A commutes
    with A, so it lies in F_p[A]: a split class is a square iff both
    eigenvalues are squares, 0 included; a non-split one iff its norm n is
    a square; a repeated one iff its eigenvalue t/2 is a nonzero square.
    Each count then depends only on how many values are squares: h =
    (p-1)/2 nonzero ones.
    """
    p = F.p
    h = (p - 1) // 2
    pairs = h * (h - 1) // 2  # split classes {lam, mu} of two distinct nonzero squares
    return [
        [[h * (p + 1) // 2, 0], [h * h, 0]],  # non-split: (p-1)/2 classes per square norm, (p+1)/2 per non-square
        [[h, 1], [h, 0]],  # repeated: t/2 a non-square, or 0, or a nonzero square
        [[p * (p - 1) // 2 - pairs - 2 * h, h], [pairs, h]],  # split: {0, mu} is a square iff mu is
    ]


def census(F):
    """Exact census of squares in M_2(F_p), counted by conjugacy classes.

    Squaring commutes with conjugation, so being a square is a property
    of the class.  The p scalar classes u*I (size 1) are all squares: a
    non-square u is the square of the companion matrix of x^2 - u.  The
    p^2 non-scalar classes, one per characteristic polynomial, are
    counted in closed form by the eigenvalue rule (`_class_tally`) and
    weighted by their class sizes, which gives the counts over all p^4
    matrices in O(1) work for every p.

    Two certificates run on every call and raise InternalInvariantViolation
    if they fail: the class sizes sum to p^4, and the singular classes
    (det 0) sum to p^4 - |GL_2(F_p)| = p^4 - (p^2 - 1)(p^2 - p).
    """
    p = F.p
    n_total = p**4
    n_counted = n_square = p  # the scalar classes
    n_singular = 1  # 0*I
    n_nonsq_inv = 0
    tally = _class_tally(F)
    for s in (-1, 0, 1):
        size = _class_size(p, s)
        (nonsq_inv, nonsq_sing), (sq_inv, sq_sing) = tally[s + 1]
        n_counted += (nonsq_inv + nonsq_sing + sq_inv + sq_sing) * size
        n_singular += (nonsq_sing + sq_sing) * size
        n_square += (sq_inv + sq_sing) * size
        n_nonsq_inv += nonsq_inv * size

    if n_counted != n_total:
        raise InternalInvariantViolation("class sizes sum to %d, not p^4 = %d (p=%d)" % (n_counted, n_total, p))
    n_gl2 = (p * p - 1) * (p * p - p)
    if n_singular != n_total - n_gl2:
        raise InternalInvariantViolation(
            "singular classes sum to %d, not p^4 - |GL_2| = %d (p=%d)" % (n_singular, n_total - n_gl2, p)
        )
    return Census(p, n_total, n_singular, n_square, n_nonsq_inv, n_nonsq_inv / n_total)


class PairImageCensus(NamedTuple):
    typeA_count: int
    typeB_count: int
    image_size: int


def pair_image_census(F):
    """Count the pairs (s, q), q a square, by type, and the image of (s, q) -> (s^2, q - 2s); O(1).

    Type A pairs have q - 4s a nonzero square (4s = q - w^2, w != 0), the rest are
    type B.  For each of the (p+1)/2 squares q, 0 included, s -> q - 4s is a
    bijection, so typeA = (p+1)/2 * (p-1)/2 = (p^2 - 1)/4 and typeB = p(p+1)/2 - typeA
    = (p+1)^2/4.  In the image, s = 0 gives (p+1)/2 points and each of the (p-1)/2
    classes {s, -s} the set (Sq - 2s) u (Sq + 2s), Sq the squares, of size
    p + 1 - (p + 1 + chi(s) + chi(-s))/4 by sum_x chi(x) chi(x - c) = -1 for c != 0.
    The chi terms cancel over the classes: image = (p+1)(3p+1)/8 = typeA/2 + typeB.
    Certificates on every call (InternalInvariantViolation naming p if one fails):
    typeA + typeB = p(p+1)/2 and 2 image = typeA + 2 typeB.
    """
    p = F.p
    type_a = (p * p - 1) // 4
    type_b = (p + 1) ** 2 // 4
    image = (p + 1) * (3 * p + 1) // 8
    if type_a + type_b != p * (p + 1) // 2 or 2 * image != type_a + 2 * type_b:
        raise InternalInvariantViolation("pair census %r fails its certificates (p=%d)" % ((type_a, type_b, image), p))
    return PairImageCensus(type_a, type_b, image)
