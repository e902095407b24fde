import itertools
import random

import pytest

from _util import bits_of, rand_nonzero_signature, rand_signature
from holant.scalar import I, MINUS_ONE, ONE, SQRT2, Scalar, ZERO, ZETA8
from holant.signatures import Signature, equality, unary
from holant.transforms import (
    DIAG_I,
    DIAG_ZETA8,
    H2,
    H2_NORMALIZED,
    Transform2x2,
    apply_matrix,
    is_transformable_given_t,
    scale_by_weight,
    transform,
)
from holant.classes import is_affine, is_matchgate

IDENTITY = Transform2x2(1, 0, 0, 1)


def apply_oracle(f, m):
    """Direct sum over assignments: g(x) = sum_y prod_j m[x_j, y_j] f(y)."""
    n = f.arity
    rows = m.entries()
    out = []
    for x in range(1 << n):
        xb = bits_of(x, n)
        total = ZERO
        for y in range(1 << n):
            yb = bits_of(y, n)
            w = f[y]
            for xj, yj in zip(xb, yb):
                w = w * rows[xj][yj]
            total = total + w
        out.append(total)
    return Signature(out)


# -- matrix algebra -----------------------------------------------------------


def test_determinant_and_inverse():
    t = Transform2x2(1, 2, 3, 4)
    assert t.determinant == Scalar.from_int(-2)
    assert t @ t.inverse() == IDENTITY
    assert t.inverse() @ t == IDENTITY
    assert not Transform2x2(1, 2, 2, 4).is_invertible
    with pytest.raises(ZeroDivisionError):
        Transform2x2(1, 2, 2, 4).inverse()


def test_hadamard_squares_to_two():
    assert H2 @ H2 == 2 * IDENTITY
    assert H2_NORMALIZED @ H2_NORMALIZED == IDENTITY
    assert H2.determinant == Scalar.from_int(-2)


def test_transpose_and_product():
    s = Transform2x2(1, I, 0, ZETA8)
    t = Transform2x2(2, 1, 1, 1)
    lhs = (s @ t).transposed()
    rhs = t.transposed() @ s.transposed()
    assert lhs == rhs


def test_diagonal_constructor():
    assert DIAG_I == Transform2x2(1, 0, 0, I)
    assert DIAG_ZETA8.inverse() == Transform2x2(1, 0, 0, ZETA8.inverse())


# -- applying to signatures ---------------------------------------------------


def test_apply_matrix_matches_oracle():
    rng = random.Random(61)
    mats = [H2, DIAG_I, DIAG_ZETA8, Transform2x2(1, 2, I, ZETA8),
            Transform2x2(0, 1, 1, 0)]
    for _ in range(20):
        n = rng.randint(0, 4)
        f = rand_signature(rng, n)
        m = rng.choice(mats)
        assert apply_matrix(f, m) == apply_oracle(f, m)


def test_apply_matrix_composes():
    rng = random.Random(67)
    s = Transform2x2(1, 1, I, ZETA8)
    t = Transform2x2(2, 1, 0, 1)
    for _ in range(10):
        f = rand_signature(rng, 3)
        assert apply_matrix(apply_matrix(f, t), s) == apply_matrix(f, s @ t)


def test_hadamard_butterfly_matches_the_generic_loop(monkeypatch):
    rng = random.Random(73)
    # -H2 is not H2, so it runs the generic loop with multiplications
    minus_h2 = Transform2x2(-1, -1, -1, 1)
    cases = []
    for n in range(9):
        for _ in range(3):
            f = rand_signature(rng, n)
            expected = apply_matrix(f, minus_h2)
            cases.append((f, expected if n % 2 == 0 else -expected))
    products = []
    multiply = Scalar.__mul__

    def counting(self, other):
        products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    for f, expected in cases:
        assert apply_matrix(f, H2) == expected
        # an equal matrix built afresh takes the butterfly too, as does
        # the row side of H2, whose transpose is H2
        assert apply_matrix(f, Transform2x2(1, 1, 1, -1)) == expected
        assert transform(f, H2, "row") == expected
    assert products == []


def test_hadamard_image_of_equalities():
    assert apply_matrix(equality(2), H2) == Signature([2, 0, 0, 2])
    img3 = apply_matrix(equality(3), H2)
    assert img3 == Signature.from_symmetric([2, 0, 2, 0])
    # round trip picks up the determinant-ish factor 2^n
    back = apply_matrix(img3, H2)
    assert back == equality(3) * Scalar.from_int(8)


def test_scale_by_weight_is_diagonal_action():
    rng = random.Random(71)
    for w in (I, ZETA8, Scalar.from_int(3)):
        d = Transform2x2.diagonal(ONE, w)
        for _ in range(10):
            f = rand_signature(rng, rng.randint(0, 4))
            assert scale_by_weight(f, w) == apply_matrix(f, d)


def test_closed_cycle_invariance():
    # two binary signatures joined on both wires form a closed grid; its
    # value tr(M(g) M(f)) must survive the two-sided rewrite exactly
    from holant.signatures import signature_matrix

    def cycle_value(g, f):
        prod = signature_matrix(g, 1) @ signature_matrix(f, 1)
        return prod.rows[0][0] + prod.rows[1][1]

    rng = random.Random(73)
    mats = [H2, DIAG_ZETA8, Transform2x2(1, 1, I, 2)]
    for _ in range(15):
        g = rand_signature(rng, 2)
        f = rand_signature(rng, 2)
        for t in mats:
            before = cycle_value(g, f)
            after = cycle_value(transform(g, t, "row"),
                                transform(f, t, "column"))
            assert before == after


def test_transform_bad_side():
    with pytest.raises(ValueError):
        transform(equality(2), H2, "middle")


def test_transform_column_row_definitions():
    rng = random.Random(79)
    t = Transform2x2(1, I, 1, 1)
    for _ in range(10):
        f = rand_signature(rng, 2)
        assert transform(f, t, "column") == apply_matrix(f, t.inverse())
        assert transform(f, t, "row") == apply_matrix(f, t.transposed())


def test_is_transformable_given_t():
    # diag(1, zeta8) twists: right side f with T^-1 f affine
    f = scale_by_weight(equality(3), ZETA8)
    assert not is_affine(f)
    ok, witness = is_transformable_given_t(
        [equality(2)], [f], DIAG_ZETA8, is_affine)
    assert ok and witness is None
    ok2, witness2 = is_transformable_given_t(
        [equality(2)], [f, unary(1, SQRT2)], DIAG_ZETA8, is_affine)
    assert not ok2
    assert witness2 == {"side": "right", "index": 1}
    ok3, witness3 = is_transformable_given_t(
        [unary(1, ONE + I)], [f], DIAG_ZETA8, is_affine)
    assert not ok3 and witness3 == {"side": "left", "index": 0}


def test_hadamard_side_swap_for_matchgates():
    # equalities are matchgates only after the Hadamard move
    for n in (3, 4, 5):
        assert not is_matchgate(equality(n))
        assert is_matchgate(transform(equality(n), H2, "column"))
        assert is_matchgate(transform(equality(n), H2, "row"))
