import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from holant.scalar import (
    I,
    MINUS_ONE,
    ONE,
    SQRT2,
    ZERO,
    ZETA8,
    Scalar,
    i_power,
    parse_scalar,
    scalar_to_json,
    zeta_power,
)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
scalars = st.builds(Scalar.of, rationals, rationals, rationals, rationals)


def approx(s: Scalar) -> complex:
    return complex(s)


def test_eighth_root_relations():
    assert ZETA8 ** 4 == MINUS_ONE
    assert ZETA8 ** 8 == ONE
    assert I == ZETA8 ** 2
    assert I * I == MINUS_ONE
    assert SQRT2 * SQRT2 == Scalar.from_int(2)
    assert SQRT2 == ZETA8 - zeta_power(3)
    # 1 + i factors through the eighth root
    assert ONE + I == SQRT2 * ZETA8
    assert ONE - I == SQRT2 * zeta_power(-1)


def test_zeta_power_wraps():
    for k in range(-17, 17):
        assert zeta_power(k) == ZETA8 ** (k % 8)


def test_complex_embedding_matches_numpy_free_oracle():
    # float evaluation is the independent check on the exact arithmetic
    z = complex(math.sqrt(0.5), math.sqrt(0.5))
    assert abs(approx(ZETA8) - z) < 1e-12
    assert abs(approx(I) - 1j) < 1e-12
    assert abs(approx(SQRT2) - math.sqrt(2)) < 1e-12


@given(scalars, scalars)
def test_mul_matches_complex_oracle(a, b):
    assert abs(approx(a * b) - approx(a) * approx(b)) < 1e-7


@given(scalars, scalars)
def test_add_matches_complex_oracle(a, b):
    assert abs(approx(a + b) - (approx(a) + approx(b))) < 1e-7


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_additive_inverse(a):
    assert a + (-a) == ZERO
    assert a - a == ZERO


@given(scalars)
def test_multiplicative_inverse(a):
    if a.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == ONE
        assert (ONE / a) * a == ONE


def test_inverse_examples():
    assert ZETA8.inverse() == -zeta_power(3)
    assert I.inverse() == -I
    assert SQRT2.inverse() == SQRT2 / 2
    half = Scalar.from_fraction(Fraction(1, 2))
    assert half.inverse() == Scalar.from_int(2)
    assert (ONE + I).inverse() == (ONE - I) / 2


def _inverse_by_norm(a):
    """The inverse from the three other Galois conjugates, table-free."""
    w = a.galois(3) * a.galois(5) * a.galois(7)
    return w / (a * w).as_fraction()


def test_units_invert_by_table():
    for k in range(8):
        u = zeta_power(k)
        assert u.inverse() == zeta_power(-k) == _inverse_by_norm(u)
        assert repr(u.inverse()) == repr(_inverse_by_norm(u))
        assert u * u.inverse() == ONE


def test_non_units_invert_by_norm():
    rng = random.Random(47)
    pool = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 3))
    for _ in range(300):
        a = Scalar.of(*(rng.choice(pool) for _ in range(4)))
        if not a:
            continue
        assert a * a.inverse() == ONE
        assert repr(a.inverse()) == repr(_inverse_by_norm(a))


@given(scalars, scalars)
def test_galois_is_multiplicative(a, b):
    for k in (1, 3, 5, 7):
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)


@given(scalars)
def test_conjugate_involution(a):
    assert a.conjugate().conjugate() == a
    assert abs(approx(a.conjugate()) - approx(a).conjugate()) < 1e-7


def test_rational_hashes_match_python_numbers():
    for k in (0, 1, -1, 7, -12, 2 ** 70, -(2 ** 70)):
        assert hash(Scalar.from_int(k)) == hash(k) == hash(Fraction(k))
    for q in (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6),
              Fraction(-(2 ** 65), 3)):
        assert hash(Scalar.from_fraction(q)) == hash(q)
    # equal values reached by different arithmetic hash equal
    half = Scalar.from_fraction(Fraction(1, 2))
    assert hash(half + half) == hash(ONE) == hash(Scalar.from_int(3) - 2)
    assert hash(half * 8 - 1) == hash(3) == hash((ZETA8 - ZETA8) + 3)
    assert hash(I * I) == hash(-1)
    assert hash(ZETA8 ** 2 / 3) == hash(I * Fraction(1, 3))


def test_int_interop():
    assert Scalar.from_int(3) == 3
    assert 3 == Scalar.from_int(3)
    assert hash(Scalar.from_int(3)) == hash(3)
    assert hash(Scalar.from_fraction(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert 2 * ZETA8 == ZETA8 + ZETA8
    assert (1 - I) + I == 1
    assert ZETA8 != 1
    assert Scalar.from_int(0) == 0
    assert not ZERO
    assert ONE


def test_as_power_of_i():
    assert ONE.as_power_of_i() == 0
    assert I.as_power_of_i() == 1
    assert MINUS_ONE.as_power_of_i() == 2
    assert (-I).as_power_of_i() == 3
    assert ZERO.as_power_of_i() is None
    assert SQRT2.as_power_of_i() is None
    assert Scalar.from_int(2).as_power_of_i() is None
    assert Scalar.from_fraction(Fraction(1, 2)).as_power_of_i() is None
    for k in range(8):
        assert i_power(k) == I ** k


def test_pow_negative():
    assert ZETA8 ** -1 == ZETA8.inverse()
    assert (2 * I) ** -2 == Scalar.from_fraction(Fraction(-1, 4))


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(ONE + I) == "1 + zeta^2"
    assert str(-ONE - ZETA8) == "-1 - zeta"
    assert str(Scalar.of(Fraction(1, 2))) == "1/2"


# -- wire format -----------------------------------------------------------


def test_parse_shorthands():
    assert parse_scalar("i") == I
    assert parse_scalar("3") == 3
    assert parse_scalar("-3/4") == Scalar.from_fraction(Fraction(-3, 4))
    assert parse_scalar(["0", "1", "0", "-1"]) == SQRT2
    assert parse_scalar(["1/2", "0", "1/2", "0"]) == (ONE + I) / 2


def test_parse_rejects_garbage():
    for bad in ("1.5", "i/2", "", "+ 1", "1/0", ["1", "2", "3"], 7, None,
                ["1", "2", "3", "x"]):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_scalar(bad)


@given(scalars)
def test_wire_round_trip(a):
    assert parse_scalar(scalar_to_json(a)) == a


def test_canonical_emit():
    assert scalar_to_json(Scalar.from_int(5)) == "5"
    assert scalar_to_json(Scalar.from_fraction(Fraction(-1, 3))) == "-1/3"
    assert scalar_to_json(I) == ["0", "0", "1", "0"]
    assert scalar_to_json(SQRT2 / 2) == ["0", "1/2", "0", "-1/2"]
