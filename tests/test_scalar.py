import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from _util import decimal_value
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


def test_rational_inverses_match_fractions():
    rng = random.Random(61)
    for _ in range(500):
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 30)),
                     rng.randint(1, 10 ** rng.randint(1, 30)))
        got = Scalar.from_fraction(q).inverse()
        want = Scalar.from_fraction(1 / q)
        assert got == want and repr(got) == repr(want)
        assert got.as_fraction() == 1 / q


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


def test_wire_form_matches_str_around_the_chunk_size():
    for n in (2 ** 1999, 2 ** 2000 - 1, 2 ** 2000, 2 ** 2001, 10 ** 602,
              10 ** 603 - 1, 10 ** 603, 10 ** 1205 + 7, 3 ** 8000):
        for m in (n, -n):
            assert scalar_to_json(Scalar.from_int(m)) == str(m)


def test_wire_form_prints_integers_past_the_str_digit_limit():
    big = 3 ** 16000  # 7,634 digits, past str()'s 4,300
    out = scalar_to_json(Scalar.from_int(-big))
    assert decimal_value(out) == -big
    num, den = scalar_to_json(Scalar.from_fraction(Fraction(1, big))).split("/")
    assert (num, decimal_value(den)) == ("1", big)
    parts = scalar_to_json(Scalar.of(0, big, 0, 2 ** 15000))
    assert [decimal_value(p) for p in parts] == [0, big, 0, 2 ** 15000]


def test_str_and_repr_format_integers_past_the_str_digit_limit():
    big = 3 ** 16000
    s = Scalar.from_int(big)
    text = str(s)
    assert decimal_value(text) == big
    assert repr(s) == f"Scalar(({text}, 0, 0, 0), 1)"
    assert str(-s * I) == f"-{text}*zeta^2"
    assert str(Scalar.from_fraction(Fraction(1, big))) == f"1/{text}"


# -- exact oracle: four Fraction coefficients modulo zeta^4 = -1 -------------

integers = st.integers(min_value=-50, max_value=50)
integer_scalars = st.builds(Scalar.of, integers, integers, integers, integers)
rational_scalars = st.builds(Scalar.of, rationals)
any_scalars = st.one_of(scalars, integer_scalars, rational_scalars)
operands = st.one_of(any_scalars, integers, rationals)


def ref(x):
    """The coefficients of a Scalar, int or Fraction as four Fractions."""
    if isinstance(x, Scalar):
        return x.coefficients
    return (Fraction(x), Fraction(0), Fraction(0), Fraction(0))


def ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def ref_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def ref_mul(x, y):
    out = [Fraction(0)] * 4
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if i + j < 4:
                out[i + j] += a * b
            else:
                out[i + j - 4] -= a * b
    return tuple(out)


def canonical(s):
    assert type(s) is Scalar
    assert all(type(n) is int for n in s._n) and type(s._d) is int
    assert s._d > 0
    assert math.gcd(*s._n, s._d) == 1
    return s


@given(any_scalars, operands)
def test_ring_operations_match_fraction_oracle(a, b):
    ra, rb = ref(a), ref(b)
    assert canonical(a + b).coefficients == ref_add(ra, rb)
    assert canonical(b + a).coefficients == ref_add(ra, rb)
    assert canonical(a - b).coefficients == ref_sub(ra, rb)
    assert canonical(b - a).coefficients == ref_sub(rb, ra)
    assert canonical(a * b).coefficients == ref_mul(ra, rb)
    assert canonical(b * a).coefficients == ref_mul(ra, rb)
    assert canonical(-a).coefficients == tuple(-c for c in ra)
    assert (a == b) == (ra == rb) == (b == a)


@given(any_scalars, operands)
def test_division_matches_fraction_oracle(a, b):
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            a / b
        return
    q = canonical(a / b)
    assert ref_mul(q.coefficients, ref(b)) == ref(a)
    if not a.is_zero:
        r = canonical(b / a)
        assert ref_mul(r.coefficients, ref(a)) == ref(b)


@given(any_scalars, st.integers(min_value=-4, max_value=6))
def test_powers_match_fraction_oracle(a, k):
    if a.is_zero and k < 0:
        with pytest.raises(ZeroDivisionError):
            a ** k
        return
    p = canonical(a ** k)
    want = ref(1)
    for _ in range(abs(k)):
        want = ref_mul(want, ref(a))
    if k >= 0:
        assert p.coefficients == want
    else:
        assert ref_mul(p.coefficients, want) == ref(1)


@given(any_scalars)
def test_wire_form_matches_fraction_formatting(a):
    out = scalar_to_json(a)
    if a.is_rational:
        assert out == str(a.as_fraction())
    else:
        assert out == [str(c) for c in a.coefficients]
    assert canonical(parse_scalar(out)) == a


@given(st.one_of(integers, rationals,
                 st.integers(min_value=-(2 ** 80), max_value=2 ** 80)))
def test_hashes_match_python_numbers_after_arithmetic(q):
    s = Scalar.from_fraction(q)
    assert hash(s) == hash(q)
    assert hash(s * 1) == hash(q) == hash((s + ZETA8) - ZETA8)
    if isinstance(q, int):
        assert hash(Scalar.from_int(q)) == hash(q)


def test_fast_path_boundaries():
    half = Scalar.from_fraction(Fraction(1, 2))
    third = Scalar.from_fraction(Fraction(1, 3))
    cases = [
        (ONE * ONE, (1, 0, 0, 0), 1),
        (half + half, (1, 0, 0, 0), 1),          # equal denominators reduce
        (half - half, (0, 0, 0, 0), 1),
        (half * 2, (1, 0, 0, 0), 1),
        (2 * half, (1, 0, 0, 0), 1),
        (half + 1, (3, 0, 0, 0), 2),              # denominator 1 against 2
        (1 - half, (1, 0, 0, 0), 2),
        (third + Fraction(1, 6), (1, 0, 0, 0), 2),  # unequal, both above 1
        (half * SQRT2, (0, 1, 0, -1), 2),         # rational x irrational
        (SQRT2 * half, (0, 1, 0, -1), 2),
        (SQRT2 * 2 * half, (0, 1, 0, -1), 1),
        ((ZETA8 / 2) * (ZETA8 * 2), (0, 0, 1, 0), 1),
        (ZETA8 * ZETA8 ** 3, (-1, 0, 0, 0), 1),   # degree 4 folds to -1
        (3 * ZETA8, (0, 3, 0, 0), 1),
        (ZETA8 + Fraction(1, 2), (1, 2, 0, 0), 2),
        (Fraction(1, 2) - ZETA8, (1, -2, 0, 0), 2),
    ]
    for s, n, d in cases:
        assert canonical(s)._n == n and s._d == d, (s, n, d)
    assert Scalar.from_int(2) == 2 and 2 == Scalar.from_int(2)
    assert half == Fraction(1, 2) and half != 1 and ZETA8 != 0
    assert half.__eq__("1/2") is NotImplemented
    assert half.__mul__(0.5) is NotImplemented
    with pytest.raises(TypeError):
        half + 0.5


def test_public_constructor_keeps_its_checks():
    with pytest.raises(TypeError):
        Scalar((1.5, 0, 0, 0))
    with pytest.raises(TypeError):
        Scalar((1.0, 0, 0, 0), 1)
    with pytest.raises(TypeError):
        Scalar((1, 0, 0, 0), 2.0)
    with pytest.raises(TypeError):
        Scalar.from_int(1.5)
    with pytest.raises(ZeroDivisionError):
        Scalar((1, 0, 0, 0), 0)
    s = canonical(Scalar((2, -4, 6, 0), -4))
    assert s._n == (-1, 2, -3, 0) and s._d == 2
    assert canonical(Scalar((0, 0, 0, 0), 7))._d == 1
    assert canonical(Scalar.from_int(True))._n == (1, 0, 0, 0)


def _gaussian(rng):
    """A random Gaussian rational a + b i: with denominators, negative
    parts, pure imaginaries and the units among the draws."""
    pick = rng.random()
    if pick < 0.1:
        return rng.choice((ONE, MINUS_ONE, I, -I))

    def part():
        return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 12)))

    return Scalar.of(0 if pick < 0.25 else part(), 0, part(), 0)


def test_gaussian_fast_paths_match_the_general_formulas():
    rng = random.Random(91)
    gaussians = [_gaussian(rng) for _ in range(400)]
    drawn = set()
    for a, b in zip(gaussians, reversed(gaussians)):
        assert canonical(a * b).coefficients == ref_mul(ref(a), ref(b))
        if not a:
            continue
        n0, _, n2, _ = a._n
        drawn.add("pure imaginary" if not n0 else
                  "a denominator" if a._d > 1 else
                  "a negative part" if n0 < 0 or n2 < 0 else "other")
        # the general inverse: the other three Galois conjugates over the
        # rational norm, multiplied by the oracle, not by Scalar
        w = ref_mul(ref_mul(ref(a.galois(3)), ref(a.galois(5))),
                    ref(a.galois(7)))
        norm = ref_mul(ref(a), w)[0]
        assert canonical(a.inverse()).coefficients == \
            tuple(c / norm for c in w)
    assert drawn == {"pure imaginary", "a denominator", "a negative part",
                     "other"}
    for u in (ONE, MINUS_ONE, I, -I):
        assert u.inverse() * u == ONE and u.inverse()._d == 1


def test_gaussian_times_a_zeta_operand_takes_the_general_path():
    rng = random.Random(92)
    for _ in range(300):
        a = _gaussian(rng)
        b = Scalar.of(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(4)))
        if not (b._n[1] or b._n[3]):
            b = b + ZETA8
        assert canonical(a * b).coefficients == ref_mul(ref(a), ref(b))
        assert canonical(b * a).coefficients == ref_mul(ref(b), ref(a))
