"""Exact arithmetic in the cyclotomic field Q(zeta8).

Every quantity in this package is a Q(zeta8) number: a rational combination
of 1, zeta, zeta^2, zeta^3 where zeta = exp(i*pi/4) is a primitive eighth
root of unity.  The field contains the imaginary unit (zeta^2) and sqrt(2)
(zeta - zeta^3), which is all the irrationality the signature calculus
needs, and it supports exact equality tests, unlike floats.

A :class:`Scalar` stores four integer numerators over one positive common
denominator, reduced so the gcd of all five is 1.  That canonical form is
unique, so equality is a tuple comparison, and it is what lets the hot
paths skip the reduction: a result over denominator 1 is canonical as it
stands, and so is a sum in which exactly one operand has denominator 1.
Such results are built by :func:`_raw` without a gcd; every other result
goes through the public constructor, which reduces.  Multiplication
follows the relation zeta^4 = -1.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class Scalar:
    """An element a0 + a1*zeta + a2*zeta^2 + a3*zeta^3 of Q(zeta8)."""

    __slots__ = ("_n", "_d")

    def __init__(self, numerators=(0, 0, 0, 0), denominator=1):
        if denominator == 0:
            raise ZeroDivisionError("scalar with zero denominator")
        n0, n1, n2, n3 = numerators
        if denominator < 0:
            n0, n1, n2, n3, denominator = -n0, -n1, -n2, -n3, -denominator
        g = math.gcd(n0, n1, n2, n3, denominator)
        if g > 1:
            n0, n1, n2, n3 = n0 // g, n1 // g, n2 // g, n3 // g
            denominator //= g
        self._n = (n0, n1, n2, n3)
        self._d = denominator

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, k: int) -> Scalar:
        return _raw((operator.index(k), 0, 0, 0), 1)

    @classmethod
    def from_fraction(cls, q) -> Scalar:
        q = Fraction(q)
        return _raw((q.numerator, 0, 0, 0), q.denominator)

    @classmethod
    def of(cls, a0=0, a1=0, a2=0, a3=0) -> Scalar:
        """Build from four rational coefficients (ints or Fractions)."""
        a0, a1, a2, a3 = Fraction(a0), Fraction(a1), Fraction(a2), Fraction(a3)
        d = math.lcm(a0.denominator, a1.denominator,
                     a2.denominator, a3.denominator)
        # canonical: for each prime p dividing d, the a_k whose denominator
        # holds the full power of p in d has a numerator prime to p
        return _raw((a0.numerator * (d // a0.denominator),
                     a1.numerator * (d // a1.denominator),
                     a2.numerator * (d // a2.denominator),
                     a3.numerator * (d // a3.denominator)), d)

    # -- basic structure ---------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(n, self._d) for n in self._n)

    @property
    def is_zero(self) -> bool:
        return self._n == (0, 0, 0, 0)

    @property
    def is_rational(self) -> bool:
        return self._n[1] == self._n[2] == self._n[3] == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self._n[0], self._d)

    def as_power_of_i(self):
        """Return k in {0,1,2,3} with self == i**k, or None."""
        if self._d != 1:
            return None
        return _I_POWERS.get(self._n)

    def __bool__(self) -> bool:
        return self._n != (0, 0, 0, 0)

    def __complex__(self) -> complex:
        z = complex(math.sqrt(0.5), math.sqrt(0.5))
        total = 0j
        for k, nk in enumerate(self._n):
            total += nk * z ** k
        return total / self._d

    # -- ring operations ---------------------------------------------------

    # Each operation unpacks the numerators and takes a Scalar operand
    # as it is; only ints and Fractions go through _coerce.

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        sd, od = self._d, other._d
        if sd == od:
            n = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            return _raw(n, 1) if sd == 1 else Scalar(n, sd)
        # over one denominator d > 1 against 1, the sum stays coprime to d
        if od == 1:
            return _raw((a0 + b0 * sd, a1 + b1 * sd,
                         a2 + b2 * sd, a3 + b3 * sd), sd)
        if sd == 1:
            return _raw((a0 * od + b0, a1 * od + b1,
                         a2 * od + b2, a3 * od + b3), od)
        return Scalar((a0 * od + b0 * sd, a1 * od + b1 * sd,
                       a2 * od + b2 * sd, a3 * od + b3 * sd), sd * od)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        sd, od = self._d, other._d
        if sd == od:
            n = (a0 - b0, a1 - b1, a2 - b2, a3 - b3)
            return _raw(n, 1) if sd == 1 else Scalar(n, sd)
        if od == 1:
            return _raw((a0 - b0 * sd, a1 - b1 * sd,
                         a2 - b2 * sd, a3 - b3 * sd), sd)
        if sd == 1:
            return _raw((a0 * od - b0, a1 * od - b1,
                         a2 * od - b2, a3 * od - b3), od)
        return Scalar((a0 * od - b0 * sd, a1 * od - b1 * sd,
                       a2 * od - b2 * sd, a3 * od - b3 * sd), sd * od)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> Scalar:
        n0, n1, n2, n3 = self._n
        return _raw((-n0, -n1, -n2, -n3), self._d)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        if not (a1 or a2 or a3):
            n = (a0 * b0, a0 * b1, a0 * b2, a0 * b3)
        elif not (b1 or b2 or b3):
            n = (a0 * b0, a1 * b0, a2 * b0, a3 * b0)
        elif not (a1 or a3 or b1 or b3):  # two Gaussian rationals
            n = (a0 * b0 - a2 * b2, 0, a0 * b2 + a2 * b0, 0)
        else:  # zeta^4 = -1 folds the degrees 4..6 back with a sign
            n = (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                 a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                 a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                 a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)
        d = self._d * other._d
        return _raw(n, 1) if d == 1 else Scalar(n, d)

    __rmul__ = __mul__

    def galois(self, k: int) -> Scalar:
        """Apply the field automorphism zeta -> zeta^k (k odd)."""
        if k % 2 == 0:
            raise ValueError("zeta -> zeta^k is an automorphism only for odd k")
        out = [0, 0, 0, 0]
        for i, a in enumerate(self._n):
            m = (i * k) % 8
            if m < 4:
                out[m] += a
            else:
                out[m - 4] -= a
        # a signed permutation of the numerators keeps their gcd
        return _raw(tuple(out), self._d)

    def conjugate(self) -> Scalar:
        return self.galois(7)

    def inverse(self) -> Scalar:
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if self._d == 1:
            unit = _UNIT_INVERSES.get(self._n)
            if unit is not None:
                return unit
        n0, n1, n2, n3 = self._n
        if not (n1 or n2 or n3):
            # d/n0, canonical as gcd(n0, d) == 1
            return _raw((self._d if n0 > 0 else -self._d, 0, 0, 0), abs(n0))
        if not (n1 or n3):
            # a Gaussian rational: (n0 - n2 i) d / (n0^2 + n2^2)
            d = self._d
            return Scalar((n0 * d, 0, -n2 * d, 0), n0 * n0 + n2 * n2)
        # product of the other three Galois conjugates; self * w is the
        # rational field norm
        w = self.galois(3) * self.galois(5) * self.galois(7)
        norm = self * w
        assert norm.is_rational and norm._n[0] != 0
        # w / norm; the constructor moves the sign of norm to the numerators
        nd = norm._d
        return Scalar(tuple(a * nd for a in w._n), w._d * norm._n[0])

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self):
        # Rationals hash as the equal int or Fraction does, without
        # building a Fraction for the integers.
        n0, n1, n2, n3 = self._n
        if n1 or n2 or n3:
            return hash((self._n, self._d))
        if self._d == 1:
            return hash(n0)
        return hash(Fraction(n0, self._d))

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, nk in enumerate(self._n):
            if not nk:
                continue
            q = Fraction(nk, self._d)
            text = _format_rational(q.numerator, q.denominator)
            if k == 0:
                parts.append(text)
            else:
                unit = "zeta" if k == 1 else f"zeta^{k}"
                if q == 1:
                    parts.append(unit)
                elif q == -1:
                    parts.append(f"-{unit}")
                else:
                    parts.append(f"{text}*{unit}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        n = ", ".join(map(_decimal, self._n))
        return f"Scalar(({n}), {_decimal(self._d)})"


def _raw(n, d) -> Scalar:
    """The Scalar with numerators n over d, trusted to be canonical:
    d > 0 and gcd(*n, d) == 1, as it always is when d == 1."""
    s = _new(Scalar)
    s._n = n
    s._d = d
    return s


_new = object.__new__


def _coerce(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int):
        return Scalar.from_int(value)
    if isinstance(value, Fraction):
        return Scalar.from_fraction(value)
    return NotImplemented


def zeta_power(k: int) -> Scalar:
    """zeta8 ** k for any integer k."""
    m = k % 8
    out = [0, 0, 0, 0]
    if m < 4:
        out[m] = 1
    else:
        out[m - 4] = -1
    return _raw(tuple(out), 1)


ZERO = Scalar.from_int(0)
ONE = Scalar.from_int(1)
TWO = Scalar.from_int(2)
MINUS_ONE = Scalar.from_int(-1)
I = zeta_power(2)
ZETA8 = zeta_power(1)
SQRT2 = ZETA8 - zeta_power(3)

_I_POWERS = {
    (1, 0, 0, 0): 0,
    (0, 0, 1, 0): 1,
    (-1, 0, 0, 0): 2,
    (0, 0, -1, 0): 3,
}


#: (+-zeta^k)^-1 = +-zeta^(8 - k), by the numerators of +-zeta^k
_UNIT_INVERSES = {zeta_power(k)._n: zeta_power(8 - k) for k in range(8)}


def i_power(k: int) -> Scalar:
    """i ** k for any integer k (i = zeta8^2)."""
    return zeta_power(2 * k)


# -- wire format -----------------------------------------------------------
#
# A scalar is encoded as a list of four coefficient strings
# ["a0", "a1", "a2", "a3"], each "p" or "p/q".  Two shorthands are accepted
# when reading: a bare "p/q" string for a rational value, and "i" for the
# imaginary unit.  Rational values are emitted in the bare form.


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_scalar(obj) -> Scalar:
    """Read a scalar from its JSON form."""
    if isinstance(obj, str):
        if obj == "i":
            return I
        return Scalar.from_fraction(parse_rational(obj))
    if isinstance(obj, list) and len(obj) == 4:
        return Scalar.of(*[parse_rational(part) for part in obj])
    raise ValueError(f"not a scalar encoding: {obj!r}")


#: str() refuses an int of more than sys.get_int_max_str_digits() digits,
#: a limit that guards parsing and is never below 640; 2,000 bits is 603.
_STR_BITS = 2000


def _decimal(n: int) -> str:
    """str(n) past str()'s digit limit: n is split at a power of ten into
    halves until each part is short enough for str()."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    half = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(n, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def _format_rational(n: int, d: int) -> str:
    """n/d in lowest terms, given d > 0 and gcd(n, d) == 1."""
    return _decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"


def scalar_to_json(s: Scalar):
    """Emit the canonical JSON form (bare string when rational)."""
    n0, n1, n2, n3 = s._n
    d = s._d
    if not (n1 or n2 or n3):
        # canonical form: gcd(n0, d) == 1 already
        return _format_rational(n0, d)
    if d == 1:
        return [_decimal(n) for n in s._n]
    out = []
    for n in s._n:
        g = math.gcd(n, d)
        out.append(_format_rational(n // g, d // g))
    return out
