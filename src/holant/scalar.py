"""Exact arithmetic in the cyclotomic field Q(zeta8).

Every quantity in this package is a Q(zeta8) number: a rational combination
of 1, zeta, zeta^2, zeta^3 where zeta = exp(i*pi/4) is a primitive eighth
root of unity.  The field contains the imaginary unit (zeta^2) and sqrt(2)
(zeta - zeta^3), which is all the irrationality the signature calculus
needs, and it supports exact equality tests, unlike floats.

A :class:`Scalar` stores four integer numerators over one positive common
denominator, reduced so the gcd of all five is 1.  Multiplication follows
the relation zeta^4 = -1.
"""

from __future__ import annotations

import math
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
        return cls((k, 0, 0, 0), 1)

    @classmethod
    def from_fraction(cls, q) -> Scalar:
        q = Fraction(q)
        return cls((q.numerator, 0, 0, 0), q.denominator)

    @classmethod
    def of(cls, a0=0, a1=0, a2=0, a3=0) -> Scalar:
        """Build from four rational coefficients (ints or Fractions)."""
        a0, a1, a2, a3 = Fraction(a0), Fraction(a1), Fraction(a2), Fraction(a3)
        d = math.lcm(a0.denominator, a1.denominator,
                     a2.denominator, a3.denominator)
        return cls((a0.numerator * (d // a0.denominator),
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

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        sd, od = self._d, other._d
        return Scalar(tuple(a * od + b * sd
                            for a, b in zip(self._n, other._n)), sd * od)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        sd, od = self._d, other._d
        return Scalar(tuple(a * od - b * sd
                            for a, b in zip(self._n, other._n)), sd * od)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> Scalar:
        s = Scalar.__new__(Scalar)
        n0, n1, n2, n3 = self._n
        s._n = (-n0, -n1, -n2, -n3)
        s._d = self._d
        return s

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = [0, 0, 0, 0]
        for i, a in enumerate(self._n):
            if not a:
                continue
            for j, b in enumerate(other._n):
                if not b:
                    continue
                k = i + j
                if k < 4:
                    out[k] += a * b
                else:
                    out[k - 4] -= a * b
        return Scalar(tuple(out), self._d * other._d)

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
        return Scalar(tuple(out), self._d)

    def conjugate(self) -> Scalar:
        return self.galois(7)

    def inverse(self) -> Scalar:
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if self._d == 1:
            unit = _UNIT_INVERSES.get(self._n)
            if unit is not None:
                return unit
        # product of the other three Galois conjugates; self * w is the
        # rational field norm
        w = self.galois(3) * self.galois(5) * self.galois(7)
        norm = self * w
        assert norm.is_rational and norm._n[0] != 0
        return w._scaled(Fraction(norm._d, norm._n[0]))

    def _scaled(self, q: Fraction) -> Scalar:
        return Scalar(tuple(a * q.numerator for a in self._n),
                      self._d * q.denominator)

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._d == other._d

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
            if k == 0:
                parts.append(str(q))
            else:
                unit = "zeta" if k == 1 else f"zeta^{k}"
                if q == 1:
                    parts.append(unit)
                elif q == -1:
                    parts.append(f"-{unit}")
                else:
                    parts.append(f"{q}*{unit}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Scalar({self._n}, {self._d})"


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
    return Scalar(tuple(out), 1)


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


def _format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def scalar_to_json(s: Scalar):
    """Emit the canonical JSON form (bare string when rational)."""
    if s.is_rational:
        return _format_rational(s.as_fraction())
    return [_format_rational(c) for c in s.coefficients]
