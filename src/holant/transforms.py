"""Invertible 2x2 basis changes applied tensor-wise to signatures.

The bipartite evaluation form splits a grid's vertices into a left and a
right side.  Rewriting every left signature g as gT and every right
signature f as T^-1 f leaves the total value unchanged for any invertible
T, which is what makes basis changes useful: a hard-looking signature set
may land in a tractable family after the right T.
"""

from __future__ import annotations

from .scalar import MINUS_ONE, ONE, SQRT2, ZERO, I, Scalar, ZETA8
from .signatures import Signature, _coerce_scalar


class Transform2x2:
    """An invertible 2x2 matrix [[a, b], [c, d]] over Q(zeta8)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = _coerce_scalar(a)
        self.b = _coerce_scalar(b)
        self.c = _coerce_scalar(c)
        self.d = _coerce_scalar(d)

    @classmethod
    def diagonal(cls, first, second) -> Transform2x2:
        return cls(first, ZERO, ZERO, second)

    @property
    def determinant(self) -> Scalar:
        return self.a * self.d - self.b * self.c

    @property
    def is_invertible(self) -> bool:
        return bool(self.determinant)

    def inverse(self) -> Transform2x2:
        det = self.determinant
        if not det:
            raise ZeroDivisionError("transform is singular")
        return Transform2x2(self.d / det, -self.b / det,
                            -self.c / det, self.a / det)

    def transposed(self) -> Transform2x2:
        return Transform2x2(self.a, self.c, self.b, self.d)

    def __matmul__(self, other: Transform2x2) -> Transform2x2:
        return Transform2x2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d)

    def __mul__(self, scalar):
        s = _coerce_scalar(scalar)
        return Transform2x2(self.a * s, self.b * s, self.c * s, self.d * s)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Transform2x2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == \
            (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def entries(self):
        return ((self.a, self.b), (self.c, self.d))

    def __repr__(self):
        return f"Transform2x2({self.a}, {self.b}, {self.c}, {self.d})"


#: Unnormalized Hadamard matrix.  Exact bookkeeping keeps the 2^n factors
#: it introduces, so nothing is lost by skipping the 1/sqrt(2).
H2 = Transform2x2(ONE, ONE, ONE, MINUS_ONE)

#: The orthonormal variant, for callers who want H2 self-inverse on the nose.
H2_NORMALIZED = H2 * SQRT2.inverse()

DIAG_I = Transform2x2.diagonal(ONE, I)
DIAG_ZETA8 = Transform2x2.diagonal(ONE, ZETA8)


def apply_matrix(f: Signature, m: Transform2x2) -> Signature:
    """m applied to every input of f: the value vector of m^(tensor n) f.

    A matrix equal to H2 runs as the butterfly (v0 + v1, v0 - v1), with
    no multiplications and no work on a pair with a zero side.
    """
    n = f.arity
    values = list(f.values)
    if m == H2:
        for i in range(n):
            stride = 1 << i
            for base in range(0, 1 << n, stride << 1):
                for idx in range(base, base + stride):
                    v0, v1 = values[idx], values[idx + stride]
                    if not v1:
                        values[idx + stride] = v0
                    elif not v0:
                        values[idx] = v1
                        values[idx + stride] = -v1
                    else:
                        values[idx] = v0 + v1
                        values[idx + stride] = v0 - v1
        return Signature(values)
    for i in range(n):
        stride = 1 << (n - 1 - i)
        out = list(values)
        for idx in range(1 << n):
            if idx & stride:
                continue
            v0, v1 = values[idx], values[idx | stride]
            out[idx] = m.a * v0 + m.b * v1
            out[idx | stride] = m.c * v0 + m.d * v1
        values = out
    return Signature(values)


def scale_by_weight(f: Signature, w: Scalar) -> Signature:
    """Multiply each entry by w^(Hamming weight): diag(1, w) on every input."""
    n = f.arity
    powers = [ONE]
    for _ in range(n):
        powers.append(powers[-1] * w)
    return Signature([f[idx] * powers[idx.bit_count()]
                      for idx in range(1 << n)])


def transform(f: Signature, t: Transform2x2, side: str) -> Signature:
    """Rewrite a signature for one side of the bipartite form.

    side="column" sends the right-hand signature f to T^-1 f;
    side="row" sends the left-hand signature g to gT.
    """
    if side == "column":
        return apply_matrix(f, t.inverse())
    if side == "row":
        return apply_matrix(f, t.transposed())
    raise ValueError(f"side must be 'column' or 'row', not {side!r}")


def check_holant_invariance(grid, t: Transform2x2):
    """Evaluate a two-sided grid before and after the basis change.

    The grid must carry a bipartition label on every vertex.  Returns
    (original, transformed, equal); the two values agree for every
    invertible t, which is checked exactly.
    """
    from .grids import brute_force_holant  # local: grids sits above this module

    if not t.is_invertible:
        raise ZeroDivisionError("transform is singular")
    before = brute_force_holant(grid)
    after = brute_force_holant(grid.map_sides(
        lambda sig: transform(sig, t, "row"),
        lambda sig: transform(sig, t, "column")))
    return before, after, before == after


def is_transformable_given_t(left, right, t: Transform2x2, test):
    """Do gT (g on the left) and T^-1 f (f on the right) all pass `test`?

    `test` is a membership predicate on signatures.  Returns (ok, witness)
    where witness names the failing side and signature index, or None.
    """
    for k, g in enumerate(left):
        if not test(transform(g, t, "row")):
            return False, {"side": "left", "index": k}
    for k, f in enumerate(right):
        if not test(transform(f, t, "column")):
            return False, {"side": "right", "index": k}
    return True, None
