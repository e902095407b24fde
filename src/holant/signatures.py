"""Boolean signatures and the operator calculus on them.

A signature of arity n is a map {0,1}^n -> Q(zeta8), stored as a flat
tuple of 2^n scalars in truth-table order.  Variable x1 is the most
significant bit of the row index: entry k holds the value at the
assignment whose bits, left to right, are x1..xn.

Variable positions in this module are 1-based (x1..xn), matching the
way gates are drawn: the inputs of a vertex are numbered counterclockwise
starting from a marked first edge.  Container indices elsewhere in the
package (vertex ids, edge ids) stay 0-based.

Two private kernels are the only code that turns variable positions into
table indices.  `_contract` sums a product of tables over every
assignment of named wires, keeping the output wires; `_reindex` reads a
table at a list of positions with the rest pinned.  Each operator is one
wiring of one of them: tensor, derivative, connect_unary, connect_binary
and link contract; pin, rotate and the matrix view re-index.  Only
flip_var, which negates an input, keeps a loop of its own.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .scalar import ONE, ZERO, Scalar

ARITY_CAP = 16


def _coerce_scalar(v) -> Scalar:
    if isinstance(v, Scalar):
        return v
    if isinstance(v, int):
        return Scalar.from_int(v)
    if isinstance(v, Fraction):
        return Scalar.from_fraction(v)
    raise TypeError(f"not a scalar value: {v!r}")


class Signature:
    """A function {0,1}^n -> Q(zeta8) with a cyclic input order."""

    __slots__ = ("_arity", "_values")

    def __init__(self, values):
        values = tuple(_coerce_scalar(v) for v in values)
        size = len(values)
        if size == 0 or size & (size - 1):
            raise ValueError(f"value count {size} is not a power of two")
        arity = size.bit_length() - 1
        if arity > ARITY_CAP:
            raise ValueError(f"arity {arity} exceeds the cap of {ARITY_CAP}")
        self._arity = arity
        self._values = values

    @classmethod
    def from_symmetric(cls, entries) -> Signature:
        """Build from [f0..fn] listing the value at each Hamming weight."""
        entries = [_coerce_scalar(v) for v in entries]
        n = len(entries) - 1
        if n < 0:
            raise ValueError("symmetric form needs at least one entry")
        if n > ARITY_CAP:
            raise ValueError(f"arity {n} exceeds the cap of {ARITY_CAP}")
        return cls([entries[bin(idx).count("1")] for idx in range(1 << n)])

    # -- access ------------------------------------------------------------

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def values(self) -> tuple[Scalar, ...]:
        return self._values

    def __getitem__(self, idx) -> Scalar:
        if isinstance(idx, tuple):
            idx = self.index_of(idx)
        return self._values[idx]

    def index_of(self, bits) -> int:
        if len(bits) != self._arity:
            raise ValueError("assignment length does not match arity")
        idx = 0
        for b in bits:
            idx = (idx << 1) | (b & 1)
        return idx

    def bit(self, idx: int, i: int) -> int:
        """Value of variable xi (1-based) in row index idx."""
        return (idx >> (self._arity - i)) & 1

    def support(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self._values) if v)

    @property
    def is_zero(self) -> bool:
        return all(not v for v in self._values)

    def symmetric_entries(self):
        """The weight-indexed entry list [f0..fn], or None if asymmetric."""
        byweight: list[Scalar | None] = [None] * (self._arity + 1)
        for idx, v in enumerate(self._values):
            w = bin(idx).count("1")
            if byweight[w] is None:
                byweight[w] = v
            elif byweight[w] != v:
                return None
        return list(byweight)

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Signature):
            return NotImplemented
        return self._arity == other._arity and self._values == other._values

    def __hash__(self):
        return hash((self._arity, self._values))

    def __mul__(self, c):
        c = _coerce_scalar(c)
        return Signature([v * c for v in self._values])

    __rmul__ = __mul__

    def __truediv__(self, c):
        inv = _coerce_scalar(c).inverse()
        return Signature([v * inv for v in self._values])

    def __neg__(self):
        return Signature([-v for v in self._values])

    def __add__(self, other):
        if not isinstance(other, Signature) or other._arity != self._arity:
            return NotImplemented
        return Signature([a + b for a, b in zip(self._values, other._values)])

    def __repr__(self):
        sym = self.symmetric_entries()
        if sym is not None:
            return f"Signature.from_symmetric([{', '.join(map(str, sym))}])"
        return f"Signature([{', '.join(map(str, self._values))}])"


# -- stock signatures --------------------------------------------------------


def unary(a, b) -> Signature:
    return Signature([a, b])


def equality(n: int) -> Signature:
    """=_n: 1 on the all-zero and all-one assignments."""
    if n < 1:
        raise ValueError("equality needs arity >= 1")
    if n > ARITY_CAP:  # refused before the 2^n table is built
        raise ValueError(f"arity {n} exceeds the cap of {ARITY_CAP}")
    values = [ZERO] * (1 << n)
    values[0] = ONE
    values[-1] = ONE
    return Signature(values)


def disequality() -> Signature:
    """Binary disequality [0,1,0]."""
    return Signature.from_symmetric([0, 1, 0])


def exact_one(n: int) -> Signature:
    """1 on assignments of Hamming weight exactly one."""
    if n < 1:
        raise ValueError("exact-one needs arity >= 1")
    return Signature.from_symmetric([0, 1] + [0] * (n - 1))


def crossover() -> Signature:
    """The arity-4 crossing signature: x1=x3 and x2=x4."""
    values = [ZERO] * 16
    for idx in (0b0000, 0b0101, 0b1010, 0b1111):
        values[idx] = ONE
    return Signature(values)


# -- the two kernels ---------------------------------------------------------


def _sum_products(num_bits, tables, k=0):
    """The enumeration kernel behind every contraction.

    Sums, over all assignments a of `num_bits` bits, the product of
    values[index] across `tables`, where each (positions, values) entry
    reads its index from the bits of a at `positions`, first position
    most significant.  Returns the 2^k sums split by the low k bits of a.
    An assignment stops at its first zero value, a product starts from
    the first table's value (ONE when there are no tables), and a slot
    keeps its first term as it is.
    """
    out = [None] * (1 << k)
    low = (1 << k) - 1
    for a in range(1 << num_bits):
        prod = None
        for positions, values in tables:
            idx = 0
            for p in positions:
                idx = (idx << 1) | ((a >> p) & 1)
            val = values[idx]
            if not val:
                break
            prod = val if prod is None else prod * val
        else:
            if prod is None:
                prod = ONE
            slot = a & low
            acc = out[slot]
            out[slot] = prod if acc is None else acc + prod
    return [ZERO if v is None else v for v in out]


def _contract(parts, outputs):
    """Sum of products over every assignment of the named wires.

    `parts` lists (signature, wire names), one name per input; a wire
    named more than once carries one shared value.  Wires not in
    `outputs` are summed out, and entry y of the returned value list
    holds the assignments whose `outputs` spell y, first output most
    significant.
    """
    bit = {w: j for j, w in enumerate(reversed(outputs))}
    for _, wires in parts:
        for w in wires:
            bit.setdefault(w, len(bit))
    tables = [(tuple(bit[w] for w in wires), f.values) for f, wires in parts]
    return _sum_products(len(bit), tables, len(outputs))


def _reindex(f: Signature, positions, fixed: int = 0) -> Signature:
    """Restrict f to `positions`, in that order, the others pinned to the
    bits of the index `fixed`."""
    n = f.arity
    idxs = [fixed]
    for p in positions:
        bit = 1 << (n - p)
        idxs = [i for i0 in idxs for i in (i0 & ~bit, i0 | bit)]
    values = f.values
    return Signature([values[i] for i in idxs])


# -- operators ---------------------------------------------------------------


def tensor(f: Signature, g: Signature, f_positions=None) -> Signature:
    """Tensor product with an interleaving of the output variables.

    f_positions lists, in increasing order, which output positions carry
    f's variables; g takes the rest.  Both factors keep their internal
    variable order.  Default: f's variables first.
    """
    n = f.arity + g.arity
    if n > ARITY_CAP:
        raise ValueError(f"arity {n} exceeds the cap of {ARITY_CAP}")
    if f_positions is None:
        f_positions = tuple(range(1, f.arity + 1))
    f_positions = tuple(f_positions)
    if len(f_positions) != f.arity:
        raise ValueError("f_positions must name one slot per variable of f")
    if list(f_positions) != sorted(set(f_positions)):
        raise ValueError("f_positions must be strictly increasing")
    if f_positions and not (1 <= f_positions[0] and f_positions[-1] <= n):
        raise ValueError("f_positions out of range")
    g_positions = [p for p in range(1, n + 1) if p not in set(f_positions)]
    return Signature(_contract([(f, f_positions), (g, g_positions)],
                               range(1, n + 1)))


def pin(f: Signature, i: int, b: int) -> Signature:
    """Fix variable xi (1-based) to bit b."""
    n = f.arity
    if not 1 <= i <= n:
        raise ValueError(f"no variable x{i} in an arity-{n} signature")
    if b not in (0, 1):
        raise ValueError("pinned value must be 0 or 1")
    return _reindex(f, [p for p in range(1, n + 1) if p != i], b << (n - i))


def derivative(f: Signature, g: Signature, position: int = 1) -> Signature:
    """Contract g into f along m consecutive edges of f.

    g's inputs 1..m attach to f's edges position-1, position-2, ...,
    position-m (wrapping mod n), i.e. clockwise from just before
    `position`.  The result keeps f's remaining edges counterclockwise
    starting at `position`.  With the default position 1, g eats the last
    m edges of f and the result is on x1..x(n-m).
    """
    n, m = f.arity, g.arity
    if m > n:
        raise ValueError("cannot contract more edges than f has")
    if not 1 <= position <= n:
        raise ValueError(f"position {position} out of range for arity {n}")
    matched = [((position - 1 - j - 1) % n) + 1 for j in range(m)]
    remaining = [((position + t - 1) % n) + 1 for t in range(n - m)]
    return Signature(_contract([(f, range(1, n + 1)), (g, matched)],
                               remaining))


def derivative_power(f: Signature, g: Signature, k: int) -> Signature:
    """Apply derivative(_, g) k times."""
    for _ in range(k):
        f = derivative(f, g)
    return f


def connect_unary(f: Signature, u: Signature, indices) -> Signature:
    """Attach the unary u to each of the given variable positions of f."""
    if u.arity != 1:
        raise ValueError("connect_unary needs a unary signature")
    indices = sorted(set(indices))
    n = f.arity
    if indices and not (1 <= indices[0] and indices[-1] <= n):
        raise ValueError("variable index out of range")
    rest = [p for p in range(1, n + 1) if p not in indices]
    return Signature(_contract(
        [(f, range(1, n + 1))] + [(u, (i,)) for i in indices], rest))


def connect_binary(f: Signature, i: int, g: Signature) -> Signature:
    """Compose the binary g onto variable xi of f.

    The result h(x1,...,xn) = sum_z f(..., z at position i, ...) g(z, xi):
    g's first variable meets f's edge, its second becomes the new xi.  For
    g = [1,0,a] this multiplies every xi=1 entry of f by a.
    """
    if g.arity != 2:
        raise ValueError("connect_binary needs a binary signature")
    n = f.arity
    if not 1 <= i <= n:
        raise ValueError(f"no variable x{i} in an arity-{n} signature")
    # wire 0 is the edge between f and g
    f_wires = [0 if p == i else p for p in range(1, n + 1)]
    return Signature(_contract([(f, f_wires), (g, (0, i))], range(1, n + 1)))


def rotate(f: Signature, steps: int = 1) -> Signature:
    """Cyclic shift of the inputs: one step sends f to f(x2,...,xn,x1)."""
    n = f.arity
    if n == 0:
        return f
    return _reindex(f, [(p - 1 - steps) % n + 1 for p in range(1, n + 1)])


def flip_var(f: Signature, i: int) -> Signature:
    """Negate variable xi (1-based)."""
    n = f.arity
    if not 1 <= i <= n:
        raise ValueError(f"no variable x{i} in an arity-{n} signature")
    bit = 1 << (n - i)
    return Signature([f[idx ^ bit] for idx in range(1 << n)])


def normalize(f: Signature):
    """Scale so the first nonzero entry is 1; returns (scale, scaled)."""
    for v in f.values:
        if v:
            return v, f / v
    raise ValueError("cannot normalize the zero signature")


# -- matrix view -------------------------------------------------------------


class SignatureMatrix(Record):
    """Prefix/suffix flattening of a signature.

    Rows follow x1..xk lexicographically; columns follow the reversed
    suffix xn..x(k+1) lexicographically.  For arity 4 and split 2 this is
    the standard M(f) with row x1x2 reading f_r00, f_r10, f_r01, f_r11.
    """

    __slots__ = ("split", "rows")

    def __init__(self, split: int, rows: tuple):
        self._init(split, rows)

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]))

    def __matmul__(self, other: SignatureMatrix) -> SignatureMatrix:
        if len(other.rows) != self.shape[1]:
            raise ValueError("shape mismatch")
        cols = len(other.rows[0])
        inner = len(other.rows)
        out = tuple(
            tuple(
                sum((self.rows[r][k] * other.rows[k][c] for k in range(inner)),
                    ZERO)
                for c in range(cols))
            for r in range(len(self.rows)))
        return SignatureMatrix(self.split, out)

    def to_signature(self) -> Signature:
        rows, cols = self.shape
        k = rows.bit_length() - 1
        n = k + cols.bit_length() - 1
        flat = Signature([v for row in self.rows for v in row])
        return _reindex(flat, _matrix_order(k, n))


def _matrix_order(k: int, n: int) -> list:
    """Positions x1..xk, xn..x(k+1): the row-then-column order of the
    matrix view, which is its own inverse."""
    return list(range(1, k + 1)) + list(range(n, k, -1))


def signature_matrix(f: Signature, split: int) -> SignatureMatrix:
    n = f.arity
    if not 0 <= split <= n:
        raise ValueError("split out of range")
    cols = 1 << (n - split)
    flat = _reindex(f, _matrix_order(split, n)).values
    return SignatureMatrix(split, tuple(
        flat[r:r + cols] for r in range(0, len(flat), cols)))


def link(f: Signature, g: Signature) -> Signature:
    """Join f's edges (x3,x4) to g's edges (x2,x1); arity 4 on each side.

    The matrix view turns this contraction into a product:
    M(link(f,g)) = M(f) @ M(g).
    """
    if f.arity != 4 or g.arity != 4:
        raise ValueError("link is defined for arity-4 signatures")
    # wires 5 and 6 are the two joined edges
    return Signature(_contract([(f, (1, 2, 5, 6)), (g, (6, 5, 3, 4))],
                               (1, 2, 3, 4)))
