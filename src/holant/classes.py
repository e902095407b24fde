"""Membership tests for the tractable signature families.

Three base families drive the classification, plus their images under
basis changes:

* product form: tensor products of unaries with binary equality and
  disequality links (equivalently, every primitive tensor factor has its
  support inside an antipodal pair of assignments).  The primitive
  factors come from one recursion on the first variable in O(2^n n)
  field operations;
* quadratic phase on an affine support: a scalar times the indicator of
  an affine subspace times i**Q for a multilinear quadratic Q over Z4
  whose cross terms are all even;
* perfect-matching realizable: signatures passing the parity condition
  and the full family of matching identities.  Membership is decided by
  the equivalent Pfaffian form in O(2^n n) field operations, and the
  first entry that breaks the form names a violated identity as the
  witness of a rejected signature.

The transformed variants twist by diag(1, w) for small roots of unity or
by the Hadamard matrix before testing.  All membership predicates here
are exact and scale-invariant, and failures carry a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._gf2 import parity, rref
from .scalar import I, ONE, ZERO, Scalar, zeta_power
from .signatures import Signature, _reindex, normalize, unary
from .transforms import H2, apply_matrix, scale_by_weight


# -- parity ------------------------------------------------------------------


def parity_of(f: Signature) -> str:
    """'even', 'odd', 'zero', or 'none' by the weights of the support."""
    seen_even = seen_odd = False
    for idx in f.support():
        if idx.bit_count() & 1:
            seen_odd = True
        else:
            seen_even = True
    if seen_even and seen_odd:
        return "none"
    if seen_even:
        return "even"
    if seen_odd:
        return "odd"
    return "zero"


# -- tensor factorization ----------------------------------------------------


def _proportional(us, vs, u_ref, v_ref) -> bool:
    """Is the vector us a multiple of vs?  u_ref and v_ref are the nonzero
    entries the two hold at one common index."""
    if u_ref == v_ref:
        return us == vs
    return all((not u and not v) or u * v_ref == v * u_ref
               for u, v in zip(us, vs))


def _submasks(mask: int) -> list:
    out = [mask]
    s = mask
    while s:
        s = (s - 1) & mask
        out.append(s)
    return out


def _blocks(values) -> list:
    """The primitive blocks of a nonzero value table, as index bitmasks
    (position p of an arity-n table is bit n - p).

    Recursion on the first position, whose bit splits the table into the
    halves f0 and f1.  Position 1 is a block of its own exactly when a
    half is zero or f1 is a multiple of f0; the blocks of f are then
    those of the nonzero half.  Otherwise a block of f without position 1
    is exactly a block of both halves whose two factors are proportional,
    and every other position shares position 1's block.  Each level costs
    O(2^n) field operations, so the whole recursion O(2^n n).
    """
    half = len(values) >> 1
    if half == 1:
        return [1]
    f0, f1 = values[:half], values[half:]
    ref0 = next((i for i, v in enumerate(f0) if v), None)
    ref1 = next((i for i, v in enumerate(f1) if v), None)
    if ref0 is None:
        return [half] + _blocks(f1)
    if ref1 is None or (ref0 == ref1 and _proportional(
            f0, f1, f0[ref0], f1[ref1])):
        return [half] + _blocks(f0)
    blocks0 = _blocks(f0)
    if len(blocks0) == 1:
        return [len(values) - 1]
    blocks1 = set(_blocks(f1))
    first = half
    rest = []
    for b in blocks0:
        # proportional factors share their least support point, which is
        # the block's part of the half's least support point
        if b in blocks1 and ref0 & b == ref1 & b:
            subs = _submasks(b)
            base0, base1 = ref0 & ~b, ref1 & ~b
            if _proportional([f0[base0 | s] for s in subs],
                             [f1[base1 | s] for s in subs],
                             f0[ref0], f1[ref1]):
                rest.append(b)
                continue
        first |= b
    return [first] + rest


def primitive_decomposition(f: Signature):
    """Tensor factors of f that cannot be split further.

    Returns [(positions, factor), ...] with 1-based strictly increasing
    position tuples partitioning 1..n, in order of their lowest position.
    Interleaving the factors back together reproduces f exactly; the
    block holding the lowest variable carries the overall scale.  The
    decomposition is unique up to nonzero constants between blocks.  The
    blocks come from one recursion on the first variable in O(2^n n)
    field operations; no split is searched for.  Each block is then
    sliced out at the least support point, and the rest is divided by
    the value there.
    """
    if f.is_zero:
        raise ValueError("the zero signature has no primitive decomposition")
    n = f.arity
    if n == 0:
        return [((), f)]
    blocks = sorted(
        tuple(p for p in range(1, n + 1) if (b >> (n - p)) & 1)
        for b in _blocks(f.values))
    labels = tuple(range(1, n + 1))
    out = []
    for block in blocks[:-1]:
        here = tuple(labels.index(p) + 1 for p in block)
        other = tuple(p for p in range(1, f.arity + 1) if p not in here)
        ref = min(f.support())
        out.append((block, _reindex(f, here, ref)))
        f = _reindex(f, other, ref) / f[ref]
        labels = tuple(labels[p - 1] for p in other)
    out.append((labels, f))
    return out


def is_degenerate(f: Signature):
    """Is f a tensor product of unaries?  Returns (bool, factors).

    For a degenerate f of arity n the factors list holds n unaries whose
    plain tensor product equals f (the zero signature gets an all-zero
    first factor).  Arity 0 counts as degenerate with no factors.
    """
    n = f.arity
    if n == 0:
        return True, []
    if f.is_zero:
        return True, [unary(0, 0)] + [unary(1, 1)] * (n - 1)
    factors = primitive_decomposition(f)
    if any(g.arity != 1 for _, g in factors):
        return False, None
    by_position = sorted(factors, key=lambda item: item[0][0])
    return True, [g for _, g in by_position]


@dataclass(frozen=True)
class ProductAnalysis:
    member: bool
    factors: tuple | None = None
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.member


def is_product(f: Signature) -> ProductAnalysis:
    """Is f a product of unaries, equalities and disequalities?

    Decided through the primitive decomposition in O(2^n n) field
    operations: f belongs iff every factor of arity two or more has
    exactly two support points and they are complements of each other.
    A non-member's witness is the first such factor that fails, by lowest
    position.  The zero signature counts as a member by convention (it is
    the value-zero unary tensored onto anything).
    """
    if f.is_zero:
        return ProductAnalysis(True, None, {"note": "zero signature"})
    factors = tuple(primitive_decomposition(f))
    for positions, g in factors:
        if g.arity <= 1:
            continue
        supp = sorted(g.support())
        full = (1 << g.arity) - 1
        if len(supp) != 2 or supp[0] ^ supp[1] != full:
            return ProductAnalysis(False, None, {
                "positions": positions,
                "reason": "factor support is not an antipodal pair",
                "support": tuple(supp),
            })
    return ProductAnalysis(True, factors, None)


# -- affine support and quadratic phase --------------------------------------


@dataclass(frozen=True)
class AffineSupport:
    """The support of a signature as an affine subspace of GF(2)^n.

    `point` is the lexicographically least support index.  `basis` spans
    the direction space, reduced so basis[j] projects to the j-th unit
    vector on the free positions; `free` is the lexicographically first
    variable set that parameterizes the support.  `constraints` pins the
    bound variables: each (mask, rhs) says the XOR of the masked bits
    equals rhs.
    """

    arity: int
    point: int
    basis: tuple
    free: tuple
    constraints: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, idx: int) -> bool:
        return all(parity(idx & mask) == rhs for mask, rhs in self.constraints)

    def project_free(self, idx: int) -> int:
        n, k = self.arity, len(self.free)
        y = 0
        for j, p in enumerate(self.free):
            y |= ((idx >> (n - p)) & 1) << (k - 1 - j)
        return y

    def full_index(self, free_bits: int) -> int:
        """The unique support point whose free coordinates are free_bits."""
        k = len(self.free)
        idx = self.point
        mismatch = free_bits ^ self.project_free(self.point)
        for j in range(k):
            if (mismatch >> (k - 1 - j)) & 1:
                idx ^= self.basis[j]
        return idx

    def points(self):
        for y in range(1 << len(self.free)):
            yield self.full_index(y)


def affine_support(f: Signature):
    """Describe supp(f) as an affine subspace, or None if it is not one.

    The affinity test is rank-based: the directions away from the least
    support point span a space of size 2^rank, and the support is affine
    exactly when its cardinality hits that bound.
    """
    supp = sorted(f.support())
    if not supp:
        return None
    n = f.arity
    point = supp[0]
    rows = rref(s ^ point for s in supp[1:])
    if len(supp) != 1 << len(rows):
        return None
    # pivot bit b <-> variable n - b; high-bit pivoting makes this the
    # lexicographically first usable variable set
    free = tuple(sorted(n - b for b in rows))
    basis = tuple(rows[n - p] for p in free)
    constraints = []
    for q in range(1, n + 1):
        if q in free:
            continue
        mask = 1 << (n - q)
        for j, b in enumerate(basis):
            if (b >> (n - q)) & 1:
                mask |= 1 << (n - free[j])
        constraints.append((mask, parity(mask & point)))
    return AffineSupport(n, point, basis, free, tuple(constraints))


def compress(f: Signature, free=None) -> Signature:
    """Restrict f to its support, indexed by the free variables.

    Entry y of the result is f at the unique support point whose free
    coordinates spell y.  With free=None the canonical (lexicographically
    first) free set is used.
    """
    sup = affine_support(f)
    if sup is None:
        raise ValueError("support is not affine")
    free = sup.free if free is None else tuple(free)
    n, k = f.arity, len(free)
    if k != sup.dimension or any(not 1 <= p <= n for p in free):
        raise ValueError(f"{free} cannot parameterize this support")
    shifts = [n - p for p in free]
    values = {}
    for idx in f.support():
        y = 0
        for t in shifts:
            y = (y << 1) | ((idx >> t) & 1)
        values[y] = f[idx]
    # 2^k support points: the projection is one-to-one iff it is onto
    if len(values) != 1 << k:
        raise ValueError(f"{free} cannot parameterize this support")
    return Signature([values[y] for y in range(1 << k)])


@dataclass(frozen=True)
class Z4Polynomial:
    """A multilinear polynomial over Z4 in up to `arity` variables.

    Monomials are bitmasks in signature index convention (x1 is the top
    bit); coefficients are nonzero residues mod 4.
    """

    arity: int
    coefficients: tuple

    def as_dict(self) -> dict:
        return dict(self.coefficients)

    def evaluate(self, idx: int) -> int:
        total = 0
        for mask, c in self.coefficients:
            if mask & idx == mask:
                total += c
        return total % 4

    @property
    def total_degree(self) -> int:
        return max((mask.bit_count() for mask, _ in self.coefficients),
                   default=0)

    def monomial_positions(self, mask: int):
        return tuple(p for p in range(1, self.arity + 1)
                     if (mask >> (self.arity - p)) & 1)


def z4_polynomial(f: Signature) -> Z4Polynomial:
    """The unique multilinear P over Z4 with f = i**P.

    Requires every entry of f to be a power of i.  Computed by Moebius
    inversion over the subset lattice and checked by re-evaluation.
    """
    n = f.arity
    r = []
    for idx, v in enumerate(f.values):
        k = v.as_power_of_i()
        if k is None:
            raise ValueError(f"entry {idx} is not a power of i")
        r.append(k)
    coeff = list(r)
    for t in range(n):
        bit = 1 << t
        for idx in range(1 << n):
            if idx & bit:
                coeff[idx] = (coeff[idx] - coeff[idx ^ bit]) % 4
    # zeta transform undoes the inversion; guards the arithmetic above
    back = list(coeff)
    for t in range(n):
        bit = 1 << t
        for idx in range(1 << n):
            if idx & bit:
                back[idx] = (back[idx] + back[idx ^ bit]) % 4
    assert back == r
    terms = tuple((mask, c) for mask, c in enumerate(coeff) if c)
    return Z4Polynomial(n, terms)


@dataclass(frozen=True)
class AffineAnalysis:
    member: bool
    scale: Scalar | None = None
    support: AffineSupport | None = None
    polynomial: Z4Polynomial | None = None
    reason: str | None = None
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.member


def is_affine(f: Signature) -> AffineAnalysis:
    """Is f a scalar times i**Q on an affine support?

    The test normalizes by the first nonzero entry, requires the
    remaining entries to be powers of i, requires the support to be an
    affine subspace, and requires the phase polynomial on the compressed
    signature to be quadratic with even cross terms.  The zero signature
    is a member.
    """
    if f.is_zero:
        return AffineAnalysis(True, witness={"note": "zero signature"})
    lam, g = normalize(f)
    for idx in sorted(g.support()):
        if g[idx].as_power_of_i() is None:
            return AffineAnalysis(
                False, reason="entry is not a scaled power of i",
                witness={"index": idx, "value": str(g[idx])})
    sup = affine_support(g)
    if sup is None:
        return AffineAnalysis(
            False, reason="support is not an affine subspace",
            witness={"support": tuple(sorted(g.support()))})
    comp = Signature([g[idx] for idx in sup.points()])
    poly = z4_polynomial(comp)
    k = len(sup.free)
    for mask, c in poly.coefficients:
        deg = mask.bit_count()
        positions = tuple(sup.free[j] for j in range(k)
                          if (mask >> (k - 1 - j)) & 1)
        if deg > 2:
            return AffineAnalysis(
                False, support=sup, polynomial=poly,
                reason="phase polynomial has degree above two",
                witness={"monomial": positions, "coefficient": c})
        if deg == 2 and c % 2:
            return AffineAnalysis(
                False, support=sup, polynomial=poly,
                reason="phase polynomial has an odd cross term",
                witness={"monomial": positions, "coefficient": c})
    return AffineAnalysis(True, scale=lam, support=sup, polynomial=poly)


# -- matching identities ------------------------------------------------------


@dataclass(frozen=True)
class MatchgateAnalysis:
    member: bool
    parity: str
    reason: str | None = None
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.member


def is_matchgate(f: Signature) -> MatchgateAnalysis:
    """Parity condition plus the Pfaffian form of the matching identities.

    Shifted by its least support point a0 and normalised, f satisfies
    every matching identity exactly when each entry is a sub-Pfaffian of
    one skew matrix: f(a0 ^ x) / f(a0) = Pf(A[x]) with
    A_ij = f(a0 ^ e_i ^ e_j) / f(a0) (Cai and Gorenstein, "Matchgates
    revisited", 2014).  That decides membership in O(2^n n) field
    operations.  The witness of a rejected f comes from the same pass.
    Let x be the first mask that fails and p its lowest position.  Every
    smaller minor matched, so the identity with pattern a0 ^ e_p on the
    positions of x equals f(a0)^2 (Pf(A[x]) - f(a0 ^ x) / f(a0)), the
    expansion along p less the failing entry: it is violated.  Its value
    is evaluated directly on f.  The identities imply the parity
    condition, but checking parity first gives cheaper witnesses.
    """
    par = parity_of(f)
    if par == "none":
        evens = [i for i in sorted(f.support()) if i.bit_count() % 2 == 0]
        odds = [i for i in sorted(f.support()) if i.bit_count() % 2 == 1]
        return MatchgateAnalysis(False, par,
                                 reason="support mixes parities",
                                 witness={"even": evens[0], "odd": odds[0]})
    if par == "zero":
        return MatchgateAnalysis(True, par)
    a0 = min(f.support())
    x = _pfaffian_form_violation(f, a0)
    if x is None:
        return MatchgateAnalysis(True, par)
    n = f.arity
    pattern = a0 ^ (1 << (x.bit_length() - 1))
    positions = tuple(p for p in range(1, n + 1) if (x >> (n - p)) & 1)
    acc = ZERO
    for j, p in enumerate(positions):
        e = 1 << (n - p)
        term = f[pattern ^ e] * f[pattern ^ x ^ e]
        acc = acc - term if j % 2 == 0 else acc + term
    return MatchgateAnalysis(False, par, reason="matching identity violated",
                             witness={"pattern": pattern,
                                      "positions": positions,
                                      "value": str(acc)})


def _pfaffian_form_violation(f: Signature, a0: int):
    """The first mask x with f(a0 ^ x) / f(a0) != Pf(A[x]), or None.

    a0 is a support point, and x ranges over all 2^n index masks, in
    ascending order, so that no entry goes unchecked.  pf[x] is the
    Pfaffian of A on the positions in x (position p is bit n - p),
    expanded along the lowest position, which is the highest bit of x:
    the partner at rank r, with the lowest position at rank 0, carries
    the sign (-1)^(r+1).  The minor x ^ top ^ b is numerically below x,
    so ascending order has it ready.
    """
    vals = f.values
    inv = vals[a0].inverse()
    pf = [ZERO] * len(vals)
    pf[0] = ONE
    for x in range(1, len(vals)):
        entry = vals[a0 ^ x]
        if entry:
            entry = entry * inv
        weight = x.bit_count()
        if weight == 2:
            pf[x] = entry
        elif weight % 2 == 0:
            top = 1 << (x.bit_length() - 1)
            rest = x ^ top
            acc = ZERO
            plus = True
            bits = rest
            while bits:
                b = 1 << (bits.bit_length() - 1)
                bits ^= b
                a = pf[top | b]
                if a:
                    minor = pf[rest ^ b]
                    if minor:
                        acc = acc + a * minor if plus else acc - a * minor
                plus = not plus
            pf[x] = acc
        if entry != pf[x]:
            return x
    return None


# -- transformed families -----------------------------------------------------


@dataclass(frozen=True)
class TwistedMembership:
    member: bool
    twist: Scalar | None = None
    inner: object = None

    def __bool__(self) -> bool:
        return self.member


def is_hadamard_matchgate(f: Signature) -> MatchgateAnalysis:
    """Does f become a matchgate after a Hadamard change of basis?

    H2 is self-inverse up to a factor of 2 and the matchgate conditions
    are scale-invariant, so testing the forward image suffices.
    """
    return is_matchgate(apply_matrix(f, H2))


def is_twisted_affine(f: Signature) -> TwistedMembership:
    """Is diag(1,w)^-1 f affine for some w with w^4 = -1?

    Only w = zeta8 and w = zeta8^3 need checking: any such diag factors
    through diag(1,-1), which preserves the affine family.
    """
    for w in (zeta_power(1), zeta_power(3)):
        inner = is_affine(scale_by_weight(f, w.inverse()))
        if inner:
            return TwistedMembership(True, w, inner)
    return TwistedMembership(False)


def is_twisted_hadamard_matchgate(f: Signature) -> TwistedMembership:
    """Is diag(1,w)^-1 f a Hadamard matchgate for some w with w^2 = -1?"""
    for w in (I, -I):
        inner = is_hadamard_matchgate(scale_by_weight(f, w.inverse()))
        if inner:
            return TwistedMembership(True, w, inner)
    return TwistedMembership(False)


# -- combined report ----------------------------------------------------------


@dataclass(frozen=True)
class ClassReport:
    parity: str
    degenerate: bool
    product: bool
    affine: bool
    matchgate: bool
    hadamard_matchgate: bool
    twisted_affine: bool
    twisted_hadamard_matchgate: bool
    details: dict = field(compare=False, repr=False, default_factory=dict)

    def memberships(self) -> dict:
        return {
            "degenerate": self.degenerate,
            "product": self.product,
            "affine": self.affine,
            "matchgate": self.matchgate,
            "hadamard_matchgate": self.hadamard_matchgate,
            "twisted_affine": self.twisted_affine,
            "twisted_hadamard_matchgate": self.twisted_hadamard_matchgate,
        }


def class_report(f: Signature) -> ClassReport:
    """Run every membership test on f and collect the analyses."""
    degenerate, factors = is_degenerate(f)
    product = is_product(f)
    affine = is_affine(f)
    matchgate = is_matchgate(f)
    hat = is_hadamard_matchgate(f)
    taff = is_twisted_affine(f)
    that = is_twisted_hadamard_matchgate(f)
    return ClassReport(
        parity=parity_of(f),
        degenerate=degenerate,
        product=bool(product),
        affine=bool(affine),
        matchgate=bool(matchgate),
        hadamard_matchgate=bool(hat),
        twisted_affine=bool(taff),
        twisted_hadamard_matchgate=bool(that),
        details={
            "degenerate_factors": factors,
            "product": product,
            "affine": affine,
            "matchgate": matchgate,
            "hadamard_matchgate": hat,
            "twisted_affine": taff,
            "twisted_hadamard_matchgate": that,
        },
    )
