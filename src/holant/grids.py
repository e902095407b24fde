"""Signature grids, the brute-force Holant oracle, and the #CSP bridges.

A signature grid is a graph whose vertices carry signatures; each vertex
lists its incident edges in counterclockwise order starting from a marked
first edge (a rotation system), which is all the planarity the
constructions ever need.  Edges left unmatched are dangling: they are the
outer variables of an unfinished gate rather than summed over.

The brute-force oracles are wirings of the enumeration kernel in
`signatures`: a grid contracts its vertices over the edges, keeping the
dangling ones, and a #CSP sums its constraints over all its variable
bits; `dichotomy.evaluate` splits a #CSP by component before that.
This module also houses the two polynomial-time #CSP evaluators for the
product and affine families, and the exact Vandermonde solver used by the
interpolation harness.
"""

from __future__ import annotations

import itertools

from ._embedding import component_roots, is_planar_embedding
from ._gf2 import rref
from ._record import Record
from .classes import is_affine, is_product
from .scalar import ONE, SQRT2, ZERO, ZETA8, Scalar, i_power
from .signatures import ARITY_CAP, Signature, _contract, _sum_products, \
    equality

#: Brute force refuses beyond these sizes instead of degrading.
EDGE_CAP = 24
VAR_CAP = 20


class GridVertex(Record):
    __slots__ = ("signature", "edges")

    def __init__(self, signature: Signature, edges: tuple):
        self._init(signature, edges)

    @property
    def degree(self) -> int:
        return len(self.edges)


class SignatureGrid:
    """Vertices with signatures, edges by shared ids, optional dangling ids.

    `vertices` is a sequence of (signature, edge-id sequence) pairs; the
    edge list of a vertex is its counterclockwise rotation and position 0
    is the marked first edge.  Every edge id must appear exactly twice
    among the vertices (an internal edge; twice at one vertex is a
    self-loop) or once among the vertices and once in `dangling` (an
    outer variable of a gate).  `sides` optionally labels each vertex
    "left" or "right" for the bipartite evaluation form.
    """

    __slots__ = ("vertices", "dangling", "sides", "_occurrences")

    def __init__(self, vertices, dangling=(), sides=None):
        vs = []
        for sig, edges in vertices:
            if not isinstance(sig, Signature):
                raise TypeError("vertex signature must be a Signature")
            vs.append(GridVertex(sig, tuple(edges)))
        self.vertices = tuple(vs)
        self.dangling = tuple(dangling)
        if sides is not None:
            sides = tuple(sides)
            if len(sides) != len(self.vertices):
                raise ValueError("one side label per vertex required")
            bad = [s for s in sides if s not in ("left", "right")]
            if bad:
                raise ValueError(f"side labels must be left/right, got {bad[0]!r}")
        self.sides = sides

        occ = {}
        for vi, v in enumerate(self.vertices):
            if v.signature.arity != v.degree:
                raise ValueError(
                    f"vertex {vi} has arity {v.signature.arity} "
                    f"but {v.degree} incident edges")
            for slot, e in enumerate(v.edges):
                occ.setdefault(e, []).append((vi, slot))
        if len(set(self.dangling)) != len(self.dangling):
            raise ValueError("dangling edge ids must be distinct")
        for e in self.dangling:
            if len(occ.get(e, ())) != 1:
                raise ValueError(f"dangling edge {e!r} must touch exactly one vertex slot")
        for e, places in occ.items():
            want = 1 if e in set(self.dangling) else 2
            if len(places) != want:
                raise ValueError(
                    f"edge {e!r} appears {len(places)} times; "
                    f"expected {want}")
        self._occurrences = occ

    # -- structure -----------------------------------------------------------

    @property
    def edge_ids(self) -> tuple:
        return tuple(self._occurrences)

    @property
    def internal_edge_ids(self) -> tuple:
        dang = set(self.dangling)
        return tuple(e for e in self._occurrences if e not in dang)

    def occurrences(self, edge):
        return tuple(self._occurrences[edge])

    def is_planar(self) -> bool:
        """Euler check of the rotation system, dangling edges included.

        Each dangling edge gets a phantom endpoint of degree 1, then every
        connected component must satisfy V - E + F = 2.
        """
        dart = {}
        for j, e in enumerate(self._occurrences):
            dart[e] = 2 * j
        rotations = []
        used = {e: 0 for e in self._occurrences}
        for v in self.vertices:
            rot = []
            for e in v.edges:
                rot.append(dart[e] + used[e])
                used[e] += 1
            rotations.append(tuple(rot))
        for e in self.dangling:
            rotations.append((dart[e] + 1,))
        return is_planar_embedding(rotations)

    def map_sides(self, left_fn, right_fn) -> SignatureGrid:
        """New grid with left/right signatures rewritten by the two maps.

        Requires side labels and a proper bipartition: every internal
        edge must join a left vertex to a right vertex.
        """
        if self.sides is None:
            raise ValueError("grid carries no bipartition labels")
        if self.dangling:
            raise ValueError("bipartite rewriting applies to closed grids")
        for e, places in self._occurrences.items():
            (v1, _), (v2, _) = places
            if self.sides[v1] == self.sides[v2]:
                raise ValueError(
                    f"edge {e!r} joins two {self.sides[v1]} vertices; "
                    "grid is not bipartite")
        out = []
        for v, side in zip(self.vertices, self.sides):
            fn = left_fn if side == "left" else right_fn
            out.append((fn(v.signature), v.edges))
        return SignatureGrid(out, sides=self.sides)

    def __repr__(self):
        return (f"SignatureGrid({len(self.vertices)} vertices, "
                f"{len(self.internal_edge_ids)} edges, "
                f"{len(self.dangling)} dangling)")


def _grid_sums(grid: SignatureGrid):
    """Sums over all edge assignments, split by the dangling edges.

    Refuses beyond EDGE_CAP edges.  Slot y pins dangling edge j to bit j
    of y counted from the top (x1 first).
    """
    m = len(grid.edge_ids)
    if m > EDGE_CAP:
        raise ValueError(f"{m} edges exceeds the brute-force cap of {EDGE_CAP}")
    return _contract([(v.signature, v.edges) for v in grid.vertices],
                     grid.dangling)


def brute_force_holant(grid: SignatureGrid) -> Scalar:
    """Sum over all edge assignments of the product of vertex values.

    The desk-scale oracle: exact, exponential, refuses beyond EDGE_CAP
    edges.  Dangling edges are an error; a gate is evaluated with
    gate_signature instead.
    """
    if grid.dangling:
        raise ValueError("grid has dangling edges; use gate_signature")
    return _grid_sums(grid)[0]


def gate_signature(grid: SignatureGrid) -> Signature:
    """The signature a gate induces on its dangling edges.

    Entry at y sums over internal edge assignments with dangling edge j
    pinned to bit j of y (dangling order, x1 first).
    """
    k = len(grid.dangling)
    if k > ARITY_CAP:
        raise ValueError(f"{k} dangling edges exceeds the arity cap")
    return Signature(_grid_sums(grid))


def two_stretch(grid: SignatureGrid) -> SignatureGrid:
    """Subdivide every internal edge with a binary equality vertex.

    Holant-preserving and planarity-preserving.  Side labels are dropped:
    the new equality vertices belong to neither side.
    """
    dang = set(grid.dangling)
    new_vertices = [[v.signature, list(v.edges)] for v in grid.vertices]
    eq2 = equality(2)
    extra = []
    for e, places in grid._occurrences.items():
        if e in dang:
            continue
        (v1, s1), (v2, s2) = places
        new_vertices[v1][1][s1] = (e, 0)
        new_vertices[v2][1][s2] = (e, 1)
        extra.append((eq2, ((e, 0), (e, 1))))
    out = [(sig, tuple(edges)) for sig, edges in new_vertices]
    return SignatureGrid(out + extra, dangling=grid.dangling)


# -- #CSP ----------------------------------------------------------------------


class CspInstance(Record):
    """Counting CSP: num_vars variables, constraints as (signature, scope).

    Scopes are tuples of 0-based variable ids; a variable may repeat
    within one scope.  The instance value is the sum over all {0,1}
    assignments of the product of constraint values.
    """

    __slots__ = ("num_vars", "constraints")

    def __init__(self, num_vars: int, constraints: tuple):
        self._init(num_vars, constraints)
        self.__post_init__()  # perfbench/tracing.py spans it by this name

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        checked = []
        for sig, on in self.constraints:
            on = tuple(on)
            if not isinstance(sig, Signature):
                raise TypeError("constraint signature must be a Signature")
            if len(on) != sig.arity:
                raise ValueError(
                    f"scope {on} does not match arity {sig.arity}")
            if any(not 0 <= v < self.num_vars for v in on):
                raise ValueError(f"scope {on} references a missing variable")
            checked.append((sig, on))
        object.__setattr__(self, "constraints", tuple(checked))


def brute_force_csp(instance: CspInstance) -> Scalar:
    """Exhaustive #CSP sum; refuses beyond VAR_CAP variables.

    The reference the tests check every other #CSP evaluator against:
    it enumerates all 2^num_vars assignments of the whole instance.
    """
    n = instance.num_vars
    if n > VAR_CAP:
        raise ValueError(f"{n} variables exceeds the brute-force cap of {VAR_CAP}")
    return _sum_products(n, [(on, sig.values)
                             for sig, on in instance.constraints])[0]


def csp_to_grid(instance: CspInstance) -> SignatureGrid:
    """The bipartite Holant form: equality vertices | constraint vertices.

    Each variable becomes an equality vertex of arity equal to its number
    of scope occurrences, wired to the constraint vertices in occurrence
    order.  A variable with no occurrences becomes a [1,1] vertex joined
    to a partner [1,1] vertex, contributing the factor 2 it is due.
    """
    occurrences = [[] for _ in range(instance.num_vars)]
    edge_of = {}
    counter = itertools.count()
    for ci, (_, on) in enumerate(instance.constraints):
        for j, v in enumerate(on):
            e = next(counter)
            edge_of[(ci, j)] = e
            occurrences[v].append(e)

    vertices = []
    sides = []
    for v in range(instance.num_vars):
        if occurrences[v]:
            vertices.append((equality(len(occurrences[v])),
                             tuple(occurrences[v])))
            sides.append("left")
    for ci, (sig, on) in enumerate(instance.constraints):
        vertices.append((sig, tuple(edge_of[(ci, j)] for j in range(len(on)))))
        sides.append("right")
    for v in range(instance.num_vars):
        if not occurrences[v]:
            e = next(counter)
            vertices.append((equality(1), (e,)))
            sides.append("left")
            vertices.append((equality(1), (e,)))
            sides.append("right")
    return SignatureGrid(vertices, sides=sides)


# -- product-family evaluator ---------------------------------------------------


def _product_plan(analysis):
    """A product member's factors in 0-based local positions: the value
    of an arity-0 signature (its one factor; None otherwise), and per
    factor g of arity k >= 1 with least support point s (0 for a unary)
    its positions, the bits of s, g[s] and g at the complement of s."""
    const, blocks = None, []
    for positions, g in analysis.factors:
        k = g.arity
        if k == 0:
            const = g[0]
            continue
        s = min(g.support()) if k > 1 else 0
        blocks.append((tuple(p - 1 for p in positions),
                       tuple((s >> (k - j)) & 1 for j in range(1, k + 1)),
                       g[s], g[s ^ ((1 << k) - 1)]))
    return const, blocks


def eval_product_csp(instance: CspInstance) -> Scalar:
    """Polynomial-time value of an instance whose constraints are all in
    the product family.

    Variable v has two literal nodes: 2v stands for v = 0 and 2v + 1 for
    v = 1.  Every constraint factors into unaries and antipodal-pair
    blocks.  A factor g with least support point s (0 for a unary) puts
    the weight g[s] on the literal of its first variable under s and the
    weight at the complement of s on that literal's mirror (node ^ 1);
    it joins the literals of s to each other, and their mirrors to each
    other.  Every join has its mirror, so the classes of the one
    union-find come in mirror pairs.  A class holding both literals of a
    variable is a parity conflict and kills the sum; otherwise each
    mirror pair {C, C'} contributes W(C) + W(C'), where W multiplies the
    weights on a class (ONE when it has none), so an unread variable
    contributes 2.
    """
    n = instance.num_vars
    scale = ONE
    weights = []  # (literal node, weight)
    joins = []
    zero_instance = False
    plans = {}  # one membership test and one plan per distinct signature
    for sig, on in instance.constraints:
        if sig not in plans:
            analysis = is_product(sig)
            if not analysis:
                raise ValueError(
                    f"constraint on {on} is outside the product family: "
                    f"{analysis.witness}")
            plans[sig] = None if sig.is_zero else _product_plan(analysis)
        plan = plans[sig]
        if plan is None:
            zero_instance = True
            continue
        const, blocks = plan
        if const is not None:
            scale = scale * const
        for positions, bits, w0, w1 in blocks:
            first, *rest = [2 * on[p] + b for p, b in zip(positions, bits)]
            weights += ((first, w0), (first ^ 1, w1))
            for u in rest:
                joins += ((first, u), (first ^ 1, u ^ 1))
    if zero_instance:
        return ZERO
    root = component_roots(2 * n, joins)
    weight = {}  # class root -> W(class)
    for node, w in weights:
        r = root[node]
        weight[r] = weight[r] * w if r in weight else w
    total = scale
    paired = set()
    for v in range(n):
        r0, r1 = root[2 * v], root[2 * v + 1]
        if r0 == r1:
            return ZERO
        if r0 not in paired:
            paired.update((r0, r1))
            total = total * (weight.get(r0, ONE) + weight.get(r1, ONE))
    return total


# -- affine-family evaluator ----------------------------------------------------


def _quad_add(quad, mask, c):
    c %= 4
    if not c:
        return
    cur = (quad.get(mask, 0) + c) % 4
    if cur:
        quad[mask] = cur
    else:
        quad.pop(mask, None)


def _quad_substitute(quad, p, mask, const):
    """Replace variable p by (XOR of `mask` variables) xor const in a
    multilinear Z4 quadratic with even cross terms.

    Uses the mod-4 lift (L + const)^2 of a mod-2 sum L, which keeps cross
    terms even: odd coefficients only ever multiply the linear part.
    """
    pbit = 1 << p
    moved = [(m, c) for m, c in quad.items() if m & pbit]
    for m, _ in moved:
        del quad[m]
    js = [j for j in range(mask.bit_length()) if (mask >> j) & 1]
    for m, c in moved:
        rest = m & ~pbit
        if rest == 0:
            # c * x_p -> c * (sum + const)^2 expanded multilinearly
            for a in range(len(js)):
                _quad_add(quad, 1 << js[a], c * (1 + 2 * const))
                for b in range(a + 1, len(js)):
                    _quad_add(quad, (1 << js[a]) | (1 << js[b]), 2 * c)
            _quad_add(quad, 0, c * const)
        else:
            # c * x_p * x_q with c even: distribute over the sum
            assert c % 2 == 0, "odd cross term"
            for j in js:
                _quad_add(quad, (1 << j) | rest, c)
            if const:
                _quad_add(quad, rest, c)


def _gauss_sum(variables, quad) -> Scalar:
    """Exact sum of i^Q over all {0,1} assignments of `variables`.

    Eliminates the lowest-index variable first.  Writing Q = a*x + 2xL + R,
    the inner sum 1 + i^a(-1)^L either doubles and pins the parity of L
    (a even) or contributes sqrt(2)*zeta8^{+-1} and folds i^{+-L} back
    into R (a odd).
    """
    active = sorted(variables)
    factor = ONE
    while active:
        t = active.pop(0)
        tbit = 1 << t
        a = quad.pop(tbit, 0)
        lvars = []
        for m in [m for m in quad if m & tbit]:
            c = quad.pop(m)
            assert c == 2, "odd cross term"
            lvars.append(m & ~tbit)
        if a % 2:
            factor = factor * SQRT2 * (ZETA8 if a == 1 else ZETA8.inverse())
            lift = 3 if a == 1 else 1
            for x in range(len(lvars)):
                _quad_add(quad, lvars[x], lift)
                for y in range(x + 1, len(lvars)):
                    _quad_add(quad, lvars[x] | lvars[y], 2 * lift)
        else:
            target = 0 if a == 0 else 1
            if not lvars:
                if target == 1:
                    return ZERO
                factor = factor * 2
            else:
                factor = factor * 2
                pivot = min(m.bit_length() - 1 for m in lvars)
                rest = 0
                for m in lvars:
                    rest ^= m
                rest &= ~(1 << pivot)
                _quad_substitute(quad, pivot, rest, target)
                active.remove(pivot)
    return factor * i_power(quad.get(0, 0))


def _affine_plan(analysis):
    """An affine member's scale, support rows and Z4 monomials in 0-based
    local positions: one (positions, rhs) per support constraint and one
    (positions, coefficient) per monomial on the free variables."""
    sup = analysis.support
    k, free = sup.arity, sup.free
    kf = len(free)
    return (analysis.scale,
            [(tuple(p for p in range(k) if (cmask >> (k - 1 - p)) & 1), rhs)
             for cmask, rhs in sup.constraints],
            [(tuple(p - 1 for j, p in enumerate(free)
                    if (mono >> (kf - 1 - j)) & 1), c)
             for mono, c in analysis.polynomial.coefficients])


def eval_affine_csp(instance: CspInstance) -> Scalar:
    """Polynomial-time value of an instance whose constraints are all
    affine.

    Supports become one global Z2 linear system, reduced by `rref` with
    pivots on the highest variable indices; phases become one global
    Z4 quadratic on the constraints' free variables.  After eliminating
    the pivots, the remaining sum of i^Q is evaluated by quadratic Gauss
    sums, variable by variable.
    """
    n = instance.num_vars
    scale = ONE
    rows = []  # (mask << 1) | rhs: the right-hand side is bit 0
    zero_instance = False
    quad = {}
    plans = {}  # one membership test and one plan per distinct signature
    for sig, on in instance.constraints:
        if sig not in plans:
            analysis = is_affine(sig)
            if not analysis:
                raise ValueError(
                    f"constraint on {on} is outside the affine family: "
                    f"{analysis.reason}")
            plans[sig] = None if sig.is_zero else _affine_plan(analysis)
        plan = plans[sig]
        if plan is None:
            zero_instance = True
            continue
        lam, sup_rows, monomials = plan
        scale = scale * lam
        for positions, rhs in sup_rows:
            gmask = rhs
            for p in positions:
                gmask ^= 2 << on[p]
            rows.append(gmask)
        for positions, c in monomials:
            gmask = 0
            for p in positions:
                gmask |= 1 << on[p]
            _quad_add(quad, gmask, c)
    if zero_instance:
        return ZERO
    reduced = rref(sorted(rows))  # rising pivots: short back-substitution
    if 0 in reduced:  # the row 0 = 1
        return ZERO
    pivots = {b - 1: (row >> 1, row & 1) for b, row in reduced.items()}
    free_vars = [v for v in range(n) if v not in pivots]
    for p, (pmask, prhs) in pivots.items():
        _quad_substitute(quad, p, pmask & ~(1 << p), prhs)
    pivot_mask = sum(1 << p for p in pivots)
    assert not any(m & pivot_mask for m in quad), \
        "pivot variable survived substitution"
    return scale * _gauss_sum(free_vars, quad)


# -- interpolation harness ------------------------------------------------------


def vandermonde_interpolate(xs, ys) -> tuple:
    """Exact coefficients c with sum_l c_l * xs_k^l = ys_k for all k.

    Square system; xs must be pairwise distinct (the Vandermonde matrix
    is then invertible over the field).
    """
    from .signatures import _coerce_scalar

    xs = [_coerce_scalar(x) for x in xs]
    ys = [_coerce_scalar(y) for y in ys]
    m = len(xs)
    if len(ys) != m:
        raise ValueError("xs and ys must have equal length")
    if len(set(xs)) != m:
        raise ValueError("interpolation nodes must be pairwise distinct")
    rows = []
    for k in range(m):
        row = [ONE]
        for _ in range(m - 1):
            row.append(row[-1] * xs[k])
        row.append(ys[k])
        rows.append(row)
    # Gaussian elimination over the field
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [v * inv for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[col])]
    return tuple(rows[k][m] for k in range(m))
