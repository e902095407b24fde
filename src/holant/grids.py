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
This module also houses the two polynomial-time #CSP evaluators: the
product family on the package's one union-find, and the affine family as
one exponential sum of i^Q removed by one sparse elimination.  Last comes
the exact Vandermonde solver used by the interpolation harness.
"""

from __future__ import annotations

import heapq
import itertools

from ._embedding import component_roots, plane_embedding
from ._record import Record
from .classes import is_affine, is_product
from .scalar import ONE, SQRT2, ZERO, Scalar, i_power, zeta_power
from .signatures import ARITY_CAP, Signature, _coerce_scalar, _contract, \
    _sum_products, equality

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
        dangling = set(self.dangling)
        for vi, v in enumerate(self.vertices):
            if v.signature.arity != v.degree:
                raise ValueError(
                    f"vertex {vi} has arity {v.signature.arity} "
                    f"but {v.degree} incident edges")
            for slot, e in enumerate(v.edges):
                occ.setdefault(e, []).append((vi, slot))
        if len(dangling) != len(self.dangling):
            raise ValueError("dangling edge ids must be distinct")
        for e in self.dangling:
            if len(occ.get(e, ())) != 1:
                raise ValueError(f"dangling edge {e!r} must touch exactly one vertex slot")
        for e, places in occ.items():
            want = 1 if e in dangling else 2
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

        Each dangling edge gets a phantom endpoint of degree 1; then
        _embedding.plane_embedding, the check PlanarGraph runs too, asks
        V - E + F = 2 of every connected component.  Self-loops count
        as edges with both darts at one vertex.
        """
        n = len(self.vertices)
        phantom = {e: n + k for k, e in enumerate(self.dangling)}
        rotations = [list(v.edges) for v in self.vertices]
        rotations += [[e] for e in self.dangling]
        adj = [[] for _ in rotations]
        ends = []  # edge j has darts 2j and 2j + 1, in order of occurrence
        for j, (e, places) in enumerate(self._occurrences.items()):
            if len(places) == 1:
                places = (*places, (phantom[e], 0))
            (a, sa), (b, sb) = places
            rotations[a][sa], rotations[b][sb] = 2 * j, 2 * j + 1
            ends.append((a, b))
            adj[a].append((b, None, j))
            adj[b].append((a, None, j))
        return plane_embedding(adj, ends, rotations) is not None

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

    vertices = [(equality(len(occ)), tuple(occ)) for occ in occurrences if occ]
    for ci, (sig, on) in enumerate(instance.constraints):
        vertices.append((sig, tuple(edge_of[(ci, j)] for j in range(len(on)))))
    for v in range(instance.num_vars):
        if not occurrences[v]:
            e = next(counter)
            vertices += [(equality(1), (e,))] * 2
    return SignatureGrid(vertices)


# -- product-family evaluator ---------------------------------------------------


def _member_plans(instance, family, analyze, detail, plan):
    """(plan, scope) per constraint, or None if one is zero.  analyze and
    plan run once per distinct signature; a non-member raises ValueError
    with its analysis's detail attribute, also after a zero constraint."""
    plans = {}
    for sig, on in instance.constraints:
        if sig not in plans:
            analysis = analyze(sig)
            if not analysis:
                raise ValueError(
                    f"constraint on {on} is outside the {family} family: "
                    f"{getattr(analysis, detail)}")
            plans[sig] = None if sig.is_zero else plan(analysis)
    if None in plans.values():
        return None
    return [(plans[sig], on) for sig, on in instance.constraints]


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


def eval_product_csp(instance: CspInstance, *, analyze=None) -> Scalar:
    """Polynomial-time value of an instance whose constraints are all in
    the product family, by analyze(sig) or else is_product.

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
    contributes 2; those factors 2 are multiplied in once, as 2^count.
    """
    cons = _member_plans(instance, "product", analyze or is_product,
                         "witness", _product_plan)
    if cons is None:
        return ZERO
    n = instance.num_vars
    scale = ONE
    weights = []  # (literal node, weight)
    joins = []
    for (const, blocks), on in cons:
        if const is not None:
            scale = scale * const
        for positions, bits, w0, w1 in blocks:
            first, *rest = [2 * on[p] + b for p, b in zip(positions, bits)]
            weights += ((first, w0), (first ^ 1, w1))
            for u in rest:
                joins += ((first, u), (first ^ 1, u ^ 1))
    root = component_roots(2 * n, joins)
    weight = {}  # class root -> W(class)
    for node, w in weights:
        r = root[node]
        weight[r] = weight[r] * w if r in weight else w
    total = scale
    paired = set()
    bare = 0  # mirror pairs without a weight, each a factor 2
    for v in range(n):
        r0, r1 = root[2 * v], root[2 * v + 1]
        if r0 == r1:
            return ZERO
        if r0 not in paired:
            paired.update((r0, r1))
            if r0 in weight or r1 in weight:
                total = total * (weight.get(r0, ONE) + weight.get(r1, ONE))
            else:
                bare += 1
    return total * (1 << bare)


# -- affine-family evaluator ----------------------------------------------------


def _gauss_sum(linear, adj) -> Scalar:
    """The sum of i^Q over every {0,1} assignment of the variables, where
    Q = sum_v linear[v] x_v + 2 sum_{u < v, u in adj[v]} x_u x_v mod 4.
    Both lists are consumed.

    Each step removes a live variable t of least degree, kept in a lazy
    heap as in fkt._pfaffian_rows.  With a = linear[t] and L the sum of
    t's neighbours, the sum over x_t is 1 + i^a (-1)^L.  An odd a gives
    sqrt(2) zeta8^(+-1) i^(-aL), and since L mod 2 = L^2 mod 4, each
    neighbour gains -a and every pair of them toggles its cross term.
    An even a gives 2 [L = a/2]: the neighbour p of least degree is
    pinned to the XOR of t's other neighbours and a/2, and leaves with t.
    Its linear term lifts the same way, and each cross term 2 x_q x_p
    toggles q's cross term with every other neighbour of t; a pair
    toggled twice cancels, and q paired with itself gains 2.
    """
    heap = [(len(nb), v) for v, nb in enumerate(adj)]
    heapq.heapify(heap)
    live = [True] * len(adj)
    r = k = 0
    while heap:
        degree, t = heapq.heappop(heap)
        if not live[t] or degree != len(adj[t]):
            continue
        live[t] = False
        near = adj[t]
        for q in near:
            adj[q].discard(t)
        a = linear[t] % 4
        if a % 2:
            r += 1
            k += 2 - a  # zeta8 for a = 1, zeta8^-1 for a = 3
            for q in near:
                linear[q] -= a
                adj[q] ^= near
                adj[q].discard(q)
        else:
            r += 2
            if not near:
                if a:
                    return ZERO
                continue
            p = min(near, key=lambda v: (len(adj[v]), v))
            live[p] = False
            rest = near - {p}
            partners = adj[p]
            for q in partners:
                adj[q].discard(p)
            c, ap = a // 2, linear[p] % 4
            k += 2 * ap * c
            for j in rest:
                linear[j] += ap * (1 + 2 * c)
                if ap % 2:
                    adj[j] ^= rest
                    adj[j].discard(j)
                adj[j] ^= partners
            for q in partners:
                linear[q] += 2 * c + 2 * (q in rest)
                adj[q] ^= rest
            near = rest | partners  # every variable whose degree changed
        for q in near:
            heapq.heappush(heap, (len(adj[q]), q))
    return SQRT2 ** r * zeta_power(k)


def _affine_plan(analysis):
    """An affine member's scale times i^c for its constant monomial c,
    its support rows and its other Z4 monomials, in 0-based local
    positions: one (positions, rhs) per support constraint and one
    (positions, coefficient) per monomial on the free variables."""
    sup = analysis.support
    k, free = sup.arity, sup.free
    kf = len(free)
    terms = dict(analysis.polynomial.coefficients)
    return (analysis.scale * i_power(terms.pop(0, 0)),
            [(tuple(p for p in range(k) if (cmask >> (k - 1 - p)) & 1), rhs)
             for cmask, rhs in sup.constraints],
            [(tuple(p - 1 for j, p in enumerate(free)
                    if (mono >> (kf - 1 - j)) & 1), c)
             for mono, c in terms.items()])


def eval_affine_csp(instance: CspInstance, *, analyze=None) -> Scalar:
    """Polynomial-time value of an instance whose constraints are all
    affine, by analyze(sig) or else is_affine.

    The whole instance becomes one sum of i^Q for a Z4 quadratic Q with
    even cross terms (Cai, Chen, Lipton and Lu, "On tractable exponential
    sums", 2010).  Phases add their monomials to Q.  Each support row
    [L = rhs] becomes an auxiliary variable y, by
    [L = rhs] = 1/2 sum_y i^(2y(L + rhs)): y shares a cross term with
    every bit of L, takes 2 rhs on its linear term and brings a factor
    1/2.  `_gauss_sum` then removes every variable by one elimination.
    """
    cons = _member_plans(instance, "affine", analyze or is_affine,
                         "reason", _affine_plan)
    if cons is None:
        return ZERO
    n = instance.num_vars
    linear = [0] * n
    adj = [set() for _ in linear]
    scale = ONE
    for (lam, sup_rows, monomials), on in cons:
        scale = scale * lam
        for positions, rhs in sup_rows:
            y, row = len(linear), set()
            for p in positions:
                row ^= {on[p]}
            for v in row:
                adj[v].add(y)
            linear.append(2 * rhs)
            adj.append(row)
        for positions, c in monomials:
            vs = {on[p] for p in positions}
            if len(vs) == 2:  # a cross term, c = 2
                u, v = vs
                adj[u] ^= {v}
                adj[v] ^= {u}
            else:
                linear[vs.pop()] += c
    # each support row brought a factor 1/2
    half = Scalar((1, 0, 0, 0), 1 << (len(linear) - n))
    return scale * half * _gauss_sum(linear, adj)


# -- interpolation harness ------------------------------------------------------


def vandermonde_interpolate(xs, ys) -> tuple:
    """Exact coefficients c with sum_l c_l * xs_k^l = ys_k for all k.

    Square system; xs must be pairwise distinct (the Vandermonde matrix
    is then invertible over the field).
    """
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
