"""Planar perfect-matching counting and matchgate-realized grid evaluation.

The pipeline is the classical one: orient the edges of an embedded planar
graph so that every bounded face has an odd number of clockwise edges;
then every perfect matching enters the Pfaffian of the signed adjacency
matrix with one common sign.  Everything stays in the exact scalar field,
so the usual absolute-value trick for that sign is unavailable.  Instead
the sign is read off one perfect matching, found by Edmonds' blossom
search (Edmonds 1965): its term in the Pfaffian has the common sign, and
a graph without one counts zero with no elimination at all.  The
PlanarGraph constructor walks the graph once, by the package's one
embedding check (_embedding.plane_embedding): it traces the faces and
builds one BFS forest, whose component labels serve its Euler check and
whose tree the orientation reuses.  One pass over those faces orients
every connected component, and the whole graph is counted at once by one
Pfaffian.

That Pfaffian comes from a sparse kernel: rows are dicts of nonzero
entries that store each skew pair once, under both of its indices, and a
skew elimination pivots on a vertex of minimum degree and its neighbour
of minimum degree, so an update touches only the nonzeros around the
pivot and the fill of a planar matrix stays small whatever the vertex
numbering (Galbiati and Maffioli 1994; Lipton, Rose and
Tarjan 1979).  Permuting vertices multiplies the Pfaffian and the
matching's term by the same sign, so the count does not depend on the
pivot order or on the numbering.

Matchgate fragments are embedded weighted graphs with ordered dangling
stubs and a nonzero scale; their signatures are the scale times weighted
matching counts with dangling edges forced in or out.  A fragment is
checked as one PlanarGraph in which every stub ends at a phantom vertex
of degree one; its entry at a stub pattern is one FKT count of that
graph less the phantoms of the unforced stubs.  Every realization is
checked by its Pfaffian form: the entries at 1 + C(k, 2) stub patterns
decide all 2^k, so no route enumerates a fragment's signature, whatever
its size or vertex numbering.  builtin_fragment builds a unit-weight
shape from the support of a signature, once, with the signature's
constant as scale.  Grids whose vertices all carry realizations are
evaluated by stitching the fragments into one planar graph, whose count
times the fragments' scales is the value.
"""

from __future__ import annotations

import functools
import heapq
from itertools import accumulate

from ._embedding import plane_embedding
from .classes import _pfaffian_form_violation
from .scalar import ONE, ZERO, Scalar
from .signatures import Signature, _coerce_scalar

#: enumerate_pm and fragment_signature, the reference oracles, refuse graphs
#: of more vertices.  No route calls them but the zero case of _realizes.
ENUM_CAP = 20


class PlanarGraph:
    """An embedded weighted graph: vertex count, edges, rotation system.

    `edges[e] = (u, v, w)` with u != v and w a nonzero scalar; parallel
    edges are allowed.  `rotation[v]` lists incident edge indices in
    counterclockwise order; each edge index appears exactly once at each
    endpoint.  The constructor builds the adjacency (see _adjacency) and
    hands it to _embedding.plane_embedding, the package's one embedding
    check, which traces the faces, builds one BFS forest and runs the
    Euler check on every component the forest labels, so a constructed
    graph always carries a plane embedding.  It keeps the faces, the
    adjacency, the component label of each vertex and the tree flag of
    each edge, which the orientation and the matching search reuse.
    """

    __slots__ = ("num_vertices", "edges", "rotation", "_faces", "_adj",
                 "_label", "_tree")

    def __init__(self, num_vertices, edges, rotation):
        n = int(num_vertices)
        if n < 0:
            raise ValueError("negative vertex count")
        es = []
        for u, v, w in edges:
            if not 0 <= u < n or not 0 <= v < n:
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            w = _coerce_scalar(w)
            if not w:
                raise ValueError(f"edge ({u}, {v}) has weight zero")
            es.append((u, v, w))
        es = tuple(es)
        self.num_vertices = n
        self.edges = es
        rot = tuple(tuple(r) for r in rotation)
        if len(rot) != n:
            raise ValueError("one rotation per vertex required")
        m = len(es)
        seen = [0] * (2 * m)  # per (edge, endpoint) pair, that is per dart
        for v, r in enumerate(rot):
            for e in r:
                if not 0 <= e < m:
                    raise ValueError(f"rotation of vertex {v} names a missing edge {e}")
                a, b, _ = es[e]
                if v != a and v != b:
                    raise ValueError(f"edge {e} does not touch vertex {v}")
                seen[2 * e + (v != a)] += 1
        for d, c in enumerate(seen):
            if c != 1:
                raise ValueError(
                    f"edge {d >> 1} must appear exactly once at each endpoint")
        self.rotation = rot
        self._adj = _adjacency(n, es)
        walk = plane_embedding(self._adj, es, self._dart_rotations())
        if walk is None:
            raise ValueError("rotation system is not a plane embedding")
        self._faces, self._label, self._tree = walk

    def _dart_rotations(self):
        # edge e has darts 2e (u side) and 2e+1 (v side)
        edges = self.edges
        return [tuple([2 * e + (v != edges[e][0]) for e in r])
                for v, r in enumerate(self.rotation)]

    def __repr__(self):
        return (f"PlanarGraph({self.num_vertices} vertices, "
                f"{len(self.edges)} edges)")


def _adjacency(n, edges):
    """Per-vertex list of (neighbor, weight, edge index)."""
    adj = [[] for _ in range(n)]
    for e, (u, v, w) in enumerate(edges):
        adj[u].append((v, w, e))
        adj[v].append((u, w, e))
    return adj


def _matching_sum(adj, mask, memo):
    """Weighted count of perfect matchings on the alive-vertex mask."""
    if mask == 0:
        return ONE
    got = memo.get(mask)
    if got is not None:
        return got
    u = (mask & -mask).bit_length() - 1
    rest = mask & ~(1 << u)
    total = ZERO
    for v, w, _ in adj[u]:
        if rest & (1 << v):
            total = total + w * _matching_sum(adj, rest & ~(1 << v), memo)
    memo[mask] = total
    return total


def enumerate_pm(g: PlanarGraph) -> Scalar:
    """Brute-force weighted perfect-matching count.

    Accepts anything with num_vertices and edges; the embedding is never
    consulted.  An odd vertex count yields zero, not an error.
    """
    n = g.num_vertices
    if n > ENUM_CAP:
        raise ValueError(f"{n} vertices exceeds the enumeration cap of {ENUM_CAP}")
    if n % 2:
        return ZERO
    return _matching_sum(_adjacency(n, g.edges), (1 << n) - 1, {})


def _orient_components(g: PlanarGraph) -> tuple:
    """kasteleyn_orient on every component of g at once.  The edges off
    the constructor's BFS forest form the dual forest, rooted at each
    component's first traced face.  Leaves first, each other face orients
    its parent edge to become clockwise-odd."""
    edges, label, faces = g.edges, g._label, g._faces
    face_of = [0] * (2 * len(edges))
    first = {}
    for fi, face in enumerate(faces):
        for d in face:
            face_of[d] = fi
        d = face[0]
        first.setdefault(label[edges[d >> 1][d & 1]], fi)

    orient = [0] * len(edges)
    fixed = list(g._tree)

    dual = [[] for _ in faces]
    for e, in_tree in enumerate(fixed):
        if not in_tree:
            f1, f2 = face_of[2 * e], face_of[2 * e + 1]
            dual[f1].append((f2, e))
            dual[f2].append((f1, e))
    # parent[f] is the edge to f's parent face, -1 at a root
    parent = [None] * len(faces)
    order = list(first.values())
    for f in order:
        parent[f] = -1
    for f in order:
        for nf, e in dual[f]:
            if parent[nf] is None:
                parent[nf] = e
                order.append(nf)

    # dart d runs clockwise around its face when orient[d >> 1] != d & 1
    for f in reversed(order):
        e = parent[f]
        if e < 0:
            continue
        count = sum(1 for d in faces[f]
                    if fixed[d >> 1] and orient[d >> 1] != d & 1)
        d = 2 * e if face_of[2 * e] == f else 2 * e + 1
        orient[e] = (d ^ 1) & 1 if count % 2 == 0 else d & 1
        fixed[e] = True

    if not all(fixed):
        raise ValueError("embedding left an edge unoriented; dual structure broken")
    for f in order:
        if parent[f] >= 0 and sum(
                1 for d in faces[f] if orient[d >> 1] != d & 1) % 2 == 0:
            raise ValueError("clockwise-odd postcondition failed")
    return tuple(orient)


def kasteleyn_orient(g: PlanarGraph) -> tuple:
    """An orientation making every bounded face clockwise-odd.

    Returns a tuple over edges: 0 orients edge e from u to v, 1 the other
    way.  The first traced face plays the outer face; every other face
    ends up with an odd number of edges oriented against its traversal,
    which is the clockwise-odd property under counterclockwise rotations.
    Requires a connected graph; the property is re-checked before
    returning.  count_pm_fkt orients every component in the same pass.
    """
    if any(g._label):
        raise ValueError("kasteleyn_orient needs a connected graph")
    return _orient_components(g)


def pfaffian(matrix) -> Scalar:
    """Exact Pfaffian of a skew-symmetric scalar matrix.

    A sparse skew elimination over the nonzero entries, pivoting in
    minimum-degree order (see _pfaffian_rows).  Odd dimension gives zero;
    a matrix that is not square or not skew is an error, and the error
    names the least (i, j) with i <= j where A[i][j] != -A[j][i].
    """
    a = [[_coerce_scalar(x) for x in row] for row in matrix]
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("matrix is not square")
    rows = [{} for _ in range(n)]
    for i, row in enumerate(a):
        for j in range(i, n):
            x = row[j]
            if x + a[j][i]:
                raise ValueError(
                    "matrix is not skew-symmetric at (%d, %d)" % (i, j))
            if x:
                rows[i][j] = rows[j][i] = x
    return _pfaffian_rows(rows)


def _pfaffian_rows(rows) -> Scalar:
    """Exact Pfaffian of the skew matrix A stored half: for each nonzero
    pair, rows[i][j] and rows[j][i] hold one value S, and A[i][j] = S
    when i < j, else -S.  Zero entries are absent.  The rows are
    consumed.

    Each step pivots on a live vertex p of least degree and its neighbour
    q of least degree (ties to the lower index), multiplies the result by
    A[p][q], and replaces the rest by its skew Schur complement, which
    changes only the entries among the neighbours of p and q:
    A[i][j] += (A[q][i] A[p][j] - A[p][i] A[q][j]) / A[p][q].  Signs are
    fixed on the two pivot rows alone; the update runs over the
    neighbours in increasing order, so it adds to A[i][j] with i < j,
    which is the stored value itself.  Entries that cancel are dropped,
    so a live vertex with an empty row means a zero Pfaffian.  The
    Pfaffian is the product of the pivots times the sign of the
    elimination order.  Minimum degree keeps the fill of planar matrices
    small (Lipton, Rose and Tarjan 1979).
    """
    n = len(rows)
    if n % 2:
        return ZERO
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    live = [True] * n
    order = []
    result = ONE
    while heap:
        degree, p = heapq.heappop(heap)
        if not live[p] or degree != len(rows[p]):
            continue
        row_p = rows[p]
        if not row_p:
            return ZERO
        q = min(row_p, key=lambda j: (len(rows[j]), j))
        row_q = rows[q]
        pivot = row_p.pop(q)
        del row_q[p]
        for j in row_p:
            del rows[j][p]
        for j in row_q:
            del rows[j][q]
        live[p] = live[q] = False
        order += (p, q)
        if p > q:
            pivot = -pivot
        result = result * pivot
        # with u = A[p] and w = A[q] / pivot, the update is w_i u_j - u_i w_j
        inv = pivot.inverse()
        minus_inv = -inv
        u = {j: x if p < j else -x for j, x in row_p.items()}
        w = {i: x * (inv if q < i else minus_inv) for i, x in row_q.items()}
        near = [(i, w.get(i), u.get(i)) for i in sorted(u.keys() | w.keys())]
        for s, (i, wi, ui) in enumerate(near):
            row_i = rows[i]
            for j, wj, uj in near[s + 1:]:
                d = wi * uj if wi is not None and uj is not None else None
                if wj is not None and ui is not None:
                    d = -(wj * ui) if d is None else d - wj * ui
                if d is None:
                    continue
                old = row_i.get(j)
                if old is not None:
                    d = old + d
                if d:
                    row_i[j] = rows[j][i] = d
                elif old is not None:
                    del row_i[j], rows[j][i]
        for i, _, _ in near:
            heapq.heappush(heap, (len(rows[i]), i))
    return -result if _odd_permutation(order) else result


def _odd_permutation(order) -> bool:
    """Whether the permutation i -> order[i] of range(len(order)) is odd:
    its sign is (-1)^(n - number of cycles)."""
    n = len(order)
    seen = [False] * n
    cycles = 0
    for v in range(n):
        if not seen[v]:
            cycles += 1
            while not seen[v]:
                seen[v] = True
                v = order[v]
    return (n - cycles) % 2 == 1


def _perfect_matching(n, adj):
    """The mates of one perfect matching of the graph with adjacency adj
    (see _adjacency), or None when it has none.

    A greedy pass matches what it can; then Edmonds' blossom search runs
    from each vertex still free, in Gabow's form (Gabow 1976): outer
    vertices carry a label that spells their alternating path to the
    root (a vertex label, or an edge label (x, y) inside a blossom), and
    `first` points along that path to the next vertex that is not outer,
    compressed as blossoms form.  A search costs about the edges it
    scans, whatever the blossoms.  When one finds no augmenting path, its
    root stays free in some maximum matching, so there is no perfect
    matching.
    """
    if n % 2:
        return None
    # mate[v] == n marks v free; the sentinel n is its own mate
    mate = [n] * (n + 1)
    for u in range(n):
        if mate[u] == n:
            for v, _, _ in adj[u]:
                if mate[v] == n:
                    mate[u], mate[v] = v, u
                    break
    for root in range(n):
        if mate[root] == n and not _augment(root, adj, mate):
            return None
    del mate[n]
    return mate


def _augment(root, adj, mate) -> bool:
    """Search from the free vertex root for an augmenting path and flip
    it into mate; False when there is none.  The labels live for one
    search, so its cost is that of the part of the graph it reaches."""
    n = len(mate) - 1
    label = {root: None}  # the outer vertices
    first = {root: n}

    def nonouter(v):
        # the first vertex on v's path that is not outer, with the
        # pointers on the way compressed to it
        f = first[v]
        while f in label:
            f = first[f]
        while first[v] != f:
            first[v], v = f, first[v]
        return f

    queue = [root]
    for x in queue:
        for y, _, _ in adj[x]:
            if mate[y] == n and y != root:
                # rematch the path root ... x y: each step pairs v with w
                # and repairs the path behind v's old mate
                mate[y] = x
                todo = [(x, y)]
                while todo:
                    v, w = todo.pop()
                    t = mate[v]
                    mate[v] = w
                    if mate[t] != v:
                        continue
                    lab = label[v]
                    if lab.__class__ is tuple:
                        todo += ((lab[1], lab[0]), lab)
                    else:
                        mate[t] = lab
                        todo.append((lab, t))
                return True
            if y in label:
                # a blossom: walk both paths by turns to their join, then
                # label the non-outer vertices before it
                r, s = nonouter(x), nonouter(y)
                if r == s:
                    continue
                flagged = {r, s}
                while True:
                    if s != n:
                        r, s = s, r
                    r = nonouter(label[mate[r]])
                    if r in flagged:
                        break
                    flagged.add(r)
                join = r
                for v in (nonouter(x), nonouter(y)):
                    while v != join:
                        label[v] = (x, y)
                        first[v] = join
                        queue.append(v)
                        v = nonouter(label[mate[v]])
                continue
            v = mate[y]
            if v not in label:
                label[v] = x
                first[v] = y
                queue.append(v)
    return False


def _count_component(g, orient) -> Scalar:
    """FKT count for g under its Kasteleyn orientation: one Pfaffian of
    the weighted matrix, built as half-stored rows (see _pfaffian_rows)
    with parallel edges summed, times the sign of one perfect matching's
    term, and zero with no elimination when there is no perfect matching.

    Under the orientation every perfect matching has the same term sign,
    so any one fixes it: the sign of the permutation (u1 v1 u2 v2 ...)
    that lists each matched pair tail first.  Parallel edges that a
    perfect matching can use run alike, for the 2-cycle they form holds
    an even number of vertices, so any arc of the pair gives its tail.
    The matching covers every component, so a disconnected graph needs
    no more."""
    n = g.num_vertices
    mate = _perfect_matching(n, g._adj)
    if mate is None:
        return ZERO
    order = []
    rows = [{} for _ in range(n)]
    for (u, v, w), o in zip(g.edges, orient):
        if o:
            u, v = v, u
        if mate[u] == v:
            mate[u] = mate[v] = -1  # each pair once
            order += (u, v)
        if u > v:  # A[v][u] = -w
            u, v, w = v, u, -w
        row_u = rows[u]
        old = row_u.get(v)
        if old is not None:
            w = old + w
        if w:
            row_u[v] = rows[v][u] = w
        else:
            del row_u[v], rows[v][u]
    pf = _pfaffian_rows(rows)
    return -pf if _odd_permutation(order) else pf


def count_pm_fkt(g: PlanarGraph) -> Scalar:
    """Weighted perfect-matching count via Kasteleyn orientation and
    Pfaffian, exact over the scalar field.

    One orientation pass covers every component, one blossom search
    finds a perfect matching of the whole graph or proves there is none
    (an isolated vertex or an odd component gives zero), and one
    Pfaffian, signed by that matching, is the count.
    """
    return _count_and_orientation(g)[0]


def _count_and_orientation(g: PlanarGraph):
    """count_pm_fkt(g) and the Kasteleyn orientation of g, None when g is
    disconnected.  One orientation pass serves both."""
    orient = _orient_components(g)
    return (_count_component(g, orient),
            None if any(g._label) else orient)


# -- matchgate fragments ---------------------------------------------------------


class MatchgateFragment:
    """An embedded weighted graph with ordered dangling stubs, and a
    nonzero scalar `scale` that multiplies its signature.

    `dangling[j]` is the internal vertex carrying stub j; stub j stands
    for signature variable j+1.  Rotations use a combined id space:
    dangling stubs take ids 0..k-1 in variable order, internal edges take
    ids k..k+m-1 in edge-list order.  These are the edge ids of one
    PlanarGraph on n + k vertices, in which stub j runs from dangling[j]
    to a phantom vertex n + j whose rotation is (j,); the constructor
    checks the fragment as that graph (see _forced_graph).  All stubs
    must lie on one face with their cyclic order matching the variable
    order (the outer-boundary condition that makes stitching into a
    planar grid planar again).
    """

    __slots__ = ("num_vertices", "edges", "rotation", "dangling", "scale")

    def __init__(self, num_vertices, edges, rotation, dangling, scale=ONE):
        n = int(num_vertices)
        self.scale = _coerce_scalar(scale)
        if not self.scale:
            raise ValueError("fragment has scale zero")
        self.dangling = tuple(dangling)
        k = len(self.dangling)
        for j, v in enumerate(self.dangling):
            if not 0 <= v < n:
                raise ValueError(f"stub {j} attaches to a missing vertex {v}")
        self.edges = tuple(edges)
        for u, v, _ in self.edges:
            if not 0 <= u < n or not 0 <= v < n:
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
        self.num_vertices = n
        self.rotation = tuple(tuple(r) for r in rotation)
        g = self._forced_graph((1 << k) - 1)
        self.edges = g.edges[k:]
        if k:
            # dart 1 is the phantom end of stub 0; odd darts below 2k are
            # the phantom ends of stubs
            home = next(f for f in g._faces if 1 in f)
            seq = [d // 2 for d in home if d % 2 and d // 2 < k]
            if len(seq) != k:
                raise ValueError("dangling stubs do not share one face")
            if any((b - a) % k != 1 for a, b in zip(seq, seq[1:])):
                raise ValueError(
                    f"dangling stubs out of cyclic order on the outer face: {seq}")

    @property
    def arity(self) -> int:
        return len(self.dangling)

    def internal_graph(self) -> PlanarGraph:
        """The embedded graph with the stubs stripped."""
        return self._forced_graph(0)

    def _forced_graph(self, y) -> PlanarGraph:
        """The fragment's graph keeping stub j and its phantom exactly
        when bit j of y is set, renumbered in order.  Deleting pendant
        phantoms keeps it plane.  Its count times the scale is the entry
        at y, zero when y forces a vertex twice (two phantoms, one mate)."""
        n, k = self.num_vertices, len(self.dangling)
        kept = [j for j in range(k) if (y >> (k - 1 - j)) & 1]
        s = len(kept)
        renamed = {j: t for t, j in enumerate(kept)}
        rotation = [tuple(t - k + s if t >= k else renamed.get(t, t)
                          for t in r if t in renamed or not 0 <= t < k)
                    for r in self.rotation]
        return PlanarGraph(
            n + s, [(self.dangling[j], n + t, ONE) for t, j in enumerate(kept)]
            + list(self.edges), rotation + [(t,) for t in range(s)])

    def __repr__(self):
        return (f"MatchgateFragment({self.num_vertices} vertices, "
                f"{len(self.edges)} edges, arity {self.arity})")


def fragment_signature(frag: MatchgateFragment) -> Signature:
    """The signature the fragment realizes, by enumeration.

    Entry at y is the scale times the weighted perfect-matching count of
    the internal graph with the vertex under stub j removed exactly when
    bit j of y is set (stub j forced into the matching); a stub pattern
    consuming a vertex twice contributes zero.
    """
    n, k = frag.num_vertices, frag.arity
    if n > ENUM_CAP:
        raise ValueError(
            f"{n} internal vertices exceeds the fragment cap of {ENUM_CAP}")
    adj, memo, full = _adjacency(n, frag.edges), {}, (1 << n) - 1
    values = []
    for y in range(1 << k):
        forced = {frag.dangling[j] for j in range(k) if (y >> (k - 1 - j)) & 1}
        values.append(ZERO if len(forced) < y.bit_count() else frag.scale
                      * _matching_sum(adj, full - sum(1 << v for v in forced), memo))
    return Signature(values)


def evaluate_matchgate_grid(grid, realizations) -> Scalar:
    """Holant value of a closed grid whose signatures all carry matchgate
    realizations.

    Each distinct (realization, signature) pair is checked once by
    _realizes, in polynomial time; then _stitched_value computes the
    Holant value.  A zero signature has no support point for that check,
    so fragment_signature checks its realization, up to ENUM_CAP
    internal vertices.
    """
    if grid.dangling:
        raise ValueError("grid has dangling edges; matchgate evaluation needs a closed grid")
    realizations = list(realizations)
    if len(realizations) != len(grid.vertices):
        raise ValueError("one realization per grid vertex required")
    realizes = functools.cache(_realizes)
    for i, (vertex, frag) in enumerate(zip(grid.vertices, realizations)):
        if frag is None:
            raise ValueError(f"vertex {i} has no realization")
        if frag.arity != vertex.degree:
            raise ValueError(
                f"vertex {i}: realization arity {frag.arity} "
                f"!= degree {vertex.degree}")
        if not realizes(frag, vertex.signature):
            raise ValueError(
                f"vertex {i}: realization does not produce its signature")
    return _stitched_value(grid, realizations)


def _stitched_value(grid, realizations) -> Scalar:
    """The Holant value of the closed grid whose vertex i carries the
    fragment realizations[i], taken on trust: the fragments are stitched
    along grid edges into one embedded graph (each grid edge joins two
    stub attachment vertices with a unit edge), and the matching count
    of the stitched graph times every fragment's scale is the value."""
    # vertex v of fragment i becomes offsets[i] + v, and its internal
    # edge t (combined id t >= k_i) becomes edge bases[i] + t - k_i
    offsets = [0, *accumulate(frag.num_vertices for frag in realizations)]
    bases = [0, *accumulate(len(frag.edges) for frag in realizations)]
    edges = [(u + o, v + o, w) for frag, o in zip(realizations, offsets)
             for u, v, w in frag.edges]

    # per grid vertex, the edge each stub becomes; None drops the stub
    links = [[None] * frag.arity for frag in realizations]
    for edge_id in grid.edge_ids:
        (i1, s1), (i2, s2) = grid.occurrences(edge_id)
        a = realizations[i1].dangling[s1] + offsets[i1]
        b = realizations[i2].dangling[s2] + offsets[i2]
        if a == b:
            # a stitched self-loop can never be matched, and forcing both
            # stubs consumes the vertex twice, so only the all-unused term
            # survives: dropping the edge is exact
            continue
        links[i1][s1] = links[i2][s2] = len(edges)
        edges.append((a, b, ONE))

    rotation = []
    for frag, base, link in zip(realizations, bases, links):
        k = frag.arity
        for r in frag.rotation:
            rotation.append(tuple(base + t - k if t >= k else link[t]
                                  for t in r
                                  if t >= k or link[t] is not None))
    value = count_pm_fkt(PlanarGraph(offsets[-1], edges, rotation))
    for frag in realizations:
        value = value * frag.scale
    return value


# -- built-in realizations -------------------------------------------------------


def _load_library():
    """Does nothing, as built-in fragments are built on demand; kept for
    perfbench/worker.py and perfbench/setup_probe.py, which call it."""


def _all_zero_fragment(k: int) -> MatchgateFragment:
    """[y == 0...0]: the path x_1 - a_1 - ... - x_k - a_k, stub j at a_j.
    Its only perfect matching pairs each x_j with a_j, and removing any
    a_j leaves a segment of odd length."""
    # vertex 2j is x_j, vertex 2j + 1 is a_j; internal edge v joins v, v + 1
    edges = [(v, v + 1, ONE) for v in range(2 * k - 1)]
    rotation = []
    for j in range(k):
        left, mid, right = k + 2 * j - 1, k + 2 * j, k + 2 * j + 1
        rotation.append((left, mid) if j else (mid,))
        rotation.append((j, right, mid) if j < k - 1 else (j, mid))
    return MatchgateFragment(2 * k, edges, rotation, tuple(range(1, 2 * k, 2)))


def _all_one_fragment(k: int) -> MatchgateFragment:
    """[y == 1...1]: stubs at 0..k-1, each joined to a hub k with a
    pendant k + 1."""
    edges = [(j, k, ONE) for j in range(k)] + [(k, k + 1, ONE)]
    rotation = [(j, k + j) for j in range(k)]
    rotation += [tuple(range(k, 2 * k + 1)), (2 * k,)]
    return MatchgateFragment(k + 2, edges, rotation, tuple(range(k)))


def _exact_one_fragment(k: int) -> MatchgateFragment:
    return MatchgateFragment(1, [], [tuple(range(k))], (0,) * k)


def _even_fragment(k: int) -> MatchgateFragment:
    """[y has even weight], k >= 3: a chain of k - 2 EVEN_3 blocks.

    Block b joins a centre 4b + 3 to the terminals 4b, 4b + 1, 4b + 2,
    and 4b to 4b + 1; it realizes [y even] on its terminals.  An edge
    from 4b + 2 to 4b + 4 sums out the variable two blocks share.
    """
    blocks = k - 2
    links = 4 * blocks  # vertex count, and index of the first link edge
    edges = []
    for v in range(0, links, 4):
        edges += [(v + t, v + 3, ONE) for t in range(3)] + [(v, v + 1, ONE)]
    edges += [(v + 2, v + 4, ONE) for v in range(0, links - 4, 4)]
    # stub 0, the link edges in chain order, stub k - 1
    ends = [0, *range(k + links, k + links + blocks - 1), k - 1]
    rotation = []
    for b in range(blocks):
        e = k + 4 * b  # combined id of the block's first edge
        rotation += [(ends[b], e + 3, e), (b + 1, e + 1, e + 3),
                     (ends[b + 1], e + 2), (e, e + 1, e + 2)]
    dangling = (0, *range(1, links, 4), links - 2)
    return MatchgateFragment(links, edges, rotation, dangling)


def builtin_fragment(f: Signature):
    """A realization of f built from the shape of f alone, or None.

    [a,0,0,b] with a, b nonzero is one edge of weight a/b with scale b,
    checked as it is built.  Any other f must take one value c on its
    whole support, which picks a unit-weight shape: weight one (1
    vertex), {0...0} (a path, 2k), {1...1} (a hub, k + 2) or, from arity
    3, even weight (a chain, 4k - 8).  The realization is that shape,
    built and checked once per process, and the nonzero c as its scale.
    A shape that fails its check raises ValueError.
    """
    if f.is_zero:
        return None
    n = f.arity
    support = f.support()
    full = (1 << n) - 1
    if n == 2 and support == {0, full}:
        return _checked(MatchgateFragment(2, [(0, 1, f[0] / f[full])],
                                          [(0, 2), (2, 1)], (0, 1), f[full]),
                        f, "[a,0,0,b] edge")
    scale = f[min(support)]
    if any(f[y] != scale for y in support):
        return None
    if support == {1 << j for j in range(n)}:
        build = _exact_one_fragment
    elif support == {0}:
        build = _all_zero_fragment
    elif support == {full}:
        build = _all_one_fragment
    elif n >= 3 and len(support) == 1 << (n - 1) and \
            all(y.bit_count() % 2 == 0 for y in support):
        build = _even_fragment
    else:
        return None
    shape = _unit_shape(build, n, support)
    frag = object.__new__(MatchgateFragment)  # the checked shape, rescaled
    frag.num_vertices, frag.edges, frag.rotation, frag.dangling, frag.scale = \
        shape.num_vertices, shape.edges, shape.rotation, shape.dangling, scale
    return frag


@functools.cache
def _unit_shape(build, n, support):
    """build(n), checked against the signature that is 1 on support."""
    f = Signature([ONE if y in support else ZERO for y in range(1 << n)])
    return _checked(build(n), f, build.__name__)


def _checked(frag, f, name):
    """frag if it realizes the nonzero f (see _realizes), else ValueError."""
    if _realizes(frag, f):
        return frag
    raise ValueError(f"built-in {name} of arity {f.arity} does not realize its signature")


def _realizes(frag, f) -> bool:
    """Whether frag realizes f, of its arity.  The fragment is planar
    with its stubs in order on one face, so its signature is a
    matchgate's, and two matchgate signatures that agree at a support
    point b and at every b ^ e_i ^ e_j agree everywhere (the Pfaffian
    form; Valiant 2008, Cai and Gorenstein 2014).  So a nonzero f must
    have that form at its least support point b, and frag must match f
    at those 1 + C(k, 2) points, one count_pm_fkt each, whatever its
    numbering.  The zero f is compared with fragment_signature."""
    if f.is_zero:
        return fragment_signature(frag).is_zero
    b = min(f.support())
    k = f.arity
    points = [b, *(b ^ (1 << i) ^ (1 << j) for i in range(k) for j in range(i))]
    return _pfaffian_form_violation(f, b) is None and all(
        frag.scale * count_pm_fkt(frag._forced_graph(y)) == f[y]
        for y in points)
