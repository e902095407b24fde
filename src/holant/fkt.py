"""Planar perfect-matching counting and matchgate-realized grid evaluation.

The pipeline is the classical one: orient the edges of an embedded planar
graph so that every bounded face has an odd number of clockwise edges;
then every perfect matching enters the Pfaffian of the signed adjacency
matrix with one common sign.  Everything stays in the exact scalar field,
so the usual absolute-value trick for that sign is unavailable.  Instead
the same oriented matrix with unit weights has Pfaffian sign * #matchings,
an exact integer whose sign is the global one, and which is zero exactly
when no perfect matching exists.  One pass over the faces the PlanarGraph
constructor traced orients every connected component; each component is
then counted on its own, so a unit-weight one needs no weighted Pfaffian.

Both Pfaffians come from one sparse kernel: rows are dicts of nonzero
entries, and a skew elimination pivots on a vertex of minimum degree and
its neighbour of minimum degree, so an update touches only the nonzeros
around the pivot and the fill of a planar matrix stays small whatever
the vertex numbering (Galbiati and Maffioli 1994; Lipton, Rose and
Tarjan 1979).  Permuting vertices multiplies both Pfaffians by the same
sign, so the count does not depend on the pivot order.

Matchgate fragments are embedded weighted graphs with ordered dangling
stubs; their signatures are weighted matching counts with dangling edges
forced in or out.  A fragment is checked as one PlanarGraph in which
every stub ends at a phantom vertex of degree one.  Grids whose vertices
all carry such realizations are evaluated by stitching the fragments into
one planar graph.

builtin_fragment builds a realization from the support of a signature:
a unit-weight shape, built once, times the scale on a separate edge.
"""

from __future__ import annotations

import functools
import heapq
from itertools import accumulate

from ._embedding import is_planar_embedding, trace_faces
from .scalar import ONE, ZERO, Scalar
from .signatures import Signature, _coerce_scalar

#: The matching enumeration refuses beyond this many vertices: the graph
#: of enumerate_pm, the internal vertices of fragment_signature, and so
#: the built-in fragments.
ENUM_CAP = 20


class PlanarGraph:
    """An embedded weighted graph: vertex count, edges, rotation system.

    `edges[e] = (u, v, w)` with u != v and w a nonzero scalar; parallel
    edges are allowed.  `rotation[v]` lists incident edge indices in
    counterclockwise order; each edge index appears exactly once at each
    endpoint.  The constructor runs the Euler check on every connected
    component, so a constructed graph always carries a plane embedding,
    and it keeps the faces it traced for that check.
    """

    __slots__ = ("num_vertices", "edges", "rotation", "_faces")

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
        seen = [0] * len(es)
        for v, r in enumerate(rot):
            for e in r:
                if not 0 <= e < len(es):
                    raise ValueError(f"rotation of vertex {v} names a missing edge {e}")
                if v not in self.edges[e][:2]:
                    raise ValueError(f"edge {e} does not touch vertex {v}")
                seen[e] += 1
        if any(c != 2 for c in seen):
            bad = seen.index(next(c for c in seen if c != 2))
            raise ValueError(f"edge {bad} must appear exactly once at each endpoint")
        self.rotation = rot
        darts = self._dart_rotations()
        self._faces = trace_faces(darts)
        if not is_planar_embedding(darts, self._faces):
            raise ValueError("rotation system is not a plane embedding")

    def _dart_rotations(self):
        # edge e has darts 2e (u side) and 2e+1 (v side)
        out = []
        for v, r in enumerate(self.rotation):
            out.append(tuple(2 * e if v == self.edges[e][0] else 2 * e + 1
                             for e in r))
        return out

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


def _orient_components(g: PlanarGraph):
    """kasteleyn_orient on every component of g at once, and the
    component label of each vertex.  A BFS forest, restarted at each
    unseen vertex, labels the components 0, 1, ...; the other edges form
    the dual forest, rooted at each component's first traced face.
    Leaves first, each other face orients its parent edge to become
    clockwise-odd."""
    n = g.num_vertices
    m = len(g.edges)
    adj = _adjacency(n, g.edges)
    label = [-1] * n
    tree = [False] * m
    components = 0
    for s in range(n):
        if label[s] >= 0:
            continue
        label[s] = components
        queue = [s]
        for u in queue:
            for v, _, e in adj[u]:
                if label[v] < 0:
                    label[v] = components
                    tree[e] = True
                    queue.append(v)
        components += 1

    faces = g._faces
    face_of = {}
    first = {}
    for fi, face in enumerate(faces):
        for d in face:
            face_of[d] = fi
        d = face[0]
        first.setdefault(label[g.edges[d >> 1][d & 1]], fi)

    orient = [0] * m
    fixed = list(tree)

    dual = [[] for _ in faces]
    for e in range(m):
        if not tree[e]:
            f1, f2 = face_of[2 * e], face_of[2 * e + 1]
            dual[f1].append((f2, e))
            dual[f2].append((f1, e))
    # a root has no parent edge
    parent_edge = dict.fromkeys(first.values())
    order = list(parent_edge)
    for f in order:
        for nf, e in dual[f]:
            if nf not in parent_edge:
                parent_edge[nf] = e
                order.append(nf)

    def clockwise(d):
        e = d >> 1
        return 2 * e + orient[e] == d ^ 1

    for f, e in reversed(parent_edge.items()):
        if e is None:
            continue
        count = sum(1 for d in faces[f] if fixed[d >> 1] and clockwise(d))
        d = 2 * e if face_of[2 * e] == f else 2 * e + 1
        orient[e] = (d ^ 1) & 1 if count % 2 == 0 else d & 1
        fixed[e] = True

    if not all(fixed):
        raise ValueError("embedding left an edge unoriented; dual structure broken")
    for f, e in parent_edge.items():
        if e is not None and sum(1 for d in faces[f] if clockwise(d)) % 2 == 0:
            raise ValueError("clockwise-odd postcondition failed")
    return tuple(orient), label


def kasteleyn_orient(g: PlanarGraph) -> tuple:
    """An orientation making every bounded face clockwise-odd.

    Returns a tuple over edges: 0 orients edge e from u to v, 1 the other
    way.  The first traced face plays the outer face; every other face
    ends up with an odd number of edges oriented against its traversal,
    which is the clockwise-odd property under counterclockwise rotations.
    Requires a connected graph; the property is re-checked before
    returning.  count_pm_fkt orients every component in the same pass.
    """
    orient, label = _orient_components(g)
    if any(label):
        raise ValueError("kasteleyn_orient needs a connected graph")
    return orient


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
    return _pfaffian_rows([{j: x for j, x in enumerate(row) if x}
                           for row in a])


def _pfaffian_rows(rows) -> Scalar:
    """Exact Pfaffian of the skew matrix with A[i][j] = rows[i][j], where
    each dict holds only nonzero entries.  The rows are consumed.

    Each step pivots on a live vertex p of least degree and its neighbour
    q of least degree (ties to the lower index), multiplies the result by
    A[p][q], and replaces the rest by its skew Schur complement, which
    changes only the entries among the neighbours of p and q:
    A[i][j] += (A[q][i] A[p][j] - A[p][i] A[q][j]) / A[p][q].  Entries
    that cancel are dropped, so a live vertex with an empty row means a
    zero Pfaffian.  The Pfaffian is the product of the pivots times the
    sign of the elimination order.  Minimum degree keeps the fill of
    planar matrices small (Lipton, Rose and Tarjan 1979).
    """
    n = len(rows)
    # every stored entry needs a stored mirror; the values of a pair are
    # compared once, from the row of its lower index
    bad = [(min(i, j), max(i, j)) for i, row in enumerate(rows)
           for j, x in row.items()
           if i == j or i not in rows[j] or (i < j and x != -rows[j][i])]
    if bad:
        raise ValueError("matrix is not skew-symmetric at (%d, %d)" % min(bad))
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
        result = result * pivot
        # with u = A[p] and w = A[q] / pivot, the update is w_i u_j - u_i w_j
        inv = pivot.inverse()
        w = {i: x * inv for i, x in row_q.items()}
        near = [(i, w.get(i), row_p.get(i)) for i in row_p.keys() | w.keys()]
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
                    row_i[j] = d
                    rows[j][i] = -d
                elif old is not None:
                    del row_i[j], rows[j][i]
        for i, _, _ in near:
            heapq.heappush(heap, (len(rows[i]), i))
    # the order, as a permutation, has sign (-1)^(n - number of cycles)
    seen = [False] * n
    cycles = 0
    for v in range(n):
        if not seen[v]:
            cycles += 1
            while not seen[v]:
                seen[v] = True
                v = order[v]
    return result if (n - cycles) % 2 == 0 else -result


def _count_component(n, arcs) -> Scalar:
    """FKT count for one connected graph on n vertices, n even, from its
    Kasteleyn-oriented arcs (u, v, w); the unit-weight Pfaffian, sign *
    #matchings, fixes the sign of the weighted one.  Both matrices are
    built as sparse rows, with parallel edges summed."""
    unit = [{} for _ in range(n)]
    for u, v, _ in arcs:
        unit[u][v] = unit[u].get(v, 0) + 1
        unit[v][u] = unit[v].get(u, 0) - 1
    count = _pfaffian_rows([{j: Scalar.from_int(c) for j, c in row.items() if c}
                            for row in unit])
    if not count:
        return ZERO
    if all(w == ONE for _, _, w in arcs):
        pf = count
    else:
        mat = [{} for _ in range(n)]
        for u, v, w in arcs:
            mat[u][v] = mat[u][v] + w if v in mat[u] else w
            mat[v][u] = mat[v][u] - w if u in mat[v] else -w
        pf = _pfaffian_rows([{j: x for j, x in row.items() if x}
                             for row in mat])
    return pf if count.as_fraction() > 0 else -pf


def _count_oriented(g: PlanarGraph, orient, label) -> Scalar:
    """count_pm_fkt(g) from _orient_components(g): each component is
    counted on its own vertex indices and the counts multiply."""
    size = [0] * (max(label, default=-1) + 1)
    index = []
    for c in label:
        index.append(size[c])
        size[c] += 1
    if any(k % 2 for k in size):
        return ZERO
    arcs = [[] for _ in size]
    for (u, v, w), o in zip(g.edges, orient):
        if o:
            u, v = v, u
        arcs[label[u]].append((index[u], index[v], w))
    total = ONE
    for k, comp in zip(size, arcs):
        total = total * _count_component(k, comp)
        if not total:
            break
    return total


def count_pm_fkt(g: PlanarGraph) -> Scalar:
    """Weighted perfect-matching count via Kasteleyn orientation and
    Pfaffian, exact over the scalar field.

    One orientation pass covers every component; the components are
    counted apart and multiplied, so an isolated vertex gives zero.
    """
    return _count_oriented(g, *_orient_components(g))


def _count_and_orientation(g: PlanarGraph):
    """count_pm_fkt(g) and the Kasteleyn orientation of g, None when g is
    disconnected.  One orientation pass serves both; the component labels
    tell whether g is connected."""
    orient, label = _orient_components(g)
    return _count_oriented(g, orient, label), None if any(label) else orient


# -- matchgate fragments ---------------------------------------------------------


class MatchgateFragment:
    """An embedded weighted graph with ordered dangling stubs.

    `dangling[j]` is the internal vertex carrying stub j; stub j stands
    for signature variable j+1.  Rotations use a combined id space:
    dangling stubs take ids 0..k-1 in variable order, internal edges take
    ids k..k+m-1 in edge-list order.  These are the edge ids of one
    PlanarGraph on n + k vertices, in which stub j runs from dangling[j]
    to a phantom vertex n + j whose rotation is (j,); the constructor
    checks the fragment as that graph.  All stubs must lie on one face
    with their cyclic order matching the variable order (the
    outer-boundary condition that makes stitching into a planar grid
    planar again).
    """

    __slots__ = ("num_vertices", "edges", "rotation", "dangling")

    def __init__(self, num_vertices, edges, rotation, dangling):
        n = int(num_vertices)
        self.dangling = tuple(dangling)
        k = len(self.dangling)
        stubs = []
        for j, v in enumerate(self.dangling):
            if not 0 <= v < n:
                raise ValueError(f"stub {j} attaches to a missing vertex {v}")
            stubs.append((v, n + j, ONE))
        edges = list(edges)
        for u, v, _ in edges:
            if not 0 <= u < n or not 0 <= v < n:
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
        self.rotation = tuple(tuple(r) for r in rotation)
        g = PlanarGraph(n + k, stubs + edges,
                        self.rotation + tuple((j,) for j in range(k)))
        self.num_vertices = n
        self.edges = g.edges[k:]
        if k:
            # dart 1 is the phantom end of stub 0; odd darts below 2k are
            # the phantom ends of stubs
            home = next(f for f in g._faces if 1 in f)
            seq = [d // 2 for d in home if d % 2 and d // 2 < k]
            if len(seq) != k:
                raise ValueError("dangling stubs do not share one face")
            start = seq.index(0)
            if any(seq[(start + t) % k] != t for t in range(k)):
                raise ValueError(
                    f"dangling stubs out of cyclic order on the outer face: {seq}")

    @property
    def arity(self) -> int:
        return len(self.dangling)

    def internal_graph(self) -> PlanarGraph:
        """The embedded graph with the stubs stripped."""
        k = len(self.dangling)
        rotation = [tuple(t - k for t in r if t >= k) for r in self.rotation]
        return PlanarGraph(self.num_vertices, self.edges, rotation)

    def __repr__(self):
        return (f"MatchgateFragment({self.num_vertices} vertices, "
                f"{len(self.edges)} edges, arity {self.arity})")


def fragment_signature(frag: MatchgateFragment) -> Signature:
    """The signature the fragment realizes.

    Entry at y is the weighted perfect-matching count of the internal
    graph with the vertex under stub j removed exactly when bit j of y is
    set (stub j forced into the matching); a stub pattern consuming a
    vertex twice contributes zero.
    """
    n = frag.num_vertices
    if n > ENUM_CAP:
        raise ValueError(
            f"{n} internal vertices exceeds the fragment cap of {ENUM_CAP}")
    k = frag.arity
    adj = _adjacency(n, frag.edges)
    memo = {}
    full = (1 << n) - 1
    values = []
    for y in range(1 << k):
        mask = full
        dead = False
        for j in range(k):
            if (y >> (k - 1 - j)) & 1:
                bit = 1 << frag.dangling[j]
                if not mask & bit:
                    dead = True
                    break
                mask &= ~bit
        values.append(ZERO if dead else _matching_sum(adj, mask, memo))
    return Signature(values)


def evaluate_matchgate_grid(grid, realizations) -> Scalar:
    """Holant value of a closed grid whose signatures all carry matchgate
    realizations.

    The signature of each distinct realization is computed once and
    compared with every vertex it serves; the fragments are stitched
    along grid edges into one embedded graph (each grid edge joins two
    stub attachment vertices with a unit edge), and the matching count
    of the stitched graph is the Holant value.
    """
    if grid.dangling:
        raise ValueError("grid has dangling edges; matchgate evaluation needs a closed grid")
    realizations = list(realizations)
    if len(realizations) != len(grid.vertices):
        raise ValueError("one realization per grid vertex required")
    realized = {}
    for i, (vertex, frag) in enumerate(zip(grid.vertices, realizations)):
        if frag is None:
            raise ValueError(f"vertex {i} has no realization")
        if frag.arity != vertex.degree:
            raise ValueError(
                f"vertex {i}: realization arity {frag.arity} "
                f"!= degree {vertex.degree}")
        if frag not in realized:
            realized[frag] = fragment_signature(frag)
        if realized[frag] != vertex.signature:
            raise ValueError(
                f"vertex {i}: realization does not produce its signature")

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
    stitched = PlanarGraph(offsets[-1], edges, rotation)
    return count_pm_fkt(stitched)


# -- built-in realizations -------------------------------------------------------


def _load_library():
    """Does nothing, as built-in fragments are built on demand; kept for
    perfbench/worker.py and perfbench/setup_probe.py, which call it."""


def _scaled(frag: MatchgateFragment, scale: Scalar) -> MatchgateFragment:
    """The same gate times a scalar: a far-away weighted edge."""
    # On a component of its own, the scale leaves the stub component unit
    # weighted, so once stitched it needs no weighted elimination.
    if scale == ONE:
        return frag
    n = frag.num_vertices
    new_id = frag.arity + len(frag.edges)
    edges = list(frag.edges) + [(n, n + 1, scale)]
    rotation = list(frag.rotation) + [(new_id,), (new_id,)]
    return MatchgateFragment(n + 2, edges, rotation, frag.dangling)


@functools.cache
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


@functools.cache
def _all_one_fragment(k: int) -> MatchgateFragment:
    """[y == 1...1]: stubs at 0..k-1, each joined to a hub k with a
    pendant k + 1."""
    edges = [(j, k, ONE) for j in range(k)] + [(k, k + 1, ONE)]
    rotation = [(j, k + j) for j in range(k)]
    rotation += [tuple(range(k, 2 * k + 1)), (2 * k,)]
    return MatchgateFragment(k + 2, edges, rotation, tuple(range(k)))


@functools.cache
def _exact_one_fragment(k: int) -> MatchgateFragment:
    return MatchgateFragment(1, [], [tuple(range(k))], (0,) * k)


@functools.cache
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

    [a,0,0,b] with a, b nonzero is one edge of weight a/b, scaled by b.
    Any other f must take one value c on its whole support, which picks
    a unit-weight shape: weight one (1 vertex), {0...0} (a path, 2k),
    {1...1} (a hub, k + 2) or, from arity 3, even weight (a chain,
    4k - 8).  _scaled scales it by c.  None when that exceeds
    ENUM_CAP vertices, so evaluate_matchgate_grid can verify it.
    """
    if f.is_zero:
        return None
    n = f.arity
    support = f.support()
    full = (1 << n) - 1
    if n == 2 and support == {0, full}:
        shape = MatchgateFragment(2, [(0, 1, f[0] / f[full])],
                                  [(0, 2), (2, 1)], (0, 1))
        scale = f[full]
    else:
        scale = f[min(support)]
        if any(f[y] != scale for y in support):
            return None
        if support == {1 << j for j in range(n)}:
            shape = _exact_one_fragment(n)
        elif support == {0}:
            shape = _all_zero_fragment(n)
        elif support == {full}:
            shape = _all_one_fragment(n)
        elif n >= 3 and len(support) == 1 << (n - 1) and \
                all(y.bit_count() % 2 == 0 for y in support):
            shape = _even_fragment(n)
        else:
            return None
    if shape.num_vertices + 2 * (scale != ONE) > ENUM_CAP:
        return None
    return _scaled(shape, scale)
