"""Face tracing for rotation systems (combinatorial embeddings).

A rotation system lists, per vertex, the cyclic counterclockwise order of
its darts.  Darts come in twin pairs d, d^1 (the two halves of one edge).
Faces are orbits of the successor map d -> rotation-next of twin(d); the
orbit count plugs into Euler's formula, which is the whole planarity
certificate used here.  No geometry anywhere.  The package's one
union-find lives here too: it splits a rotation system into the
components the Euler check runs on, a #CSP outside the product and
affine families into its constraint graph's components, which the
planner plans one by one, and the literal nodes of a product-family
#CSP (two per variable, one per value) into the mirror classes its
evaluator sums over.  FKT counting does not call it: the BFS forest of
its one orientation pass names the components.
"""

from __future__ import annotations


def trace_faces(rotations) -> list:
    """Face orbits as dart tuples; deterministic order."""
    succ = {}
    for rot in rotations:
        for k, d in enumerate(rot):
            if d in succ:
                raise ValueError(f"dart {d} appears twice in the rotation system")
            succ[d] = rot[(k + 1) % len(rot)]
    for d in succ:
        if d ^ 1 not in succ:
            raise ValueError(f"dart {d} has no twin")
    faces = []
    seen = set()
    for d0 in succ:
        if d0 in seen:
            continue
        face = []
        d = d0
        while True:
            seen.add(d)
            face.append(d)
            d = succ[d ^ 1]
            if d == d0:
                break
        faces.append(tuple(face))
    return faces


def component_roots(n, pairs) -> list:
    """Union-find over vertices 0..n-1 joined by the (u, v) `pairs`.

    Returns one representative per vertex; two vertices share it exactly
    when they are connected.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    return [find(v) for v in range(n)]


def is_planar_embedding(rotations, faces=None) -> bool:
    """Does V - E + F = 2 hold on every connected component?

    Components with no edges are trivially planar.  Raises on a malformed
    rotation system (duplicate or unmatched darts).  `faces` is
    trace_faces(rotations) when the caller already has it.
    """
    if faces is None:
        faces = trace_faces(rotations)
    vertex_of = {}
    for v, rot in enumerate(rotations):
        for d in rot:
            vertex_of[d] = v
    root = component_roots(
        len(rotations), ((v, vertex_of[d ^ 1]) for d, v in vertex_of.items()))

    verts = {}
    edges = {}
    fcount = {}
    for v, rot in enumerate(rotations):
        if rot:
            r = root[v]
            verts[r] = verts.get(r, 0) + 1
            edges[r] = edges.get(r, 0) + len(rot)
    for face in faces:
        r = root[vertex_of[face[0]]]
        fcount[r] = fcount.get(r, 0) + 1
    return all(verts[r] - edges[r] // 2 + fcount.get(r, 0) == 2
               for r in verts)
