"""Face tracing and the plane-embedding check for rotation systems.

A rotation system lists, per vertex, the cyclic counterclockwise order of
its darts.  Darts come in twin pairs d, d^1 (the two halves of one edge).
Faces are orbits of the successor map d -> rotation-next of twin(d); the
orbit count plugs into Euler's formula, which is the whole planarity
certificate used here.  No geometry anywhere.  plane_embedding is the
package's one embedding check, for PlanarGraph and for
SignatureGrid.is_planar alike: it traces the faces, labels the
components by one BFS forest, whose tree the FKT orientation reuses,
and counts V - E + F on each.  The package's one union-find lives here
too: it splits a #CSP outside the product and affine families into its
constraint graph's components, which the planner plans one by one, and
the literal nodes of a product-family #CSP (two per variable, one per
value) into the mirror classes its evaluator sums over.
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


def plane_embedding(adj, ends, rotations):
    """The faces, component labels and BFS tree of a plane embedding, or
    None when some component breaks Euler's formula.

    `adj[v]` lists (neighbour, weight, edge index) in edge-index order,
    `ends[e]` starts with the two endpoints of edge e, whose darts 2e and
    2e + 1 sit at ends[e][0] and ends[e][1], and `rotations[v]` is the
    counterclockwise dart order at v.  The faces are traced (a malformed
    rotation system raises ValueError); one BFS over adj, restarted at
    each unseen vertex, labels the components 0, 1, ... in order of
    their least vertex and flags the edges of its tree; then
    V - E + F = 2 must hold on every component.  An edgeless vertex has
    no traced face, so it counts for two: a vertex and its one face.
    """
    faces = trace_faces(rotations)
    label = [-1] * len(adj)
    tree = [False] * len(ends)
    euler = []
    for s in range(len(adj)):
        if label[s] >= 0:
            continue
        c = label[s] = len(euler)
        euler.append(0)
        queue = [s]
        for u in queue:
            for v, _, e in adj[u]:
                if label[v] < 0:
                    label[v] = c
                    tree[e] = True
                    queue.append(v)
    for v, r in enumerate(rotations):
        euler[label[v]] += 1 if r else 2
    for end in ends:
        euler[label[end[0]]] -= 1
    for face in faces:
        d = face[0]
        euler[label[ends[d >> 1][d & 1]]] += 1
    return (faces, label, tree) if all(x == 2 for x in euler) else None
