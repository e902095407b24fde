import functools
import random
import sys
import time

import pytest

from _util import (
    SMALL_POOL,
    fibonacci,
    fragment_on_face,
    grid_graph,
    is_planar_embedding,
    pfaffian_by_expansion,
    rand_nonzero_scalar,
    random_fragment,
    random_planar_graph,
    realizable_signature,
    random_closed_grid,
)
from holant import fkt
from holant._embedding import component_roots, trace_faces
from holant.classes import is_matchgate, parity_of
from holant.fkt import (
    MatchgateFragment,
    PlanarGraph,
    builtin_fragment,
    count_pm_fkt,
    enumerate_pm,
    evaluate_matchgate_grid,
    fragment_signature,
    kasteleyn_orient,
    pfaffian,
)
from holant.grids import SignatureGrid, brute_force_holant
from holant.scalar import I, MINUS_ONE, ONE, ZERO, Scalar
from holant.signatures import Signature, equality, exact_one, unary
from holant.transforms import H2, apply_matrix


def cycle_graph(n):
    edges = [(v, (v + 1) % n, 1) for v in range(n)]
    rot = [((v - 1) % n, v) for v in range(n)]
    return PlanarGraph(n, edges, rot)


def path_graph(n):
    edges = [(v, v + 1, 1) for v in range(n - 1)]
    rot = [(0,)] + [(v - 1, v) for v in range(1, n - 1)] + [(n - 2,)]
    return PlanarGraph(n, edges, rot)


def k4_graph():
    edges = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
    rot = [(0, 1, 2), (0, 4, 3), (1, 3, 5), (2, 5, 4)]
    return PlanarGraph(4, edges, rot)


def exact_det(rows):
    rows = [list(r) for r in rows]
    m = len(rows)
    det = ONE
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col]), None)
        if piv is None:
            return ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].inverse()
        for r in range(col + 1, m):
            if rows[r][col]:
                c = rows[r][col] * inv
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[col])]
    return det


# -- embedded graphs -------------------------------------------------------------


def test_self_loops_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        PlanarGraph(1, [(0, 0, 1)], [(0, 0)])


def test_zero_weight_rejected():
    with pytest.raises(ValueError, match="zero"):
        PlanarGraph(2, [(0, 1, 0)], [(0,), (0,)])


def test_missing_vertex_rejected():
    with pytest.raises(ValueError, match="missing"):
        PlanarGraph(2, [(0, 5, 1)], [(0,), (0,)])


@pytest.mark.parametrize("rotation", [
    [(0, 0), ()],       # twice at its first end, never at its second
    [(), (0, 0)],       # twice at its second end
    [(0, 0), (0,)],     # twice at one end, once at the other
    [(0,), ()],         # once at its first end only
])
def test_an_edge_listed_twice_at_one_endpoint_is_named(rotation):
    with pytest.raises(ValueError) as err:
        PlanarGraph(2, [(0, 1, 1)], rotation)
    assert str(err.value) == "edge 0 must appear exactly once at each endpoint"


def test_crossing_rotation_rejected():
    edges = [(0, 1, 1), (0, 2, 1), (0, 3, 1),
             (1, 2, 1), (1, 3, 1), (2, 3, 1)]
    rot = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]
    with pytest.raises(ValueError):
        PlanarGraph(4, edges, rot)


def test_parallel_edges_allowed():
    g = PlanarGraph(2, [(0, 1, 1), (0, 1, 2)], [(0, 1), (1, 0)])
    assert enumerate_pm(g) == Scalar.from_int(3)
    assert count_pm_fkt(g) == Scalar.from_int(3)


def with_parallel_copy(rng, g, w):
    """g with a copy of weight w of one of its edges, placed at random in
    both rotations until the embedding stays plane, and the copy's id."""
    e = rng.randrange(len(g.edges))
    u, v, _ = g.edges[e]
    c = len(g.edges)
    while True:
        rotation = [list(r) for r in g.rotation]
        for x in (u, v):
            rotation[x].insert(rng.randrange(len(rotation[x]) + 1), c)
        try:
            return PlanarGraph(g.num_vertices, [*g.edges, (u, v, w(g.edges[e]))],
                               rotation), e, c
        except ValueError:
            continue


def test_parallel_edges_that_cancel_or_run_opposite(monkeypatch):
    rng = random.Random(72)
    built = []
    rows = fkt._pfaffian_rows

    def keeping(matrix):
        built.append([dict(row) for row in matrix])
        return rows(matrix)

    monkeypatch.setattr(fkt, "_pfaffian_rows", keeping)
    drawn = set()
    for t in range(300):
        g = random_planar_graph(rng, max_vertices=10, extra_edges=4,
                                weight_pool=SMALL_POOL)
        cancel = t % 2 == 0
        g, e, c = with_parallel_copy(
            rng, g, (lambda edge: -edge[2]) if cancel
            else (lambda edge: rand_nonzero_scalar(rng)))
        built.clear()
        assert count_pm_fkt(g) == enumerate_pm(g)
        if not built:
            continue  # no perfect matching, so no matrix
        orient = kasteleyn_orient(g)
        u, v, _ = g.edges[e]
        if orient[e] != orient[c]:
            drawn.add("opposite")
        elif cancel and sum(1 for a, b, _ in g.edges if {a, b} == {u, v}) == 2:
            # the pair cancels as the rows are built
            assert v not in built[0][u] and u not in built[0][v]
            drawn.add("alike, cancelling")
    assert drawn == {"opposite", "alike, cancelling"}


# -- pfaffian --------------------------------------------------------------------


def test_pfaffian_of_one_edge():
    a = Scalar.from_int(7)
    assert pfaffian([[ZERO, a], [-a, ZERO]]) == a


def test_pfaffian_four_by_four():
    m = [[0, 1, 1, 1],
         [-1, 0, 4, 3],
         [-1, -4, 0, 2],
         [-1, -3, -2, 0]]
    # a01*a23 - a02*a13 + a03*a12
    assert pfaffian(m) == Scalar.from_int(2 - 3 + 4)


def test_pfaffian_empty_and_odd():
    assert pfaffian([]) == ONE
    assert pfaffian([[0]]) == ZERO


def test_pfaffian_rejects_non_square():
    with pytest.raises(ValueError):
        pfaffian([[0, 1]])


@pytest.mark.parametrize("matrix", [
    [[0, 1], [1, 0]],
    [[0, 1], [0, 0]],
    [[1, 0], [0, 0]],
    [[0, 1, 2], [-1, 0, 3], [-2, 3, 0]],
])
def test_pfaffian_rejects_non_skew(matrix):
    with pytest.raises(ValueError, match="skew"):
        pfaffian(matrix)


def test_pfaffian_squares_to_determinant():
    rng = random.Random(13)
    for m in (4, 6, 8):
        for _ in range(6):
            a = [[ZERO] * m for _ in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    v = rng.choice(SMALL_POOL)
                    a[i][j] = v
                    a[j][i] = -v
            assert pfaffian(a) * pfaffian(a) == exact_det(a)


def test_pfaffian_reports_the_least_non_skew_position():
    # one-sided entries at (1, 2) and (2, 3), a nonzero diagonal at (3, 3)
    m = [[0, 1, 0, 0],
         [-1, 0, 0, 0],
         [0, 5, 0, 0],
         [0, 0, 2, 4]]
    with pytest.raises(ValueError, match=r"skew-symmetric at \(1, 2\)"):
        pfaffian(m)
    m[2][1] = 0
    with pytest.raises(ValueError, match=r"skew-symmetric at \(2, 3\)"):
        pfaffian(m)
    m[3][2] = 0
    with pytest.raises(ValueError, match=r"skew-symmetric at \(3, 3\)"):
        pfaffian(m)


def test_pfaffian_names_the_least_non_skew_position_of_random_matrices():
    rng = random.Random(73)
    for _ in range(200):
        m = rng.randint(1, 7)
        a = [[ZERO] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < 0.6:
                    a[i][j] = rng.choice(SMALL_POOL)
                    a[j][i] = -a[i][j]
        for _ in range(rng.randint(1, 3)):
            a[rng.randrange(m)][rng.randrange(m)] = rng.choice(SMALL_POOL)
        bad = [(i, j) for i in range(m) for j in range(i, m)
               if a[i][j] != -a[j][i]]
        if not bad:
            assert pfaffian(a) * pfaffian(a) == exact_det(a)
            continue
        with pytest.raises(ValueError,
                           match=r"skew-symmetric at \(%d, %d\)$" % bad[0]):
            pfaffian(a)


def _skew(n, entry):
    a = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = entry(i, j)
            a[j][i] = -a[i][j]
    return a


def _congruent(rng, n):
    """B^T S B for a random B over {0, 1, -1} and S a direct sum of 2x2
    blocks, one of them zero at random, so its Pfaffian det(B) Pf(S) is
    often zero and the elimination has to cancel its way there."""
    s = [[ZERO] * n for _ in range(n)]
    for k in range(0, n - 1, 2):
        v = rng.choice(SMALL_POOL[1:])
        s[k][k + 1], s[k + 1][k] = v, -v
    if n >= 2 and rng.random() < 0.5:
        k = 2 * rng.randrange(n // 2)
        s[k][k + 1] = s[k + 1][k] = ZERO
    b = [[rng.choice((ZERO, ZERO, ONE, MINUS_ONE)) for _ in range(n)]
         for _ in range(n)]
    sb = [[sum((s[i][t] * b[t][j] for t in range(n)), ZERO)
           for j in range(n)] for i in range(n)]
    return [[sum((b[t][i] * sb[t][j] for t in range(n)), ZERO)
             for j in range(n)] for i in range(n)]


def test_pfaffian_matches_first_row_expansion():
    rng = random.Random(29)
    kinds = {
        "sparse": lambda n: _skew(n, lambda i, j: rng.choice(SMALL_POOL)
                                  if rng.random() < 0.3 else ZERO),
        "dense": lambda n: _skew(n, lambda i, j: rng.choice(SMALL_POOL)),
        "cancelling": lambda n: _skew(n, lambda i, j: rng.choice(
            (ZERO, ONE, MINUS_ONE))),
        "congruent": lambda n: _congruent(rng, n),
    }
    zeros = 0
    for kind, make in kinds.items():
        for n in range(11):
            for _ in range(8):
                a = make(n)
                if n and rng.random() < 0.2:
                    z = rng.randrange(n)
                    for t in range(n):
                        a[z][t] = a[t][z] = ZERO
                want = pfaffian_by_expansion(a)
                zeros += n % 2 == 0 and not want
                assert pfaffian(a) == want, (kind, a)
    assert zeros > 20  # plenty of cancellation to zero at even n


def test_pfaffian_drops_fill_that_cancels():
    # Pf = a01 a23 - a02 a13 + a03 a12 = -1 - 1 + 2: whatever the first
    # pivot, the update cancels the last entry and leaves empty rows
    m = [[0, 1, 1, 1],
         [-1, 0, 2, 1],
         [-1, -2, 0, -1],
         [-1, -1, 1, 0]]
    assert pfaffian(m) == ZERO == pfaffian_by_expansion(
        [[Scalar.from_int(x) for x in row] for row in m])


# -- orientation -----------------------------------------------------------------


def clockwise_odd_everywhere(g, orient):
    faces = trace_faces(g._dart_rotations())
    for face in faces[1:]:
        clockwise = sum(1 for d in face
                        if 2 * (d >> 1) + orient[d >> 1] == d ^ 1)
        if clockwise % 2 == 0:
            return False
    return True


def test_orientation_on_small_graphs():
    for g in (cycle_graph(4), cycle_graph(6), k4_graph(), path_graph(5)):
        assert clockwise_odd_everywhere(g, kasteleyn_orient(g))


def test_orientation_on_random_graphs():
    rng = random.Random(14)
    for _ in range(60):
        g = random_planar_graph(rng, max_vertices=9, extra_edges=5)
        assert clockwise_odd_everywhere(g, kasteleyn_orient(g))


def test_orientation_needs_connectivity():
    g = PlanarGraph(4, [(0, 1, 1), (2, 3, 1)],
                    [(0,), (0,), (1,), (1,)])
    with pytest.raises(ValueError, match="connected"):
        kasteleyn_orient(g)


def test_orientation_of_edgeless_connected_graphs():
    assert kasteleyn_orient(PlanarGraph(0, [], [])) == ()
    assert kasteleyn_orient(PlanarGraph(1, [], [()])) == ()


# -- matching counts -------------------------------------------------------------


def test_known_counts():
    assert count_pm_fkt(cycle_graph(4)) == Scalar.from_int(2)
    assert count_pm_fkt(path_graph(4)) == ONE
    assert count_pm_fkt(k4_graph()) == Scalar.from_int(3)
    # two matchings of weights 1 and -1 cancel
    cancelling = PlanarGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, -1)],
                             [(3, 0), (0, 1), (1, 2), (2, 3)])
    assert count_pm_fkt(cancelling) == ZERO


def test_two_by_three_grid_has_three_matchings():
    edges = [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1),
             (0, 3, 1), (1, 4, 1), (2, 5, 1)]
    rot = [(0, 4), (1, 0, 5), (6, 1), (4, 2), (3, 5, 2), (6, 3)]
    g = PlanarGraph(6, edges, rot)
    assert enumerate_pm(g) == Scalar.from_int(3)
    assert count_pm_fkt(g) == Scalar.from_int(3)


def test_odd_graphs_have_no_matchings():
    assert count_pm_fkt(path_graph(3)) == ZERO
    assert enumerate_pm(path_graph(3)) == ZERO


def test_empty_graph_counts_one():
    g = PlanarGraph(0, [], [])
    assert enumerate_pm(g) == ONE
    assert count_pm_fkt(g) == ONE


def test_isolated_vertex_kills_the_count():
    g = PlanarGraph(3, [(0, 1, 1)], [(0,), (0,), ()])
    assert count_pm_fkt(g) == ZERO


def test_disconnected_graphs_multiply():
    g = PlanarGraph(4, [(0, 1, Scalar.from_int(2)), (2, 3, I)],
                    [(0,), (0,), (1,), (1,)])
    assert count_pm_fkt(g) == Scalar.from_int(2) * I
    assert enumerate_pm(g) == Scalar.from_int(2) * I


def test_components_of_a_checked_graph_are_not_rechecked(monkeypatch):
    import holant.fkt as fkt

    g = PlanarGraph(6, [(0, 1, 2), (2, 3, I), (3, 4, 1), (4, 5, 1),
                        (5, 2, 1)],
                    [(0,), (0,), (1, 4), (2, 1), (3, 2), (4, 3)])
    calls = []
    walk = fkt.plane_embedding  # faces, BFS forest and Euler check

    def counting(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(fkt, "plane_embedding", counting)
    assert count_pm_fkt(g) == Scalar.from_int(2) * (I + ONE)
    assert calls == []
    PlanarGraph(g.num_vertices, g.edges, g.rotation)
    assert len(calls) == 1


def union_of_rotation_systems(parts):
    """The (n, edges, rotation) parts side by side, unchecked."""
    n, edges, rotation = 0, [], []
    for pn, pedges, prot in parts:
        base = len(edges)
        edges += [(u + n, v + n, w) for u, v, w in pedges]
        rotation += [tuple(base + e for e in r) for r in prot]
        n += pn
    return n, edges, rotation


def shuffled_rotation(rng, g):
    """g's (n, edges, rotation), one rotation of degree three or more
    shuffled."""
    rotation = [list(r) for r in g.rotation]
    wide = [r for r in rotation if len(r) >= 3]
    if wide:
        rng.shuffle(rng.choice(wide))
    return g.num_vertices, g.edges, rotation


def test_the_euler_check_by_bfs_labels_agrees_with_the_union_find_check():
    rng = random.Random(74)
    isolated = (1, [], [()])
    drawn = set()
    for t in range(600):
        g = random_planar_graph(rng, max_vertices=9, extra_edges=5)
        if t % 3 == 0:
            kind, (n, edges, rotation) = \
                "plane", (g.num_vertices, g.edges, g.rotation)
        elif t % 3 == 1:
            kind, (n, edges, rotation) = "shuffled", shuffled_rotation(rng, g)
        else:
            first = random_planar_graph(rng, max_vertices=6, extra_edges=3)
            kind, (n, edges, rotation) = "union", union_of_rotation_systems(
                [isolated, (first.num_vertices, first.edges, first.rotation),
                 isolated, shuffled_rotation(rng, g), isolated])
        darts = [tuple(2 * e if edges[e][0] == v else 2 * e + 1 for e in r)
                 for v, r in enumerate(rotation)]
        plane = is_planar_embedding(darts)
        try:
            PlanarGraph(n, edges, rotation)
            accepted = True
        except ValueError as err:
            assert str(err) == "rotation system is not a plane embedding"
            accepted = False
        assert accepted == plane
        drawn.add((kind, plane))
    assert drawn == {("plane", True), ("shuffled", True), ("shuffled", False),
                     ("union", True), ("union", False)}


def disjoint_union(graphs, rng):
    """The graphs side by side, their vertices renumbered in a shuffled
    order, so that no component holds a contiguous range; edge ids run on
    from graph to graph."""
    n = sum(g.num_vertices for g in graphs)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    rotation = [()] * n
    first = 0
    for g in graphs:
        base = len(edges)
        edges += [(perm[first + u], perm[first + v], w) for u, v, w in g.edges]
        for v, r in enumerate(g.rotation):
            rotation[perm[first + v]] = tuple(base + e for e in r)
        first += g.num_vertices
    return PlanarGraph(n, edges, rotation)


def random_union(rng, drawn):
    """A disjoint union of 2-4 parts of at most 20 vertices in all: random
    plane graphs, unit-weight or weighted, and isolated vertices.  Adds
    to `drawn` the cases it covers."""
    parts = []
    while True:
        parts.clear()
        for _ in range(rng.randint(2, 4)):
            if rng.random() < 0.15:
                parts.append(PlanarGraph(1, [], [()]))
            else:
                parts.append(random_planar_graph(
                    rng, max_vertices=7, extra_edges=4,
                    weight_pool=SMALL_POOL if rng.random() < 0.5 else None))
        if sum(g.num_vertices for g in parts) <= 20:
            break
    g = disjoint_union(parts, rng)
    if any(not part.edges for part in parts):
        drawn.add("an isolated vertex")
    if any(part.edges and part.num_vertices % 2 for part in parts):
        drawn.add("an odd component")
    unit = [all(w == ONE for _, _, w in part.edges) for part in parts
            if part.edges]
    if True in unit and False in unit and count_pm_fkt(g):
        drawn.add("a nonzero count with unit and weighted components")
    return g


def test_disjoint_unions_match_enumeration():
    rng = random.Random(52)
    drawn = set()
    for _ in range(150):
        g = random_union(rng, drawn)
        assert count_pm_fkt(g) == enumerate_pm(g)
    assert drawn == {"an isolated vertex", "an odd component",
                     "a nonzero count with unit and weighted components"}


def test_one_pass_orients_every_component_clockwise_odd():
    rng = random.Random(53)
    for _ in range(60):
        g = random_union(rng, set())
        orient, label = fkt._orient_components(g), g._label
        roots = component_roots(g.num_vertices,
                                ((u, v) for u, v, _ in g.edges))
        assert len(set(label)) == len(set(roots))
        assert all(label[u] == label[v] for u, v, _ in g.edges)
        with pytest.raises(ValueError, match="connected"):
            kasteleyn_orient(g)
        outer = set()
        for face in trace_faces(g._dart_rotations()):
            d = face[0]
            c = label[g.edges[d >> 1][d & 1]]
            if c not in outer:
                # the first traced face of a component is its outer face
                outer.add(c)
                continue
            clockwise = sum(1 for d in face
                            if 2 * (d >> 1) + orient[d >> 1] == d ^ 1)
            assert clockwise % 2 == 1


def test_a_union_of_ladders_beyond_the_enumeration_cap():
    rng = random.Random(54)
    lengths = (5, 8, 13, 21)
    g = disjoint_union([grid_graph(2, k) for k in lengths], rng)
    assert g.num_vertices > fkt.ENUM_CAP
    want = ONE
    for k in lengths:
        want = want * Scalar.from_int(fibonacci(k + 1))
    assert count_pm_fkt(g) == want


def test_count_and_orientation_orients_once(monkeypatch):
    calls = []
    orient_components = fkt._orient_components

    def counting(g):
        calls.append(g)
        return orient_components(g)

    monkeypatch.setattr(fkt, "_orient_components", counting)
    ladder = grid_graph(2, 300)
    two = disjoint_union([ladder, grid_graph(2, 300)], random.Random(56))
    value, orientation = fkt._count_and_orientation(two)
    assert len(calls) == 1
    assert orientation is None
    assert value == Scalar.from_int(fibonacci(301) ** 2)
    calls.clear()
    value, orientation = fkt._count_and_orientation(ladder)
    assert len(calls) == 1
    assert value == Scalar.from_int(fibonacci(301))
    assert orientation == orient_components(ladder)


# -- the perfect matching that signs the count -----------------------------------


def _unit(g):
    return PlanarGraph(g.num_vertices, [(u, v, ONE) for u, v, _ in g.edges],
                       g.rotation)


def test_perfect_matching_is_an_involution_on_edges_or_none():
    rng = random.Random(57)
    outcomes = set()
    for t in range(300):
        if t % 2:
            g = random_union(rng, set())
        else:
            g = random_planar_graph(rng, max_vertices=14, extra_edges=8)
        mate = fkt._perfect_matching(g.num_vertices, g._adj)
        outcomes.add(mate is None)
        assert (mate is None) == (enumerate_pm(_unit(g)) == ZERO)
        if mate is not None:
            pairs = {frozenset((u, v)) for u, v, _ in g.edges}
            for v, m in enumerate(mate):
                assert m != v and mate[m] == v
                assert frozenset((v, m)) in pairs
    assert outcomes == {True, False}


def _counting_eliminations(monkeypatch):
    calls = []
    rows = fkt._pfaffian_rows

    def counting(matrix):
        calls.append(len(matrix))
        return rows(matrix)

    monkeypatch.setattr(fkt, "_pfaffian_rows", counting)
    return calls


def test_a_weighted_count_makes_one_elimination(monkeypatch):
    rng = random.Random(58)
    calls = _counting_eliminations(monkeypatch)
    weighted = [grid_graph(4, 5, weight=lambda: rand_nonzero_scalar(rng))]
    while len(weighted) < 40:
        g = random_planar_graph(rng, max_vertices=12, extra_edges=6,
                                weight_pool=SMALL_POOL)
        if enumerate_pm(_unit(g)):
            weighted.append(g)
    for g in weighted:
        calls.clear()
        assert count_pm_fkt(g) == enumerate_pm(g)
        assert calls == [g.num_vertices]


def test_no_elimination_without_a_perfect_matching(monkeypatch):
    calls = _counting_eliminations(monkeypatch)
    isolated = PlanarGraph(5, [(0, 1, 2), (1, 2, I), (2, 3, 1), (3, 0, 1)],
                           [(3, 0), (0, 1), (1, 2), (2, 3), ()])
    # a 4-cycle beside a weighted triangle
    odd = PlanarGraph(7, [(0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 0, 1),
                          (4, 5, I), (5, 6, 3), (6, 4, 1)],
                      [(3, 0), (0, 1), (1, 2), (2, 3), (6, 4), (4, 5),
                       (5, 6)])
    rng = random.Random(59)
    board = mutilated_board(12, lambda: rand_nonzero_scalar(rng))
    for g in (board, isolated, odd):
        assert count_pm_fkt(g) == ZERO
    assert calls == []


def with_parallel_edges(g, rng, extra):
    """g with up to `extra` more edges, each parallel to a random edge and
    inserted at random corners of its ends, kept when the embedding stays
    plane; some enclose part of the graph.  A copy has a random nonzero
    weight or cancels the edge it copies."""
    edges, rotation = list(g.edges), [list(r) for r in g.rotation]
    for _ in range(extra):
        u, v, w = rng.choice(edges)
        copy = -w if rng.random() < 0.2 else rand_nonzero_scalar(rng)
        trial = [list(r) for r in rotation]
        trial[u].insert(rng.randrange(len(trial[u]) + 1), len(edges))
        trial[v].insert(rng.randrange(len(trial[v]) + 1), len(edges))
        try:
            PlanarGraph(g.num_vertices, edges + [(u, v, copy)], trial)
        except ValueError:
            continue
        edges.append((u, v, copy))
        rotation = trial
    return PlanarGraph(g.num_vertices, edges, rotation)


def test_weighted_parallel_edges_match_enumeration():
    rng = random.Random(60)
    drawn = set()
    for _ in range(200):
        g = with_parallel_edges(
            random_planar_graph(rng, max_vertices=10, extra_edges=4,
                                weight_pool=SMALL_POOL), rng, 4)
        # the arcs of each vertex pair that carries parallel edges
        arcs = {}
        for (u, v, _), o in zip(g.edges, kasteleyn_orient(g)):
            arcs.setdefault(frozenset((u, v)), []).append((v, u) if o else (u, v))
        for pair in arcs.values():
            if len(pair) > 1:
                drawn.add("a parallel pair oriented both ways"
                          if len(set(pair)) == 2 else
                          "a parallel pair oriented alike")
        want = enumerate_pm(g)
        if want:
            drawn.add("a nonzero count")
        assert count_pm_fkt(g) == want
    assert drawn == {"a parallel pair oriented both ways",
                     "a parallel pair oriented alike", "a nonzero count"}


def test_fkt_matches_enumeration_unit_weights():
    rng = random.Random(15)
    for _ in range(120):
        g = random_planar_graph(rng, max_vertices=10, extra_edges=5)
        assert count_pm_fkt(g) == enumerate_pm(g)


def test_fkt_matches_enumeration_field_weights():
    rng = random.Random(16)
    for _ in range(80):
        g = random_planar_graph(rng, max_vertices=8, extra_edges=5,
                                weight_pool=SMALL_POOL)
        assert count_pm_fkt(g) == enumerate_pm(g)


def mutilated_board(size, weight):
    """The size x size grid graph without two same-colour corners."""
    return grid_graph(size, size, removed=((0, 0), (size - 1, size - 1)),
                      weight=weight)


def test_mutilated_boards_count_zero_within_budget():
    rng = random.Random(23)
    start = time.perf_counter()
    for size in (8, 10, 12):
        for weight in (lambda: ONE, lambda: rand_nonzero_scalar(rng)):
            assert count_pm_fkt(mutilated_board(size, weight)) == ZERO
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0, f"{size}x{size}: {elapsed:.2f}s exceeds 5s"


def _relabelled(g, perm):
    """g with vertex v renamed perm[v]; edge ids, and so rotations, stay."""
    rotation = [()] * g.num_vertices
    for v, r in enumerate(g.rotation):
        rotation[perm[v]] = r
    return PlanarGraph(g.num_vertices,
                       [(perm[u], perm[v], w) for u, v, w in g.edges],
                       rotation)


def test_fkt_is_independent_of_vertex_numbering():
    rng = random.Random(31)
    for t in range(60):
        g = random_planar_graph(rng, max_vertices=10, extra_edges=5,
                                weight_pool=SMALL_POOL if t % 2 else None)
        want = enumerate_pm(g)
        for _ in range(3):
            perm = list(range(g.num_vertices))
            rng.shuffle(perm)
            assert count_pm_fkt(_relabelled(g, perm)) == want


@pytest.mark.parametrize("numbering", ["row", "col"])
def test_ladder_counts_are_fibonacci(numbering):
    for length in (*range(1, 13), 60, 300):
        g = grid_graph(2, length, numbering)
        assert count_pm_fkt(g) == Scalar.from_int(fibonacci(length + 1))


def test_eight_by_eight_grid_in_any_numbering():
    rng = random.Random(37)
    for numbering in ("row", "col", "shuffled", "shuffled"):
        assert count_pm_fkt(grid_graph(8, 8, numbering, rng)) == \
            Scalar.from_int(12_988_816)


def test_long_path_counts_without_recursion():
    g = path_graph(600)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        assert count_pm_fkt(g) == ONE
    finally:
        sys.setrecursionlimit(limit)


def test_enumeration_cap():
    n = 22
    g = PlanarGraph(n, [(v, v + 1, 1) for v in range(n - 1)],
                    [(0,)] + [(v - 1, v) for v in range(1, n - 1)]
                    + [(n - 2,)])
    with pytest.raises(ValueError, match="cap"):
        enumerate_pm(g)


# -- fragments -------------------------------------------------------------------


def test_fragment_stub_at_wrong_vertex():
    with pytest.raises(ValueError, match="does not touch vertex 0"):
        MatchgateFragment(2, [(0, 1, 1)], [(1, 0), (2,)], (1,))


@pytest.mark.parametrize("edges, rotation, dangling", [
    # an internal edge ending at vertex 2, which would be stub 0's phantom
    ([(0, 2, 1)], [(0, 1), (1,)], (0,)),
    # a stub on vertex 2, one past the last vertex
    ([(0, 1, 1)], [(1,), (1,)], (2,)),
    # stub 0 listed twice
    ([(0, 1, 1)], [(0, 0, 1), (1,)], (0,)),
    # stub 0 in no rotation
    ([(0, 1, 1)], [(1,), (1,)], (0,)),
    # id 2 = k + m names no stub and no edge
    ([(0, 1, 1)], [(0, 1), (1, 2)], (0,)),
])
def test_malformed_fragments_are_rejected(edges, rotation, dangling):
    with pytest.raises(ValueError):
        MatchgateFragment(2, edges, rotation, dangling)


def test_fragment_stubs_must_share_a_face():
    edges = [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
    with pytest.raises(ValueError, match="share one face"):
        MatchgateFragment(3, edges, [(0, 2, 4), (3, 1, 2), (4, 3)], (0, 1))
    MatchgateFragment(3, edges, [(0, 2, 4), (1, 3, 2), (4, 3)], (0, 1))


def test_fragment_stub_order_must_be_forward():
    with pytest.raises(ValueError, match="cyclic order"):
        MatchgateFragment(1, [], [(0, 2, 1)], (0, 0, 0))
    MatchgateFragment(1, [], [(0, 1, 2)], (0, 0, 0))


def test_exact_one_fragment_signature():
    frag = MatchgateFragment(1, [], [(0, 1, 2)], (0, 0, 0))
    assert fragment_signature(frag) == exact_one(3)


def test_path_fragment_realizes_a_gap_signature():
    frag = MatchgateFragment(
        4, [(0, 1, 2), (1, 2, -I), (2, 3, 1)],
        [(0, 2), (2, 3), (3, 4), (4, 1)], (0, 3))
    assert fragment_signature(frag) == Signature([2, 0, 0, -I])


def _rescaled(frag, scale):
    return MatchgateFragment(frag.num_vertices, frag.edges, frag.rotation,
                             frag.dangling, scale)


def test_scale_multiplies_the_fragment_signature():
    rng = random.Random(58)
    for _ in range(30):
        frag = random_fragment(rng)
        scale = rand_nonzero_scalar(rng)
        assert fragment_signature(_rescaled(frag, scale)) == \
            scale * fragment_signature(frag)
    # the scale is coerced and checked like an edge weight
    assert _rescaled(frag, -2).scale == Scalar.from_int(-2)
    with pytest.raises(ValueError, match="scale zero"):
        _rescaled(frag, 0)


def test_fragment_parity_follows_vertex_count():
    rng = random.Random(17)
    for _ in range(40):
        frag = random_fragment(rng)
        par = parity_of(fragment_signature(frag))
        want = "even" if frag.num_vertices % 2 == 0 else "odd"
        assert par in (want, "zero")


def test_random_fragments_realize_matchgates():
    rng = random.Random(18)
    for _ in range(60):
        sig = fragment_signature(random_fragment(rng))
        assert is_matchgate(sig)


def test_fragment_entries_match_subgraph_matchings():
    rng = random.Random(19)
    for _ in range(25):
        frag = random_fragment(rng, max_vertices=5, max_stubs=3)
        sig = fragment_signature(frag)
        k = frag.arity
        for y in range(1 << k):
            removed = set()
            dead = False
            for j in range(k):
                if (y >> (k - 1 - j)) & 1:
                    v = frag.dangling[j]
                    if v in removed:
                        dead = True
                        break
                    removed.add(v)
            if dead:
                assert sig[y] == ZERO
                continue
            keep = [v for v in range(frag.num_vertices) if v not in removed]
            index = {v: i for i, v in enumerate(keep)}
            edges = [(index[u], index[v], w) for u, v, w in frag.edges
                     if u in index and v in index]
            # embedding is irrelevant for enumeration; use a fresh path order
            count = _enumerate_on_edges(len(keep), edges)
            assert sig[y] == count


def _enumerate_on_edges(n, edges):
    if n % 2:
        return ZERO
    total = ZERO

    def extend(mask, acc):
        nonlocal total
        if mask == (1 << n) - 1:
            total = total + acc
            return
        v = next(i for i in range(n) if not mask & (1 << i))
        for a, b, weight in edges:
            if v not in (a, b):
                continue
            other = b if a == v else a
            if mask & (1 << other):
                continue
            extend(mask | (1 << v) | (1 << other), acc * weight)

    extend(0, ONE)
    return total


def test_internal_graph_strips_stubs():
    frag = MatchgateFragment(2, [(0, 1, 1)], [(0, 2), (2, 1)], (0, 1))
    g = frag.internal_graph()
    assert g.num_vertices == 2
    assert g.rotation == ((0,), (0,))


# -- built-in realizations -------------------------------------------------------


def test_builtin_pins_and_equality():
    for f in (unary(1, 0), unary(0, 1), unary(3, 0), unary(0, -2),
              equality(2), Scalar.from_int(5) * equality(2)):
        frag = builtin_fragment(f)
        assert frag is not None
        assert fragment_signature(frag) == f


def test_builtin_exact_one_family():
    for k in range(1, 7):
        for scale in (ONE, Scalar.from_int(-3)):
            f = scale * exact_one(k)
            frag = builtin_fragment(f)
            assert frag is not None
            assert fragment_signature(frag) == f


def test_builtin_hadamard_equalities():
    # H2 =_k is 2 [y even]: every unit shape with scale 2, up to ARITY_CAP
    for k in range(1, 17):
        f = apply_matrix(equality(k), H2)
        frag = builtin_fragment(f)
        assert frag is not None and frag.scale == Scalar.from_int(2)
        if k >= 3:
            assert frag.num_vertices == 4 * k - 8
        if frag.num_vertices <= fkt.ENUM_CAP:
            assert fragment_signature(frag) == f
    # the even chains past the cap have their entries checked by one
    # count_pm_fkt each in test_builtin_family_sweep_follows_the_size_rule
    even7 = Signature([1 - y.bit_count() % 2 for y in range(128)])
    assert apply_matrix(equality(7), H2) == Scalar.from_int(2) * even7
    assert builtin_fragment(apply_matrix(equality(8), H2)).num_vertices == 24


def test_a_scaled_builtin_reuses_the_checked_shape(monkeypatch):
    f = apply_matrix(equality(5), H2)  # 2 [y even]: the chain, scale 2
    unit = builtin_fragment(f / 2)  # builds and checks the chain
    checks, real = [], fkt.PlanarGraph

    def check(*args):
        checks.append(args)
        return real(*args)

    monkeypatch.setattr(fkt, "PlanarGraph", check)
    frag = builtin_fragment(f)
    assert checks == []
    assert frag.scale == Scalar.from_int(2) and frag.edges is unit.edges
    assert fragment_signature(frag) == f


def test_the_check_rejects_a_wrong_shape():
    all_zero = Signature([1] + [0] * ((1 << 12) - 1))
    with pytest.raises(ValueError, match="^built-in hub of arity 12 "):
        fkt._checked(fkt._all_one_fragment(12), all_zero, "hub")
    assert fkt._checked(fkt._all_zero_fragment(12), all_zero, "path") \
        is not None


def test_builtin_gap_signatures():
    f = Signature([2, 0, 0, -I])
    frag = builtin_fragment(f)
    assert fragment_signature(frag) == f


def test_builtin_rejects_non_matchgates():
    assert builtin_fragment(equality(3)) is None
    assert builtin_fragment(Signature([1, 1, 1, 0])) is None
    assert builtin_fragment(Signature([0, 0])) is None


def test_builtin_respects_random_realizable_pool():
    rng = random.Random(21)
    for _ in range(60):
        f = realizable_signature(rng, rng.randint(1, 7))
        frag = builtin_fragment(f)
        assert frag is not None
        assert fragment_signature(frag) == f


# family -> (support test on (arity, input), unit-shape vertex count,
# constructor)
_SHAPES = {
    "all-zero": (lambda k, y: y == 0, lambda k: 2 * k,
                 fkt._all_zero_fragment),
    "all-one": (lambda k, y: y == (1 << k) - 1, lambda k: k + 2,
                fkt._all_one_fragment),
    "exact-one": (lambda k, y: y.bit_count() == 1, lambda k: 1,
                  fkt._exact_one_fragment),
    "even": (lambda k, y: y.bit_count() % 2 == 0, lambda k: 4 * k - 8,
             fkt._even_fragment),
}


def _arities(family):
    # [0,w] is weight one, so all-one starts at arity 2; even-weight
    # signatures below arity 3 are [w,0] (all-zero) and [w,0,0,w] (gap)
    return range({"all-one": 2, "even": 3}.get(family, 1), 17)


def _entries_by_fkt(frag, points):
    """The fragment's signature entries at points, by one count_pm_fkt
    each: on the internal graph minus the vertices of the stubs that
    the point forces.  A point that forces one vertex twice, or leaves
    an odd number of vertices, has entry ZERO."""
    g = frag.internal_graph()
    k = frag.arity
    out = []
    for y in points:
        forced = {frag.dangling[j] for j in range(k) if (y >> (k - 1 - j)) & 1}
        if len(forced) < y.bit_count() or (g.num_vertices - len(forced)) % 2:
            out.append(ZERO)
            continue
        index = {}
        for v in range(g.num_vertices):
            if v not in forced:
                index[v] = len(index)
        kept = {}
        for e, (u, v, _) in enumerate(g.edges):
            if u in index and v in index:
                kept[e] = len(kept)
        sub = PlanarGraph(len(index),
                          [(index[g.edges[e][0]], index[g.edges[e][1]],
                            g.edges[e][2]) for e in kept],
                          [[kept[e] for e in g.rotation[v] if e in kept]
                           for v in index])
        out.append(frag.scale * count_pm_fkt(sub))
    return out


def test_entries_by_fkt_agree_with_fragment_signature():
    rng = random.Random(61)
    for _ in range(30):
        frag = random_fragment(rng)
        points = range(1 << frag.arity)
        assert _entries_by_fkt(frag, points) == \
            list(fragment_signature(frag).values)


@pytest.mark.parametrize("family", sorted(_SHAPES))
def test_builtin_family_sweep_follows_the_size_rule(family):
    support_of, unit_size, _ = _SHAPES[family]
    rng = random.Random(f"sweep:{family}")
    for k in _arities(family):
        for w in SMALL_POOL[1:]:
            f = Signature([w if support_of(k, y) else ZERO
                           for y in range(1 << k)])
            frag = builtin_fragment(f)
            # the unit shape, whatever the weight, which is the scale
            assert frag.num_vertices == unit_size(k), (family, k, w)
            assert all(x == ONE for _, _, x in frag.edges)
            assert frag.scale == w
            if k < 8:
                assert fragment_signature(frag) == f, (family, k, w)
                continue
            # from arity 8 an oracle that shares no code with the check
            # in builtin_fragment: one count_pm_fkt per entry, for one
            # weight per arity (-1 at 8, I at 9, ..., 1/2 at 13), at
            # every entry up to arity 12 and at 64 seeded ones above
            if w != SMALL_POOL[1 + k % 7]:
                continue
            points = range(1 << k) if k <= 12 else \
                rng.sample(range(1 << k), 64)
            assert _entries_by_fkt(frag, points) == [f[y] for y in points], \
                (family, k)


def test_builtin_gap_sweep():
    for a in SMALL_POOL[1:]:
        for b in SMALL_POOL[1:]:
            f = Signature([a, 0, 0, b])
            frag = builtin_fragment(f)
            # one edge of weight a/b with scale b
            assert frag.num_vertices == 2 and len(frag.edges) == 1
            assert frag.edges[0][2] == a / b and frag.scale == b
            assert fragment_signature(frag) == f


@pytest.mark.parametrize("family", sorted(_SHAPES))
def test_unit_shapes_have_unit_weights_and_pinned_sizes(family):
    support_of, unit_size, build = _SHAPES[family]
    for k in _arities(family):
        shape = build(k)
        assert shape.num_vertices == unit_size(k)
        assert all(w == ONE for _, _, w in shape.edges)
        support = frozenset(y for y in range(1 << k) if support_of(k, y))
        assert fkt._unit_shape(build, k, support) is \
            fkt._unit_shape(build, k, support)


def _shuffled(frag, rng):
    """frag with its vertices renumbered by a seeded permutation."""
    perm = list(range(frag.num_vertices))
    rng.shuffle(perm)
    rotation = [None] * frag.num_vertices
    for v, r in enumerate(frag.rotation):
        rotation[perm[v]] = r
    return MatchgateFragment(
        frag.num_vertices, [(perm[u], perm[v], w) for u, v, w in frag.edges],
        rotation, [perm[v] for v in frag.dangling], frag.scale)


def test_the_check_holds_whatever_the_vertex_numbering():
    rng = random.Random(62)
    cases = []
    while len(cases) < 20:
        frag = _shuffled(random_fragment(rng, max_vertices=12, extra_edges=8,
                                         max_stubs=5), rng)
        f = fragment_signature(frag)
        if not f.is_zero:
            cases.append((frag, f))
    # a weighted 6x6 grid in shuffled numbering, four stubs in order on
    # its outer face; past ENUM_CAP its entries come from count_pm_fkt
    g = grid_graph(6, 6, "shuffled", rng,
                   weight=lambda: rng.choice(SMALL_POOL[1:]))
    outer = max(trace_faces(g._dart_rotations()), key=len)
    frag = fragment_on_face(g, outer, sorted(rng.sample(range(len(outer)), 4)))
    assert frag.num_vertices > fkt.ENUM_CAP
    cases.append((frag, Signature(_entries_by_fkt(frag, range(16)))))
    for frag, f in cases:
        assert fkt._checked(frag, f, "shuffled") is frag
        y = rng.randrange(1 << f.arity)
        changed = Signature([(2 * x if x else ONE) if z == y else x
                             for z, x in enumerate(f.values)])
        # the changed f, and the fragment rescaled, whose signature
        # keeps its Pfaffian form and so fails at the counted points
        for wrong_frag, wrong_f in ((frag, changed), (_rescaled(frag, 2), f)):
            with pytest.raises(ValueError, match="^built-in shuffled "):
                fkt._checked(wrong_frag, wrong_f, "shuffled")


def test_no_route_enumerates_a_nonzero_signature(monkeypatch):
    rng = random.Random(63)
    grids = [_user_fragment_grid(rng) for _ in range(10)]
    for _ in range(10):
        grid = random_closed_grid(rng, realizable_signature)
        grids.append((grid, [builtin_fragment(v.signature)
                             for v in grid.vertices]))
    want = [brute_force_holant(grid) for grid, _ in grids]

    def refuse(*args):
        raise AssertionError("matching enumeration reached")

    monkeypatch.setattr(fkt, "_matching_sum", refuse)
    # an empty cache, as in a fresh process
    monkeypatch.setattr(fkt, "_unit_shape",
                        functools.cache(fkt._unit_shape.__wrapped__))
    for family, (support_of, _, _) in _SHAPES.items():
        for k in _arities(family):
            f = Signature([2 if support_of(k, y) else 0
                           for y in range(1 << k)])
            assert builtin_fragment(f) is not None, (family, k)
    for k in (8, 16):
        assert _hadamard_equality_pair(k) == Scalar.from_int(1 << (k + 1))
    assert [evaluate_matchgate_grid(grid, frags)
            for grid, frags in grids] == want


# -- grid evaluation -------------------------------------------------------------


def test_grid_evaluation_on_equality_triangle():
    grid = SignatureGrid([(equality(2), (0, 1)), (equality(2), (1, 2)),
                          (equality(2), (2, 0))])
    frags = [builtin_fragment(v.signature) for v in grid.vertices]
    assert evaluate_matchgate_grid(grid, frags) == Scalar.from_int(2)


def test_grid_evaluation_with_self_loop():
    grid = SignatureGrid([(equality(2), (0, 0))])
    frags = [builtin_fragment(equality(2))]
    assert evaluate_matchgate_grid(grid, frags) == Scalar.from_int(2)


def test_grid_evaluation_with_stitched_self_loops():
    rng = random.Random(55)
    drawn = set()
    for _ in range(40):
        g = random_planar_graph(rng, max_vertices=5, extra_edges=2,
                                degree_cap=4)
        rotation = [list(r) for r in g.rotation]
        loop = len(g.edges)
        for r in rotation:
            if rng.random() < 0.6:
                # a loop between two neighbouring corners stays plane
                slot = rng.randrange(len(r) + 1)
                r[slot:slot] = [loop, loop]
                loop += 1
        grid = SignatureGrid([(realizable_signature(rng, len(r)), tuple(r))
                              for r in rotation])
        frags = [builtin_fragment(v.signature) for v in grid.vertices]
        for e in range(len(g.edges), loop):
            (i, s1), (_, s2) = grid.occurrences(e)
            drawn.add("stubs on one vertex"
                      if frags[i].dangling[s1] == frags[i].dangling[s2]
                      else "stubs on two vertices")
        assert evaluate_matchgate_grid(grid, frags) == \
            brute_force_holant(grid)
    assert drawn == {"stubs on one vertex", "stubs on two vertices"}


def test_grid_evaluation_matches_brute_force():
    rng = random.Random(22)
    for _ in range(40):
        grid = random_closed_grid(rng, realizable_signature)
        frags = [builtin_fragment(v.signature) for v in grid.vertices]
        assert evaluate_matchgate_grid(grid, frags) == \
            brute_force_holant(grid)


def _user_fragment_grid(rng):
    """A closed grid over a random plane graph whose every vertex carries
    a random weighted fragment of its degree with a nonzero signature and
    a scale other than ONE, and the signature that fragment realizes."""
    g = random_planar_graph(rng, max_vertices=5, extra_edges=2, degree_cap=4)
    frags = []
    for r in g.rotation:
        frag = random_fragment(rng, max_stubs=len(r))
        while frag.arity != len(r) or fragment_signature(frag).is_zero:
            frag = random_fragment(rng, max_stubs=len(r))
        scale = rand_nonzero_scalar(rng, SMALL_POOL[2:])
        frags.append(_rescaled(frag, scale))
    grid = SignatureGrid([(fragment_signature(f), tuple(r))
                          for f, r in zip(frags, g.rotation)])
    return grid, frags


def test_scaled_user_fragments_stitch_to_the_holant_value():
    rng = random.Random(59)
    nonzero = 0
    for _ in range(30):
        grid, frags = _user_fragment_grid(rng)
        value = evaluate_matchgate_grid(grid, frags)
        assert value == brute_force_holant(grid)
        nonzero += bool(value)
    assert nonzero >= 5


def test_two_closed_grids_side_by_side_multiply():
    # built-in fragments (unit edges but for the gap edge) beside weighted
    # user fragments: the stitched graph mixes unit and weighted
    # components and is counted whole
    rng = random.Random(60)
    nonzero = 0
    for _ in range(30):
        while True:
            left = random_closed_grid(rng, realizable_signature,
                                      max_vertices=4, extra_edges=2)
            if brute_force_holant(left):
                break
        right, right_frags = _user_fragment_grid(rng)
        shift = 1 + max(left.edge_ids)
        union = SignatureGrid(
            [(v.signature, v.edges) for v in left.vertices]
            + [(v.signature, tuple(e + shift for e in v.edges))
               for v in right.vertices])
        frags = [builtin_fragment(v.signature) for v in left.vertices]
        want = brute_force_holant(left) * brute_force_holant(right)
        assert evaluate_matchgate_grid(union, frags + right_frags) == want
        nonzero += bool(want)
    assert nonzero >= 5


def _hadamard_equality_pair(k):
    """evaluate_matchgate_grid on two vertices of H2 =_k = 2 [y even]
    joined by k edges, with their built-in realizations: 2^(k+1)."""
    f = apply_matrix(equality(k), H2)
    grid = SignatureGrid([(f, tuple(range(k))), (f, tuple(range(k))[::-1])])
    return evaluate_matchgate_grid(
        grid, [builtin_fragment(v.signature) for v in grid.vertices])


def test_grid_evaluation_checks_built_in_fragments_past_enum_cap():
    # the even chains of arity 8 and 16 have 24 and 56 vertices
    for k in (8, 16):
        assert _hadamard_equality_pair(k) == Scalar.from_int(1 << (k + 1))


def test_grid_evaluation_requires_closed_grid():
    grid = SignatureGrid([(equality(2), (0, 1))], dangling=(0, 1))
    with pytest.raises(ValueError, match="closed"):
        evaluate_matchgate_grid(grid, [builtin_fragment(equality(2))])


def test_grid_evaluation_requires_realizations():
    grid = SignatureGrid([(equality(2), (0, 0))])
    with pytest.raises(ValueError, match="no realization"):
        evaluate_matchgate_grid(grid, [None])


def test_grid_evaluation_rejects_wrong_realization():
    grid = SignatureGrid([(equality(2), (0, 0))])
    wrong = builtin_fragment(exact_one(2))
    with pytest.raises(ValueError, match="does not produce"):
        evaluate_matchgate_grid(grid, [wrong])
