"""Shared helpers for the test suite."""

from fractions import Fraction
import random

from holant.scalar import I, MINUS_ONE, ONE, ZERO, Scalar
from holant.signatures import Signature

SMALL_POOL = (ZERO, ONE, MINUS_ONE, I, -I, Scalar.from_int(2),
              Scalar.from_int(-2), Scalar.from_fraction(Fraction(1, 2)))


def rand_scalar(rng: random.Random, pool=SMALL_POOL) -> Scalar:
    return rng.choice(pool)


def rand_signature(rng: random.Random, arity: int, pool=SMALL_POOL) -> Signature:
    return Signature([rng.choice(pool) for _ in range(1 << arity)])


def rand_nonzero_signature(rng, arity, pool=SMALL_POOL):
    while True:
        f = rand_signature(rng, arity, pool)
        if not f.is_zero:
            return f


def bits_of(idx: int, n: int) -> tuple:
    return tuple((idx >> (n - 1 - t)) & 1 for t in range(n))


# -- independent oracle for the affine family --------------------------------
#
# Enumerates every signature of arity n that some representation
# (affine subset, quadratic exponent polynomial with even cross terms)
# produces, up to the value pattern: entry -> None for zero, else the
# exponent of i.  Membership of a concrete signature with entries in
# {0, 1, i, -1, -i} reduces to a set lookup.


def _affine_subsets(n):
    points = list(range(1 << n))
    out = []
    for bits in range(1, 1 << (1 << n)):
        subset = [p for p in points if (bits >> p) & 1]
        members = set(subset)
        if all(a ^ b ^ c in members
               for a in subset for b in subset for c in subset):
            out.append(subset)
    return out


def affine_pattern_set(n: int) -> frozenset:
    import itertools

    singles = [1 << (n - i) for i in range(1, n + 1)]
    pairs = [(1 << (n - i)) | (1 << (n - j))
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    patterns = {tuple([None] * (1 << n))}
    lin_choices = list(itertools.product(range(4), repeat=n + 1))
    quad_choices = list(itertools.product((0, 2), repeat=len(pairs)))
    for subset in _affine_subsets(n):
        for lin in lin_choices:
            base = [lin[0]
                    + sum(lin[i + 1] for i, m in enumerate(singles) if x & m)
                    for x in subset]
            for quad in quad_choices:
                expo = list(base)
                for k, x in enumerate(subset):
                    expo[k] += sum(c for c, m in zip(quad, pairs)
                                   if c and x & m == m)
                pattern = [None] * (1 << n)
                for k, x in enumerate(subset):
                    pattern[x] = expo[k] % 4
                patterns.add(tuple(pattern))
    return frozenset(patterns)


def pattern_of(f: Signature):
    out = []
    for v in f.values:
        if not v:
            out.append(None)
        else:
            k = v.as_power_of_i()
            out.append(k if k is not None else "not-a-power")
    return tuple(out)


# -- independent oracle for the primitive decomposition ------------------------
#
# The split search: the block of x1 is the smallest set containing x1
# (sizes, then lexicographic) whose flattening against the rest has rank
# one, checked on every entry.  O(4^n) field operations.


def _splits_off(f: Signature, smask: int, ref: int) -> bool:
    """Rank-one test for the flattening that separates smask from the rest."""
    n = f.arity
    tmask = ((1 << n) - 1) ^ smask
    fref = f[ref]
    for beta in range(1 << n):
        left = f[(beta & smask) | (ref & tmask)]
        right = f[(ref & smask) | (beta & tmask)]
        if f[beta] * fref != left * right:
            return False
    return True


def decompose_by_split_search(f: Signature, labels=None):
    """primitive_decomposition of a nonzero f of arity >= 1, by search."""
    import itertools

    from holant.signatures import _reindex

    n = f.arity
    if labels is None:
        labels = tuple(range(1, n + 1))
    if n == 1:
        return [(labels, f)]
    ref = min(f.support())
    block = None
    for size in range(1, n):
        for rest in itertools.combinations(range(2, n + 1), size - 1):
            cand = (1,) + rest
            smask = 0
            for p in cand:
                smask |= 1 << (n - p)
            if _splits_off(f, smask, ref):
                block = cand
                break
        if block:
            break
    if block is None:
        return [(labels, f)]
    other = tuple(p for p in range(1, n + 1) if p not in block)
    g = _reindex(f, block, ref)
    h = _reindex(f, other, ref) / f[ref]
    head = [(tuple(labels[p - 1] for p in block), g)]
    return head + decompose_by_split_search(
        h, tuple(labels[p - 1] for p in other))


# -- independent oracle for the matchgate family -------------------------------
#
# The identity scan: every matching identity, patterns in ascending order
# and position vectors in (length, lexicographic) order.  O(4^n n) field
# operations.


def identity_value(f: Signature, pattern: int, positions) -> Scalar:
    """The matching identity with this pattern on these positions:
    the sum over j of (-1)^j f(pattern ^ e_pj) f(pattern ^ e_P ^ e_pj),
    j counted from 1 and e_P the mask of all the positions."""
    n = f.arity
    pmask = 0
    for p in positions:
        pmask |= 1 << (n - p)
    acc = ZERO
    for j, p in enumerate(positions):
        e = 1 << (n - p)
        a = f[pattern ^ e]
        if not a:
            continue
        b = f[pattern ^ pmask ^ e]
        if b:
            acc = acc - a * b if j % 2 == 0 else acc + a * b
    return acc


def first_violated_identity(f: Signature):
    """The first violated identity as {"pattern", "positions", "value"},
    or None when f satisfies every one."""
    import itertools

    n = f.arity
    for pattern in range(1 << n):
        for ell in range(1, n + 1):
            for positions in itertools.combinations(range(1, n + 1), ell):
                value = identity_value(f, pattern, positions)
                if value:
                    return {"pattern": pattern, "positions": positions,
                            "value": str(value)}
    return None


# -- independent oracle for the GF(2) elimination ------------------------------
#
# The pivot scan: each incoming row is checked against every stored pivot
# and each new pivot against every stored row.  O(rows * pivots) big-int
# operations.


def rref_by_scan(vectors) -> dict:
    """_gf2.rref, keys in the same order, by the pivot scan."""
    rows = {}
    for v in vectors:
        for p, r in rows.items():
            if (v >> p) & 1:
                v ^= r
        if v:
            p = v.bit_length() - 1
            for q in list(rows):
                if (rows[q] >> p) & 1:
                    rows[q] ^= v
            rows[p] = v
    return rows


# -- random structured inputs --------------------------------------------------


def rand_nonzero_scalar(rng, pool=SMALL_POOL):
    while True:
        s = rng.choice(pool)
        if s:
            return s


def random_planar_graph(rng, max_vertices=10, extra_edges=4,
                        weight_pool=None, degree_cap=None):
    """Random connected plane graph grown by pendant and chord insertions.

    Pendants keep planarity trivially; a chord between two corners of one
    face splits that face in two.  The PlanarGraph constructor re-runs the
    Euler check, so the returned embedding is always valid.
    """
    from holant._embedding import trace_faces
    from holant.fkt import PlanarGraph

    edges = [(0, 1)]
    rot = [[0], [0]]  # edge ids, counterclockwise per vertex

    def add_pendant():
        u = rng.randrange(len(rot))
        if degree_cap and len(rot[u]) >= degree_cap:
            return False
        e = len(edges)
        edges.append((u, len(rot)))
        rot[u].insert(rng.randrange(len(rot[u]) + 1), e)
        rot.append([e])
        return True

    def add_chord():
        darts = [tuple(2 * e if edges[e][0] == v else 2 * e + 1 for e in r)
                 for v, r in enumerate(rot)]
        face = rng.choice(trace_faces(darts))
        if len(face) < 2:
            return False
        d1, d2 = rng.sample(list(face), 2)
        u = edges[d1 // 2][d1 & 1]
        v = edges[d2 // 2][d2 & 1]
        if u == v:
            return False
        if degree_cap and (len(rot[u]) >= degree_cap
                           or len(rot[v]) >= degree_cap):
            return False
        e = len(edges)
        edges.append((u, v))
        # the corner just before a face dart borders that face
        rot[u].insert(rot[u].index(d1 // 2), e)
        rot[v].insert(rot[v].index(d2 // 2), e)
        return True

    target = rng.randint(2, max_vertices)
    guard = 0
    while len(rot) < target and guard < 200:
        guard += 1
        add_pendant()
    want = rng.randint(0, extra_edges)
    added = 0
    guard = 0
    while added < want and guard < 60:
        guard += 1
        if add_chord():
            added += 1

    ws = [rand_nonzero_scalar(rng) if weight_pool else ONE for _ in edges]
    if weight_pool:
        ws = [rand_nonzero_scalar(rng, weight_pool) for _ in edges]
    return PlanarGraph(len(rot),
                       [(u, v, w) for (u, v), w in zip(edges, ws)],
                       rot)


def realizable_signature(rng, arity):
    """A signature builtin_fragment realizes: a nonzero constant on one of
    its shapes (all-zero, all-one, exact-one, even weight) or [w,0,0,v].
    At arity 7 a scaled even-weight shape exceeds ENUM_CAP, so arity
    stays within 1..6."""
    w = rand_nonzero_scalar(rng)
    kinds = ["zero-pin", "one-pin", "exact-one", "even"]
    if arity == 2:
        kinds.append("gap")
    kind = rng.choice(kinds)
    size = 1 << arity
    if kind == "zero-pin":
        vals = [w] + [ZERO] * (size - 1)
    elif kind == "one-pin":
        vals = [ZERO] * (size - 1) + [w]
    elif kind == "exact-one":
        vals = [w if x.bit_count() == 1 else ZERO for x in range(size)]
    elif kind == "even":
        vals = [w if x.bit_count() % 2 == 0 else ZERO for x in range(size)]
    else:
        vals = [w, ZERO, ZERO, rand_nonzero_scalar(rng)]
    return Signature(vals)


def random_closed_grid(rng, sig_fn, max_vertices=6, extra_edges=3,
                       degree_cap=6):
    """Closed planar signature grid over a random plane graph.

    `sig_fn(rng, arity)` supplies the signature for each vertex.
    """
    from holant.grids import SignatureGrid

    g = random_planar_graph(rng, max_vertices, extra_edges,
                            degree_cap=degree_cap)
    vertices = [(sig_fn(rng, len(r)), tuple(r)) for r in g.rotation]
    return SignatureGrid(vertices)


def rand_product_signature(rng, arity, pool=SMALL_POOL):
    """Tensor of unaries and antipodal pair blocks on shuffled positions."""
    positions = list(range(arity))
    rng.shuffle(positions)
    blocks = []
    i = 0
    while i < len(positions):
        if i + 1 < len(positions) and rng.random() < 0.5:
            blocks.append((positions[i], positions[i + 1]))
            i += 2
        else:
            blocks.append((positions[i],))
            i += 1
    tables = []
    for b in blocks:
        if len(b) == 1:
            tables.append((b, {(0,): rand_scalar(rng, pool),
                               (1,): rand_scalar(rng, pool)}))
        else:
            a, c = rand_nonzero_scalar(rng, pool), rand_scalar(rng, pool)
            if rng.random() < 0.5:
                tab = {(0, 0): a, (1, 1): c}
            else:
                tab = {(0, 1): a, (1, 0): c}
            tables.append((b, tab))
    vals = []
    for x in range(1 << arity):
        bits = bits_of(x, arity)
        prod = ONE
        for b, tab in tables:
            prod = prod * tab.get(tuple(bits[p] for p in b), ZERO)
        vals.append(prod)
    return Signature(vals)


def rand_affine_signature(rng, arity, max_rows=None):
    """Scaled i^Q on a random affine support, Q quadratic with even
    cross terms."""
    k = arity
    if max_rows is None:
        max_rows = k
    while True:
        rows = [(rng.randrange(1, 1 << k), rng.randrange(2))
                for _ in range(rng.randint(0, max_rows))]
        support = [x for x in range(1 << k)
                   if all(((x & m).bit_count() + r) % 2 == 0
                          for m, r in rows)]
        if support:
            break
    lin = [rng.randrange(4) for _ in range(k)]
    quad = {(i, j): rng.choice((0, 2))
            for i in range(k) for j in range(i + 1, k)}
    const = rng.randrange(4)
    scale = rand_nonzero_scalar(rng)
    vals = [ZERO] * (1 << k)
    for x in support:
        bits = bits_of(x, k)
        q = const + sum(c * bits[i] for i, c in enumerate(lin))
        q += sum(c * bits[i] * bits[j] for (i, j), c in quad.items())
        vals[x] = scale * I ** (q % 4)
    return Signature(vals)


def rand_csp(rng, sig_fn, max_vars=7, max_constraints=5, max_arity=3,
             repeats=False):
    """Random CSP instance with constraints drawn from `sig_fn(rng, arity)`."""
    from holant.grids import CspInstance

    n = rng.randint(1, max_vars)
    cons = []
    for _ in range(rng.randint(1, max_constraints)):
        k = rng.randint(1, min(max_arity, n if not repeats else max_arity))
        if repeats:
            scope = tuple(rng.randrange(n) for _ in range(k))
        else:
            scope = tuple(rng.sample(range(n), k))
        cons.append((sig_fn(rng, k), scope))
    return CspInstance(n, tuple(cons))


def four_block_csp(num_vars=20):
    """Four disjoint 5-variable blocks on variables 0..19, each OR3 on
    (0,1,2), OR3 on (2,3,4) and NAND2 on (1,3); its value is 17^4 = 83521
    at 20 variables.  Variables past 19 are unread."""
    from holant.grids import CspInstance

    or3 = Signature.from_symmetric([0, 1, 1, 1])
    nand2 = Signature.from_symmetric([1, 1, 0])
    cons = []
    for o in range(0, 20, 5):
        cons += [(or3, (o, o + 1, o + 2)), (or3, (o + 2, o + 3, o + 4)),
                 (nand2, (o + 1, o + 3))]
    return CspInstance(num_vars, tuple(cons))


def random_bipartite_grid(rng, sig_fn=rand_signature, max_base_edges=4):
    """Closed planar grid with every edge joining a left and a right vertex.

    Built by subdividing each edge of a random plane graph; the original
    vertices form the left side, the subdivision vertices the right.
    """
    from holant.grids import SignatureGrid

    while True:
        g = random_planar_graph(rng, max_vertices=4, extra_edges=2)
        if len(g.edges) <= max_base_edges:
            break
    vertices = []
    for v, r in enumerate(g.rotation):
        halves = tuple(2 * e if g.edges[e][0] == v else 2 * e + 1 for e in r)
        vertices.append((sig_fn(rng, len(r)), halves))
    sides = ["left"] * g.num_vertices
    for e in range(len(g.edges)):
        vertices.append((sig_fn(rng, 2), (2 * e, 2 * e + 1)))
        sides.append("right")
    return SignatureGrid(vertices, sides=sides)


def random_fragment(rng, max_vertices=6, extra_edges=3, max_stubs=4):
    """Random matchgate fragment: a plane graph with stubs along one face.

    Stub corners follow the chosen face's traversal order, which is what
    the fragment's outer-boundary check requires.
    """
    from holant._embedding import trace_faces
    from holant.fkt import MatchgateFragment

    g = random_planar_graph(rng, max_vertices, extra_edges,
                            weight_pool=SMALL_POOL)
    darts = [tuple(2 * e if g.edges[e][0] == v else 2 * e + 1 for e in r)
             for v, r in enumerate(g.rotation)]
    face = rng.choice(trace_faces(darts))
    k = rng.randint(1, min(max_stubs, len(face)))
    corners = sorted(rng.sample(range(len(face)), k))
    dangling = []
    inserts = []  # (vertex, rotation slot, stub id)
    for j, c in enumerate(corners):
        d = face[c]
        v = g.edges[d // 2][d & 1]
        dangling.append(v)
        inserts.append((v, g.rotation[v].index(d // 2), j))
    rot = [[e + k for e in r] for r in g.rotation]
    # insert at recorded slots, later slots first so indices stay valid
    for v, slot, j in sorted(inserts, key=lambda t: -t[1]):
        rot[v].insert(slot, j)
    return MatchgateFragment(g.num_vertices, g.edges, rot, dangling)


def pfaffian_by_expansion(a):
    """Pfaffian by expansion along the first row, for n <= 10:
    Pf(A) = sum over j of (-1)^(j+1) a[0][j] Pf(A without rows and
    columns 0 and j).  Sign-sensitive, unlike Pf^2 = det."""
    n = len(a)
    if n > 10:
        raise ValueError("expansion is for n <= 10")
    if n % 2:
        return ZERO
    if n == 0:
        return ONE
    total = ZERO
    for j in range(1, n):
        if a[0][j]:
            keep = [t for t in range(1, n) if t != j]
            minor = pfaffian_by_expansion([[a[r][c] for c in keep] for r in keep])
            term = a[0][j] * minor
            total = total + term if j % 2 else total - term
    return total


def grid_graph(rows, cols, numbering="row", rng=None, removed=(),
               weight=lambda: ONE):
    """The rows x cols grid graph less the `removed` cells, numbered row by
    row ("row"), column by column ("col") or in a shuffled order
    ("shuffled", drawn from rng).  Edge weights come from `weight()`,
    called once per edge in row-major order."""
    from holant.fkt import PlanarGraph

    cells = [(r, c) for r in range(rows) for c in range(cols)
             if (r, c) not in removed]
    if numbering == "col":
        order = sorted(cells, key=lambda cell: (cell[1], cell[0]))
    elif numbering == "shuffled":
        order = list(cells)
        rng.shuffle(order)
    else:
        order = cells
    index = {cell: i for i, cell in enumerate(order)}
    edges = []
    at = {cell: {} for cell in cells}
    for (r, c) in cells:
        for dr, dc in ((0, 1), (1, 0)):
            other = (r + dr, c + dc)
            if other in index:
                at[(r, c)][(dr, dc)] = at[other][(-dr, -dc)] = len(edges)
                edges.append((index[(r, c)], index[other], weight()))
    rotation = [()] * len(cells)
    for cell in cells:
        # counterclockwise: east, north, west, south
        rotation[index[cell]] = tuple(
            at[cell][d] for d in ((0, 1), (1, 0), (0, -1), (-1, 0))
            if d in at[cell])
    return PlanarGraph(len(cells), edges, rotation)


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a
