"""Seeded document generators for the three benchmark workloads.

Every generator draws from one `random.Random` seeded by the workload
name and the seed, so a seed fixes every byte of every document.  Each
document carries its expected result, computed here by an oracle that
shares no code with the command path being timed:

* `classify` categories come from the family the set was planted in;
* gadget signatures come from matrix products and direct sums;
* grid-graph matching sums come from a transfer-matrix DP, mutilated
  boards are 0 by the colouring argument, and small plane graphs use
  `enumerate_pm` (memoised enumeration, not a Pfaffian);
* disjoint-block CSPs multiply per-block `brute_force_csp` values;
* tree-shaped CSPs use an exact sum-product DP over the tree;
* closed library grids are brute-forced as a CSP over their edges.

All weights are Gaussian integers, so the generators and most oracles
work on `(re, im)` integer pairs and never touch the program's `Scalar`.
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = ("classify", "fkt", "eval")

G_ZERO = (0, 0)
G_ONE = (1, 0)
#: Edge and signature weights: 1, 2, -1, i.
WEIGHTS = ((1, 0), (2, 0), (-1, 0), (0, 1))
POSITIVE = ((1, 0), (2, 0))
I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


# -- Gaussian integers ----------------------------------------------------------


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gjson(z):
    """Input form of a Gaussian integer: an int, "i", or four coefficients."""
    re, im = z
    if im == 0:
        return re
    if z == (0, 1):
        return "i"
    return [str(re), "0", str(im), "0"]


def canonical(z):
    """The program's canonical output form of a Gaussian integer."""
    re, im = z
    if im == 0:
        return str(re)
    return [str(re), "0", str(im), "0"]


def _bits(idx, n):
    return [(idx >> (n - 1 - p)) & 1 for p in range(n)]


def _sig(values):
    return {"values": [gjson(v) for v in values]}


def _sym(entries):
    return {"symmetric": [gjson(v) for v in entries]}


# -- signature families (classify and eval) ---------------------------------------


def product_signature(rng, n):
    """Unaries and antipodal-pair blocks on a random partition of n inputs."""
    order = list(range(n))
    rng.shuffle(order)
    blocks = []
    while order:
        k = rng.randint(1, min(3, len(order)))
        blocks.append(order[:k])
        order = order[k:]
    tables = []
    for block in blocks:
        k = len(block)
        if k == 1:
            tables.append((block, {0: rng.choice(WEIGHTS), 1: rng.choice(WEIGHTS)}))
        else:
            s = rng.randrange(1 << k)
            tables.append((block, {s: rng.choice(WEIGHTS),
                                   s ^ ((1 << k) - 1): rng.choice(WEIGHTS)}))
    values = []
    for idx in range(1 << n):
        bits = _bits(idx, n)
        v = G_ONE
        for block, table in tables:
            w = table.get(int("".join(str(bits[p]) for p in block), 2))
            if w is None:
                v = G_ZERO
                break
            v = gmul(v, w)
        values.append(v)
    return values


def affine_signature(rng, n):
    """lambda * i^Q(t) on the image of an injective affine map t -> x."""
    d = rng.randint(0, n)
    cols, basis = [], []
    while len(cols) < d:
        c = rng.randrange(1, 1 << n)
        r = c
        for b in basis:
            r = min(r, r ^ b)
        if r:
            cols.append(c)
            basis.append(r)
    offset = rng.randrange(1 << n)
    lin = [rng.randrange(4) for _ in range(d)]
    cross = {(j, k): 2 * rng.randrange(2)
             for j in range(d) for k in range(j + 1, d)}
    lam = rng.choice(WEIGHTS)
    values = [G_ZERO] * (1 << n)
    for t in range(1 << d):
        x, q = offset, 0
        for j in range(d):
            if (t >> j) & 1:
                x ^= cols[j]
                q += lin[j]
        for (j, k), c in cross.items():
            if (t >> j) & 1 and (t >> k) & 1:
                q += c
        values[x] = gmul(lam, I_POWERS[q % 4])
    return values


def h2_exact_one(k):
    """H2 applied to exact-one of arity k: the symmetric [k - 2w]."""
    return [(k - 2 * w, 0) for w in range(k + 1)]


def equality_sym(k, lam=G_ONE):
    return [lam] + [G_ZERO] * (k - 1) + [lam]


#: Symmetric signatures outside every tractable family (selftest.py checks
#: each against the program's membership tests).
HARD_SYMMETRIC = (
    [(0, 0), (1, 0), (1, 0), (1, 0)],        # OR3
    [(1, 0), (1, 0), (1, 0), (0, 0)],        # NAND3
    [(1, 0), (1, 0), (0, 0)],                # NAND2: independent sets
    [(0, 0), (1, 0), (1, 0)],                # OR2
    [(1, 0), (2, 0), (1, 0), (1, 0)],
)


def symmetric_product(rng, n):
    if n == 1:
        return [rng.choice(WEIGHTS), rng.choice(WEIGHTS)]
    if n == 2 and rng.random() < 0.3:
        return [G_ZERO, rng.choice(WEIGHTS), G_ZERO]
    return [rng.choice(WEIGHTS)] + [G_ZERO] * (n - 1) + [rng.choice(WEIGHTS)]


def symmetric_affine(rng, n):
    """lambda * i^(a*w + 2b*C(w,2)) on all weights, or on one parity."""
    a, b = rng.randrange(4), rng.randrange(2)
    keep = rng.choice((None, 0, 1))
    lam = rng.choice(WEIGHTS)
    out = []
    for w in range(n + 1):
        if keep is not None and w % 2 != keep:
            out.append(G_ZERO)
        else:
            out.append(gmul(lam, I_POWERS[(a * w + 2 * b * (w * (w - 1) // 2)) % 4]))
    return out


def _arities(j, count, low, high):
    """A fixed spread of arities for the j-th document of its kind."""
    return [low + (3 * j + 5 * m) % (high - low + 1) for m in range(count)]


def _planted_set(rng, family, symmetric, j):
    """Signature JSON list for the j-th classify document of a family.

    Set sizes and arities follow j, so every seed draws the same mix of
    sizes; the seed picks the signatures themselves.
    """
    size = 1 + j % 4
    sigs = []
    if family == "product":
        for n in _arities(j, size, 1, 7):
            sigs.append(_sym(symmetric_product(rng, n)) if symmetric
                        else _sig(product_signature(rng, n)))
    elif family == "affine":
        for n in _arities(j, size, 1, 7):
            sigs.append(_sym(symmetric_affine(rng, n)) if symmetric
                        else _sig(affine_signature(rng, n)))
    elif family == "hadamard":
        # one member outside product and affine, the rest any H2 matchgate
        sigs.append(_sym(h2_exact_one(3 + j % 4)))
        if not symmetric and j == 11:
            # =8 alone costs ~0.4 s, so it comes once per set and with no
            # further members; the five-family csp2 test would scan it
            # three times
            sigs.append(_sym(equality_sym(8)))
            size = 1
        for m, k in enumerate(_arities(j, size - 1, 2, 6)):
            if m % 3 == 0:
                sigs.append(_sym(h2_exact_one(k)))
            elif m % 3 == 1:
                sigs.append(_sym(equality_sym(k, (1 << k, 0))))
            else:
                sigs.append(_sym(equality_sym(k, rng.choice(WEIGHTS))))
    else:
        sigs.append(_sym(HARD_SYMMETRIC[j % len(HARD_SYMMETRIC)]))
        for m, n in enumerate(_arities(j, size - 1, 1, 5)):
            sigs.append(_sym(symmetric_product(rng, n)) if m % 2 == 0
                        else _sym(symmetric_affine(rng, n)))
    rng.shuffle(sigs)
    return sigs


#: Expected category per (subcommand, planted family).
CATEGORY = {
    "classify": {"product": "PTime", "affine": "PTime",
                 "hadamard": "PlanarPTimeOnly", "hard": "SharpPHard"},
    "classify-csp": {"product": "PTime", "affine": "PTime",
                     "hadamard": "SharpPHard", "hard": "SharpPHard"},
    "classify-csp2": {"product": "PTime", "affine": "PTime",
                      "hadamard": "PTime", "hard": "SharpPHard"},
}
FAMILIES = ("product", "affine", "hadamard", "hard")


# -- gadgets (classify workload) --------------------------------------------------


def _chain_gadget(rng):
    m = rng.randint(2, 5)
    mats = [[rng.choice(WEIGHTS + (G_ZERO,)) for _ in range(4)] for _ in range(m)]
    vertices = [{"sig": _sig(mat), "edges": [k, k + 1]}
                for k, mat in enumerate(mats)]
    acc = [[G_ONE, G_ZERO], [G_ZERO, G_ONE]]
    for mat in mats:
        acc = [[gadd(gmul(acc[a][0], mat[b]), gmul(acc[a][1], mat[2 + b]))
                for b in range(2)] for a in range(2)]
    value = [acc[0][0], acc[0][1], acc[1][0], acc[1][1]]
    return {"vertices": vertices, "dangling": [0, m]}, value


def _star_gadget(rng):
    k = 3
    centre = [rng.choice(WEIGHTS + (G_ZERO,)) for _ in range(1 << k)]
    legs = [[rng.choice(WEIGHTS + (G_ZERO,)) for _ in range(4)] for _ in range(k)]
    vertices = [{"sig": _sig(centre), "edges": [f"c{j}" for j in range(k)]}]
    for j, leg in enumerate(legs):
        vertices.append({"sig": _sig(leg), "edges": [f"c{j}", f"d{j}"]})
    value = []
    for y in range(1 << k):
        ys = _bits(y, k)
        total = G_ZERO
        for x in range(1 << k):
            term = centre[x]
            for j, xj in enumerate(_bits(x, k)):
                term = gmul(term, legs[j][2 * xj + ys[j]])
            total = gadd(total, term)
        value.append(total)
    return {"vertices": vertices, "dangling": [f"d{j}" for j in range(k)]}, value


def gen_classify(rng):
    docs = []
    plan = ([("classify", False)] * 48 + [("classify-csp", False)] * 28
            + [("classify-csp2", True)] * 28)
    for k, (cmd, symmetric) in enumerate(plan):
        family = FAMILIES[k % 4]
        body = {"signatures": _planted_set(rng, family, symmetric, k // 4)}
        docs.append((f"{cmd}-{family}", [cmd], body,
                     {"category": CATEGORY[cmd][family]}))
    for k in range(8):
        body, value = (_chain_gadget if k % 2 == 0 else _star_gadget)(rng)
        docs.append(("gadget", ["gadget"], body,
                     {"signature": [canonical(v) for v in value]}))
    return docs


# -- embedded graphs (fkt and eval workloads) -------------------------------------


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _crosses(p, q, r, s):
    return ((_orient(p, q, r) > 0) != (_orient(p, q, s) > 0)
            and (_orient(r, s, p) > 0) != (_orient(r, s, q) > 0))


def _connected(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1


def plane_graph(rng, n, max_edges):
    """Random connected straight-line plane graph on n points.

    Greedy shortest-first non-crossing edges give a triangulation; random
    edges are then removed, keeping the graph connected, down to at most
    max_edges.  Returns (points, edges).
    """
    pts = []
    while len(pts) < n:
        p = (rng.randrange(100), rng.randrange(100))
        if p in pts or any(_orient(a, b, p) == 0
                           for a, b in itertools.combinations(pts, 2)):
            continue
        pts.append(p)
    pairs = sorted(itertools.combinations(range(n), 2),
                   key=lambda e: ((pts[e[0]][0] - pts[e[1]][0]) ** 2
                                  + (pts[e[0]][1] - pts[e[1]][1]) ** 2, e))
    edges = []
    for u, v in pairs:
        if not any(_crosses(pts[u], pts[v], pts[a], pts[b])
                   for a, b in edges if len({u, v, a, b}) == 4):
            edges.append((u, v))
    order = list(range(len(edges)))
    rng.shuffle(order)
    drop = set()
    for e in order:
        if len(edges) - len(drop) <= max_edges:
            break
        rest = [edges[f] for f in range(len(edges)) if f not in drop and f != e]
        if _connected(n, rest):
            drop.add(e)
    return pts, [e for f, e in enumerate(edges) if f not in drop]


def ccw_rotation(pts, edges):
    """Per vertex, incident edge indices in counterclockwise order."""
    around = [[] for _ in pts]
    for e, (u, v) in enumerate(edges):
        for a, b in ((u, v), (v, u)):
            dx, dy = pts[b][0] - pts[a][0], pts[b][1] - pts[a][1]
            around[a].append((math.atan2(dy, dx), e))
    return [[e for _, e in sorted(r)] for r in around]


def graph_json(pts, edges, weights):
    return {
        "vertices": len(pts),
        "edges": [{"u": u, "v": v, "w": gjson(w)}
                  for (u, v), w in zip(edges, weights)],
        "rotation": ccw_rotation(pts, edges),
    }


def board(rows, cols, removed=()):
    """Grid graph on a rows x cols board minus some cells.

    Returns (points, edges, cells) with cells[k] the (r, c) of vertex k.
    """
    cells = [(r, c) for r in range(rows) for c in range(cols)
             if (r, c) not in removed]
    index = {cell: k for k, cell in enumerate(cells)}
    edges = []
    for (r, c), k in index.items():
        for nb in ((r, c + 1), (r + 1, c)):
            if nb in index:
                edges.append((k, index[nb]))
    return [(c, r) for r, c in cells], edges, cells


def grid_pm_dp(rows, cols, weight):
    """Weighted perfect-matching sum of a full grid graph.

    Broken-profile DP over cells in row-major order; bit c of the state
    says the next cell in column c is already covered.  `weight(a, b)`
    gives the Gaussian weight of the edge between cells a and b.  The
    profile runs along the shorter side.
    """
    if cols > rows:
        return grid_pm_dp(cols, rows, lambda a, b: weight(a[::-1], b[::-1]))
    states = {0: G_ONE}
    for r in range(rows):
        for c in range(cols):
            bit = 1 << c
            nxt = {}
            for mask, val in states.items():
                if mask & bit:
                    key = mask & ~bit
                    nxt[key] = gadd(nxt.get(key, G_ZERO), val)
                    continue
                if r + 1 < rows:
                    key = mask | bit
                    nxt[key] = gadd(nxt.get(key, G_ZERO),
                                    gmul(val, weight((r, c), (r + 1, c))))
                if c + 1 < cols and not mask & (bit << 1):
                    key = mask | (bit << 1)
                    nxt[key] = gadd(nxt.get(key, G_ZERO),
                                    gmul(val, weight((r, c), (r, c + 1))))
            states = nxt
    return states.get(0, G_ZERO)


def _grid_doc(rng, rows, cols, weighted):
    pts, edges, cells = board(rows, cols)
    weights = [rng.choice(WEIGHTS) if weighted else G_ONE for _ in edges]
    by_cells = {(cells[u], cells[v]): w for (u, v), w in zip(edges, weights)}
    value = grid_pm_dp(rows, cols, lambda a, b: by_cells[(a, b)])
    return graph_json(pts, edges, weights), {"value": canonical(value)}


#: Boards with no perfect matching; larger ones leave the seconds range.
MUTILATED = ((6, 6), (4, 10), (6, 8), (4, 12))


def mutilations(rows, cols, count=4):
    """Fixed pairs of same-colour cells whose removal keeps the board
    connected.  The calibration search time depends on which cells go,
    so every seed uses the same pairs and varies only the weights."""
    rng = random.Random(f"mutilated:{rows}x{cols}")
    pairs = [{(0, 0), (rows - 1, cols - 1)}]
    while len(pairs) < count:
        a = (rng.randrange(rows), rng.randrange(cols))
        b = (rng.randrange(rows), rng.randrange(cols))
        if a == b or (a[0] + a[1]) % 2 != (b[0] + b[1]) % 2:
            continue
        pts, edges, _ = board(rows, cols, {a, b})
        if _connected(len(pts), edges) and {a, b} not in pairs:
            pairs.append({a, b})
    return pairs


def _mutilated_doc(rng, rows, cols, removed):
    """Two cells of one colour removed: value 0 by the colouring argument."""
    pts, edges, _ = board(rows, cols, removed)
    weights = [rng.choice(WEIGHTS) for _ in edges]
    return graph_json(pts, edges, weights), {"value": "0"}


#: Grid boards of the fkt workload, each run with unit and random weights.
GRID_SIZES = tuple((r, c) for r in range(4, 11) for c in range(r, 11)
                   if r * c % 2 == 0)


def gen_fkt(rng, enumerate_pm):
    """Grids, ladders, plane graphs and mutilated boards.

    Sizes follow fixed schedules, so every seed draws the same mix of
    sizes; the seed picks weights, orientations and the plane graphs.
    """
    docs = []
    for rows, cols in GRID_SIZES:
        for weighted in (False, True):
            if rng.random() < 0.5:
                rows, cols = cols, rows
            body, expect = _grid_doc(rng, rows, cols, weighted)
            docs.append(("grid", ["fkt"], body, expect))
    for cols in range(6, 31, 3):
        for weighted in (False, True):
            body, expect = _grid_doc(rng, 2, cols, weighted)
            docs.append(("ladder", ["fkt"], body, expect))
    for n in (10, 12, 14, 16, 18, 20) * 4:
        pts, edges = plane_graph(rng, n, rng.randint(n + 2, 3 * n - 6))
        weights = [rng.choice(WEIGHTS) for _ in edges]
        docs.append(("plane", ["fkt"], graph_json(pts, edges, weights),
                     {"value": canonical(enumerate_pm(len(pts), edges, weights))}))
    for rows, cols in MUTILATED:
        for removed in mutilations(rows, cols):
            body, expect = _mutilated_doc(rng, rows, cols, removed)
            docs.append(("mutilated", ["fkt"], body, expect))
    return docs


# -- csp and grid instances (eval workload) ----------------------------------------


PRODUCT_POOL = (
    [(1, 0), (0, 0), (0, 0), (1, 0)],                     # =2
    equality_sym(3),
    [(1, 0), (0, 0), (0, 0), (2, 0)],
    [(0, 0), (1, 0), (1, 0), (0, 0)],                     # disequality
    [(0, 0), (2, 0), (-1, 0), (0, 0)],
    [(1, 0), (2, 0)],
    [(1, 0), (0, 1)],
    [(2, 0), (-1, 0)],
)
AFFINE_POOL = (
    [(1, 0), (0, 0), (0, 0), (1, 0), (0, 0), (1, 0), (1, 0), (0, 0)],  # even parity
    [(0, 0), (1, 0), (1, 0), (0, 0), (1, 0), (0, 0), (0, 0), (1, 0)],  # odd parity
    [(1, 0), (1, 0), (1, 0), (-1, 0)],
    [(1, 0), (0, 0), (0, 0), (0, 1)],
    [(1, 0), (0, 1)],
    [(1, 0), (-1, 0)],
)
BRUTE_POOL = (
    [(0, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0)],  # OR3
    [(1, 0), (1, 0), (1, 0), (0, 0)],                                  # NAND2
    [(1, 0), (2, 0), (0, 1), (0, 0)],
    [(0, 0), (1, 0), (1, 0), (1, 0)],                                  # OR2
    [(1, 0), (2, 0)],
)


def _block_csp(rng, num_vars, pool, block_sizes, per_block, brute_force_csp):
    """Disjoint blocks of constraints drawn from a pool.

    Returns the document and the product of the per-block values, each
    brute-forced on its own block.  A block whose value is 0 is drawn
    again (up to a few times), so that one block rarely zeroes the
    whole instance and the evaluators run to the end.
    """
    cons = []
    value = None
    base = 0
    while base < num_vars:
        size = min(rng.randint(*block_sizes), num_vars - base)
        for _ in range(20):
            block = []
            for _ in range(rng.randint(*per_block)):
                sig = rng.choice([s for s in pool if len(s) <= 1 << size])
                k = len(sig).bit_length() - 1
                block.append((sig, rng.sample(range(size), k)))
            part = brute_force_csp(size, block)
            if part != G_ZERO:
                break
        cons += [(sig, [base + v for v in on]) for sig, on in block]
        value = part if value is None else gmul(value, part)
        base += size
    body = {"vars": num_vars,
            "constraints": [{"sig": _sig(sig), "on": on} for sig, on in cons]}
    rng.shuffle(body["constraints"])
    return body, canonical(value)


def _tree_csp(rng, target_vars, odd):
    """Tree-shaped csp of H2-images of exact-one, variable degree <= 6.

    With an odd number of constraints the value is 0: flipping every
    variable negates each constraint value.
    """
    degree = [0]
    cons = []
    while True:
        open_vars = [v for v in range(len(degree)) if degree[v] < 6]
        left = target_vars - len(degree)
        if left <= 0 and (len(cons) % 2 == 1) == odd and \
                any(len(on) >= 3 for on in cons):
            break
        k = rng.randint(3, 4) if left >= 2 else 2
        anchor = rng.choice(open_vars)
        new = list(range(len(degree), len(degree) + k - 1))
        degree[anchor] += 1
        degree += [1] * (k - 1)
        on = [anchor] + new
        rng.shuffle(on)
        cons.append(on)
    body = {"vars": len(degree),
            "constraints": [{"sig": _sym(h2_exact_one(len(on))), "on": on}
                            for on in cons]}
    return body, tree_dp(len(degree), cons)


def tree_dp(num_vars, scopes):
    """Exact value of a tree-shaped csp whose constraint on scope s is
    len(s) - 2 * (number of ones in s), by sum-product from variable 0."""
    touching = [[] for _ in range(num_vars)]
    for c, on in enumerate(scopes):
        for v in on:
            touching[v].append(c)

    def var_message(v, from_c):
        out = [1, 1]
        for c in touching[v]:
            if c != from_c:
                m = con_message(c, v)
                out = [out[0] * m[0], out[1] * m[1]]
        return out

    def con_message(c, to_v):
        others = [var_message(u, c) for u in scopes[c] if u != to_v]
        k = len(scopes[c])
        # distribution of the others' weight, weighted by their messages
        dist = {0: 1}
        for m in others:
            nxt = {}
            for w, val in dist.items():
                nxt[w] = nxt.get(w, 0) + val * m[0]
                nxt[w + 1] = nxt.get(w + 1, 0) + val * m[1]
            dist = nxt
        return [sum(val * (k - 2 * (w + x)) for w, val in dist.items())
                for x in (0, 1)]

    root = var_message(0, None)
    return (root[0] + root[1], 0)


def _library_signature(rng, d, y):
    """A degree-d signature with a built-in matchgate realization that is
    positive at index y and nonnegative elsewhere, or None if none is."""
    options = []
    if y.bit_count() == 1:
        options.append("exact_one")
    if y == 0:
        options.append("all_zero")
    if y == (1 << d) - 1:
        options.append("all_one")
    if d <= 6 and y.bit_count() % 2 == 0:
        options.append("hadamard_equality")
    if d == 2 and y in (0, 3):
        options.append("weighted_equality")
    if not options:
        return None
    kind = rng.choice(options)
    lam = rng.choice(POSITIVE)
    values = [G_ZERO] * (1 << d)
    if kind == "exact_one":
        for j in range(d):
            values[1 << j] = lam
    elif kind == "all_zero":
        values[0] = lam
    elif kind == "all_one":
        values[-1] = lam
    elif kind == "hadamard_equality":
        for idx in range(1 << d):
            if idx.bit_count() % 2 == 0:
                values[idx] = gmul(lam, (2, 0))
    else:
        values[0], values[3] = lam, rng.choice(POSITIVE)
    return values


def _library_grid(rng, n, brute_force_csp):
    """Closed planar grid of library signatures; value by brute force
    over its edges (one variable per edge).

    Every signature is nonnegative and positive on one planted edge
    assignment, so the value is positive.
    """
    pts, edges = plane_graph(rng, n, 12)
    rotation = ccw_rotation(pts, edges)
    sigs = [None]
    while None in sigs:
        planted = [rng.randrange(2) for _ in edges]
        sigs = [_library_signature(
                    rng, len(r), int("".join(str(planted[e]) for e in r), 2))
                for r in rotation]
    body = {"vertices": [{"sig": _sig(s), "edges": r}
                         for s, r in zip(sigs, rotation)]}
    value = brute_force_csp(len(edges), list(zip(sigs, rotation)))
    return body, canonical(value)


def _spread(count, low, high):
    """count sizes spread evenly over [low, high]."""
    return [low + (high - low) * j // (count - 1) for j in range(count)]


def gen_eval(rng, brute_force_csp):
    """Product, affine, tree, library-grid and brute-force instances.

    Sizes follow fixed schedules, so every seed draws the same mix of
    sizes; the seed picks the constraints and their placement.
    """
    auto = ["eval", "--mode", "auto"]
    docs = []
    for n in _spread(24, 50, 200):
        body, value = _block_csp(rng, n, PRODUCT_POOL, (2, 8), (1, 8),
                                 brute_force_csp)
        docs.append(("product", auto, body, {"value": value}))
    for n in _spread(24, 50, 200):
        body, value = _block_csp(rng, n, AFFINE_POOL, (2, 6), (1, 6),
                                 brute_force_csp)
        docs.append(("affine", auto, body, {"value": value}))
    for j, n in enumerate(_spread(24, 10, 35)):
        body, value = _tree_csp(rng, n, odd=j % 3 == 2)
        docs.append(("tree", auto, body, {"value": canonical(value)}))
    for j in range(14):
        body, value = _library_grid(rng, 4 + j % 5, brute_force_csp)
        docs.append(("library-grid", auto, body, {"value": value}))
    for j in range(8):
        body, value = _block_csp(rng, 10 + j % 5, BRUTE_POOL, (3, 5), (3, 4),
                                 brute_force_csp)
        docs.append(("brute", auto, body, {"value": value}))
    return docs


def generate(workload, seed, oracles, sets=1):
    """Documents of one workload as (set, kind, argv, body, expect) tuples.

    Each of the `sets` document sets is drawn from its own stream, so
    set k is the same whatever `sets` is; the sets are then interleaved
    in a seeded random order.  `oracles` supplies the two oracles that
    run on the program's own exact field (`brute_force_csp` and
    `enumerate_pm`); they take and return Gaussian integers.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    docs = []
    for k in range(sets):
        rng = random.Random(f"{workload}:{seed}:{k}")
        if workload == "classify":
            batch = gen_classify(rng)
        elif workload == "fkt":
            batch = gen_fkt(rng, oracles.enumerate_pm)
        else:
            batch = gen_eval(rng, oracles.brute_force_csp)
        docs += [(k,) + doc for doc in batch]
    random.Random(f"{workload}:{seed}:order").shuffle(docs)
    return docs
