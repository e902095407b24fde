import random

import pytest

from _util import (
    SMALL_POOL,
    four_block_csp,
    rand_affine_signature,
    rand_csp,
    rand_nonzero_signature,
    rand_product_signature,
    rand_signature,
    random_bipartite_grid,
    random_closed_grid,
    rref_by_scan,
)
from holant.grids import (
    CspInstance,
    SignatureGrid,
    brute_force_csp,
    brute_force_holant,
    csp_to_grid,
    eval_affine_csp,
    eval_product_csp,
    gate_signature,
    two_stretch,
    vandermonde_interpolate,
)
from holant import dichotomy
from holant._embedding import component_roots
from holant._gf2 import rref
from holant.dichotomy import evaluate
from holant.scalar import I, ONE, ZERO, Scalar, ZETA8
from holant.signatures import (
    Signature,
    connect_unary,
    disequality,
    equality,
    exact_one,
    link,
    tensor,
    unary,
)
from holant.transforms import H2, Transform2x2, check_holant_invariance


def triangle(sig):
    return SignatureGrid([(sig, (0, 1)), (sig, (1, 2)), (sig, (2, 0))])


K4_EDGES = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5}


def k4_grid(sig, planar=True):
    if planar:
        rot = [(0, 1, 2), (0, 4, 3), (1, 3, 5), (2, 5, 4)]
    else:
        rot = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]
    return SignatureGrid([(sig, r) for r in rot])


# -- construction and validation ----------------------------------------------


def test_arity_must_match_degree():
    with pytest.raises(ValueError, match="arity"):
        SignatureGrid([(equality(3), (0, 1))])


def test_edge_seen_three_times_rejected():
    with pytest.raises(ValueError):
        SignatureGrid([(equality(3), (0, 0, 1)), (equality(1), (0,))])


def test_single_occurrence_must_be_dangling():
    with pytest.raises(ValueError):
        SignatureGrid([(equality(2), (0, 1))])
    SignatureGrid([(equality(2), (0, 1))], dangling=(0, 1))


def test_dangling_cannot_be_internal():
    with pytest.raises(ValueError):
        SignatureGrid([(equality(2), (0, 1)), (equality(1), (1,))],
                      dangling=(0, 1))


def test_side_labels_validated():
    with pytest.raises(ValueError, match="left/right"):
        SignatureGrid([(equality(2), (0, 1)), (equality(2), (0, 1))],
                      sides=("left", "up"))
    with pytest.raises(ValueError, match="per vertex"):
        SignatureGrid([(equality(2), (0, 1)), (equality(2), (0, 1))],
                      sides=("left",))


def test_self_loop_is_a_legal_grid():
    g = SignatureGrid([(equality(2), (0, 0))])
    assert brute_force_holant(g) == Scalar.from_int(2)


# -- planarity of rotation systems --------------------------------------------


def test_k4_planar_rotation():
    assert k4_grid(equality(3)).is_planar()


def test_k4_crossing_rotation():
    assert not k4_grid(equality(3), planar=False).is_planar()


def test_dangling_edges_join_the_planarity_check():
    g = SignatureGrid([(equality(3), (0, 1, 2))], dangling=(0, 1, 2))
    assert g.is_planar()


# -- brute-force holant --------------------------------------------------------


def test_equality_triangle_counts_constant_assignments():
    assert brute_force_holant(triangle(equality(2))) == Scalar.from_int(2)


def test_unary_pair_inner_product():
    g = SignatureGrid([(unary(1, 2), (0,)), (unary(1, 2), (0,))])
    assert brute_force_holant(g) == Scalar.from_int(5)


def test_k4_equality_two_constant_assignments():
    assert brute_force_holant(k4_grid(equality(3))) == Scalar.from_int(2)


def test_k4_exact_one_counts_perfect_matchings():
    assert brute_force_holant(k4_grid(exact_one(3))) == Scalar.from_int(3)


def test_zero_vertex_short_circuits():
    z = Signature([0, 0, 0, 0])
    assert brute_force_holant(triangle(z)) == ZERO


def test_open_grid_refused():
    g = SignatureGrid([(equality(2), (0, 1))], dangling=(0, 1))
    with pytest.raises(ValueError, match="dangling"):
        brute_force_holant(g)


def test_edge_cap_enforced():
    vs = [(equality(2), (2 * i, 2 * i + 1)) for i in range(13)]
    dang = [e for v in vs for e in v[1]]
    g = SignatureGrid(vs, dangling=dang)
    with pytest.raises(ValueError, match="cap"):
        gate_signature(g)


# -- gate signatures -----------------------------------------------------------


def test_gate_of_lone_vertex_is_its_signature():
    rng = random.Random(0)
    f = rand_signature(rng, 3)
    g = SignatureGrid([(f, (7, 8, 9))], dangling=(7, 8, 9))
    assert gate_signature(g) == f


def test_dangling_order_sets_variable_order():
    rng = random.Random(1)
    f = rand_signature(rng, 2)
    g = SignatureGrid([(f, (0, 1))], dangling=(1, 0))
    h = gate_signature(g)
    for x1 in (0, 1):
        for x2 in (0, 1):
            assert h[(x1 << 1) | x2] == f[(x2 << 1) | x1]


def test_gate_matches_unary_contraction():
    rng = random.Random(2)
    f = rand_signature(rng, 3)
    u = unary(2, -1)
    g = SignatureGrid([(f, (0, 1, 2)), (u, (1,))], dangling=(0, 2))
    assert gate_signature(g) == connect_unary(f, u, (2,))


def test_gate_matches_tensor():
    rng = random.Random(3)
    f, g = rand_signature(rng, 2), rand_signature(rng, 1)
    grid = SignatureGrid([(f, (0, 1)), (g, (2,))], dangling=(0, 1, 2))
    assert gate_signature(grid) == tensor(f, g)


def test_gate_matches_link():
    rng = random.Random(4)
    f, g = rand_signature(rng, 4), rand_signature(rng, 4)
    grid = SignatureGrid([(f, (0, 1, 8, 9)), (g, (9, 8, 2, 3))],
                         dangling=(0, 1, 2, 3))
    assert gate_signature(grid) == link(f, g)


def test_gate_of_closed_grid_is_arity_zero():
    h = gate_signature(triangle(equality(2)))
    assert h.arity == 0
    assert h[0] == Scalar.from_int(2)


# -- CSP to grid ---------------------------------------------------------------


def test_csp_grid_structure():
    inst = CspInstance(2, ((equality(2), (0, 1)),))
    g = csp_to_grid(inst)
    assert g.sides is not None
    assert not g.dangling
    assert brute_force_holant(g) == brute_force_csp(inst)


def test_isolated_variable_doubles_the_count():
    inst = CspInstance(3, ((equality(2), (0, 1)),))
    assert brute_force_csp(inst) == Scalar.from_int(4)
    assert brute_force_holant(csp_to_grid(inst)) == Scalar.from_int(4)


def test_csp_grid_agrees_with_brute_force_on_randoms():
    rng = random.Random(5)
    for t in range(25):
        inst = rand_csp(rng, rand_signature, max_vars=5, max_arity=3,
                        repeats=(t % 3 == 0))
        assert brute_force_holant(csp_to_grid(inst)) == brute_force_csp(inst)


# -- brute force by components (the planner's brute branch) ------------------


def random_block_csp(rng):
    """0-12 variables in random blocks; some blocks left unread, scopes
    drawn within a block (repeats allowed), a few zero-arity constants."""
    n = rng.randint(0, 12)
    order = rng.sample(range(n), n)
    cons = []
    start = 0
    while start < n:
        size = rng.randint(1, 4)
        block = order[start:start + size]
        start += size
        if rng.random() < 0.25:
            continue
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 3)
            scope = tuple(rng.choice(block) for _ in range(k))
            cons.append((rand_signature(rng, k), scope))
    for _ in range(rng.choice((0, 0, 1, 2))):
        cons.append((Signature([rng.choice(SMALL_POOL)]), ()))
    rng.shuffle(cons)
    return CspInstance(n, tuple(cons))


def test_component_route_matches_exhaustive_brute_force():
    rng = random.Random(12)
    drawn = set()
    for _ in range(300):
        inst = random_block_csp(rng)
        mode, value = evaluate(inst, "brute")
        assert mode == "brute"
        assert value == brute_force_csp(inst), inst
        root = component_roots(inst.num_vars, (
            (on[0], v) for _, on in inst.constraints for v in on[1:]))
        read = {v for _, on in inst.constraints for v in on}
        components = {root[v] for v in read}
        if len(components) > 1:
            drawn.add("several components")
            if not value:
                drawn.add("a zero component")
        if len(read) < inst.num_vars:
            drawn.add("unread variables")
        if any(not on for _, on in inst.constraints):
            drawn.add("zero-arity constraints")
        if any(len(set(on)) < len(on) for _, on in inst.constraints):
            drawn.add("a repeated variable")
        if inst.num_vars == 0:
            drawn.add("no variables")
    assert drawn == {"several components", "a zero component",
                     "unread variables", "zero-arity constraints",
                     "a repeated variable", "no variables"}


def test_component_route_enumerates_each_component_once(monkeypatch):
    sizes = []
    exhaustive = dichotomy.brute_force_csp

    def record(inst):
        sizes.append(inst.num_vars)
        return exhaustive(inst)

    monkeypatch.setattr(dichotomy, "brute_force_csp", record)
    assert evaluate(four_block_csp(), "brute") == ("brute", 17 ** 4)
    assert sizes == [5, 5, 5, 5]

    sizes.clear()
    inst = CspInstance(4, ((Signature([0, 0]), (0,)), (equality(2), (1, 2))))
    assert evaluate(inst, "brute") == ("brute", ZERO)
    assert sizes == [1]


# -- two-stretch ---------------------------------------------------------------


def test_two_stretch_structure():
    g = triangle(equality(2))
    s = two_stretch(g)
    assert len(s.vertices) == 6
    assert s.sides is None


def test_two_stretch_preserves_value():
    rng = random.Random(6)
    for _ in range(15):
        g = random_closed_grid(rng, rand_signature, max_vertices=5,
                               extra_edges=2, degree_cap=4)
        assert brute_force_holant(two_stretch(g)) == brute_force_holant(g)


# -- bipartite rewriting -------------------------------------------------------


def test_map_sides_requires_labels():
    with pytest.raises(ValueError, match="bipartition"):
        triangle(equality(2)).map_sides(lambda f: f, lambda f: f)


def test_map_sides_requires_bipartite_edges():
    g = SignatureGrid([(equality(2), (0, 1)), (equality(2), (1, 2)),
                       (equality(2), (2, 0))],
                      sides=("left", "left", "right"))
    with pytest.raises(ValueError, match="bipartite"):
        g.map_sides(lambda f: f, lambda f: f)


def test_map_sides_requires_closed_grid():
    g = SignatureGrid([(equality(2), (0, 1)), (equality(2), (1, 2))],
                      dangling=(0, 2), sides=("left", "right"))
    with pytest.raises(ValueError, match="closed"):
        g.map_sides(lambda f: f, lambda f: f)


def test_hadamard_invariance_on_random_bipartite_grids():
    rng = random.Random(7)
    for _ in range(15):
        grid = random_bipartite_grid(rng)
        before, after, same = check_holant_invariance(grid, H2)
        assert same and before == after


def test_invariance_under_random_invertible_transforms():
    rng = random.Random(8)
    pool = (ZERO, ONE, I, -I, Scalar.from_int(2), Scalar.from_int(-1))
    done = 0
    while done < 10:
        t = Transform2x2(rng.choice(pool), rng.choice(pool),
                         rng.choice(pool), rng.choice(pool))
        if not t.is_invertible:
            continue
        grid = random_bipartite_grid(rng)
        assert check_holant_invariance(grid, t)[2]
        done += 1


def test_singular_transform_rejected():
    with pytest.raises(ZeroDivisionError):
        check_holant_invariance(random_bipartite_grid(random.Random(9)),
                                Transform2x2(1, 1, 1, 1))


# -- product-family evaluator ---------------------------------------------------


def cycle_csp(sig, n):
    cons = tuple((sig, (v, (v + 1) % n)) for v in range(n))
    return CspInstance(n, cons)


def test_even_disequality_cycle():
    assert eval_product_csp(cycle_csp(disequality(), 4)) == Scalar.from_int(2)


def test_odd_disequality_cycle_is_infeasible():
    assert eval_product_csp(cycle_csp(disequality(), 5)) == ZERO


def test_product_literal():
    inst = CspInstance(2, ((unary(2, 3), (0,)),
                           (Signature([1, 0, 0, 5]), (0, 1))))
    assert eval_product_csp(inst) == Scalar.from_int(17)


def test_zero_constraint_zeroes_the_instance():
    inst = CspInstance(2, ((Signature([0, 0]), (0,)),
                           (equality(2), (0, 1))))
    assert eval_product_csp(inst) == ZERO
    assert eval_affine_csp(inst) == ZERO


def test_product_rejects_foreign_constraints():
    inst = CspInstance(3, ((Signature([0, 1, 1, 1, 1, 0, 0, 0]), (0, 1, 2)),))
    with pytest.raises(ValueError, match="product"):
        eval_product_csp(inst)


def test_product_evaluator_matches_brute_force():
    rng = random.Random(10)
    for t in range(40):
        inst = rand_csp(rng, rand_product_signature, max_vars=7,
                        max_arity=4, repeats=(t % 3 == 0))
        assert eval_product_csp(inst) == brute_force_csp(inst)


def test_repeated_variable_in_scope():
    inst = CspInstance(1, ((disequality(), (0, 0)),))
    assert eval_product_csp(inst) == ZERO
    inst = CspInstance(1, ((equality(2), (0, 0)),))
    assert eval_product_csp(inst) == Scalar.from_int(2)


# -- affine-family evaluator ----------------------------------------------------


def test_affine_parity_constraint():
    parity = Signature([1 if x.bit_count() % 2 == 0 else 0 for x in range(8)])
    inst = CspInstance(3, ((parity, (0, 1, 2)),))
    assert eval_affine_csp(inst) == Scalar.from_int(4)


def test_affine_phase_cancellation():
    # two copies of [1, i] on one variable: 1 + i^2 = 0
    inst = CspInstance(1, ((Signature([1, I]), (0,)),
                           (Signature([1, I]), (0,))))
    assert eval_affine_csp(inst) == ZERO
    assert brute_force_csp(inst) == ZERO


def test_affine_rejects_foreign_constraints():
    inst = CspInstance(3, ((Signature([0, 1, 1, 1, 1, 0, 0, 0]), (0, 1, 2)),))
    with pytest.raises(ValueError, match="affine"):
        eval_affine_csp(inst)


def test_affine_evaluator_matches_brute_force():
    rng = random.Random(11)
    for t in range(40):
        inst = rand_csp(rng, rand_affine_signature, max_vars=7,
                        max_arity=4, repeats=(t % 3 == 0))
        assert eval_affine_csp(inst) == brute_force_csp(inst)


def test_affine_handles_scaled_members():
    half = Scalar.from_int(2).inverse()
    f = Signature([half, 0, 0, half * I])
    inst = CspInstance(2, ((f, (0, 1)), (equality(2), (0, 1))))
    assert eval_affine_csp(inst) == brute_force_csp(inst)


def test_mixed_system_with_contradiction():
    inst = CspInstance(2, ((unary(0, 1), (0,)), (unary(1, 0), (0,)),
                           (equality(2), (0, 1))))
    assert eval_affine_csp(inst) == ZERO
    assert eval_product_csp(inst) == ZERO


def test_a_zero_constraint_does_not_hide_a_foreign_one():
    zero = (Signature([0, 0]), (0,))
    foreign = (Signature.from_symmetric([0, 1, 1, 1]), (0, 1, 2))
    for evaluate, family in ((eval_product_csp, "product"),
                             (eval_affine_csp, "affine")):
        for cons in ((zero, foreign), (foreign, zero)):
            with pytest.raises(ValueError, match=f"outside the {family}"):
                evaluate(CspInstance(3, cons))


# -- evaluators beyond the brute-force cap --------------------------------------


def wide_block_csp(rng, sig_fn):
    """40-120 variables in shuffled disjoint blocks of 1-6 variables.

    A block is left unread a quarter of the time; otherwise it gets 1-3
    constraints drawn from `sig_fn(rng, arity)` on scopes within the
    block (repeats allowed), and sometimes an equality or a disequality
    on two of its variables.  Blocks are redrawn until every block value
    is nonzero, except that half of the instances get one block of value
    zero, so a zero instance has a single cause.  Returns the instance,
    its value as the product of the block values by brute force, and
    whether the zero block (if any) is a parity conflict: one that its
    equalities and disequalities alone make infeasible.
    """
    n = rng.randint(40, 120)
    order = rng.sample(range(n), n)
    blocks = []
    while order:
        blocks.append(order[:rng.randint(1, 6)])
        del order[:len(blocks[-1])]
    zero_at = rng.randrange(len(blocks)) if rng.random() < 0.5 else None
    parity_sigs = (equality(2), disequality())
    cons = []
    value = ONE
    conflict = False
    for b, block in enumerate(blocks):
        while True:
            local = []
            if rng.random() >= 0.25:
                for _ in range(rng.randint(1, 3)):
                    k = rng.randint(1, 3)
                    local.append((sig_fn(rng, k), tuple(
                        rng.randrange(len(block)) for _ in range(k))))
                for _ in range(rng.choice((0, 1, 2))):
                    local.append((rng.choice(parity_sigs),
                                  (rng.randrange(len(block)),
                                   rng.randrange(len(block)))))
            block_value = brute_force_csp(CspInstance(len(block), tuple(local)))
            if (b == zero_at) == (not block_value):
                break
        if b == zero_at:
            parity = tuple(c for c in local if c[0] in parity_sigs)
            conflict = not brute_force_csp(CspInstance(len(block), parity))
        value = value * block_value
        cons += [(sig, tuple(block[v] for v in on)) for sig, on in local]
    rng.shuffle(cons)
    return CspInstance(n, tuple(cons)), value, conflict


@pytest.mark.parametrize("evaluate, sig_fn, seed", [
    (eval_product_csp, rand_product_signature, 40),
    (eval_affine_csp, rand_affine_signature, 41),
])
def test_evaluators_match_block_values_beyond_the_cap(evaluate, sig_fn, seed):
    rng = random.Random(seed)
    drawn = set()
    for _ in range(16):
        inst, value, conflict = wide_block_csp(rng, sig_fn)
        assert evaluate(inst) == value
        drawn.add("a nonzero value" if value else "a zero value")
        if conflict:
            drawn.add("a parity conflict")
        if len({v for _, on in inst.constraints for v in on}) < inst.num_vars:
            drawn.add("an unread variable")
        if any(len(set(on)) < len(on) for _, on in inst.constraints):
            drawn.add("a repeated variable")
    assert drawn == {"a nonzero value", "a zero value", "a parity conflict",
                     "an unread variable", "a repeated variable"}


@pytest.mark.parametrize("evaluate", [eval_product_csp, eval_affine_csp])
def test_long_disequality_cycles(evaluate):
    assert evaluate(cycle_csp(disequality(), 2000)) == Scalar.from_int(2)
    assert evaluate(cycle_csp(disequality(), 2001)) == ZERO


def test_rref_matches_the_pivot_scan():
    rng = random.Random(47)
    for _ in range(300):
        width = rng.randint(1, 90)
        vectors = []
        for _ in range(rng.randint(0, 40)):
            kind = rng.random()
            if kind < 0.2 and vectors:
                # a combination of earlier rows, so it reduces to zero
                v = 0
                for u in rng.sample(vectors, rng.randint(1, len(vectors))):
                    v ^= u
            elif kind < 0.6:
                v = 0
                for b in rng.sample(range(width), min(width, rng.randint(1, 3))):
                    v |= 1 << b
            else:
                v = rng.randrange(1 << width)
            vectors.append(v)
        got = rref(vectors)
        assert list(got.items()) == list(rref_by_scan(vectors).items())


# -- exact interpolation ---------------------------------------------------------


def test_interpolation_literal():
    assert vandermonde_interpolate((0, 1, 2), (1, 3, 7)) == \
        (ONE, ONE, ONE)


def test_interpolation_with_eighth_roots():
    rng = random.Random(12)
    coeffs = [rand_signature(rng, 0)[0] for _ in range(5)]
    nodes = [ZETA8 ** k for k in range(5)]
    values = []
    for x in nodes:
        acc, power = ZERO, ONE
        for c in coeffs:
            acc = acc + c * power
            power = power * x
        values.append(acc)
    assert vandermonde_interpolate(nodes, values) == tuple(coeffs)


def test_interpolation_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        vandermonde_interpolate((1, 1), (2, 2))


def test_interpolation_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        vandermonde_interpolate((1, 2), (3,))
