import functools
import json
import random

import pytest

from _util import (
    four_block_csp,
    rand_affine_signature,
    rand_csp,
    rand_product_signature,
    rand_signature,
    random_closed_grid,
    random_planar_graph,
    realizable_signature,
)
from holant.classes import is_affine, parity_of
from holant import cli, dichotomy, fkt, grids, transforms
from holant._embedding import component_roots
from holant.dichotomy import (
    DichotomyVerdict,
    classify_csp,
    classify_pl_csp,
    classify_pl_csp2_symmetric,
    evaluate,
)
from holant.fkt import builtin_fragment, evaluate_matchgate_grid
from holant.grids import CspInstance, SignatureGrid, brute_force_csp, \
    brute_force_holant
from holant.scalar import I, ONE, Scalar, ZETA8
from holant.signatures import Signature, equality, exact_one, unary
from holant.transforms import H2, apply_matrix, scale_by_weight, transform

S = Signature.from_symmetric

RANK = {"PTime": 0, "PlanarPTimeOnly": 1, "SharpPHard": 2}


# -- verdict tables --------------------------------------------------------------


def test_affine_pair_is_tractable():
    v = classify_pl_csp([equality(2), S([1, 0, 1, 0])])
    assert v.category == "PTime"
    assert v.holds("affine")


def test_or_signature_is_hard_everywhere():
    v = classify_pl_csp([S([0, 1, 1, 1])])
    assert v.category == "SharpPHard"
    assert v.containments == ()
    assert set(v.witnesses) == {"affine", "product", "hadamard_matchgate"}
    for w in v.witnesses.values():
        assert w["index"] == 0
        assert w["signature"] == S([0, 1, 1, 1])
        assert "reason" in w or "witness" in w


def test_transformed_exact_one_is_planar_only():
    v = classify_pl_csp([S([4, 2, 0, -2, -4])])
    assert v.category == "PlanarPTimeOnly"
    assert v.containments == ("hadamard_matchgate",)


def test_pins_with_disequality_are_tractable():
    v = classify_pl_csp([S([1, 0]), S([0, 1]), S([0, 1, 0])])
    assert v.category == "PTime"


def test_equality_holds_every_containment():
    v = classify_pl_csp([equality(2)])
    assert v.category == "PTime"
    assert set(v.containments) == {"affine", "product", "hadamard_matchgate"}
    assert v.witnesses == {}


def test_general_csp_verdicts():
    assert classify_csp([equality(3)]).category == "PTime"
    assert set(classify_csp([equality(3)]).containments) == \
        {"affine", "product"}
    assert classify_csp([S([0, 1, 1, 1])]).category == "SharpPHard"
    # tractable only under planarity, so hard in the general setting
    assert classify_csp([S([4, 2, 0, -2, -4])]).category == "SharpPHard"


def test_even_occurrence_verdicts():
    v = classify_pl_csp2_symmetric([S([1, 0, 2])])
    assert v.category == "PTime"
    assert v.holds("product")

    v = classify_pl_csp2_symmetric([S([1, 0, I])])
    assert v.category == "PTime"
    assert v.holds("affine")

    v = classify_pl_csp2_symmetric([S([1, 0, 2]), S([1, 0, 1, 0])])
    assert v.category == "SharpPHard"
    assert len(v.witnesses) == 5


def test_twisted_families_count_for_even_occurrence():
    f = unary(1, ZETA8)
    v = classify_pl_csp2_symmetric([f])
    assert v.category == "PTime"
    assert v.holds("twisted_affine")

    g = scale_by_weight(apply_matrix(S([1, 0, 3]), H2), I)
    v = classify_pl_csp2_symmetric([g])
    assert v.category == "PTime"
    assert v.holds("twisted_hadamard_matchgate")


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        classify_pl_csp2_symmetric([Signature([1, 2, 3, 4])])


def test_non_signature_input_rejected():
    with pytest.raises(TypeError):
        classify_pl_csp([S([1, 0]), "nope"])


def test_empty_set_is_trivially_tractable():
    v = classify_pl_csp([])
    assert v.category == "PTime"
    assert v.witnesses == {}


def test_witnesses_and_containments_are_disjoint():
    rng = random.Random(30)
    for _ in range(20):
        fs = [rand_affine_signature(rng, rng.randint(1, 3))
              for _ in range(rng.randint(1, 3))]
        v = classify_pl_csp(fs)
        assert not set(v.containments) & set(v.witnesses)


# -- ordering properties -----------------------------------------------------------


def _mixed_pool(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rand_affine_signature(rng, rng.randint(1, 3))
    if kind == 1:
        return rand_product_signature(rng, rng.randint(1, 3))
    if kind == 2:
        return apply_matrix(realizable_signature(rng, rng.randint(1, 4)), H2)
    return S([0, 1, 1, 1])


def test_adding_signatures_never_gets_easier():
    rng = random.Random(31)
    for _ in range(40):
        fs = [_mixed_pool(rng) for _ in range(rng.randint(1, 4))]
        cut = rng.randint(0, len(fs))
        small, big = fs[:cut], fs
        assert RANK[classify_pl_csp(small).category] <= \
            RANK[classify_pl_csp(big).category]
        assert RANK[classify_csp(small).category] <= \
            RANK[classify_csp(big).category]


def test_planar_and_general_tractability_agree():
    rng = random.Random(32)
    for _ in range(40):
        fs = [_mixed_pool(rng) for _ in range(rng.randint(1, 3))]
        pl, gen = classify_pl_csp(fs), classify_csp(fs)
        assert (pl.category == "PTime") == (gen.category == "PTime")


# -- verdicts back up the evaluators -----------------------------------------------


def test_product_verdict_backs_the_product_evaluator():
    from holant.grids import eval_product_csp

    rng = random.Random(33)
    for _ in range(15):
        fs = [rand_product_signature(rng, rng.randint(1, 3))
              for _ in range(rng.randint(1, 3))]
        assert classify_csp(fs).holds("product")
        inst = rand_csp(rng, lambda r, k: rng.choice(
            [f for f in fs if f.arity == k] or
            [rand_product_signature(r, k)]), max_vars=6, max_arity=3)
        assert eval_product_csp(inst) == brute_force_csp(inst)


def test_affine_verdict_backs_the_affine_evaluator():
    from holant.grids import eval_affine_csp

    rng = random.Random(34)
    for _ in range(15):
        fs = [rand_affine_signature(rng, rng.randint(1, 3))
              for _ in range(rng.randint(1, 3))]
        assert classify_csp(fs).holds("affine")
        inst = rand_csp(rng, lambda r, k: rng.choice(
            [f for f in fs if f.arity == k] or
            [rand_affine_signature(r, k)]), max_vars=6, max_arity=3)
        assert eval_affine_csp(inst) == brute_force_csp(inst)


def random_planar_csp_grid(rng, right_pool):
    """Closed bipartite grid: equalities on the left, constraints on the
    right, planar by subdividing a random plane graph."""
    g = random_planar_graph(rng, max_vertices=5, extra_edges=3, degree_cap=6)
    vertices, sides = [], []
    for v, r in enumerate(g.rotation):
        halves = tuple(2 * e if g.edges[e][0] == v else 2 * e + 1 for e in r)
        vertices.append((equality(len(r)), halves))
        sides.append("left")
    for e in range(len(g.edges)):
        vertices.append((right_pool(rng), (2 * e, 2 * e + 1)))
        sides.append("right")
    return SignatureGrid(vertices, sides=sides)


def test_matchgate_verdict_backs_the_planar_evaluator():
    rng = random.Random(35)
    for _ in range(15):
        grid = random_planar_csp_grid(
            rng, lambda r: apply_matrix(realizable_signature(r, 2), H2))
        constraint_set = [v.signature for v, s in
                          zip(grid.vertices, grid.sides) if s == "right"]
        verdict = classify_pl_csp(constraint_set)
        assert verdict.holds("hadamard_matchgate")
        assert verdict.category in ("PTime", "PlanarPTimeOnly")

        rewritten = grid.map_sides(
            lambda f: transform(f, H2, "row"),
            lambda f: transform(f, H2, "column"))
        frags = [builtin_fragment(v.signature) for v in rewritten.vertices]
        assert all(fr is not None for fr in frags)
        assert evaluate_matchgate_grid(rewritten, frags) == \
            brute_force_holant(grid)


def test_parity_images_of_product_members_are_affine():
    rng = random.Random(36)
    hits = 0
    for _ in range(250):
        f = rand_product_signature(rng, rng.randint(1, 4))
        if parity_of(apply_matrix(f, H2)) == "none":
            continue
        hits += 1
        assert is_affine(f)
    assert hits > 15


# -- the evaluation planner ----------------------------------------------------------


def _count_family_tests(monkeypatch):
    """Count every membership test by (family, signature), wherever the
    planner or an evaluator looks it up."""
    calls = {}
    for family, test in list(dichotomy._FAMILY_TESTS.items()):
        def counted(f, family=family, test=test):
            calls[family, f] = calls.get((family, f), 0) + 1
            return test(f)
        monkeypatch.setitem(dichotomy._FAMILY_TESTS, family, counted)
        for module in (dichotomy, grids):
            if getattr(module, test.__name__, None) is test:
                monkeypatch.setattr(module, test.__name__, counted)
    return calls


def test_evaluate_tests_each_distinct_product_signature_once(monkeypatch):
    calls = _count_family_tests(monkeypatch)
    f = S([1, 0, 3])  # product, not affine
    inst = CspInstance(12, tuple((f, (k % 11, k % 11 + 1)) for k in range(60)))
    # every variable is forced equal: all zero or all one
    assert evaluate(inst) == ("product", Scalar.from_int(1 + 3 ** 60))
    assert calls == {("product", f): 1}


def test_evaluate_tests_each_distinct_affine_signature_once(monkeypatch):
    calls = _count_family_tests(monkeypatch)
    f = S([1, 1, -1])  # affine, not product
    inst = CspInstance(12, tuple((f, (k % 11, k % 11 + 1)) for k in range(60)))
    assert evaluate(inst) == ("affine", brute_force_csp(inst))
    assert calls == {("product", f): 1, ("affine", f): 1}


def _count_rewrites(monkeypatch):
    """The signatures the FKT route rewrites, one entry per call."""
    rewrites, real = [], dichotomy._hadamard

    def counted(f):
        rewrites.append(f)
        return real(f)

    monkeypatch.setattr(dichotomy, "_hadamard", counted)
    return rewrites


def test_split_csp_rewrites_and_realizes_each_distinct_signature_once(
        monkeypatch):
    lookups, real_lookup = [], dichotomy.builtin_fragment

    def lookup(f):
        lookups.append(f)
        return real_lookup(f)

    monkeypatch.setattr(dichotomy, "builtin_fragment", lookup)
    rewrites = _count_rewrites(monkeypatch)
    f = apply_matrix(exact_one(3), H2)
    one = CspInstance(3, ((f, (0, 1, 2)),))
    inst = CspInstance(300, tuple((f, (3 * c, 3 * c + 1, 3 * c + 2))
                                  for c in range(100)))
    assert evaluate(inst) == ("fkt", brute_force_csp(one) ** 100)
    # =_1 and f: one rewrite and one lookup each, not one per part
    assert sorted(rewrites, key=repr) == [equality(1), f]
    assert len(lookups) == len(set(lookups)) == 2


def _count_checks(monkeypatch):
    """The name of each fragment fkt._checked checks, in order."""
    checks, real = [], fkt._checked

    def check(frag, f, name):
        checks.append(name)
        return real(frag, f, name)

    monkeypatch.setattr(fkt, "_checked", check)
    return checks


def test_fkt_route_looks_up_and_checks_each_distinct_signature_once(
        monkeypatch):
    lookups, enumerated, real_lookup = [], [], dichotomy.builtin_fragment

    def lookup(f):
        lookups.append(f)
        return real_lookup(f)

    monkeypatch.setattr(dichotomy, "builtin_fragment", lookup)
    monkeypatch.setattr(fkt, "fragment_signature", enumerated.append)
    checks = _count_checks(monkeypatch)
    n = 40
    grid = SignatureGrid([(equality(2), (k, (k + 1) % n)) for k in range(n)])
    # a cycle of equalities: all edges 0 or all edges 1
    assert evaluate(grid) == ("fkt", Scalar.from_int(2))
    assert len(lookups) == 1
    # =_2 is the [a,0,0,b] edge, checked as it is built; the route
    # stitches it without enumerating its signature
    assert checks == ["[a,0,0,b] edge"]
    assert enumerated == []


def test_each_unit_shape_is_checked_once_per_process(monkeypatch):
    checks = _count_checks(monkeypatch)
    # an empty cache, as in a fresh process
    monkeypatch.setattr(fkt, "_unit_shape",
                        functools.cache(fkt._unit_shape.__wrapped__))
    star = _planar_only_star(9)
    for _ in range(2):
        assert evaluate(star) == ("fkt", Scalar.from_int(1 << 10))
    # the centre's H =_9 is the even chain and each leaf's H =_1 the
    # all-zero pin, once per process; every constraint is one [a,0,0,b]
    # edge, once per evaluate call
    assert sorted(checks) == ["[a,0,0,b] edge"] * 2 + [
        "_all_zero_fragment", "_even_fragment"]


def test_a_shape_that_fails_its_check_is_a_domain_error(
        monkeypatch, tmp_path, capsys):
    def _even_fragment(k):  # the wrong shape, under the right name
        return fkt._all_zero_fragment(k)

    monkeypatch.setattr(fkt, "_even_fragment", _even_fragment)
    with pytest.raises(ValueError,
                       match="^built-in _even_fragment of arity 5 "):
        builtin_fragment(Signature([1 - y.bit_count() % 2
                                    for y in range(32)]))
    doc = tmp_path / "star.json"
    doc.write_text(json.dumps({"vars": 6, "constraints": [
        {"sig": [3, -1, -1, 3], "on": [0, v]} for v in range(1, 6)]}))
    assert cli.main(["eval", str(doc)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["kind"] == "domain"
    assert "_even_fragment" in out["error"]["message"]


def test_fkt_route_rewrites_each_distinct_signature_once(monkeypatch):
    rewrites = _count_rewrites(monkeypatch)
    f = apply_matrix(exact_one(2), H2)
    n = 12
    inst = CspInstance(n, tuple((f, (i, (i + 1) % n)) for i in range(n)))
    assert evaluate(inst, "fkt") == ("fkt", brute_force_csp(inst))
    # one for the twelve degree-2 variables, one for the constraints
    assert sorted(rewrites, key=repr) == [equality(2), f]


def test_a_signature_on_both_sides_is_rewritten_once(monkeypatch):
    rewrites = _count_rewrites(monkeypatch)
    n = 12
    cycle = CspInstance(n, tuple((equality(2), (i, (i + 1) % n))
                                 for i in range(n)))
    # =_2 is every variable and every constraint: one rewrite serves both
    assert evaluate(cycle, "fkt") == ("fkt", Scalar.from_int(2))
    assert rewrites == [equality(2)]


def _with_self_loops(rng, grid):
    """grid with a self-loop spliced into the rotation of one or two
    vertices, each of which gets a fresh signature of the new arity."""
    vertices = [(v.signature, list(v.edges)) for v in grid.vertices]
    for k in rng.sample(range(len(vertices)), min(2, len(vertices))):
        edges = vertices[k][1]
        at = rng.randrange(len(edges) + 1)
        edges[at:at] = [("loop", k)] * 2
        vertices[k] = (rand_signature(rng, len(edges)), edges)
    return SignatureGrid(vertices)


def _is_bipartite(grid):
    side = component_roots(2 * len(grid.vertices), (
        pair for e in grid.edge_ids
        for (u, _), (v, _) in [grid.occurrences(e)]
        for pair in ((2 * u, 2 * v + 1), (2 * u + 1, 2 * v))))
    return all(side[2 * u] != side[2 * u + 1]
               for u in range(len(grid.vertices)))


def test_hadamard_on_every_vertex_keeps_any_closed_grid():
    # H = H2/sqrt(2) is symmetric and its own inverse, so H H on every
    # edge is the identity: no bipartition needed, and self-loops are fine
    rng = random.Random(38)
    odd = 0
    for t in range(80):
        grid = random_closed_grid(rng, rand_signature, max_vertices=5)
        if t % 2:
            grid = _with_self_loops(rng, grid)
        odd += not _is_bipartite(grid)
        rewritten = SignatureGrid([(dichotomy._hadamard(v.signature),
                                    v.edges) for v in grid.vertices])
        assert brute_force_holant(rewritten) == brute_force_holant(grid)
    assert odd > 40  # the 40 looped grids, and some loopless odd cycles


def test_a_tree_csp_takes_the_fkt_route_without_a_matrix_inverse(
        monkeypatch):
    inverses, real = [], transforms.Transform2x2.inverse

    def inverse(t):
        inverses.append(t)
        return real(t)

    monkeypatch.setattr(transforms.Transform2x2, "inverse", inverse)
    star = _planar_only_star(5)
    assert evaluate(star) == ("fkt", brute_force_csp(star))
    assert inverses == []


_EVAL_POOLS = {
    "product": rand_product_signature,
    "affine": rand_affine_signature,
    "h2_exact_one": lambda rng, k: apply_matrix(exact_one(k), H2),
    "or": lambda rng, k: S([0] + [1] * k),
}


def test_evaluate_auto_agrees_with_brute_force_on_every_route():
    rng = random.Random(37)
    routes = set()
    for _ in range(60):
        pool = _EVAL_POOLS[rng.choice(sorted(_EVAL_POOLS))]
        inst = rand_csp(rng, pool, max_vars=6, max_arity=3)
        mode, value = evaluate(inst, "auto")
        assert value == brute_force_csp(inst), (mode, inst)
        routes.add(mode)
    assert routes == {"product", "affine", "fkt", "brute"}


def _all_zero_pair(k):
    f = Signature([1] + [0] * ((1 << k) - 1))
    return SignatureGrid([(f, tuple(range(k))),
                          (f, tuple(range(k - 1, -1, -1)))])


def test_an_all_zero_pair_of_any_arity_takes_the_fkt_route():
    # the all-zero path of arity k has 2k vertices; with no size rule it
    # is realized up to ARITY_CAP, past the old ENUM_CAP of 20 vertices
    for k in (10, 11, 16):
        grid = _all_zero_pair(k)
        assert evaluate(grid, "auto") == ("fkt", Scalar.from_int(1))
        assert evaluate(grid, "fkt") == ("fkt", Scalar.from_int(1))
    assert brute_force_holant(_all_zero_pair(11)) == Scalar.from_int(1)


def _planar_only_star(degree):
    f = Signature([3, -1, -1, 3])
    return CspInstance(degree + 1,
                       tuple((f, (0, v)) for v in range(1, degree + 1)))


def test_a_degree_7_variable_takes_the_fkt_route():
    # the centre's H =_k is (sqrt 2)^(2-k) [y even]: the chain of 4k - 8
    # vertices, realized at every degree up to ARITY_CAP
    for degree in (7, 8, 12, 16):
        star = _planar_only_star(degree)
        value = Scalar.from_int(1 << (degree + 1))
        if degree <= 12:
            assert brute_force_csp(star) == value
        assert evaluate(star) == ("fkt", value)


# -- planning per connected component ------------------------------------------------


def _block(rng, kind):
    """A connected block of one strategy's signatures on its own variables.

    Product blocks open with [1,0,2] and affine blocks with [1,1,-1], so
    neither family holds beside the other's block and the FKT route
    refuses the product one; fkt blocks are trees of H2·exact-one(3),
    brute blocks trees of OR2 and OR3.
    """
    if kind == "fkt":
        f = apply_matrix(exact_one(3), H2)
        cons = [(f, (0, 1, 2))]
        for _ in range(rng.randint(0, 2)):
            n = 1 + 2 * len(cons)
            cons.append((f, (rng.randrange(n), n, n + 1)))
        return CspInstance(1 + 2 * len(cons), tuple(cons))
    pool = {
        "product": rand_product_signature,
        "affine": rand_affine_signature,
        "brute": lambda rng, k: S([0] + [1] * k),
    }[kind]
    n = rng.randint(4, 8)
    first = {"product": S([1, 0, 2]), "affine": S([1, 1, -1]),
             "brute": S([0, 1, 1])}[kind]
    cons = [(first, (0, 1))]
    for v in range(2, n):  # a random tree keeps the block connected
        cons.append((pool(rng, 2), (rng.randrange(v), v)))
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(1, 3)
        cons.append((pool(rng, k), tuple(rng.randrange(n) for _ in range(k))))
    return CspInstance(n, tuple(cons))


def random_block_instance(rng):
    """40-120 variables in shuffled blocks of one to four strategies, a few
    of them unread.  At most one draw in five keeps a block whose value is
    zero.  Returns the instance, each block's strategy, and the value as
    the product of the per-block brute_force_csp values."""
    kinds = rng.sample(("product", "affine", "fkt", "brute"), rng.randint(1, 4))
    zero_ok = rng.random() < 0.2
    target = rng.randint(40, 112)  # a block has at most 8 variables
    blocks = []
    read = 0
    expected = ONE
    while read < target:
        kind = rng.choice(kinds)
        block = _block(rng, kind)
        value = brute_force_csp(block)
        if value or zero_ok:
            blocks.append((kind, block))
            read += block.num_vars
            expected = expected * value
    n = read + rng.choice((0, 0, 1, 3))
    names = rng.sample(range(n), n)
    cons = []
    base = 0
    for _, block in blocks:
        cons += [(sig, tuple(names[base + v] for v in on))
                 for sig, on in block.constraints]
        base += block.num_vars
    rng.shuffle(cons)
    return (CspInstance(n, tuple(cons)), [k for k, _ in blocks],
            expected * (1 << (n - read)))


def test_auto_plans_each_component_with_its_own_strategy():
    cost = ("product", "affine", "fkt", "brute")
    rng = random.Random(16)
    drawn = set()
    for _ in range(40):
        inst, kinds, expected = random_block_instance(rng)
        assert 40 <= inst.num_vars <= 120
        mode, value = evaluate(inst)
        assert value == expected, inst
        costliest = max(kinds, key=cost.index)
        # every block is planned before any runs, a zero one included
        assert mode == costliest, (mode, kinds)
        drawn.add(f"{mode} as the costliest" if value else "a zero block")
        if len(set(kinds)) == 4:
            drawn.add("all four strategies")
    assert drawn == {"product as the costliest", "affine as the costliest",
                     "fkt as the costliest", "brute as the costliest",
                     "a zero block", "all four strategies"}


OR3 = S([0, 1, 1, 1])
ZERO_UNARY = Signature([0, 0])


def test_a_zero_part_reports_the_same_mode_in_either_order():
    cons = ((OR3, (0, 1, 2)), (ZERO_UNARY, (3,)))
    for order in (cons, cons[::-1]):
        assert evaluate(CspInstance(4, order)) == ("brute", Scalar.from_int(0))


def test_a_zero_part_answers_before_a_part_over_the_cap():
    # the chain on variables 1..21 alone would exceed the cap of 20
    chain = tuple((OR3, (v, v + 1, v + 2)) for v in range(1, 20))
    cons = ((ZERO_UNARY, (0,)),) + chain
    for mode in ("auto", "brute"):
        for order in (cons, cons[::-1]):
            assert evaluate(CspInstance(22, order), mode) == \
                ("brute", Scalar.from_int(0))
    with pytest.raises(ValueError,
                       match="^21 variables exceeds the brute-force cap of 20$"):
        evaluate(CspInstance(22, chain))


def test_parts_reuse_the_membership_tests_of_the_whole(monkeypatch):
    calls = _count_family_tests(monkeypatch)
    rng = random.Random(18)
    seen = 0
    while seen < 5:
        inst, kinds, expected = random_block_instance(rng)
        if "brute" not in kinds or len(set(kinds)) < 3:
            continue
        seen += 1
        calls.clear()
        mode, value = evaluate(inst)
        assert value == expected
        assert mode == "brute"
        assert max(calls.values()) == 1, inst


def test_classifiers_test_each_distinct_signature_once_per_family(
        monkeypatch):
    calls = _count_family_tests(monkeypatch)
    eq2, or3, h2_exact_one = equality(2), S([0, 1, 1, 1]), S([4, 2, 0, -2, -4])
    sigs = [eq2, eq2, h2_exact_one, eq2, or3, h2_exact_one, or3]
    verdict = classify_pl_csp(sigs)
    assert verdict.category == "SharpPHard"
    assert max(calls.values()) == 1
    # a witness names the first failing position, not a later repeat
    assert {name: w["index"] for name, w in verdict.witnesses.items()} == \
        {"affine": 2, "product": 2, "hadamard_matchgate": 4}
    assert verdict.witnesses["hadamard_matchgate"]["signature"] == or3


def test_each_block_kind_takes_its_own_strategy():
    rng = random.Random(17)
    for kind in ("product", "affine", "fkt", "brute"):
        for _ in range(10):
            block = _block(rng, kind)
            assert evaluate(block) == (kind, brute_force_csp(block)), block


def _or2_star(leaves):
    or2 = S([0, 1, 1])
    return CspInstance(leaves + 1, tuple((or2, (0, v))
                                         for v in range(1, leaves + 1)))


def test_auto_falls_through_to_brute_force_beyond_the_arity_cap():
    # variable 0 has degree 17, past ARITY_CAP: its =_17 cannot be built
    assert evaluate(_or2_star(17)) == ("brute", Scalar.from_int(131073))
    with pytest.raises(ValueError, match="^arity 17 exceeds the cap of 16$"):
        evaluate(_or2_star(17), "fkt")


def test_every_mode_refuses_a_star_of_64_leaves():
    star = _or2_star(64)
    for mode in ("auto", "product", "affine", "fkt", "brute"):
        with pytest.raises(ValueError):
            evaluate(star, mode)
    with pytest.raises(ValueError, match="^arity 64 exceeds the cap of 16$"):
        equality(64)


def test_an_unknown_mode_is_refused_before_any_planning(monkeypatch):
    def plan(*args):
        raise AssertionError("planned")

    monkeypatch.setattr(dichotomy, "_plan", plan)
    for problem in (four_block_csp(21), SignatureGrid([])):
        with pytest.raises(ValueError, match="^unknown mode 'Auto'; "
                           "expected one of auto, brute, product, affine, "
                           "fkt$"):
            evaluate(problem, "Auto")


def test_the_parts_of_a_split_csp_are_not_split_again(monkeypatch):
    sizes = []

    def counted(n, pairs):
        sizes.append(n)
        return component_roots(n, pairs)

    monkeypatch.setattr(dichotomy, "component_roots", counted)
    for mode in ("auto", "brute"):
        sizes.clear()
        assert evaluate(four_block_csp(), mode) == \
            ("brute", Scalar.from_int(83521))
        assert sizes == [20]
