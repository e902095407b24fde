"""Acceptance gate: one test per release criterion, all exact.

Every check here is tolerance-zero and carries its own wall-clock budget.
Each test prints a single PASS or FAIL line (visible with -s, and in the
failure report otherwise), so a run of this module reads as a checklist.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from _util import (
    fibonacci,
    four_block_csp,
    grid_graph,
    identity_value,
    lattice_csp,
    rand_affine_signature,
    rand_csp,
    rand_product_signature,
    random_bipartite_grid,
    random_closed_grid,
    random_planar_graph,
    realizable_signature,
    strip_by_transfer_matrix,
)
from holant import fkt
from holant.cli import main
from holant.classes import is_affine, is_hadamard_matchgate, is_matchgate, \
    is_product, parity_of
from holant.dichotomy import classify_pl_csp, evaluate
from holant.fkt import PlanarGraph, builtin_fragment, count_pm_fkt, \
    enumerate_pm, evaluate_matchgate_grid
from holant.grids import CspInstance, SignatureGrid, brute_force_csp, \
    brute_force_holant, eval_affine_csp, eval_product_csp, \
    vandermonde_interpolate
from holant.scalar import I, MINUS_ONE, ONE, ZERO, ZETA8, Scalar
from holant.signatures import Signature, crossover, derivative, \
    derivative_power, disequality, equality, unary
from holant.transforms import H2, Transform2x2, apply_matrix, \
    check_holant_invariance

S = Signature.from_symmetric
MINUS_I = -I
TWO = Scalar.from_int(2)


@contextmanager
def criterion(name, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, \
        f"{name}: {elapsed:.2f}s exceeds the {budget}s budget"
    print(f"PASS {name} ({elapsed:.2f}s < {budget}s)")


# -- matchgate membership ------------------------------------------------------------


def test_arity4_even_matchgates_match_the_determinant_identity():
    pool = (ZERO, ONE, MINUS_ONE, I, MINUS_I, TWO, -TWO)
    even_positions = [p for p in range(16) if p.bit_count() % 2 == 0]
    rng = random.Random(41)
    with criterion("arity-4 even matchgate identity, 500 samples", 1.0):
        for _ in range(500):
            vals = [ZERO] * 16
            for p in even_positions:
                vals[p] = rng.choice(pool)
            f = Signature(vals)
            identity = (vals[0b0000] * vals[0b1111]
                        - vals[0b1100] * vals[0b0011]
                        + vals[0b1010] * vals[0b0101]
                        - vals[0b1001] * vals[0b0110])
            assert is_matchgate(f).member == (identity == ZERO), vals


def test_small_arity_matchgates_are_exactly_the_parity_signatures():
    pool = (ZERO, ONE, MINUS_ONE)
    with criterion("arity <= 3 matchgate = parity, exhaustive", 10.0):
        for arity in range(4):
            for vals in itertools.product(pool, repeat=1 << arity):
                even_clear = all(v == ZERO for p, v in enumerate(vals)
                                 if p.bit_count() % 2 == 0)
                odd_clear = all(v == ZERO for p, v in enumerate(vals)
                                if p.bit_count() % 2 == 1)
                expected = even_clear or odd_clear
                assert is_matchgate(Signature(vals)).member == expected, vals


def test_hadamard_equality_of_arity_12_is_decided_quickly():
    with criterion("H2 image of =_12 is a matchgate", 3.0):
        assert is_hadamard_matchgate(equality(12)).member


# -- product membership and classification -------------------------------------------


def test_product_membership_at_arity_12_and_14_is_decided_quickly():
    sparse = [ZERO] * (1 << 12)
    sparse[0] = sparse[1] = sparse[-1] = ONE
    with criterion("is_product on a sparse arity-12 non-member and =_14",
                   1.0):
        verdict = is_product(Signature(sparse))
        assert not verdict
        assert verdict.witness == {
            "positions": tuple(range(1, 13)),
            "reason": "factor support is not an antipodal pair",
            "support": (0, 1, 4095)}
        assert is_product(equality(14)).member


def test_equality_of_arity_14_classifies_quickly():
    with criterion("Pl-#CSP(=_14) is PTime", 4.0):
        assert classify_pl_csp([equality(14)]).category == "PTime"


def _high_weight_non_matchgate(n):
    """f(1...1) = 1 and the distinct integers 2, 3, ... on the weight
    n - 2 points: every violated identity has a pattern of high weight."""
    vals = [ZERO] * (1 << n)
    vals[-1] = ONE
    weight_n_2 = [i for i in range(1 << n) if i.bit_count() == n - 2]
    for k, i in enumerate(weight_n_2, start=2):
        vals[i] = Scalar.from_int(k)
    return Signature(vals)


def test_hadamard_non_matchgate_of_arity_14_classifies_with_witness():
    preimage = apply_matrix(_high_weight_non_matchgate(14), H2)
    with criterion("Pl-#CSP of an arity-14 non-matchgate preimage is "
                   "SharpPHard, with witness", 1.0):
        verdict = classify_pl_csp([preimage])
    assert verdict.category == "SharpPHard"
    failed = verdict.witnesses["hadamard_matchgate"]
    assert failed["reason"] == "matching identity violated"
    w = failed["witness"]
    value = identity_value(apply_matrix(failed["signature"], H2),
                           w["pattern"], w["positions"])
    assert value and str(value) == w["value"]


# -- affine membership ---------------------------------------------------------------


def _affine_value_tuples(n):
    """Every length-2**n value tuple expressible as a unit times i**Q on
    an affine support, built by direct enumeration of representations."""
    points = range(1 << n)
    supports = []
    for bits in range(1, 1 << (1 << n)):
        sup = [p for p in points if (bits >> p) & 1]
        if all((x ^ y ^ z) in sup
               for x in sup for y in sup for z in sup):
            supports.append(sup)

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    units = (ONE, I, MINUS_ONE, MINUS_I)
    i_power = [ONE, I, MINUS_ONE, MINUS_I]
    out = {tuple([ZERO] * (1 << n))}
    for sup in supports:
        for linear in itertools.product(range(4), repeat=n):
            for cross in itertools.product((0, 2), repeat=len(pairs)):
                phases = []
                for p in sup:
                    x = [(p >> (n - 1 - j)) & 1 for j in range(n)]
                    q = sum(c * x[j] for j, c in enumerate(linear))
                    q += sum(c * x[a] * x[b]
                             for (a, b), c in zip(pairs, cross))
                    phases.append(i_power[q % 4])
                for lam in units:
                    vals = [ZERO] * (1 << n)
                    for p, ph in zip(sup, phases):
                        vals[p] = lam * ph
                    out.add(tuple(vals))
    return out


def test_affine_membership_matches_representation_search():
    pool = (ZERO, ONE, I, MINUS_ONE, MINUS_I)
    with criterion("affine oracle vs representation search, arity <= 3", 60.0):
        for n in range(4):
            expected = _affine_value_tuples(n)
            for vals in itertools.product(pool, repeat=1 << n):
                got = is_affine(Signature(vals)).member
                if got != (vals in expected):
                    raise AssertionError(
                        f"disagreement at arity {n}: {vals} "
                        f"(membership test says {got})")


# -- holographic invariance ------------------------------------------------------------


def _random_gaussian_transform(rng):
    """Invertible 2x2 matrix with entries a + b*i, small integers a, b."""
    while True:
        entries = [Scalar.from_int(rng.randint(-2, 2))
                   + Scalar.from_int(rng.randint(-2, 2)) * I
                   for _ in range(4)]
        t = Transform2x2(*entries)
        if t.is_invertible:
            return t


def test_basis_change_preserves_grid_values():
    rng = random.Random(42)
    with criterion("holographic invariance, 100 grids x random T", 30.0):
        for _ in range(100):
            grid = random_bipartite_grid(rng, max_base_edges=4)
            t = _random_gaussian_transform(rng)
            before, after, equal = check_holant_invariance(grid, t)
            assert equal and before == after


# -- perfect matchings -----------------------------------------------------------------


def test_fkt_agrees_with_matching_enumeration():
    k4 = PlanarGraph(
        4,
        [(0, 1, ONE), (0, 2, ONE), (0, 3, ONE),
         (1, 2, ONE), (1, 3, ONE), (2, 3, ONE)],
        [(0, 1, 2), (0, 4, 3), (1, 3, 5), (2, 5, 4)])
    c4 = PlanarGraph(4,
                     [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE), (3, 0, ONE)],
                     [(0, 3), (0, 1), (1, 2), (2, 3)])
    rng = random.Random(43)
    with criterion("FKT vs enumeration, 500 planar graphs", 60.0):
        assert count_pm_fkt(k4) == Scalar.from_int(3)
        assert count_pm_fkt(c4) == Scalar.from_int(2)
        for _ in range(500):
            g = random_planar_graph(rng, max_vertices=10)
            assert count_pm_fkt(g) == enumerate_pm(g)


def test_fkt_scales_to_long_ladders_and_large_grids_in_any_numbering():
    rng = random.Random(48)
    ladder = Scalar.from_int(fibonacci(2001))
    with criterion("FKT on a 2x2000 ladder, row and column numbering", 5.0):
        for numbering in ("row", "col"):
            assert count_pm_fkt(grid_graph(2, 2000, numbering)) == ladder
    with criterion("FKT on a 32x32 grid, three numberings", 4.0):
        counts = {count_pm_fkt(grid_graph(32, 32, numbering, rng))
                  for numbering in ("row", "col", "shuffled")}
        assert len(counts) == 1 and counts.pop().as_fraction() > 0


def test_the_matching_search_settles_100x100_boards_quickly():
    rng = random.Random(62)
    board = grid_graph(100, 100, removed=((0, 0), (99, 99)))
    grid = grid_graph(100, 100, "shuffled", rng)
    with criterion("mutilated 100x100 board counts zero, shuffled 100x100 "
                   "grid is matched", 2.0):
        # no perfect matching, so no elimination
        assert count_pm_fkt(board) == ZERO
        mate = fkt._perfect_matching(grid.num_vertices, grid._adj)
        edges = {frozenset((u, v)) for u, v, _ in grid.edges}
        assert all(mate[m] == v and frozenset((v, m)) in edges
                   for v, m in enumerate(mate))


def test_matchgate_grid_evaluation_matches_brute_force():
    rng = random.Random(44)
    with criterion("matchgate grid pipeline, 100 grids", 60.0):
        for _ in range(100):
            grid = random_closed_grid(rng, realizable_signature)
            frags = [builtin_fragment(v.signature) for v in grid.vertices]
            assert all(frag is not None for frag in frags)
            assert evaluate_matchgate_grid(grid, frags) == \
                brute_force_holant(grid)


# -- closed-form evaluators ------------------------------------------------------------


def test_product_evaluator_matches_brute_force():
    rng = random.Random(45)
    with criterion("product evaluator, 200 instances", 60.0):
        for _ in range(200):
            inst = rand_csp(rng, rand_product_signature, max_vars=16)
            assert eval_product_csp(inst) == brute_force_csp(inst)


def test_300000_unread_variables_answer_quickly():
    # each unread variable is a weightless mirror pair, a factor 2
    inst = CspInstance(300000, ())
    with criterion("300,000 unread variables", 1.0):
        assert evaluate(inst) == ("product", Scalar.from_int(1 << 300000))


def test_affine_evaluator_matches_brute_force():
    rng = random.Random(46)
    with criterion("affine evaluator, 200 instances", 60.0):
        for _ in range(200):
            inst = rand_csp(rng, rand_affine_signature, max_vars=16)
            assert eval_affine_csp(inst) == brute_force_csp(inst)


def test_affine_evaluator_takes_a_long_disequality_cycle_quickly():
    n = 4000
    cycle = CspInstance(n, tuple((disequality(), (v, (v + 1) % n))
                                 for v in range(n)))
    with criterion("affine evaluator, 4,000-variable disequality cycle", 0.5):
        assert eval_affine_csp(cycle) == Scalar.from_int(2)


def test_affine_evaluator_takes_a_shuffled_disequality_cycle_quickly():
    n = 4000
    cons = [(disequality(), (v, (v + 1) % n)) for v in range(n)]
    random.Random(3).shuffle(cons)
    cycle = CspInstance(n, tuple(cons))
    with criterion("affine evaluator, shuffled 4,000-variable cycle", 0.5):
        assert eval_affine_csp(cycle) == Scalar.from_int(2)


def test_affine_evaluator_takes_a_long_phase_cycle_quickly():
    n = 8000
    cons = [(S([1, 1, -1]), (v, (v + 1) % n)) for v in range(n)]
    in_order = CspInstance(n, tuple(cons))
    random.Random(4).shuffle(cons)
    shuffled = CspInstance(n, tuple(cons))
    for name, cycle in (("in order", in_order), ("shuffled", shuffled)):
        with criterion(f"affine evaluator, 8,000-variable [1,1,1,-1] cycle "
                       f"{name}", 0.5):
            assert eval_affine_csp(cycle) == Scalar.from_int(2 ** 4001)


def test_affine_evaluator_matches_the_transfer_matrix_on_a_long_strip():
    expected = strip_by_transfer_matrix(8, 500)
    strip = lattice_csp(8, 500)
    with criterion("affine evaluator, 8x500 strip of [1,1,1,-1]", 1.0):
        assert eval_affine_csp(strip) == expected


def test_affine_evaluator_takes_a_square_lattice_in_any_order():
    # no oracle reaches width 60: the value must not depend on the order
    lattice = lattice_csp(60, 60)
    shuffled = lattice_csp(60, 60, random.Random(5))
    with criterion("affine evaluator, 60x60 lattice of [1,1,1,-1], "
                   "in order and shuffled", 2.0):
        assert eval_affine_csp(lattice) == eval_affine_csp(shuffled)


def test_auto_plans_a_product_path_beside_an_affine_path():
    # neither family holds for the pair, and 30 variables is past the
    # brute-force cap; each path alone has a closed-form evaluator
    cons = [(S([1, 0, 2]), (v, v + 1)) for v in range(14)]
    cons += [(S([1, 1, -1]), (v, v + 1)) for v in range(15, 29)]
    with criterion("15-variable product path beside an affine one", 0.1):
        assert evaluate(CspInstance(30, tuple(cons))) == \
            ("affine", Scalar.from_int(4194560))


def test_brute_force_pays_for_the_largest_component_only():
    with criterion("20 variables in four 5-variable blocks, auto and brute",
                   0.5):
        for mode in ("auto", "brute"):
            assert evaluate(four_block_csp(), mode) == \
                ("brute", Scalar.from_int(83521))
        # the cap is per component: a 21st, unread variable doubles the value
        assert evaluate(four_block_csp(21), "brute") == \
            ("brute", Scalar.from_int(2 * 83521))
    or3 = Signature.from_symmetric([0, 1, 1, 1])
    chain = CspInstance(21, tuple((or3, (v, v + 1, v + 2)) for v in range(19)))
    with pytest.raises(ValueError) as refused:
        evaluate(chain, "brute")
    assert str(refused.value) == \
        "21 variables exceeds the brute-force cap of 20"


def test_an_open_grid_of_40000_dangling_edges_is_refused_quickly(capsys,
                                                                 tmp_path):
    n = 40000
    path = tmp_path / "open.json"
    path.write_text(json.dumps({
        "vertices": [{"sig": [1, 1], "edges": [v]} for v in range(n)],
        "dangling": list(range(n))}))
    with criterion("gadget refuses 40,000 dangling edges", 1.0):
        code = main(["gadget", str(path)])
    assert code == 1
    printed = capsys.readouterr().out.splitlines()[0]  # then criterion's line
    assert json.loads(printed) == {"error": {
        "kind": "domain",
        "message": "40000 dangling edges exceeds the arity cap"}}


# -- classification --------------------------------------------------------------------


ORACLES = {
    "affine": is_affine,
    "product": is_product,
    "hadamard_matchgate": is_hadamard_matchgate,
}

VERDICT_TABLE = [
    ([equality(2), S([1, 0, 1, 0])], "PTime"),
    ([S([0, 1, 1, 1])], "SharpPHard"),
    ([S([4, 2, 0, -2, -4])], "PlanarPTimeOnly"),
    ([S([1, 0]), S([0, 1]), S([0, 1, 0])], "PTime"),
]


def test_classifier_verdicts_and_containments():
    with criterion("classifier verdict table", 5.0):
        for sigs, expected in VERDICT_TABLE:
            verdict = classify_pl_csp(sigs)
            assert verdict.category == expected, (sigs, verdict.category)
            for family in verdict.containments:
                assert all(ORACLES[family](f).member for f in sigs), family


# -- operator identities ---------------------------------------------------------------


def test_transform_and_derivative_identities():
    with criterion("crossover and derivative identities", 1.0):
        x = crossover()
        assert apply_matrix(x, H2) == x * Scalar.from_int(4)
        assert derivative(S([1, 0, 1, 0]), unary(0, 1)) == S([0, 1, 0])
        for base in (TWO, I):
            for k in range(1, 6):
                assert derivative_power(equality(k + 1), unary(1, base), k) \
                    == unary(ONE, base ** k)


def test_product_members_with_parity_images_are_affine():
    rng = random.Random(47)
    with criterion("product members with parity images, 200 hits", 10.0):
        hits = 0
        for _ in range(20000):
            f = rand_product_signature(rng, rng.randint(1, 4))
            if parity_of(apply_matrix(f, H2)) == "none":
                continue
            assert is_affine(f).member, [str(v) for v in f.values]
            hits += 1
            if hits == 200:
                break
        assert hits == 200


# -- interpolation ---------------------------------------------------------------------


def _planted_grid(coeffs, point):
    """Closed grid whose value is sum of coeffs[w] * point**w."""
    m = len(coeffs) - 1
    vals = [ZERO] * (1 << m)
    for w, c in enumerate(coeffs):
        vals[(1 << w) - 1] = c
    vertices = [(Signature(vals), tuple(range(m)))]
    vertices += [(unary(ONE, point), (e,)) for e in range(m)]
    return SignatureGrid(vertices)


def test_interpolation_recovers_planted_coefficients():
    pool = (ONE, TWO, MINUS_ONE, I, ZETA8, ZETA8 ** 3, ZERO, Scalar.from_int(5))
    rng = random.Random(48)
    with criterion("interpolation from grid evaluations", 1.0):
        for length in (8, 5, 3, 2, 1):
            coeffs = tuple(rng.choice(pool) for _ in range(length))
            xs = [TWO ** t for t in range(1, length + 1)]
            ys = [brute_force_holant(_planted_grid(coeffs, x)) for x in xs]
            assert vandermonde_interpolate(xs, ys) == coeffs
