import json

import pytest

from holant import serialize
from holant.cli import main
from holant.dichotomy import DichotomyVerdict, classify_pl_csp
from holant.fkt import PlanarGraph, count_pm_fkt
from holant.grids import CspInstance, SignatureGrid, brute_force_csp, \
    brute_force_holant, two_stretch
from holant.scalar import I, ONE, Scalar, ZERO
from holant.serialize import (
    NAMED_TRANSFORMS,
    SchemaError,
    canonical_json,
    csp_to_json,
    graph_to_json,
    grid_to_json,
    parse_csp,
    parse_graph,
    parse_grid,
    parse_registry,
    parse_scalar_field,
    parse_signature,
    parse_transform,
    parse_verdict,
    registry_hash,
    signature_to_json,
    transform_to_json,
    verdict_to_json,
)
from holant.signatures import Signature, equality, exact_one, unary
from holant.transforms import DIAG_I, DIAG_ZETA8, H2, Transform2x2

S = Signature.from_symmetric

HALF = Scalar.from_int(1) * Scalar.from_int(2).inverse()


# -- scalars -----------------------------------------------------------------------


def test_scalar_field_accepts_the_wire_forms():
    assert parse_scalar_field("i", "x") == I
    assert parse_scalar_field("-3/4", "x") == Scalar.from_int(-3) * Scalar.from_int(4).inverse()
    assert parse_scalar_field(["1", "0", "0", "0"], "x") == ONE
    assert parse_scalar_field(["0", "1", "0", "0"], "x") ** 8 == ONE


def test_scalar_field_accepts_bare_integers():
    assert parse_scalar_field(7, "x") == Scalar.from_int(7)
    assert parse_scalar_field(0, "x") == ZERO
    assert parse_scalar_field(-2, "x") == Scalar.from_int(-2)


def test_scalar_field_rejects_booleans():
    with pytest.raises(SchemaError) as e:
        parse_scalar_field(True, "weights[3]")
    assert e.value.path == "weights[3]"
    assert "boolean" in e.value.message


def test_scalar_field_reports_the_given_path():
    with pytest.raises(SchemaError) as e:
        parse_scalar_field("not a number", "edge.w")
    assert e.value.path == "edge.w"


def test_schema_error_string_includes_the_path():
    err = SchemaError("a.b[2]", "went wrong")
    assert str(err) == "a.b[2]: went wrong"
    assert str(SchemaError("", "bare")) == "bare"


# -- signatures --------------------------------------------------------------------


def test_signature_round_trip():
    f = Signature([ONE, ZERO, I, Scalar.from_int(-2)])
    doc = signature_to_json(f)
    assert doc["arity"] == 2
    assert parse_signature(doc) == f


def test_signature_symmetric_form():
    assert parse_signature({"symmetric": [1, 0, 1]}) == equality(2)
    assert parse_signature({"symmetric": ["1", "i"]}) == unary(ONE, I)


def test_signature_bare_list_form():
    assert parse_signature([1, 0, 0, 1]) == equality(2)
    assert parse_signature(["1", "1"]) == Signature([ONE, ONE])


def test_signature_arity_cross_check():
    good = {"arity": 1, "values": [0, 1]}
    assert parse_signature(good) == unary(ZERO, ONE)
    with pytest.raises(SchemaError) as e:
        parse_signature({"arity": 3, "values": [0, 1]}, "sig")
    assert e.value.path == "sig.arity"


def test_signature_wrong_length_is_a_schema_error():
    with pytest.raises(SchemaError) as e:
        parse_signature({"values": [1, 2, 3]}, "sig")
    assert e.value.path == "sig.values"


def test_signature_bad_entry_names_its_index():
    with pytest.raises(SchemaError) as e:
        parse_signature({"values": [1, "bad", 0, 1]}, "sig")
    assert e.value.path == "sig.values[1]"


def test_signature_names_resolve_through_a_registry():
    reg = {"xing": exact_one(2)}
    assert parse_signature("xing", registry=reg) == exact_one(2)
    with pytest.raises(SchemaError):
        parse_signature("other", registry=reg)
    with pytest.raises(SchemaError) as e:
        parse_signature("xing")
    assert "registry" in e.value.message


def test_signature_needs_values_or_symmetric():
    with pytest.raises(SchemaError) as e:
        parse_signature({"arity": 2}, "sig")
    assert "'values' or 'symmetric'" in e.value.message


# -- grids -------------------------------------------------------------------------


def eq_triangle():
    f = equality(2)
    return SignatureGrid([(f, (0, 1)), (f, (1, 2)), (f, (2, 0))])


def test_grid_round_trip_preserves_structure_and_value():
    grid = eq_triangle()
    back = parse_grid(grid_to_json(grid))
    assert [v.signature for v in back.vertices] == [v.signature for v in grid.vertices]
    assert [v.edges for v in back.vertices] == [v.edges for v in grid.vertices]
    assert back.dangling == ()
    assert brute_force_holant(back) == Scalar.from_int(2)


def test_grid_round_trip_keeps_tuple_edge_ids():
    stretched = two_stretch(eq_triangle())
    back = parse_grid(grid_to_json(stretched))
    assert [v.edges for v in back.vertices] == [v.edges for v in stretched.vertices]
    assert brute_force_holant(back) == Scalar.from_int(2)


def test_grid_round_trip_keeps_sides_and_dangling():
    grid = SignatureGrid(
        [(equality(2), (0, 1)), (unary(ONE, I), (0,))],
        dangling=(1,),
        sides=None)
    doc = grid_to_json(grid)
    assert "sides" not in doc
    back = parse_grid(doc)
    assert back.dangling == (1,)

    sided = SignatureGrid(
        [(equality(2), (0, 1)), (equality(2), (0, 1))],
        sides=("left", "right"))
    doc = grid_to_json(sided)
    assert doc["sides"] == ["left", "right"]
    assert parse_grid(doc).sides == ("left", "right")


def test_grid_schema_errors_carry_dotted_paths():
    with pytest.raises(SchemaError) as e:
        parse_grid({"dangling": []})
    assert "'vertices'" in e.value.message
    with pytest.raises(SchemaError) as e:
        parse_grid({"vertices": [{"edges": [0]}]})
    assert e.value.path == "grid.vertices[0]"
    with pytest.raises(SchemaError) as e:
        parse_grid({"vertices": [{"sig": {"values": ["?"]}, "edges": []}]})
    assert e.value.path == "grid.vertices[0].sig.values[0]"


def test_grid_assembly_problems_stay_domain_errors():
    doc = {"vertices": [{"sig": {"symmetric": [1, 0, 1]}, "edges": [0, 1, 2]}],
           "dangling": [0, 1, 2]}
    with pytest.raises(ValueError) as e:
        parse_grid(doc)
    assert not isinstance(e.value, SchemaError)


# -- counting CSP instances ----------------------------------------------------------


def test_csp_round_trip():
    inst = CspInstance(3, ((exact_one(2), (0, 1)),
                           (equality(2), (1, 2)),
                           (unary(ONE, I), (2,))))
    back = parse_csp(csp_to_json(inst))
    assert back.num_vars == 3
    assert back.constraints == inst.constraints
    assert brute_force_csp(back) == brute_force_csp(inst)


def test_csp_schema_errors():
    with pytest.raises(SchemaError) as e:
        parse_csp({"vars": 2})
    assert "'vars' and 'constraints'" in e.value.message
    with pytest.raises(SchemaError) as e:
        parse_csp({"vars": 2, "constraints": [{"sig": [1, 0], "on": [0.5]}]})
    assert e.value.path == "csp.constraints[0].on[0]"
    with pytest.raises(SchemaError) as e:
        parse_csp({"vars": True, "constraints": []})
    assert e.value.path == "csp.vars"


def _count_parses(monkeypatch):
    calls = []

    def counting(obj, path="signature", registry=None):
        calls.append(path)
        return parse_signature(obj, path, registry)

    monkeypatch.setattr(serialize, "parse_signature", counting)
    return calls


def test_csp_parses_each_distinct_sig_once(monkeypatch):
    calls = _count_parses(monkeypatch)
    doc = {"vars": 51, "constraints": [
        {"sig": {"symmetric": [1, 2, 3]}, "on": [v, v + 1]}
        for v in range(50)]}
    inst = parse_csp(doc)
    assert calls == ["csp.constraints[0].sig"]
    first = inst.constraints[0][0]
    assert first == S([1, 2, 3])
    assert all(sig is first for sig, _ in inst.constraints)
    assert [on for _, on in inst.constraints] == [(v, v + 1)
                                                 for v in range(50)]


def test_grid_parses_each_distinct_sig_once(monkeypatch):
    calls = _count_parses(monkeypatch)
    n = 20  # a cycle of binary equalities
    doc = {"vertices": [{"sig": {"symmetric": [1, 0, 1]},
                         "edges": [v, (v + 1) % n]} for v in range(n)]}
    grid = parse_grid(doc)
    assert calls == ["grid.vertices[0].sig"]
    assert all(v.signature is grid.vertices[0].signature
               for v in grid.vertices)
    assert brute_force_holant(grid) == Scalar.from_int(2)


def test_grid_shared_sig_keeps_later_error_paths():
    doc = {"vertices": [
        {"sig": {"symmetric": [1, 0, 1]}, "edges": [0, 1]},
        {"sig": {"symmetric": [1, 0, True]}, "edges": [1, 0]}]}
    with pytest.raises(SchemaError) as e:
        parse_grid(doc)
    assert (e.value.path, e.value.message) == (
        "grid.vertices[1].sig.symmetric[2]", "booleans are not scalars")


@pytest.mark.parametrize("doc, path, message", [
    # a bad scope in a later constraint that shares its sig
    ({"vars": 3, "constraints": [
        {"sig": {"symmetric": [1, 0, 1]}, "on": [0, 1]},
        {"sig": {"symmetric": [1, 0, 1]}, "on": [1, "2"]}]},
     "csp.constraints[1].on[1]", "expected an integer, got '2'"),
    # true == 1 and 1.0 == 1 in Python; neither may reuse the earlier parse
    ({"vars": 3, "constraints": [
        {"sig": {"symmetric": [1, 0, 1]}, "on": [0, 1]},
        {"sig": {"symmetric": [1, 0, True]}, "on": [1, 2]}]},
     "csp.constraints[1].sig.symmetric[2]", "booleans are not scalars"),
    ({"vars": 3, "constraints": [
        {"sig": [1, 0, 0, 1], "on": [0, 1]},
        {"sig": [1.0, 0, 0, 1], "on": [1, 2]}]},
     "csp.constraints[1].sig[0]", "not a scalar encoding: 1.0"),
])
def test_shared_sig_keeps_every_error_and_its_path(capsys, tmp_path, doc,
                                                   path, message):
    with pytest.raises(SchemaError) as e:
        parse_csp(doc)
    assert (e.value.path, e.value.message) == (path, message)
    f = tmp_path / "csp.json"
    f.write_text(json.dumps(doc))
    assert main(["eval", str(f)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": {"kind": "parse", "path": path, "message": message}}


def test_one_signature_spelled_four_ways(capsys, tmp_path):
    eq2 = {"symmetric": [1, 0, 1]}
    doc = {"vars": 5, "constraints": [
        {"sig": eq2, "on": [0, 1]},
        {"sig": {"values": [1, 0, 0, 1]}, "on": [1, 2]},
        {"sig": [1, 0, 0, 1], "on": [2, 3]},
        {"sig": ["1", "0", "0", "1"], "on": [3, 4]},
        {"sig": eq2, "on": [4, 0]}]}
    inst = parse_csp(doc)
    assert all(sig == equality(2) for sig, _ in inst.constraints)
    assert inst.constraints[0][0] is inst.constraints[4][0]
    assert brute_force_csp(inst) == Scalar.from_int(2)
    f = tmp_path / "csp.json"
    f.write_text(json.dumps(doc))
    assert main(["eval", str(f)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "input": "csp", "mode": "product", "value": "2"}


# -- embedded graphs -----------------------------------------------------------------


def k4():
    return PlanarGraph(
        4,
        [(0, 1, ONE), (0, 2, ONE), (0, 3, ONE),
         (1, 2, ONE), (1, 3, ONE), (2, 3, ONE)],
        [(0, 1, 2), (0, 4, 3), (1, 3, 5), (2, 5, 4)])


def test_graph_round_trip():
    g = k4()
    back = parse_graph(graph_to_json(g))
    assert back.num_vertices == 4
    assert back.edges == g.edges
    assert back.rotation == g.rotation
    assert count_pm_fkt(back) == Scalar.from_int(3)


def test_graph_schema_errors():
    with pytest.raises(SchemaError) as e:
        parse_graph({"vertices": 2, "edges": []})
    assert "'rotation'" in e.value.message
    with pytest.raises(SchemaError) as e:
        parse_graph({"vertices": 2, "edges": [{"u": 0, "v": 1}],
                     "rotation": [[0], [0]]})
    assert e.value.path == "graph.edges[0]"
    with pytest.raises(SchemaError) as e:
        parse_graph({"vertices": 2, "edges": [{"u": 0, "v": 1, "w": 1}],
                     "rotation": [[0], ["a"]]})
    assert e.value.path == "graph.rotation[1][0]"


@pytest.mark.parametrize("key, bad, path, message", [
    ("edges", 5, "graph.edges[1]", "expected an edge object, got int"),
    ("edges", {"v": 1, "w": 1}, "graph.edges[1]", "needs 'u'"),
    ("edges", {"u": 0, "w": 1}, "graph.edges[1]", "needs 'v'"),
    ("edges", {"u": 0, "v": 1}, "graph.edges[1]", "needs 'w'"),
    ("edges", {"u": True, "v": 1, "w": 1}, "graph.edges[1].u",
     "expected an integer, got True"),
    ("edges", {"u": 0, "v": 1.0, "w": 1}, "graph.edges[1].v",
     "expected an integer, got 1.0"),
    ("edges", {"u": 0, "v": 1, "w": True}, "graph.edges[1].w",
     "booleans are not scalars"),
    ("edges", {"u": 0, "v": 1, "w": None}, "graph.edges[1].w",
     "not a scalar encoding: None"),
    ("edges", {"u": 0, "v": 1, "w": "1/0"}, "graph.edges[1].w",
     "zero denominator in '1/0'"),
    ("edges", {"u": 0, "v": 1, "w": "x"}, "graph.edges[1].w",
     "not a rational literal: 'x'"),
    ("edges", {"u": 0, "v": 1, "w": [1, 2]}, "graph.edges[1].w",
     "not a scalar encoding: [1, 2]"),
    ("edges", {"u": 0, "v": 1, "w": 1.5}, "graph.edges[1].w",
     "not a scalar encoding: 1.5"),
    ("edges", {"u": 0, "v": 1, "w": ["0", "1", "0", "x"]}, "graph.edges[1].w",
     "not a rational literal: 'x'"),
    ("rotation", "a", "graph.rotation[1]", "expected a list, got str"),
    ("rotation", [1, False], "graph.rotation[1][1]",
     "expected an integer, got False"),
    ("rotation", [1, 0.0], "graph.rotation[1][1]",
     "expected an integer, got 0.0"),
])
def test_graph_field_errors_name_their_path(key, bad, path, message):
    # the bad field follows a plain edge and a plain rotation
    doc = {"vertices": 2,
           "edges": [{"u": 0, "v": 1, "w": 1}, {"u": 0, "v": 1, "w": 2}],
           "rotation": [[0, 1], [1, 0]]}
    doc[key][1] = bad
    with pytest.raises(SchemaError) as e:
        parse_graph(doc)
    assert (e.value.path, e.value.message) == (path, message)


def test_graph_weights_read_alike_in_every_spelling():
    spellings = [3, "3", ["3", "0", "0", "0"], "i", ["0", "0", "1", "0"],
                 "-1/2", ["-1/2", "0", "0", "0"]]
    doc = {"vertices": 2,
           "edges": [{"u": 0, "v": 1, "w": w} for w in spellings],
           "rotation": [list(range(7)), list(range(6, -1, -1))]}
    g = parse_graph(doc)
    three, half = Scalar.from_int(3), Scalar.from_int(-1) / 2
    assert [w for _, _, w in g.edges] == [three] * 3 + [I] * 2 + [half] * 2
    assert g.rotation == (tuple(range(7)), tuple(range(6, -1, -1)))


def test_graph_bad_embedding_is_a_domain_error():
    doc = {"vertices": 4,
           "edges": [{"u": 0, "v": 1, "w": 1}, {"u": 0, "v": 2, "w": 1},
                     {"u": 0, "v": 3, "w": 1}, {"u": 1, "v": 2, "w": 1},
                     {"u": 1, "v": 3, "w": 1}, {"u": 2, "v": 3, "w": 1}],
           "rotation": [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]]}
    with pytest.raises(ValueError) as e:
        parse_graph(doc)
    assert not isinstance(e.value, SchemaError)


# -- transforms ----------------------------------------------------------------------


def test_named_transforms():
    assert parse_transform("H2") == H2
    assert parse_transform("diag(1,i)") == DIAG_I
    assert parse_transform("diag(1,zeta8)") == DIAG_ZETA8
    assert set(NAMED_TRANSFORMS) == {"H2", "diag(1,i)", "diag(1,zeta8)"}
    with pytest.raises(SchemaError) as e:
        parse_transform("hadamard")
    assert "known:" in e.value.message


def test_transform_round_trip_and_inline_form():
    assert transform_to_json(H2) == [["1", "1"], ["1", "-1"]]
    assert parse_transform(transform_to_json(DIAG_ZETA8)) == DIAG_ZETA8
    assert parse_transform([[1, 0], [0, "i"]]) == DIAG_I


def test_transform_shape_errors():
    with pytest.raises(SchemaError):
        parse_transform([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(SchemaError):
        parse_transform([[1, 0]])
    with pytest.raises(SchemaError) as e:
        parse_transform([[1, "x"], [0, 1]])
    assert e.value.path == "matrix[0][1]"


# -- verdicts ------------------------------------------------------------------------


def test_verdict_round_trip_rebuilds_witness_signatures():
    v = classify_pl_csp([S([0, 1, 1, 1])])
    doc = verdict_to_json(v)
    assert doc["category"] == "SharpPHard"
    json.dumps(doc)
    back = parse_verdict(doc)
    assert back.category == v.category
    assert back.containments == v.containments
    for name, w in back.witnesses.items():
        assert isinstance(w["signature"], Signature)
        assert w["signature"] == v.witnesses[name]["signature"]
        assert w["index"] == 0


def test_verdict_witness_payloads_become_plain_json():
    v = DichotomyVerdict("PTime", ("affine",), {
        "product": {"index": 1,
                    "signature": equality(2),
                    "witness": {"support": frozenset({2, 1}),
                                "value": I,
                                "pair": (0, 3)}}})
    doc = verdict_to_json(v)
    w = doc["witnesses"]["product"]
    assert w["signature"] == signature_to_json(equality(2))
    assert w["witness"] == {"support": [1, 2],
                            "value": ["0", "0", "1", "0"],
                            "pair": [0, 3]}
    json.dumps(doc)


def test_verdict_schema_errors():
    with pytest.raises(SchemaError) as e:
        parse_verdict({"category": "PTime", "containments": []})
    assert "'witnesses'" in e.value.message
    with pytest.raises(SchemaError) as e:
        parse_verdict({"category": "PTime", "containments": [],
                       "witnesses": {"affine": 3}})
    assert e.value.path == "verdict.witnesses.affine"


# -- registries ----------------------------------------------------------------------


REGISTRY_DOC = {"signatures": {"xing": {"arity": 2, "values": ["0", "1", "1", "0"]},
                               "eq2": {"symmetric": [1, 0, 1]}}}


def test_registry_parses_to_signatures():
    reg = parse_registry(REGISTRY_DOC)
    assert reg["xing"] == exact_one(2)
    assert reg["eq2"] == equality(2)
    with pytest.raises(SchemaError) as e:
        parse_registry({"signatures": {"bad": {"values": [1, 2, 3]}}})
    assert e.value.path == "registry.signatures.bad.values"


def test_registry_hash_is_stable_and_order_free():
    pinned = "16b5e9f5e65291180c69b17a63f39dc961e47202a6f886d83ed6f6d16a1c2ed6"
    reg = parse_registry(REGISTRY_DOC)
    assert registry_hash(reg) == pinned
    flipped = {"eq2": reg["eq2"], "xing": reg["xing"]}
    assert registry_hash(flipped) == pinned


def test_registry_hash_tracks_content():
    reg = parse_registry(REGISTRY_DOC)
    changed = dict(reg, eq2=equality(3))
    assert registry_hash(changed) != registry_hash(reg)


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
