"""End-to-end checks of the command line, run in process through main()."""

import json
import subprocess
import sys

import pytest

from _util import grid_graph
from holant.cli import main
from holant.fkt import PlanarGraph
from holant.grids import CspInstance, SignatureGrid
from holant.scalar import ONE
from holant.serialize import csp_to_json, graph_to_json, grid_to_json, \
    registry_hash
from holant.signatures import Signature, equality, exact_one

S = Signature.from_symmetric


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def put(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sig_doc(*symmetric_lists):
    return {"signatures": [{"symmetric": list(s)} for s in symmetric_lists]}


# -- classification ---------------------------------------------------------------


def test_classify_hard_set(capsys, tmp_path):
    doc = put(tmp_path, "f.json", sig_doc([0, 1, 1, 1]))
    code, out = run(capsys, "classify", doc)
    assert code == 0
    assert out["category"] == "SharpPHard"
    assert out["containments"] == []
    assert set(out["witnesses"]) == {"affine", "product", "hadamard_matchgate"}
    assert all(w["index"] == 0 for w in out["witnesses"].values())


def test_classify_tractable_set(capsys, tmp_path):
    doc = put(tmp_path, "f.json", sig_doc([1, 0, 1], [1, 0, 1, 0]))
    code, out = run(capsys, "classify", doc)
    assert code == 0
    assert out["category"] == "PTime"
    assert "affine" in out["containments"]


def test_classify_planar_only_set(capsys, tmp_path):
    doc = put(tmp_path, "f.json", sig_doc([4, 2, 0, -2, -4]))
    code, out = run(capsys, "classify", doc)
    assert code == 0
    assert out["category"] == "PlanarPTimeOnly"
    assert out["containments"] == ["hadamard_matchgate"]

    code, out = run(capsys, "classify-csp", doc)
    assert code == 0
    assert out["category"] == "SharpPHard"


def test_classify_accepts_a_bare_signature_list(capsys, tmp_path):
    doc = put(tmp_path, "f.json", [{"symmetric": [1, 0, 1]}])
    code, out = run(capsys, "classify", doc)
    assert code == 0
    assert out["category"] == "PTime"


def test_classify_csp2_requires_symmetry(capsys, tmp_path):
    good = put(tmp_path, "g.json", sig_doc([1, 0, 3]))
    code, out = run(capsys, "classify-csp2", good)
    assert code == 0
    assert out["category"] == "PTime"
    assert "product" in out["containments"]

    bad = put(tmp_path, "b.json", {"signatures": [{"values": [1, 2, 3, 4]}]})
    code, out = run(capsys, "classify-csp2", bad)
    assert code == 1
    assert out["error"]["kind"] == "domain"
    assert out["error"]["message"] == "signature 0 is not symmetric"


# -- evaluation -------------------------------------------------------------------


def test_eval_auto_picks_product(capsys, tmp_path):
    inst = CspInstance(2, ((exact_one(2), (0, 1)), (S([2, 3]), (0,))))
    doc = put(tmp_path, "c.json", csp_to_json(inst))
    code, out = run(capsys, "eval", doc)
    assert code == 0
    assert out == {"input": "csp", "mode": "product", "value": "5"}
    code, brute = run(capsys, "eval", doc, "--mode", "brute")
    assert brute["value"] == "5"


def test_eval_auto_picks_affine(capsys, tmp_path):
    doc = put(tmp_path, "c.json", {
        "vars": 3,
        "constraints": [{"sig": {"symmetric": [1, 0, 1, 0]}, "on": [0, 1, 2]},
                        {"sig": ["1", "i"], "on": [0]}]})
    code, out = run(capsys, "eval", doc)
    assert code == 0
    assert out == {"input": "csp", "mode": "affine",
                   "value": ["2", "0", "2", "0"]}


def test_eval_auto_picks_fkt(capsys, tmp_path):
    doc = put(tmp_path, "c.json", {
        "vars": 4,
        "constraints": [{"sig": {"symmetric": [4, 2, 0, -2, -4]},
                         "on": [0, 1, 2, 3]}]})
    code, out = run(capsys, "eval", doc)
    assert code == 0
    assert out == {"input": "csp", "mode": "fkt", "value": "0"}
    code, brute = run(capsys, "eval", doc, "--mode", "brute")
    assert brute["value"] == "0"


def test_eval_auto_falls_back_to_brute(capsys, tmp_path):
    doc = put(tmp_path, "c.json", {
        "vars": 2,
        "constraints": [{"sig": {"symmetric": [0, 1, 1]}, "on": [0, 1]}]})
    code, out = run(capsys, "eval", doc)
    assert code == 0
    assert out == {"input": "csp", "mode": "brute", "value": "3"}


def test_eval_rejects_out_of_family_modes(capsys, tmp_path):
    orr = put(tmp_path, "o.json", {
        "vars": 2,
        "constraints": [{"sig": {"symmetric": [0, 1, 1]}, "on": [0, 1]}]})
    code, out = run(capsys, "eval", orr, "--mode", "affine")
    assert code == 1
    assert out["error"] == {
        "kind": "domain",
        "message": "constraint on (0, 1) is outside the affine family: "
                   "support is not an affine subspace"}
    code, out = run(capsys, "eval", orr, "--mode", "product")
    assert code == 1
    assert out["error"] == {
        "kind": "domain",
        "message": "constraint on (0, 1) is outside the product family: "
                   "{'positions': (1, 2), 'reason': 'factor support is not "
                   "an antipodal pair', 'support': (1, 2, 3)}"}
    code, out = run(capsys, "eval", orr, "--mode", "fkt")
    assert code == 1
    assert out["error"] == {
        "kind": "domain",
        "message": "vertex 2: no built-in realization after the basis change"}


def test_eval_affine_mode_checks_every_constraint(capsys, tmp_path):
    zero = {"sig": [0, 0], "on": [0]}
    or3 = {"sig": {"symmetric": [0, 1, 1, 1]}, "on": [0, 1, 2]}
    for cons in ([zero, or3], [or3, zero]):
        doc = put(tmp_path, "c.json", {"vars": 3, "constraints": cons})
        code, out = run(capsys, "eval", doc, "--mode", "affine")
        assert code == 1
        assert out["error"] == {
            "kind": "domain",
            "message": "constraint on (0, 1, 2) is outside the affine "
                       "family: support is not an affine subspace"}


def test_eval_fkt_mode_rejects_a_non_planar_instance_grid(capsys, tmp_path):
    eq2 = {"symmetric": [1, 0, 1]}
    scopes = ([0, 1], [1, 2], [0, 2], [0, 1], [1, 2], [2, 0])
    doc = put(tmp_path, "c.json", {
        "vars": 3,
        "constraints": [{"sig": eq2, "on": on} for on in scopes]
        + [{"sig": {"symmetric": [0, 1, 1, 1]}, "on": [0, 1, 2]}]})
    code, out = run(capsys, "eval", doc, "--mode", "fkt")
    assert code == 1
    assert out["error"] == {
        "kind": "domain",
        "message": "instance grid is not planar as constructed"}
    code, out = run(capsys, "eval", doc)
    assert code == 0
    assert out == {"input": "csp", "mode": "brute", "value": "1"}


def test_eval_grid_fkt_and_brute_agree(capsys, tmp_path):
    f = equality(2)
    grid = SignatureGrid([(f, (0, 1)), (f, (1, 2)), (f, (2, 0))])
    doc = put(tmp_path, "g.json", grid_to_json(grid))
    code, out = run(capsys, "eval", doc)
    assert code == 0
    assert out == {"input": "grid", "mode": "fkt", "value": "2"}
    code, out = run(capsys, "eval", doc, "--mode", "brute")
    assert out["value"] == "2"
    for mode in ("product", "affine"):
        code, out = run(capsys, "eval", doc, "--mode", mode)
        assert code == 1
        assert out["error"] == {
            "kind": "domain",
            "message": f"mode {mode!r} applies to csp documents only"}


def test_eval_grid_without_realizations_goes_brute(capsys, tmp_path):
    orr = S([0, 1, 1])
    grid = SignatureGrid([(orr, (0, 1)), (orr, (1, 2)), (orr, (2, 0))])
    doc = put(tmp_path, "g.json", grid_to_json(grid))
    code, out = run(capsys, "eval", doc)
    assert code == 0
    assert out == {"input": "grid", "mode": "brute", "value": "4"}
    code, out = run(capsys, "eval", doc, "--mode", "fkt")
    assert code == 1
    assert out["error"] == {"kind": "domain",
                            "message": "vertex 0: no built-in realization"}


def test_eval_open_grid_is_a_domain_error(capsys, tmp_path):
    grid = SignatureGrid([(equality(3), (0, 1, 2))], dangling=(0, 1, 2))
    doc = put(tmp_path, "g.json", grid_to_json(grid))
    for mode in ("auto", "brute"):
        code, out = run(capsys, "eval", doc, "--mode", mode)
        assert code == 1
        assert out["error"] == {
            "kind": "domain",
            "message": "grid has dangling edges; use gate_signature"}
    code, out = run(capsys, "eval", doc, "--mode", "fkt")
    assert code == 1
    assert out["error"] == {"kind": "domain",
                            "message": "vertex 0: no built-in realization"}


# -- signature tools ----------------------------------------------------------------


def test_transform_sides(capsys, tmp_path):
    doc = put(tmp_path, "f.json", sig_doc([0, 1, 0]))
    code, out = run(capsys, "transform", doc, "--matrix", "H2")
    assert code == 0
    assert out["side"] == "direct"
    assert out["matrix"] == [["1", "1"], ["1", "-1"]]
    assert out["signatures"] == [{"arity": 2, "values": ["2", "0", "0", "-2"]}]

    code, out = run(capsys, "transform", doc, "--matrix", "H2",
                    "--side", "column")
    assert out["signatures"] == [{"arity": 2,
                                  "values": ["1/2", "0", "0", "-1/2"]}]


def test_transform_inline_matrix(capsys, tmp_path):
    doc = put(tmp_path, "f.json", {"signatures": [["0", "1"]]})
    code, out = run(capsys, "transform", doc,
                    "--matrix", '[[1, 0], [0, "i"]]')
    assert code == 0
    assert out["signatures"] == [{"arity": 1,
                                  "values": ["0", ["0", "0", "1", "0"]]}]


def test_transform_bad_matrix_is_a_parse_error(capsys, tmp_path):
    doc = put(tmp_path, "f.json", sig_doc([1, 0]))
    code, out = run(capsys, "transform", doc, "--matrix", "hadamard")
    assert code == 2
    assert out["error"]["kind"] == "parse"


def test_transform_singular_column_is_a_domain_error(capsys, tmp_path):
    doc = put(tmp_path, "f.json", sig_doc([1, 0]))
    code, out = run(capsys, "transform", doc,
                    "--matrix", "[[1, 1], [1, 1]]", "--side", "column")
    assert code == 1
    assert out["error"]["kind"] == "domain"


def test_gadget_reports_the_induced_signature(capsys, tmp_path):
    grid = SignatureGrid([(equality(3), (0, 1, 2))], dangling=(0, 1, 2))
    doc = put(tmp_path, "g.json", grid_to_json(grid))
    code, out = run(capsys, "gadget", doc)
    assert code == 0
    assert out["arity"] == 3
    assert out["signature"]["values"] == ["1", "0", "0", "0",
                                          "0", "0", "0", "1"]
    assert out["parity"] == "none"
    m = out["memberships"]
    assert m["affine"] and m["product"] and m["hadamard_matchgate"]
    assert not m["matchgate"] and not m["degenerate"]


def test_fkt_subcommand(capsys, tmp_path):
    k4 = PlanarGraph(
        4,
        [(0, 1, ONE), (0, 2, ONE), (0, 3, ONE),
         (1, 2, ONE), (1, 3, ONE), (2, 3, ONE)],
        [(0, 1, 2), (0, 4, 3), (1, 3, 5), (2, 5, 4)])
    doc = put(tmp_path, "g.json", graph_to_json(k4))
    code, out = run(capsys, "fkt", doc)
    assert code == 0
    assert out["value"] == "3"
    assert out["vertices"] == 4 and out["edges"] == 6
    assert out["connected"] is True
    assert len(out["orientation"]) == 6


def test_fkt_disconnected_graph_has_no_orientation(capsys, tmp_path):
    g = PlanarGraph(4, [(0, 1, ONE), (2, 3, ONE)],
                    [(0,), (0,), (1,), (1,)])
    doc = put(tmp_path, "g.json", graph_to_json(g))
    code, out = run(capsys, "fkt", doc)
    assert code == 0
    assert out["value"] == "1"
    assert out["connected"] is False
    assert "orientation" not in out


def test_fkt_orients_a_connected_graph_once(capsys, tmp_path, monkeypatch):
    import holant.cli
    import holant.fkt

    calls = []
    orient = holant.fkt.kasteleyn_orient

    def counting(g):
        calls.append(g)
        return orient(g)

    # count calls from wherever the command reaches the orientation
    for module in (holant.cli, holant.fkt):
        monkeypatch.setattr(module, "kasteleyn_orient", counting,
                            raising=False)
    cycle = PlanarGraph(4, [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE),
                            (3, 0, 2)],
                        [(3, 0), (0, 1), (1, 2), (2, 3)])
    doc = put(tmp_path, "g.json", graph_to_json(cycle))
    code, out = run(capsys, "fkt", doc)
    assert code == 0
    assert out["value"] == "3" and out["connected"] is True
    assert len(calls) == 1


def test_fkt_traces_the_faces_of_a_grid_once(capsys, tmp_path, monkeypatch):
    import holant._embedding
    import holant.fkt

    doc = put(tmp_path, "g.json", graph_to_json(grid_graph(4, 4)))
    calls = []
    trace = holant._embedding.trace_faces

    def counting(rotations):
        calls.append(rotations)
        return trace(rotations)

    for module in (holant._embedding, holant.fkt):
        monkeypatch.setattr(module, "trace_faces", counting)
    code, out = run(capsys, "fkt", doc)
    assert code == 0
    assert out["value"] == "36" and out["connected"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("vertices, value", [(0, "1"), (1, "0")])
def test_fkt_edgeless_connected_graph(capsys, tmp_path, vertices, value):
    g = PlanarGraph(vertices, [], [()] * vertices)
    doc = put(tmp_path, "g.json", graph_to_json(g))
    code, out = run(capsys, "fkt", doc)
    assert code == 0
    assert out == {"connected": True, "edges": 0, "orientation": [],
                   "value": value, "vertices": vertices}


# -- invariance ---------------------------------------------------------------------


def test_check_invariance_file_mode(capsys, tmp_path):
    grid = SignatureGrid([(equality(2), (0, 1)), (equality(2), (0, 1))],
                         sides=("left", "right"))
    doc = put(tmp_path, "g.json", grid_to_json(grid))
    code, out = run(capsys, "check-invariance", doc, "--matrix", "H2")
    assert code == 0
    assert out["before"] == "2"
    assert out["after"] == "2"
    assert out["equal"] is True


def test_check_invariance_seeded_mode(capsys):
    code, out = run(capsys, "check-invariance", "--seed", "0", "--count", "5")
    assert code == 0
    assert out["all_equal"] is True
    assert out["checked"] == 5
    assert out["seed"] == 0


def test_check_invariance_rejects_a_negative_count(capsys):
    code, out = run(capsys, "check-invariance", "--count", "-1")
    assert code == 2
    assert out["error"]["kind"] == "parse"
    assert out["error"]["path"] == "count"


# -- registries ---------------------------------------------------------------------


REGISTRY = {"signatures": {"xing": {"symmetric": [0, 1, 0]},
                           "eq2": {"symmetric": [1, 0, 1]}}}


def registry_files(tmp_path):
    reg_path = put(tmp_path, "reg.json", REGISTRY)
    pinned = registry_hash({"xing": exact_one(2), "eq2": equality(2)})
    doc_path = put(tmp_path, "doc.json",
                   {"registry_hash": pinned, "signatures": ["xing", "eq2"]})
    return reg_path, doc_path, pinned


def test_registry_pin_round_trip(capsys, tmp_path):
    reg_path, doc_path, pinned = registry_files(tmp_path)
    code, out = run(capsys, "classify", doc_path, "--registry", reg_path)
    assert code == 0
    assert out["registry_hash"] == pinned
    assert out["category"] == "PTime"


def test_registry_pin_without_registry_flag(capsys, tmp_path):
    _, doc_path, _ = registry_files(tmp_path)
    code, out = run(capsys, "classify", doc_path)
    assert code == 1
    assert "no --registry was given" in out["error"]["message"]


def test_registry_drift_is_detected(capsys, tmp_path):
    reg_path = put(tmp_path, "reg.json", REGISTRY)
    doc_path = put(tmp_path, "doc.json",
                   {"registry_hash": "0" * 64, "signatures": ["xing"]})
    code, out = run(capsys, "classify", doc_path, "--registry", reg_path)
    assert code == 1
    assert "registry drift" in out["error"]["message"]


def test_named_signature_without_registry_is_a_parse_error(capsys, tmp_path):
    doc_path = put(tmp_path, "doc.json", {"signatures": ["xing"]})
    code, out = run(capsys, "classify", doc_path)
    assert code == 2
    assert out["error"]["kind"] == "parse"


# -- plumbing -----------------------------------------------------------------------


def test_missing_file_is_a_parse_error(capsys, tmp_path):
    code, out = run(capsys, "classify", str(tmp_path / "absent.json"))
    assert code == 2
    assert out["error"]["kind"] == "parse"
    assert "no such file" in out["error"]["message"]


def test_malformed_json_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, out = run(capsys, "eval", str(path))
    assert code == 2
    assert out["error"]["kind"] == "parse"


@pytest.mark.parametrize("where", ["input", "registry"])
def test_a_directory_for_a_file_is_a_parse_error(capsys, tmp_path, where):
    doc = put(tmp_path, "s.json", sig_doc([1, 0, 1]))
    if where == "input":
        argv = ["classify", str(tmp_path)]
    else:
        argv = ["classify", doc, "--registry", str(tmp_path)]
    code, out = run(capsys, *argv)
    assert code == 2
    assert out["error"]["kind"] == "parse"
    assert out["error"]["message"].startswith(f"cannot read {tmp_path}: ")


def test_non_utf8_input_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"signatures": ["\xe9"]}'.encode("latin-1"))
    code, out = run(capsys, "classify", str(path))
    assert code == 2
    assert out == {"error": {
        "kind": "parse",
        "message": f"cannot read {path}: not UTF-8 (invalid continuation byte)"}}


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_prints_only_a_parse_error(capsys, tmp_path, where):
    doc = put(tmp_path, "s.json", sig_doc([1, 0, 1]))
    dest = tmp_path / "absent" / "x.json" if where == "missing directory" \
        else tmp_path
    code = main(["classify", doc, "--output", str(dest)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    # json.loads refuses a second document after the first
    out = json.loads(captured.out)
    assert out["error"]["kind"] == "parse"
    assert out["error"]["message"].startswith(f"cannot write {dest}: ")
    assert not (tmp_path / "absent").exists()


def test_schema_violations_carry_paths(capsys, tmp_path):
    doc = put(tmp_path, "c.json", {"vars": 2})
    code, out = run(capsys, "eval", doc)
    assert code == 2
    assert out["error"]["path"] == "csp"

    doc = put(tmp_path, "l.json", [1, 2])
    code, out = run(capsys, "eval", doc)
    assert code == 2


def test_negative_csp_variable_count_is_a_parse_error(capsys, tmp_path):
    doc = put(tmp_path, "c.json", {"vars": -1, "constraints": []})
    code, out = run(capsys, "eval", doc)
    assert code == 2
    assert out["error"] == {"kind": "parse", "path": "csp.vars",
                            "message": "expected a non-negative count, got -1"}


def test_negative_graph_vertex_count_is_a_parse_error(capsys, tmp_path):
    doc = put(tmp_path, "g.json", {"vertices": -2, "edges": [], "rotation": []})
    code, out = run(capsys, "fkt", doc)
    assert code == 2
    assert out["error"] == {"kind": "parse", "path": "graph.vertices",
                            "message": "expected a non-negative count, got -2"}


def test_zero_denominator_is_a_parse_error_naming_the_literal(capsys,
                                                            tmp_path):
    doc = put(tmp_path, "f.json", {"signatures": [{"symmetric": ["1/0", 1]}]})
    code, out = run(capsys, "classify", doc)
    assert code == 2
    assert out["error"] == {"kind": "parse", "path": "signatures[0].symmetric[0]",
                            "message": "zero denominator in '1/0'"}


def test_output_flag_duplicates_stdout(capsys, tmp_path):
    doc = put(tmp_path, "f.json", sig_doc([1, 0, 1]))
    dest = tmp_path / "result.json"
    code = main(["classify", doc, "--output", str(dest)])
    printed = capsys.readouterr().out
    assert code == 0
    assert dest.read_text() == printed


def test_output_is_deterministic_and_key_sorted(capsys, tmp_path):
    doc = put(tmp_path, "f.json", sig_doc([0, 1, 1, 1]))
    main(["classify", doc])
    first = capsys.readouterr().out
    main(["classify", doc])
    second = capsys.readouterr().out
    assert first == second
    assert first.strip() == json.dumps(json.loads(first), sort_keys=True)


def test_a_run_without_a_registry_leaves_hashlib_unloaded(tmp_path):
    doc = put(tmp_path, "f.json", sig_doc([1, 0, 1]))
    code = ("import sys; from holant.cli import main; "
            f"main(['classify', {doc!r}]); "
            "assert 'hashlib' not in sys.modules, 'hashlib was imported'")
    # -S: no site hooks, which may import hashlib themselves
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["category"] == "PTime"


def test_module_invocation_matches_in_process_output(capsys, tmp_path):
    doc = put(tmp_path, "f.json", sig_doc([4, 2, 0, -2, -4]))
    main(["classify", doc])
    in_process = capsys.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-m", "holant.cli", "classify", doc],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == in_process
