"""Command-line front end for the signature calculus.

Eight subcommands cover the package's workflows: `classify`,
`classify-csp`, and `classify-csp2` run the complexity classifiers on a
signature set; `eval` computes the value of a counting-CSP or grid
document, picking an evaluator automatically unless told otherwise;
`transform` applies a basis change to signatures; `gadget` reports the
signature an open grid induces together with its family memberships;
`fkt` computes a weighted perfect-matching sum; `check-invariance`
verifies that a basis change leaves a two-sided grid's value unchanged.

Every result is a single JSON document on standard output, with sorted
keys, so identical invocations produce identical bytes.  Exit status: 0 on
success (a hardness verdict is still success), 1 when the input is
structurally fine but violates a domain rule, 2 when a file is missing,
unreadable, malformed, or out of schema, or when --output cannot be
written.  Error results carry
{"error": {"kind": "domain" | "parse", ...}}.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import dichotomy
from .classes import class_report
from .dichotomy import MODES, evaluate
from .fkt import _count_and_orientation
from .grids import SignatureGrid, gate_signature
from .scalar import MINUS_ONE, ONE, ZERO, I, Scalar, scalar_to_json
from .serialize import NAMED_TRANSFORMS, SchemaError, _expect_count, \
    parse_csp, parse_grid, parse_graph, parse_registry, parse_signature, \
    parse_transform, registry_hash, signature_to_json, transform_to_json, \
    verdict_to_json
from .signatures import Signature
from .transforms import apply_matrix, check_holant_invariance, transform


class _FileError(Exception):
    """An input file that is missing, unreadable, not UTF-8 text, holds
    an integer literal longer than int() accepts, or nests deeper than
    the JSON decoder can recurse."""


def _load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _FileError(f"no such file: {path}") from None
    except OSError as e:
        raise _FileError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise _FileError(f"cannot read {path}: not UTF-8 ({e.reason})") from None
    except json.JSONDecodeError:
        raise
    except ValueError as e:  # an integer literal past int's digit limit
        raise _FileError(f"cannot read {path}: {e}") from None
    except RecursionError:
        raise _FileError(
            f"cannot read {path}: JSON nested too deeply") from None


def _load_input(args):
    """The input document, the --registry table (or None) and its content
    hash (or None); a registry hash pinned in the document must match."""
    registry = reg_hash = None
    if args.registry is not None:
        registry = parse_registry(_load_document(args.registry))
        reg_hash = registry_hash(registry)
    doc = _load_document(args.input)
    if isinstance(doc, dict) and "registry_hash" in doc:
        if reg_hash is None:
            raise ValueError(
                "document pins a registry hash but no --registry was given")
        if doc["registry_hash"] != reg_hash:
            raise ValueError(
                f"registry drift: document pins {doc['registry_hash']} "
                f"but the registry hashes to {reg_hash}")
    return doc, registry, reg_hash


def _signature_list(doc, registry):
    if isinstance(doc, dict):
        if "signatures" not in doc:
            raise SchemaError("", "needs 'signatures'")
        doc = doc["signatures"]
    if not isinstance(doc, list):
        raise SchemaError("signatures", "expected a list of signatures")
    return [parse_signature(s, f"signatures[{k}]", registry)
            for k, s in enumerate(doc)]


def _classify_with(classifier, args):
    """Run the `dichotomy` function named `classifier` on the input.  The
    name is looked up at each call, not bound in the cached parser, so a
    wrapper set on the module later (perfbench's tracer) sees the call."""
    doc, registry, reg_hash = _load_input(args)
    classify = getattr(dichotomy, classifier)
    out = verdict_to_json(classify(_signature_list(doc, registry)))
    if reg_hash is not None:
        out["registry_hash"] = reg_hash
    return out


# -- evaluation -------------------------------------------------------------------


def cmd_eval(args):
    doc, registry, _ = _load_input(args)
    if not isinstance(doc, dict):
        raise SchemaError("", "expected a csp or grid object")
    if "vars" in doc:
        kind, problem = "csp", parse_csp(doc, "csp", registry)
    elif "vertices" in doc:
        kind, problem = "grid", parse_grid(doc, "grid", registry)
    else:
        raise SchemaError("", "expected 'vars' (csp) or 'vertices' (grid)")
    mode, value = evaluate(problem, args.mode)
    return {"input": kind, "mode": mode, "value": scalar_to_json(value)}


# -- signature tools ----------------------------------------------------------------


def cmd_transform(args):
    doc, registry, _ = _load_input(args)
    t = _matrix_argument(args.matrix)
    sigs = _signature_list(doc, registry)
    if args.side == "direct":
        out = [apply_matrix(f, t) for f in sigs]
    else:
        out = [transform(f, t, args.side) for f in sigs]
    return {
        "matrix": transform_to_json(t),
        "side": args.side,
        "signatures": [signature_to_json(f) for f in out],
    }


def cmd_gadget(args):
    doc, registry, _ = _load_input(args)
    grid = parse_grid(doc, "grid", registry)
    f = gate_signature(grid)
    report = class_report(f)
    return {
        "arity": f.arity,
        "signature": signature_to_json(f),
        "parity": report.parity,
        "memberships": report.memberships(),
    }


def cmd_fkt(args):
    g = parse_graph(_load_document(args.input))
    value, orientation = _count_and_orientation(g)
    out = {
        "vertices": g.num_vertices,
        "edges": len(g.edges),
        "value": scalar_to_json(value),
        "connected": orientation is not None,
    }
    if orientation is not None:
        out["orientation"] = list(orientation)
    return out


# -- invariance checking --------------------------------------------------------------


_SEED_POOL = (ZERO, ONE, MINUS_ONE, I, Scalar.from_int(2))


def _seeded_bipartite_grid(rng: random.Random) -> SignatureGrid:
    """Small random two-sided grid: a tree with every edge subdivided."""
    n = rng.randint(2, 5)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    incident = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        incident[u].append(2 * e)
        incident[v].append(2 * e + 1)

    def rand_sig(k):
        return Signature([rng.choice(_SEED_POOL) for _ in range(1 << k)])

    vertices = [(rand_sig(len(halves)), tuple(halves))
                for halves in incident]
    sides = ["left"] * n
    for e in range(len(edges)):
        vertices.append((rand_sig(2), (2 * e, 2 * e + 1)))
        sides.append("right")
    return SignatureGrid(vertices, sides=sides)


def cmd_check_invariance(args):
    t = _matrix_argument(args.matrix)
    if args.input is not None:
        doc, registry, _ = _load_input(args)
        grid = parse_grid(doc, "grid", registry)
        before, after, equal = check_holant_invariance(grid, t)
        return {
            "matrix": transform_to_json(t),
            "before": scalar_to_json(before),
            "after": scalar_to_json(after),
            "equal": equal,
        }
    _expect_count(args.count, "count")
    rng = random.Random(args.seed)
    equal = True
    for _ in range(args.count):
        grid = _seeded_bipartite_grid(rng)
        equal = equal and check_holant_invariance(grid, t)[2]
    return {
        "matrix": transform_to_json(t),
        "seed": args.seed,
        "checked": args.count,
        "all_equal": equal,
    }


# -- plumbing --------------------------------------------------------------------------


def _matrix_argument(text: str):
    if text in NAMED_TRANSFORMS:
        return parse_transform(text)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        # a syntax error, an integer past the digit limit, or nesting past
        # the decoder's recursion limit; a long text is echoed in part
        shown = repr(text[:60]) + ("..." if len(text) > 60 else "")
        raise SchemaError(
            "matrix", f"{shown} is neither a known transform name "
            "nor a JSON matrix") from None
    return parse_transform(obj)


def _add_registry(sub):
    sub.add_argument("--registry", metavar="FILE",
                     help="named-signature registry file")


def _add_output(sub):
    sub.add_argument("--output", metavar="FILE",
                     help="also write the result JSON to this file")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holant",
        description="exact classification and evaluation of planar "
                    "counting problems")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    for name, classifier, blurb in (
            ("classify", "classify_pl_csp",
             "three-way planar classification of a signature set"),
            ("classify-csp", "classify_csp",
             "two-way classification without the planarity restriction"),
            ("classify-csp2", "classify_pl_csp2_symmetric",
             "five-family classification for even variable occurrence")):
        sub = subs.add_parser(name, help=blurb)
        sub.add_argument("input", help="JSON file with the signature set")
        _add_registry(sub)
        _add_output(sub)
        sub.set_defaults(
            handler=functools.partial(_classify_with, classifier))

    sub = subs.add_parser("eval", help="value of a csp or grid document")
    sub.add_argument("input", help="JSON csp or grid file")
    sub.add_argument("--mode", default="auto", choices=MODES)
    _add_registry(sub)
    _add_output(sub)
    sub.set_defaults(handler=cmd_eval)

    sub = subs.add_parser("transform", help="apply a basis change")
    sub.add_argument("input", help="JSON file with signatures")
    sub.add_argument("--matrix", required=True,
                     help="H2, diag(1,i), diag(1,zeta8), or a JSON matrix")
    sub.add_argument("--side", default="direct",
                     choices=("direct", "row", "column"))
    _add_registry(sub)
    _add_output(sub)
    sub.set_defaults(handler=cmd_transform)

    sub = subs.add_parser("gadget",
                          help="signature induced by an open grid")
    sub.add_argument("input", help="JSON grid file with dangling edges")
    _add_registry(sub)
    _add_output(sub)
    sub.set_defaults(handler=cmd_gadget)

    sub = subs.add_parser("fkt", help="weighted perfect-matching sum")
    sub.add_argument("input", help="JSON embedded-graph file")
    _add_output(sub)
    sub.set_defaults(handler=cmd_fkt)

    sub = subs.add_parser("check-invariance",
                          help="holant value before and after a basis change")
    sub.add_argument("input", nargs="?",
                     help="JSON grid file with side labels; omit to run "
                          "seeded random checks")
    sub.add_argument("--matrix", default="H2",
                     help="H2, diag(1,i), diag(1,zeta8), or a JSON matrix")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for the random checks")
    sub.add_argument("--count", type=int, default=20,
                     help="number of random grids to check")
    _add_registry(sub)
    _add_output(sub)
    sub.set_defaults(handler=cmd_check_invariance)

    return parser


def _run(args):
    """The result document of the command and its exit status."""
    try:
        return args.handler(args), 0
    except SchemaError as e:
        return {"error": {"kind": "parse", "path": e.path,
                          "message": e.message}}, 2
    except (_FileError, json.JSONDecodeError) as e:
        return {"error": {"kind": "parse", "message": str(e)}}, 2
    except (ValueError, ZeroDivisionError) as e:
        return {"error": {"kind": "domain", "message": str(e)}}, 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    result, code = _run(args)
    text = json.dumps(result, sort_keys=True)
    output = getattr(args, "output", None)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            # one document per run: the unwritten result is not printed
            text = json.dumps({"error": {
                "kind": "parse",
                "message": f"cannot write {output}: {e.strerror}"}},
                sort_keys=True)
            code = 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
