"""JSON forms for every value the command line reads or writes.

Parsing is schema-checked: a document of the wrong shape raises
:class:`SchemaError` carrying a dotted path to the offending field.
Serialization is canonical, so equal values always produce equal bytes;
the command line leans on that for reproducible output, and the registry
hash leans on it to detect drift between files.

Field-level problems (a malformed scalar, a list where an object belongs)
are schema errors.  Constraints that only a fully assembled object can
check, such as a vertex whose arity disagrees with its degree, surface as
the domain ValueError of the object's own constructor.
"""

from __future__ import annotations

import json

from .dichotomy import DichotomyVerdict
from .fkt import PlanarGraph
from .grids import CspInstance, SignatureGrid
from .scalar import Scalar, parse_scalar, scalar_to_json
from .signatures import Signature
from .transforms import DIAG_I, DIAG_ZETA8, H2, Transform2x2

NAMED_TRANSFORMS = {
    "H2": H2,
    "diag(1,i)": DIAG_I,
    "diag(1,zeta8)": DIAG_ZETA8,
}


class SchemaError(ValueError):
    """A JSON document that does not match the expected shape."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _expect(obj, types, path, what):
    if not isinstance(obj, types):
        raise SchemaError(path, f"expected {what}, got {type(obj).__name__}")
    return obj


def _expect_int(obj, path):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(path, f"expected an integer, got {obj!r}")
    return obj


def _expect_count(obj, path):
    if _expect_int(obj, path) < 0:
        raise SchemaError(path, f"expected a non-negative count, got {obj}")
    return obj


# -- scalars and signatures ------------------------------------------------------


def parse_scalar_field(obj, path):
    if isinstance(obj, bool):
        raise SchemaError(path, "booleans are not scalars")
    if isinstance(obj, int):
        return Scalar.from_int(obj)
    try:
        return parse_scalar(obj)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise SchemaError(path, str(e)) from None


def signature_to_json(f: Signature) -> dict:
    return {"arity": f.arity, "values": [scalar_to_json(v) for v in f.values]}


def parse_signature(obj, path="signature", registry=None) -> Signature:
    """Signature from JSON: a values object, a symmetric object, a bare
    value list, or a registry name."""
    if isinstance(obj, str):
        if registry is None:
            raise SchemaError(path, f"named signature {obj!r} needs a registry")
        if obj not in registry:
            raise SchemaError(path, f"unknown signature name {obj!r}")
        return registry[obj]
    key, where, raw = None, path, obj  # a bare value list
    if not isinstance(obj, list):
        _expect(obj, dict, path, "a signature object")
        key = "symmetric" if "symmetric" in obj else "values"
        if key not in obj:
            raise SchemaError(path, "needs 'values' or 'symmetric'")
        where = f"{path}.{key}"
        raw = _expect(obj[key], list, where, "a list")
    values = [parse_scalar_field(v, f"{where}[{k}]")
              for k, v in enumerate(raw)]
    build = Signature.from_symmetric if key == "symmetric" else Signature
    try:
        f = build(values)
    except ValueError as e:
        raise SchemaError(where, str(e)) from None
    if key == "values" and "arity" in obj and \
            _expect_int(obj["arity"], f"{path}.arity") != f.arity:
        raise SchemaError(f"{path}.arity",
                          f"states {obj['arity']} but values give {f.arity}")
    return f


def _parse_shared(sigs, obj, path, registry):
    """parse_signature(obj), once per distinct JSON value in one document.

    `sigs` maps repr(obj) to the Signature parsed from it.  repr is
    injective on decoded JSON, unlike ==, which would take [1, 0, true]
    or [1.0, 0, 0, 1] for a valid value list seen earlier.
    """
    key = repr(obj)
    sig = sigs.get(key)
    if sig is None:
        sig = sigs[key] = parse_signature(obj, path, registry)
    return sig


# -- grids -----------------------------------------------------------------------


def _edge_id_to_json(e, path):
    if isinstance(e, bool):
        raise SchemaError(path, "booleans cannot name edges")
    if isinstance(e, (int, str)):
        return e
    if isinstance(e, tuple):
        return [_edge_id_to_json(p, path) for p in e]
    raise SchemaError(path, f"edge id {e!r} has no JSON form")


def _edge_id_from_json(e, path):
    if isinstance(e, bool):
        raise SchemaError(path, "booleans cannot name edges")
    if isinstance(e, (int, str)):
        return e
    if isinstance(e, list):
        try:
            return tuple(_edge_id_from_json(p, path) for p in e)
        except RecursionError:
            raise SchemaError(path, "edge id nested too deeply") from None
    raise SchemaError(path, f"expected an edge id, got {e!r}")


def grid_to_json(grid: SignatureGrid) -> dict:
    out = {
        "vertices": [
            {"sig": signature_to_json(v.signature),
             "edges": [_edge_id_to_json(e, "edges") for e in v.edges]}
            for v in grid.vertices
        ],
        "dangling": [_edge_id_to_json(e, "dangling") for e in grid.dangling],
    }
    if grid.sides is not None:
        out["sides"] = list(grid.sides)
    return out


def parse_grid(obj, path="grid", registry=None) -> SignatureGrid:
    """Grid from JSON; vertices with equal `sig` values share one
    Signature, parsed once."""
    _expect(obj, dict, path, "a grid object")
    if "vertices" not in obj:
        raise SchemaError(path, "needs 'vertices'")
    raw = _expect(obj["vertices"], list, f"{path}.vertices", "a list")
    vertices = []
    sigs = {}
    for k, entry in enumerate(raw):
        vp = f"{path}.vertices[{k}]"
        _expect(entry, dict, vp, "a vertex object")
        if "sig" not in entry or "edges" not in entry:
            raise SchemaError(vp, "needs 'sig' and 'edges'")
        sig = _parse_shared(sigs, entry["sig"], f"{vp}.sig", registry)
        edges = _expect(entry["edges"], list, f"{vp}.edges", "a list")
        vertices.append(
            (sig, tuple(_edge_id_from_json(e, f"{vp}.edges[{j}]")
                        for j, e in enumerate(edges))))
    dangling = tuple(
        _edge_id_from_json(e, f"{path}.dangling[{j}]")
        for j, e in enumerate(_expect(obj.get("dangling", []), list,
                                      f"{path}.dangling", "a list")))
    sides = obj.get("sides")
    if sides is not None:
        sides = _expect(sides, list, f"{path}.sides", "a list")
    return SignatureGrid(vertices, dangling, sides)


# -- counting CSP instances --------------------------------------------------------


def csp_to_json(inst: CspInstance) -> dict:
    return {
        "vars": inst.num_vars,
        "constraints": [
            {"sig": signature_to_json(sig), "on": list(on)}
            for sig, on in inst.constraints
        ],
    }


def parse_csp(obj, path="csp", registry=None) -> CspInstance:
    """CSP instance from JSON; constraints with equal `sig` values share
    one Signature, parsed once."""
    _expect(obj, dict, path, "a csp object")
    if "vars" not in obj or "constraints" not in obj:
        raise SchemaError(path, "needs 'vars' and 'constraints'")
    n = _expect_count(obj["vars"], f"{path}.vars")
    raw = _expect(obj["constraints"], list, f"{path}.constraints", "a list")
    cons = []
    sigs = {}
    for k, entry in enumerate(raw):
        cp = f"{path}.constraints[{k}]"
        _expect(entry, dict, cp, "a constraint object")
        if "sig" not in entry or "on" not in entry:
            raise SchemaError(cp, "needs 'sig' and 'on'")
        sig = _parse_shared(sigs, entry["sig"], f"{cp}.sig", registry)
        on = _expect(entry["on"], list, f"{cp}.on", "a list")
        if not all(v.__class__ is int for v in on):  # find the bad one
            for j, v in enumerate(on):
                _expect_int(v, f"{cp}.on[{j}]")
        cons.append((sig, tuple(on)))
    return CspInstance(n, tuple(cons))


# -- embedded graphs ---------------------------------------------------------------


def graph_to_json(g: PlanarGraph) -> dict:
    return {
        "vertices": g.num_vertices,
        "edges": [{"u": u, "v": v, "w": scalar_to_json(w)}
                  for u, v, w in g.edges],
        "rotation": [list(r) for r in g.rotation],
    }


def _plain_edge(entry):
    """(u, v, w) of an edge object with integer ends and a well-formed
    weight, or None for parse_graph's checked path; builds no JSON path."""
    if entry.__class__ is not dict:
        return None
    u, v, w = entry.get("u"), entry.get("v"), entry.get("w")
    if u.__class__ is not int or v.__class__ is not int:
        return None
    if w.__class__ is int:
        return u, v, Scalar.from_int(w)
    if w.__class__ is str or w.__class__ is list:
        try:
            return u, v, parse_scalar(w)
        except (ValueError, TypeError, ZeroDivisionError):
            return None
    return None


def parse_graph(obj, path="graph") -> PlanarGraph:
    """A PlanarGraph from JSON.  Plain edges and rotations are read
    without building the JSON path of each field; anything else takes
    the checked path, which names the offending field."""
    _expect(obj, dict, path, "a graph object")
    for key in ("vertices", "edges", "rotation"):
        if key not in obj:
            raise SchemaError(path, f"needs '{key}'")
    n = _expect_count(obj["vertices"], f"{path}.vertices")
    raw = _expect(obj["edges"], list, f"{path}.edges", "a list")
    edges = []
    for k, entry in enumerate(raw):
        edge = _plain_edge(entry)
        if edge is None:
            ep = f"{path}.edges[{k}]"
            _expect(entry, dict, ep, "an edge object")
            for key in ("u", "v", "w"):
                if key not in entry:
                    raise SchemaError(ep, f"needs '{key}'")
            edge = (_expect_int(entry["u"], f"{ep}.u"),
                    _expect_int(entry["v"], f"{ep}.v"),
                    parse_scalar_field(entry["w"], f"{ep}.w"))
        edges.append(edge)
    rot_raw = _expect(obj["rotation"], list, f"{path}.rotation", "a list")
    rotation = []
    for k, r in enumerate(rot_raw):
        if r.__class__ is list and all(t.__class__ is int for t in r):
            rotation.append(tuple(r))
            continue
        rotation.append(tuple(
            _expect_int(t, f"{path}.rotation[{k}][{j}]")
            for j, t in enumerate(_expect(r, list, f"{path}.rotation[{k}]",
                                          "a list"))))
    return PlanarGraph(n, edges, rotation)


# -- transforms ---------------------------------------------------------------------


def transform_to_json(t: Transform2x2) -> list:
    return [[scalar_to_json(t.a), scalar_to_json(t.b)],
            [scalar_to_json(t.c), scalar_to_json(t.d)]]


def parse_transform(obj, path="matrix") -> Transform2x2:
    if isinstance(obj, str):
        if obj not in NAMED_TRANSFORMS:
            known = ", ".join(sorted(NAMED_TRANSFORMS))
            raise SchemaError(path, f"unknown transform {obj!r} (known: {known})")
        return NAMED_TRANSFORMS[obj]
    _expect(obj, list, path, "a 2x2 matrix")
    if len(obj) != 2 or any(not isinstance(r, list) or len(r) != 2
                            for r in obj):
        raise SchemaError(path, "expected two rows of two entries")
    (a, b), (c, d) = obj
    return Transform2x2(parse_scalar_field(a, f"{path}[0][0]"),
                        parse_scalar_field(b, f"{path}[0][1]"),
                        parse_scalar_field(c, f"{path}[1][0]"),
                        parse_scalar_field(d, f"{path}[1][1]"))


# -- verdicts -------------------------------------------------------------------------


def _plain(x):
    """Witness payloads reduced to JSON-safe values."""
    if isinstance(x, Scalar):
        return scalar_to_json(x)
    if isinstance(x, Signature):
        return signature_to_json(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (frozenset, set)):
        return sorted((_plain(v) for v in x), key=repr)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return str(x)


def verdict_to_json(v: DichotomyVerdict) -> dict:
    return {
        "category": v.category,
        "containments": list(v.containments),
        "witnesses": {name: _plain(w) for name, w in v.witnesses.items()},
    }


def parse_verdict(obj, path="verdict") -> DichotomyVerdict:
    """Rebuild a verdict; witness signatures become Signatures again, the
    failure details stay in their JSON form."""
    _expect(obj, dict, path, "a verdict object")
    for key in ("category", "containments", "witnesses"):
        if key not in obj:
            raise SchemaError(path, f"needs '{key}'")
    witnesses = {}
    raw = _expect(obj["witnesses"], dict, f"{path}.witnesses", "an object")
    for name, w in raw.items():
        wp = f"{path}.witnesses.{name}"
        _expect(w, dict, wp, "a witness object")
        entry = dict(w)
        if "signature" in entry:
            entry["signature"] = parse_signature(entry["signature"],
                                                 f"{wp}.signature")
        witnesses[name] = entry
    return DichotomyVerdict(
        _expect(obj["category"], str, f"{path}.category", "a string"),
        tuple(_expect(obj["containments"], list, f"{path}.containments",
                      "a list")),
        witnesses)


# -- named-signature registries --------------------------------------------------------


def parse_registry(obj, path="registry") -> dict:
    _expect(obj, dict, path, "a registry object")
    if "signatures" not in obj:
        raise SchemaError(path, "needs 'signatures'")
    raw = _expect(obj["signatures"], dict, f"{path}.signatures", "an object")
    return {name: parse_signature(sig, f"{path}.signatures.{name}")
            for name, sig in raw.items()}


def registry_hash(registry: dict) -> str:
    """Hash of the canonical registry content, for pinning in other files."""
    # imported here: hashlib loads the OpenSSL library, about 3.7 MB of
    # resident memory that a run without a registry never needs
    import hashlib

    content = {name: signature_to_json(f) for name, f in registry.items()}
    return hashlib.sha256(canonical_json(content).encode()).hexdigest()
