"""Metamorphic checks of `holant eval` on csp documents.

Permuting the constraints of a csp and relabelling its variables keeps
its value, and the evaluators read each distinct signature once, at its
first occurrence.  So every mode must print the same document for the
rewritten csp as for the original, up to the order-dependent outputs
named in `_order_free`.  The documents repeat a few signatures under
several JSON spellings.
"""

import json
import random

import pytest

from _util import SMALL_POOL, rand_affine_signature, rand_product_signature
from holant.cli import main
from holant.fkt import builtin_fragment
from holant.grids import brute_force_csp
from holant.scalar import scalar_to_json
from holant.serialize import parse_csp, signature_to_json
from holant.signatures import Signature
from holant.transforms import H2, transform

MODES = ("auto", "product", "affine", "brute", "fkt")
NONZERO = tuple(v for v in SMALL_POOL if v)

#: OR on three variables: outside both families and, after the basis
#: change, without a built-in realization, so a part holding it is
#: brute-forced in auto mode.
OR3 = Signature.from_symmetric([0, 1, 1, 1])
ZERO_UNARY = Signature([0, 0])


def _spell(rng, f):
    """One JSON spelling of f, so a signature repeats under one key and
    under several."""
    values = [scalar_to_json(v) for v in f.values]
    forms = [values, {"values": values}, signature_to_json(f)]
    sym = f.symmetric_entries()
    if sym is not None:
        forms.append({"symmetric": [scalar_to_json(v) for v in sym]})
    return rng.choice(forms)


def _block(rng, sig_fn, base, size, count):
    """`count` constraints over variables base..base+size-1 drawn from a
    pool of three signatures; a scope repeats a variable now and then."""
    pool = [sig_fn(rng, k) for k in (1, 2, 3)]
    cons = []
    for _ in range(count):
        f = rng.choice(pool)
        on = rng.sample(range(base, base + size), f.arity)
        if f.arity > 1 and rng.random() < 0.1:
            on[-1] = on[0]
        cons.append((f, on))
    return cons


def _nonzero_product(rng, arity):
    return rand_product_signature(rng, arity, NONZERO)


def _document(rng, kind):
    """A csp document of one family, or of a product, an affine and an
    OR part side by side.  One more variable is unread, or, in about
    every other mixed document, read by the zero unary [0, 0]."""
    if kind == "product":
        cons = _block(rng, _nonzero_product, 0, 10, 10)
    elif kind == "affine":
        cons = _block(rng, rand_affine_signature, 0, 10, 10)
    else:
        cons = (_block(rng, _nonzero_product, 0, 4, 6)
                + _block(rng, rand_affine_signature, 4, 4, 6)
                + [(OR3, [8, 9, 10]), (OR3, [9, 10, 11])])
    n = 1 + max(v for _, on in cons for v in on) + 1
    if kind == "mixed" and rng.random() < 0.5:
        cons.append((ZERO_UNARY, [n - 1]))
    return {"vars": n, "constraints": [{"sig": _spell(rng, f), "on": on}
                                       for f, on in cons]}


def _rewrite(rng, doc):
    """doc with its constraints permuted and its variables relabelled."""
    names = rng.sample(range(doc["vars"]), doc["vars"])
    cons = [{"sig": c["sig"], "on": [names[v] for v in c["on"]]}
            for c in doc["constraints"]]
    rng.shuffle(cons)
    return {"vars": doc["vars"], "constraints": cons}


def _eval(capsys, tmp_path, doc, mode):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["eval", "--mode", mode, str(path)])
    return code, json.loads(capsys.readouterr().out)


def _order_free(mode, code, out):
    """The part of an eval result that may not depend on input order.

    - A forced product or affine mode that does not apply names the
      first constraint outside the family, by its scope, and that
      constraint's witness: both follow the order.
    - The FKT route wires the instance grid in occurrence order, so
      whether that rotation system is planar, and the first vertex
      without a realization, follow the order; only an answered value
      is pinned.
    """
    if code != 0 and mode in ("product", "affine", "fkt"):
        return code, out["error"]["kind"]
    return code, out


def test_the_mixed_parts_leave_the_fkt_route():
    assert builtin_fragment(transform(OR3, H2, "column")) is None


@pytest.mark.parametrize("kind", ("product", "affine", "mixed"))
def test_eval_ignores_constraint_order_and_variable_names(capsys, tmp_path,
                                                         kind):
    rng = random.Random(f"metamorphic:{kind}")
    answered = {mode: 0 for mode in MODES}
    zero_valued = set()
    for _ in range(6):
        doc = _document(rng, kind)
        zero_valued.add(not brute_force_csp(parse_csp(doc)))
        for _ in range(2):
            other = _rewrite(rng, doc)
            for mode in MODES:
                want = _eval(capsys, tmp_path, doc, mode)
                got = _eval(capsys, tmp_path, other, mode)
                assert (_order_free(mode, *got)
                        == _order_free(mode, *want)), (mode, doc)
                answered[mode] += want[0] == 0
    # the family's own evaluator and brute force answer every document
    assert answered["brute"] == 12
    if kind != "mixed":
        assert answered[kind] == answered["auto"] == 12
    else:
        # the mixed draws hold zero-valued documents and nonzero ones
        assert zero_valued == {True, False}
