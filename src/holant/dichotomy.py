"""Complexity classification of counting CSPs by signature-set containment.

A finite signature set defines a counting problem: sum over all variable
assignments the product of the constraint values.  Its complexity is decided
entirely by which tractable families contain every member of the set.  The
classifiers here run the per-signature membership tests from
:mod:`holant.classes`, collect every family that holds jointly, and translate
the outcome into a verdict:

* :func:`classify_pl_csp` for planar instances, with three possible verdicts
  (the Hadamard-matchgate family is tractable only under planarity),
* :func:`classify_csp` for unrestricted instances (two verdicts),
* :func:`classify_pl_csp2_symmetric` for planar instances in which every
  variable appears an even number of times, where two extra twisted families
  become tractable and the test is defined for symmetric signatures only.

All verdicts carry the full list of holding containments plus, for every
family that failed, the first failing signature and what broke.  That makes a
"hard" verdict auditable and lets callers pick an evaluator when several
tractable families apply.  Hardness itself is not certified constructively;
the label records that no tractable containment holds.

:func:`evaluate` is the planner built on those verdicts: it computes the
value of a #CSP or a signature grid by the strategy the classification
promises.
"""

from __future__ import annotations

import functools

from ._embedding import component_roots
from ._record import Record
from .classes import (
    is_affine,
    is_hadamard_matchgate,
    is_product,
    is_twisted_affine,
    is_twisted_hadamard_matchgate,
)
from .fkt import builtin_fragment, evaluate_matchgate_grid
from .grids import VAR_CAP, CspInstance, brute_force_csp, brute_force_holant, \
    csp_to_grid, eval_affine_csp, eval_product_csp
from .scalar import ONE
from .signatures import Signature
from .transforms import H2, transform

PTIME = "PTime"
PLANAR_PTIME_ONLY = "PlanarPTimeOnly"
SHARP_P_HARD = "SharpPHard"
_COST = ("product", "affine", "fkt", "brute")  # evaluators, cheapest first

_FAMILY_TESTS = {
    "affine": is_affine,
    "product": is_product,
    "hadamard_matchgate": is_hadamard_matchgate,
    "twisted_affine": is_twisted_affine,
    "twisted_hadamard_matchgate": is_twisted_hadamard_matchgate,
}


class DichotomyVerdict(Record):
    """Outcome of a classification run.

    ``category`` is one of ``"PTime"``, ``"PlanarPTimeOnly"`` or
    ``"SharpPHard"``.  ``containments`` lists every tested family that
    contains the whole input set.  ``witnesses`` maps each failed family to
    the first counterexample: the signature, its position in the input, and
    the failure detail reported by the membership test.
    """

    __slots__ = ("category", "containments", "witnesses")

    def __init__(self, category: str, containments: tuple[str, ...],
                 witnesses: dict | None = None):
        self._init(category, containments,
                   {} if witnesses is None else witnesses)

    def holds(self, family: str) -> bool:
        return family in self.containments


def _as_signatures(collection) -> tuple[Signature, ...]:
    sigs = tuple(collection)
    for i, f in enumerate(sigs):
        if not isinstance(f, Signature):
            raise TypeError(f"entry {i} is not a Signature")
    return sigs


def _failure_detail(analysis) -> dict:
    detail = {}
    reason = getattr(analysis, "reason", None)
    if reason is not None:
        detail["reason"] = reason
    witness = getattr(analysis, "witness", None)
    if witness is not None:
        detail["witness"] = witness
    if not detail:
        # twisted tests report bare failures: every admissible twist was tried
        detail["reason"] = "no admissible twist works"
    return detail


def _joint_containments(sigs, families):
    """Test each family against every signature.

    Returns the holding family names (in the order given) and a witness map
    for the rest.  An empty input set is contained in everything.
    """
    holding = []
    witnesses = {}
    for name in families:
        test = _FAMILY_TESTS[name]
        culprit = None
        for i, f in enumerate(sigs):
            analysis = test(f)
            if not analysis:
                culprit = (i, f, analysis)
                break
        if culprit is None:
            holding.append(name)
        else:
            i, f, analysis = culprit
            witnesses[name] = {
                "index": i,
                "signature": f,
                **_failure_detail(analysis),
            }
    return tuple(holding), witnesses


def classify_pl_csp(signatures) -> DichotomyVerdict:
    """Classify the planar counting CSP defined by a finite signature set.

    ``PTime`` when the set lies in the affine or the product family (both
    tractable with or without planarity), ``PlanarPTimeOnly`` when only the
    Hadamard-matchgate containment holds, ``SharpPHard`` otherwise.
    """
    sigs = _as_signatures(signatures)
    holding, witnesses = _joint_containments(
        sigs, ("affine", "product", "hadamard_matchgate"))
    if "affine" in holding or "product" in holding:
        category = PTIME
    elif "hadamard_matchgate" in holding:
        category = PLANAR_PTIME_ONLY
    else:
        category = SHARP_P_HARD
    return DichotomyVerdict(category, holding, witnesses)


def classify_csp(signatures) -> DichotomyVerdict:
    """Classify the counting CSP without a planarity restriction.

    Only the affine and product families are tractable here, so the verdict
    is two-valued: ``PTime`` or ``SharpPHard``.
    """
    sigs = _as_signatures(signatures)
    holding, witnesses = _joint_containments(sigs, ("affine", "product"))
    category = PTIME if holding else SHARP_P_HARD
    return DichotomyVerdict(category, holding, witnesses)


def classify_pl_csp2_symmetric(signatures) -> DichotomyVerdict:
    """Classify the planar counting CSP whose variables all have even degree.

    Five families are tractable in this setting: product, affine, twisted
    affine, Hadamard matchgates, and twisted Hadamard matchgates.  The
    verdict is ``PTime`` when any of them contains the whole set and
    ``SharpPHard`` otherwise.  Defined for symmetric signatures only;
    asymmetric input raises ValueError.
    """
    sigs = _as_signatures(signatures)
    for i, f in enumerate(sigs):
        if f.symmetric_entries() is None:
            raise ValueError(f"signature {i} is not symmetric")
    holding, witnesses = _joint_containments(
        sigs,
        ("product", "affine", "twisted_affine",
         "hadamard_matchgate", "twisted_hadamard_matchgate"))
    category = PTIME if holding else SHARP_P_HARD
    return DichotomyVerdict(category, holding, witnesses)


# -- evaluation planning ----------------------------------------------------------


def _fkt_route(problem):
    """The grid the FKT route evaluates, with one built-in fragment per vertex.

    A csp goes through its bipartite grid form, rewritten by H2 on the
    equality side and by its inverse on the constraint side; that keeps
    the value, turns each =_k into H2·=_k = 2·[y even] and takes each
    constraint H2·g back to g.  A grid is taken as it is.  Each distinct
    signature is rewritten once and looked up once, in grid order up to
    the first vertex without a realization.
    Returns ((grid, fragments), None), or (None, why the route does not
    apply).
    """
    grid, where, rewrite = problem, "", None
    if isinstance(problem, CspInstance):
        try:
            grid, where = csp_to_grid(problem), " after the basis change"
        except ValueError as e:  # a variable of degree beyond ARITY_CAP
            return None, str(e)
        if not grid.is_planar():
            return None, "instance grid is not planar as constructed"
        rewrite = (functools.cache(lambda f: transform(f, H2, "row")),
                   functools.cache(lambda f: transform(f, H2, "column")))
    realize = functools.cache(builtin_fragment)
    frags = []
    for k, v in enumerate(grid.vertices):
        frags.append(realize(v.signature if rewrite is None else
                             rewrite[grid.sides[k] == "right"](v.signature)))
        if frags[-1] is None:
            return None, f"vertex {k}: no built-in realization{where}"
    return (grid.map_sides(*rewrite) if rewrite else grid, frags), None


def _csp_parts(instance):
    """The connected components of a csp's constraint graph, each on its
    own variables 0..c-1 (the zero-arity constraints make one part), and
    the number of variables that no constraint reads."""
    root = component_roots(instance.num_vars, (
        (on[0], v) for _, on in instance.constraints for v in on[1:]))
    groups = {}  # component root, or None for the constants -> constraints
    for sig, on in instance.constraints:
        groups.setdefault(root[on[0]] if on else None, []).append((sig, on))
    parts = []
    for cons in groups.values():
        ids = {}
        cons = tuple((sig, tuple(ids.setdefault(v, len(ids)) for v in on))
                     for sig, on in cons)
        parts.append(CspInstance(len(ids), cons))
    return parts, instance.num_vars - sum(p.num_vars for p in parts)


def evaluate(problem, mode: str = "auto"):
    """Value of a CspInstance or a SignatureGrid, and the strategy used.

    ``mode`` is ``"product"``, ``"affine"`` (csp only), ``"fkt"``,
    ``"brute"`` or ``"auto"``; the result is ``(strategy, value)``.  Auto
    mode on a csp classifies the set of distinct constraint signatures
    once and takes the product evaluator if that family holds, else the
    affine one; otherwise it takes the FKT route when the instance grid is
    planar and every transformed signature has a built-in realization,
    and brute force last.  Brute force sums a connected csp whole; a csp
    of several components is evaluated part by part in the same mode, up
    to the first zero, and reports the costliest strategy used.  Forced
    brute mode refuses beyond VAR_CAP variables on the whole instance.
    Auto mode on a grid takes the FKT route when the grid is closed,
    planar and fully realized, and brute force otherwise.  A forced mode
    that does not apply raises ValueError.
    """
    return _evaluate(problem, mode, functools.cache(
        lambda family, f: bool(_FAMILY_TESTS[family](f))))


def _evaluate(problem, mode, member):
    """evaluate, with member(family, signature) the membership test; the
    parts of a csp share it, so each signature is tested once per family."""
    csp = isinstance(problem, CspInstance)
    if mode == "auto":
        if csp:
            sigs = dict.fromkeys(sig for sig, _ in problem.constraints)
            if all(member("product", f) for f in sigs):
                mode = "product"
            elif all(member("affine", f) for f in sigs):
                mode = "affine"
        elif problem.dangling or not problem.is_planar():
            mode = "brute"
    if mode in ("product", "affine"):
        if not csp:
            raise ValueError(f"mode {mode!r} applies to csp documents only")
        evaluator = eval_product_csp if mode == "product" else eval_affine_csp
        return mode, evaluator(problem)
    if mode in ("auto", "fkt"):
        route, why = _fkt_route(problem)
        if route is not None:
            return "fkt", evaluate_matchgate_grid(*route)
        if mode == "fkt":
            raise ValueError(why)
    if not csp:
        return "brute", brute_force_holant(problem)
    if mode == "brute" and problem.num_vars > VAR_CAP:
        return "brute", brute_force_csp(problem)  # refuses before enumerating
    parts, unread = _csp_parts(problem)
    used, total = _COST[0], ONE * (1 << unread)
    if len(parts) < 2:  # connected: summed whole, nothing to plan again
        return "brute", brute_force_csp(parts[0]) * total if parts else total
    for part in parts:
        strategy, value = _evaluate(part, mode, member)
        used = max(used, strategy, key=_COST.index)
        if not value:
            return used, value
        total = total * value
    return used, total
