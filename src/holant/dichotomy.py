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
from .fkt import _stitched_value, builtin_fragment
from .grids import CspInstance, brute_force_csp, \
    brute_force_holant, csp_to_grid, eval_affine_csp, eval_product_csp
from .scalar import ONE
from .signatures import Signature
from .transforms import H2, H2_NORMALIZED, apply_matrix

PTIME = "PTime"
PLANAR_PTIME_ONLY = "PlanarPTimeOnly"
SHARP_P_HARD = "SharpPHard"
_COST = ("product", "affine", "fkt", "brute")  # evaluators, cheapest first
MODES = ("auto", "brute", "product", "affine", "fkt")  # evaluate's modes

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
    """Test each family against every distinct signature, once each.

    Returns the holding family names (in the order given) and a witness map
    for the rest.  An empty input set is contained in everything.
    """
    holding = []
    witnesses = {}
    for name in families:
        test = _FAMILY_TESTS[name]
        culprit = None
        for f in dict.fromkeys(sigs):
            analysis = test(f)
            if not analysis:
                culprit = (sigs.index(f), f, analysis)
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


def _hadamard(f):
    """H f, with H = H2/sqrt(2) on every input: the H2 butterfly, scaled."""
    return apply_matrix(f, H2) * H2_NORMALIZED.a ** f.arity


def _fkt_route(problem, once):
    """The grid the FKT route evaluates, with one built-in fragment per vertex.

    A csp goes through its grid form, and each vertex is realized after
    a rewrite by H: H is symmetric and its own inverse, so H H on every
    edge keeps the value.  That turns each =_k into (sqrt 2)^(2-k)
    [y even] and each constraint H2 g into (sqrt 2)^k g.  The stitching
    reads only the grid's edges, so the csp grid itself goes with the
    rewritten fragments.  A grid is taken as it is.
    Through once, each distinct signature is rewritten and looked up once
    per evaluate call, the lookups in grid order up to the first vertex
    without a realization.  Returns ((grid, fragments), None), every
    fragment checked by builtin_fragment as it was built, so the route
    stitches them with no check; or (None, why the route does not apply).
    """
    grid, where, rewrite = problem, "", lambda sig: sig
    if isinstance(problem, CspInstance):
        try:
            grid, where = csp_to_grid(problem), " after the basis change"
        except ValueError as e:  # a variable of degree beyond ARITY_CAP
            return None, str(e)
        if not grid.is_planar():
            return None, "instance grid is not planar as constructed"
        rewrite = functools.partial(once, _hadamard)
    frags = []
    for k, v in enumerate(grid.vertices):
        frags.append(once(builtin_fragment, rewrite(v.signature)))
        if frags[-1] is None:
            return None, f"vertex {k}: no built-in realization{where}"
    if grid.dangling:
        return None, "grid has dangling edges; matchgate evaluation needs a closed grid"
    return (grid, frags), None


def _csp_parts(instance):
    """The connected components of a csp's constraint graph, each on its
    own variables 0..c-1 (the zero-arity constraints make one part), and
    the number of variables that no constraint reads; None for a
    connected csp that reads every variable, which needs no renumbered
    copy."""
    root = component_roots(instance.num_vars, (
        (on[0], v) for _, on in instance.constraints for v in on[1:]))
    groups = {}  # component root, or None for the constants -> constraints
    for sig, on in instance.constraints:
        groups.setdefault(root[on[0]] if on else None, []).append((sig, on))
    if len(groups) == 1 and groups.keys() >= set(root):
        return None
    parts = []
    for cons in groups.values():
        ids = {}
        cons = tuple((sig, tuple(ids.setdefault(v, len(ids)) for v in on))
                     for sig, on in cons)
        parts.append(CspInstance(len(ids), cons))
    return parts, instance.num_vars - sum(p.num_vars for p in parts)


def evaluate(problem, mode: str = "auto"):
    """Value of a CspInstance or a SignatureGrid, and the strategy used.

    ``mode`` is one of ``MODES``: ``"product"``, ``"affine"`` (csp only),
    ``"fkt"``, ``"brute"`` or ``"auto"``; any other raises ValueError.
    The result is ``(strategy, value)``.  Auto mode on a csp classifies
    the set of distinct constraint signatures once and takes the product
    evaluator if that family holds, else the affine one.  Otherwise, and
    always under brute mode, a csp is split into the connected components
    of its constraint graph and every component is planned before any
    runs: in auto mode the product or affine evaluator when its own
    signatures allow, else the FKT route when its grid is planar and
    every transformed signature has a built-in realization, else brute
    force, which refuses a component of more than grids.VAR_CAP
    variables.  The components run cheapest strategy first and fewest
    variables first, up to the first zero; the values multiply, times 2
    per unread variable, and the strategy reported is the costliest one
    planned.  Auto mode on a grid takes the FKT route when the grid is
    closed, planar and fully realized, and brute force otherwise.  Forced
    product, affine and fkt modes take the whole instance, and one that
    does not apply raises ValueError.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of "
                         + ", ".join(MODES))
    once = functools.cache(lambda step, *args: step(*args))  # one memo
    strategy, run = _plan(problem, mode, once)
    return strategy, run()


def _plan(problem, mode, once):
    """The strategy evaluate reports for problem and a call that computes
    the value.  once(step, *args) is evaluate's memo of step(*args): the
    parts of a csp share every family test, rewrite and realization, and
    the product and affine evaluators take their analyses from it."""
    def family(instance):  # the family of every constraint, or mode
        sigs = dict.fromkeys(sig for sig, _ in instance.constraints)
        return next((name for name in ("product", "affine") if all(
            once(_FAMILY_TESTS[name], f) for f in sigs)), mode)

    if not isinstance(problem, CspInstance):
        return _route(problem, mode, once)
    if mode == "auto":
        mode = family(problem)
    split = mode in ("auto", "brute") and _csp_parts(problem)
    if not split:
        return _route(problem, mode, once)
    parts, unread = split
    plans = [_route(part, family(part) if mode == "auto" else mode, once)
             for part in sorted(parts, key=lambda p: p.num_vars)]
    # a stable sort: cheapest strategy first, then fewest variables
    plans.sort(key=lambda plan: _COST.index(plan[0]))

    def run():
        total = ONE * (1 << unread)
        for _, part_run in plans:  # up to the first zero
            total = total and total * part_run()
        return total
    return plans[-1][0] if plans else "brute", run  # the costliest


def _route(problem, mode, once):
    """The plan of a grid, or of a csp taken whole: product or affine
    when the mode says so, else the FKT route when auto or fkt mode finds
    one, else brute force."""
    csp = isinstance(problem, CspInstance)
    if mode == "auto" and not csp and (
            problem.dangling or not problem.is_planar()):
        mode = "brute"
    if mode in ("product", "affine"):
        if not csp:
            raise ValueError(f"mode {mode!r} applies to csp documents only")
        evaluator = eval_product_csp if mode == "product" else eval_affine_csp
        return mode, functools.partial(evaluator, problem, analyze=(
            functools.partial(once, _FAMILY_TESTS[mode])))
    if mode in ("auto", "fkt"):
        route, why = _fkt_route(problem, once)
        if route is not None:
            return "fkt", functools.partial(_stitched_value, *route)
        if mode == "fkt":
            raise ValueError(why)
    return "brute", functools.partial(
        brute_force_csp if csp else brute_force_holant, problem)
