"""Spans and counters around the program's layers, installed from outside.

The layers are the modules of `src/holant`; the private helpers
`_embedding` and `_gf2` are not spanned, so their time counts toward the
caller.  A span wraps each public function listed in `SPANNED` (plus a
few constructors and methods in `METHODS`) and records its name, start,
end, parent span and document.  Wrappers replace the function at every
binding site: the defining module, every `holant` module that imported
it by name (`cli`, `grids`, `fkt`, ...) and `dichotomy._FAMILY_TESTS`.

`Scalar` arithmetic gets counters only: a span costs about as much as a
5 us field operation, so timing each one would swamp the run.  Its time
therefore lands in the calling layer's self time.

The spans of the first traced pass stay in memory and are written out
at the end; later passes only add to the aggregates.  Self time is a
span's duration minus its children's; a function's total counts only
its outermost spans, so nested calls of one function are not counted
twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: Public functions spanned per module: those the command can reach.
#: `serialize.parse_scalar_field` runs once per number in a document and
#: stays inside its caller's span.
SPANNED = {
    "serialize": ("parse_signature", "parse_csp", "parse_grid", "parse_graph",
                  "parse_registry", "parse_transform", "signature_to_json",
                  "transform_to_json", "verdict_to_json", "registry_hash"),
    "dichotomy": ("classify_pl_csp", "classify_csp",
                  "classify_pl_csp2_symmetric"),
    "classes": ("is_product", "is_affine", "is_matchgate",
                "is_hadamard_matchgate", "is_twisted_affine",
                "is_twisted_hadamard_matchgate", "is_degenerate",
                "class_report", "primitive_decomposition", "affine_support",
                "compress", "z4_polynomial", "parity_of"),
    "transforms": ("apply_matrix", "transform", "scale_by_weight",
                   "check_holant_invariance"),
    "signatures": ("equality", "unary", "normalize"),
    "grids": ("brute_force_csp", "brute_force_holant", "gate_signature",
              "csp_to_grid", "eval_product_csp", "eval_affine_csp"),
    "fkt": ("count_pm_fkt", "pfaffian", "kasteleyn_orient",
            "fragment_signature", "evaluate_matchgate_grid",
            "builtin_fragment"),
}

#: (module, class, method) spans; Signature construction is the
#: signatures layer's main work.
METHODS = (
    ("signatures", "Signature", "__init__"),
    ("grids", "SignatureGrid", "__init__"),
    ("grids", "SignatureGrid", "is_planar"),
    ("grids", "SignatureGrid", "map_sides"),
    ("grids", "CspInstance", "__post_init__"),
)

MEMBERSHIP_TESTS = ("is_product", "is_affine", "is_matchgate",
                    "is_hadamard_matchgate", "is_twisted_affine",
                    "is_twisted_hadamard_matchgate")

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "inverse")


def _brute_assignments(name, args):
    if name == "brute_force_csp":
        return 1 << args[0].num_vars
    return 1 << len(args[0].edge_ids)


class Tracer:
    """Collects spans and counters for one traced run, pass by pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent id, doc]
        self.recording = True    # keep spans of the first pass only
        self.passes = []         # per-pass aggregates
        self._stack = []         # open spans: [span id, child seconds]
        self._active = defaultdict(int)
        self._patches = []
        self._reset()

    def _reset(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.fn_self_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.doc = None
        self._pairs = set()
        self._distinct_pairs = 0

    # -- documents and passes ---------------------------------------------------

    def begin_doc(self, doc):
        self._distinct_pairs += len(self._pairs)
        self._pairs = set()
        self.doc = doc

    def root(self, run_one, main, argv):
        """Run one document under the top-level `cli.main` span."""
        return self._span("cli.main", "cli", run_one)(main, argv)

    def end_pass(self):
        self.begin_doc(None)
        self.recording = False
        self.passes.append({
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "fn_self_s": dict(self.fn_self_s),
            "layer_self_s": dict(self.layer_self_s),
            "counts": dict(self.counts),
            "membership_calls": self.counts["membership_calls"],
            "distinct_pairs": self._distinct_pairs,
        })
        self._reset()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tdoc\tname\tstart\tend\n")
            for k, (name, start, end, parent, doc) in enumerate(self.spans):
                fh.write(f"{k}\t{parent}\t{doc}\t{name}\t{start:.9f}\t{end:.9f}\n")

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, layer, fn, short=None):
        tracer = self
        spans = self.spans
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if short in MEMBERSHIP_TESTS:
                tracer.counts["membership_calls"] += 1
                tracer._pairs.add((short, args[0]))
            elif short == "pfaffian":
                tracer.counts["pfaffian.dim_sum"] += len(args[0])
            elif short in ("brute_force_csp", "brute_force_holant",
                           "gate_signature"):
                tracer.counts["brute_assignments"] += _brute_assignments(short, args)
            elif short == "__init__" and layer == "signatures":
                tracer.counts["signatures.constructed"] += 1
            parent = stack[-1] if stack else None
            record = None
            if tracer.recording:
                record = [name, 0.0, 0.0, parent[0] if parent else -1, tracer.doc]
                spans.append(record)
            frame = [len(spans) - 1, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                if record is not None:
                    record[1], record[2] = start, end
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                tracer.calls[name] += 1
                own = dur - frame[1]
                tracer.fn_self_s[name] += own
                tracer.layer_self_s[layer] += own
                if not active[name]:
                    tracer.total_s[name] += dur

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr], False))
            setattr(owner, attr, value)

    def install(self):
        import holant.cli  # noqa: F401  (loads every layer)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "holant" or n.startswith("holant.")]
        family_tests = sys.modules["holant.dichotomy"]._FAMILY_TESTS
        for layer, names in SPANNED.items():
            home = sys.modules[f"holant.{layer}"]
            for short in names:
                orig = getattr(home, short)
                wrapper = self._span(f"{layer}.{short}", layer, orig, short)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, attr, wrapper)
                for key, val in list(family_tests.items()):
                    if val is orig:
                        self._patch(family_tests, key, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"holant.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            self._patch(cls, meth, self._span(
                f"{layer}.{cls_name}.{meth}", layer, orig, meth))
        scalar = sys.modules["holant.scalar"].Scalar
        for meth in SCALAR_OPS:
            orig = scalar.__dict__[meth]
            wrapper = self._counter("scalar.ops", orig)
            if meth == "inverse":
                wrapper = self._counter("scalar.inverse_calls", wrapper)
            self._patch(scalar, meth, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, orig, is_dict = self._patches.pop()
            if is_dict:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
