"""Self-tests for the benchmark's own code.

Run from the repository root (takes about a minute):

    python3 perfbench/selftest.py

* the same seed gives byte-identical documents, another seed does not;
* each oracle agrees with an exhaustive one on small inputs;
* every generated document kind, run through `holant.cli.main`, gives
  the value or category its oracle predicts;
* the traced-run counts repeat exactly across two runs of `run.py`;
* the metric names in `run.py` match `BENCHMARK.json` and `meta.json`.

Named so that pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def check(cond, what):
    print(("PASS " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def test_determinism():
    for name in workloads.WORKLOADS:
        a = json.dumps(workloads.generate(name, 7, oracles, 2), sort_keys=True)
        b = json.dumps(workloads.generate(name, 7, oracles, 2), sort_keys=True)
        c = json.dumps(workloads.generate(name, 8, oracles, 2), sort_keys=True)
        check(a == b, f"{name}: seed 7 gives byte-identical documents")
        check(a != c, f"{name}: seeds 7 and 8 give different documents")


def test_oracles():
    from holant.classes import class_report
    from holant.signatures import Signature
    from holant.scalar import Scalar

    rng = random.Random(3)
    ok = True
    for rows, cols in ((2, 3), (3, 4), (4, 4), (2, 6)):
        weights = {}
        pts, edges, cells = workloads.board(rows, cols)
        ws = [rng.choice(workloads.WEIGHTS) for _ in edges]
        for (u, v), w in zip(edges, ws):
            weights[(cells[u], cells[v])] = w
        dp = workloads.grid_pm_dp(rows, cols, lambda a, b: weights[(a, b)])
        ok &= dp == oracles.enumerate_pm(len(pts), edges, ws)
    check(ok, "grid transfer-matrix DP equals enumerate_pm on small boards")

    ok = True
    for target in (4, 6, 8):
        for odd in (False, True):
            body, value = workloads._tree_csp(rng, target, odd)
            cons = [(workloads.h2_exact_one(len(c["on"])), c["on"])
                    for c in body["constraints"]]
            sym_values = []
            for entries, on in cons:
                sym_values.append(([entries[bin(x).count("1")]
                                    for x in range(1 << len(on))], on))
            brute = oracles.brute_force_csp(body["vars"], sym_values)
            ok &= brute == value and (not odd or value == (0, 0))
    check(ok, "tree DP equals brute force; odd constraint count gives 0")

    ok = True
    for entries in workloads.HARD_SYMMETRIC:
        f = Signature.from_symmetric([Scalar((re, 0, im, 0), 1)
                                      for re, im in entries])
        members = class_report(f).memberships()
        ok &= not any(v for k, v in members.items() if k != "degenerate")
    check(ok, "every HARD_SYMMETRIC member lies outside every family")


def test_documents_against_program():
    from holant import cli

    for name in workloads.WORKLOADS:
        docs = workloads.generate(name, 1, oracles, 1)
        work = os.path.join(ROOT, ".perfbench_work", f"selftest-{name}")
        argvs = run.write_documents(docs, work)
        seen = {}
        for doc, argv in zip(docs, argvs):
            kind = doc[1]
            if seen.get(kind, 0) >= 3:
                continue
            seen[kind] = seen.get(kind, 0) + 1
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            check(rc == 0 and run.output_matches(doc[4], buf.getvalue()),
                  f"{name}/{kind}: {os.path.basename(argv[1])} matches its oracle")


def _trace_counts(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    res = json.loads(proc.stdout.splitlines()[-1])
    return res, {k: m["value"] for k, m in res["metrics"].items()
                 if m["unit"] == "count"}


def test_trace_counts_repeat():
    for name in workloads.WORKLOADS:
        first, a = _trace_counts(name)
        _, b = _trace_counts(name)
        check(first["correct"], f"{name}: traced run is correct")
        check(a == b, f"{name}: every count metric repeats across two traced runs")
        if name == "classify":
            check(a["fkt.pfaffian.calls"] == 0, "classify: no pfaffian calls")
        else:
            check(a["classes.is_matchgate.calls"] == 0,
                  f"{name}: no is_matchgate calls")
        if name == "eval":
            check(first["metrics"]["classes.repeat_ratio"]["value"] > 1,
                  "eval: membership tests repeat within a document")


def test_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    check(declared == list(run.END_TO_END), "end_to_end metrics match run.py")
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    check(declared == list(run.PER_LAYER), "per_layer metrics match run.py")
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "workloads match workloads.py")
    check(meta["seeds"]["default"] == run.DEFAULT_SEED, "default seed matches run.py")
    names = {m for m, _ in run.PER_LAYER}
    check(all(row["metric"] in names for row in meta["predictions"]),
          "every prediction names a per-layer metric")


if __name__ == "__main__":
    test_determinism()
    test_oracles()
    test_documents_against_program()
    test_metric_names()
    test_trace_counts_repeat()
    print(f"{len(FAILURES)} failure(s)")
    sys.exit(1 if FAILURES else 0)
