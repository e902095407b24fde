"""Benchmark for the `holant` command: classify, fkt and eval workloads.

Run from the repository root:

    python3 perfbench/run.py --workload eval --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload in turn.  The documents are
generated from `--seed`, written to `.perfbench_work/`, and checked
against independent oracles (see `workloads.py`).  One worker process
per workload then runs them through `holant.cli.main(argv)` in a closed
loop with one client, in whole passes over the documents until
`--seconds` have passed.  Fresh interpreters time the set-up cost separately.

`--trace 0` prints the end-to-end metrics; `--trace 1` instead
alternates untraced and traced passes over the first document set and
prints per-layer metrics per pass (see `tracing.py`).  A table goes to
stderr; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0
when the benchmark ran, whether or not outputs were correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: The seed used when none is given; meta.json also records a held-out
#: seed for confirming a claimed gain.
DEFAULT_SEED = 1

#: Document sets per run; each set holds 100-112 documents.  The counts
#: make one pass over all of them take 5-10 s, so a run of --seconds 30
#: makes three or more whole passes over a few hundred distinct documents.
SETS = {"classify": 4, "fkt": 2, "eval": 3}
#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 11
#: A run must end within this many seconds ...
RUN_LIMIT_S = 170
#: ... so the timed loop gives up finishing its last pass after this many.
LOOP_LIMIT_S = 120

END_TO_END = (
    ("docs_per_s", "docs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("classes.is_matchgate.calls", "count"),
    ("classes.is_matchgate.total_s", "s"),
    ("classes.is_product.total_s", "s"),
    ("classes.is_affine.total_s", "s"),
    ("classes.repeat_ratio", "ratio"),
    ("classes.self_s", "s"),
    ("signatures.self_s", "s"),
    ("signatures.constructed", "count"),
    ("transforms.self_s", "s"),
    ("transforms.apply_matrix.calls", "count"),
    ("dichotomy.self_s", "s"),
    ("fkt.count_pm_fkt.self_s", "s"),
    ("fkt.pfaffian.total_s", "s"),
    ("fkt.pfaffian.calls", "count"),
    ("fkt.pfaffian.dim_sum", "count"),
    ("fkt.kasteleyn_orient.total_s", "s"),
    ("fkt.self_s", "s"),
    ("fkt.fragment_signature.calls", "count"),
    ("fkt.evaluate_matchgate_grid.total_s", "s"),
    ("grids.csp_to_grid.calls", "count"),
    ("grids.self_s", "s"),
    ("grids.eval_product_csp.total_s", "s"),
    ("grids.eval_affine_csp.total_s", "s"),
    ("grids.brute_assignments", "count"),
    ("serialize.self_s", "s"),
    ("serialize.calls", "count"),
    ("cli.self_s", "s"),
    ("scalar.ops", "count"),
    ("scalar.inverse_calls", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(argv, root, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(argv, cwd=root, env=_child_env(root),
                              stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1]} overran the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(argv[1])} exited with {proc.returncode}")
    return proc.stdout


def measure_setup(root, deadline):
    """Median of SETUP_PROBES fresh-interpreter set-up times."""
    want = os.path.join(os.path.realpath(root), "src", "holant")
    times = []
    for _ in range(SETUP_PROBES):
        out = json.loads(_child([sys.executable,
                                 os.path.join(HERE, "setup_probe.py")],
                                root, deadline).splitlines()[-1])
        if os.path.dirname(os.path.realpath(out["module"])) != want:
            raise BenchError(f"set-up probe imported {out['module']}")
        times.append(out["setup_s"])
    return statistics.median(times)


def write_documents(docs, work):
    """Write each document to disk; return the argv of each."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argvs = []
    for k, (_, kind, argv, body, _) in enumerate(docs):
        path = os.path.join(work, f"{k:04d}-{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(body, sort_keys=True) + "\n")
        argvs.append(argv[:1] + [path] + argv[1:])
    return argvs


def output_matches(expect, text):
    try:
        out = json.loads(text)
    except ValueError:
        return False
    if not isinstance(out, dict):
        return False
    if "category" in expect:
        return out.get("category") == expect["category"]
    if "signature" in expect:
        sig = out.get("signature")
        return isinstance(sig, dict) and sig.get("values") == expect["signature"]
    return out.get("value") == expect["value"]


def check_samples(docs, result):
    """Per-sample success: exit code 0 and value/category as the oracle says."""
    good = [[output_matches(doc[4], text) for text in texts]
            for doc, texts in zip(docs, result["outputs"])]
    return [rc == 0 and good[k][out] for k, _, rc, out in result["samples"]]


def end_to_end_metrics(result, ok, setup_s):
    times = sorted(dt if good else math.inf
                   for (_, dt, _, _), good in zip(result["samples"], ok))
    p50, p90 = percentile(times, 0.5), percentile(times, 0.9)
    return {
        "docs_per_s": sum(ok) / result["wall_s"],
        # a failed document counts as infinitely slow; JSON has no infinity
        "latency_p50_ms": p50 * 1000 if p50 < math.inf else 1e12,
        "latency_p90_ms": p90 * 1000 if p90 < math.inf else 1e12,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "setup_s": setup_s,
    }


def _same_counts(passes):
    keys = ("calls", "counts", "membership_calls", "distinct_pairs")
    return all(all(p[k] == passes[0][k] for k in keys) for p in passes)


def per_layer_metrics(result):
    passes = result["passes"]

    def seconds(field, key):
        return statistics.median(p[field].get(key, 0.0) for p in passes)

    first = passes[0]
    calls, counts = first["calls"], first["counts"]
    pairs = first["distinct_pairs"]
    return {
        "classes.is_matchgate.calls": calls.get("classes.is_matchgate", 0),
        "classes.is_matchgate.total_s": seconds("total_s", "classes.is_matchgate"),
        "classes.is_product.total_s": seconds("total_s", "classes.is_product"),
        "classes.is_affine.total_s": seconds("total_s", "classes.is_affine"),
        "classes.repeat_ratio": first["membership_calls"] / pairs if pairs else 0.0,
        "classes.self_s": seconds("layer_self_s", "classes"),
        "signatures.self_s": seconds("layer_self_s", "signatures"),
        "signatures.constructed": counts.get("signatures.constructed", 0),
        "transforms.self_s": seconds("layer_self_s", "transforms"),
        "transforms.apply_matrix.calls": calls.get("transforms.apply_matrix", 0),
        "dichotomy.self_s": seconds("layer_self_s", "dichotomy"),
        "fkt.count_pm_fkt.self_s": seconds("fn_self_s", "fkt.count_pm_fkt"),
        "fkt.pfaffian.total_s": seconds("total_s", "fkt.pfaffian"),
        "fkt.pfaffian.calls": calls.get("fkt.pfaffian", 0),
        "fkt.pfaffian.dim_sum": counts.get("pfaffian.dim_sum", 0),
        "fkt.kasteleyn_orient.total_s": seconds("total_s", "fkt.kasteleyn_orient"),
        "fkt.self_s": seconds("layer_self_s", "fkt"),
        "fkt.fragment_signature.calls": calls.get("fkt.fragment_signature", 0),
        "fkt.evaluate_matchgate_grid.total_s":
            seconds("total_s", "fkt.evaluate_matchgate_grid"),
        "grids.csp_to_grid.calls": calls.get("grids.csp_to_grid", 0),
        "grids.self_s": seconds("layer_self_s", "grids"),
        "grids.eval_product_csp.total_s": seconds("total_s", "grids.eval_product_csp"),
        "grids.eval_affine_csp.total_s": seconds("total_s", "grids.eval_affine_csp"),
        "grids.brute_assignments": counts.get("brute_assignments", 0),
        "serialize.self_s": seconds("layer_self_s", "serialize"),
        "serialize.calls": sum(v for k, v in calls.items()
                               if k.startswith("serialize.")),
        "cli.self_s": seconds("layer_self_s", "cli"),
        "scalar.ops": counts.get("scalar.ops", 0),
        "scalar.inverse_calls": counts.get("scalar.inverse_calls", 0),
        "trace.overhead_ratio": statistics.median(result["traced_pass_s"])
                                / statistics.median(result["untraced_pass_s"]),
    }


def run_workload(name, seed, seconds, trace, root, deadline):
    import oracles
    import workloads

    docs = workloads.generate(name, seed, oracles, SETS[name])
    work = os.path.join(root, ".perfbench_work", f"{name}-{seed}")
    argvs = write_documents(docs, work)
    plan = {
        "root": root,
        "argvs": argvs,
        "seconds": seconds,
        "limit": max(seconds, LOOP_LIMIT_S),
        "trace": bool(trace),
        "trace_subset": [k for k, doc in enumerate(docs) if doc[0] == 0],
        "spans": os.path.join(work, "spans.tsv"),
    }
    plan_path = os.path.join(work, "plan.json")
    out_path = os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    setup_s = None if trace else measure_setup(root, deadline)
    _child([sys.executable, os.path.join(HERE, "worker.py"), plan_path, out_path],
           root, deadline)
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    ok = check_samples(docs, result)
    if trace:
        values = per_layer_metrics(result)
        units = dict(PER_LAYER)
        steady = _same_counts(result["passes"])
    else:
        values = end_to_end_metrics(result, ok, setup_s)
        units = dict(END_TO_END)
        steady = True
    failed = len(ok) - sum(ok)
    return {
        "correct": failed == 0 and steady,
        "attempted": len(ok),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def _print_table(name, res):
    print(f"[{name}] correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} (percentiles over {res['attempted']} samples)",
          file=sys.stderr)
    for key, m in res["metrics"].items():
        print(f"  {key:40s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("classify", "fkt", "eval", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "holant", "cli.py")):
        print("perfbench: run from the repository root "
              "(no src/holant/cli.py here)", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    names = ("classify", "fkt", "eval") if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = {}
    try:
        for name in names:
            deadline = start + RUN_LIMIT_S * (len(results) + 1)
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, root, deadline)
            _print_table(name, results[name])
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
