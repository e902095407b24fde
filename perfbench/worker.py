"""The measured process.

`python3 worker.py PLAN OUT` runs the plan's documents through
`holant.cli.main(argv)` in a closed loop with one client and no threads,
in whole passes until the plan's seconds have passed, capturing stdout, and writes per-document samples, the distinct outputs
of each document and the peak RSS to OUT.  With `"trace": true` in the
plan it alternates untraced and traced passes over the plan's trace
subset instead, and writes the per-layer aggregates of each pass.

The caller puts the program's `src` directory on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _import_program(root):
    from holant import cli, fkt
    want = os.path.join(os.path.realpath(root), "src", "holant")
    got = os.path.dirname(os.path.realpath(cli.__file__))
    if got != want:
        raise SystemExit(f"imported holant from {got}, expected {want}")
    return cli, fkt


def _run_one(main, argv):
    """(seconds, exit code, stdout) of one cli.main call."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # a traceback is a failed document, not a dead run
        rc = -1
        buf.write(traceback.format_exc())
    return time.perf_counter() - start, rc, buf.getvalue()


class _Outputs:
    """Distinct stdout strings per document, so each is checked once."""

    def __init__(self, count):
        self.seen = [dict() for _ in range(count)]

    def index(self, doc, text):
        return self.seen[doc].setdefault(text, len(self.seen[doc]))

    def to_json(self):
        return [list(d) for d in self.seen]


def timed_loop(main, argvs, seconds, limit):
    """Run whole passes over the documents until `seconds` have passed.

    Whole passes keep the document mix the same whatever the speed.  Past
    `limit` seconds the loop stops mid-pass, so a very slow program still
    ends the run in time.
    """
    outputs = _Outputs(len(argvs))
    samples = []
    start = time.perf_counter()
    passes = 0
    while time.perf_counter() - start < seconds:
        for k, argv in enumerate(argvs):
            dt, rc, text = _run_one(main, argv)
            samples.append((k, dt, rc, outputs.index(k, text)))
            if time.perf_counter() - start > limit:
                break
        passes += 1
    wall = time.perf_counter() - start
    return {"samples": samples, "outputs": outputs.to_json(), "wall_s": wall,
            "passes": passes}


def traced_loop(main, argvs, subset, seconds, spans_path):
    """Alternate untraced and traced passes over `subset`."""
    from tracing import Tracer

    tracer = Tracer()
    outputs = _Outputs(len(argvs))
    samples = []
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        for k in subset:
            _run_one(main, argvs[k])
        untraced.append(time.perf_counter() - t0)
        tracer.install()
        try:
            t0 = time.perf_counter()
            for k in subset:
                tracer.begin_doc(k)
                dt, rc, text = tracer.root(_run_one, main, argvs[k])
                samples.append((k, dt, rc, outputs.index(k, text)))
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        tracer.end_pass()
    tracer.write_spans(spans_path)
    return {"samples": samples, "outputs": outputs.to_json(),
            "untraced_pass_s": untraced, "traced_pass_s": traced,
            "passes": tracer.passes}


def loop(plan_path, out_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    cli, fkt = _import_program(plan["root"])
    # Warm the per-process library cache; setup_s carries that cost.
    fkt._load_library()
    if plan["trace"]:
        result = traced_loop(cli.main, plan["argvs"], plan["trace_subset"],
                             plan["seconds"], plan["spans"])
    else:
        result = timed_loop(cli.main, plan["argvs"], plan["seconds"],
                            plan["limit"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: worker.py PLAN OUT")
    loop(sys.argv[1], sys.argv[2])
