"""Byte identity of the command on the seed-1 benchmark documents.

tests/golden_seed1.json holds a short SHA-256 of the input bytes of every
seed-1 document of the three benchmark workloads, and one of every run
of `holant.cli.main` on it (exit code and stdout), keyed by workload,
document index and argv.  The documents come from
perfbench/workloads.generate, imported read-only; each eval document
runs in every mode of `dichotomy.MODES`, and every mode that answers
must give the same value.  A digest that moves is a change of the
program's output: declare it, and rewrite the file with

    PYTHONPATH=src python tests/test_golden.py --write

The tier-1 test leaves out brute mode, which takes 15-30 s; check it
with

    PYTHONPATH=src python tests/test_golden.py brute
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_seed1.json")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import workloads  # noqa: E402

from holant import cli  # noqa: E402
from holant.dichotomy import MODES  # noqa: E402

#: The document sets of each workload, as perfbench/run.py draws them.
SETS = {"classify": 4, "fkt": 2, "eval": 3}


def _gaussian_brute_force(num_vars, constraints):
    """The csp value over Gaussian integers, as the generator's
    `brute_force_csp` oracle.  The generator reads it only to redraw a
    block whose value is 0, but that needs the exact sum: its terms stay
    far below 2^53, where complex floats are exact."""
    constraints = [([complex(*z) for z in values], on)
                   for values, on in constraints]
    total = 0j
    for a in range(1 << num_vars):
        term = 1
        for values, on in constraints:
            idx = 0
            for v in on:
                idx = 2 * idx + ((a >> v) & 1)
            term *= values[idx]
            if not term:
                break
        total += term
    return (round(total.real), round(total.imag))


# The fkt expectations are never read here, so no matching is counted.
_ORACLES = SimpleNamespace(brute_force_csp=_gaussian_brute_force,
                           enumerate_pm=lambda *graph: workloads.G_ZERO)


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def run_seed1(modes):
    """Digests of the seed-1 documents and of their runs, with eval runs
    in the given modes, and the value each eval mode answered per
    document: (inputs, runs, values)."""
    inputs, runs, values = {}, {}, {}
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "doc.json")  # one file, rewritten per doc
        for name, sets in SETS.items():
            docs = workloads.generate(name, 1, _ORACLES, sets)
            for k, (_, _, argv, body, _) in enumerate(docs):
                doc = f"{name}/{k:03d}"
                text = json.dumps(body, sort_keys=True) + "\n"
                inputs[doc] = _digest(text)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                for mode in modes if name == "eval" else (None,):
                    args = argv if mode is None else argv[:-1] + [mode]
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(args[:1] + [path] + args[1:])
                    runs[f"{doc} {' '.join(args)}"] = _digest(
                        f"{code}\n{buf.getvalue()}")
                    if mode is not None and code == 0:
                        values.setdefault(doc, {})[mode] = \
                            json.loads(buf.getvalue())["value"]
    return inputs, runs, values


def mismatches(modes):
    """Every key whose digest differs from tests/golden_seed1.json, and
    every eval document on which two modes answered different values."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    inputs, runs, values = run_seed1(modes)
    moved = [key for key in sorted(inputs.keys() | golden["inputs"].keys())
             if inputs.get(key) != golden["inputs"].get(key)]
    want = {key: digest for key, digest in golden["runs"].items()
            if not key.startswith("eval/") or key.split()[-1] in modes}
    moved += [key for key in sorted(runs.keys() | want.keys())
              if runs.get(key) != want.get(key)]
    disagree = [f"{doc} {answers}" for doc, answers in sorted(values.items())
                if len({json.dumps(v) for v in answers.values()}) > 1]
    return moved, disagree


def test_seed1_outputs_keep_their_digests():
    moved, disagree = mismatches(tuple(m for m in MODES if m != "brute"))
    assert not moved, f"{len(moved)} digests moved: {moved[:20]}"
    assert not disagree, disagree


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        inputs, runs, _ = run_seed1(MODES)
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump({"inputs": inputs, "runs": runs}, fh, indent=0,
                      sort_keys=True)
            fh.write("\n")
        sys.exit()
    moved, disagree = mismatches(tuple(sys.argv[1:]) or MODES)
    for line in moved:
        print("moved:", line)
    for line in disagree:
        print("modes disagree:", line)
    sys.exit(1 if moved or disagree else 0)
