"""Oracles that run on the program's exact field, outside the timed loop.

`brute_force_csp` and `enumerate_pm` are exhaustive evaluators that the
timed command path never uses for these documents: eval instances are
brute-forced block by block rather than whole, and plane graphs are
enumerated rather than put through a Pfaffian.  Both take and return
Gaussian integers as `(re, im)` pairs.
"""

from __future__ import annotations

from types import SimpleNamespace

from holant import grids, fkt
from holant.scalar import Scalar
from holant.signatures import Signature


def _scalar(z):
    return Scalar((z[0], 0, z[1], 0), 1)


def _gauss(s):
    a0, a1, a2, a3 = s.coefficients
    if a1 or a3 or a0.denominator != 1 or a2.denominator != 1:
        raise ValueError(f"oracle value {s} is not a Gaussian integer")
    return (a0.numerator, a2.numerator)


def brute_force_csp(num_vars, constraints):
    """Exhaustive value of a csp given as [(values, scope)]."""
    inst = grids.CspInstance(num_vars, tuple(
        (Signature([_scalar(v) for v in values]), tuple(on))
        for values, on in constraints))
    return _gauss(grids.brute_force_csp(inst))


def enumerate_pm(num_vertices, edges, weights):
    """Weighted perfect-matching sum by memoised enumeration."""
    g = SimpleNamespace(num_vertices=num_vertices,
                        edges=[(u, v, _scalar(w)) for (u, v), w in zip(edges, weights)])
    return _gauss(fkt.enumerate_pm(g))
