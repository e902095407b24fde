"""Linear algebra over GF(2) on integer bitmasks.

Rows are ints; bit (n-1) is variable x1, matching signature row indices.
Pivoting on the highest set bit therefore walks variables in order
x1, x2, ..., which is what makes pivot choices lexicographically first.
"""

from __future__ import annotations


def rref(vectors) -> dict[int, int]:
    """Reduced row echelon basis of the span, keyed by pivot bit.

    `cols` is the OR of every row stored so far, so an incoming row is
    reduced only at the bits it shares with it, and back-substitution
    runs only when some stored row may have the new pivot bit.  Each
    stored row has no pivot bit but its own, so the order of the
    reductions does not matter.
    """
    rows: dict[int, int] = {}
    cols = 0
    for v in vectors:
        hits = v & cols
        while hits:
            p = hits.bit_length() - 1
            hits ^= 1 << p
            if p in rows:
                v ^= rows[p]
        if v:
            p = v.bit_length() - 1
            if (cols >> p) & 1:
                for q, r in rows.items():
                    if (r >> p) & 1:
                        rows[q] = r ^ v
            rows[p] = v
            cols |= v
    return rows


def parity(x: int) -> int:
    return x.bit_count() & 1
