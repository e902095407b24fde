"""Linear algebra over GF(2) on integer bitmasks.

Rows are ints; bit (n-1) is variable x1, matching signature row indices.
Pivoting on the highest set bit therefore walks variables in order
x1, x2, ..., which is what makes pivot choices lexicographically first.
"""

from __future__ import annotations


def rref(vectors) -> dict[int, int]:
    """Reduced row echelon basis of the span, keyed by pivot bit."""
    rows: dict[int, int] = {}
    for v in vectors:
        for p, r in rows.items():
            if (v >> p) & 1:
                v ^= r
        if v:
            p = v.bit_length() - 1
            for q in list(rows):
                if (rows[q] >> p) & 1:
                    rows[q] ^= v
            rows[p] = v
    return rows


def parity(x: int) -> int:
    return x.bit_count() & 1
