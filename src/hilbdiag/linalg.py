"""Exact rank computations over the rationals.

Matrices stay small (a few hundred rows), so plain sparse Gaussian
elimination with exact Fraction arithmetic is enough; unit pivots are
preferred to keep most of the work in integer adds.
"""

from __future__ import annotations

from fractions import Fraction


def rank_sparse(rows) -> int:
    """Rank of a matrix given as an iterable of {column: coefficient} dicts."""
    pivots = {}  # col -> reduced row with 1 at col
    rank = 0
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            cols = [c for c in row if c in pivots]
            if not cols:
                break
            c = min(cols)
            coef = row.pop(c)
            for pc, pv in pivots[c].items():
                if pc == c:
                    continue
                nv = row.get(pc, 0) - coef * pv
                if nv:
                    row[pc] = nv
                else:
                    row.pop(pc, None)
        if row:
            # prefer a +-1 pivot, fall back to the smallest column
            pc = None
            for c, v in row.items():
                if v == 1 or v == -1:
                    pc = c
                    break
            if pc is None:
                pc = min(row)
            pivval = row[pc]
            norm = {c: v / pivval for c, v in row.items()}
            pivots[pc] = norm
            rank += 1
    return rank


def rank_dense(matrix) -> int:
    """Rank of a dense matrix (list of rows of numbers)."""
    return rank_sparse({j: v for j, v in enumerate(r) if v} for r in matrix)
