"""Exact rational linear algebra and the matrix helpers.

Rank and nullspace share one sparse fraction elimination on rows stored as
column->value dicts (dense rows are accepted too).  The systems assembled by
the library are sparse with small integer entries, so sparse elimination
with a shortest-row pivot heuristic is fast enough for every shipped
computation, including the largest constrained-torsion system (a few
thousand rows, a few hundred columns).
"""

from __future__ import annotations

from fractions import Fraction


def add_scaled(row: dict, factor, other: dict):
    """row += factor * other, dropping the entries that cancel."""
    for c, v in other.items():
        nv = row.get(c, 0) + factor * v
        if nv == 0:
            row.pop(c, None)
        else:
            row[c] = nv


def _eliminate(matrix, ncols: int | None):
    """Forward elimination; returns ({pivot column: pivot row}, ncols).

    Columns are taken in increasing order and each is pivoted on the
    shortest remaining row containing it, so every pivot row is zero left
    of its pivot column.  Without ``ncols`` the width is read off the rows.
    """
    active = []
    width = 0
    for row in matrix:
        dense = not isinstance(row, dict)
        r = {c: v for c, v in (enumerate(row) if dense else row.items()) if v != 0}
        width = max(width, len(row) if dense else 1 + max(r, default=-1))
        if r:
            active.append(r)
    if ncols is None:
        ncols = width
    pivots = {}
    for col in range(ncols):
        if not active:
            break
        pivot_row = None
        for r in active:
            if col in r and (pivot_row is None or len(r) < len(pivot_row)):
                pivot_row = r
        if pivot_row is None:
            continue
        pivots[col] = pivot_row
        active.remove(pivot_row)
        piv = pivot_row[col]
        remaining = []
        for r in active:
            if col in r:
                add_scaled(r, -Fraction(r[col], 1) / piv, pivot_row)
            if r:
                remaining.append(r)
        active = remaining
    return pivots, ncols


def exact_rank(matrix, ncols: int | None = None) -> int:
    """Rank over the rationals of a matrix with int/Fraction entries."""
    return len(_eliminate(matrix, ncols)[0])


def exact_nullspace(matrix, ncols: int | None = None):
    """Basis of the rational nullspace, as dense Fraction lists.

    The pivot rows are back-substituted into the reduced row echelon form,
    which depends only on the row space, and each free column f gives the
    vector with 1 at f, minus the f-th reduced entry at each pivot column
    and 0 elsewhere.  A matrix without rows has the identity basis.
    """
    pivots, ncols = _eliminate(matrix, ncols)
    reduced = {}
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        piv = row[col]
        row = {c: Fraction(v) / piv for c, v in row.items()}
        # the rows of later pivots are already reduced, so clearing their
        # columns changes only free columns
        for k in [k for k in row if k in reduced]:
            add_scaled(row, -row[k], reduced[k])
        reduced[col] = row
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for col, row in reduced.items():
            if free in row:
                vec[col] = -row[free]
        basis.append(vec)
    return basis


def mat_mul(a, b):
    """Matrix product; zero entries of either factor cost no arithmetic."""
    cols = len(b[0]) if b else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for x, b_row in zip(row, b_rows):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_add(a, b, sa=1, sb=1):
    """sa * a + sb * b; zero entries cost no arithmetic."""
    return [
        [(sa * x + sb * y if y else sa * x) if x else (sb * y if y else 0) for x, y in zip(r1, r2)]
        for r1, r2 in zip(a, b)
    ]
