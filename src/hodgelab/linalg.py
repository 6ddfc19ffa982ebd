"""Exact rational linear algebra and the matrix helpers.

A linear map is a list of {column: value} rows without zeros; ``compose``
and ``combine`` multiply and add such maps, and ``sparse_rows``/``dense_rows``
convert the dense matrices that numpy and the JSON codecs read.  Rank and
nullspace share one sparse fraction elimination with a shortest-row pivot
heuristic over {column: value} rows of a given width, fast enough for every
shipped system, the largest constrained-torsion one included (a few
thousand rows, a few hundred columns).
"""

from __future__ import annotations

from fractions import Fraction


def add_scaled(row: dict, factor, other: dict) -> dict:
    """row += factor * other, dropping the entries that cancel; returns row."""
    for c, v in other.items():
        nv = row.get(c, 0) + factor * v
        if nv == 0:
            row.pop(c, None)
        else:
            row[c] = nv
    return row


def _eliminate(matrix, ncols: int):
    """Forward elimination of {column: value} rows; returns {pivot column: pivot row}.

    Columns are taken in increasing order and each is pivoted on the
    shortest remaining row containing it, so every pivot row is zero left
    of its pivot column.  The rows are copied, never modified.
    """
    active = [r for r in ({c: v for c, v in row.items() if v != 0} for row in matrix) if r]
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
    return pivots


def exact_rank(matrix, ncols: int) -> int:
    """Rank over the rationals of {column: value} rows with int/Fraction
    entries in columns 0..ncols-1."""
    return len(_eliminate(matrix, ncols))


def exact_nullspace(matrix, ncols: int):
    """Basis of the rational nullspace, as sparse {column: Fraction} vectors.

    The pivot rows are back-substituted into the reduced row echelon form,
    which depends only on the row space, and each free column f gives the
    vector with 1 at f, minus the f-th reduced entry at each pivot column
    and 0 elsewhere; only pivots left of f have an entry at f, so the keys
    increase.  A matrix without rows has the identity basis.
    """
    pivots = _eliminate(matrix, ncols)
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
    order = sorted(reduced)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {col: -reduced[col][free] for col in order if free in reduced[col]}
        vec[free] = Fraction(1)
        basis.append(vec)
    return basis


def compose(a, b):
    """Rows of the product a b: row i is the sum over k of a[i][k] b[k],
    accumulated in the key order of a[i]."""
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row.items():
            add_scaled(acc, x, b[k])
        out.append(acc)
    return out


def combine(a, b, sa=1, sb=1):
    """Rows of sa * a + sb * b."""
    return [add_scaled(add_scaled({}, sa, r1), sb, r2) for r1, r2 in zip(a, b)]


def sparse_rows(matrix):
    """The {column: value} rows of a dense matrix."""
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def dense_rows(rows, ncols: int):
    """The dense matrix of sparse rows, with ``ncols`` columns."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]
