"""Exact rational linear algebra and the matrix helpers.

A linear map is a list of {column: value} rows without zeros; ``compose``
and ``combine`` multiply and add such maps, ``integer_rows`` builds them as
ints over one denominator, and ``sparse_rows``/``dense_rows`` convert the
dense matrices that numpy and the JSON codecs read.  ``integer_rows`` and
the elimination read values through ``numerators``, which refuses inexact
ones.  Rank and nullspace share one sparse elimination with a shortest-row
pivot heuristic over {column: value} rows of a given width.  It runs on
integers: each row is scaled once to primitive integers (coprime entries)
and stays primitive, in the spirit of Bareiss's fraction-free elimination
(Math. Comp. 22, 1968); the nullspace divides only when it back-substitutes.
The pivot search reads an index from each column to the rows that hold it,
updated as elimination adds and cancels entries, so no column scans the
remaining rows; the pivot rule (shortest row, then first in input order) is
the one a scan applies.  That is fast enough for every shipped system; the
largest is lemma-5.5's structural torsion rows with the J-invariant bullet
rows, [S; F], at dim 8: 1,464 rows, 224 columns.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

from .errors import InvariantViolationError


def numerators(values: dict):
    """``(nums, den)``: the int/Fraction values as integers over the lcm
    ``den`` of their denominators, so values[k] == nums[k] / den.

    When every value is already an int, ``nums`` is ``values`` itself, not a
    copy, so a caller that modifies ``nums`` passes a dict of its own.  A
    value without a numerator and denominator raises InvariantViolationError.
    """
    for v in values.values():
        if type(v) is not int:
            break
    else:
        return values, 1
    try:
        den = lcm(*[v.denominator for v in values.values()])
        return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den
    except AttributeError as exc:
        raise InvariantViolationError(f"exact values needed, got {type(exc.obj).__name__}") from exc


def integer_rows(entries, nrows: int):
    """``(rows, den)`` from (row, column, value) triples of int/Fraction
    values: ``nrows`` {column: int} rows, zeros dropped, over den = the lcm
    of the value denominators (1 for ints), so value == rows[row][column] / den
    in lowest terms; each row keeps its columns in arrival order."""
    nums, den = numerators({(r, c): v for r, c, v in entries if v})
    rows: list[dict] = [{} for _ in range(nrows)]
    for (r, c), v in nums.items():
        rows[r][c] = v
    return rows, den


def _make_primitive(row: dict) -> dict:
    """Divide a nonzero integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g
    return row


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

    Each row is scaled once to primitive integers.  Eliminating column col
    of a row r on the pivot row P with entry piv there gives
    (piv/g) r - (r[col]/g) P with g = gcd(piv, r[col]), made primitive
    again.  Scaling changes no support, so the pivots are those of rational
    elimination: columns are taken in increasing order and each is pivoted
    on the shortest remaining row containing it (the first such in input
    order), so every pivot row is zero left of its pivot column, and each
    pivot row is a nonzero multiple of the rational one.  ``holders`` maps
    each column to the input positions of the remaining rows with an entry
    there and follows every entry that elimination adds or cancels, so the
    pivot of col is the minimum of holders[col] by (row length, position):
    the rule above, without a scan of the remaining rows.  The rows holding
    col are eliminated in input order.  The rows are copied, never
    modified.
    """
    rows = []
    holders = defaultdict(set)
    for row in matrix:
        row = {c: v for c, v in row.items() if v != 0}
        if row:
            for c in row:
                holders[c].add(len(rows))
            rows.append(_make_primitive(numerators(row)[0]))
    pivots = {}
    for col in range(ncols):
        held = holders.pop(col, None)
        if not held:
            continue
        pos = min(held, key=lambda i: (len(rows[i]), i))
        pivot_row = pivots[col] = rows[pos]
        held.remove(pos)
        others = [(c, v) for c, v in pivot_row.items() if c != col]
        for c, _ in others:
            holders[c].discard(pos)
        piv = pivot_row[col]
        for i in sorted(held):
            r = rows[i]
            x = r.pop(col)
            g = gcd(piv, x)
            scale = piv // g
            if scale != 1:
                for c in r:
                    r[c] *= scale
            factor = -(x // g)
            for c, v in others:
                old = r.get(c)
                if old is None:
                    r[c] = factor * v
                    holders[c].add(i)
                else:
                    nv = old + factor * v
                    if nv:
                        r[c] = nv
                    else:
                        del r[c]
                        holders[c].discard(i)
            if r:
                _make_primitive(r)
    return pivots


def exact_rank(matrix, ncols: int) -> int:
    """Rank over the rationals of {column: value} rows with int/Fraction
    entries in columns 0..ncols-1."""
    return len(_eliminate(matrix, ncols))


def row_basis(matrix, ncols: int):
    """A basis of the row space: the pivot rows of the elimination, primitive
    integer {column: value} rows in increasing order of their pivot column."""
    return list(_eliminate(matrix, ncols).values())


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
        row = {c: Fraction(v, piv) for c, v in row.items()}
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


def _lazy_numpy():
    """numpy, executed on its first attribute access rather than at import.

    No module body may touch an ``np.`` attribute at import time, or the
    exact path executes numpy after all.  An imported numpy is returned as is.
    """
    if "numpy" not in sys.modules:
        spec = importlib.util.find_spec("numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules["numpy"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["numpy"])
    return sys.modules["numpy"]
