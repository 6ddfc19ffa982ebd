"""Differential oracles: exact_rank / exact_nullspace against sympy over QQ,
and the sparse-row helpers against dense matrix arithmetic.

The nullspace basis read off the reduced row echelon form is canonical, and
so is its primitive integer form with a positive entry at the free column:
each vector must equal sympy's ``Matrix.nullspace()`` vector scaled to that
form, entry for entry, not just span the same space.  The ``Fraction``
back-substitution of the reduced rows is kept here as a second oracle.
``compose`` and ``combine`` must equal the dense product and sum entry for
entry, float entries included: both accumulate in the same order, so float
results compare with ``==``.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgelab.errors import InvariantViolationError
from hodgelab.exterior import Form, Space, basis_masks
from hodgelab.hermitian import ComplexStructure, lambda_basis
from hodgelab.lefschetz import lefschetz_lstar, primitive_basis
from hodgelab.linalg import (
    _eliminate,
    _make_primitive,
    add_scaled,
    combine,
    compose,
    dense_rows,
    exact_nullspace,
    exact_rank,
    integer_rows,
    numerators,
    row_basis,
    sparse_rows,
)
from hodgelab.tensor_maps import (
    _structural_rows,
    a_full_matrix,
    admissible_torsion_basis,
    invariant_skew_basis,
)

from conftest import rotated_j


def _sympy_matrix(rows, ncols):
    dense = dense_rows(rows, ncols)
    entries = [sympy.Rational(Fraction(v).numerator, Fraction(v).denominator)
               for row in dense for v in row]
    return sympy.Matrix(len(dense), ncols, entries)


def _primitive_multiple(vec):
    """The primitive integer multiple of a nonzero rational vector by a
    positive factor: for a sympy nullspace vector, which holds 1 at its free
    column, the canonical form that ``exact_nullspace`` returns."""
    den = lcm(*[Fraction(v).denominator for v in vec])
    ints = [int(v * den) for v in vec]
    g = gcd(*ints)
    return [v // g for v in ints]


def _assert_matches_sympy(rows, ncols):
    m = _sympy_matrix(rows, ncols)
    expected = [_primitive_multiple([Fraction(int(v.p), int(v.q)) for v in vec])
                for vec in m.nullspace()]
    got = dense_rows(exact_nullspace(rows, ncols), ncols)
    assert got == expected
    assert all(type(v) is int for vec in got for v in vec)
    assert exact_rank(rows, ncols) == m.rank()


def oracle_fraction_nullspace(matrix, ncols):
    """The nullspace as it was read off in ``Fraction``s: each pivot row is
    divided by its pivot and reduced by the later reduced rows, and free
    column f gives 1 at f and minus the f-th reduced entry at each pivot."""
    pivots = _eliminate(matrix, ncols)
    reduced = {}
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        piv = row[col]
        row = {c: Fraction(v, piv) for c, v in row.items()}
        for k in [k for k in row if k in reduced]:
            add_scaled(row, -row[k], reduced[k])
        reduced[col] = row
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = {col: -reduced[col][free] for col in sorted(reduced) if free in reduced[col]}
            vec[free] = Fraction(1)
            basis.append(vec)
    return basis


_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
)


@st.composite
def _sparse_matrices(draw):
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 7))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    dense = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            nonzero = draw(st.floats(0, 1)) < density
            row.append(draw(_ENTRIES) if nonzero else 0)
        dense.append(row)
    return dense, ncols


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
def test_random_dict_rows_match_sympy(case):
    dense, ncols = case
    rows = [{c: v for c, v in enumerate(row) if v != 0} for row in dense]
    _assert_matches_sympy(rows, ncols)


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
def test_integer_nullspace_is_a_coprime_positive_multiple_of_the_fraction_one(case):
    """Vector for vector, the int basis is the Fraction oracle's scaled by a
    positive integer, with coprime entries, over the same keys in order."""
    dense, ncols = case
    rows = sparse_rows(dense)
    got = exact_nullspace(rows, ncols)
    want = oracle_fraction_nullspace(rows, ncols)
    assert len(got) == len(want)
    for vec, ref in zip(got, want):
        assert list(vec) == list(ref)
        assert all(type(v) is int for v in vec.values())
        assert gcd(*vec.values()) == 1
        # the free column, the last key, holds 1 in the oracle's vector
        scale = vec[next(reversed(ref))]
        assert scale > 0
        assert vec == {c: scale * v for c, v in ref.items()}


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
def test_row_basis_is_a_primitive_basis_of_the_row_space(case):
    """As many rows as the sympy rank, each a primitive integer row, and
    appending them to the input leaves the rank unchanged."""
    dense, ncols = case
    rows = sparse_rows(dense)
    basis = row_basis(rows, ncols)
    rank = _sympy_matrix(rows, ncols).rank()
    assert len(basis) == rank
    for row in basis:
        assert row and all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1
    assert _sympy_matrix(rows + basis, ncols).rank() == rank
    assert sparse_rows(dense) == rows


@pytest.mark.parametrize("ncols", [1, 3, 5])
def test_matrix_without_rows_has_the_identity_nullspace(ncols):
    identity = [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    assert dense_rows(exact_nullspace([], ncols), ncols) == identity
    assert exact_rank([], ncols) == 0
    _assert_matches_sympy([], ncols)


# rows with denominators 2 to 11; row 3 is 3/2 row 1 - 5/7 row 2, so it
# cancels to zero once columns 0 and 1 are eliminated, with columns left
_MIXED_DENOMINATOR_ROWS = [
    {0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1, 5), 4: Fraction(-2, 9)},
    {0: Fraction(2, 7), 1: Fraction(-3, 4), 3: Fraction(5, 6)},
    {0: Fraction(3, 4) - Fraction(10, 49), 1: Fraction(1, 2) + Fraction(15, 28),
     2: Fraction(3, 10), 3: Fraction(-25, 42), 4: Fraction(-1, 3)},
    {1: Fraction(1, 9), 2: Fraction(7, 10), 3: Fraction(1, 11)},
    {2: 3, 4: Fraction(-4, 3)},
]


def test_numerators_are_integers_over_the_lcm():
    values = {3: Fraction(1, 6), 5: -2, 7: Fraction(3, 4), 9: Fraction(4, 1)}
    nums, den = numerators(values)
    assert den == 12 and nums == {3: 2, 5: -24, 7: 9, 9: 48}
    assert all(type(v) is int for v in nums.values())
    assert all(Fraction(nums[k], den) == v for k, v in values.items())
    ints = {0: 4, 2: -6}
    assert numerators(ints) == (ints, 1)
    assert numerators({}) == ({}, 1)


def test_integer_rows_are_numerators_over_the_lcm_in_arrival_order():
    entries = [(2, 4, Fraction(1, 6)), (0, 3, 5), (2, 1, Fraction(-3, 4)),
               (0, 0, Fraction(0)), (1, 2, 0), (0, 1, Fraction(4, 2))]
    rows, den = integer_rows(entries, 4)
    assert den == 12
    assert rows == [{3: 60, 1: 24}, {}, {4: 2, 1: -9}, {}]
    # each row keeps its columns in the order their entries arrived
    assert [list(row) for row in rows] == [[3, 1], [], [4, 1], []]
    assert all(type(v) is int for row in rows for v in row.values())
    for r, c, v in entries:
        assert Fraction(rows[r].get(c, 0), den) == v
    # lowest terms: den shares no factor with every numerator
    assert integer_rows([(0, 0, Fraction(1, 2)), (0, 1, Fraction(3, 2))], 1) == ([{0: 1, 1: 3}], 2)
    assert integer_rows([(1, 0, 4), (0, 2, -6), (0, 1, 0)], 2) == ([{2: -6}, {0: 4}], 1)
    assert integer_rows([], 3) == ([{}, {}, {}], 1)


def test_mixed_denominators_and_a_row_cancelling_mid_elimination_match_sympy():
    rows = _MIXED_DENOMINATOR_ROWS
    assert exact_rank(rows, 5) == 4
    assert exact_rank(rows[:3], 5) == 2
    assert sorted(_eliminate(rows[:3], 5)) == [0, 1]
    _assert_matches_sympy(rows, 5)
    _assert_matches_sympy(rows[:3], 5)
    _assert_matches_sympy(list(reversed(rows)), 5)


def test_pivot_rows_are_primitive_integer_rows():
    pivots = _eliminate(_MIXED_DENOMINATOR_ROWS, 5)
    assert sorted(pivots) == [0, 1, 2, 3]
    for col, row in pivots.items():
        assert all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1
        assert min(row) == col


def test_input_rows_are_not_modified():
    # the integer rows are not primitive, and the fraction rows are scaled
    for rows, ncols in (
        ([{0: 1, 1: 2}, {0: 2, 1: 4, 2: 1}], 3),
        ([dict(r) for r in _MIXED_DENOMINATOR_ROWS] + [{0: 4, 1: 6}, {0: 6, 1: 9}], 5),
    ):
        snapshot = [dict(r) for r in rows]
        types = [[type(v) for v in r.values()] for r in rows]
        exact_nullspace(rows, ncols)
        exact_rank(rows, ncols)
        assert rows == snapshot
        assert [[type(v) for v in r.values()] for r in rows] == types


def scan_eliminate(matrix, ncols):
    """The elimination that scans every remaining row for each column's
    pivot: the shortest row holding the column, the first such in input
    order."""
    active = []
    for row in matrix:
        row = {c: v for c, v in row.items() if v != 0}
        if row:
            active.append(_make_primitive(numerators(row)[0]))
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
                x = r[col]
                g = gcd(piv, x)
                scale = piv // g
                if scale != 1:
                    for c in r:
                        r[c] *= scale
                add_scaled(r, -(x // g), pivot_row)
                if r:
                    _make_primitive(r)
            if r:
                remaining.append(r)
        active = remaining
    return pivots


@st.composite
def _tied_rows(draw):
    """(rows, ncols): sparse rows of one to three entries, so that many rows
    tie on length, plus scaled duplicates and combinations of two earlier
    rows, which cancel to zero (or to a shorter row) mid-elimination."""
    ncols = draw(st.integers(1, 8))
    nonzero = _ENTRIES.filter(lambda v: v != 0)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        support = draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=3))
        rows.append({c: draw(nonzero) for c in sorted(support)})
    for _ in range(draw(st.integers(0, 4))):
        if not rows:
            break
        first = draw(st.sampled_from(rows))
        second = draw(st.sampled_from(rows + [{}]))
        row = add_scaled(add_scaled({}, draw(nonzero), first), draw(_ENTRIES), second)
        rows.append(row)
    return draw(st.permutations(rows)), ncols


@settings(max_examples=400, deadline=None)
@given(_tied_rows())
def test_indexed_pivot_search_matches_the_scan(case):
    rows, ncols = case
    snapshot = [list(r.items()) for r in rows]
    got = _eliminate(rows, ncols)
    want = scan_eliminate([dict(r) for r in rows], ncols)
    assert list(got) == list(want)
    assert got == want
    assert [list(r.items()) for r in rows] == snapshot


def test_structural_torsion_rows_match_sympy():
    rows, npairs = _structural_rows(ComplexStructure.standard(Space(4)))
    _assert_matches_sympy(rows, 4 * npairs)


@pytest.mark.parametrize("j", [
    ComplexStructure.standard(Space(4)),
    ComplexStructure.standard(Space(6)),
    rotated_j(6),
], ids=["4", "6", "rotated6"])
def test_primitive_system_matches_sympy(j):
    """On the rotated J the adjoint Lefschetz rows have denominator 5, so
    ``primitive_basis`` builds them as ints over a denominator above 1."""
    space = j.space
    dim = space.dim
    for degree in range(2, dim + 1):
        masks = basis_masks(dim, degree)
        pos = {m: i for i, m in enumerate(basis_masks(dim, degree - 2))}
        rows = [{} for _ in pos]
        for col, m in enumerate(masks):
            image = lefschetz_lstar(j, Form(space, degree, {m: 1}))
            for im, c in image.coeffs.items():
                rows[pos[im]][col] = c
        _assert_matches_sympy(rows, len(masks))
        expected = [
            Form(space, degree, {m: v for m, v in zip(masks, vec) if v != 0})
            for vec in dense_rows(exact_nullspace(rows, len(masks)), len(masks))
        ]
        assert primitive_basis(j, degree) == expected


@pytest.mark.parametrize("build", [
    lambda j: primitive_basis(j, 2), admissible_torsion_basis, invariant_skew_basis,
], ids=["primitive_basis", "admissible_torsion_basis", "invariant_skew_basis"])
def test_exact_kernels_refuse_a_float_structure(build):
    with pytest.raises(InvariantViolationError):
        build(ComplexStructure.standard(Space(4, "float")))


def test_elimination_refuses_float_entries():
    with pytest.raises(InvariantViolationError):
        exact_rank([{0: 0.5}], 1)
    with pytest.raises(InvariantViolationError):
        integer_rows([(0, 0, Fraction(1, 2)), (0, 1, 0.5)], 1)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)])
def test_antisymmetrization_system_matches_sympy(p, q):
    j = ComplexStructure.standard(Space(6))
    ncols = lambda_basis(j, p).dim * lambda_basis(j, q).dim
    _assert_matches_sympy(a_full_matrix(j, p, q), ncols)


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
def test_nullspace_vectors_have_increasing_keys_and_no_zeros(case):
    dense, ncols = case
    for vec in exact_nullspace(sparse_rows(dense), ncols):
        keys = list(vec)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(v != 0 for v in vec.values())


# -- the sparse-row helpers against dense arithmetic -------------------------


def mat_mul(a, b):
    """Dense matrix product; zero entries of either factor cost no arithmetic."""
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
    """sa * a + sb * b on dense matrices; zero entries cost no arithmetic."""
    return [
        [(sa * x + sb * y if y else sa * x) if x else (sb * y if y else 0) for x, y in zip(r1, r2)]
        for r1, r2 in zip(a, b)
    ]


# small values, so that products and sums often cancel exactly
_HELPER_ENTRIES = {
    "int": st.integers(-2, 2),
    "fraction": st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    "float": st.one_of(
        st.sampled_from([0.0, 0.5, -0.5, 0.1, -0.1, 0.2, -0.2, 0.3, -0.3]),
        st.floats(-4, 4, allow_nan=False, allow_subnormal=False),
    ),
}


def _dense_matrix(draw, entries, nrows, ncols):
    """Rows that are all zero or drawn entry by entry."""
    zero = st.just([0] * ncols)
    return [draw(st.one_of(zero, st.lists(entries, min_size=ncols, max_size=ncols)))
            for _ in range(nrows)]


@st.composite
def _operands(draw):
    """(a, b, c, kind): a is m x k, b is k x n, c is m x k."""
    kind = draw(st.sampled_from(sorted(_HELPER_ENTRIES)))
    entries = _HELPER_ENTRIES[kind]
    m, k, n = draw(st.integers(0, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = _dense_matrix(draw, entries, m, k)
    b = _dense_matrix(draw, entries, k, n)
    # c is a, -a (so that sums cancel) or drawn
    sign = draw(st.sampled_from([1, -1, None]))
    if sign is None:
        c = _dense_matrix(draw, entries, m, k)
    else:
        c = [[sign * v for v in row] for row in a]
    return a, b, c, kind


def _no_zeros(rows):
    return all(v != 0 for row in rows for v in row.values())


@settings(max_examples=400, deadline=None)
@given(_operands())
def test_compose_matches_the_dense_product(case):
    a, b, _, _ = case
    got = compose(sparse_rows(a), sparse_rows(b))
    assert _no_zeros(got)
    assert dense_rows(got, len(b[0])) == mat_mul(a, b)


@settings(max_examples=400, deadline=None)
@given(_operands(), st.sampled_from([(1, 1), (1, -1), (-1, 1), (Fraction(1, 2), Fraction(-1, 2)),
                                     (2, 3), (0.5, -0.25)]))
def test_combine_matches_the_dense_sum(case, scales):
    a, _, c, kind = case
    sa, sb = scales
    if kind != "float" and isinstance(sa, float):
        sa, sb = Fraction(sa), Fraction(sb)
    ncols = len(a[0]) if a else 0
    got = combine(sparse_rows(a), sparse_rows(c), sa, sb)
    assert _no_zeros(got)
    assert dense_rows(got, ncols) == mat_add(a, c, sa, sb)
    assert dense_rows(combine(sparse_rows(a), sparse_rows(c)), ncols) == mat_add(a, c)


def test_cancelling_entries_are_dropped():
    assert compose([{0: 1, 1: 1}], [{0: 1, 1: 2}, {0: -1, 1: -2}]) == [{}]
    assert compose([{0: 0.5, 1: 0.5}], [{0: 0.25}, {0: -0.25}]) == [{}]
    a = [{0: Fraction(1, 3), 2: -1}, {}]
    assert combine(a, a, 1, -1) == [{}, {}]
    assert combine(a, a, Fraction(1, 2), Fraction(1, 2)) == a
    assert combine(a, [{0: Fraction(-1, 3)}, {1: 2}]) == [{2: -1}, {1: 2}]
