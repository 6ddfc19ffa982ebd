"""Differential oracle: exact_rank / exact_nullspace against sympy over QQ.

The nullspace basis read off the reduced row echelon form is canonical, so
it must equal sympy's ``Matrix.nullspace()`` entry for entry, not just span
the same space.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgelab.exterior import Form, Space, basis_masks
from hodgelab.hermitian import ComplexStructure, lambda_basis
from hodgelab.lefschetz import lefschetz_lstar, primitive_basis
from hodgelab.linalg import exact_nullspace, exact_rank
from hodgelab.tensor_maps import _structural_rows, a_full_matrix


def _dense(rows, ncols):
    out = []
    for row in rows:
        if isinstance(row, dict):
            out.append([row.get(c, 0) for c in range(ncols)])
        else:
            out.append(list(row))
    return out


def _sympy_matrix(rows, ncols):
    dense = _dense(rows, ncols)
    entries = [sympy.Rational(Fraction(v).numerator, Fraction(v).denominator)
               for row in dense for v in row]
    return sympy.Matrix(len(dense), ncols, entries)


def _assert_matches_sympy(rows, ncols):
    m = _sympy_matrix(rows, ncols)
    expected = [[Fraction(int(v.p), int(v.q)) for v in vec] for vec in m.nullspace()]
    assert exact_nullspace(rows, ncols) == expected
    assert exact_rank(rows, ncols) == m.rank()


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
def test_random_dense_rows_match_sympy(case):
    dense, ncols = case
    _assert_matches_sympy(dense, ncols)


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
def test_random_dict_rows_match_sympy(case):
    dense, ncols = case
    rows = [{c: v for c, v in enumerate(row) if v != 0} for row in dense]
    _assert_matches_sympy(rows, ncols)


@settings(max_examples=100, deadline=None)
@given(_sparse_matrices())
def test_width_defaults_to_the_dense_row_length(case):
    dense, ncols = case
    if not dense:
        return
    assert exact_nullspace(dense) == exact_nullspace(dense, ncols)
    assert exact_rank(dense) == exact_rank(dense, ncols)


@pytest.mark.parametrize("ncols", [1, 3, 5])
def test_matrix_without_rows_has_the_identity_nullspace(ncols):
    identity = [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    assert exact_nullspace([], ncols) == identity
    assert exact_rank([], ncols) == 0
    _assert_matches_sympy([], ncols)


def test_input_rows_are_not_modified():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4, 2: 1}]
    snapshot = [dict(r) for r in rows]
    exact_nullspace(rows, 3)
    exact_rank(rows, 3)
    assert rows == snapshot


def test_structural_torsion_rows_match_sympy():
    rows, npairs = _structural_rows(ComplexStructure.standard(Space(4)))
    _assert_matches_sympy(rows, 4 * npairs)


@pytest.mark.parametrize("dim", [4, 6])
def test_primitive_system_matches_sympy(dim):
    j = ComplexStructure.standard(Space(dim))
    space = j.space
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
            for vec in exact_nullspace(rows, len(masks))
        ]
        assert primitive_basis(j, degree) == expected


@pytest.mark.parametrize("p,q", [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)])
def test_antisymmetrization_system_matches_sympy(p, q):
    j = ComplexStructure.standard(Space(6))
    ncols = lambda_basis(j, p).dim * lambda_basis(j, q).dim
    _assert_matches_sympy(a_full_matrix(j, p, q), ncols)

