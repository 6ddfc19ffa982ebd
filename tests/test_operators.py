"""Compiled J-operators against their per-slot wedge definitions.

``curly_j`` and ``j_pullback`` apply sparse tables compiled once per
(J, degree).  The oracles below are the direct definitions: a pulled-back
1-form wedged into each argument slot in turn, and the wedge of the
pulled-back 1-forms.  They are compared on every basis form of every degree
on dims 2-8 and on random combinations, for the standard J, a rational
Givens-rotated J and a float J; ``bb_j`` and ``bb_j_matrix`` are compared
with their constructions on top of the oracle.
"""

from fractions import Fraction

import pytest

import hodgelab.hermitian as hermitian
from hodgelab.exterior import Form, Space, basis_masks, mask_to_indices, wedge
from hodgelab.hermitian import (
    ComplexStructure,
    bb_j,
    bb_j_matrix,
    curly_j,
    j_pullback,
    lambda_basis,
)
from hodgelab.rng import SplitMix64, random_form

DIMS = (2, 4, 6, 8)


def pulled_one_form(j_struct, i):
    """The pullback of e^i under J: row i of the matrix (1-based)."""
    return Form(j_struct.space, 1, {1 << c: v for c, v in enumerate(j_struct.rows[i - 1])})


def slot_curly_j(j_struct, alpha):
    """cal-J by its definition: e^{I<i} ^ J^* e^i ^ e^{I>i} summed over the slots i."""
    space = alpha.space
    one = space.scalar(1)
    out = space.zero_form(alpha.degree)
    for mask, coeff in alpha.coeffs.items():
        indices = mask_to_indices(mask)
        for r, i in enumerate(indices):
            prefix = mask & ((1 << (i - 1)) - 1)
            suffix = mask ^ prefix ^ (1 << (i - 1))
            piece = wedge(Form(space, r, {prefix: coeff}), pulled_one_form(j_struct, i))
            out = out + wedge(piece, Form(space, len(indices) - r - 1, {suffix: one}))
    return out


def wedge_pullback(j_struct, alpha):
    """J alpha by its definition: J^* e^{i1} ^ ... ^ J^* e^{ip} for each term."""
    space = alpha.space
    out = space.zero_form(alpha.degree)
    for mask, coeff in alpha.coeffs.items():
        term = Form(space, 0, {0: coeff})
        for i in mask_to_indices(mask):
            term = wedge(term, pulled_one_form(j_struct, i))
        out = out + term
    return out


def rotated_rows(n, cos, sin):
    """R J0 R^T for the standard J0 and the rotation R in the (1, n) plane,
    which joins the first J-block to the last one when n >= 4."""
    one = cos * cos + sin * sin  # 1 in the scalar type of cos and sin
    rows = [[one - one] * n for _ in range(n)]
    for i in range(0, n, 2):
        rows[i][i + 1] = -one
        rows[i + 1][i] = one
    p, q = 0, n - 1
    for row in rows:
        row[p], row[q] = cos * row[p] - sin * row[q], sin * row[p] + cos * row[q]
    rows[p], rows[q] = ([cos * x - sin * y for x, y in zip(rows[p], rows[q])],
                        [sin * x + cos * y for x, y in zip(rows[p], rows[q])])
    return rows


def structure(kind, n):
    if kind == "standard":
        return ComplexStructure.standard(Space(n))
    if kind == "rotated":
        return ComplexStructure(Space(n), rotated_rows(n, Fraction(3, 5), Fraction(4, 5)))
    return ComplexStructure(Space(n, "float"), rotated_rows(n, 0.6, 0.8))


KINDS = ("standard", "rotated", "float")


def assert_same(got, want):
    assert got.degree == want.degree
    if got.space.backend == "exact":
        assert got == want
    else:
        assert got.isclose(want, 1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", DIMS)
def test_compiled_operators_match_the_wedge_definitions(kind, n):
    j = structure(kind, n)
    space = j.space
    rng = SplitMix64(1000 * n + KINDS.index(kind))
    for p in range(n + 1):
        forms = [Form(space, p, {m: space.scalar(1)}) for m in basis_masks(n, p)]
        forms.append(random_form(space, p, rng, integer=True, terms=6))
        for alpha in forms:
            assert_same(curly_j(j, alpha), slot_curly_j(j, alpha))
            assert_same(j_pullback(j, alpha), wedge_pullback(j, alpha))


def test_rotated_structure_is_not_a_signed_permutation():
    rows = structure("rotated", 6).rows
    assert any(sum(1 for v in row if v != 0) > 1 for row in rows)


@pytest.mark.parametrize("kind", ("standard", "rotated"))
@pytest.mark.parametrize("n", DIMS)
def test_bb_j_matches_the_slot_definition(kind, n):
    j = structure(kind, n)
    for p in range(1, n // 2 + 1):
        for b in lambda_basis(j, p).forms:
            assert bb_j(j, b) == slot_curly_j(j, b) * Fraction(1, p)


@pytest.mark.parametrize("n", DIMS)
def test_bb_j_on_a_float_structure(n):
    exact, j = structure("rotated", n), structure("float", n)
    for p in range(1, n // 2 + 1):
        for b in lambda_basis(exact, p).forms:
            f = Form(j.space, p, b.coeffs)
            assert_same(bb_j(j, f), slot_curly_j(j, f) * (1.0 / p))


@pytest.mark.parametrize("kind", ("standard", "rotated"))
@pytest.mark.parametrize("n", DIMS)
def test_bb_j_matrix_matches_the_slot_construction(kind, n, monkeypatch):
    compiled = structure(kind, n)
    got = {p: bb_j_matrix(compiled, p) for p in range(1, n // 2 + 1)}
    # the same bases and matrices, with every curly_j call on the slot route
    monkeypatch.setattr(hermitian, "curly_j", slot_curly_j)
    oracle = structure(kind, n)
    for p, matrix in got.items():
        basis = lambda_basis(oracle, p)
        assert basis.forms == lambda_basis(compiled, p).forms
        cols = [basis.expand(slot_curly_j(oracle, b) * Fraction(1, p)) for b in basis.forms]
        want = [[cols[c][r] for c in range(basis.dim)] for r in range(basis.dim)]
        assert matrix == want
        assert bb_j_matrix(oracle, p) == want
