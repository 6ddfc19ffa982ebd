"""Operators against their direct definitions.

``curly_j`` and ``j_pullback`` apply sparse tables compiled once per
(J, degree).  The oracles below are the direct definitions: a pulled-back
1-form wedged into each argument slot in turn, and the wedge of the
pulled-back 1-forms.  They are compared on every basis form of every degree
on dims 2-8 and on random combinations, for the standard J, a rational
Givens-rotated J and a float J; ``bb_j`` and ``bb_j_matrix`` are compared
with their constructions on top of the oracle.

``lefschetz_lstar`` is the wedge adjoint of omega; its oracle is the
contraction formula 1/2 sum_i J e_i -| (e_i -| beta).  ``a_restricted_rank``
multiplies the antisymmetrization by the commuting projector; its oracle
sums each column of that product out of wedge-table forms.
"""

from fractions import Fraction
from math import factorial

import pytest

import hodgelab.hermitian as hermitian
from hodgelab.exterior import (
    Form,
    Space,
    basis_masks,
    contract,
    contract_index,
    mask_to_indices,
    wedge,
)
from hodgelab.hermitian import (
    ComplexStructure,
    bb_j,
    bb_j_matrix,
    curly_j,
    j_pullback,
    lambda_basis,
)
from hodgelab.lefschetz import lefschetz_lstar
from hodgelab.linalg import add_scaled, exact_rank
from hodgelab.rng import SplitMix64, random_form
from hodgelab.tensor_maps import _commuting_projector, _wedge_table, a_restricted_rank

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


def contraction_lstar(j_struct, beta):
    """Lstar by the contraction formula 1/2 sum_i J e_i -| (e_i -| beta)."""
    space = beta.space
    if beta.degree < 2:
        return space.zero_form(0)
    out = space.zero_form(beta.degree - 2)
    for i in range(1, space.dim + 1):
        out = out + contract(j_struct.basis_image(i), contract_index(i, beta))
    return out / 2


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", DIMS)
def test_lstar_matches_the_contraction_formula(kind, n):
    j = structure(kind, n)
    space = j.space
    rng = SplitMix64(2000 * n + KINDS.index(kind))
    for p in range(n + 1):
        forms = [Form(space, p, {m: space.scalar(1)}) for m in basis_masks(n, p)]
        forms.append(random_form(space, p, rng, integer=True, terms=6))
        for beta in forms:
            assert_same(lefschetz_lstar(j, beta), contraction_lstar(j, beta))


def column_sum_restricted_rank(j_struct, p, q):
    """Rank of the columns a(1/2 (b_d (x) c_e + sum Jp[i][d] Jq[k][e] b_i (x) c_k))."""
    jp = bb_j_matrix(j_struct, p)
    jq = bb_j_matrix(j_struct, q)
    table = _wedge_table(j_struct, p, q)
    dp, dq = len(jp), len(jq)
    pos = {m: i for i, m in enumerate(basis_masks(j_struct.space.dim, p + q))}
    scale = Fraction(factorial(p), 2)
    rows = [{} for _ in pos]
    for d in range(dp):
        for e in range(dq):
            total = table[d][e]
            for i in range(dp):
                for k in range(dq):
                    if jp[i][d] * jq[k][e] != 0:
                        total = total + (jp[i][d] * jq[k][e]) * table[i][k]
            for m, c in total.coeffs.items():
                rows[pos[m]][d * dq + e] = c * scale
    return exact_rank(rows, dp * dq)


def type_pairs(n):
    k = n // 2
    return [(p, q) for p in range(1, k + 1) for q in range(1, k + 1) if p != q]


@pytest.mark.parametrize("kind", ("standard", "rotated"))
@pytest.mark.parametrize("n", (4, 6, 8))
def test_a_restricted_rank_matches_the_column_sums(kind, n):
    j = structure(kind, n)
    for p, q in type_pairs(n):
        assert a_restricted_rank(j, p, q) == column_sum_restricted_rank(j, p, q)


@pytest.mark.parametrize("kind", ("standard", "rotated"))
@pytest.mark.parametrize("n", (4, 6, 8))
def test_commuting_projector_is_the_idempotent_half_sum(kind, n):
    j = structure(kind, n)
    for p, q in type_pairs(n) + [(p, p) for p in range(1, n // 2 + 1)]:
        jp, jq = bb_j_matrix(j, p), bb_j_matrix(j, q)
        dp, dq = len(jp), len(jq)
        rows = _commuting_projector(j, p, q)
        # entry for entry 1/2 (I + Jp (x) Jq), by the dense definition
        for i in range(dp):
            for k in range(dq):
                dense = {
                    d * dq + e: Fraction(jp[i][d] * jq[k][e] + (i == d and k == e), 2)
                    for d in range(dp)
                    for e in range(dq)
                }
                assert rows[i * dq + k] == {c: v for c, v in dense.items() if v != 0}
        # (Jp (x) Jq)^2 = I, so P P = P
        for row in rows:
            square: dict = {}
            for c, v in row.items():
                add_scaled(square, v, rows[c])
            assert square == row
