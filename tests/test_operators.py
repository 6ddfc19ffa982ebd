"""Operators against their direct definitions.

``curly_j`` and ``j_pullback`` apply sparse tables compiled once per
(J, degree).  The oracles below are the direct definitions: a pulled-back
1-form wedged into each argument slot in turn, and the wedge of the
pulled-back 1-forms.  They are compared on every basis form of every degree
on dims 2-8 and on random combinations, for the standard J, a rational
Givens-rotated J and a float J; ``bb_j`` and ``bb_j_matrix`` are compared
with their constructions on top of the oracle.

``lefschetz_lstar`` is the wedge adjoint of omega; its oracle is the
contraction formula 1/2 sum_i J e_i -| (e_i -| beta).  ``p_k`` contracts
through the wedge adjoints of e^I and J e^I; its oracle is the iterated
single contractions against e_i and J e_i.  ``a_restricted_rank``
multiplies the antisymmetrization by the commuting projector; its oracle
sums each column of that product out of wedge-table forms.

``LambdaBasis`` stops Gram-Schmidt at the known rank and ``bb_j`` tests
membership on its own image; their oracles are the full Gram-Schmidt over
every mask and the ``bb_j`` that runs the Lagrange projection first, compared
on dims 2-8 in every degree for the standard, the once- and the
twice-rotated rational J.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

import hodgelab.hermitian as hermitian
from hodgelab.errors import DegreeUnderflowError, NotInLambdaPError
from hodgelab.exterior import (
    Form,
    Space,
    basis_masks,
    contract,
    contract_index,
    inner,
    mask_to_indices,
    wedge,
)
from hodgelab.hermitian import (
    ComplexStructure,
    LambdaBasis,
    _primitive_integer_form,
    bb_j,
    bb_j_matrix,
    curly_j,
    in_lambda_p,
    j_pullback,
    lambda_basis,
    lambda_p_project,
)
from hodgelab.lefschetz import kahler_form, lefschetz_lstar, p_k
from hodgelab.linalg import add_scaled, exact_rank
from hodgelab.rng import SplitMix64, random_form
from hodgelab.tensor_maps import _commuting_projector, _wedge_table, a_restricted_rank

DIMS = (2, 4, 6, 8)


def dense_matrix(rows):
    """The dense square matrix of {column: value} rows."""
    return [[row.get(c, 0) for c in range(len(rows))] for row in rows]


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


def givens_conjugate(rows, p, q, cos, sin):
    """R rows R^T for the rotation R in the (p+1, q+1) coordinate plane."""
    rows = [list(row) for row in rows]
    for row in rows:
        row[p], row[q] = cos * row[p] - sin * row[q], sin * row[p] + cos * row[q]
    rows[p], rows[q] = ([cos * x - sin * y for x, y in zip(rows[p], rows[q])],
                        [sin * x + cos * y for x, y in zip(rows[p], rows[q])])
    return rows


def rotated_rows(n, cos, sin):
    """R J0 R^T for the standard J0 and the rotation R in the (1, n) plane,
    which joins the first J-block to the last one when n >= 4."""
    one = cos * cos + sin * sin  # 1 in the scalar type of cos and sin
    rows = [[one - one] * n for _ in range(n)]
    for i in range(0, n, 2):
        rows[i][i + 1] = -one
        rows[i + 1][i] = one
    return givens_conjugate(rows, 0, n - 1, cos, sin)


def twice_rotated_rows(n):
    """The 3/5-4/5 rotated J conjugated again by a 5/13-12/13 rotation in the
    (2, 3) plane, which also joins the first J-block to the second."""
    rows = rotated_rows(n, Fraction(3, 5), Fraction(4, 5))
    p, q = (1, 2) if n >= 4 else (0, 1)
    return givens_conjugate(rows, p, q, Fraction(5, 13), Fraction(12, 13))


def structure(kind, n):
    if kind == "standard":
        return ComplexStructure.standard(Space(n))
    if kind == "rotated":
        return ComplexStructure(Space(n), rotated_rows(n, Fraction(3, 5), Fraction(4, 5)))
    if kind == "twice-rotated":
        return ComplexStructure(Space(n), twice_rotated_rows(n))
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
        assert dense_matrix(matrix) == want
        assert dense_matrix(bb_j_matrix(oracle, p)) == want


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


def contraction_p_k(j_struct, alpha, beta, k):
    """P_k by iterated contractions: k! times the sum over increasing
    (i1 < ... < ik) of (e_i1 -| ... -| e_ik -| alpha) ^ (J e_i1 -| ... -| J e_ik -| beta)."""
    space = alpha.space
    if k == 0:
        return wedge(alpha, beta)
    out = space.zero_form(alpha.degree + beta.degree - 2 * k)
    for combo in combinations(range(1, space.dim + 1), k):
        left, right = alpha, beta
        for i in reversed(combo):  # innermost contraction uses the last index
            left = contract_index(i, left)
            right = contract(j_struct.basis_image(i), right)
        out = out + wedge(left, right)
    return factorial(k) * out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", DIMS)
def test_p_k_matches_the_iterated_contractions(kind, n):
    j = structure(kind, n)
    space = j.space
    rng = SplitMix64(4000 * n + KINDS.index(kind))
    degrees = range(1, min(4, n) + 1)
    for r in degrees:
        for s in degrees:
            alpha = random_form(space, r, rng, terms=6)
            beta = random_form(space, s, rng, terms=6)
            # the result degree r + s - 2k must not pass n
            for k in range(max(0, r + s - n + 1) // 2, min(r, s) + 1):
                assert_same(p_k(j, alpha, beta, k), contraction_p_k(j, alpha, beta, k))


def column_sum_restricted_rank(j_struct, p, q):
    """Rank of the columns a(1/2 (b_d (x) c_e + sum Jp[i][d] Jq[k][e] b_i (x) c_k))."""
    jp = dense_matrix(bb_j_matrix(j_struct, p))
    jq = dense_matrix(bb_j_matrix(j_struct, q))
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
        jp, jq = dense_matrix(bb_j_matrix(j, p)), dense_matrix(bb_j_matrix(j, q))
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


EXACT_KINDS = ("standard", "rotated", "twice-rotated")


def full_gram_schmidt(j_struct, degree):
    """Every mask projected and orthogonalized, with <b, b> recomputed per
    candidate; returns the forms, their norms and the masks that added one."""
    space = j_struct.space
    forms, used = [], []
    for mask in basis_masks(space.dim, degree):
        candidate = lambda_p_project(j_struct, Form(space, degree, {mask: 1}))
        for b in forms:
            candidate = candidate - Fraction(inner(candidate, b), inner(b, b)) * b
        if not candidate.is_zero():
            forms.append(_primitive_integer_form(candidate))
            used.append(mask)
    return forms, [inner(b, b) for b in forms], used


def projecting_bb_j(j_struct, alpha):
    """bb_j with the Lagrange projection as its membership test."""
    if alpha.is_zero():
        return alpha
    if alpha.degree == 0:
        raise DegreeUnderflowError("bb_j needs degree >= 1")
    exact = alpha.space.backend == "exact"
    proj = lambda_p_project(j_struct, alpha)
    if not (proj == alpha if exact else proj.isclose(alpha)):
        raise NotInLambdaPError("form is not of type (p,0)+(0,p)")
    p = alpha.degree
    return curly_j(j_struct, alpha) * (Fraction(1, p) if exact else 1 / p)


def test_twice_rotated_structure_mixes_three_blocks():
    rows = structure("twice-rotated", 8).rows
    assert max(sum(1 for v in row if v != 0) for row in rows) >= 3
    assert any(v.denominator == 65 for row in rows for v in row)


@pytest.mark.parametrize("kind", EXACT_KINDS)
@pytest.mark.parametrize("n", DIMS)
def test_rank_stopped_lambda_basis_matches_full_gram_schmidt(kind, n, monkeypatch):
    j = structure(kind, n)
    for p in range(n + 1):
        forms, norms_sq, used = full_gram_schmidt(j, p)
        projected = []
        project = hermitian.lambda_p_project
        monkeypatch.setattr(
            hermitian, "lambda_p_project", lambda js, a: projected.append(a) or project(js, a)
        )
        basis = LambdaBasis(j, p)
        monkeypatch.setattr(hermitian, "lambda_p_project", project)
        assert basis.forms == forms
        assert basis.norms_sq == norms_sq
        assert basis.dim == (1 if p == 0 else 2 * comb(n // 2, p))
        # the build projects the masks up to the one that completes the basis
        last = basis_masks(n, p).index(used[-1]) if used else -1
        assert [next(iter(a.coeffs)) for a in projected] == basis_masks(n, p)[: last + 1]


@pytest.mark.parametrize("kind", EXACT_KINDS)
@pytest.mark.parametrize("n", DIMS)
def test_bb_j_matrix_matches_the_projecting_construction(kind, n):
    j = structure(kind, n)
    for p in range(1, n + 1):
        forms, norms_sq, _ = full_gram_schmidt(j, p)
        cols = [
            [Fraction(inner(projecting_bb_j(j, b), c), ns) for c, ns in zip(forms, norms_sq)]
            for b in forms
        ]
        want = [[cols[c][r] for c in range(len(forms))] for r in range(len(forms))]
        assert dense_matrix(bb_j_matrix(j, p)) == want
        for b in forms:
            assert bb_j(j, b) == projecting_bb_j(j, b)


def mixed_forms(j_struct, exact_j):
    """Pairs (lambda member, member plus a part of another type) per degree."""
    space, n = j_struct.space, j_struct.space.dim
    omega = kahler_form(j_struct)
    for p in range(2, n // 2 + 1):
        b = Form(space, p, lambda_basis(exact_j, p).forms[-1].coeffs)
        other = omega if p == 2 else wedge(omega, space.basis_form(*range(1, p - 1)))
        yield b, b + other
        yield b, b + other * space.scalar(Fraction(1, 1000))


@pytest.mark.parametrize("kind", ("standard", "rotated", "twice-rotated", "float"))
@pytest.mark.parametrize("n", (4, 6, 8))
def test_bb_j_rejects_a_lambda_form_plus_another_type(kind, n):
    j = structure(kind, n)
    exact_j = structure("rotated" if kind == "float" else kind, n)
    pairs = list(mixed_forms(j, exact_j))
    assert pairs
    for member, mixed in pairs:
        bb_j(j, member)
        assert in_lambda_p(j, member)
        assert not in_lambda_p(j, mixed)
        with pytest.raises(NotInLambdaPError):
            bb_j(j, mixed)
        with pytest.raises(NotInLambdaPError):
            projecting_bb_j(j, mixed)


@pytest.mark.parametrize("kind", EXACT_KINDS + ("float",))
@pytest.mark.parametrize("n", DIMS)
def test_in_lambda_p_matches_the_projection(kind, n):
    j = structure(kind, n)
    space = j.space
    rng = SplitMix64(3000 * n + len(kind))
    for p in range(n + 1):
        forms = [Form(space, p, {m: space.scalar(1)}) for m in basis_masks(n, p)]
        forms.append(random_form(space, p, rng, integer=True, terms=6))
        forms.extend(lambda_p_project(j, a) for a in forms[-2:])
        for alpha in forms:
            proj = lambda_p_project(j, alpha)
            want = proj == alpha if space.backend == "exact" else proj.isclose(alpha)
            assert in_lambda_p(j, alpha) == want
