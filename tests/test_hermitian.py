"""Complex-structure extensions, the bigrading, and the lambda subspaces."""

from fractions import Fraction
from math import comb

import pytest

from hodgelab.errors import (
    DegreeMismatchError,
    InvariantViolationError,
    NotInLambdaPError,
)
from hodgelab.exterior import Form, Space, basis_masks, contract, inner, mask_to_indices
from hodgelab.harmonic import SkewEndo, endo_form
from hodgelab.hermitian import (
    ComplexStructure,
    bb_j,
    bidegree_project,
    curly_j,
    curly_j_squared,
    in_lambda_p,
    j_pullback,
    lambda_basis,
)
from hodgelab.lefschetz import kahler_form
from hodgelab.rng import SplitMix64, random_form

S4 = Space(4)
J4 = ComplexStructure.standard(S4)
S6 = Space(6)
J6 = ComplexStructure.standard(S6)


def half_dim(j_struct):
    return j_struct.space.dim // 2


def first_slot_insertion(j_struct, alpha):
    """(X1, ..., Xp) -> alpha(J X1, X2, ..., Xp), read off on basis tuples.

    Only alternating for forms of type (p,0)+(0,p); used to cross-check bb_j.
    """
    space = alpha.space
    out = {}
    for mask in basis_masks(space.dim, alpha.degree):
        idx = mask_to_indices(mask)
        partial = contract(j_struct.basis_image(idx[0]), alpha)
        for i in idx[1:]:
            partial = contract(space.basis_vector(i), partial)
        val = partial.scalar_value()
        if val != 0:
            out[mask] = val
    return Form(space, alpha.degree, out)


def eval_pullback_oracle(j_struct, alpha):
    """Independent route: evaluate alpha on J-images of basis tuples."""
    space = alpha.space
    out = {}
    for mask in basis_masks(space.dim, alpha.degree):
        partial = alpha
        for i in mask_to_indices(mask):  # first argument contracts first
            partial = contract(j_struct.basis_image(i), partial)
        val = partial.scalar_value()
        if val != 0:
            out[mask] = val
    return Form(space, alpha.degree, out)


def eval_derivation_oracle(j_struct, alpha):
    """Independent route for the derivation: J in one slot at a time."""
    space = alpha.space
    p = alpha.degree
    out = {}
    for mask in basis_masks(space.dim, p):
        idx = mask_to_indices(mask)
        total = 0
        for slot in range(p):
            partial = alpha
            for t in range(p):  # first argument contracts first
                if t == slot:
                    partial = contract(j_struct.basis_image(idx[t]), partial)
                else:
                    partial = contract(space.basis_vector(idx[t]), partial)
            total += partial.scalar_value()
        if total != 0:
            out[mask] = total
    return Form(space, p, out)


def test_standard_structure_shape():
    assert J4.rows[0][1] == -1 and J4.rows[1][0] == 1
    assert J4.basis_image(1).components == (0, 1, 0, 0)


def test_invalid_structures_rejected():
    with pytest.raises(InvariantViolationError):
        ComplexStructure(S4, [[0] * 4 for _ in range(4)])
    with pytest.raises(InvariantViolationError):
        ComplexStructure(Space(3), [[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    scaled = [[2 * v for v in row] for row in J4.rows]
    with pytest.raises(InvariantViolationError):
        ComplexStructure(S4, scaled)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_a_square_root_of_minus_one_that_is_not_orthogonal_is_rejected(backend):
    """[[1, -2], [1, -1]] squares to -I but is neither skew nor orthogonal;
    block-summed with the standard block it must still be rejected."""
    rows = [[1, -2, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    with pytest.raises(InvariantViolationError):
        ComplexStructure(Space(4, backend), rows)


def test_a_complex_structure_is_the_skew_map_of_its_kahler_form():
    j_struct = ComplexStructure.standard(Space(4))
    assert isinstance(j_struct, SkewEndo)
    assert endo_form(j_struct) == kahler_form(j_struct) == j_struct.space.form(
        2, {(1, 2): 1, (3, 4): 1}
    )


def test_pullback_examples():
    omega = kahler_form(J4)
    assert j_pullback(J4, omega) == omega
    assert j_pullback(J4, S4.basis_form(1)) == -S4.basis_form(2)
    one = S4.form(0, {(): 1})
    assert j_pullback(J4, one) == one


def test_pullback_squares_to_sign_and_isometry():
    rng = SplitMix64(31)
    for j_struct in (J4, J6):
        space = j_struct.space
        for _ in range(20):
            p = rng.randint(0, space.dim)
            a = random_form(space, p, rng)
            ja = j_pullback(j_struct, a)
            assert j_pullback(j_struct, ja) == ((-1) ** p) * a
            assert inner(ja, ja) == inner(a, a)


def test_pullback_matches_evaluation_oracle():
    rng = SplitMix64(47)
    for j_struct in (J4, J6):
        for _ in range(10):
            p = rng.randint(1, 3)
            a = random_form(j_struct.space, p, rng)
            assert j_pullback(j_struct, a) == eval_pullback_oracle(j_struct, a)


def test_derivation_examples():
    omega = kahler_form(J4)
    assert curly_j(J4, omega).is_zero()
    big_omega = S4.form(2, {(1, 3): 1, (2, 4): -1})
    expected = S4.form(2, {(2, 3): -2, (1, 4): -2})
    assert curly_j(J4, big_omega) == expected
    assert curly_j(J4, S4.form(0, {(): 1})).is_zero()


def test_derivation_law_and_oracle():
    from hodgelab.exterior import wedge

    rng = SplitMix64(53)
    for j_struct in (J4, J6):
        space = j_struct.space
        for _ in range(15):
            p = rng.randint(1, 2)
            q = rng.randint(1, 2)
            a = random_form(space, p, rng)
            b = random_form(space, q, rng)
            lhs = curly_j(j_struct, wedge(a, b))
            rhs = wedge(curly_j(j_struct, a), b) + wedge(a, curly_j(j_struct, b))
            assert lhs == rhs
            assert curly_j(j_struct, a) == eval_derivation_oracle(j_struct, a)


@pytest.mark.parametrize("j_struct", [J4, J6, ComplexStructure.standard(Space(8))])
def test_bidegree_eigenvalue_law_exhaustive(j_struct):
    """Squared-derivation eigenvalue on every basis form, degrees up to 6."""
    space = j_struct.space
    for s in range(0, min(space.dim, 6) + 1):
        for q in range(0, s // 2 + 1):
            p = s - q
            for mask in basis_masks(space.dim, s):
                base = Form(space, s, {mask: 1})
                comp = bidegree_project(j_struct, base, p, q)
                assert curly_j_squared(j_struct, comp) == (-((p - q) ** 2)) * comp


def test_bidegree_examples():
    omega = kahler_form(J4)
    assert bidegree_project(J4, S4.basis_form(1, 2), 1, 1) == S4.basis_form(1, 2)
    big_omega = S4.form(2, {(1, 3): 1, (2, 4): -1})
    assert bidegree_project(J4, big_omega, 2, 0) == big_omega
    assert bidegree_project(J4, omega, 2, 0).is_zero()
    with pytest.raises(DegreeMismatchError):
        bidegree_project(J4, omega, 2, 1)


def test_bidegree_completeness_and_orthogonality():
    """Components sum back to the form; 500 seeded cases across dims."""
    rng = SplitMix64(61)
    structures = [J4, J6, ComplexStructure.standard(Space(8))]
    per = 500 // (len(structures) * 4) + 1
    for j_struct in structures:
        space = j_struct.space
        for s in range(1, 5):
            for _ in range(per):
                a = random_form(space, s, rng)
                comps = [
                    bidegree_project(j_struct, a, s - q, q) for q in range(0, s // 2 + 1)
                ]
                total = space.zero_form(s)
                for c in comps:
                    total = total + c
                assert total == a
                for i in range(len(comps)):
                    for jdx in range(i + 1, len(comps)):
                        assert inner(comps[i], comps[jdx]) == 0


def test_lambda_projection_examples():
    big_omega = S4.form(2, {(1, 3): 1, (2, 4): -1})
    assert bidegree_project(J4, big_omega, 2, 0) == big_omega
    assert bidegree_project(J4, kahler_form(J4), 2, 0).is_zero()
    assert bidegree_project(J4, S4.basis_form(1), 1, 0) == S4.basis_form(1)
    assert in_lambda_p(J4, big_omega)
    assert not in_lambda_p(J4, kahler_form(J4))


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_lambda_dimension_formula(dim):
    j_struct = ComplexStructure.standard(Space(dim))
    k = dim // 2
    for p in range(1, k + 1):
        assert lambda_basis(j_struct, p).dim == 2 * comb(k, p)
    assert lambda_basis(j_struct, 0).dim == 1


def test_lambda_basis_is_orthogonal():
    basis = lambda_basis(J6, 2)
    for i, a in enumerate(basis.forms):
        for b in basis.forms[i + 1 :]:
            assert inner(a, b) == 0


def test_bb_j_examples():
    assert bb_j(J4, S4.basis_form(1)) == -S4.basis_form(2)
    big_omega = S4.form(2, {(1, 3): 1, (2, 4): -1})
    assert bb_j(J4, bb_j(J4, big_omega)) == -big_omega
    zero = S4.zero_form(2)
    assert bb_j(J4, zero).is_zero()
    with pytest.raises(NotInLambdaPError):
        bb_j(J4, kahler_form(J4))


def test_bb_j_two_definitions_coincide():
    """(1/p) x derivation equals first-slot insertion on the lambda spaces."""
    for j_struct in (J4, J6):
        for p in range(1, half_dim(j_struct) + 1):
            for b in lambda_basis(j_struct, p).forms:
                assert bb_j(j_struct, b) == first_slot_insertion(j_struct, b)


def test_bb_j_squares_to_minus_one_on_lambda():
    rng = SplitMix64(71)
    for j_struct in (J4, J6):
        for p in range(1, half_dim(j_struct) + 1):
            basis = lambda_basis(j_struct, p).forms
            a = j_struct.space.zero_form(p)
            for _ in range(3):
                a = a + rng.small_int() * basis[rng.next_u64() % len(basis)]
            assert bb_j(j_struct, bb_j(j_struct, a)) == -a


def test_nonstandard_structure_accepted():
    """A conjugated standard structure passes validation and the machinery."""
    # permutation conjugation: swap the roles of e2 and e3
    perm = [0, 2, 1, 3]
    rows = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            rows[perm[i]][perm[j]] = J4.rows[i][j]
    j_alt = ComplexStructure(S4, rows)
    omega_alt = kahler_form(j_alt)
    assert j_pullback(j_alt, omega_alt) == omega_alt
    assert curly_j(j_alt, omega_alt).is_zero()
    assert lambda_basis(j_alt, 2).dim == 2


def test_exact_structure_check_stays_exact():
    """A defect that float() rounds to zero is still rejected."""
    rows = [list(row) for row in J4.rows]
    rows[0][1] += Fraction(1, 10**400)
    with pytest.raises(InvariantViolationError):
        ComplexStructure(S4, rows)
