"""Lefschetz-type operators, the contraction pairing family, and alpha_Omega."""

from fractions import Fraction
from math import factorial

import pytest

from hodgelab.errors import ContractionUnderflowError, NotInLambdaPError
from hodgelab.exterior import Form, Space, basis_masks, hodge_star, inner, wedge
from hodgelab.hermitian import (
    ComplexStructure,
    LambdaBasis,
    bb_j_matrix,
    bidegree_project,
    j_pullback,
    lambda_basis,
)
from hodgelab.lefschetz import (
    alpha_from_holomorphic,
    is_primitive,
    kahler_form,
    lefschetz_lstar,
    p_k,
    primitive_basis,
)
from hodgelab.rng import SplitMix64, random_form
from hodgelab.tensor_maps import _wedge_table, a_full_matrix

from conftest import rotated_j

S4 = Space(4)
J4 = ComplexStructure.standard(S4)
OMEGA4 = kahler_form(J4)
S6 = Space(6)
J6 = ComplexStructure.standard(S6)


def half_dim(j_struct):
    return j_struct.space.dim // 2


def random_lambda(j_struct, degree, rng, terms=3):
    basis = lambda_basis(j_struct, degree).forms
    out = j_struct.space.zero_form(degree)
    for _ in range(terms):
        out = out + rng.small_int() * basis[rng.next_u64() % len(basis)]
    return out


def random_primitive(j_struct, degree, rng, terms=3):
    basis = primitive_basis(j_struct, degree)
    out = j_struct.space.zero_form(degree)
    for _ in range(terms):
        out = out + rng.small_int() * basis[rng.next_u64() % len(basis)]
    return out


def test_kahler_form_structure():
    assert OMEGA4 == S4.form(2, {(1, 2): 1, (3, 4): 1})
    assert inner(OMEGA4, OMEGA4) == 2  # half the dimension


def test_kahler_form_is_built_once_per_structure():
    """kahler_form and every other per-structure table is built once per
    structure and arguments; an equal but fresh structure builds its own."""
    j = ComplexStructure.standard(Space(6))
    fresh = ComplexStructure.standard(Space(6))
    tables = [
        (kahler_form, ()),
        (lambda_basis, (2,)),
        (bb_j_matrix, (2,)),
        (primitive_basis, (3,)),
        (_wedge_table, (1, 2)),
        (a_full_matrix, (1, 2)),
    ]

    def content(table):
        return (table.forms, table.norms_sq) if isinstance(table, LambdaBasis) else table

    for build, args in tables:
        first = build(j, *args)
        assert build(j, *args) is first, build.__name__
        other = build(fresh, *args)
        assert other is not first, build.__name__
        assert content(other) == content(first), build.__name__
    assert lambda_basis(j, 1) is not lambda_basis(j, 2)
    assert _wedge_table(j, 2, 1) is not _wedge_table(j, 1, 2)


def test_is_primitive_stays_exact():
    """A defect that float() rounds to zero still makes a form non-primitive."""
    tiny = Fraction(1, 10**400)
    e13 = S4.basis_form(1, 3)
    assert is_primitive(J4, e13)
    assert not is_primitive(J4, e13 + tiny * OMEGA4)


def test_lefschetz_l_examples():
    """L is wedge(omega, .)."""
    one = S4.form(0, {(): 1})
    assert wedge(OMEGA4, one) == OMEGA4
    assert wedge(OMEGA4, OMEGA4) == 2 * S4.basis_form(1, 2, 3, 4)
    top = S4.basis_form(1, 2, 3, 4)
    assert wedge(OMEGA4, top).is_zero()


def test_lefschetz_lstar_examples():
    out = lefschetz_lstar(J4, OMEGA4)
    assert out.degree == 0 and out.scalar_value() == 2
    assert lefschetz_lstar(J4, S4.basis_form(1)).is_zero()
    assert lefschetz_lstar(J4, S4.basis_form(1, 3)).is_zero()


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_lstar_equals_adjoint_wedge_full_basis(dim):
    """<Lstar(beta), chi> = <beta, omega ^ chi> on every pair of basis forms."""
    space = Space(dim)
    j_struct = ComplexStructure.standard(space)
    omega = kahler_form(j_struct)
    for p in range(0, dim + 1):
        for mask in basis_masks(dim, p):
            form = Form(space, p, {mask: 1})
            out = lefschetz_lstar(j_struct, form)
            if p < 2:
                assert out.is_zero() and out.degree == 0
                continue
            assert out.degree == p - 2
            for chi_mask in basis_masks(dim, p - 2):
                chi = Form(space, p - 2, {chi_mask: 1})
                assert inner(out, chi) == inner(form, wedge(omega, chi))


def test_is_primitive_examples():
    assert not is_primitive(J4, OMEGA4)
    assert is_primitive(J4, S4.basis_form(1, 3))
    assert is_primitive(J4, S4.basis_form(2))


def test_p_k_examples():
    assert p_k(J4, S4.basis_form(1), S4.basis_form(2), 0) == S4.basis_form(1, 2)
    out = p_k(J4, S4.basis_form(1), S4.basis_form(1), 1)
    assert out.degree == 0 and out.scalar_value() == 0
    with pytest.raises(ContractionUnderflowError):
        p_k(J4, S4.basis_form(1), S4.basis_form(1, 2), 2)


@pytest.mark.parametrize("dim,r,s,k", [(4, 4, 4, 1), (4, 4, 3, 1), (4, 3, 4, 1), (6, 5, 4, 1),
                                       (6, 5, 5, 1), (6, 6, 6, 2)])
def test_p_k_above_top_degree_is_the_top_degree_zero(dim, r, s, k):
    """Like P_0 = wedge, a P_k of degree r + s - 2k > n is the zero n-form."""
    j_struct = ComplexStructure.standard(Space(dim))
    rng = SplitMix64(dim * 100 + r * 10 + s)
    alpha = random_form(j_struct.space, r, rng)
    beta = random_form(j_struct.space, s, rng)
    assert r + s - 2 * k > dim
    assert p_k(j_struct, alpha, beta, k) == j_struct.space.zero_form(dim)
    assert p_k(j_struct, alpha, beta, 0) == j_struct.space.zero_form(dim)


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_p_p_evaluates_inner_product_on_primitive_forms(dim):
    """P_p(alpha, beta) = p! <alpha, J beta> for primitive p-forms."""
    space = Space(dim)
    j_struct = ComplexStructure.standard(space)
    rng = SplitMix64(83 + dim)
    for p in range(1, 4):
        if not primitive_basis(j_struct, p):
            continue
        for _ in range(8):
            a = random_primitive(j_struct, p, rng)
            b = random_primitive(j_struct, p, rng)
            val = p_k(j_struct, a, b, p)
            assert val.degree == 0
            assert val.scalar_value() == factorial(p) * inner(a, j_pullback(j_struct, b))


def test_lambda_forms_are_primitive():
    for j_struct in (J4, J6):
        for p in range(1, half_dim(j_struct) + 1):
            assert all(
                lefschetz_lstar(j_struct, b).is_zero() for b in lambda_basis(j_struct, p).forms
            )


def test_alpha_from_holomorphic_contraction_table():
    big_omega = S4.form(2, {(1, 3): 1, (2, 4): -1})
    alpha = alpha_from_holomorphic(J4, big_omega)
    # e1 -| Omega = e3, e2 -| Omega = -e4, J e1 = e2,
    # so alpha(e1, e2) = <-e4, -e4> = 1
    assert alpha.coeffs[0b0011] == 1  # 0b0011 is the mask of e^12
    assert alpha == OMEGA4


def test_alpha_from_holomorphic_zero_and_membership():
    assert alpha_from_holomorphic(J4, S4.zero_form(2)).is_zero()
    with pytest.raises(NotInLambdaPError):
        alpha_from_holomorphic(J4, OMEGA4)


def test_alpha_form_is_j_invariant_one_one():
    rng = SplitMix64(97)
    for j_struct, degrees in ((J4, (2,)), (J6, (2, 3))):
        for p in degrees:
            for _ in range(6):
                om = random_lambda(j_struct, p, rng)
                alpha = alpha_from_holomorphic(j_struct, om)
                assert j_pullback(j_struct, alpha) == alpha
                assert bidegree_project(j_struct, alpha, 1, 1) == alpha


def test_alpha_pairing_identity():
    """P_{p-1}(Omega, J Omega) = 2 (-1)^p (p-1)! alpha_Omega."""
    rng = SplitMix64(101)
    for j_struct, degrees in ((J4, (2,)), (J6, (2, 3))):
        for p in degrees:
            for _ in range(6):
                om = random_lambda(j_struct, p, rng)
                alpha = alpha_from_holomorphic(j_struct, om)
                lhs = p_k(j_struct, om, j_pullback(j_struct, om), p - 1)
                assert lhs == (2 * (-1) ** p * factorial(p - 1)) * alpha


def test_iterated_lstar_chain_sign():
    """(Lstar)^{p-1}(Omega ^ J Omega) = (-1)^{p(p-1)/2} P_{p-1}(Omega, J Omega).

    The exponent follows from the recursion with primitive factors: the
    k-th step contributes (-1)^{p-k-1}, and the sum over k < p-1 is
    p(p-1)/2 modulo 2.
    """
    rng = SplitMix64(103)
    for j_struct, degrees in ((J4, (2,)), (J6, (2, 3))):
        for p in degrees:
            for _ in range(6):
                om = random_lambda(j_struct, p, rng)
                jom = j_pullback(j_struct, om)
                it = wedge(om, jom)
                for _ in range(p - 1):
                    it = lefschetz_lstar(j_struct, it)
                expected = ((-1) ** (p * (p - 1) // 2)) * p_k(j_struct, om, jom, p - 1)
                assert it == expected


def test_recursion_on_dense_random_forms():
    """Single-step recursion spot check independent of the campaign driver."""
    space = Space(6)
    rng = SplitMix64(107)
    for _ in range(10):
        r = rng.randint(2, 3)
        s = rng.randint(2, 3)
        alpha = random_form(space, r, rng, terms=6)
        beta = random_form(space, s, rng, terms=6)
        k = 0
        lhs = lefschetz_lstar(J6, p_k(J6, alpha, beta, k))
        rhs = (
            p_k(J6, lefschetz_lstar(J6, alpha), beta, k)
            + p_k(J6, alpha, lefschetz_lstar(J6, beta), k)
            + ((-1) ** (r - k - 1)) * p_k(J6, alpha, beta, k + 1)
        )
        assert lhs == rhs


def lefschetz_power(omega, alpha, power):
    for _ in range(power):
        alpha = wedge(omega, alpha)
    return alpha


@pytest.mark.parametrize("kind, dim", [("standard", d) for d in (2, 4, 6, 8, 10)]
                         + [("rotated", d) for d in (4, 6, 8, 10)])
def test_weil_formula_on_primitive_forms(kind, dim):
    """Weil's formula (Huybrechts, Complex Geometry, Prop. 1.2.31): for a
    primitive k-form alpha on R^2n and 0 <= j <= n - k,
    *L^j alpha = (-1)^(k(k+1)/2) j!/(n-k-j)! L^(n-k-j) J*alpha, exactly;
    the opposite sign fails."""
    j_struct = ComplexStructure.standard(Space(dim)) if kind == "standard" else rotated_j(dim)
    omega = kahler_form(j_struct)
    n = dim // 2
    rng = SplitMix64(dim)
    for k in range(n + 1):
        alpha = j_struct.space.zero_form(k)
        for form in primitive_basis(j_struct, k):
            alpha = alpha + rng.small_int() * form
        assert not alpha.is_zero()
        j_alpha = j_pullback(j_struct, alpha)
        sign = (-1) ** (k * (k + 1) // 2)
        for j in range(n - k + 1):
            lhs = hodge_star(lefschetz_power(omega, alpha, j))
            rhs = Fraction(factorial(j), factorial(n - k - j)) * lefschetz_power(
                omega, j_alpha, n - k - j)
            assert (lhs - sign * rhs).is_zero()
            assert not (lhs + sign * rhs).is_zero()


@pytest.mark.parametrize("kind, dim", [("standard", d) for d in (2, 4, 6, 8, 10)]
                         + [("rotated", d) for d in (4, 6, 8, 10)])
def test_the_contact_lift_of_the_star_and_of_weils_formula(kind, dim):
    """On R^(2n+1) with eta = e^(2n+1), a horizontal k-form alpha (no eta in
    its terms) has *_(2n+1) alpha = (*_2n alpha) ^ eta = (-1)^k eta ^ *_2n alpha,
    since wedging with eta takes vol_2n to vol_(2n+1).  With Weil's formula,
    a primitive horizontal alpha has
    *_(2n+1) L^j alpha = (-1)^(k(k+1)/2) j!/(n-k-j)! L^(n-k-j)(J*alpha) ^ eta,
    exactly; the opposite signs fail."""
    j_struct = ComplexStructure.standard(Space(dim)) if kind == "standard" else rotated_j(dim)
    contact = Space(dim + 1)
    eta = contact.basis_form(dim + 1)

    def lift(form):
        return Form(contact, form.degree, form.coeffs)

    rng = SplitMix64(dim + 1)
    for k in range(dim + 1):
        alpha = random_form(j_struct.space, k, rng)
        lhs, star = hodge_star(lift(alpha)), lift(hodge_star(alpha))
        assert lhs == wedge(star, eta) == (-1) ** k * wedge(eta, star)
        assert lhs != -wedge(star, eta)
    omega = kahler_form(j_struct)
    n = dim // 2
    for k in range(n + 1):
        alpha = j_struct.space.zero_form(k)
        for form in primitive_basis(j_struct, k):
            alpha = alpha + rng.small_int() * form
        assert not alpha.is_zero()
        j_alpha = j_pullback(j_struct, alpha)
        sign = (-1) ** (k * (k + 1) // 2)
        for j in range(n - k + 1):
            lhs = hodge_star(lefschetz_power(lift(omega), lift(alpha), j))
            rhs = Fraction(factorial(j), factorial(n - k - j)) * wedge(
                lift(lefschetz_power(omega, j_alpha, n - k - j)), eta)
            assert (lhs - sign * rhs).is_zero()
            assert not (lhs + sign * rhs).is_zero()
