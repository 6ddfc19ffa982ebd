"""Exterior algebra: frozen examples, independent oracles, and properties."""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgelab.errors import (
    DegreeMismatchError,
    DegreeUnderflowError,
    SpaceMismatchError,
)
from hodgelab.exterior import (
    FLOAT_TOL,
    Form,
    Space,
    adjoint_wedge,
    basis_masks,
    contract,
    contract_index,
    hodge_star,
    indices_to_mask,
    inner,
    mask_to_indices,
    wedge,
)
from hodgelab.rng import SplitMix64, random_form, random_vector

S3 = Space(3)
S4 = Space(4)


def _permutation_sign(perm) -> int:
    """Sign of a permutation given as a list of positions."""
    p = list(perm)
    sign = 1
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def evaluate(alpha, *indices):
    """alpha evaluated on the basis vectors e_{i1}, ..., e_{ip} in the given order."""
    if len(indices) != alpha.degree:
        raise DegreeMismatchError("wrong number of arguments")
    zero = 0 if alpha.space.backend == "exact" else 0.0
    if len(set(indices)) != len(indices):
        return zero
    order = sorted(range(len(indices)), key=lambda t: indices[t])
    return _permutation_sign(order) * alpha.coeffs.get(indices_to_mask(sorted(indices)), zero)


def shuffle_wedge(alpha, beta):
    """Independent wedge oracle: evaluate the shuffle sum on basis tuples.

    (alpha ^ beta)(e_I) = sum over p-subsets S of I of
    sign(S, I \\ S) alpha(e_S) beta(e_{I-S}).
    """
    space = alpha.space
    p, q = alpha.degree, beta.degree
    if p + q > space.dim:
        return space.zero_form(space.dim)
    coeffs = {}
    for mask in basis_masks(space.dim, p + q):
        idx = [i + 1 for i in range(space.dim) if mask & (1 << i)]
        total = 0
        for subset in combinations(range(p + q), p):
            s_idx = [idx[t] for t in subset]
            rest = [idx[t] for t in range(p + q) if t not in subset]
            perm = list(subset) + [t for t in range(p + q) if t not in subset]
            sign = 1
            seen = list(perm)
            for i in range(len(seen)):
                while seen[i] != i:
                    j = seen[i]
                    seen[i], seen[j] = seen[j], seen[i]
                    sign = -sign
            total += sign * evaluate(alpha, *s_idx) * evaluate(beta, *rest)
        if total != 0:
            coeffs[mask] = total
    return Form(space, p + q, coeffs)


# -- dense alternating-tensor model ---------------------------------------
#
# A p-form is the n^p numpy array of its values on basis tuples, with
# e^{i1...ip}(e_i1, ..., e_ip) = 1.  The model runs on integer forms, so
# int64 arrays keep it exact; each division below is checked to be exact.


def dense(alpha):
    """The alternating array of alpha's values on basis tuples."""
    n, p = alpha.space.dim, alpha.degree
    t = np.zeros((n,) * p, dtype=np.int64)
    for mask, c in alpha.coeffs.items():
        idx = [i - 1 for i in mask_to_indices(mask)]
        for perm in permutations(range(p)):
            t[tuple(idx[k] for k in perm)] = _permutation_sign(perm) * c
    return t


def exact_div(t, d):
    assert not np.any(t % d)
    return t // d


def dense_wedge(a, b):
    """(a ^ b)(v_1, ..., v_{p+q}) = 1/(p! q!) sum_sigma sgn(sigma) (a (x) b)(v_sigma)."""
    p, q = a.ndim, b.ndim
    outer = np.multiply.outer(a, b)
    total = sum(_permutation_sign(perm) * np.transpose(outer, perm)
                for perm in permutations(range(p + q)))
    return exact_div(total, factorial(p) * factorial(q))


def dense_adjoint(phi, psi):
    """adjoint_wedge(phi, psi)_J = 1/p! sum_I phi_I psi_{I J} over all p-tuples I."""
    return exact_div(np.tensordot(phi, psi, axes=phi.ndim), factorial(phi.ndim))


def dense_inner(a, b):
    return exact_div(np.sum(a * b), factorial(a.ndim))


def dense_star(a, n):
    """(star a)_J = 1/p! sum_I a_I eps_{I J} with the Levi-Civita tensor eps."""
    eps = dense(Space(n).volume_form())
    return exact_div(np.tensordot(a, eps, axes=a.ndim), factorial(a.ndim))


def assert_dense_equal(form, t):
    """Compare as full arrays, so the antisymmetry of t is checked too."""
    t = np.asarray(t)  # indexing and sums turn 0-d arrays into scalars
    assert form.degree == t.ndim
    assert np.array_equal(dense(form), t)


def test_basis_masks_are_one_memoized_tuple_per_degree():
    for n in range(1, 9):
        for p in range(-1, n + 2):
            masks = basis_masks(n, p)
            assert isinstance(masks, tuple)
            assert basis_masks(n, p) is masks
            want = [sum(1 << i for i in c) for c in combinations(range(n), p)] if p >= 0 else []
            assert list(masks) == want


def test_dense_model_convention():
    s = Space(3)
    e1, e2, e12 = dense(s.basis_form(1)), dense(s.basis_form(2)), dense(s.basis_form(1, 2))
    assert e12[0, 1] == 1 and e12[1, 0] == -1
    assert np.array_equal(dense_wedge(e1, e2), e12)
    assert dense_inner(e12, e12) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exterior_matches_the_dense_model(n):
    """Every basis form and two random integer forms per degree, against
    random integer forms of every degree that fits."""
    space = Space(n)
    rng = SplitMix64(7000 + n)
    forms = {
        p: [Form(space, p, {m: 1}) for m in basis_masks(n, p)]
        + [random_form(space, p, rng, terms=3, integer=True) for _ in range(2)]
        for p in range(n + 1)
    }
    for p in range(n + 1):
        for a in forms[p]:
            da = dense(a)
            assert_dense_equal(hodge_star(a), dense_star(da, n))
            if p >= 1:
                x = random_vector(space, rng)
                comps = np.array([x.coeffs.get(1 << i, 0) for i in range(n)], dtype=np.int64)
                assert_dense_equal(contract(x, a), np.tensordot(comps, da, axes=1))
                for i in range(1, n + 1):
                    assert_dense_equal(contract_index(i, a), da[i - 1])
            for b in forms[p][-2:]:
                assert inner(a, b) == dense_inner(da, dense(b))
            for q in range(n + 1 - p):
                for b in forms[q][-2:]:
                    assert_dense_equal(wedge(a, b), dense_wedge(da, dense(b)))
            for q in range(p, n + 1):
                for psi in forms[q][-2:]:
                    assert_dense_equal(adjoint_wedge(a, psi), dense_adjoint(da, dense(psi)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_contract_fills_the_first_slot(n):
    """(x -| alpha)(e_I) = sum_i x_i alpha(e_i, e_I) on every ordered tuple I."""
    space = Space(n)
    rng = SplitMix64(8000 + n)
    for p in range(1, n + 1):
        for _ in range(3):
            alpha = random_form(space, p, rng)
            x = random_vector(space, rng)
            got = contract(x, alpha)
            for idx in product(range(1, n + 1), repeat=p - 1):
                want = sum(c * evaluate(alpha, bit.bit_length(), *idx)
                           for bit, c in x.coeffs.items())
                assert evaluate(got, *idx) == want


# -- frozen examples -----------------------------------------------------


def test_wedge_disjoint_indices():
    assert wedge(wedge(S3.basis_form(1), S3.basis_form(2)), S3.basis_form(3)) == S3.basis_form(1, 2, 3)


def test_wedge_repeated_factor_vanishes():
    assert wedge(S3.basis_form(1), S3.basis_form(1)).is_zero()


def test_wedge_bilinear_hand_expansion():
    a = S4.basis_form(1) + S4.basis_form(2)
    b = S4.basis_form(1) - S4.basis_form(2)
    assert wedge(a, b) == -2 * S4.basis_form(1, 2)


def test_wedge_past_top_degree_is_tagged_zero():
    top = S3.basis_form(1, 2, 3)
    out = wedge(top, S3.basis_form(1))
    assert out.is_zero() and out.degree == 3


def test_wedge_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        wedge(S3.basis_form(1), S4.basis_form(1))


def test_contract_examples():
    e12 = S3.basis_form(1, 2)
    assert contract(S3.basis_form(1), e12) == S3.basis_form(2)
    assert contract(S3.basis_form(2), e12) == -S3.basis_form(1)
    assert contract(S3.basis_form(3), e12).is_zero()


def test_contract_degree_zero_raises():
    with pytest.raises(DegreeUnderflowError):
        contract(S3.basis_form(1), S3.form(0, {(): 1}))


def test_contract_refuses_a_form_that_is_not_a_1_form():
    """A vector is given by its 1-form; a 2-form in its place is refused."""
    with pytest.raises(DegreeMismatchError):
        contract(S3.basis_form(1, 2), S3.basis_form(1, 2, 3))


def test_inner_examples():
    assert inner(S4.basis_form(1, 2), S4.basis_form(1, 2)) == 1
    assert inner(S4.basis_form(1, 2), S4.basis_form(1, 3)) == 0
    a = 2 * S4.basis_form(1) + S4.basis_form(2)
    b = S4.basis_form(1) - S4.basis_form(2)
    assert inner(a, b) == 1


def test_inner_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        inner(S4.basis_form(1), S4.basis_form(1, 2))


def test_hodge_star_examples():
    s2 = Space(2)
    assert hodge_star(s2.basis_form(1)) == s2.basis_form(2)
    assert hodge_star(S4.basis_form(1, 2)) == S4.basis_form(3, 4)
    s6 = Space(6)
    assert hodge_star(s6.form(0, {(): 1})) == s6.volume_form()


def test_adjoint_wedge_examples():
    assert adjoint_wedge(S4.basis_form(1), S4.basis_form(1, 2)) == S4.basis_form(2)
    unit = adjoint_wedge(S4.basis_form(1, 2), S4.basis_form(1, 2))
    assert unit.degree == 0 and unit.scalar_value() == 1
    assert adjoint_wedge(S4.basis_form(3), S4.basis_form(1, 2)).is_zero()


def test_adjoint_wedge_underflow():
    with pytest.raises(DegreeUnderflowError):
        adjoint_wedge(S4.basis_form(1, 2), S4.basis_form(1))


# -- oracle-backed checks and properties -----------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wedge_matches_shuffle_oracle(n):
    space = Space(n)
    rng = SplitMix64(2024 + n)
    for _ in range(20):
        p = rng.randint(0, min(n, 3))
        q = rng.randint(0, min(n, 3))
        a = random_form(space, p, rng)
        b = random_form(space, q, rng)
        assert wedge(a, b) == shuffle_wedge(a, b)


@pytest.mark.parametrize("n", list(range(1, 9)))
def test_double_star_sign_all_degrees(n):
    space = Space(n)
    for p in range(n + 1):
        for mask in basis_masks(n, p):
            form = Form(space, p, {mask: 1})
            assert hodge_star(hodge_star(form)) == ((-1) ** (p * (n - p))) * form


@pytest.mark.parametrize("n", [2, 4, 6])
def test_star_defining_identity_exhaustive(n):
    space = Space(n)
    vol = space.volume_form()
    for p in range(n + 1):
        for m1 in basis_masks(n, p):
            for m2 in basis_masks(n, p):
                a = Form(space, p, {m1: 1})
                b = Form(space, p, {m2: 1})
                assert wedge(a, hodge_star(b)) == inner(a, b) * vol


def test_star_is_isometry_on_random_forms():
    rng = SplitMix64(99)
    for n in (3, 5, 8):
        space = Space(n)
        for _ in range(25):
            a = random_form(space, rng.randint(0, n), rng)
            assert inner(a, a) == inner(hodge_star(a), hodge_star(a))


def test_adjoint_defining_identity_exhaustive():
    """<adjoint_wedge(phi, psi), chi> = <psi, phi ^ chi> over the basis."""
    for n in (3, 4, 6):
        space = Space(n)
        rng = SplitMix64(5 * n)
        for _ in range(10):
            dp = rng.randint(0, 2)
            ds = rng.randint(dp, min(n, dp + 2))
            phi = random_form(space, dp, rng)
            psi = random_form(space, ds, rng)
            res = adjoint_wedge(phi, psi)
            for mask in basis_masks(n, ds - dp):
                chi = Form(space, ds - dp, {mask: 1})
                assert inner(res, chi) == inner(psi, wedge(phi, chi))


def test_contract_is_adjoint_of_one_form_wedge():
    """<x -| a, b> = <a, x ^ b>, and x -| a is adjoint_wedge(x, a), for seeded
    1-forms x on exact and float spaces."""
    rng = SplitMix64(17)
    for space in [Space(n) for n in (4, 6, 8)] + [Space(n, "float") for n in (4, 6)]:
        n = space.dim
        for _ in range(50):
            p = rng.randint(1, min(4, n))
            a = random_form(space, p, rng)
            b = random_form(space, p - 1, rng)
            x = random_vector(space, rng)
            xa = contract(x, a)
            assert xa == adjoint_wedge(x, a)
            assert abs(inner(xa, b) - inner(a, wedge(x, b))) <= space.tol


def test_graded_commutativity_and_antiderivation_sweep():
    """200 seeded random checks per (n, p, q), n <= 8, exact."""
    for n in range(1, 9):
        space = Space(n)
        for p in range(n + 1):
            for q in range(n + 1):
                rng = SplitMix64((n << 16) | (p << 8) | q)
                for _ in range(200):
                    a = random_form(space, p, rng, terms=2)
                    b = random_form(space, q, rng, terms=2)
                    ab = wedge(a, b)
                    assert ab == ((-1) ** (p * q)) * wedge(b, a)
                    if p >= 1 and q >= 1 and p + q <= n:
                        x = random_vector(space, rng)
                        lhs = contract(x, ab) if p + q >= 1 else None
                        rhs = wedge(contract(x, a), b) + ((-1) ** p) * wedge(a, contract(x, b))
                        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.integers(-9, 9), min_size=8, max_size=8),
    p=st.integers(1, 2),
    q=st.integers(1, 2),
)
def test_wedge_bilinearity_hypothesis(coeffs, p, q):
    space = Space(4)
    masks_p = basis_masks(4, p)
    masks_q = basis_masks(4, q)
    a1 = Form(space, p, {masks_p[0]: coeffs[0], masks_p[1]: coeffs[1]})
    a2 = Form(space, p, {masks_p[2]: coeffs[2], masks_p[3]: coeffs[3]})
    b = Form(space, q, {masks_q[0]: coeffs[4], masks_q[-1]: coeffs[5]})
    lhs = wedge(a1 + a2, b)
    assert lhs == wedge(a1, b) + wedge(a2, b)
    assert wedge(coeffs[6] * a1, b) == coeffs[6] * wedge(a1, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=6, max_size=6))
def test_wedge_associativity_hypothesis(vals):
    space = Space(5)
    a = Form(space, 1, {1 << 0: vals[0], 1 << 2: vals[1]})
    b = Form(space, 1, {1 << 1: vals[2], 1 << 3: vals[3]})
    c = Form(space, 2, {(1 << 2) | (1 << 4): vals[4], (1 << 0) | (1 << 1): vals[5]})
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_float_backend_comparisons():
    space = Space(4, "float")
    a = space.form(2, {(1, 2): 1.0, (3, 4): 0.5})
    b = space.form(2, {(1, 2): 1.0 + 1e-12, (3, 4): 0.5})
    assert a.isclose(b)
    assert not a.isclose(2.0 * b)


def test_exact_isclose_compares_exactly():
    """On the exact backend the tolerance is 0: a coefficient whose square
    underflows a float still makes two forms differ, and rescaling a form
    by a tiny exact amount changes it."""
    tiny = S4.form(2, {(1, 2): Fraction(1, 10**200)})
    assert not tiny.isclose(S4.zero_form(2))
    assert not S4.zero_form(2).isclose(tiny)
    a = S4.form(2, {(1, 2): 1, (3, 4): Fraction(1, 2)})
    assert not a.isclose(a * (1 + Fraction(1, 10**30)))
    assert a.isclose(a * Fraction(2, 2)) and tiny.isclose(tiny)


def test_form_evaluate_signs():
    a = S4.form(2, {(1, 3): Fraction(5, 2)})
    assert evaluate(a, 1, 3) == Fraction(5, 2)
    assert evaluate(a, 3, 1) == Fraction(-5, 2)
    assert evaluate(a, 1, 1) == 0
    assert evaluate(a, 2, 4) == 0


def test_space_scalar_rules_have_the_backend_types():
    exact, fl = Space(4), Space(4, "float")
    assert (type(exact.zero), type(exact.one), type(exact.tol)) == (int, int, int)
    assert (exact.zero, exact.one, exact.tol) == (0, 1, 0)
    assert type(exact.ratio(1, 3)) is Fraction and exact.ratio(1, 3) == Fraction(1, 3)
    assert exact.ratio(Fraction(1, 2), 3) == Fraction(1, 6)
    assert (type(fl.zero), type(fl.one), type(fl.tol)) == (float, float, float)
    assert (fl.zero, fl.one, fl.tol) == (0.0, 1.0, FLOAT_TOL)
    assert type(fl.ratio(1, 3)) is float and fl.ratio(1, 3) == 1 / 3


def test_exact_backend_rejects_float_scalars():
    alpha = S4.basis_form(1, 2)
    with pytest.raises(TypeError):
        alpha * 0.5
    with pytest.raises(TypeError):
        0.5 * alpha
    with pytest.raises(TypeError):
        alpha / 2.0
    assert alpha * Fraction(1, 2) == alpha / 2 == S4.form(2, {(1, 2): Fraction(1, 2)})


def test_float_backend_coerces_scalars():
    space = Space(4, "float")
    alpha = space.basis_form(1, 2) * Fraction(1, 2)
    assert alpha.coeffs == {0b11: 0.5} and isinstance(alpha.coeffs[0b11], float)
    assert (space.basis_form(1, 2) / 4).coeffs == {0b11: 0.25}
