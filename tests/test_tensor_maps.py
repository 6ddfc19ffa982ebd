"""Type splitting, antisymmetrization ranks, holomorphy maps, and torsion."""

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgelab import campaigns, tensor_maps
from hodgelab.errors import (
    DegreeMismatchError,
    DegreeOverflowError,
    InvalidDerivativeError,
    InvariantViolationError,
    SpaceMismatchError,
)
from hodgelab.exterior import (
    Form,
    Space,
    adjoint_wedge,
    basis_masks,
    contract,
    contract_index,
    inner,
    mask_to_indices,
    merge_sign,
    wedge,
)
from hodgelab.hermitian import (
    ComplexStructure,
    bb_j,
    bb_j_matrix,
    curly_j,
    eigen_residual,
    in_lambda_p,
    lambda_basis,
)
from hodgelab.linalg import (
    combine,
    compose,
    dense_rows,
    exact_nullspace,
    exact_rank,
    integer_rows,
    sparse_rows,
)
from hodgelab.rng import SplitMix64, random_form, random_vector
from hodgelab.tensor_maps import (
    FormValuedMap,
    _product_basis,
    _skew_from_params,
    _structural_rows,
    a_full_matrix,
    admissible_torsion_basis,
    antisymmetrize,
    antisymmetrize_numerators,
    anti_invariant_skew_basis,
    a_kernel_tensors,
    a_restricted_rank,
    bidegree_eigen_residual,
    bracket_bases,
    bracket_bullet_in_span,
    contraction_identity_check,
    holomorphic_q,
    invariant_skew_basis,
    split_type,
    tensor_type_dims,
    torsion_bullet,
    van_kernel_dimension,
)

from conftest import rotated_j

S4 = Space(4)
J4 = ComplexStructure.standard(S4)
S6 = Space(6)
J6 = ComplexStructure.standard(S6)


def bb_j_map(j_struct, p):
    return FormValuedMap(j_struct, p, p, *bb_j_matrix(j_struct, p))


def map_from_images(j_struct, p, q, images):
    """The map whose column d holds the coordinates <images[d], c_i> / |c_i|^2,
    its rows built by ``linalg.integer_rows``."""
    cod = lambda_basis(j_struct, q)
    entries = (
        (i, d, Fraction(v, cod.norms_sq[i]))
        for d, img in enumerate(images)
        for i, v in cod.pairings(img).items()
    )
    return FormValuedMap(j_struct, p, q, *integer_rows(entries, cod.dim))


def random_lambda(j_struct, degree, rng, terms=2):
    basis = lambda_basis(j_struct, degree).forms
    out = j_struct.space.zero_form(degree)
    for _ in range(terms):
        out = out + rng.small_int() * basis[rng.next_u64() % len(basis)]
    return out


def zero_map(j_struct, p, q):
    return FormValuedMap(j_struct, p, q, [{} for _ in range(lambda_basis(j_struct, q).dim)])


def random_map(j_struct, p, q, rng, terms=3):
    out = zero_map(j_struct, p, q)
    for _ in range(terms):
        out = out + FormValuedMap.from_tensor(
            j_struct, random_lambda(j_struct, p, rng), random_lambda(j_struct, q, rng)
        )
    return out


# -- the Fraction oracle ---------------------------------------------------
#
# from_tensor, split_type and antisymmetrize as they were computed while a
# map held its matrix as Fraction rows: one Fraction product per entry, the
# bb_j conjugation and the halves in Fraction arithmetic.  The integer
# numerators of FormValuedMap must give the same values.


def fraction_coordinates(basis, alpha):
    """<alpha, c> / |c|^2 over the orthogonal basis forms c, one ``inner``
    call each: no coordinate table of the basis is read."""
    return [Fraction(inner(alpha, c), ns) for c, ns in zip(basis.forms, basis.norms_sq)]


def fraction_from_tensor(j_struct, phi, psi):
    """Rational rows of chi -> <phi, chi> psi."""
    dom = lambda_basis(j_struct, phi.degree)
    cod = lambda_basis(j_struct, psi.degree)
    psi_coords = fraction_coordinates(cod, psi)
    rows = [{} for _ in range(cod.dim)]
    for d, b in enumerate(dom.forms):
        weight = inner(phi, b)
        if weight == 0:
            continue
        for i, c in enumerate(psi_coords):
            if weight * c != 0:
                rows[i][d] = weight * c
    return rows


def fraction_split_type(j_struct, p, q, rows):
    """Rational rows of (Q - JJ Q JJ) / 2 and (Q + JJ Q JJ) / 2, with JJ the
    ``bb_j_matrix`` rows divided by their denominator."""
    jp, jq = over_den(*bb_j_matrix(j_struct, p)), over_den(*bb_j_matrix(j_struct, q))
    conj = compose(jq, compose(rows, jp))
    half = Fraction(1, 2)
    return combine(rows, conj, half, -half), combine(rows, conj, half, half)


def fraction_antisymmetrize(j_struct, p, q, rows):
    """a(Q) from the coordinates Q[e][d] / |b_d|^2 as Fractions."""
    space = j_struct.space
    dq, norms_sq = lambda_basis(j_struct, q).dim, lambda_basis(j_struct, p).norms_sq
    coords = {
        d * dq + e: Fraction(v, norms_sq[d]) for e, row in enumerate(rows)
        for d, v in row.items()
    }
    coeffs = {
        mask: sum(v * coords[c] for c, v in row.items() if c in coords)
        for mask, row in zip(basis_masks(space.dim, p + q), a_full_matrix(j_struct, p, q))
    }
    return Form(space, p + q, coeffs)


def over_den(rows, den):
    """The rational rows that integer rows over ``den`` stand for."""
    return [{c: Fraction(v, den) for c, v in row.items()} for row in rows]


def values(q_map):
    """The rational rows a map stands for."""
    return over_den(q_map.rows, q_map.den)


def assert_matches_oracle(q_map, want_rows):
    """The map, its halves and the antisymmetrizations of all three agree
    with the oracle applied to ``want_rows``."""
    j_struct, p, q = q_map.j, q_map.p, q_map.q
    width = q_map.domain.dim
    assert q_map.matrix == dense_rows(want_rows, width)
    halves = split_type(q_map)
    want_halves = fraction_split_type(j_struct, p, q, want_rows)
    for got, want in zip((q_map,) + halves, (want_rows,) + want_halves):
        assert got.matrix == dense_rows(want, width)
        assert antisymmetrize(got).coeffs == fraction_antisymmetrize(j_struct, p, q, want).coeffs


def oracle_structure(kind, n):
    """The standard J, or the standard J conjugated by a 3/5-4/5 rotation
    (``rotated_j``, denominators 5 and 25).  On R^2 every orthogonal J is
    +-J0, so there the rotated kind is the standard one."""
    if kind == "standard" or n == 2:
        return ComplexStructure.standard(Space(n))
    return rotated_j(n)


ORACLE_STRUCTURES = [(kind, n) for kind in ("standard", "rotated") for n in (2, 4, 6, 8)]
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def drawn_lambda(data, j_struct, degree):
    """A combination of up to three lambda basis forms with drawn Fraction
    coefficients; the zero form when the basis is empty."""
    forms = lambda_basis(j_struct, degree).forms
    out = j_struct.space.zero_form(degree)
    if not forms:
        return out
    for _ in range(data.draw(st.integers(1, 3))):
        b = forms[data.draw(st.integers(0, len(forms) - 1))]
        out = out + data.draw(small_fractions) * b
    return out


def degree_pairs(n):
    return [(p, q) for p in range(1, n) for q in range(1, n - p + 1)]


@pytest.mark.parametrize("kind,n", ORACLE_STRUCTURES)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_integer_maps_match_the_fraction_oracle_on_tensors(kind, n, data):
    """from_tensor of Fraction-coefficient forms, its halves and their
    antisymmetrizations, for every (p, q) with p + q <= n."""
    j_struct = oracle_structure(kind, n)
    for p, q in degree_pairs(n):
        phi, psi = drawn_lambda(data, j_struct, p), drawn_lambda(data, j_struct, q)
        t = FormValuedMap.from_tensor(j_struct, phi, psi)
        assert_matches_oracle(t, fraction_from_tensor(j_struct, phi, psi))
        other = FormValuedMap.from_tensor(j_struct, drawn_lambda(data, j_struct, p), psi)
        assert_matches_oracle(t + other, combine(values(t), values(other)))


@pytest.mark.parametrize("kind,n", ORACLE_STRUCTURES)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_pairings_match_one_inner_call_per_basis_form(kind, n, data):
    """LambdaBasis.pairings reads <alpha, b_d> off the coordinate table; one
    ``inner`` call per basis form must agree, in every degree, on lambda
    members and on arbitrary forms with Fraction coefficients."""
    j_struct = oracle_structure(kind, n)
    rng = SplitMix64(data.draw(st.integers(0, 2**32)))
    for degree in range(n + 1):
        basis = lambda_basis(j_struct, degree)
        member = drawn_lambda(data, j_struct, degree)
        arbitrary = random_form(j_struct.space, degree, rng)
        for alpha in (member, arbitrary):
            got = basis.pairings(alpha)
            assert set(got) <= set(range(basis.dim))
            assert [got.get(d, 0) for d in range(basis.dim)] == [inner(alpha, b) for b in basis.forms]
        # a form of another degree is refused, like ``inner`` refuses it
        with pytest.raises(DegreeMismatchError):
            basis.pairings(random_form(j_struct.space, (degree + 1) % (n + 1), rng))


@pytest.mark.parametrize("kind,n", [(kind, n) for kind, n in ORACLE_STRUCTURES if n <= 6])
def test_integer_maps_match_the_fraction_oracle_on_kernel_tensors(kind, n):
    """a_kernel_tensors builds each map from the Fraction nullspace vectors
    t times |b_d|^2."""
    j_struct = oracle_structure(kind, n)
    for p, q in degree_pairs(n):
        dom, cod = lambda_basis(j_struct, p), lambda_basis(j_struct, q)
        vectors = exact_nullspace(a_full_matrix(j_struct, p, q), dom.dim * cod.dim)
        kernel = a_kernel_tensors(j_struct, p, q)
        assert len(kernel) == len(vectors)
        for vec, ker in zip(vectors, kernel):
            want = [{} for _ in range(cod.dim)]
            for col, t in vec.items():
                d, e = divmod(col, cod.dim)
                want[e][d] = t * dom.norms_sq[d]
            assert_matches_oracle(ker, want)


# -- the integer representation ---------------------------------------------


def invariant_maps():
    """Maps from every constructor and operation, on the standard and the
    rotated J, several of them with a denominator above 1."""
    rng = SplitMix64(31)
    for j_struct in (J6, rotated_j(6)):
        phi = random_lambda(j_struct, 2, rng) * Fraction(1, 3)
        psi = random_lambda(j_struct, 1, rng) * Fraction(2, 7)
        t = FormValuedMap.from_tensor(j_struct, phi, psi)
        yield t
        yield from split_type(t)
        yield t.conjugated_by_bbj()
        yield t + random_map(j_struct, 2, 1, rng)
        yield t - t
        yield zero_map(j_struct, 2, 1)
        yield FormValuedMap.identity(j_struct, 2)
        yield bb_j_map(j_struct, 2)
        yield from a_kernel_tensors(j_struct, 1, 2)[:3]
        cod = lambda_basis(j_struct, 2)
        yield map_from_images(j_struct, 1, 2, [b * Fraction(1, 4) for b in cod.forms[:6]])


def test_rows_are_integers_in_lowest_terms_over_a_positive_denominator():
    dens = set()
    for m in invariant_maps():
        nums = [v for row in m.rows for v in row.values()]
        assert all(type(v) is int and v != 0 for v in nums)
        assert type(m.den) is int and m.den >= 1
        assert gcd(m.den, *nums) == 1
        dens.add(m.den)
    assert len(dens) > 2


def test_map_entries_must_be_ints_over_the_denominator():
    """Rationals become rows in ``linalg.integer_rows``; the constructor
    refuses any other entry, and reduces int rows over an explicit den."""
    for bad in (0.5, Fraction(1, 2), Fraction(2), 1.0, True):
        with pytest.raises(InvariantViolationError, match="ints over the common denominator"):
            FormValuedMap(J4, 1, 1, [{0: 1}, {1: bad}, {}, {}])
    reduced = FormValuedMap(J4, 1, 1, [{0: 2}, {1: 4}, {}, {}], 6)
    assert reduced.rows == [{0: 1}, {1: 2}, {}, {}] and reduced.den == 3


def test_integer_rows_drop_zeros_and_reduce_without_touching_the_given_rows():
    rows = [{0: 4, 1: 0}, {1: 6}, {}, {2: -2}]
    given = [dict(row) for row in rows]
    m = FormValuedMap(J4, 1, 1, rows, 10)
    assert rows == given
    assert m.rows == [{0: 2}, {1: 3}, {}, {2: -1}]
    assert m.den == 5
    kept = FormValuedMap(J4, 1, 1, rows[1:2] + [{}, {}, {0: 1}], 3)
    assert kept.rows == [{1: 6}, {}, {}, {0: 1}] and kept.den == 3
    assert rows == given


@pytest.mark.parametrize(
    "rows",
    [
        [{0: 1}, {1: 2}],
        [{-1: 1}, {}, {}, {0: 1}],
        [{0: 1, 2: 3}, {}, {}, {}],
    ],
    ids=["row-count", "negative-column", "column-past-the-domain"],
)
def test_the_matrix_shape_must_match_the_bases(rows):
    """A map from the degree-2 to the degree-1 lambda forms on R^4 has
    four rows (the codomain) and columns 0 and 1 (the domain)."""
    assert (lambda_basis(J4, 2).dim, lambda_basis(J4, 1).dim) == (2, 4)
    assert FormValuedMap(J4, 2, 1, [{0: 1, 1: 3}, {}, {}, {1: 1}], 2).den == 2
    with pytest.raises(InvariantViolationError, match="matrix shape does not match the bases"):
        FormValuedMap(J4, 2, 1, rows)


@pytest.mark.parametrize("other", [Space(6), Space(4, "float")], ids=["dim6", "float4"])
@pytest.mark.parametrize("side", ["phi", "psi"])
def test_from_tensor_rejects_a_form_from_another_space(other, side):
    """e^1 and e^12 of another space have masks that the coordinate tables
    of R^4 know, so only the space check can refuse them."""
    phi, psi = S4.basis_form(1, 2), S4.basis_form(1)
    if side == "phi":
        phi = other.basis_form(1, 2)
    else:
        psi = other.basis_form(1)
    with pytest.raises(SpaceMismatchError):
        FormValuedMap.from_tensor(J4, phi, psi)


@pytest.mark.parametrize("den", [0, -2, Fraction(1, 2), 1.0])
def test_the_denominator_must_be_a_positive_int(den):
    with pytest.raises(InvariantViolationError, match="positive int"):
        FormValuedMap(J4, 1, 1, [{} for _ in range(4)], den)


def test_readers_return_values_for_different_denominators():
    rng = SplitMix64(37)
    j_struct = rotated_j(6)
    a = FormValuedMap.from_tensor(
        j_struct, random_lambda(j_struct, 2, rng) * Fraction(1, 3), random_lambda(j_struct, 2, rng))
    b = FormValuedMap.from_tensor(
        j_struct, random_lambda(j_struct, 2, rng), random_lambda(j_struct, 2, rng) * Fraction(5, 7))
    assert a.den != b.den and a.den > 1 and b.den > 1
    ma, mb = a.matrix, b.matrix
    assert ma == dense_rows(values(a), a.domain.dim)
    assert (a + b).matrix == [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(ma, mb)]
    assert (a - b).matrix == [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ma, mb)]
    assert a.max_entry() == max(abs(v) for row in ma for v in row)
    assert zero_map(j_struct, 2, 2).max_entry() == 0


# -- split_type ----------------------------------------------------------


def test_split_of_bb_j_is_commuting():
    q = bb_j_map(J4, 1)
    q1, q2 = split_type(q)
    assert q1.matrix == q.matrix and q2.max_entry() == 0


def test_split_of_identity_is_commuting():
    q = FormValuedMap.identity(J4, 2)
    q1, q2 = split_type(q)
    assert q1.matrix == q.matrix and q2.max_entry() == 0


def _compose(a, b):
    n = len(b.matrix[0])
    mid = len(b.matrix)
    return [
        [sum(a.matrix[i][k] * b.matrix[k][j] for k in range(mid)) for j in range(n)]
        for i in range(len(a.matrix))
    ]


def test_split_posted_relations():
    """The first part commutes with bb_j, the second anticommutes."""
    jj = bb_j_map(J4, 1)
    base = random_map(J4, 1, 1, SplitMix64(3))
    q1, q2 = split_type(base)
    assert _compose(q1, jj) == _compose(jj, q1)
    assert _compose(q2, jj) == [[-v for v in row] for row in _compose(jj, q2)]
    assert (q1 + q2).matrix == base.matrix


def test_split_anticommuting_input_lands_second():
    base = random_map(J4, 1, 1, SplitMix64(43))
    anti = split_type(base)[1]
    back1, back2 = split_type(anti)
    assert back1.max_entry() == 0 and back2.matrix == anti.matrix


def test_split_is_projection():
    rng = SplitMix64(5)
    q = random_map(J6, 1, 2, rng)
    q1, q2 = split_type(q)
    assert split_type(q1)[0].matrix == q1.matrix
    assert split_type(q1)[1].max_entry() == 0
    assert split_type(q2)[0].max_entry() == 0


# -- antisymmetrize --------------------------------------------------------


def test_antisymmetrize_of_identity_vanishes():
    assert antisymmetrize(FormValuedMap.identity(J4, 1)).is_zero()


def test_antisymmetrize_of_bb_j_is_minus_two_omega():
    from hodgelab.lefschetz import kahler_form

    out = antisymmetrize(bb_j_map(J4, 1))
    assert out == -2 * kahler_form(J4)


def test_antisymmetrize_rank_one_multiplicity():
    rng = SplitMix64(7)
    for (p, q) in ((1, 1), (1, 2), (2, 1), (2, 2)):
        phi = random_lambda(J6, p, rng)
        psi = random_lambda(J6, q, rng)
        t = FormValuedMap.from_tensor(J6, phi, psi)
        from math import factorial

        assert antisymmetrize(t) == factorial(p) * wedge(phi, psi)


# -- the multilinear oracle for a(Q) ----------------------------------------
#
# a(Q) and the contraction identity as they were computed before both read
# the integer images of the basis forms: Q evaluated on every basis mask,
# each value a Fraction form built term by term, then sum_I e^I ^ Q(e_I).


def multilinear_eval(q_map, mask):
    """Q(e_I) for the increasing basis tuple I of ``mask``: the coordinates
    of e^I on the domain basis, times the columns of Q."""
    space = q_map.j.space
    out = space.zero_form(q_map.q)
    for d, c in q_map.domain.pairings(Form(space, q_map.p, {mask: 1})).items():
        col = Fraction(c, q_map.domain.norms_sq[d] * q_map.den)
        for i, row in enumerate(q_map.rows):
            if d in row:
                out = out + (row[d] * col) * q_map.codomain.forms[i]
    return out


def multilinear_antisymmetrize(space, p, q, eval_mask):
    """p! sum over the increasing p-tuples I of e^I ^ Q(e_I)."""
    out = space.zero_form(p + q)
    for mask in basis_masks(space.dim, p):
        value = eval_mask(mask)
        if not value.is_zero():
            out = out + wedge(Form(space, p, {mask: space.one}), value)
    return factorial(p) * out


def multilinear_contraction_residual(q_map, x):
    """X -| a(Q) - p a(Q_X) - (-1)^p a(Q^X), the last two through the
    multilinear oracle; a(Q) is read from ``tensor_maps`` at call time."""
    space, p, q = q_map.j.space, q_map.p, q_map.q
    lhs = contract(x, tensor_maps.antisymmetrize(q_map))

    def q_x(mask):
        # Q(X, e_rest) = sum_m X^m Q(e_m, e_rest); merge_sign sorts (m, rest)
        out = space.zero_form(q)
        for bit, comp in x.coeffs.items():
            if not mask & bit:
                out = out + (comp * merge_sign(bit, mask)) * multilinear_eval(q_map, mask | bit)
        return out

    def q_upper(mask):
        return contract(x, multilinear_eval(q_map, mask))

    a_qx = multilinear_antisymmetrize(space, p - 1, q, q_x)
    a_qupper = multilinear_antisymmetrize(space, p, q - 1, q_upper)
    return lhs - p * a_qx - ((-1) ** p) * a_qupper


def test_antisymmetrize_matches_multilinear_route():
    rng = SplitMix64(11)
    for (p, q) in ((1, 2), (2, 2)):
        q_map = random_map(J6, p, q, rng)
        direct = antisymmetrize(q_map)
        via_eval = multilinear_antisymmetrize(
            S6, p, q, lambda mask: multilinear_eval(q_map, mask))
        assert direct == via_eval


@pytest.mark.parametrize("faulty", [False, True], ids=["true-a", "a-without-factorial"])
@pytest.mark.parametrize("kind, n", [(kind, n) for kind in ("standard", "rotated")
                                     for n in (4, 6, 8)])
def test_contraction_residual_matches_the_multilinear_route(kind, n, faulty, monkeypatch):
    """The residual from the integer images equals the multilinear one on
    random unsplit maps, for every (p, q) with p, q <= n/2: zero for the true
    a(Q), and the same nonzero form when a(Q) loses its p!."""
    if faulty:
        real = tensor_maps.antisymmetrize
        monkeypatch.setattr(tensor_maps, "antisymmetrize",
                            lambda q_map: real(q_map) * Fraction(1, factorial(q_map.p)))
    j_struct = oracle_structure(kind, n)
    rng = SplitMix64(53 + n)
    nonzero = 0
    for p in range(1, n // 2 + 1):
        for q in range(1, n // 2 + 1):
            q_map = random_map(j_struct, p, q, rng)
            x = random_vector(j_struct.space, rng)
            got = contraction_identity_check(q_map, x)
            assert got == multilinear_contraction_residual(q_map, x)
            nonzero += not got.is_zero()
    # a(Q) without p! changes nothing at p = 1
    assert nonzero == (n // 2 * (n // 2 - 1) if faulty else 0)


def test_antisymmetrize_overflow():
    with pytest.raises(DegreeOverflowError):
        antisymmetrize(zero_map(J4, 3, 2))


def test_eigen_membership_of_halves():
    rng = SplitMix64(17)
    for j_struct in (J4, J6):
        for (p, q) in ((1, 1), (1, 2), (2, 1), (2, 2)):
            if p + q > j_struct.space.dim:
                continue
            for _ in range(10):
                q_map = random_map(j_struct, p, q, rng)
                q1, q2 = split_type(q_map)
                assert bidegree_eigen_residual(j_struct, antisymmetrize(q1), p, q).is_zero()
                assert bidegree_eigen_residual(
                    j_struct, antisymmetrize(q2), p + q, 0
                ).is_zero()


def form_eigen_residual(j_struct, alpha, p, q):
    """The residual curly_j^2(alpha) + (p-q)^2 alpha in Form arithmetic."""
    return curly_j(j_struct, curly_j(j_struct, alpha)) + (p - q) ** 2 * alpha


def max_abs(alpha):
    return float(max((abs(c) for c in alpha.coeffs.values()), default=0))


def drawn_form(data, space, degree):
    """A form with up to four drawn basis masks and nonzero Fraction coefficients."""
    masks = basis_masks(space.dim, degree)
    coeffs = {}
    for _ in range(data.draw(st.integers(1, 4))):
        coeffs[masks[data.draw(st.integers(0, len(masks) - 1))]] = data.draw(
            small_fractions.filter(bool))
    return Form(space, degree, coeffs)


@pytest.mark.parametrize("kind,n", ORACLE_STRUCTURES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_eigen_residual_matches_the_form_oracle(kind, n, data):
    """The integer residual against ``form_eigen_residual`` for the halves'
    a(Q), through ``bidegree_eigen_residual`` and from the numerators, and
    for drawn forms, at every target pair (s, t) of the degree: the right
    one and the wrong ones, whose residuals are nonzero."""
    j_struct = oracle_structure(kind, n)
    nonzero = 0

    def check(alpha, got_from_nums):
        nonlocal nonzero
        d = alpha.degree
        for s in range((d + 1) // 2, d + 1):
            want = form_eigen_residual(j_struct, alpha, s, d - s)
            got = [bidegree_eigen_residual(j_struct, alpha, s, d - s)]
            if got_from_nums is not None:
                got.append(eigen_residual(j_struct, d, *got_from_nums, s, d - s))
            for g in got:
                assert g.coeffs == want.coeffs
                assert campaigns._res(g) == max_abs(want)
            nonzero += not want.is_zero()

    for p, q in degree_pairs(n):
        phi, psi = drawn_lambda(data, j_struct, p), drawn_lambda(data, j_struct, q)
        for half in split_type(FormValuedMap.from_tensor(j_struct, phi, psi)):
            check(antisymmetrize(half), antisymmetrize_numerators(half))
    for degree in range(1, n + 1):
        check(drawn_form(data, j_struct.space, degree), None)
    assert nonzero


def test_lemma_2_1_cases_fail_when_the_halves_are_swapped(monkeypatch):
    """With the commuting and anticommuting halves swapped, a case fails
    exactly when a swapped half has a nonzero a(Q), and its residual is the
    oracle's largest |coefficient| over the two swapped checks."""
    real = campaigns.split_type
    halves = []

    def swapped(t):
        q1, q2 = real(t)
        halves.append((q1, q2))
        return q2, q1

    monkeypatch.setattr(campaigns, "split_type", swapped)
    report = campaigns.run_campaign(campaigns.Campaign("lemma-2.1", dims=[4, 6, 8], seeds=[1, 2]))
    assert len(halves) == len(report.cases)
    failed = 0
    for case, (q1, q2) in zip(report.cases, halves):
        j_struct, p, q = q1.j, q1.p, q1.q
        want = max(
            max_abs(form_eigen_residual(j_struct, antisymmetrize(q2), p, q)),
            max_abs(form_eigen_residual(j_struct, antisymmetrize(q1), p + q, 0)),
        )
        assert case.residual == want
        assert case.passed == (want == 0)
        failed += not case.passed
    assert failed > len(report.cases) // 2


# -- rank and kernel -------------------------------------------------------


@pytest.mark.parametrize("dim,p,q", [(4, 1, 2), (6, 1, 2), (6, 2, 3), (8, 1, 2)])
def test_a_injective_on_commuting_half(dim, p, q):
    j_struct = ComplexStructure.standard(Space(dim))
    dim1, dim2 = tensor_type_dims(j_struct, p, q)
    assert dim1 == dim2  # the two halves have equal dimension
    assert a_restricted_rank(j_struct, p, q) == dim1


def test_kernel_vectors_have_zero_commuting_part():
    for (p, q) in ((1, 2), (2, 1)):
        for ker in a_kernel_tensors(J6, p, q):
            q1, q2 = split_type(ker)
            assert q1.max_entry() == 0
            assert not antisymmetrize(ker).coeffs  # really in the kernel


def test_equal_degree_kernel_decomposes():
    """For p = q the kernel meets both halves but splits componentwise."""
    kers = a_kernel_tensors(J4, 1, 1)
    identity_in_kernel = False
    for ker in kers:
        q1, q2 = split_type(ker)
        assert antisymmetrize(q1).is_zero()
        assert antisymmetrize(q2).is_zero()
    ident = FormValuedMap.identity(J4, 1)
    assert antisymmetrize(ident).is_zero()  # the identity is a kernel element
    assert split_type(ident)[0].matrix == ident.matrix  # ... of commuting type


def test_trivial_rank_cases():
    assert a_restricted_rank(J4, 0, 0) == 0


def test_contraction_identity_seeded():
    rng = SplitMix64(19)
    for j_struct in (J4, J6):
        for _ in range(3):
            q_map = split_type(random_map(j_struct, 2, 2, rng))[0]
            x = random_vector(j_struct.space, rng)
            assert contraction_identity_check(q_map, x).is_zero()
            # and on the anticommuting half, where it also holds identically
            q2 = split_type(random_map(j_struct, 2, 1, rng))[1]
            assert contraction_identity_check(q2, x).is_zero()


def test_contraction_identity_check_refuses_a_vector_on_another_space():
    q_map = split_type(random_map(J4, 2, 2, SplitMix64(19)))[0]
    with pytest.raises(SpaceMismatchError):
        contraction_identity_check(q_map, S6.basis_form(1))
    with pytest.raises(SpaceMismatchError):
        contraction_identity_check(q_map, Space(4, "float").basis_form(1))


def test_prop_2_2_contract_cases_fail_when_a_loses_its_factorial(monkeypatch):
    """With a(Q) missing its p! inside the contraction check, every
    contract case fails with the largest |coefficient| of
    (1/p! - 1) X -| a(Q), a(Q) taken from the Fraction oracle: the identity
    holds for the true a(Q), so that difference is the whole residual.  The
    rank and kernel cases do not antisymmetrize and still pass."""
    real = tensor_maps.antisymmetrize
    monkeypatch.setattr(tensor_maps, "antisymmetrize",
                        lambda q_map: real(q_map) * Fraction(1, factorial(q_map.p)))
    real_check = campaigns.contraction_identity_check
    inputs = []

    def recorded(q_map, x):
        inputs.append((q_map, x))
        return real_check(q_map, x)

    monkeypatch.setattr(campaigns, "contraction_identity_check", recorded)
    report = campaigns.run_campaign(
        campaigns.Campaign("prop-2.2", dims=[4, 6, 8], seeds=list(range(1, 7))))
    cases = [c for c in report.cases if "/contract/" in c.id]
    assert len(cases) == len(inputs) == 9
    for case, (q_map, x) in zip(cases, inputs):
        a_q = fraction_antisymmetrize(q_map.j, q_map.p, q_map.q, values(q_map))
        want = max_abs(contract(x, a_q) * (Fraction(1, factorial(q_map.p)) - 1))
        assert want > 0 and case.residual == want and not case.passed
    assert all(c.passed for c in report.cases if "/contract/" not in c.id)


def _prop_2_2_pairs(dim):
    """The (p, q) of the rank and kernel cases of prop-2.2 on R^dim, those
    with both Lambda spaces nonzero, with the kernel tensors of a, computed
    before any fault is planted."""
    j_struct = ComplexStructure.standard(Space(dim))
    return {
        (p, q): a_kernel_tensors(j_struct, p, q)
        for p in range(1, 4) for q in range(1, 4) if p != q and max(p, q) <= dim // 2
    }


def test_prop_2_2_rank_cases_fail_on_the_anticommuting_projector(monkeypatch):
    """With 1/2 (I - Jp (x) Jq) in place of the commuting projector, a is
    restricted to the anticommuting half, which holds ker a, so every rank
    case fails with residual dim ker a.  The kernel and contract cases do not
    read the projector and still pass."""
    kernels = {dim: _prop_2_2_pairs(dim) for dim in (4, 6)}
    real = tensor_maps._commuting_projector

    def anticommuting(j_struct, p, q):
        rows, den = real(j_struct, p, q)
        return combine([{i: den} for i in range(len(rows))], rows, 1, -1), den

    monkeypatch.setattr(tensor_maps, "_commuting_projector", anticommuting)
    report = campaigns.run_campaign(campaigns.Campaign("prop-2.2", dims=[4, 6]))
    cases = {c.id: c for c in report.cases}
    residuals = {}
    for dim, pairs in kernels.items():
        for (p, q), kernel in pairs.items():
            rank = cases.pop(f"dim{dim}/p{p}q{q}/rank")
            assert rank.residual == len(kernel) and not rank.passed
            residuals[dim, p, q] = rank.residual
    assert residuals == {
        (4, 1, 2): 4, (4, 2, 1): 4,
        (6, 1, 2): 16, (6, 2, 1): 16,
        (6, 1, 3): 6, (6, 2, 3): 6, (6, 3, 1): 6, (6, 3, 2): 6,
    }
    assert all(c.passed for c in cases.values())


def test_prop_2_2_kernel_cases_fail_when_the_halves_are_swapped(monkeypatch):
    """With split_type returning its halves swapped, the kernel cases read
    the anticommuting half, which is the whole kernel tensor: each fails
    with the largest entry of its pair's kernel tensors.  The rank cases do
    not split, and the contraction identity is the Leibniz rule, which holds
    on either half, so those cases still pass."""
    kernels = {dim: _prop_2_2_pairs(dim) for dim in (4, 6)}
    real = campaigns.split_type
    monkeypatch.setattr(campaigns, "split_type", lambda t: real(t)[::-1])
    report = campaigns.run_campaign(campaigns.Campaign("prop-2.2", dims=[4, 6]))
    cases = {c.id: c for c in report.cases}
    residuals = {}
    for dim, pairs in kernels.items():
        for (p, q), kernel in pairs.items():
            case = cases.pop(f"dim{dim}/p{p}q{q}/kernel")
            assert case.residual == max(k.max_entry() for k in kernel) and not case.passed
            residuals[dim, p, q] = case.residual
    assert residuals == {
        (4, 1, 2): 1, (4, 2, 1): 2,
        (6, 1, 2): 1, (6, 1, 3): 1, (6, 2, 1): 2, (6, 2, 3): 2, (6, 3, 1): 4, (6, 3, 2): 4,
    }
    assert all(c.passed for c in cases.values())


# -- holomorphic_q ---------------------------------------------------------


def _compatible_table(j_struct, p, rng):
    table = {}
    for i in range(1, j_struct.space.dim + 1, 2):
        d_val = random_lambda(j_struct, p, rng)
        table[i] = d_val
        table[i + 1] = bb_j(j_struct, d_val) if not d_val.is_zero() else d_val
    return table


def test_holomorphic_q_zero_table():
    table = {i: S4.zero_form(2) for i in range(1, 5)}
    big_omega = S4.form(2, {(1, 3): 1, (2, 4): -1})
    assert holomorphic_q(J4, big_omega, table).max_entry() == 0


def test_holomorphic_q_on_a_float_j_passes_the_backend_refusal_through():
    # the input is valid; the map needs the exact lambda bases, and that
    # refusal must not read as an invalid derivative table
    space = Space(4, "float")
    j_float = ComplexStructure.standard(space)
    table = {i: space.zero_form(2) for i in range(1, 5)}
    big_omega = space.form(2, {(1, 3): 1, (2, 4): -1})
    with pytest.raises(InvariantViolationError, match="exact backend"):
        holomorphic_q(j_float, big_omega, table)


def test_holomorphic_q_structured_example():
    big_omega = S4.form(2, {(1, 3): 1, (2, 4): -1})
    other = S4.form(2, {(2, 3): 1, (1, 4): 1})
    table = {1: other, 2: bb_j(J4, other), 3: S4.zero_form(2), 4: S4.zero_form(2)}
    q_map = holomorphic_q(J4, big_omega, table)
    q1, q2 = split_type(q_map)
    assert q2.max_entry() == 0 and q1.max_entry() != 0


def test_holomorphic_q_random_membership():
    rng = SplitMix64(23)
    for j_struct, degrees in ((J4, (2,)), (J6, (2, 3))):
        for p in degrees:
            for _ in range(4):
                omega_form = random_lambda(j_struct, p, rng)
                if omega_form.is_zero():
                    continue
                table = _compatible_table(j_struct, p, rng)
                q_map = holomorphic_q(j_struct, omega_form, table)
                assert split_type(q_map)[1].max_entry() == 0


def test_holomorphic_q_rejects_incompatible_table():
    big_omega = S4.form(2, {(1, 3): 1, (2, 4): -1})
    other = S4.form(2, {(2, 3): 1, (1, 4): 1})
    with pytest.raises(InvalidDerivativeError):
        holomorphic_q(J4, big_omega, {1: other, 2: other, 3: S4.zero_form(2), 4: S4.zero_form(2)})
    with pytest.raises(InvalidDerivativeError):
        # value outside the (p,0)+(0,p) space
        from hodgelab.lefschetz import kahler_form

        bad = kahler_form(J4)
        holomorphic_q(J4, big_omega, {1: bad, 2: bad, 3: bad, 4: bad})
    with pytest.raises(InvalidDerivativeError, match="index 4"):
        # a table without every index 1..n, not the KeyError of the lookup
        holomorphic_q(J4, big_omega, {i: S4.zero_form(2) for i in (1, 2, 3)})


def test_lemma_3_1_cases_fail_when_the_slot_form_contracts_in_reverse(monkeypatch):
    """Contracting e^I outermost first is (-1)^(k(k-1)/2) times adjoint_wedge
    on a k-form e^I.  Then every p = 3 slot form flips its sign, and each
    p = 3 case fails with residual 2 max |coefficient| of the rotated slot
    forms Omega(J e_i1, e_i2, .) it checks; the one-slot p = 2 cases pass."""
    real = campaigns.adjoint_wedge

    def reversed_order(phi, psi):
        k = phi.degree
        return (-1) ** (k * (k - 1) // 2) * real(phi, psi)

    real_q = campaigns.holomorphic_q
    bases = []

    def recorded(j_struct, omega_form, table):
        bases.append((j_struct, omega_form))
        return real_q(j_struct, omega_form, table)

    monkeypatch.setattr(campaigns, "adjoint_wedge", reversed_order)
    monkeypatch.setattr(campaigns, "holomorphic_q", recorded)
    report = campaigns.run_campaign(campaigns.Campaign("lemma-3.1", dims=[6, 8], seeds=[1, 2, 3]))
    assert len(bases) == len(report.cases)
    failed = 0
    for case, (j_struct, omega_form) in zip(report.cases, bases):
        p = omega_form.degree
        if p == 2:
            assert case.passed
            continue
        want = 0.0
        for mask in basis_masks(j_struct.space.dim, p - 1)[:6]:
            first, *rest = mask_to_indices(mask)
            rotated = contract(j_struct.basis_image(first), omega_form)
            for i in rest:
                rotated = contract(j_struct.space.basis_form(i), rotated)
            want = max(want, 2 * max_abs(rotated))
        assert not case.passed and case.residual == want > 0
        failed += 1
    assert failed == 6


# -- the multilinear oracle for holomorphic_q -------------------------------
#
# holomorphic_q as it was built before the closed form: the multilinear
# value Q(e_I) = sum_k Omega(e_I, e_k) D_k on every increasing index tuple I,
# summed over the terms of each basis form, then re-evaluated on every mask.


def multilinear_holomorphic_q(j_struct, omega_form, d_table):
    space = j_struct.space
    p = omega_form.degree

    def fn(mask):
        # the slot form Omega(e_I, .), the first index of I contracted innermost
        s = adjoint_wedge(Form(space, p - 1, {mask: 1}), omega_form)
        out = space.zero_form(p)
        for m, comp in s.coeffs.items():
            out = out + comp * d_table[m.bit_length()]
        return out

    values = {mask: fn(mask) for mask in basis_masks(space.dim, p - 1)}
    images = []
    for b in lambda_basis(j_struct, p - 1).forms:
        img = space.zero_form(p)
        for mask, coeff in b.coeffs.items():
            img = img + coeff * values[mask]
        images.append(img)
    out = map_from_images(j_struct, p - 1, p, images)
    # faithful only when the input factor lies in the (p-1,0)+(0,p-1) forms
    assert all(multilinear_eval(out, mask) == value for mask, value in values.items())
    return out


def general_compatible_table(j_struct, p, rng):
    """D_X = A_X - bb_j(A_{J X}) for random A_X in the (p,0)+(0,p) forms, so
    that D_{J X} = A_{J X} + bb_j(A_X) = bb_j(D_X) for any J."""
    space = j_struct.space
    a_table = [random_lambda(j_struct, p, rng) for _ in range(space.dim)]
    table = {}
    for i in range(1, space.dim + 1):
        a_jx = space.zero_form(p)
        for bit, comp in j_struct.basis_image(i).coeffs.items():
            a_jx = a_jx + comp * a_table[bit.bit_length() - 1]
        table[i] = a_table[i - 1] - bb_j(j_struct, a_jx)
    return table


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in ("standard", "rotated")
                                     for n in (4, 6, 8)])
def test_holomorphic_q_matches_the_multilinear_oracle(kind, n):
    """Equal integer rows and denominator, p = 2 and 3; a sign flip of the
    closed form fails here."""
    j_struct = oracle_structure(kind, n)
    rng = SplitMix64(311 + n)
    nonzero = 0
    for p in (2, 3):
        if lambda_basis(j_struct, p).dim == 0:
            continue
        for _ in range(3):
            omega_form = random_lambda(j_struct, p, rng, terms=3)
            table = general_compatible_table(j_struct, p, rng)
            got = holomorphic_q(j_struct, omega_form, table)
            want = multilinear_holomorphic_q(j_struct, omega_form, table)
            assert (got.rows, got.den) == (want.rows, want.den)
            nonzero += got.max_entry() != 0
    assert nonzero


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in ("standard", "rotated")
                                     for n in (2, 4, 6, 8, 10)])
def test_contraction_keeps_the_lambda_type(kind, n):
    """e_k -| b is of type (p-1,0)+(0,p-1) for every basis form b of the
    (p,0)+(0,p) forms and every k: the closed form of holomorphic_q is
    exact on the lambda bases because of this."""
    j_struct = oracle_structure(kind, n)
    for p in range(1, n // 2 + 1):
        for b in lambda_basis(j_struct, p).forms:
            for k in range(1, n + 1):
                assert in_lambda_p(j_struct, contract_index(k, b))


# -- torsion ---------------------------------------------------------------


def test_admissible_torsion_dimensions():
    """Matches the almost-Kahler torsion module: k^2 (k-1) - 2 C(k, 3)."""
    from math import comb

    for k, expected in ((2, 4), (3, 16)):
        j_struct = ComplexStructure.standard(Space(2 * k))
        assert len(admissible_torsion_basis(j_struct)) == expected
        assert expected == k * k * (k - 1) - 2 * comb(k, 3)


def _zero_etas(n, rows=None, cols=None):
    return [[[0] * (cols or n) for _ in range(rows or n)] for _ in range(n)]


def test_torsion_validation_rejects_bad_input():
    """torsion_bullet needs an n x n Q, n = len(etas): a Q with a row too
    few, a column too few or a column too many is refused, the last before
    it indexes past the eta parameters; so is a count of etas other than n."""
    for rows, cols in ((5, 6), (6, 4), (6, 7)):
        with pytest.raises(InvariantViolationError, match="n x n"):
            torsion_bullet([[1] * cols for _ in range(rows)], _zero_etas(6))
    ident = [[int(i == j) for j in range(6)] for i in range(6)]
    for etas in (_zero_etas(6)[:5], _zero_etas(6) + _zero_etas(6)[:1]):
        with pytest.raises(InvariantViolationError, match="n x n"):
            torsion_bullet(ident, etas)


def test_torsion_bullet_refuses_an_eta_that_is_not_skew():
    """Only the entries above the diagonal enter the bullet, so a non-skew
    eta would be read as the skew map of its upper triangle: with
    eta_0[1][0] = 5 alone and the all-ones Q on R^4 that bullet is zero.
    Such an eta, or one with a nonzero diagonal entry, is refused."""
    ones = [[1] * 4 for _ in range(4)]
    etas = _zero_etas(4)
    etas[0][1][0] = 5
    with pytest.raises(InvariantViolationError, match="skew"):
        torsion_bullet(ones, etas)
    etas[0][0][1] = -5
    assert any(v for plane in torsion_bullet(ones, etas) for row in plane for v in row)
    etas[2][3][3] = 1
    with pytest.raises(InvariantViolationError, match="skew"):
        torsion_bullet(ones, etas)


@pytest.mark.parametrize("rows,cols", [(4, 5), (5, 4), (3, 4), (4, 3)])
def test_torsion_rejects_values_that_are_not_n_by_n(rows, cols):
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    with pytest.raises(InvariantViolationError, match="n x n"):
        torsion_bullet(ident, _zero_etas(4, rows, cols))


def structural_defects(j_struct, etas):
    """(cyclic, compatibility): the indices of the rows of ``_structural_rows``
    that do not vanish at the entries of the eta_a above the diagonal, split
    into the C(n, 3) cyclic rows, which come first, and the eta_{JX} = eta_X J
    rows after them."""
    n = j_struct.space.dim
    rows, _ = _structural_rows(j_struct)
    params = [eta[r][c] for eta in etas for r, c in combinations(range(n), 2)]
    ncyclic = len(basis_masks(n, 3))
    failed = [i for i, row in enumerate(rows) if sum(v * params[col] for col, v in row.items())]
    return [i for i in failed if i < ncyclic], [i for i in failed if i >= ncyclic]


def test_torsion_rejects_a_map_that_does_not_intertwine_j():
    etas = _zero_etas(4)
    etas[0][0][1], etas[0][1][0] = 1, -1  # eta_{e1} = e^2 (x) e_1 - e^1 (x) e_2
    _, compatibility = structural_defects(J4, etas)
    assert compatibility


def test_torsion_rejects_a_cyclic_defect():
    """eta_X = f(X) F - f(J X) F J with F skew and anticommuting with J is
    skew and satisfies eta_{JX} = eta_X J.  With f = e^1 and F acting on
    e_3..e_6 only, <eta_{e1} e_3, e_6> = -1 is the whole cyclic sum: only a
    cyclic row fails."""
    n = 6
    f_rows = [[0] * n for _ in range(n)]
    f_rows[2][5], f_rows[3][4], f_rows[4][3], f_rows[5][2] = 1, 1, -1, -1
    fj_rows = dense_rows(compose(sparse_rows(f_rows), J6.sparse_rows), n)
    etas = []
    for a in range(n):
        # f(e_a) = [a == 0] and f(J e_a) = J[0][a]
        fa, fja = int(a == 0), J6.rows[0][a]
        etas.append([[fa * f_rows[r][c] - fja * fj_rows[r][c] for c in range(n)]
                     for r in range(n)])
    cyclic, compatibility = structural_defects(J6, etas)
    assert cyclic and not compatibility


@pytest.mark.parametrize("j_struct", [
    ComplexStructure.standard(Space(4)),
    ComplexStructure.standard(Space(6)),
    ComplexStructure.standard(Space(8)),
    rotated_j(6),
], ids=["std4", "std6", "std8", "rotated6"])
def test_admissible_torsion_passes_the_dense_oracle(j_struct):
    """Each basis element is n dense matrices eta_a = eta_{e_a}, each skew,
    with eta_{J e_a} = sum_b J[b][a] eta_b equal to eta_a J and the cyclic
    sum of eq. (7) for Q = I zero, all checked on dense products."""
    n = j_struct.space.dim
    J = j_struct.rows
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    basis = admissible_torsion_basis(j_struct)
    assert basis
    for etas in basis:
        assert len(etas) == n and any(v for eta in etas for row in eta for v in row)
        for a, eta in enumerate(etas):
            assert all(eta[r][c] == -eta[c][r] for r in range(n) for c in range(n))
            eta_ja = [[sum(J[b][a] * etas[b][r][c] for b in range(n)) for c in range(n)]
                      for r in range(n)]
            eta_j = [[sum(eta[r][k] * J[k][c] for k in range(n)) for c in range(n)]
                     for r in range(n)]
            assert eta_ja == eta_j
        assert not any(v for plane in oracle_torsion_bullet(ident, etas)
                       for row in plane for v in row)


def _anticommutation_rows(j_struct):
    """Rows of eta_a J + J eta_a = 0 over the parameters of _structural_rows:
    column a * npairs + i is the i-th entry above the diagonal of eta_a."""
    n = j_struct.space.dim
    J = j_struct.rows
    index = {pair: i for i, pair in enumerate(combinations(range(n), 2))}
    npairs = len(index)

    def entry(a, r, c):
        """eta_a[r][c] as {column: coefficient}."""
        if r == c:
            return {}
        sign = 1 if r < c else -1
        return {a * npairs + index[(min(r, c), max(r, c))]: sign}

    rows = []
    for a in range(n):
        for r in range(n):
            for c in range(n):
                row = {}
                for k in range(n):
                    for col, v in entry(a, r, k).items():
                        row[col] = row.get(col, 0) + v * J[k][c]
                    for col, v in entry(a, k, c).items():
                        row[col] = row.get(col, 0) + J[r][k] * v
                rows.append({col: v for col, v in row.items() if v != 0})
    return rows


@pytest.mark.parametrize("j_struct", [
    ComplexStructure.standard(Space(4)),
    ComplexStructure.standard(Space(6)),
    ComplexStructure.standard(Space(8)),
    rotated_j(6),
], ids=["std4", "std6", "std8", "rotated6"])
def test_anticommutation_rows_add_nothing_to_the_structural_rows(j_struct):
    """eta_X J = -J eta_X follows from skewness and eta_{JX} = eta_X J, so adding
    its rows leaves the reduced echelon form, hence the nullspace, unchanged."""
    rows, npairs = _structural_rows(j_struct)
    ncols = j_struct.space.dim * npairs
    extended = rows + _anticommutation_rows(j_struct)
    assert exact_nullspace(extended, ncols) == exact_nullspace(rows, ncols)
    assert exact_rank(extended, ncols) == exact_rank(rows, ncols)


def test_bullet_zero_cases_and_cyclicity():
    basis = admissible_torsion_basis(J6)
    eta = basis[0]
    n = 6
    zero_q = [[0] * n for _ in range(n)]
    assert all(
        v == 0 for plane in torsion_bullet(zero_q, eta) for row in plane for v in row
    )
    zero_eta = _zero_etas(n)
    some_q = [[1 if (i + j) % 3 == 0 else 0 for j in range(n)] for i in range(n)]
    assert all(
        v == 0 for plane in torsion_bullet(some_q, zero_eta) for row in plane for v in row
    )
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert all(
        v == 0 for plane in torsion_bullet(ident, eta) for row in plane for v in row
    )
    rng = SplitMix64(29)
    q_rows = [[rng.small_int() for _ in range(n)] for _ in range(n)]
    bullet = torsion_bullet(q_rows, eta)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert bullet[x][y][z] == bullet[y][z][x]


def oracle_torsion_bullet(q_rows, etas):
    """The cyclic sum of eq. (7), term by term over every (x, y, z) and a,
    for the n = len(etas) dense matrices eta_a."""
    n = len(etas)
    out = [[[0] * n for _ in range(n)] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                val = 0
                for a in range(n):
                    val += (
                        q_rows[a][x] * etas[a][z][y]
                        + q_rows[a][y] * etas[a][x][z]
                        + q_rows[a][z] * etas[a][y][x]
                    )
                out[x][y][z] = val
    return out


def random_endomorphisms(n, rng):
    """An integer n x n matrix, in general neither skew nor invertible, and
    the same matrix with its first and last rows zeroed."""
    q_rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    zeroed = [[0] * n if a in (0, n - 1) else row for a, row in enumerate(q_rows)]
    return q_rows, zeroed


@pytest.mark.parametrize("j_struct", [J4, J6, rotated_j(6)], ids=["std4", "std6", "rotated6"])
def test_torsion_bullet_matches_the_cyclic_sum_oracle(j_struct):
    """Every value, not only the zeros and the cyclic symmetry: a bullet of
    the wrong sign has the same zeros and the same symmetry."""
    rng = SplitMix64(19)
    nonzero = 0
    for eta in admissible_torsion_basis(j_struct):
        for q_rows in random_endomorphisms(j_struct.space.dim, rng):
            bullet = torsion_bullet(q_rows, eta)
            assert bullet == oracle_torsion_bullet(q_rows, eta)
            nonzero += sum(1 for plane in bullet for row in plane for v in row if v)
    assert nonzero > 0


@pytest.mark.parametrize("n", range(3, 9))
def test_bullet_rows_match_the_pairwise_oracle(n):
    """One Q per call and all of them in one call, whose rows are those of
    each Q in turn."""
    rng = SplitMix64(100 + n)
    qs = [sparse_rows(q_rows) for q_rows in random_endomorphisms(n, rng)]
    want = [oracle_bullet_rows(q_sparse, n, oracle_skew_params(n)) for q_sparse in qs]
    for q_sparse, rows in zip(qs, want):
        assert tensor_maps._bullet_rows([q_sparse], n) == rows
        assert any(rows)
    assert tensor_maps._bullet_rows(qs, n) == [row for rows in want for row in rows]
    assert tensor_maps._bullet_rows([], n) == []


def test_skew_bases_dimensions():
    for k in (2, 3, 4):
        j_struct = ComplexStructure.standard(Space(2 * k))
        assert len(invariant_skew_basis(j_struct)) == k * k
        assert len(anti_invariant_skew_basis(j_struct)) == k * (k - 1)


def test_van_kernel_dimensions():
    assert van_kernel_dimension(J6) == 0
    assert van_kernel_dimension(ComplexStructure.standard(Space(8))) == 0
    # the four-dimensional case is reported, not asserted: the forced
    # vanishing genuinely needs three complex directions
    reported = van_kernel_dimension(J4)
    print(f"constrained torsion dimension at 2k=4: {reported}")
    assert reported >= 0


def bracket_span_dimension(k):
    """The size of the commutator basis of ``bracket_bases`` on R^{2k}."""
    return len(bracket_bases(ComplexStructure.standard(Space(2 * k)))[1])


def bracket_in_span(j_struct, squares=True):
    """``bracket_bullet_in_span`` of J as ``run_eq_7`` calls it or, with
    ``squares`` false, without the square rows."""
    sym, comm = bracket_bases(j_struct)
    return bracket_bullet_in_span(admissible_torsion_basis(j_struct), sym if squares else [], comm)


def test_bracket_span_dimension():
    # commutators of the anticommuting skews span the invariant skews from
    # k = 3 on; at k = 2 the anticommuting part is abelian-like and spans
    # a single direction (reported, not part of any vanishing argument)
    assert bracket_span_dimension(3) == 9
    assert bracket_span_dimension(4) == 16
    assert bracket_span_dimension(2) == 1


def test_bracket_bullet_span_containment():
    assert bracket_in_span(J6) == 0


# -- the pairwise torsion oracle ---------------------------------------------
#
# The torsion rows as they were built before the skew-entry table: entry
# signs looked up per term through a parameter dict, the commutation rows
# of F J + sign J F over every entry, and the bracket checks over every
# pair of J-anticommuting skews.  The entry-table rows and the product-span
# bases must give the same nullspaces, booleans and dimensions.


def oracle_skew_params(n):
    """(r, c) -> (parameter, sign) of the skew n x n matrices."""
    lookup = {}
    for i, (r, c) in enumerate(combinations(range(n), 2)):
        lookup[(r, c)] = (i, 1)
        lookup[(c, r)] = (i, -1)
    return lookup


def oracle_add_entry(row, skew, base, r, c, coeff):
    """Add coeff times entry (r, c) of the skew block at column ``base`` to a row."""
    if coeff != 0 and r != c:
        i, sign = skew[(r, c)]
        row[base + i] = row.get(base + i, 0) + coeff * sign


def oracle_bullet_rows(q_rows, n, skew):
    rows = []
    npairs = n * (n - 1) // 2
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(y + 1, n):
                row = {}
                for a, q_row in enumerate(q_rows):
                    base = a * npairs
                    oracle_add_entry(row, skew, base, z, y, q_row.get(x, 0))
                    oracle_add_entry(row, skew, base, x, z, q_row.get(y, 0))
                    oracle_add_entry(row, skew, base, y, x, q_row.get(z, 0))
                rows.append({c: v for c, v in row.items() if v != 0})
    return rows


def oracle_commutation_rows(J, skew, sign):
    """Rows of (F J + sign J F)[r][c] = 0 over every entry (r, c)."""
    n = len(J)
    rows = []
    for r in range(n):
        for c in range(n):
            row = {}
            for k in range(n):
                oracle_add_entry(row, skew, 0, r, k, J[k][c])
                oracle_add_entry(row, skew, 0, k, c, sign * J[r][k])
            row = {col: v for col, v in row.items() if v != 0}
            if row:
                rows.append(row)
    return rows


def oracle_structural_rows(j_struct):
    n = j_struct.space.dim
    J = j_struct.rows
    skew = oracle_skew_params(n)
    npairs = n * (n - 1) // 2
    rows = oracle_bullet_rows([{i: 1} for i in range(n)], n, skew)
    for a in range(n):
        base = a * npairs
        for r in range(n):
            for c in range(n):
                row = {}
                for b in range(n):
                    oracle_add_entry(row, skew, b * npairs, r, c, J[b][a])
                for k in range(n):
                    oracle_add_entry(row, skew, base, r, k, -J[k][c])
                row = {col: v for col, v in row.items() if v != 0}
                if row:
                    rows.append(row)
    return rows, npairs


def oracle_skew_basis(j_struct, commuting):
    n = j_struct.space.dim
    rows = oracle_commutation_rows(j_struct.rows, oracle_skew_params(n), -1 if commuting else 1)
    return [_skew_from_params(vec, n) for vec in exact_nullspace(rows, n * (n - 1) // 2)]


def oracle_bracket_bullet_in_span(j_struct, squares=True):
    """The rank the commutator rows add to the structural rows of J and,
    unless ``squares`` is false, the rows of every square F G + G F."""
    n = j_struct.space.dim
    rows, npairs = oracle_structural_rows(j_struct)
    skew = oracle_skew_params(n)
    mbasis = anti_invariant_skew_basis(j_struct)
    pairs = [(f, g) for i, f in enumerate(mbasis) for g in mbasis[i:]] if squares else []
    for f, g in pairs:
        rows.extend(oracle_bullet_rows(combine(compose(f, g), compose(g, f)), n, skew))
    base_rank = exact_rank(rows, n * npairs)
    for i, f in enumerate(mbasis):
        for g in mbasis[i + 1:]:
            comm = combine(compose(f, g), compose(g, f), 1, -1)
            rows.extend(oracle_bullet_rows(comm, n, skew))
    return exact_rank(rows, n * npairs) - base_rank


def oracle_bracket_span_dimension(k):
    j_struct = ComplexStructure.standard(Space(2 * k))
    mbasis = anti_invariant_skew_basis(j_struct)
    n = 2 * k
    skew = oracle_skew_params(n)
    vecs = []
    for i, f in enumerate(mbasis):
        for g in mbasis[i + 1:]:
            comm = combine(compose(f, g), compose(g, f), 1, -1)
            vecs.append({skew[(r, c)][0]: v
                         for r, row in enumerate(comm) for c, v in row.items() if c > r})
    return exact_rank(vecs, n * (n - 1) // 2)


_TORSION_STRUCTURES = pytest.mark.parametrize("j_struct", [
    ComplexStructure.standard(Space(4)),
    ComplexStructure.standard(Space(6)),
    ComplexStructure.standard(Space(8)),
    rotated_j(6),
], ids=["std4", "std6", "std8", "rotated6"])


@_TORSION_STRUCTURES
def test_structural_rows_match_the_pairwise_oracle(j_struct):
    rows, npairs = _structural_rows(j_struct)
    want, want_npairs = oracle_structural_rows(j_struct)
    ncols = j_struct.space.dim * npairs
    assert npairs == want_npairs
    assert exact_nullspace(rows, ncols) == exact_nullspace(want, ncols)


@_TORSION_STRUCTURES
def test_skew_bases_match_the_commutation_row_oracle(j_struct):
    n = j_struct.space.dim
    for commuting, basis in ((True, invariant_skew_basis(j_struct)),
                             (False, anti_invariant_skew_basis(j_struct))):
        want = oracle_skew_basis(j_struct, commuting)
        assert [dense_rows(f, n) for f in basis] == [dense_rows(f, n) for f in want]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bracket_checks_match_the_all_pairs_oracle(k):
    j_struct = ComplexStructure.standard(Space(2 * k))
    for squares in (True, False):
        assert bracket_in_span(j_struct, squares) == oracle_bracket_bullet_in_span(j_struct, squares)
    assert bracket_span_dimension(k) == oracle_bracket_span_dimension(k)


@pytest.mark.parametrize("n", [4, 6])
def test_bracket_span_matches_the_all_pairs_oracle_on_a_rotated_j(n):
    """The span check on the admissible coordinates counts what the full
    structural system counts on a J with denominators, with and without the
    square rows (16 at dim 6 without them, the admissible dimension)."""
    j_struct = rotated_j(n)
    for squares in (True, False):
        assert bracket_in_span(j_struct, squares) == oracle_bracket_bullet_in_span(j_struct, squares)
    assert bracket_in_span(j_struct, False) == {4: 0, 6: 16}[n]


def test_eq_7_bracket_span_fails_when_the_squares_are_dropped(monkeypatch):
    """Without the square rows, bracket-span reports the rank the commutator
    rows add to the structural rows alone, as the all-pairs oracle counts
    it: at dim 6 that is the admissible dimension, 16, and at dim 4 the
    commutator rows already lie in the structural span.  The other cases do
    not read the squares and still pass."""
    real = campaigns.bracket_bases
    monkeypatch.setattr(campaigns, "bracket_bases", lambda j_struct: ([], real(j_struct)[1]))
    report = campaigns.run_campaign(campaigns.Campaign("eq-7", dims=[4, 6], seeds=[0]))
    cases = {c.id: c for c in report.cases}
    assert cases["dim4/bracket-span"].residual == oracle_bracket_bullet_in_span(J4, False) == 0
    want = oracle_bracket_bullet_in_span(J6, False)
    assert want == cases["dim6/admissible"].residual == 16
    span = cases.pop("dim6/bracket-span")
    assert span.residual == want and not span.passed
    assert all(c.passed for c in cases.values())


def test_eq_7_cyclic_fails_when_the_bullet_is_negated(monkeypatch):
    """cyclic compares each bullet value with the cyclic sum of eq. (7)
    evaluated directly.  With every bullet value negated it reads
    2 max |sum| over the drawn Q and the first four admissible tensors, the
    sum taken from the term-by-term oracle; the other cases do not read the
    bullet and still pass."""
    real = campaigns.torsion_bullet
    monkeypatch.setattr(
        campaigns, "torsion_bullet",
        lambda q_rows, etas: [[[-v for v in row] for row in plane] for plane in real(q_rows, etas)],
    )
    report = campaigns.run_campaign(campaigns.Campaign("eq-7", dims=[4, 6], seeds=[0]))
    cases = {c.id: c for c in report.cases}
    for dim in (4, 6):
        rng = campaigns._case_rng("eq-7", dim, 1)
        largest = 0
        for eta in admissible_torsion_basis(ComplexStructure.standard(Space(dim)))[:4]:
            q_rows = [[rng.small_int() for _ in range(dim)] for _ in range(dim)]
            bullet = oracle_torsion_bullet(q_rows, eta)
            largest = max(largest, max(abs(v) for plane in bullet for row in plane for v in row))
        cyclic = cases.pop(f"dim{dim}/cyclic")
        assert cyclic.residual == 2 * largest == 36 and not cyclic.passed
    assert all(c.passed for c in cases.values())


def test_lemma_5_5_kernel_fails_without_the_invariant_skews(monkeypatch):
    """With no J-invariant skew F, no bullet row (F o eta) = 0 is added, so
    the kernel is the whole admissible torsion space: each kernel case fails
    with the eq-7 admissible count.  The dim-4 value is only reported."""
    admissible = {d: len(admissible_torsion_basis(ComplexStructure.standard(Space(d))))
                  for d in (6, 8)}
    monkeypatch.setattr(tensor_maps, "invariant_skew_basis", lambda j_struct: [])
    report = campaigns.run_campaign(campaigns.Campaign("lemma-5.5", dims=[4, 6, 8]))
    cases = {c.id: c for c in report.cases}
    assert admissible == {6: 16, 8: 40}
    for d, count in admissible.items():
        assert cases[f"dim{d}/kernel"].residual == count and not cases[f"dim{d}/kernel"].passed
    reported = cases["dim4/kernel-reported"]
    assert reported.passed and reported.residual == 4


def test_eq_7_bracket_dim_fails_on_the_invariant_skews(monkeypatch):
    """With the J-invariant skews in place of the anticommuting ones, the
    commutators span [u(k), u(k)] = su(k), of dimension k^2 - 1, so the
    dim-6 bracket-dim case fails with residual 1 and the dim-4 reported
    value reads 3 = 2^2 - 1 in place of 1.  The other cases do not depend
    on which skews are bracketed and still pass."""
    monkeypatch.setattr(tensor_maps, "anti_invariant_skew_basis", invariant_skew_basis)
    report = campaigns.run_campaign(campaigns.Campaign("eq-7", dims=[4, 6]))
    cases = {c.id: c for c in report.cases}
    bracket_dim = cases.pop("dim6/bracket-dim")
    assert bracket_dim.residual == 3 * 3 - (3 * 3 - 1) and not bracket_dim.passed
    assert cases["dim4/bracket-dim-reported"].residual == 2 * 2 - 1
    assert all(c.passed for c in cases.values())


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_product_basis_spans_every_pair_product(k, sign):
    mbasis = anti_invariant_skew_basis(ComplexStructure.standard(Space(2 * k)))
    n = 2 * k

    def flat(m):
        return {r * n + c: v for r, row in enumerate(m) for c, v in row.items()}

    basis = [flat(m) for m in _product_basis(mbasis, sign)]
    pairs = [flat(combine(compose(f, g), compose(g, f), 1, sign))
             for i, f in enumerate(mbasis) for g in mbasis[i:]]
    assert len(basis) == exact_rank(pairs, n * n) == exact_rank(pairs + basis, n * n)
