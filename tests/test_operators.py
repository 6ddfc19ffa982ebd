"""Operators against their direct definitions.

``curly_j`` and ``j_pullback`` apply sparse tables compiled once per
(J, degree), and ``p_k`` reads the rows of the pullback table over its
denominator.  The oracles below are the direct definitions: a pulled-back
1-form wedged into each argument slot in turn, and the wedge of the
pulled-back 1-forms.  They are compared on every basis form of every degree
on dims 2-8 and on random combinations, for the standard J, a rational
Givens-rotated J and a float J; ``bb_j`` and ``bb_j_matrix`` are compared
with their constructions on top of the oracle.

``lefschetz_lstar`` is the wedge adjoint of omega; its oracle is the
contraction formula 1/2 sum_i J e_i -| (e_i -| beta).  ``p_k`` contracts
through the wedge adjoints of e^I and J e^I in one pass over alpha's terms;
its oracle is the iterated single contractions against e_i and J e_i.
``alpha_from_holomorphic`` reads every e_i -| Omega off Omega's terms and
pairs coefficient dicts; its oracle pairs the contraction forms
J e_i -| Omega and e_j -| Omega.  Planted faults in the ``prop-2.3`` and
``alpha-omega`` campaigns must fail the cases they reach, with the residual
these oracles give, and leave the other cases passing.  ``a_restricted_rank``
multiplies the antisymmetrization by the commuting projector; its oracle
sums each column of that product out of wedge-table forms.

``LambdaBasis`` builds its basis on integers and stops Gram-Schmidt at the
known rank, and ``bb_j`` tests membership on its own image; their oracles
are the Fraction Gram-Schmidt over every Lagrange-projected mask and the
``bb_j`` that runs the Lagrange projection first, compared on dims 2-8 in
every degree for the standard, the once- and the twice-rotated rational J,
and on dim 10 for the two rotated ones.

The compiled tables hold integer numerators over a power of J's
denominator, read off J's integer rows; on the twice-rotated J
(denominators 5, 13 and 65) they are compared in every degree with the
per-term Fraction sum of the basis images read off J's Fraction rows, for
alphas with mixed denominators and integer alphas, and a guard checks that
every table built for that J holds only ints.  The Fraction routes the
integer ones replaced are oracles too: Lstar as the wedge adjoint of the
Kahler form, bb_j as two curly_j calls and ``Form.isclose``, bb_j_matrix
from the pairings of curly_j(b) and primitive_basis from ``integer_rows``
of the Lstar images, on the standard, both rotated and the float J; the
torsion systems are compared with the same J on its Fraction rows over 1.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, factorial, gcd

import pytest

import hodgelab.campaigns as campaigns
import hodgelab.hermitian as hermitian
from hodgelab.errors import (
    DegreeUnderflowError,
    HodgeLabError,
    InvariantViolationError,
    NotInLambdaPError,
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
    wedge,
)
from hodgelab.hermitian import (
    ComplexStructure,
    LambdaBasis,
    _compiled,
    _curly_j_image,
    _pullback_image,
    _primitive_integer_form,
    bb_j,
    bb_j_matrix,
    bidegree_project,
    curly_j,
    in_lambda_p,
    j_pullback,
    lambda_basis,
)
from hodgelab.lefschetz import (
    _lstar_image,
    alpha_from_holomorphic,
    kahler_form,
    lefschetz_lstar,
    p_k,
    primitive_basis,
)
from hodgelab.linalg import add_scaled, exact_nullspace, exact_rank, integer_rows
from hodgelab.rng import SplitMix64, random_form
from hodgelab.tensor_maps import (
    _commuting_projector,
    _wedge_table,
    a_restricted_rank,
    admissible_torsion_basis,
    anti_invariant_skew_basis,
    invariant_skew_basis,
    van_kernel_dimension,
)

DIMS = (2, 4, 6, 8)


def dense_matrix(matrix):
    """The dense square matrix of values of ``(rows, den)``: {column: int}
    rows over one positive int denominator, as ``bb_j_matrix`` returns."""
    rows, den = matrix
    assert type(den) is int and den >= 1
    assert all(type(v) is int and v != 0 for row in rows for v in row.values())
    return [[Fraction(row.get(c, 0), den) for c in range(len(rows))] for row in rows]


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
        assert (got - want).norm_sq() <= 1e-24 * max(got.norm_sq(), want.norm_sq(), 1)


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
        # the rows p_k reads: J e^I as table numerators over the table's den
        table, den = _compiled(j, _pullback_image, p)
        for m in basis_masks(n, p):
            row = Form(space, p, {t: space.ratio(v, den) for t, v in table[m].items()})
            assert_same(row, wedge_pullback(j, Form(space, p, {m: space.one})))


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
        cols = [
            [Fraction(inner(slot_curly_j(oracle, b), c), ns * p)
             for c, ns in zip(basis.forms, basis.norms_sq)]
            for b in basis.forms
        ]
        want = [[cols[c][r] for c in range(basis.dim)] for r in range(basis.dim)]
        assert dense_matrix(matrix) == want
        assert dense_matrix(bb_j_matrix(oracle, p)) == want
        # in lowest terms: 1 on the standard J
        rows, den = matrix
        assert gcd(den, *[v for row in rows for v in row.values()]) == 1
        assert kind != "standard" or den == 1


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


def contraction_alpha_from_holomorphic(j_struct, omega_form):
    """alpha_Omega by contractions: <J e_i -| Omega, e_j -| Omega> on e^{ij}, i < j."""
    space = omega_form.space
    n = space.dim
    contractions = [contract_index(i, omega_form) for i in range(1, n + 1)]
    j_contractions = [contract(j_struct.basis_image(i), omega_form) for i in range(1, n + 1)]
    coeffs = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            coeffs[(1 << (i - 1)) | (1 << (j - 1))] = inner(
                j_contractions[i - 1], contractions[j - 1]
            )
    return Form(space, 2, coeffs)


def fraction_lambda(j_struct, degree, rng, terms=3):
    """A combination of lambda basis forms with Fraction coefficients; on a
    float J the basis is that of the same rotated J on the exact backend."""
    space = j_struct.space
    exact = j_struct if space.backend == "exact" else structure("rotated", space.dim)
    basis = lambda_basis(exact, degree).forms
    coeffs = {}
    for _ in range(terms):
        add_scaled(coeffs, rng.rational(), basis[rng.next_u64() % len(basis)].coeffs)
    if space.backend == "float":
        coeffs = {m: float(v) for m, v in coeffs.items()}
    return Form(space, degree, coeffs)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", DIMS)
def test_alpha_from_holomorphic_matches_the_contraction_pairings(kind, n):
    j = structure(kind, n)
    rng = SplitMix64(5000 * n + KINDS.index(kind))
    for p in range(1, n // 2 + 1):
        for _ in range(4):
            omega_form = fraction_lambda(j, p, rng)
            assert not omega_form.is_zero()
            assert_same(
                alpha_from_holomorphic(j, omega_form),
                contraction_alpha_from_holomorphic(j, omega_form),
            )


# -- planted faults in the Lefschetz campaigns -------------------------------


def max_abs(alpha):
    return float(max((abs(c) for c in alpha.coeffs.values()), default=0))


def recorded(monkeypatch, name, wrap=lambda real: real):
    """Replace ``campaigns.<name>`` by ``wrap(real)`` and record every call
    as (arguments, result); returns the list of records."""
    calls = []
    fn = wrap(getattr(campaigns, name))

    def recording(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(campaigns, name, recording)
    return calls


def negated_above_zero(real):
    return lambda j_struct, alpha, beta, k: real(j_struct, alpha, beta, k) * (-1 if k else 1)


def doubled(real):
    return lambda j_struct, omega_form: real(j_struct, omega_form) * 2


def opposite(real):
    return lambda j_struct, alpha: -real(j_struct, alpha)


def run(name, dims=(4, 6), seeds=(1, 2, 3)):
    return campaigns.run_campaign(campaigns.Campaign(name, dims=list(dims), seeds=list(seeds)))


def pairing(omega_form):
    """P_{p-1}(Omega, J Omega) from the iterated contractions, with its
    J Omega from the wedge definition, on the standard J of the campaigns."""
    j = ComplexStructure.standard(omega_form.space)
    p = omega_form.degree
    return j, contraction_p_k(j, omega_form, wedge_pullback(j, omega_form), p - 1)


def test_prop_2_3_rec_cases_fail_when_p_k_is_negated(monkeypatch):
    """With P_k negated for k >= 1, every recursion step k >= 1 is the true
    identity negated and still holds, while step 0 becomes
    Lstar(a ^ b) - P_0(Lstar a, b) - P_0(a, Lstar b) + (-1)^(r-1) P_1(a, b)
    = 2 (-1)^(r-1) P_1(a, b): a rec case fails with 2 max |P_1(a, b)|, P_1
    from the iterated contractions.  The eval cases take no P_k and pass."""
    recorded(monkeypatch, "p_k", negated_above_zero)
    calls = recorded(monkeypatch, "random_form")
    report = run("prop-2.3")
    drawn = [result for _, result in calls]
    rec = [c for c in report.cases if "/rec/" in c.id]
    assert 2 * len(rec) == len(drawn) == 12
    for case, alpha, beta in zip(rec, drawn[::2], drawn[1::2]):
        j = ComplexStructure.standard(alpha.space)
        want = 2 * max_abs(contraction_p_k(j, alpha, beta, 1))
        assert want > 0 and case.residual == want and not case.passed
    assert all(c.passed for c in report.cases if "/rec/" not in c.id)


def test_alpha_omega_cases_fail_when_p_k_is_negated(monkeypatch):
    """With P_{p-1} negated, the pairing law reads -P - 2(-1)^p (p-1)! alpha
    = -2 P and the iterated-adjoint route (Lstar)^{p-1}(Omega ^ J Omega) +
    (-1)^{p(p-1)/2} P = 2 (-1)^{p(p-1)/2} P: every case fails with
    2 max |P|, P from the iterated contractions."""
    recorded(monkeypatch, "p_k", negated_above_zero)
    calls = recorded(monkeypatch, "alpha_from_holomorphic")
    report = run("alpha-omega")
    omegas = [args[1] for args, _ in calls]
    assert len(report.cases) == len(omegas) == 9
    for case, omega_form in zip(report.cases, omegas):
        want = 2 * max_abs(pairing(omega_form)[1])
        assert want > 0 and case.residual == want and not case.passed


def test_alpha_omega_cases_fail_when_alpha_is_doubled(monkeypatch):
    """A doubled alpha_Omega is still J-invariant, of type (1,1), and Omega
    stays primitive, so only the pairing law fails: with P from the
    iterated contractions and alpha from the contraction pairings, the
    residual is max |P - 2(-1)^p (p-1)! 2 alpha|, which is max |P|."""
    calls = recorded(monkeypatch, "alpha_from_holomorphic", doubled)
    report = run("alpha-omega")
    omegas = [args[1] for args, _ in calls]
    assert len(report.cases) == len(omegas) == 9
    for case, omega_form in zip(report.cases, omegas):
        j, pk = pairing(omega_form)
        p = omega_form.degree
        alpha = contraction_alpha_from_holomorphic(j, omega_form)
        want = max_abs(pk - (2 * (-1) ** p * factorial(p - 1) * 2) * alpha)
        assert want == max_abs(pk) > 0
        assert case.residual == want and not case.passed


def test_prop_2_3_eval_cases_fail_when_the_pullback_is_negated(monkeypatch):
    """With -J b for J b, the evaluation (Lstar)^p(a ^ b) = (-1)^{p(p-1)/2}
    p! <a, J b> is compared with its negative: an eval case fails with
    2 p! |<a, J b>|, J b from the wedge definition.  The rec cases take no
    pullback and pass.  Where <a, J b> = 0 the eval case still passes."""
    recorded(monkeypatch, "j_pullback", opposite)
    calls = recorded(monkeypatch, "wedge")
    report = run("prop-2.3", seeds=range(1, 7))
    evals = [c for c in report.cases if "/eval/" in c.id]
    assert len(evals) == len(calls) == 11
    for case, ((a_p, b_p), _) in zip(evals, calls):
        j = ComplexStructure.standard(a_p.space)
        want = float(abs(2 * factorial(a_p.degree) * inner(a_p, wedge_pullback(j, b_p))))
        assert case.residual == want and case.passed == (want == 0)
    assert sum(not c.passed for c in evals) == 7
    assert all(c.passed for c in report.cases if "/eval/" not in c.id)


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
    dens = set()
    for p, q in type_pairs(n) + [(p, p) for p in range(1, n // 2 + 1)]:
        jp, jq = dense_matrix(bb_j_matrix(j, p)), dense_matrix(bb_j_matrix(j, q))
        dp, dq = len(jp), len(jq)
        rows, den = _commuting_projector(j, p, q)
        # integer rows of den P, den twice the product of the bb_j denominators
        assert den == 2 * bb_j_matrix(j, p)[1] * bb_j_matrix(j, q)[1]
        assert all(type(v) is int and v != 0 for row in rows for v in row.values())
        dens.add(den)
        # entry for entry 1/2 (I + Jp (x) Jq), by the dense definition
        for i in range(dp):
            for k in range(dq):
                dense = {
                    d * dq + e: Fraction(jp[i][d] * jq[k][e] + (i == d and k == e), 2)
                    for d in range(dp)
                    for e in range(dq)
                }
                got = {c: Fraction(v, den) for c, v in rows[i * dq + k].items()}
                assert got == {c: v for c, v in dense.items() if v != 0}
        # (Jp (x) Jq)^2 = I, so P P = P: (den P)(den P) = den (den P)
        for row in rows:
            square: dict = {}
            for c, v in row.items():
                add_scaled(square, v, rows[c])
            assert square == {c: den * v for c, v in row.items()}
    # the rotated J has bb_j rows over a denominator above 1
    assert dens == {2} if kind == "standard" else max(dens) > 2


EXACT_KINDS = ("standard", "rotated", "twice-rotated")


def full_gram_schmidt(j_struct, degree):
    """Every mask projected and orthogonalized, with <b, b> recomputed per
    candidate; returns the forms, their norms and the masks that added one."""
    space = j_struct.space
    forms, used = [], []
    for mask in basis_masks(space.dim, degree):
        candidate = bidegree_project(j_struct, Form(space, degree, {mask: 1}), degree, 0)
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
    proj = bidegree_project(j_struct, alpha, alpha.degree, 0)
    if not (proj == alpha if exact else proj.isclose(alpha)):
        raise NotInLambdaPError("form is not of type (p,0)+(0,p)")
    p = alpha.degree
    return curly_j(j_struct, alpha) * (Fraction(1, p) if exact else 1 / p)


def fraction_pullback_image(j_struct, mask):
    """J e^I = J e^{i1} ^ ... ^ J e^{ip}, from the Fraction rows of J."""
    space = j_struct.space
    factors = (
        Form(space, 1, {1 << col: v for col, v in j_struct.sparse_rows[i - 1].items()})
        for i in mask_to_indices(mask)
    )
    return reduce(wedge, factors, Form(space, 0, {0: space.scalar(1)})).coeffs


def fraction_curly_j_image(j_struct, mask):
    """cal-J e^I from the Fraction rows of J: each index i of I in turn is
    replaced by the pullback of e^i, signed by the indices it passes."""
    image = {}
    for i in mask_to_indices(mask):
        rest = mask ^ (1 << (i - 1))
        below = (rest & ((1 << (i - 1)) - 1)).bit_count()
        for col, v in j_struct.sparse_rows[i - 1].items():
            if not rest >> col & 1:
                target = rest | (1 << col)
                sign = below + (rest & ((1 << col) - 1)).bit_count()
                image[target] = image.get(target, 0) + (-v if sign & 1 else v)
    return image


def per_term_oracle(j_struct, image, alpha):
    """Sum over the terms of alpha of its coefficient times the basis image,
    one Fraction product at a time."""
    out = {}
    for mask, c in alpha.coeffs.items():
        for k, v in image(j_struct, mask).items():
            out[k] = out.get(k, 0) + Fraction(c) * Fraction(v)
    return Form(alpha.space, alpha.degree, out)


def mixed_and_integer_alphas(space, degree):
    """An alpha on every basis form with denominators 1 to 6, and an integer one."""
    masks = basis_masks(space.dim, degree)
    mixed = {m: Fraction((-1) ** i * (i + 2), i % 6 + 1) for i, m in enumerate(masks)}
    integer = {m: (i % 5) - 2 for i, m in enumerate(masks)}
    return Form(space, degree, mixed), Form(space, degree, integer)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_integer_tables_match_the_per_term_fraction_sum(n):
    j = structure("twice-rotated", n)
    for p in range(n + 1):
        for alpha in mixed_and_integer_alphas(j.space, p):
            assert curly_j(j, alpha) == per_term_oracle(j, fraction_curly_j_image, alpha)
            assert j_pullback(j, alpha) == per_term_oracle(j, fraction_pullback_image, alpha)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_integer_structure_and_alpha_keep_int_coefficients(n):
    j = structure("standard", n)
    for p in range(n + 1):
        _, alpha = mixed_and_integer_alphas(j.space, p)
        for op in (curly_j, j_pullback):
            assert all(type(v) is int for v in op(j, alpha).coeffs.values())


def test_twice_rotated_structure_mixes_three_blocks():
    rows = structure("twice-rotated", 8).rows
    assert max(sum(1 for v in row if v != 0) for row in rows) >= 3
    assert any(v.denominator == 65 for row in rows for v in row)


def test_primitive_integer_form_leaves_its_input_alone():
    """An all-int form is its own numerators, so the content is divided out
    of a copy."""
    alpha = Space(4).form(2, {(1, 2): -4, (3, 4): 6})
    assert _primitive_integer_form(alpha) == Space(4).form(2, {(1, 2): 2, (3, 4): -3})
    assert alpha == Space(4).form(2, {(1, 2): -4, (3, 4): 6})


@pytest.mark.parametrize(
    "n, kind",
    [(n, kind) for n in DIMS for kind in EXACT_KINDS] + [(10, "rotated"), (10, "twice-rotated")],
)
def test_rank_stopped_lambda_basis_matches_full_gram_schmidt(kind, n, monkeypatch):
    j = structure(kind, n)
    for p in range(n + 1):
        forms, norms_sq, used = full_gram_schmidt(j, p)
        projected = []
        lagrange = hermitian._lagrange
        monkeypatch.setattr(
            hermitian, "_lagrange",
            lambda js, d, nums, shifts: projected.extend(nums) or lagrange(js, d, nums, shifts),
        )
        basis = LambdaBasis(j, p)
        monkeypatch.setattr(hermitian, "_lagrange", lagrange)
        assert basis.forms == forms
        assert basis.norms_sq == norms_sq
        assert basis.dim == (1 if p == 0 else 2 * comb(n // 2, p))
        # the build projects the masks up to the one that completes the basis
        last = basis_masks(n, p).index(used[-1]) if used else -1
        assert tuple(projected) == basis_masks(n, p)[: last + 1]


@pytest.mark.parametrize("kind", EXACT_KINDS)
@pytest.mark.parametrize("n", DIMS + (10,))
def test_lambda_basis_forms_are_minus_p_squared_eigenforms(kind, n):
    """bb_j_matrix reads curly_j(b) / p without bb_j's membership check, so
    the membership of every basis form b of degree p is pinned here:
    curly_j^2 b = -p^2 b."""
    j = structure(kind, n)
    for p in range(n + 1):
        forms = lambda_basis(j, p).forms
        assert len(forms) == (1 if p == 0 else 2 * comb(n // 2, p))
        for b in forms:
            assert curly_j(j, curly_j(j, b)) == -(p * p) * b


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
        forms.extend(bidegree_project(j, a, p, 0) for a in forms[-2:])
        for alpha in forms:
            proj = bidegree_project(j, alpha, p, 0)
            want = proj == alpha if space.backend == "exact" else proj.isclose(alpha)
            assert in_lambda_p(j, alpha) == want


# -- the integer routes against the Fraction routes they replace -------------

ALL_KINDS = EXACT_KINDS + ("float",)


def wedge_adjoint_lstar(j_struct, beta):
    """Lstar as the wedge adjoint of the Kahler form, in its own scalars."""
    if beta.degree < 2:
        return beta.space.zero_form(0)
    return adjoint_wedge(kahler_form(j_struct), beta)


def two_call_bb_j(j_struct, alpha):
    """bb_j as two curly_j calls: curly_j^2 alpha isclose -p^2 alpha is the
    membership test, and the image curly_j alpha is scaled by 1/p."""
    if alpha.is_zero():
        return alpha
    if alpha.degree == 0:
        raise DegreeUnderflowError("bb_j needs degree >= 1")
    p = alpha.degree
    image = curly_j(j_struct, alpha)
    if not curly_j(j_struct, image).isclose(alpha * -(p * p)):
        raise NotInLambdaPError("form is not of type (p,0)+(0,p)")
    return image * alpha.space.ratio(1, p)


def pairing_bb_j_matrix(j_struct, degree):
    """bb_j over the lambda basis from the pairings of the Fraction forms
    curly_j(b_d) with the basis."""
    basis = lambda_basis(j_struct, degree)
    entries = (
        (r, d, Fraction(v, basis.norms_sq[r] * degree))
        for d, b in enumerate(basis.forms)
        for r, v in basis.pairings(curly_j(j_struct, b)).items()
    )
    return integer_rows(entries, basis.dim)


def lstar_image_primitive_basis(j_struct, degree):
    """The kernel of Lstar from ``integer_rows`` of the wedge-adjoint images
    of the basis forms."""
    space = j_struct.space
    masks = basis_masks(space.dim, degree)
    if degree < 2:
        return [Form(space, degree, {m: 1}) for m in masks]
    pos = {m: i for i, m in enumerate(basis_masks(space.dim, degree - 2))}
    rows, _ = integer_rows(
        ((pos[im], col, c) for col, m in enumerate(masks)
         for im, c in wedge_adjoint_lstar(j_struct, Form(space, degree, {m: 1})).coeffs.items()),
        len(pos),
    )
    return [Form(space, degree, {masks[c]: v for c, v in vec.items()})
            for vec in exact_nullspace(rows, len(masks))]


def outcome(fn, *args):
    """fn(*args), or the type of the hodgelab error it raises."""
    try:
        return fn(*args)
    except HodgeLabError as exc:
        return type(exc)


def members_and_non_members(j_struct, degree, rng):
    """Lambda basis forms and Fraction combinations of them (members, on a
    float J those of the rotated exact J), every basis form e^I, one random
    integer form and a member plus a small part of another type."""
    space = j_struct.space
    exact = j_struct if space.backend == "exact" else structure("rotated", space.dim)
    members = [Form(space, degree, b.coeffs) for b in lambda_basis(exact, degree).forms]
    if members:
        members.append(fraction_lambda(j_struct, degree, rng))
    others = [Form(space, degree, {m: space.one}) for m in basis_masks(space.dim, degree)]
    others.append(random_form(space, degree, rng, integer=True, terms=6))
    if members and degree >= 2:
        others.append(members[0] + others[0] * space.scalar(Fraction(1, 1000)))
    return members, others


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", DIMS)
def test_compiled_lstar_matches_the_wedge_adjoint_of_omega(kind, n):
    """On every basis form the two routes agree exactly, bit for bit on the
    float J; a combination sums the same products, so on the float J it
    agrees up to the order of the sum."""
    j = structure(kind, n)
    space = j.space
    rng = SplitMix64(6000 * n + ALL_KINDS.index(kind))
    for p in range(n + 1):
        for m in basis_masks(n, p):
            beta = Form(space, p, {m: space.one})
            assert lefschetz_lstar(j, beta) == wedge_adjoint_lstar(j, beta)
        mixtures = [random_form(space, p, rng, terms=6)]
        if 1 <= p <= n // 2:
            mixtures.append(fraction_lambda(j, p, rng))
        for beta in mixtures:
            assert_same(lefschetz_lstar(j, beta), wedge_adjoint_lstar(j, beta))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", DIMS)
def test_integer_bb_j_matches_the_two_call_route(kind, n):
    """Members give the same image (bit for bit on the float J); every
    non-member raises NotInLambdaPError on both routes, and ``in_lambda_p``
    says which is which."""
    j = structure(kind, n)
    rng = SplitMix64(7000 * n + ALL_KINDS.index(kind))
    raised = 0
    for p in range(1, n + 1):
        members, others = members_and_non_members(j, p, rng)
        for alpha in members + others:
            want = outcome(two_call_bb_j, j, alpha)
            assert outcome(bb_j, j, alpha) == want
            assert in_lambda_p(j, alpha) == (want is not NotInLambdaPError)
            raised += want is NotInLambdaPError
        for alpha in members:
            assert in_lambda_p(j, alpha)
    assert raised > 0


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", DIMS)
def test_integer_bb_j_matrix_and_primitive_basis_match_the_fraction_routes(kind, n):
    """Equal rows over equal denominators, and equal primitive bases; on the
    float J both routes refuse, as lambda bases and kernels are exact."""
    j = structure(kind, n)
    for p in range(n + 1):
        if p >= 1:
            assert outcome(bb_j_matrix, j, p) == outcome(pairing_bb_j_matrix, j, p)
        assert outcome(primitive_basis, j, p) == outcome(lstar_image_primitive_basis, j, p)
    if kind == "float":
        assert outcome(bb_j_matrix, j, 1) is InvariantViolationError
        assert outcome(primitive_basis, j, 2) is InvariantViolationError


def test_exact_structures_are_validated_without_tolerance():
    """N N + den^2 I = 0 on ints: the twice-rotated J on R^8 passes, and
    the same J times 1 + 10^-30 is refused; float validation keeps its
    relative tolerance."""
    rows = twice_rotated_rows(8)
    j = ComplexStructure(Space(8), rows)
    assert j.den == 65
    assert all(type(v) is int for row in j.num_rows for v in row.values())
    assert [{c: Fraction(v, j.den) for c, v in row.items()} for row in j.num_rows] == j.sparse_rows
    near = 1 + Fraction(1, 10**30)
    with pytest.raises(InvariantViolationError):
        ComplexStructure(Space(8), [[v * near for v in row] for row in rows])
    floats = rotated_rows(8, 0.6, 0.8)
    f = ComplexStructure(Space(8, "float"), [[v * (1 + 1e-12) for v in row] for row in floats])
    assert f.den == 1 and f.num_rows is f.sparse_rows
    with pytest.raises(InvariantViolationError):
        ComplexStructure(Space(8, "float"), [[v * (1 + 1e-6) for v in row] for row in floats])


def test_compiled_tables_of_a_rational_j_hold_only_ints():
    """Every table ``_compiled`` builds for the twice-rotated J, by every
    operator that reads one, holds only ints, over a power of den."""
    j = structure("twice-rotated", 8)
    space = j.space
    rng = SplitMix64(8)
    for p in range(space.dim + 1):
        alpha = random_form(space, p, rng, terms=6)
        for op in (curly_j, j_pullback, lefschetz_lstar, in_lambda_p):
            op(j, alpha)
        bidegree_project(j, alpha, p, 0)
        primitive_basis(j, p)
        if p:
            bb_j_matrix(j, p)
            p_k(j, alpha, alpha, p)
    built = {key[1:]: value for key, value in j._cache.items()
             if key[0] is hermitian._compiled.__wrapped__}
    assert {image for image, _ in built} == {_curly_j_image, _pullback_image, _lstar_image}
    for (image, degree), (table, tden) in built.items():
        assert set(table) == set(basis_masks(space.dim, degree))
        assert all(type(v) is int for row in table.values() for v in row.values())
        assert tden == j.den ** (degree if image is _pullback_image else 1)


@pytest.mark.parametrize("kind", ("rotated", "twice-rotated"))
@pytest.mark.parametrize("n", (4, 6, 8))
def test_torsion_systems_on_integer_rows_match_the_fraction_rows(kind, n):
    """The torsion and skew-constraint systems read J's integer rows; with
    J's Fraction rows over 1 in their place they give the same bases and
    the same kernel dimension."""
    j = structure(kind, n)
    fractional = structure(kind, n)
    fractional.num_rows, fractional.den = fractional.sparse_rows, 1
    assert j.den > 1 and any(type(v) is Fraction for row in fractional.num_rows
                             for v in row.values())
    for build in (admissible_torsion_basis, invariant_skew_basis, anti_invariant_skew_basis):
        assert build(j) == build(fractional)
    assert van_kernel_dimension(j) == van_kernel_dimension(fractional)
