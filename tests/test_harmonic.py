"""Skew-map duality, cubic stability, spectra, moments, and the splitting operator."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from hodgelab import campaigns
from hodgelab.errors import (
    DegreeMismatchError,
    IllConditionedSpectrumError,
    InvalidFrameError,
    InvariantViolationError,
    MomentInconsistencyError,
)
from hodgelab.exterior import Form, Space, adjoint_wedge, basis_masks, contract, inner, wedge
from hodgelab.harmonic import (
    SkewEndo,
    compatible_patch_dim6,
    endo_form,
    form_endo,
    moment_recover,
    power_traces,
    spectral,
    splitting_q,
    stab_expand,
    symplectic_candidate,
    triple,
)
from hodgelab.hermitian import ComplexStructure
from hodgelab.lefschetz import kahler_form
from hodgelab.rng import SplitMix64, random_form

S4 = Space(4)
J4 = ComplexStructure.standard(S4)
OMEGA4 = kahler_form(J4)
S6F = Space(6, "float")


def random_skew_matrix(n, rng, integer=True):
    """Random skew-symmetric n x n matrix as nested lists."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.small_int() if integer else rng.uniform(-1.0, 1.0)
            rows[i][j] = v
            rows[j][i] = -v
    return rows


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_form_endo_round_trips():
    a = form_endo(OMEGA4)
    assert tuple(map(tuple, a)) == J4.rows
    assert endo_form(S4, a) == OMEGA4
    rot = form_endo(S4.basis_form(1, 2))
    assert rot[1][0] == 1 and rot[0][1] == -1
    assert endo_form(S4, form_endo(S4.zero_form(2))).is_zero()


def test_endo_form_reads_the_strictly_lower_triangle():
    """Entries on and above the diagonal are never read: an asymmetric
    rows list gives the 2-form of its lower triangle."""
    rows = [[7, 5, -3, 9], [2, 7, 8, 1], [0, -4, 7, 6], [6, 0, 3, 7]]
    assert endo_form(S4, rows) == S4.form(2, {(1, 2): 2, (2, 3): -4, (1, 4): 6, (3, 4): 3})


def test_form_endo_rejects_non_skew():
    with pytest.raises(InvariantViolationError):
        SkewEndo(S4, [[1 if i == j else 0 for j in range(4)] for i in range(4)])


def test_triple_examples():
    j_endo = form_endo(OMEGA4)
    out = triple(j_endo, j_endo, j_endo)
    assert out == [[-2 * v for v in row] for row in J4.rows]
    zero = [[0] * 4 for _ in range(4)]
    assert triple(zero, j_endo, j_endo) == zero


def test_triple_matches_direct_products():
    rng = SplitMix64(211)
    for _ in range(10):
        mats = [random_skew_matrix(4, rng) for _ in range(3)]
        a1, a2, a3 = mats
        direct = [
            [x + y for x, y in zip(r1, r2)]
            for r1, r2 in zip(matmul(mats[1], matmul(mats[0], mats[2])),
                              matmul(mats[2], matmul(mats[0], mats[1])))
        ]
        assert triple(a1, a2, a3) == direct
        # symmetry in the outer arguments
        assert triple(a1, a2, a3) == triple(a1, a3, a2)


def test_stab_expansion_examples():
    # all-omega case on dim 4: both routes give 2 omega
    assert stab_expand(OMEGA4, OMEGA4, OMEGA4) == 2 * OMEGA4
    assert adjoint_wedge(OMEGA4, wedge(OMEGA4, OMEGA4)) == 2 * OMEGA4
    # orthogonal first factor: only the matrix term survives
    a1 = S4.basis_form(1, 3)
    a2 = S4.basis_form(1, 2)
    a3 = S4.basis_form(3, 4)
    expected = -S4.basis_form(2, 4)
    assert adjoint_wedge(a1, wedge(a2, a3)) == expected
    assert stab_expand(a1, a2, a3) == expected
    # any zero argument collapses
    assert stab_expand(S4.zero_form(2), a2, a3).is_zero()


def test_stab_identity_seeded():
    rng = SplitMix64(223)
    for dim in (4, 6, 8):
        space = Space(dim)
        for _ in range(30):
            forms = [random_form(space, 2, rng, integer=True, terms=4) for _ in range(3)]
            lhs = adjoint_wedge(forms[0], wedge(forms[1], forms[2]))
            assert lhs == stab_expand(*forms)


def test_odd_powers_stay_in_span_via_triple():
    """A^{2k+1} from iterated triples matches plain matrix powers, k <= 3."""
    from fractions import Fraction

    rng = SplitMix64(227)
    for _ in range(5):
        rows = random_skew_matrix(6, rng)
        odd = {1: rows}
        for k in (1, 2, 3):
            half = Fraction(1, 2)
            odd[2 * k + 1] = [
                [half * v for v in row] for row in triple(odd[2 * k - 1], rows, rows)
            ]
        direct = rows
        for k in (3, 5, 7):
            direct = matmul(matmul(direct, rows), rows)
            assert odd[k] == direct


def test_spectral_block_example():
    rot = SkewEndo(Space(4, "float"), [[0, -2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    d = spectral(rot)
    assert [(c.mu, c.multiplicity) for c in d.clusters] == [(-4.0, 2), (0.0, 2)]
    assert d.clusters[0].omega.isclose(Space(4, "float").form(2, {(1, 2): 1.0}))
    assert d.kernel_rank == 2


def test_spectral_of_standard_structure():
    j6 = ComplexStructure.standard(S6F)
    d = spectral(SkewEndo(S6F, j6.rows))
    assert [(c.mu, c.multiplicity) for c in d.clusters] == [(-1.0, 6)]
    assert d.clusters[0].omega.isclose(kahler_form(j6))


def test_spectral_reconstruction_random():
    rng = SplitMix64(229)
    for _ in range(10):
        rows = [[float(v) for v in row] for row in random_skew_matrix(6, rng)]
        a = SkewEndo(S6F, rows)
        d = spectral(a)
        recon = d.reconstruct()
        assert np.max(np.abs(recon - np.array(rows))) <= 1e-8 * max(
            1.0, np.max(np.abs(rows))
        )


def test_spectral_rejects_merged_distinct_clusters():
    # rotation speeds 1 and 1.0005 beside a speed of 1000 stay two clusters:
    # the gap is relative to each pair of consecutive eigenvalues, not to the
    # largest one (-10^6), against which it would be 10^-2
    rows = [[0.0] * 6 for _ in range(6)]
    for i, speed in enumerate((1000.0, 1.0, 1.0005)):
        rows[2 * i][2 * i + 1], rows[2 * i + 1][2 * i] = -speed, speed
    clusters = spectral(SkewEndo(S6F, rows)).clusters
    assert [c.multiplicity for c in clusters] == [2, 2, 2]
    assert [c.mu for c in clusters] == pytest.approx([-1e6, -1.00100025, -1.0], rel=1e-12)


def test_spectral_refuses_a_cluster_that_does_not_square_to_minus_one(monkeypatch):
    """An eigensolver that reports speeds 1 and 2 as one eigenvalue -1 of
    multiplicity 4 gives a cluster whose normalized restriction squares to
    -diag(1, 1, 4, 4); an honest solver never reaches this refusal on a
    skew input, so the solver is replaced."""
    rows = [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -2.0],
            [0.0, 0.0, 2.0, 0.0]]
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.full(len(m), -1.0), np.eye(len(m))))
    with pytest.raises(IllConditionedSpectrumError, match="does not square to -1"):
        spectral(SkewEndo(Space(4, "float"), rows))


def test_moment_recovery_examples():
    assert moment_recover([-8, 32], 1) == [(2, -4.0)]
    j6 = ComplexStructure.standard(S6F)
    traces = power_traces(SkewEndo(S6F, j6.rows), 2)
    assert moment_recover(traces, 1) == [(6, -1.0)]
    assert moment_recover([0.0, 0.0], 1) == []


def test_moment_recovery_rejects_bad_data():
    with pytest.raises(MomentInconsistencyError):
        moment_recover([8.0, 32.0], 1)  # positive eigenvalue
    with pytest.raises(MomentInconsistencyError):
        moment_recover([-3.0, 9.0], 1)  # odd multiplicity
    with pytest.raises(MomentInconsistencyError):
        moment_recover([-8.0], 1)  # not enough traces


def test_moment_agreement_with_spectral():
    """Separated spectra: recovery matches the eigensolver to 1e-6.

    Dense random skews can place two squared eigenvalues arbitrarily close,
    which genuinely degrades the Hankel solve, so the sweep draws matrices
    with unit-order gaps (random orthogonal conjugations of block spectra).
    """
    from hodgelab.campaigns import _structured_skew

    rng = SplitMix64(233)
    for n in (4, 6, 8):
        space = Space(n, "float")
        for _ in range(10):
            rows, _ = _structured_skew(n, rng)
            a = SkewEndo(space, rows.tolist())
            d = spectral(a)
            negs = d.negative_clusters
            got = moment_recover(power_traces(a, 2 * len(negs)), len(negs))
            assert len(got) == len(negs)
            for (m, mu), c in zip(got, negs):
                assert m == c.multiplicity
                assert abs(mu - c.mu) <= 1e-6 * max(1.0, abs(c.mu))


def test_spectral_orders_clusters_ascending_with_the_kernel_last():
    """Clusters come in ascending mu straight from the eigensolver, so the
    kernel cluster, when there is one, is last."""
    from hodgelab.campaigns import _structured_skew

    rng = SplitMix64(239)
    kernels = 0
    for n in (4, 5, 6, 7, 8):
        space = Space(n, "float")
        for _ in range(10):
            rows, kernel = _structured_skew(n, rng)
            mus = [c.mu for c in spectral(SkewEndo(space, rows.tolist())).clusters]
            assert mus == sorted(mus) and len(set(mus)) == len(mus)
            assert (mus[-1] == 0.0) == (kernel > 0)
            kernels += kernel > 0
    assert kernels >= 10


def test_prop_4_2_candidate_residual_measures_the_kernel_rank(monkeypatch):
    """A candidate kernel rank two off the spectral kernel fails every case
    with residual 2.0, the size of the miss."""
    real = campaigns.symplectic_candidate

    def shifted(decomp):
        cand = real(decomp)
        return dataclasses.replace(cand, kernel_rank=cand.kernel_rank + 2)

    monkeypatch.setattr(campaigns, "symplectic_candidate", shifted)
    for dim in (4, 6, 8):
        cases = list(campaigns.run_prop_4_2(dim, range(1, 7)))
        assert len(cases) == 6
        for case in cases:
            assert not case.passed
            assert case.residual == 2.0


def test_symplectic_candidate_compatible_case():
    j6 = ComplexStructure.standard(S6F)
    d = spectral(SkewEndo(S6F, [[3.0 * v for v in row] for row in j6.rows]))
    cand = symplectic_candidate(d)
    assert cand.compatible and cand.kernel_rank == 0
    c = np.array(form_endo(cand.form))
    assert np.max(np.abs(c @ c + np.eye(6))) <= 1e-8


def test_symplectic_candidate_degenerate_report():
    rot = SkewEndo(Space(4, "float"), [[0, -2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    cand = symplectic_candidate(spectral(rot))
    assert not cand.compatible and cand.kernel_rank == 2
    assert cand.form.isclose(Space(4, "float").form(2, {(1, 2): 1.0}))


def test_dim6_patch_squares_to_minus_identity():
    alpha = S6F.form(2, {(1, 2): 1.0, (3, 4): 1.0})
    patched = compatible_patch_dim6(alpha)
    assert patched.isclose(S6F.form(2, {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0}))
    c = np.array(form_endo(patched))
    assert np.max(np.abs(c @ c + np.eye(6))) <= 1e-12
    with pytest.raises(InvariantViolationError):
        compatible_patch_dim6(S6F.form(2, {(1, 2): 2.0, (3, 4): 1.0}))


def test_dim6_patch_checks_an_exact_input_exactly():
    s6 = Space(6)
    patched = compatible_patch_dim6(s6.form(2, {(1, 2): 1, (3, 4): 1}))
    assert patched == s6.form(2, {(1, 2): 1, (3, 4): 1, (5, 6): 1})
    with pytest.raises(InvariantViolationError):
        compatible_patch_dim6(s6.form(2, {(1, 2): 1, (3, 4): 1 + Fraction(1, 10**12)}))


def test_lemma_4_4_cases_fail_when_the_patch_is_dropped(monkeypatch):
    """Unpatched, A^2 + I is the kernel-plane projector q4 q4^T + q5 q5^T, so
    each case fails with its largest |entry|; q4 and q5 are the last two
    columns of the Q factor of the case's seeded Gaussian."""
    monkeypatch.setattr(campaigns, "compatible_patch_dim6", lambda alpha: alpha)
    report = campaigns.run_campaign(campaigns.Campaign("lemma-4.4"))
    assert len(report.cases) == 25
    for case in report.cases:
        rng = campaigns._case_rng("lemma-4.4", 6, case.seed)
        gauss = np.array([[rng.uniform(-1, 1) for _ in range(6)] for _ in range(6)])
        q = np.linalg.qr(gauss)[0][:, 4:]
        assert not case.passed
        assert abs(case.residual - np.max(np.abs(q @ q.T))) <= 1e-12


def test_splitting_q_examples():
    s6 = Space(6)
    frame = [s6.basis_form(1), s6.basis_form(2)]
    assert splitting_q(frame, s6.basis_form(1, 3)) == -s6.basis_form(1, 3)
    assert splitting_q(frame, s6.basis_form(3, 4)).is_zero()
    assert splitting_q(frame, s6.basis_form(1, 2)) == -2 * s6.basis_form(1, 2)


def test_splitting_q_exhaustive_spectrum():
    s6 = Space(6)
    for h_rank in (2, 4):
        frame = [s6.basis_form(i) for i in range(1, h_rank + 1)]
        h_mask = (1 << h_rank) - 1
        for p in range(0, 7):
            for mask in basis_masks(6, p):
                psi = Form(s6, p, {mask: 1})
                j_count = (mask & h_mask).bit_count()
                expected = ((-1) ** (p - 1)) * j_count if p else 0
                assert splitting_q(frame, psi) == expected * psi


@pytest.mark.parametrize("dim", [4, 8])
def test_lemma_4_3_body_runs_on_its_dimension(dim):
    """Every even H-rank 2..dim-2 and every degree 0..dim, on R^dim."""
    cases = list(campaigns.run_lemma_4_3(dim, [0]))
    assert [c.id for c in cases] == [
        f"rank{h}/p{p}" for h in range(2, dim - 1, 2) for p in range(dim + 1)
    ]
    assert all(c.passed and c.residual == 0 for c in cases)


def test_splitting_q_rotated_float_frame():
    space = Space(4, "float")
    c, s = np.cos(0.3), np.sin(0.3)
    frame = [space.form(1, {(1,): c, (2,): s}), space.form(1, {(1,): -s, (2,): c})]
    psi = space.form(2, {(1, 2): 1.0})
    assert splitting_q(frame, psi).isclose(-2.0 * psi)


def test_splitting_q_rejects_bad_frame():
    s6 = Space(6)
    with pytest.raises(InvalidFrameError):
        splitting_q([s6.form(1, {(1,): 1, (2,): 1})], s6.basis_form(1, 2))
    for psi in (s6.basis_form(1, 2, 3), s6.form(0, {(): 1})):
        with pytest.raises(DegreeMismatchError):
            splitting_q([s6.basis_form(1, 2)], psi)


def test_lemma_4_3_cases_fail_when_the_wedge_order_is_reversed(monkeypatch):
    """h ^ (h -| psi) is (-1)^(p-1) times (h -| psi) ^ h, so the reversed
    operator has eigenvalue j where Q has (-1)^(p-1) j.  Exactly the even
    p >= 2 cases fail, each with residual 2 min(p, h): the most factors of a
    basis p-form that lie along H."""

    def reversed_q(h_frame, psi):
        out = psi.space.zero_form(psi.degree)
        if psi.degree == 0:
            return out
        for h in h_frame:
            out = out + wedge(h, contract(h, psi))
        return out

    monkeypatch.setattr(campaigns, "splitting_q", reversed_q)
    report = campaigns.run_campaign(campaigns.Campaign("lemma-4.3", dims=[6]))
    assert len(report.cases) == 2 * 7
    for case in report.cases:
        h, p = map(int, case.id.removeprefix("rank").split("/p"))
        if p >= 2 and p % 2 == 0:
            assert not case.passed and case.residual == 2 * min(p, h)
        else:
            assert case.passed and case.residual == 0


def skew_matrix(alpha):
    """The int64 skew matrix with entry [i, j] the coefficient of e^{i+1, j+1}, i < j."""
    n = alpha.space.dim
    m = np.zeros((n, n), dtype=np.int64)
    for (i, j), c in alpha.terms():
        m[i - 1, j - 1], m[j - 1, i - 1] = c, -c
    return m


def test_prop_4_1_cases_fail_when_the_triple_term_is_dropped(monkeypatch):
    """Without g((A2 A1 A3 + A3 A1 A2)., .) the expansion misses exactly that
    2-form, so a case fails when the triple product is nonzero, with the
    largest |entry| of the product, here taken from dense int64 matrices."""
    inputs = []

    def without_triple(alpha1, alpha2, alpha3):
        inputs.append((alpha1, alpha2, alpha3))
        return inner(alpha1, alpha2) * alpha3 + inner(alpha1, alpha3) * alpha2

    monkeypatch.setattr(campaigns, "stab_expand", without_triple)
    report = campaigns.run_campaign(campaigns.Campaign("prop-4.1"))
    assert len(report.cases) == len(inputs) == 510
    failed = 0
    for case, forms in zip(report.cases, inputs):
        m1, m2, m3 = (skew_matrix(alpha) for alpha in forms)
        want = int(np.max(np.abs(m2 @ m1 @ m3 + m3 @ m1 @ m2)))
        assert case.residual == want and case.passed == (want == 0)
        failed += want > 0
    assert failed == 505


def test_exact_checks_stay_exact():
    """Defects that float() rounds to zero are still rejected exactly."""
    tiny = Fraction(1, 10**400)
    s4 = Space(4)
    rows = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    rows[0][1] += tiny
    with pytest.raises(InvariantViolationError):
        SkewEndo(s4, rows)
    frame = [s4.basis_form(1), s4.form(1, {(1,): tiny, (2,): 1})]
    with pytest.raises(InvalidFrameError):
        splitting_q(frame, s4.basis_form(1, 2))
