"""Complex coframe triples, transitions, star identities, and obstructions."""

import cmath

import numpy as np
import pytest

from hodgelab.errors import (
    FrameRankError,
    InvalidTransitionError,
    NotAValidFrameError,
)
from hodgelab.exterior import Space
from hodgelab.frames import (
    ComplexForm,
    FrameTriple,
    TransitionData,
    cross,
    expand_in_frame,
    frame_residuals,
    obstruction_kernel,
    r_from_coeffs,
    r_matrix,
    star_triple,
    symmetric_skew_split,
    transition_p,
)


def test_standard_frame():
    frame = FrameTriple.from_unitary(np.eye(3))
    assert star_triple(frame) == pytest.approx(1.0)
    td = transition_p(frame)
    assert np.allclose(td.p_matrix, np.eye(3))
    assert td.k == pytest.approx(1.0)


def test_cross_examples():
    frame = FrameTriple.from_unitary(np.eye(3))
    crossed = cross(frame.gammas)
    s3 = Space(3, "float")
    assert crossed[0].re.isclose(s3.basis_form(2, 3))
    assert crossed[1].re.isclose(-s3.basis_form(1, 3))
    assert crossed[2].re.isclose(s3.basis_form(1, 2))
    # equal first entries kill the third component
    g = frame.gammas
    crossed_dup = cross((g[0], g[0], g[2]))
    assert crossed_dup[2].norm_sq() == pytest.approx(0.0)


def test_r_matrix_hand_example():
    frame = FrameTriple.from_unitary(np.eye(3))
    alpha = ComplexForm.from_coords([0.0, 1.0, 0.0])  # e^2
    r = r_matrix(alpha, frame)
    expected = np.array([[0, 0, -1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    assert np.allclose(r, expected)
    assert np.allclose(r, -r.T)


def test_r_matrix_cross_identity():
    for seed in range(25):
        frame = FrameTriple.random(seed)
        rng = np.random.default_rng(seed)
        alpha = ComplexForm.from_coords(rng.normal(size=3) + 1j * rng.normal(size=3))
        r = r_matrix(alpha, frame)
        crossed = cross(frame.gammas)
        for i in range(3):
            acc = r[i, 0] * crossed[0] + r[i, 1] * crossed[1] + r[i, 2] * crossed[2]
            diff = alpha.wedge(frame.gammas[i]) - acc
            assert np.sqrt(diff.norm_sq()) <= 1e-12


def test_r_matrix_zero():
    frame = FrameTriple.from_unitary(np.eye(3))
    assert np.allclose(r_matrix(ComplexForm.from_coords([0, 0, 0]), frame), 0)


def test_transition_diag_frame():
    frame = FrameTriple.from_unitary(np.diag([1j, 1, 1]))
    td = transition_p(frame)
    assert np.allclose(td.p_matrix, np.diag([-1, 1, 1]))
    assert td.k**2 == pytest.approx(-1.0)


def test_star_scalar_of_phase_frame():
    thetas = (0.4, -0.9, 1.7)
    frame = FrameTriple.from_unitary(np.diag([cmath.exp(1j * t) for t in thetas]))
    k = star_triple(frame)
    assert k == pytest.approx(cmath.exp(1j * sum(thetas)))


def test_invalid_frames_rejected():
    with pytest.raises(NotAValidFrameError):
        FrameTriple.from_unitary(np.diag([2.0, 1.0, 1.0]))
    with pytest.raises(NotAValidFrameError):
        # dependent rows
        FrameTriple.from_unitary(np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1]], dtype=complex))


def test_frame_residuals_across_random_frames():
    for seed in range(40):
        frame = FrameTriple.random(seed)
        k, residuals = frame_residuals(frame)
        assert max(residuals.values()) <= 1e-9
        td = transition_p(frame)
        p = td.p_matrix
        assert np.max(np.abs(p - p.T)) <= 1e-9
        assert np.max(np.abs(p @ np.conj(p) - np.eye(3))) <= 1e-9
        assert abs(td.k**2 - np.linalg.det(p)) <= 1e-9
        assert abs(abs(td.k) - 1.0) <= 1e-9


def test_transition_data_validation():
    with pytest.raises(InvalidTransitionError):
        TransitionData(np.diag([2.0, 1.0, 1.0]).astype(complex), 1.0)
    with pytest.raises(InvalidTransitionError):
        TransitionData(np.eye(3, dtype=complex), 1j)  # k^2 != det P


def test_frame_coefficients_of_real_forms_satisfy_the_reality_condition():
    """conj(a) = P a holds for the frame coefficients a of a real 1-form,
    the condition obstruction_kernel appends as rows, and fails for i times it."""
    rng = np.random.default_rng(0)
    for seed in (1, 5, 11):
        frame = FrameTriple.random(seed)
        p = transition_p(frame).p_matrix
        for _ in range(5):
            coords = rng.normal(size=3)
            a = expand_in_frame(ComplexForm.from_coords(coords), frame)
            assert np.max(np.abs(np.conj(a) - p @ a)) <= 1e-9
            b = expand_in_frame(ComplexForm.from_coords(1j * coords), frame)
            assert np.max(np.abs(np.conj(b) - p @ b)) > 1e-3


def test_obstruction_kernel_identity_cases():
    td = TransitionData(np.eye(3, dtype=complex), 1.0 + 0j)
    assert obstruction_kernel(td, restrict_real=True) == 0
    assert obstruction_kernel(td, restrict_real=False) == 3


def test_obstruction_kernel_vanishes_on_random_transitions():
    for seed in range(30):
        td = transition_p(FrameTriple.random(seed))
        assert obstruction_kernel(td, restrict_real=True) == 0


def test_symmetric_skew_split():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s, r = symmetric_skew_split(m)
    assert np.allclose(s, s.T)
    assert np.allclose(r, -r.T)
    assert np.allclose(s + r, m)


def test_expand_in_frame_rank_error():
    frame = FrameTriple.from_unitary(np.eye(3))
    broken = object.__new__(FrameTriple)
    broken.gammas = (frame.gammas[0], frame.gammas[0], frame.gammas[2])
    broken.nu = frame.nu
    with pytest.raises(FrameRankError):
        expand_in_frame(ComplexForm.from_coords([1, 0, 0]), broken)


def test_r_from_coeffs_shape():
    r = r_from_coeffs([1, 2, 3])
    assert np.allclose(r, np.array([[0, 3, -2], [-3, 0, 1], [2, -1, 0]]))


def test_cor_4_12_identity_cases_report_their_residual(monkeypatch):
    """A kernel one off its expected dimension fails with residual 1.0."""
    from hodgelab import campaigns

    real = campaigns.obstruction_kernel
    monkeypatch.setattr(
        campaigns, "obstruction_kernel", lambda td, restrict: real(td, restrict) + 1
    )
    cases = {c.id: c for c in campaigns.run_cor_4_12(3, [1])}
    for case_id in ("identity/complex", "identity/real"):
        assert not cases[case_id].passed
        assert cases[case_id].residual == 1.0


def test_cor_4_12_cases_fail_without_the_reality_rows(monkeypatch):
    """Over all complex 1-forms the kernel has dimension 3, so dropping the
    reality condition fails identity/real and every seed case with residual
    3.0, while identity/complex, which drops it anyway, still passes."""
    from hodgelab import campaigns

    real = campaigns.obstruction_kernel
    monkeypatch.setattr(campaigns, "obstruction_kernel", lambda td, restrict: real(td, False))
    cases = list(campaigns.run_cor_4_12(3, range(1, 101)))
    assert len(cases) == 102
    assert cases[0].id == "identity/complex" and cases[0].passed
    for case in cases[1:]:
        assert not case.passed and case.residual == 3.0


def test_lemma_4_8_cases_fail_when_r_matrix_is_transposed(monkeypatch):
    """r_alpha is skew, so its transpose carries the cross products onto
    -alpha ^ gamma_i: every case misses by 2 max_i |alpha ^ gamma_i|."""
    from hodgelab import campaigns

    real = campaigns.r_matrix
    monkeypatch.setattr(campaigns, "r_matrix", lambda alpha, frame: real(alpha, frame).T)
    cases = list(campaigns.run_lemma_4_8(3, range(1, 201)))
    assert len(cases) == 200
    for seed, case in zip(range(1, 201), cases):
        rng = campaigns._case_rng("lemma-4.8", 3, seed)
        alpha = ComplexForm.from_coords(
            [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        )
        frame = FrameTriple.random(seed)
        want = 2 * max(np.sqrt(alpha.wedge(g).norm_sq()) for g in frame.gammas)
        assert not case.passed
        assert case.residual == pytest.approx(want, rel=4e-16, abs=0)


def test_lemma_4_8_cases_fail_when_p_changes_sign(monkeypatch):
    """-P keeps P symmetric and P conj(P) = I, but det(-P) = -k^2 with
    |k| = 1, so every case misses |k^2 - det P| = 0 by 2."""
    from types import SimpleNamespace

    from hodgelab import campaigns

    real = campaigns.transition_p

    def negated(frame):
        td = real(frame)
        return SimpleNamespace(p_matrix=-td.p_matrix, k=td.k)

    monkeypatch.setattr(campaigns, "transition_p", negated)
    cases = list(campaigns.run_lemma_4_8(3, range(1, 201)))
    assert len(cases) == 200
    for case in cases:
        assert not case.passed
        assert case.residual == pytest.approx(2.0, rel=0, abs=2e-15)


def _prop_4_11_draws(seed):
    """The matrix m and the real 1-form b that prop-4.11 draws for a seed."""
    from hodgelab import campaigns

    rng = campaigns._case_rng("prop-4.11", 3, seed)
    m = np.array(
        [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)] for _ in range(3)]
    )
    return m, ComplexForm.from_coords([rng.uniform(-1, 1) for _ in range(3)])


def test_prop_4_11_cases_fail_when_the_split_is_swapped(monkeypatch):
    """With S and R swapped, S - S^T = m - m^T and R + R^T = m + m^T, so each
    residual is the larger of the two, exactly."""
    from hodgelab import campaigns

    real = campaigns.symmetric_skew_split
    monkeypatch.setattr(campaigns, "symmetric_skew_split", lambda m: real(m)[::-1])
    cases = list(campaigns.run_prop_4_11(3, range(1, 51)))
    assert len(cases) == 50
    for seed, case in zip(range(1, 51), cases):
        m, _ = _prop_4_11_draws(seed)
        want = max(np.max(np.abs(m - m.T)), np.max(np.abs(m + m.T)))
        assert not case.passed
        assert case.residual == want


def test_prop_4_11_cases_fail_when_r_from_coeffs_is_transposed(monkeypatch):
    """r_b is skew, so its transpose negates both left-hand sides: with
    |k| = 1 every case misses by 2 max_i |b ^ gamma_i|."""
    from hodgelab import campaigns

    real = campaigns.r_from_coeffs
    monkeypatch.setattr(campaigns, "r_from_coeffs", lambda a: real(a).T)
    cases = list(campaigns.run_prop_4_11(3, range(1, 51)))
    assert len(cases) == 50
    for seed, case in zip(range(1, 51), cases):
        _, b = _prop_4_11_draws(seed)
        frame = FrameTriple.random(seed + 7919)
        want = 2 * max(np.sqrt(b.wedge(g).norm_sq()) for g in frame.gammas)
        assert not case.passed
        assert case.residual == pytest.approx(want, rel=6e-16, abs=0)
