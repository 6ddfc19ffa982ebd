"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.
"""

import time

import pytest

from hodgelab.campaigns import Campaign, run_campaign


def _finish(tag: str, report_pairs, elapsed: float, budget: float):
    ok = all(rep.all_passed for _, rep in report_pairs)
    detail = "; ".join(
        f"{name}: {rep.summary['passed']}/{rep.summary['total']}"
        for name, rep in report_pairs
    )
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {tag}: {status} ({detail}; {elapsed:.2f}s < {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"{tag} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"
    return ok


def test_criterion_1_stability_expansion():
    """Exact wedge-adjoint expansion on >= 500 seeded triples, dims 4/6/8."""
    start = time.perf_counter()
    rep = run_campaign(Campaign("prop-4.1", seeds=list(range(1, 171))))
    elapsed = time.perf_counter() - start
    assert rep.summary["total"] >= 500
    assert rep.summary["max_residual"] == 0.0
    _finish("1 (cubic stability expansion)", [("prop-4.1", rep)], elapsed, 10.0)


def test_criterion_2_recursion_and_evaluation(acceptance_report):
    """P_k recursion and the primitive evaluation, exact, r,s <= 3, dims 4-8,
    on seeds 1..40; the budget applies to the report's recorded wall time."""
    rep = acceptance_report("prop-2.3")
    elapsed = rep.wall_time
    assert rep.summary["max_residual"] == 0.0
    _finish("2 (contraction pairing laws)", [("prop-2.3", rep)], elapsed, 30.0)


def test_criterion_3_antisymmetrization(acceptance_report):
    """Bidegree membership of both halves, exact full column rank for p != q,
    and kernel typing; 200 seeded tensors per (p, q) pair and dimension.  The
    budget applies to the sum of the two reports' recorded wall times."""
    rep_types = acceptance_report("lemma-2.1")
    rep_rank = acceptance_report("prop-2.2")
    elapsed = rep_types.wall_time + rep_rank.wall_time
    assert rep_types.summary["max_residual"] == 0.0
    per_pair = {}
    for case in rep_types.cases:
        key = case.id.rsplit("/", 1)[0]
        per_pair[key] = per_pair.get(key, 0) + 1
    assert all(v >= 200 for v in per_pair.values())
    _finish(
        "3 (antisymmetrization types and rank)",
        [("lemma-2.1", rep_types), ("prop-2.2", rep_rank)],
        elapsed,
        20.0,
    )


def test_criterion_4_splitting_spectrum():
    """Exhaustive eigenvalue table of the splitting operator on R^6."""
    start = time.perf_counter()
    rep = run_campaign(Campaign("lemma-4.3"))
    elapsed = time.perf_counter() - start
    assert rep.summary["max_residual"] == 0.0
    _finish("4 (splitting operator spectrum)", [("lemma-4.3", rep)], elapsed, 5.0)


def test_criterion_5_spectral_suite():
    """Reconstruction to 1e-8, moments to 1e-6 on >= 100 matrices, candidate
    and rank-4 patch squaring to -1 within 1e-8."""
    start = time.perf_counter()
    rep_spec = run_campaign(Campaign("prop-4.2", seeds=list(range(1, 35))))
    rep_patch = run_campaign(Campaign("lemma-4.4"))
    elapsed = time.perf_counter() - start
    assert rep_spec.summary["total"] >= 100
    _finish(
        "5 (two-form spectra and patch)",
        [("prop-4.2", rep_spec), ("lemma-4.4", rep_patch)],
        elapsed,
        10.0,
    )


def test_criterion_6_frame_suite():
    """Star-triple, transition invariants and cross identity at 1e-9 on 200
    frames; obstruction kernel zero on 100 transitions."""
    start = time.perf_counter()
    rep_frames = run_campaign(Campaign("lemma-4.8", seeds=list(range(1, 201))))
    rep_obstruction = run_campaign(Campaign("cor-4.12", seeds=list(range(1, 101))))
    elapsed = time.perf_counter() - start
    assert rep_frames.summary["total"] == 200
    assert rep_frames.summary["max_residual"] <= 1e-9
    assert rep_obstruction.summary["total"] >= 100
    _finish(
        "6 (coframe identities and obstruction)",
        [("lemma-4.8", rep_frames), ("cor-4.12", rep_obstruction)],
        elapsed,
        10.0,
    )


def test_criterion_7_torsion_kernel():
    """Exact kernel zero at dimensions 6 and 8; dimension 4 reported."""
    start = time.perf_counter()
    rep = run_campaign(Campaign("lemma-5.5", dims=[4, 6, 8]))
    elapsed = time.perf_counter() - start
    reported = {c.id: c.residual for c in rep.cases}
    print(f"  reported dim-4 torsion space dimension: {reported['dim4/kernel-reported']:.0f}")
    assert reported["dim6/kernel"] == 0.0
    assert reported["dim8/kernel"] == 0.0
    _finish("7 (constrained torsion kernel)", [("lemma-5.5", rep)], elapsed, 120.0)


def test_criterion_8_holomorphy_suite():
    """Commuting-type membership of derivative maps and the contraction
    2-form pairing law, exact, p = 2, 3, dims 4-8."""
    start = time.perf_counter()
    rep_hol = run_campaign(Campaign("lemma-3.1"))
    rep_alpha = run_campaign(Campaign("alpha-omega"))
    elapsed = time.perf_counter() - start
    assert rep_hol.summary["max_residual"] == 0.0
    assert rep_alpha.summary["max_residual"] == 0.0
    _finish(
        "8 (holomorphy-driven maps)",
        [("lemma-3.1", rep_hol), ("alpha-omega", rep_alpha)],
        elapsed,
        60.0,
    )


@pytest.mark.parametrize("name", ["prop-4.1", "prop-4.2", "lemma-4.8", "lemma-5.5"])
def test_criterion_9_determinism(name):
    """Identical parameters produce byte-identical reports."""
    start = time.perf_counter()
    seeds = list(range(1, 11))
    first = run_campaign(Campaign(name, seeds=seeds))
    second = run_campaign(Campaign(name, seeds=seeds))
    elapsed = time.perf_counter() - start
    ok = first.to_json() == second.to_json()
    print(f"ACCEPTANCE 9 (determinism, {name}): {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok
