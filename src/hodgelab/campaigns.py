"""Named verification campaigns and their machine-readable reports.

Each campaign replays one of the library's pointwise identities over seeded
random inputs (or exhaustively where the statement is finite) and returns a
deterministic report: identical (name, dims, seeds) inputs produce
byte-identical serialized reports.  Wall time is therefore kept out of the
serialized payload.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import factorial

from .exterior import (
    Form,
    Space,
    adjoint_wedge,
    basis_masks,
    contract,
    inner,
    mask_to_indices,
    wedge,
)
from .frames import (
    FRAME_TOL,
    ComplexForm,
    FrameTriple,
    TransitionData,
    cross,
    expand_in_frame,
    frame_residuals,
    obstruction_kernel,
    r_from_coeffs,
    r_matrix,
    symmetric_skew_split,
    transition_p,
)
from .harmonic import (
    MOMENT_TOL,
    SPECTRAL_TOL,
    SkewEndo,
    _to_float_matrix,
    compatible_patch_dim6,
    endo_form,
    form_endo,
    moment_recover,
    power_traces,
    spectral,
    splitting_q,
    stab_expand,
    symplectic_candidate,
)
from .hermitian import ComplexStructure, bb_j, eigen_residual, j_pullback, lambda_basis
from .lefschetz import alpha_from_holomorphic, lefschetz_lstar, p_k, primitive_basis
from .linalg import _lazy_numpy, add_scaled
from .rng import SplitMix64, random_form, random_vector
from .tensor_maps import (
    FormValuedMap,
    admissible_torsion_basis,
    antisymmetrize_numerators,
    a_kernel_tensors,
    a_restricted_rank,
    bidegree_eigen_residual,
    bracket_bases,
    bracket_bullet_in_span,
    contraction_identity_check,
    holomorphic_q,
    split_type,
    tensor_type_dims,
    torsion_bullet,
    van_kernel_dimension,
)

np = _lazy_numpy()


class UsageError(ValueError):
    """Unknown campaign name or parameters outside the campaign's domain."""


@dataclass
class Campaign:
    name: str
    dims: list | None = None
    seeds: list | None = None


@dataclass
class CaseResult:
    id: str
    passed: bool
    residual: float
    seed: int


@dataclass
class Report:
    campaign: str
    backend: str
    dims: list
    cases: list
    summary: dict
    wall_time: float

    def to_payload(self) -> dict:
        """The serializable report; wall time is deliberately excluded."""
        return {
            "campaign": self.campaign,
            "backend": self.backend,
            "dims": [int(d) for d in self.dims],
            "cases": [
                {
                    "id": c.id,
                    "pass": bool(c.passed),
                    "residual": float(c.residual),
                    "seed": int(c.seed),
                }
                for c in self.cases
            ],
            "summary": {
                "total": int(self.summary["total"]),
                "passed": int(self.summary["passed"]),
                "failed": int(self.summary["failed"]),
                "max_residual": float(self.summary["max_residual"]),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":")) + "\n"

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)


def _res(value) -> float:
    if isinstance(value, Form):
        value = max((abs(c) for c in value.coeffs.values()), default=0)
    return float(value)


def _case_rng(name: str, dim: int, seed: int, salt: int = 0) -> SplitMix64:
    base = 0
    for ch in name:
        base = (base * 131 + ord(ch)) & 0xFFFFFFFF
    return SplitMix64((seed << 24) ^ (dim << 12) ^ (salt << 4) ^ base)


@cache
def _std(dim: int) -> ComplexStructure:
    return ComplexStructure.standard(Space(dim, "exact"))


def _random_combination(space, degree, basis, rng, terms=2):
    """A sum of ``terms`` seeded small-integer multiples of members of ``basis``."""
    coeffs: dict = {}
    if basis:
        for _ in range(terms):
            # the multiple is drawn before the member, arguments left to right
            add_scaled(coeffs, rng.small_int(), basis[rng.next_u64() % len(basis)].coeffs)
    return Form(space, degree, coeffs)


def _p_or_zero(j_struct, alpha, beta, k, out_degree):
    """P_k extended by zero when a factor is zero or too shallow to contract."""
    if alpha.is_zero() or beta.is_zero() or k > min(alpha.degree, beta.degree):
        return alpha.space.zero_form(out_degree)
    return p_k(j_struct, alpha, beta, k)


# -- campaign bodies -----------------------------------------------------
#
# Each body takes one dimension and the seed list and yields that
# dimension's cases in report order; run_campaign loops over the dims.


def _exact_case(id: str, residual, seed: int = 0) -> CaseResult:
    """A case that passes exactly when its residual is zero."""
    residual = _res(residual)
    return CaseResult(id, residual == 0.0, residual, seed)


def _type_pairs(dim: int):
    k = dim // 2
    return [
        (p, q)
        for p in range(1, 4)
        for q in range(1, 4)
        if p + q <= 4 and p + q <= dim and p <= k and q <= k
    ]


def run_lemma_2_1(dim, seeds):
    """Antisymmetrized halves land in their bidegree eigenspaces, exactly."""
    j = _std(dim)
    for (p, q) in _type_pairs(dim):
        for seed in seeds:
            rng = _case_rng("lemma-2.1", dim, seed, p * 8 + q)
            phi = _random_combination(j.space, p, lambda_basis(j, p).forms, rng)
            psi = _random_combination(j.space, q, lambda_basis(j, q).forms, rng)
            t = FormValuedMap.from_tensor(j, phi, psi)
            q1, q2 = split_type(t)
            r1 = eigen_residual(j, p + q, *antisymmetrize_numerators(q1), p, q)
            r2 = eigen_residual(j, p + q, *antisymmetrize_numerators(q2), p + q, 0)
            yield _exact_case(f"dim{dim}/p{p}q{q}/seed{seed}", max(_res(r1), _res(r2)), seed)


def run_prop_2_2(dim, seeds):
    """Full column rank on the commuting half (p != q) and kernel typing."""
    j = _std(dim)
    for p in range(1, 4):
        for q in range(1, 4):
            if p == q or p + q > dim:
                continue
            if lambda_basis(j, p).dim == 0 or lambda_basis(j, q).dim == 0:
                continue
            dim1, _ = tensor_type_dims(j, p, q)
            yield _exact_case(f"dim{dim}/p{p}q{q}/rank", dim1 - a_restricted_rank(j, p, q))
            worst = 0
            for ker in a_kernel_tensors(j, p, q):
                worst = max(worst, split_type(ker)[0].max_entry())
            yield _exact_case(f"dim{dim}/p{p}q{q}/kernel", worst)
    # contraction identity spot checks on commuting tensors
    for seed in seeds[: max(1, len(seeds) // 2)]:
        rng = _case_rng("prop-2.2", dim, seed)
        phi = _random_combination(j.space, 2, lambda_basis(j, 2).forms, rng)
        psi = _random_combination(j.space, 2, lambda_basis(j, 2).forms, rng)
        t1 = split_type(FormValuedMap.from_tensor(j, phi, psi))[0]
        x = random_vector(j.space, rng)
        yield _exact_case(f"dim{dim}/contract/seed{seed}", contraction_identity_check(t1, x), seed)


def run_prop_2_3(dim, seeds):
    """The adjoint-Lefschetz recursion for P_k and its primitive evaluation."""
    j = _std(dim)
    space = j.space
    for seed in seeds:
        rng = _case_rng("prop-2.3", dim, seed)
        r = rng.randint(1, 3)
        s = rng.randint(1, 3)
        alpha = random_form(space, r, rng, integer=True)
        beta = random_form(space, s, rng, integer=True)
        worst = 0.0
        for k in range(0, min(r, s)):
            out_deg = r + s - 2 * k - 2
            if r + s - 2 * k > dim:
                # P_k itself lives above top degree and vanishes; the
                # right-hand side must cancel to zero at its own degree
                lhs = space.zero_form(out_deg)
            else:
                lhs = lefschetz_lstar(j, p_k(j, alpha, beta, k))
            term1 = _p_or_zero(j, lefschetz_lstar(j, alpha), beta, k, out_deg)
            term2 = _p_or_zero(j, alpha, lefschetz_lstar(j, beta), k, out_deg)
            term3 = p_k(j, alpha, beta, k + 1)
            rhs = term1 + term2 + ((-1) ** (r - k - 1)) * term3
            worst = max(worst, _res(lhs - rhs))
        yield _exact_case(f"dim{dim}/rec/r{r}s{s}/seed{seed}", worst, seed)
        # primitive evaluation, one degree per seed
        p = rng.randint(1, 3)
        a_p = _random_combination(space, p, primitive_basis(j, p), rng, terms=3)
        b_p = _random_combination(space, p, primitive_basis(j, p), rng, terms=3)
        if a_p.is_zero() or b_p.is_zero():
            continue
        lhs = wedge(a_p, b_p)
        for _ in range(p):
            lhs = lefschetz_lstar(j, lhs)
        sign = (-1) ** (p * (p - 1) // 2)
        expected = sign * factorial(p) * inner(a_p, j_pullback(j, b_p))
        residual = lhs - Form(space, 0, {0: expected})
        yield _exact_case(f"dim{dim}/eval/p{p}/seed{seed}", residual, seed)


def run_lemma_3_1(dim, seeds):
    """Derivative-driven maps land in the commuting half; slot duals intertwine J."""
    j = _std(dim)
    space = j.space
    for p in (2, 3):
        if lambda_basis(j, p).dim == 0:
            continue
        for seed in seeds:
            rng = _case_rng("lemma-3.1", dim, seed, p)
            omega_form = _random_combination(j.space, p, lambda_basis(j, p).forms, rng)
            if omega_form.is_zero():
                continue
            table = {}
            for i in range(1, dim + 1, 2):
                d_val = _random_combination(j.space, p, lambda_basis(j, p).forms, rng)
                table[i] = d_val
                table[i + 1] = bb_j(j, d_val)
            q_map = holomorphic_q(j, omega_form, table)
            residual = _res(split_type(q_map)[1].max_entry())
            # the slot-dual identity: S(J X1, ...) sharp = -J S(X1, ...) sharp
            worst = residual
            for mask in basis_masks(dim, p - 1)[:6]:
                idx = mask_to_indices(mask)
                s_plain = adjoint_wedge(Form(space, p - 1, {mask: 1}), omega_form)
                rotated = contract(j.basis_image(idx[0]), omega_form)
                for i in idx[1:]:
                    rotated = contract(space.basis_form(i), rotated)
                # J is orthogonal, so -(J s_sharp)_flat = s o J
                worst = max(worst, _res(rotated - j_pullback(j, s_plain)))
            yield _exact_case(f"dim{dim}/p{p}/seed{seed}", worst, seed)


def run_alpha_omega(dim, seeds):
    """The contraction 2-form of a type-(p,0)+(0,p) form and its pairing law."""
    j = _std(dim)
    for p in (2, 3):
        if 2 * p > dim:
            continue
        for seed in seeds:
            rng = _case_rng("alpha-omega", dim, seed, p)
            omega_form = _random_combination(j.space, p, lambda_basis(j, p).forms, rng)
            if omega_form.is_zero():
                continue
            alpha = alpha_from_holomorphic(j, omega_form)
            j_omega = j_pullback(j, omega_form)
            worst = 0.0
            # lands in the (1,1) component and is pullback-invariant
            worst = max(worst, _res(bidegree_eigen_residual(j, alpha, 1, 1)))
            worst = max(worst, _res(j_pullback(j, alpha) - alpha))
            # pairing law against the (p-1)-fold contraction pairing
            pk_val = p_k(j, omega_form, j_omega, p - 1)
            scale = 2 * ((-1) ** p) * factorial(p - 1)
            worst = max(worst, _res(pk_val - scale * alpha))
            # iterated-adjoint route to the same pairing; the sign is the
            # (p-1)-fold iterate of the recursion with primitive factors:
            # sum of (p-k-1) over k < p-1, i.e. p(p-1)/2
            it = wedge(omega_form, j_omega)
            for _ in range(p - 1):
                it = lefschetz_lstar(j, it)
            sign = (-1) ** (p * (p - 1) // 2)
            worst = max(worst, _res(it - sign * pk_val))
            # type-(p,0)+(0,p) forms are primitive
            worst = max(worst, _res(lefschetz_lstar(j, omega_form)))
            yield _exact_case(f"dim{dim}/p{p}/seed{seed}", worst, seed)


def run_prop_4_1(dim, seeds):
    """Exact expansion of the wedge adjoint on triples of 2-forms."""
    space = Space(dim, "exact")
    for seed in seeds:
        rng = _case_rng("prop-4.1", dim, seed)
        forms = [random_form(space, 2, rng, integer=True, terms=4) for _ in range(3)]
        lhs = adjoint_wedge(forms[0], wedge(forms[1], forms[2]))
        yield _exact_case(f"dim{dim}/seed{seed}", lhs - stab_expand(*forms), seed)


def _random_conjugate(b, rng: SplitMix64):
    """q b q^T, skew-symmetrized, for the Q factor of a seeded Gaussian matrix."""
    n = len(b)
    gauss = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    q, _ = np.linalg.qr(gauss)
    a_mat = q @ b @ q.T
    return 0.5 * (a_mat - a_mat.T)


def _structured_skew(n: int, rng: SplitMix64):
    """(matrix, kernel dimension): a seeded skew matrix with well-separated block spectrum."""
    nblocks = n // 2
    p = rng.randint(1, nblocks)
    values = [float(i) + 0.2 * rng.uniform() for i in range(1, p + 1)]
    assign = list(range(1, p + 1))
    for _ in range(nblocks - p):
        assign.append(rng.randint(0, p))
    for i in range(len(assign) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        assign[i], assign[j] = assign[j], assign[i]
    b = np.zeros((n, n))
    kernel = n - 2 * sum(1 for a in assign if a > 0)
    for blk, a in enumerate(assign):
        if a == 0:
            continue
        v = values[a - 1]
        i = 2 * blk
        b[i, i + 1] = -v
        b[i + 1, i] = v
    return _random_conjugate(b, rng), kernel


def run_prop_4_2(dim, seeds):
    """Spectral reconstruction, moment recovery, and the compatibility sum."""
    space = Space(dim, "float")
    for seed in seeds:
        rng = _case_rng("prop-4.2", dim, seed)
        a_mat, kernel = _structured_skew(dim, rng)
        a = SkewEndo(space, a_mat.tolist())
        decomp = spectral(a)
        scale = max(1.0, float(np.max(np.abs(a_mat))))
        rec = float(np.max(np.abs(decomp.reconstruct() - a_mat))) / scale
        # moment recovery against the spectral clusters
        negs = decomp.negative_clusters
        pcount = len(negs)
        recovered = moment_recover(power_traces(a, 2 * pcount), pcount)
        # moment_recover returns exactly pcount pairs or raises
        moment_res = 0.0
        for (m_rec, mu_rec), c in zip(recovered, negs):
            moment_res = max(
                moment_res,
                abs(mu_rec - c.mu) / max(1.0, abs(c.mu)),
                float(abs(m_rec - c.multiplicity)),
            )
        cand = symplectic_candidate(decomp)  # compatible iff kernel_rank == 0
        cand_res = float(abs(cand.kernel_rank - kernel))
        if cand.compatible:
            c_endo = _to_float_matrix(form_endo(cand.form))
            cand_res = max(cand_res, float(np.max(np.abs(c_endo @ c_endo + np.eye(dim)))))
        passed = rec <= SPECTRAL_TOL and moment_res <= MOMENT_TOL and cand_res <= SPECTRAL_TOL
        yield CaseResult(f"dim{dim}/seed{seed}", passed, max(rec, moment_res, cand_res), seed)


def run_lemma_4_3(dim, seeds):
    """Exhaustive spectrum of the subspace splitting operator on R^dim."""
    space = Space(dim)
    for h_rank in range(2, dim - 1, 2):
        frame = [space.basis_form(i) for i in range(1, h_rank + 1)]
        h_mask = sum(1 << (i - 1) for i in range(1, h_rank + 1))
        for p in range(dim + 1):
            worst = 0
            for mask in basis_masks(dim, p):
                psi = Form(space, p, {mask: 1})
                jcount = (mask & h_mask).bit_count()
                expected = ((-1) ** (p - 1)) * jcount if p else 0
                residual = splitting_q(frame, psi) - expected * psi
                worst = max(worst, _res(residual))
            yield _exact_case(f"rank{h_rank}/p{p}", worst)


def run_lemma_4_4(dim, seeds):
    """The rank-4 patch on R^6 squares to minus the identity."""
    space = Space(6, "float")
    for seed in seeds:
        rng = _case_rng("lemma-4.4", 6, seed)
        b = np.zeros((6, 6))
        for blk in range(2):
            i = 2 * blk
            b[i, i + 1] = -1.0
            b[i + 1, i] = 1.0
        a_mat = _random_conjugate(b, rng)
        alpha = endo_form(space, a_mat.tolist())
        patched = compatible_patch_dim6(alpha)
        c = _to_float_matrix(form_endo(patched))
        residual = float(np.max(np.abs(c @ c + np.eye(6))))
        yield CaseResult(f"seed{seed}", residual <= SPECTRAL_TOL, residual, seed)


def _act(matrix, triple):
    """The triple of sums sum_k matrix[i, k] triple[k], i = 0, 1, 2."""
    return [
        matrix[i, 0] * triple[0] + matrix[i, 1] * triple[1] + matrix[i, 2] * triple[2]
        for i in range(3)
    ]


def run_lemma_4_8(dim, seeds):
    """Frame star identities, transition invariants, and the cross identity."""
    for seed in seeds:
        frame = FrameTriple.random(seed)
        _, residuals = frame_residuals(frame)
        td = transition_p(frame)
        p = td.p_matrix
        worst = max(residuals.values())
        worst = max(worst, float(np.max(np.abs(p - p.T))))
        worst = max(worst, float(np.max(np.abs(p @ np.conj(p) - np.eye(3)))))
        worst = max(worst, abs(td.k**2 - np.linalg.det(p)))
        rng = _case_rng("lemma-4.8", 3, seed)
        alpha = ComplexForm.from_coords(
            [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        )
        acc = _act(r_matrix(alpha, frame), cross(frame.gammas))
        for i in range(3):
            diff = alpha.wedge(frame.gammas[i]) - acc[i]
            worst = max(worst, float(np.sqrt(diff.norm_sq())))
        yield CaseResult(f"seed{seed}", worst <= FRAME_TOL, float(worst), seed)


def run_prop_4_11(dim, seeds):
    """Symmetric/skew separation and the two transition reduction identities."""
    for seed in seeds:
        rng = _case_rng("prop-4.11", 3, seed)
        m = np.array(
            [
                [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
                for _ in range(3)
            ]
        )
        s, r = symmetric_skew_split(m)
        worst = float(
            max(
                np.max(np.abs(s - s.T)),
                np.max(np.abs(r + r.T)),
                np.max(np.abs(s + r - m)),
            )
        )
        frame = FrameTriple.random(seed + 7919)
        td = transition_p(frame)
        b = ComplexForm.from_coords([rng.uniform(-1, 1) for _ in range(3)])  # real 1-form
        coeffs = expand_in_frame(b, frame)
        r_b = r_from_coeffs(coeffs)
        star_conj = [g.conj().star() for g in frame.gammas]
        b_wedge_gamma = [b.wedge(g) for g in frame.gammas]
        lhs1 = _act(td.p_matrix @ np.conj(r_b) @ td.p_matrix, star_conj)
        lhs2 = _act(r_b, star_conj)
        for i in range(3):
            worst = max(worst, float(np.sqrt((lhs1[i] - td.k * b_wedge_gamma[i]).norm_sq())))
            worst = max(
                worst, float(np.sqrt((lhs2[i] - (1 / td.k) * b_wedge_gamma[i]).norm_sq()))
            )
        yield CaseResult(f"seed{seed}", worst <= FRAME_TOL, worst, seed)


def run_cor_4_12(dim, seeds):
    """The real-restricted obstruction kernel vanishes on valid transitions."""
    identity = TransitionData(np.eye(3, dtype=complex), 1.0 + 0.0j)
    yield _exact_case("identity/complex", abs(obstruction_kernel(identity, False) - 3))
    yield _exact_case("identity/real", obstruction_kernel(identity, True))
    for seed in seeds:
        td = transition_p(FrameTriple.random(seed))
        yield _exact_case(f"seed{seed}", obstruction_kernel(td, True), seed)


def run_eq_7(dim, seeds):
    """Bullet pairing facts: the bullet equals the cyclic sum of eq. (7)
    evaluated term by term, and the span containment of commutator bullets
    in polarized square bullets."""
    k = dim // 2
    j = _std(dim)
    basis = admissible_torsion_basis(j)
    yield CaseResult(f"dim{dim}/admissible", True, float(len(basis)), 0)
    rng = _case_rng("eq-7", dim, 1)
    worst = 0
    for etas in basis[:4]:
        q_rows = [[rng.small_int() for _ in range(dim)] for _ in range(dim)]
        bullet = torsion_bullet(q_rows, etas)
        # the bullet is alternating, so the increasing triples decide it
        for x, y, z in combinations(range(dim), 3):
            direct = sum(q[x] * e[z][y] + q[y] * e[x][z] + q[z] * e[y][x]
                         for q, e in zip(q_rows, etas))
            worst = max(worst, abs(bullet[x][y][z] - direct))
    yield _exact_case(f"dim{dim}/cyclic", worst)
    squares, commutators = bracket_bases(j)
    yield _exact_case(f"dim{dim}/bracket-span", bracket_bullet_in_span(basis, squares, commutators))
    bdim = len(commutators)
    if k >= 3:
        yield _exact_case(f"dim{dim}/bracket-dim", k * k - bdim)
    else:
        # reported: the commutators of the anticommuting skews span a
        # strictly smaller subspace when k = 2
        yield CaseResult(f"dim{dim}/bracket-dim-reported", True, float(bdim), 0)


def run_lemma_5_5(dim, seeds):
    """The fully constrained torsion space is zero from dimension 6 on."""
    value = van_kernel_dimension(_std(dim))
    if dim >= 6:
        yield _exact_case(f"dim{dim}/kernel", value)
    else:
        yield CaseResult(f"dim{dim}/kernel-reported", True, float(value), 0)


# -- registry and runner ---------------------------------------------------


@dataclass
class _Entry:
    fn: object
    dims: list
    seeds: list
    backend: str
    allowed_dims: list


CAMPAIGNS = {
    "lemma-2.1": _Entry(run_lemma_2_1, [4, 6, 8], list(range(1, 13)), "exact", [4, 6, 8]),
    "prop-2.2": _Entry(run_prop_2_2, [4, 6, 8], list(range(1, 7)), "exact", [4, 6, 8]),
    "prop-2.3": _Entry(run_prop_2_3, [4, 6, 8], list(range(1, 24)), "exact", [4, 6, 8]),
    "lemma-3.1": _Entry(run_lemma_3_1, [4, 6, 8], list(range(1, 11)), "exact", [4, 6, 8]),
    "alpha-omega": _Entry(run_alpha_omega, [4, 6, 8], list(range(1, 11)), "exact", [4, 6, 8]),
    "prop-4.1": _Entry(run_prop_4_1, [4, 6, 8], list(range(1, 171)), "exact", [4, 6, 8]),
    "prop-4.2": _Entry(run_prop_4_2, [4, 6, 8], list(range(1, 35)), "float", [4, 5, 6, 7, 8]),
    "lemma-4.3": _Entry(run_lemma_4_3, [6], [0], "exact", [6]),
    "lemma-4.4": _Entry(run_lemma_4_4, [6], list(range(1, 26)), "float", [6]),
    "lemma-4.8": _Entry(run_lemma_4_8, [3], list(range(1, 201)), "float", [3]),
    "prop-4.11": _Entry(run_prop_4_11, [3], list(range(1, 51)), "float", [3]),
    "cor-4.12": _Entry(run_cor_4_12, [3], list(range(1, 101)), "float", [3]),
    "eq-7": _Entry(run_eq_7, [6], [0], "exact", [4, 6]),
    "lemma-5.5": _Entry(run_lemma_5_5, [6, 8], [0], "exact", [4, 6, 8]),
}


def campaign_names():
    return sorted(CAMPAIGNS)


def run_campaign(c: Campaign) -> Report:
    if c.name not in CAMPAIGNS:
        raise UsageError(f"unknown campaign {c.name!r}; known: {', '.join(campaign_names())}")
    entry = CAMPAIGNS[c.name]
    # repeats are dropped, first appearance kept, so every case id is unique
    dims = list(dict.fromkeys(c.dims or entry.dims))
    seeds = list(dict.fromkeys(c.seeds or entry.seeds))
    bad = [d for d in dims if d not in entry.allowed_dims]
    if bad:
        raise UsageError(f"campaign {c.name} accepts dims {entry.allowed_dims}, got {bad}")
    start = time.perf_counter()
    cases = [case for dim in dims for case in entry.fn(dim, seeds)]
    wall = time.perf_counter() - start
    summary = {
        "total": len(cases),
        "passed": sum(1 for x in cases if x.passed),
        "failed": sum(1 for x in cases if not x.passed),
        "max_residual": max((x.residual for x in cases), default=0.0),
    }
    return Report(c.name, entry.backend, dims, cases, summary, wall)
