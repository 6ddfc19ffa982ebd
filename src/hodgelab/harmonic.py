"""Two-forms as skew endomorphisms: cubic stability, spectra, splittings.

A 2-form alpha corresponds to the skew map A with alpha = g(A., .).  The
module implements the triple product A2 A1 A3 + A3 A1 A2 with its
wedge-adjoint expansion, the spectral decomposition of A^2 into constant
eigenvalue clusters with per-cluster complex structures, recovery of
(multiplicity, eigenvalue) pairs from power traces, the symplectic
candidate sum of the unit pieces, and the subspace splitting operator
Q psi = sum_{e in H} (e -| psi) ^ e^flat with spectrum (-1)^(p-1) j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    DegreeMismatchError,
    IllConditionedSpectrumError,
    InvalidFrameError,
    InvariantViolationError,
    MomentInconsistencyError,
    SpaceMismatchError,
)
from .exterior import Form, Space, contract, hodge_star, inner, wedge
from .linalg import combine, compose, dense_rows, sparse_rows

SPECTRAL_TOL = 1e-8
MOMENT_TOL = 1e-6


class SkewEndo:
    """A skew-symmetric endomorphism in matrix form."""

    __slots__ = ("space", "rows")

    def __init__(self, space: Space, rows):
        rows = tuple(tuple(space.scalar(v) for v in row) for row in rows)
        if len(rows) != space.dim or any(len(r) != space.dim for r in rows):
            raise InvariantViolationError("matrix shape must match the space dimension")
        n = space.dim
        # relative to the largest entry; a zero tolerance needs no scale
        bound = space.tol and space.tol * max(1, max(map(abs, chain.from_iterable(rows))))
        if any(abs(rows[i][j] + rows[j][i]) > bound for i in range(n) for j in range(i, n)):
            raise InvariantViolationError("matrix is not skew-symmetric")
        self.space = space
        self.rows = rows

    def __mul__(self, scalar) -> "SkewEndo":
        return SkewEndo(self.space, [[v * scalar for v in row] for row in self.rows])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, SkewEndo)
            and self.space == other.space
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.space.dim})"


def form_endo(alpha: Form) -> SkewEndo:
    """Skew map A with alpha = g(A., .), i.e. A[j][i] = alpha(e_i, e_j)."""
    if alpha.degree != 2:
        raise DegreeMismatchError("form_endo needs a 2-form")
    n = alpha.space.dim
    rows = [[alpha.space.zero] * n for _ in range(n)]
    for (i, j), c in alpha.terms():
        rows[j - 1][i - 1] = c
        rows[i - 1][j - 1] = -c
    return SkewEndo(alpha.space, rows)


def endo_form(a: SkewEndo) -> Form:
    """Inverse of form_endo: omega(e_i, e_j) = a.rows[j][i]."""
    coeffs = {}
    n = a.space.dim
    for i in range(n):
        for j in range(i + 1, n):
            val = a.rows[j][i]
            if val != 0:
                coeffs[(1 << i) | (1 << j)] = val
    return Form(a.space, 2, coeffs)


def triple(a1: SkewEndo, a2: SkewEndo, a3: SkewEndo) -> SkewEndo:
    """A2 A1 A3 + A3 A1 A2; skew again and symmetric in the outer arguments."""
    if a1.space != a2.space or a1.space != a3.space:
        raise SpaceMismatchError("operands live on different spaces")
    r1, r2, r3 = (sparse_rows(a.rows) for a in (a1, a2, a3))
    m = combine(compose(r2, compose(r1, r3)), compose(r3, compose(r1, r2)))
    return SkewEndo(a1.space, dense_rows(m, a1.space.dim))


def stab_expand(alpha1: Form, alpha2: Form, alpha3: Form) -> Form:
    """Expansion of adjoint_wedge(alpha1, alpha2 ^ alpha3) for 2-forms:

        <a1, a2> a3 + <a1, a3> a2 + g((A2 A1 A3 + A3 A1 A2)., .)
    """
    a1, a2, a3 = form_endo(alpha1), form_endo(alpha2), form_endo(alpha3)
    out = inner(alpha1, alpha2) * alpha3 + inner(alpha1, alpha3) * alpha2
    return out + endo_form(triple(a1, a2, a3))


# -- spectral decomposition ----------------------------------------------


@dataclass
class SpectralCluster:
    mu: float
    multiplicity: int
    projector: np.ndarray
    j_structure: np.ndarray | None  # None for the kernel cluster
    omega: Form | None


@dataclass
class SpectralDecomposition:
    space: Space
    clusters: list  # ordered ascending by mu; kernel cluster (mu = 0) last

    @property
    def kernel_rank(self) -> int:
        for c in self.clusters:
            if c.mu == 0.0:
                return c.multiplicity
        return 0

    @property
    def negative_clusters(self):
        return [c for c in self.clusters if c.mu != 0.0]

    def reconstruct(self) -> np.ndarray:
        n = self.space.dim
        out = np.zeros((n, n))
        for c in self.negative_clusters:
            out += np.sqrt(-c.mu) * c.j_structure
        return out


def _to_float_matrix(a: SkewEndo) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in a.rows], dtype=float)


def spectral(a: SkewEndo, gap_tol: float = SPECTRAL_TOL) -> SpectralDecomposition:
    """Cluster the spectrum of A^2 and extract per-cluster complex structures.

    Eigenvalues within a relative gap of ``gap_tol`` are merged into one
    cluster; a negative cluster of odd dimension, or one whose normalized
    restriction fails to square to minus the projector, indicates that the
    clustering is unreliable and raises IllConditionedSpectrumError.
    Clusters are ordered by ascending eigenvalue so the kernel, if any,
    comes last.
    """
    am = _to_float_matrix(a)
    n = am.shape[0]
    sq = am @ am
    evals, evecs = np.linalg.eigh(sq)
    scale = max(abs(evals[0]), abs(evals[-1]), 1e-300)
    # group consecutive eigenvalues (ascending) within the relative gap
    groups: list[list[int]] = [[0]]
    for i in range(1, n):
        if evals[i] - evals[groups[-1][0]] <= gap_tol * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    fspace = Space(n, "float") if a.space.backend != "float" else a.space
    clusters = []
    for g in groups:
        mu = float(np.mean(evals[g]))
        if abs(mu) <= gap_tol * scale:
            mu = 0.0
        vecs = evecs[:, g]
        proj = vecs @ vecs.T
        proj = 0.5 * (proj + proj.T)
        if mu == 0.0:
            clusters.append(SpectralCluster(0.0, len(g), proj, None, None))
            continue
        if mu > 0:
            raise IllConditionedSpectrumError("squared skew map has a positive eigenvalue")
        if len(g) % 2:
            raise IllConditionedSpectrumError(
                f"negative eigenvalue {mu} carries odd multiplicity {len(g)}"
            )
        ji = proj @ am @ proj / np.sqrt(-mu)
        if np.max(np.abs(ji @ ji + proj)) > SPECTRAL_TOL:
            raise IllConditionedSpectrumError("cluster restriction does not square to -1")
        omega = endo_form(SkewEndo(fspace, ji.tolist()))
        clusters.append(SpectralCluster(mu, len(g), proj, ji, omega))
    clusters.sort(key=lambda c: (c.mu == 0.0, c.mu))
    decomp = SpectralDecomposition(fspace, clusters)
    total = sum(c.projector for c in clusters)
    recon = decomp.reconstruct()
    amax = max(1.0, float(np.max(np.abs(am))))
    if (
        np.max(np.abs(total - np.eye(n))) > SPECTRAL_TOL
        or np.max(np.abs(recon - am)) > SPECTRAL_TOL * amax
    ):
        raise IllConditionedSpectrumError("projectors do not reassemble the input")
    return decomp


def power_traces(a: SkewEndo, count: int) -> list[float]:
    """[Tr(A^2), Tr(A^4), ..., Tr(A^{2 count})]."""
    am = _to_float_matrix(a)
    sq = am @ am
    out = []
    acc = np.eye(am.shape[0])
    for _ in range(count):
        acc = acc @ sq
        out.append(float(np.trace(acc)))
    return out


def moment_recover(c, p: int):
    """Solve sum_i m_i mu_i^k = c_k for integer multiplicities and eigenvalues.

    ``c`` holds the traces of the even powers, k = 1..2p, and ``p`` is the
    expected count of distinct nonzero eigenvalues of the squared map.  The
    recurrence coefficients of the power sums are found from the p x p
    Hankel system, the eigenvalues as the roots of the resulting monic
    polynomial, and the multiplicities from the final Vandermonde solve.
    Raises MomentInconsistencyError unless the multiplicities are positive
    even integers and the eigenvalues negative reals.
    """
    c = [float(x) for x in c]
    scale = max([abs(x) for x in c], default=0.0)
    if scale == 0.0 or p == 0:
        return []
    if len(c) < 2 * p:
        raise MomentInconsistencyError(f"need {2 * p} traces, got {len(c)}")
    hankel = np.array([[c[i + j] for j in range(p)] for i in range(p)])
    rhs = np.array([-c[p + i] for i in range(p)])
    try:
        q = np.linalg.solve(hankel, rhs)
    except np.linalg.LinAlgError as exc:
        raise MomentInconsistencyError("singular Hankel system") from exc
    poly = np.concatenate(([1.0], q[::-1]))
    roots = np.roots(poly)
    if np.max(np.abs(roots.imag)) > MOMENT_TOL * max(1.0, np.max(np.abs(roots))):
        raise MomentInconsistencyError("complex eigenvalue roots")
    mus = np.sort(roots.real)
    if mus[-1] >= 0:
        raise MomentInconsistencyError("nonnegative eigenvalue recovered")
    vand = np.array([[mu ** (k + 1) for mu in mus] for k in range(p)])
    mults = np.linalg.solve(vand, np.array(c[:p]))
    out = []
    for m, mu in zip(mults, mus):
        mi = round(m)
        if abs(m - mi) > MOMENT_TOL * max(1.0, abs(m)) or mi <= 0 or mi % 2:
            raise MomentInconsistencyError(f"multiplicity {m} is not a positive even integer")
        out.append((int(mi), float(mu)))
    return out


@dataclass
class SymplecticCandidate:
    form: Form
    compatible: bool
    kernel_rank: int


def symplectic_candidate(decomp: SpectralDecomposition) -> SymplecticCandidate:
    """Sum of the unit-coefficient cluster forms.

    Compatible (the associated endomorphism squares to -I) exactly when the
    kernel cluster is absent; degeneracy is reported, not raised.
    """
    space = decomp.space
    total = space.zero_form(2)
    for c in decomp.negative_clusters:
        total = total + c.omega
    return SymplecticCandidate(total, decomp.kernel_rank == 0, decomp.kernel_rank)


def compatible_patch_dim6(alpha: Form) -> Form:
    """Complete a rank-4 compatible 2-form on a 6-dimensional space.

    For alpha whose endomorphism A satisfies A^2 = -P with P an orthogonal
    projector of rank 4, the wedge square is twice the area form of the
    range, so half its Hodge star is the unit area form of the kernel plane;
    alpha + (1/2) star(alpha ^ alpha) is then fully compatible (its
    endomorphism squares to -I).
    """
    space = alpha.space
    if space.dim != 6:
        raise DegreeMismatchError("the patch is specific to dimension 6")
    a = form_endo(alpha)
    am = _to_float_matrix(a)
    proj = -(am @ am)
    if (
        np.max(np.abs(proj @ proj - proj)) > SPECTRAL_TOL
        or abs(np.trace(proj) - 4.0) > SPECTRAL_TOL
    ):
        raise InvariantViolationError("input is not compatible of rank 4")
    return alpha + space.ratio(1, 2) * hodge_star(wedge(alpha, alpha))


def splitting_q(h_frame, psi: Form) -> Form:
    """Q psi = sum_a (h_a -| psi) ^ h_a^flat for an orthonormal frame of H.

    On a p-form with j of its factors along H the value is (-1)^(p-1) j psi,
    so the operator separates the mixed-degree components with respect to
    the splitting H + H-perp.
    """
    if not h_frame:
        return psi.space.zero_form(psi.degree)
    space = psi.space
    for a, va in enumerate(h_frame):
        if va.space != space:
            raise SpaceMismatchError("frame vector lives on a different space")
        for b in range(a, len(h_frame)):
            g = sum(x * y for x, y in zip(va.components, h_frame[b].components))
            expected = 1 if a == b else 0
            if abs(g - expected) > space.tol:
                raise InvalidFrameError("spanning list is not orthonormal")
    if psi.degree == 0:
        return space.zero_form(0)
    out = space.zero_form(psi.degree)
    for h in h_frame:
        out = out + wedge(contract(h, psi), h.dual_one_form())
    return out
