"""Complex coframe calculus on a 3-dimensional oriented inner-product space.

A frame triple is three complex 1-forms gamma_k = alpha_k + i beta_k whose
real and imaginary parts satisfy the unitarity relations

    |alpha_k|^2 + |beta_k|^2 = 1,
    <alpha_i, alpha_j> + <beta_i, beta_j> = 0   (i != j),
    <alpha_i, beta_j> = <alpha_j, beta_i>,

equivalently the Hermitian Gram matrix of the gammas is the identity.  For
such a triple the Hodge star rotates the frame into conjugate wedge
products through a single unit scalar k,

    star gamma_1 =  k conj(gamma_2) ^ conj(gamma_3)
    star gamma_2 = -k conj(gamma_1) ^ conj(gamma_3)
    star gamma_3 =  k conj(gamma_1) ^ conj(gamma_2)

with k conj(gamma_1) ^ conj(gamma_2) ^ conj(gamma_3) equal to the volume
form, and the transition matrix P with gamma = P conj(gamma) is symmetric,
satisfies P conj(P) = I and det(P) = k^2.  The obstruction operator
alpha -> P conj(r_alpha) P + k^2 r_alpha has trivial kernel on real
1-forms, which is the forced-vanishing mechanism used downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    FrameInconsistencyError,
    FrameRankError,
    InvalidTransitionError,
    NotAValidFrameError,
    SpaceMismatchError,
)
from .exterior import Form, Space, hodge_star, inner, wedge
from .linalg import _lazy_numpy
from .rng import SplitMix64

np = _lazy_numpy()
FRAME_TOL = 1e-9

_SPACE3 = Space(3, "float")


class ComplexForm:
    """A complex form stored as a pair of real forms (re, im)."""

    __slots__ = ("re", "im")

    def __init__(self, re: Form, im: Form):
        if re.space != im.space or re.degree != im.degree:
            raise SpaceMismatchError("real and imaginary parts must match")
        self.re = re
        self.im = im

    @property
    def space(self):
        return self.re.space

    @classmethod
    def from_coords(cls, coords) -> "ComplexForm":
        """Complex 1-form from a coefficient vector over e^1, e^2, e^3."""
        re = {}
        im = {}
        for i, c in enumerate(coords):
            c = complex(c)
            if c.real:
                re[1 << i] = c.real
            if c.imag:
                im[1 << i] = c.imag
        return cls(Form(_SPACE3, 1, re), Form(_SPACE3, 1, im))

    def coords(self) -> np.ndarray:
        """Coefficient vector of a 1-form over e^1, ..., e^n."""
        n = self.space.dim
        out = np.zeros(n, dtype=complex)
        for i in range(n):
            out[i] = self.re.coeffs.get(1 << i, 0.0) + 1j * self.im.coeffs.get(1 << i, 0.0)
        return out

    def conj(self) -> "ComplexForm":
        return ComplexForm(self.re, -self.im)

    def star(self) -> "ComplexForm":
        return ComplexForm(hodge_star(self.re), hodge_star(self.im))

    def __add__(self, other: "ComplexForm") -> "ComplexForm":
        return ComplexForm(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexForm") -> "ComplexForm":
        return ComplexForm(self.re - other.re, self.im - other.im)

    def __mul__(self, scalar) -> "ComplexForm":
        scalar = complex(scalar)
        return ComplexForm(
            scalar.real * self.re - scalar.imag * self.im,
            scalar.real * self.im + scalar.imag * self.re,
        )

    __rmul__ = __mul__

    def wedge(self, other: "ComplexForm") -> "ComplexForm":
        return ComplexForm(
            wedge(self.re, other.re) - wedge(self.im, other.im),
            wedge(self.re, other.im) + wedge(self.im, other.re),
        )

    def hermitian(self, other: "ComplexForm") -> complex:
        """<self, conj(other)> extended bilinearly: the Hermitian pairing."""
        return complex(
            inner(self.re, other.re) + inner(self.im, other.im),
            inner(self.im, other.re) - inner(self.re, other.im),
        )

    def norm_sq(self) -> float:
        return float(self.re.norm_sq() + self.im.norm_sq())

    def __repr__(self):
        return f"ComplexForm(re={self.re!r}, im={self.im!r})"


def symmetric_skew_split(m: np.ndarray):
    """Unique decomposition M = S + R with S symmetric, R skew."""
    m = np.asarray(m)
    s = (m + m.T) / 2
    return s, m - s


def r_from_coeffs(a) -> np.ndarray:
    """The skew matrix carrying wedge-by-alpha onto the frame cross products."""
    a1, a2, a3 = (complex(x) for x in a)
    return np.array([[0, a3, -a2], [-a3, 0, a1], [a2, -a1, 0]], dtype=complex)


class FrameTriple:
    """Three complex 1-forms satisfying the unitarity relations, plus the
    volume form of the underlying oriented 3-space."""

    __slots__ = ("gammas", "nu")

    def __init__(self, gammas):
        gammas = tuple(gammas)
        if len(gammas) != 3:
            raise NotAValidFrameError("need exactly three complex 1-forms")
        gram = np.array(
            [[gammas[i].hermitian(gammas[j]) for j in range(3)] for i in range(3)]
        )
        if np.max(np.abs(gram - np.eye(3))) > FRAME_TOL:
            raise NotAValidFrameError("frame violates the unitarity relations")
        self.gammas = gammas
        self.nu = gammas[0].space.volume_form()

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "FrameTriple":
        """Frame with gamma_i = sum_j U[i, j] e^j; valid iff U is unitary."""
        return cls([ComplexForm.from_coords(row) for row in np.asarray(u, dtype=complex)])

    @classmethod
    def random(cls, seed: int) -> "FrameTriple":
        """Random valid frame: a seeded unitary applied to the real coframe."""
        rng = SplitMix64(seed)
        m = np.array(
            [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)] for _ in range(3)]
        )
        # classical Gram-Schmidt on the rows (numpy vdot); every draw happens above
        rows = []
        for i in range(3):
            # the draw, or e_i when the draw is (nearly) dependent
            for v in (m[i].copy(), np.eye(3, dtype=complex)[i]):
                for w in rows:
                    v -= np.vdot(w, v) * w
                norm = np.sqrt(np.vdot(v, v).real)
                if norm >= 1e-8:
                    break
            rows.append(v / norm)
        return cls.from_unitary(np.array(rows))

    def coordinate_matrix(self) -> np.ndarray:
        """Rows are the coefficient vectors of the gammas over e^1, e^2, e^3."""
        return np.array([g.coords() for g in self.gammas])


def cross(gammas) -> tuple:
    """(g2 ^ g3, g3 ^ g1, g1 ^ g2) for a triple of complex 1-forms."""
    g1, g2, g3 = gammas
    return (g2.wedge(g3), g3.wedge(g1), g1.wedge(g2))


def expand_in_frame(alpha: ComplexForm, frame: FrameTriple) -> np.ndarray:
    """Coefficients of alpha over the frame gammas."""
    g = frame.coordinate_matrix()
    if abs(np.linalg.det(g)) < FRAME_TOL:
        raise FrameRankError("frame does not span the complexified dual")
    return np.linalg.solve(g.T, alpha.coords())


def r_matrix(alpha: ComplexForm, frame: FrameTriple) -> np.ndarray:
    """Skew matrix with alpha ^ gamma = r_alpha (gamma x gamma) componentwise."""
    return r_from_coeffs(expand_in_frame(alpha, frame))


def frame_residuals(frame: FrameTriple):
    """The star scalar of a frame and the residual norms of its identities."""
    g1, g2, g3 = frame.gammas
    c1 = g2.conj().wedge(g3.conj())
    c2 = g1.conj().wedge(g3.conj())
    c3 = g1.conj().wedge(g2.conj())
    denom = c1.hermitian(c1).real
    if denom < 1e-12:
        raise FrameInconsistencyError("degenerate conjugate cross product")
    k = g1.star().hermitian(c1) / denom
    vol = g1.conj().wedge(c1)  # conj(g1) ^ conj(g2) ^ conj(g3)
    nu = ComplexForm(frame.nu, 0.0 * frame.nu)
    residuals = {
        "star1": np.sqrt((g1.star() - k * c1).norm_sq()),
        "star2": np.sqrt((g2.star() + k * c2).norm_sq()),
        "star3": np.sqrt((g3.star() - k * c3).norm_sq()),
        "volume": np.sqrt(((k * vol) - nu).norm_sq()),
        "unit_modulus": abs(abs(k) - 1.0),
    }
    for idx, g in enumerate(frame.gammas, start=1):
        residuals[f"star_pair{idx}"] = np.sqrt((g.star().wedge(g.conj()) - nu).norm_sq())
    return k, residuals


def star_triple(frame: FrameTriple) -> complex:
    """The unit scalar through which the star rotates the frame.

    Computed from the first star identity and cross-checked on the other
    two, on the volume identities, and on |k| = 1; any residual beyond
    FRAME_TOL raises FrameInconsistencyError.
    """
    k, residuals = frame_residuals(frame)
    worst = max(residuals.values())
    if worst > FRAME_TOL:
        raise FrameInconsistencyError(f"star identities fail (max residual {worst:.3e})")
    return k


@dataclass
class TransitionData:
    """Symmetric unitary-type transition matrix and its unit scalar.

    Invariants (to FRAME_TOL): P = P^T, P conj(P) = I, |k| = 1, k^2 = det(P).
    """

    p_matrix: np.ndarray
    k: complex

    def __post_init__(self):
        p = np.asarray(self.p_matrix, dtype=complex)
        self.p_matrix = p
        if p.shape != (3, 3):
            raise InvalidTransitionError("transition matrix must be 3 x 3")
        checks = [
            np.max(np.abs(p - p.T)),
            np.max(np.abs(p @ np.conj(p) - np.eye(3))),
            abs(abs(self.k) - 1.0),
            abs(self.k**2 - np.linalg.det(p)),
        ]
        if max(checks) > FRAME_TOL:
            raise InvalidTransitionError(f"invariants fail (max residual {max(checks):.3e})")


def transition_p(frame: FrameTriple) -> TransitionData:
    """Solve gamma = P conj(gamma) and package it with the star scalar."""
    g = frame.coordinate_matrix()
    try:
        p = g @ np.linalg.inv(np.conj(g))
    except np.linalg.LinAlgError as exc:
        raise NotAValidFrameError("frame coordinates are singular") from exc
    k = star_triple(frame)
    try:
        return TransitionData(p, k)
    except InvalidTransitionError as exc:
        raise NotAValidFrameError(str(exc)) from exc


def obstruction_kernel(td: TransitionData, restrict_real: bool) -> int:
    """Dimension of {alpha : P conj(r_alpha) P + k^2 r_alpha = 0}.

    One real system over the six real directions e_1, e_2, e_3, i e_1,
    i e_2, i e_3 of the frame coefficients a: each direction gives a column
    holding the real and imaginary parts of the operator.  With
    ``restrict_real`` the real and imaginary parts of conj(a) - P a join as
    rows, so a ranges over the coefficients of real 1-forms (real dimension
    3), and the kernel is zero for every valid transition; without them a
    ranges over all complex 1-forms (real dimension 6).
    """
    p = td.p_matrix
    ksq = td.k**2
    columns = []
    for a in np.vstack([np.eye(3), 1j * np.eye(3)]):
        eq = p @ np.conj(r_from_coeffs(a)) @ p + ksq * r_from_coeffs(a)
        parts = [eq.real.ravel(), eq.imag.ravel()]
        if restrict_real:
            reality = np.conj(a) - p @ a
            parts += [reality.real, reality.imag]
        columns.append(np.concatenate(parts))
    sv = np.linalg.svd(np.array(columns).T, compute_uv=False)
    return 6 - int(np.sum(sv > FRAME_TOL * sv[0]))
