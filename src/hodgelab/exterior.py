"""Exterior algebra over an oriented inner-product space.

Forms are stored on strictly increasing multi-indices, encoded as bitmasks
(bit i-1 set means index i is present).  The standard basis is orthonormal
and declared positively oriented, so the basis forms e^I are an orthonormal
basis of each degree and the Hodge star is a signed complement lookup.

Two coefficient backends share all code paths: "exact" stores ints and
``Fraction``s and never rounds, "float" stores floats and compares with a
relative tolerance of 1e-9.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations

from .errors import (
    DegreeMismatchError,
    DegreeUnderflowError,
    SpaceMismatchError,
)
from .linalg import numerators

FLOAT_TOL = 1e-9

_EXACT_TYPES = (int, Fraction)


def merge_sign(a: int, b: int) -> int:
    """Sign of the permutation sorting the concatenated index words a, b.

    Both arguments are bitmasks of disjoint increasing index sets; the sign
    is (-1)^inversions where an inversion is a pair i in a, j in b, i > j.
    """
    inversions = 0
    x = b
    while x:
        low = x & -x
        inversions += (a >> low.bit_length()).bit_count()
        x ^= low
    return -1 if inversions & 1 else 1


@cache
def basis_masks(n: int, p: int) -> tuple[int, ...]:
    """All bitmasks of p increasing indices out of 1..n, in lexicographic
    order; memoized, hence a tuple that no caller can modify."""
    if p < 0 or p > n:
        return ()
    return tuple(sum(1 << i for i in combo) for combo in combinations(range(n), p))


def mask_to_indices(mask: int) -> tuple[int, ...]:
    """1-based increasing index tuple of a bitmask."""
    out = []
    x = mask
    while x:
        low = x & -x
        out.append(low.bit_length())
        x ^= low
    return tuple(out)


def indices_to_mask(indices) -> int:
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated index {i}")
        mask |= bit
    return mask


class Space:
    """Oriented R^n with the standard basis orthonormal, plus a scalar backend.

    The backend's scalar rules live here: ``zero`` and ``one``, the
    tolerance ``tol`` of its checks (0 on exact, so an exact check compares
    exact values, ``FLOAT_TOL`` on float), ``ratio(a, b)``,
    ``numerators(coeffs)`` and its inverse ``from_numerators``.
    """

    __slots__ = ("dim", "backend", "zero", "one", "tol")

    def __init__(self, dim: int, backend: str = "exact"):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if backend not in ("exact", "float"):
            raise ValueError(f"unknown backend {backend!r}")
        self.dim = dim
        self.backend = backend
        self.zero, self.one, self.tol = (0, 1, 0) if backend == "exact" else (0.0, 1.0, FLOAT_TOL)

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.dim == other.dim
            and self.backend == other.backend
        )

    def __hash__(self):
        return hash((self.dim, self.backend))

    def __repr__(self):
        return f"Space(dim={self.dim}, backend={self.backend!r})"

    def scalar(self, value):
        """Coerce a number into this space's coefficient type."""
        if self.backend == "exact":
            if isinstance(value, _EXACT_TYPES):
                return value
            raise TypeError(f"exact backend needs int or Fraction, got {type(value).__name__}")
        return float(value)

    def ratio(self, a, b):
        """a / b as a ``Fraction`` on the exact backend, a float otherwise."""
        return Fraction(a, b) if self.backend == "exact" else a / b

    def numerators(self, coeffs: dict):
        """``(nums, den)`` with coeffs[k] == nums[k] / den: integers over the
        lcm of the denominators on exact, the coefficients over 1 on float."""
        return numerators(coeffs) if self.backend == "exact" else (coeffs, 1)

    def from_numerators(self, degree: int, nums: dict, den) -> "Form":
        """The inverse of ``numerators``: the form with coefficients
        nums[k] / den, each entry divided once by ``ratio``."""
        if den != 1:
            nums = {k: self.ratio(v, den) for k, v in nums.items()}
        return Form(self, degree, nums)

    def zero_form(self, degree: int) -> "Form":
        return Form(self, degree, {})

    def basis_form(self, *indices) -> "Form":
        """The basis form e^{i1} ^ ... ^ e^{ip} for increasing 1-based indices."""
        return self.form(len(indices), {indices: self.one})

    def form(self, degree: int, terms) -> "Form":
        """Build a form from a mapping {index tuple: coefficient}."""
        coeffs = {}
        for idx, val in terms.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise DegreeMismatchError(f"index {idx} does not have degree {degree}")
            if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
                raise ValueError("indices must be strictly increasing")
            if idx and (idx[0] < 1 or idx[-1] > self.dim):
                raise ValueError("index out of range")
            coeffs[indices_to_mask(idx)] = self.scalar(val)
        return Form(self, degree, coeffs)

    def volume_form(self) -> "Form":
        return self.basis_form(*range(1, self.dim + 1))


class Form:
    """A real alternating p-form, coefficients on increasing multi-indices.

    Immutable by convention: no method mutates ``coeffs`` after construction.
    """

    __slots__ = ("space", "degree", "coeffs")

    def __init__(self, space: Space, degree: int, coeffs: dict):
        if degree < 0 or degree > space.dim:
            raise DegreeMismatchError(f"degree {degree} out of range for dim {space.dim}")
        self.space = space
        self.degree = degree
        if space.backend == "exact":
            self.coeffs = {m: c for m, c in coeffs.items() if c != 0}
        else:
            self.coeffs = {m: float(c) for m, c in coeffs.items() if c != 0.0}

    # -- basic algebra -------------------------------------------------

    def _check_compatible(self, other: "Form"):
        if self.space != other.space:
            raise SpaceMismatchError(f"{self.space} vs {other.space}")
        if self.degree != other.degree:
            raise DegreeMismatchError(f"degree {self.degree} vs {other.degree}")

    def __add__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Form(self.space, self.degree, out)

    def __sub__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return Form(self.space, self.degree, out)

    def __neg__(self) -> "Form":
        return Form(self.space, self.degree, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, scalar) -> "Form":
        if isinstance(scalar, Form):
            raise TypeError("use wedge() for products of forms")
        scalar = self.space.scalar(scalar)
        return Form(self.space, self.degree, {m: c * scalar for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Form":
        scalar = self.space.scalar(scalar)
        return self * self.space.ratio(1, scalar)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.space == other.space
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.space, self.degree, tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def isclose(self, other: "Form") -> bool:
        """Comparison within the space's ``tol``, relative to the larger of the
        two squared norms (and 1): exact forms compare exactly, as tol is 0."""
        tol = self.space.tol
        return self == other or (
            (self - other).norm_sq() <= tol * tol * max(self.norm_sq(), other.norm_sq(), 1))

    def norm_sq(self):
        return sum(c * c for c in self.coeffs.values())

    def scalar_value(self):
        """Value of a degree-0 form."""
        if self.degree != 0:
            raise DegreeMismatchError("scalar_value needs a degree-0 form")
        return self.coeffs.get(0, self.space.zero)

    def terms(self):
        """Sorted list of (index tuple, coefficient) pairs."""
        return [(mask_to_indices(m), c) for m, c in sorted(self.coeffs.items())]

    def __repr__(self):
        if not self.coeffs:
            return f"Form<0, deg={self.degree}, n={self.space.dim}>"
        parts = []
        for idx, c in self.terms():
            label = "e" + "".join(str(i) for i in idx) if idx else "1"
            parts.append(f"{c}*{label}")
        return "Form<" + " + ".join(parts) + f", n={self.space.dim}>"


# -- operations ---------------------------------------------------------


def wedge(alpha: Form, beta: Form) -> Form:
    """Exterior product.

    Bilinear, associative and graded-commutative.  If the degrees add up past
    the space dimension the zero form of top degree is returned rather than
    raising: identities freely wedge past top degree and expect the result
    to vanish.
    """
    if alpha.space != beta.space:
        raise SpaceMismatchError(f"{alpha.space} vs {beta.space}")
    n = alpha.space.dim
    p, q = alpha.degree, beta.degree
    if p + q > n:
        return Form(alpha.space, n, {})
    out: dict = {}
    for m1, c1 in alpha.coeffs.items():
        for m2, c2 in beta.coeffs.items():
            if m1 & m2:
                continue
            val = c1 * c2 * merge_sign(m1, m2)
            key = m1 | m2
            out[key] = out.get(key, 0) + val
    return Form(alpha.space, p + q, out)


def contract_index(i: int, alpha: Form) -> Form:
    """Interior product e_i -| alpha for a single 1-based basis index."""
    return adjoint_wedge(Form(alpha.space, 1, {1 << (i - 1): alpha.space.one}), alpha)


def contract(x: Form, alpha: Form) -> Form:
    """Interior product (x -| alpha)(v1, ..., v_{p-1}) = alpha(x, v1, ...).

    A vector is given by its 1-form x: the frame is orthonormal, so the two
    have the same components and this is ``adjoint_wedge(x, alpha)``.
    """
    if x.degree != 1:
        raise DegreeMismatchError(f"contract needs a 1-form, got degree {x.degree}")
    return adjoint_wedge(x, alpha)


def inner(alpha: Form, beta: Form):
    """Inner product; the increasing-multi-index basis forms are orthonormal."""
    if alpha.space != beta.space:
        raise SpaceMismatchError(f"{alpha.space} vs {beta.space}")
    if alpha.degree != beta.degree:
        raise DegreeMismatchError(f"degree {alpha.degree} vs {beta.degree}")
    total = alpha.space.zero
    a, b = alpha.coeffs, beta.coeffs
    if len(a) > len(b):
        a, b = b, a
    for m, c in a.items():
        if m in b:
            total += c * b[m]
    return total


def hodge_star(alpha: Form) -> Form:
    """Hodge star with the convention alpha ^ star(beta) = <alpha, beta> vol."""
    n = alpha.space.dim
    full = (1 << n) - 1
    out: dict = {}
    for m, c in alpha.coeffs.items():
        comp = full ^ m
        out[comp] = c * merge_sign(m, comp)
    return Form(alpha.space, n - alpha.degree, out)


def adjoint_wedge(phi: Form, psi: Form) -> Form:
    """Metric adjoint of wedging by phi:  <adjoint_wedge(phi, psi), chi> = <psi, phi ^ chi>.

    The interior product behind ``contract``, ``contract_index`` and Lstar:
    for a 1-form phi this is phi -| psi, and for
    phi = e^{i1} ^ ... ^ e^{ik} it is
    e_ik -| ... -| e_i1 -| psi (the first index contracts innermost).
    """
    if phi.space != psi.space:
        raise SpaceMismatchError(f"{phi.space} vs {psi.space}")
    if psi.degree < phi.degree:
        raise DegreeUnderflowError(f"degree {psi.degree} < {phi.degree}")
    out: dict = {}
    for mp, cp in phi.coeffs.items():
        for ms, cs in psi.coeffs.items():
            if mp & ms == mp:
                rest = ms ^ mp
                val = cp * cs * merge_sign(mp, rest)
                out[rest] = out.get(rest, 0) + val
    return Form(phi.space, psi.degree - phi.degree, out)
