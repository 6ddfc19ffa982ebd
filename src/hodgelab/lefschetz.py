"""Lefschetz-type operators and the contraction family P_k.

L is wedging with the fundamental 2-form omega = g(J., .); its metric
adjoint Lstar is computed as adjoint_wedge(omega, .).  The contraction
formula Lstar(beta) = 1/2 sum_i J e_i -| (e_i -| beta) is the oracle it is
tested against, so the 1/2 cannot drift.  P_k contracts k slots of one
form against J-rotated slots of the other, summed over all ordered k-tuples
of basis indices.  Tuples with a repeated index contribute nothing, so it is
computed as (-1)^k k! sum_{|I|=k} adjoint_wedge(e^I, alpha) ^
adjoint_wedge(J e^I, beta) over increasing I; the sign comes from
(J e_i)^flat = -J e^i for the orthogonal J with J^2 = -1.
"""

from __future__ import annotations

from math import factorial

from .errors import ContractionUnderflowError, NotInLambdaPError, SpaceMismatchError
from .exterior import Form, adjoint_wedge, basis_masks, contract, contract_index, inner, wedge
from .harmonic import endo_form
from .hermitian import ComplexStructure, basis_pullback, in_lambda_p, per_structure
from .linalg import exact_nullspace


@per_structure
def kahler_form(j_struct: ComplexStructure) -> Form:
    """omega(X, Y) = <J X, Y>, the 2-form of the skew matrix J; for the
    standard structure this is sum_i e^{2i-1} ^ e^{2i}.  Built once per
    structure and cached."""
    return endo_form(j_struct)


def lefschetz_l(omega: Form, alpha: Form) -> Form:
    """Exterior multiplication with the fundamental form."""
    return wedge(omega, alpha)


def lefschetz_lstar(j_struct: ComplexStructure, alpha: Form) -> Form:
    """Adjoint of lefschetz_l; returns zero on degrees below 2."""
    if alpha.space != j_struct.space:
        raise SpaceMismatchError(f"{alpha.space} vs {j_struct.space}")
    if alpha.degree < 2:
        return alpha.space.zero_form(0)
    return adjoint_wedge(kahler_form(j_struct), alpha)


def is_primitive(j_struct: ComplexStructure, alpha: Form) -> bool:
    """A form is primitive when the adjoint Lefschetz operator kills it."""
    tol = alpha.space.tol
    return lefschetz_lstar(j_struct, alpha).norm_sq() <= tol * tol * max(alpha.norm_sq(), 1)


def p_k(j_struct: ComplexStructure, alpha: Form, beta: Form, k: int) -> Form:
    """The k-fold contraction pairing of degree r + s - 2k.

    P_k(alpha, beta) = (-1)^k k! sum over increasing I of
    adjoint_wedge(e^I, alpha) ^ adjoint_wedge(J e^I, beta), with J e^I the
    pullback j_pullback(J, e^I), read by ``basis_pullback``; both factors
    contract in the same order, and the sign is that of
    (J e_i)^flat = -J e^i.  P_0 is the plain wedge; for primitive p-forms
    P_p(alpha, beta) is the scalar p! <alpha, J beta>.
    Like P_0, a P_k whose degree would exceed the dimension is the zero form
    of top degree.
    """
    if alpha.space != beta.space or alpha.space != j_struct.space:
        raise SpaceMismatchError("operands live on different spaces")
    r, s = alpha.degree, beta.degree
    if k < 0 or k > min(r, s):
        raise ContractionUnderflowError(f"cannot contract {k} slots out of ({r}, {s})")
    space = alpha.space
    if k == 0:
        return wedge(alpha, beta)
    out = space.zero_form(min(r + s - 2 * k, space.dim))
    for mask in basis_masks(space.dim, k):
        e_mask = Form(space, k, {mask: space.one})
        left = adjoint_wedge(e_mask, alpha)
        if not left.is_zero():
            out = out + wedge(left, adjoint_wedge(basis_pullback(j_struct, mask), beta))
    return ((-1) ** k * factorial(k)) * out


def alpha_from_holomorphic(j_struct: ComplexStructure, omega_form: Form) -> Form:
    """The J-invariant 2-form (X, Y) -> <J X -| Omega, Y -| Omega>.

    Requires Omega of type (p,0)+(0,p); the result lands in the (1,1)
    component and satisfies
    P_{p-1}(Omega, J Omega) = 2 (-1)^p (p-1)! alpha_Omega.
    """
    space = omega_form.space
    if omega_form.is_zero():
        return space.zero_form(2)
    if omega_form.degree < 1:
        raise NotInLambdaPError("need a form of degree >= 1")
    if not in_lambda_p(j_struct, omega_form):
        raise NotInLambdaPError("form is not of type (p,0)+(0,p)")
    contractions = [contract_index(i, omega_form) for i in range(1, space.dim + 1)]
    j_contractions = [
        contract(j_struct.basis_image(i), omega_form) for i in range(1, space.dim + 1)
    ]
    coeffs = {}
    for i in range(1, space.dim + 1):
        for j in range(i + 1, space.dim + 1):
            val = inner(j_contractions[i - 1], contractions[j - 1])
            if val != 0:
                coeffs[(1 << (i - 1)) | (1 << (j - 1))] = val
    return Form(space, 2, coeffs)


@per_structure
def primitive_basis(j_struct: ComplexStructure, degree: int):
    """Exact basis of the primitive forms of a given degree (cached).

    Assembled as the nullspace of the adjoint Lefschetz operator on the
    increasing-multi-index basis.
    """
    space = j_struct.space
    masks = basis_masks(space.dim, degree)
    if degree < 2:
        return [Form(space, degree, {m: 1}) for m in masks]
    target_masks = basis_masks(space.dim, degree - 2)
    pos = {m: i for i, m in enumerate(target_masks)}
    rows = [{} for _ in target_masks]
    for col, m in enumerate(masks):
        image = lefschetz_lstar(j_struct, Form(space, degree, {m: 1}))
        for im, c in image.coeffs.items():
            rows[pos[im]][col] = c
    return [
        Form(space, degree, {masks[c]: v for c, v in vec.items()})
        for vec in exact_nullspace(rows, len(masks))
    ]

