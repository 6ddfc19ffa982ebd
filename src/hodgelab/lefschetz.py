"""Lefschetz-type operators and the contraction family P_k.

L is wedging with the fundamental 2-form omega = g(J., .); its metric
adjoint Lstar = adjoint_wedge(omega, .) is a table compiled once per (J,
degree) from the integer numerators den omega, divided once.  The contraction
formula Lstar(beta) = 1/2 sum_i J e_i -| (e_i -| beta) is the oracle it is
tested against, so the 1/2 cannot drift.  P_k contracts k slots of one
form against J-rotated slots of the other, summed over all ordered k-tuples
of basis indices.  Tuples with a repeated index contribute nothing, so it is
(-1)^k k! sum_{|I|=k} adjoint_wedge(e^I, alpha) ^ adjoint_wedge(J e^I, beta)
over increasing I; the sign comes from (J e_i)^flat = -J e^i for the
orthogonal J with J^2 = -1.  P_k and alpha_Omega are each one pass over the
input terms into one coefficient dict (a sparse accumulator, Gustavson,
ACM TOMS 4(3), 1978); no intermediate form is built.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

from .errors import ContractionUnderflowError, NotInLambdaPError, SpaceMismatchError
from .exterior import Form, basis_masks, mask_to_indices, merge_sign, wedge
from .harmonic import endo_form
from .hermitian import (
    ComplexStructure,
    _apply_compiled,
    _compiled,
    _lambda_image,
    _pullback_image,
    per_structure,
)
from .linalg import add_scaled, exact_nullspace, integer_rows


@per_structure
def kahler_form(j_struct: ComplexStructure) -> Form:
    """omega(X, Y) = <J X, Y>, the 2-form of the skew matrix J; for the
    standard structure this is sum_i e^{2i-1} ^ e^{2i}.  Built once per
    structure and cached."""
    return endo_form(j_struct.space, j_struct.rows)


def _lstar_image(j_struct: ComplexStructure, mask: int) -> dict:
    """den Lstar e^M = adjoint_wedge(den omega, e^M): each pair i < j in M
    leaves num_rows[j][i] e^(M - {i, j}), signed by ``merge_sign``."""
    image = {}
    for j in mask_to_indices(mask):
        for i, v in j_struct.num_rows[j - 1].items():
            pair = 1 << i | 1 << (j - 1)
            if i < j - 1 and mask & pair == pair:
                image[mask ^ pair] = v * merge_sign(pair, mask ^ pair)
    return image


def lefschetz_lstar(j_struct: ComplexStructure, alpha: Form) -> Form:
    """Lstar, the adjoint of L = wedge(omega, .); zero on degrees below 2."""
    if alpha.space != j_struct.space:
        raise SpaceMismatchError(f"{alpha.space} vs {j_struct.space}")
    if alpha.degree < 2:
        return alpha.space.zero_form(0)
    return alpha.space.from_numerators(
        alpha.degree - 2, *_apply_compiled(j_struct, _lstar_image, alpha))


def is_primitive(j_struct: ComplexStructure, alpha: Form) -> bool:
    """A form is primitive when the adjoint Lefschetz operator kills it."""
    tol = alpha.space.tol
    return lefschetz_lstar(j_struct, alpha).norm_sq() <= tol * tol * max(alpha.norm_sq(), 1)


def p_k(j_struct: ComplexStructure, alpha: Form, beta: Form, k: int) -> Form:
    """The k-fold contraction pairing of degree r + s - 2k.

    P_k(alpha, beta) = (-1)^k k! sum over increasing I of
    adjoint_wedge(e^I, alpha) ^ adjoint_wedge(J e^I, beta), with J e^I the
    pullback j_pullback(J, e^I); both factors contract in the same order,
    and the sign is that of (J e_i)^flat = -J e^i.  P_0 is the plain wedge;
    for primitive p-forms P_p(alpha, beta) is the scalar p! <alpha, J beta>.
    Like P_0, a P_k whose degree would exceed the dimension is the zero form
    of top degree.

    For k >= 1 it is one pass over the terms c e^M of alpha: each k-subset
    I of M gives the left factor c merge_sign(I, M - I) e^(M - I), whose
    wedge with adjoint_wedge(J e^I, beta) (taken once per I from row I of the
    compiled pullback table, on its numerators over ``den``) is added into
    one dict; each nonzero entry is scaled by (-1)^k k! and divided by ``den``.
    """
    if alpha.space != beta.space or alpha.space != j_struct.space:
        raise SpaceMismatchError("operands live on different spaces")
    r, s = alpha.degree, beta.degree
    if k < 0 or k > min(r, s):
        raise ContractionUnderflowError(f"cannot contract {k} slots out of ({r}, {s})")
    space = alpha.space
    if k == 0:
        return wedge(alpha, beta)
    if r + s - 2 * k > space.dim:
        return space.zero_form(space.dim)
    table, den = _compiled(j_struct, _pullback_image, k)
    rights, out = {}, {}
    for ma, ca in alpha.coeffs.items():
        for subset in combinations([1 << (i - 1) for i in mask_to_indices(ma)], k):
            mask = sum(subset)
            left = ma ^ mask
            cl = ca * merge_sign(mask, left)
            right = rights.get(mask)
            if right is None:
                right = rights[mask] = {}
                for mt, ct in table[mask].items():
                    for mb, cb in beta.coeffs.items():
                        if mb & mt == mt:
                            rest = mb ^ mt
                            right[rest] = right.get(rest, 0) + ct * cb * merge_sign(mt, rest)
            for mr, cr in right.items():
                if not left & mr:
                    key = left | mr
                    out[key] = out.get(key, 0) + cl * cr * merge_sign(left, mr)
    scale = (-1) ** k * factorial(k)
    return space.from_numerators(r + s - 2 * k, {m: scale * v for m, v in out.items() if v}, den)


def alpha_from_holomorphic(j_struct: ComplexStructure, omega_form: Form) -> Form:
    """The J-invariant 2-form (X, Y) -> <J X -| Omega, Y -| Omega>.

    Requires Omega of type (p,0)+(0,p); the result lands in the (1,1)
    component and satisfies
    P_{p-1}(Omega, J Omega) = 2 (-1)^p (p-1)! alpha_Omega.

    One pass over the terms c e^M of Omega gives each e_i -| Omega (c e^(M - i),
    signed by the indices of M below i); J e_i -| Omega is sum_l J[l][i]
    (e_l -| Omega), and the pairings are taken on these coefficient dicts.
    """
    space = omega_form.space
    if omega_form.is_zero():
        return space.zero_form(2)
    if omega_form.degree < 1:
        raise NotInLambdaPError("need a form of degree >= 1")
    _lambda_image(j_struct, omega_form)  # raises NotInLambdaPError for a non-member
    contractions: list[dict] = [{} for _ in range(space.dim)]
    for m, c in omega_form.coeffs.items():
        for i in mask_to_indices(m):
            bit = 1 << (i - 1)
            contractions[i - 1][m ^ bit] = -c if (m & (bit - 1)).bit_count() & 1 else c
    j_contractions: list[dict] = [{} for _ in range(space.dim)]
    for row, contraction in zip(j_struct.sparse_rows, contractions):
        for i, v in row.items():
            add_scaled(j_contractions[i], v, contraction)
    coeffs = {
        (1 << i) | (1 << j): sum(v * ji[m] for m, v in contractions[j].items() if m in ji)
        for i, ji in enumerate(j_contractions)
        for j in range(i + 1, space.dim)
    }
    return Form(space, 2, coeffs)


@per_structure
def primitive_basis(j_struct: ComplexStructure, degree: int):
    """Exact basis of the primitive forms of a given degree (cached).

    Assembled as the nullspace of the adjoint Lefschetz operator on the
    increasing-multi-index basis, from the integer rows of den Lstar.
    """
    space = j_struct.space
    masks = basis_masks(space.dim, degree)
    if degree < 2:
        return [Form(space, degree, {m: 1}) for m in masks]
    pos = {m: i for i, m in enumerate(basis_masks(space.dim, degree - 2))}
    units = (Form(space, degree, {m: 1}) for m in masks)
    images = (_apply_compiled(j_struct, _lstar_image, unit)[0] for unit in units)
    rows, _ = integer_rows(
        ((pos[im], col, c) for col, image in enumerate(images) for im, c in image.items()), len(pos)
    )
    return [
        Form(space, degree, {masks[c]: v for c, v in vec.items()})
        for vec in exact_nullspace(rows, len(masks))
    ]

