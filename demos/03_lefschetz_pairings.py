#!/usr/bin/env python3
# Wedging with the fundamental form, its adjoint, and the contraction
# pairings P_k, including the recursion that links them.

from hodgelab import (
    ComplexStructure,
    Space,
    adjoint_wedge,
    is_primitive,
    kahler_form,
    lefschetz_lstar,
    p_k,
    primitive_basis,
    wedge,
)

space = Space(6)
J = ComplexStructure.standard(space)
omega = kahler_form(J)
# the adjoint of L is the wedge adjoint of omega
# the adjoint is realized by contractions and pinned against adjoint_wedge
phi = space.form(4, {(1, 2, 3, 4): 3, (1, 3, 5, 6): -2})
print("Lstar(phi)            =", lefschetz_lstar(J, phi))
print("adjoint_wedge(omega,.) =", adjoint_wedge(omega, phi))

# primitive means killed by the adjoint
print("omega primitive?", is_primitive(J, omega))
print("e^13 primitive? ", is_primitive(J, space.basis_form(1, 3)))

# P_0 is the wedge; P_p evaluates an inner product on primitive p-forms
a = primitive_basis(J, 2)[0]
b = primitive_basis(J, 2)[3]
print("P_0(a, b) == a ^ b:", p_k(J, a, b, 0) == wedge(a, b))
val = p_k(J, a, b, 2)
print("P_2(a, b) =", val.scalar_value(), " (p! <a, Jb>)")

# the recursion: Lstar P_k = P_k(Lstar ., .) + P_k(., Lstar .) +/- P_{k+1}
alpha = space.form(2, {(1, 2): 1, (1, 3): 2})
beta = space.form(2, {(3, 4): 1, (2, 5): -1})
lhs = lefschetz_lstar(J, p_k(J, alpha, beta, 0))
rhs = (
    p_k(J, lefschetz_lstar(J, alpha), beta, 0)
    + p_k(J, alpha, lefschetz_lstar(J, beta), 0)
    - p_k(J, alpha, beta, 1)          # (-1)^{r-k-1} with r = 2, k = 0
)
print("recursion holds exactly:", lhs == rhs)
