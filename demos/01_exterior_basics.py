#!/usr/bin/env python3
# Exact exterior algebra on an oriented inner-product space.
#
# Forms live on increasing multi-indices over an orthonormal basis; on the
# "exact" backend every coefficient is an integer or a Fraction and nothing
# is ever rounded.

from fractions import Fraction

from hodgelab import Space, adjoint_wedge, contract, hodge_star, inner, wedge

space = Space(4)                      # R^4, exact rationals
e = space.basis_form                  # e(1,3) is the basis 2-form e^1 ^ e^3

a = e(1) + e(2)
b = e(1) - e(2)
print("(e1 + e2) ^ (e1 - e2) =", wedge(a, b))          # -2 e^12

# contraction is evaluation in the first slot
omega = space.form(2, {(1, 2): 1, (3, 4): 1})
print("e_2 -| omega =", contract(e(2), omega))

# the star pairs a basis form with its signed complement
print("star(e^12) =", hodge_star(e(1, 2)))
print("star(star(e^1)) =", hodge_star(hodge_star(e(1))), "(sign (-1)^{p(n-p)})")

# adjoint of wedging: <adjoint_wedge(phi, psi), chi> = <psi, phi ^ chi>
psi = wedge(omega, omega)
print("omega ^ omega =", psi)
print("adjoint_wedge(omega, omega^2) =", adjoint_wedge(omega, psi))

# rational coefficients stay rational
c = space.form(1, {(1,): Fraction(2, 3), (4,): Fraction(-1, 7)})
print("norm^2 of a rational 1-form:", inner(c, c))
