#!/usr/bin/env python3
# Torsion tensors of almost-Hermitian type and the exact vanishing argument.
#
# A torsion tensor assigns a skew map to each direction, subject to a cyclic
# identity and two J-compatibility rules.  Pairing against J-invariant skew
# maps through the cyclic bullet operation pins the whole space down: from
# dimension 6 on the only solution is zero, by exact rational rank.

from hodgelab import ComplexStructure, Space, torsion_bullet, van_kernel_dimension
from hodgelab.tensor_maps import admissible_torsion_basis, bracket_bases

for k in (2, 3):
    J = ComplexStructure.standard(Space(2 * k))
    basis = admissible_torsion_basis(J)
    print(f"2k = {2 * k}: admissible torsion dimension = {len(basis)}")

# the bullet of the identity reproduces the cyclic identity, hence vanishes
J6 = ComplexStructure.standard(Space(6))
eta = admissible_torsion_basis(J6)[0]
ident = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
flat = [v for plane in torsion_bullet(ident, eta) for row in plane for v in row]
print("identity bullet vanishes on admissible torsion:", all(v == 0 for v in flat))

# the constrained kernel: zero from dimension 6 on, reported in dimension 4
for k in (2, 3, 4):
    print(f"2k = {2 * k}: constrained torsion kernel dimension =",
          van_kernel_dimension(ComplexStructure.standard(Space(2 * k))))

# commutators of the J-anticommuting skews span the J-invariant skews (k >= 3)
for k in (2, 3, 4):
    squares, commutators = bracket_bases(ComplexStructure.standard(Space(2 * k)))
    print(f"k = {k}: bracket span dimension = {len(commutators)}"
          f" (invariant skews: {k * k})")
