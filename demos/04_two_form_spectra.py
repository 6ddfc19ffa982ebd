#!/usr/bin/env python3
# Two-forms as skew maps: the cubic stability expansion, eigenvalue clusters
# of the square, trace-moment recovery, and compatibility sums.

import numpy as np

from hodgelab import (
    SkewEndo,
    Space,
    adjoint_wedge,
    compatible_patch_dim6,
    form_endo,
    moment_recover,
    spectral,
    stab_expand,
    symplectic_candidate,
    wedge,
)
from hodgelab.harmonic import power_traces

# exact: the wedge-adjoint of a product of 2-forms expands through matrices
s6 = Space(6)
a1 = s6.form(2, {(1, 3): 1, (2, 5): 2})
a2 = s6.form(2, {(1, 2): 1})
a3 = s6.form(2, {(3, 4): 1, (5, 6): -1})
print("expansion == direct adjoint:",
      stab_expand(a1, a2, a3) == adjoint_wedge(a1, wedge(a2, a3)))

# float: spectral clusters of A^2 with per-cluster complex structures
space = Space(6, "float")
blocks = np.zeros((6, 6))
for i, speed in zip((0, 2), (2.0, 3.0)):
    blocks[i, i + 1] = -speed
    blocks[i + 1, i] = speed
rng = np.random.default_rng(0)
q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
conjugated = q @ blocks @ q.T
a = SkewEndo(space, (0.5 * (conjugated - conjugated.T)).tolist())

decomp = spectral(a)
print("clusters (mu, multiplicity):",
      [(round(c.mu, 6), c.multiplicity) for c in decomp.clusters])
print("reconstruction residual:",
      np.max(np.abs(decomp.reconstruct()
                    - np.array([[float(v) for v in r] for r in a.rows]))))

# the same eigenvalue data out of the power traces alone
negs = decomp.negative_clusters
print("moment recovery:", moment_recover(power_traces(a, 2 * len(negs)), len(negs)))

# degenerate input: the unit-coefficient sum plus the kernel area form
alpha = space.form(2, {(1, 2): 1.0, (3, 4): 1.0})
cand = symplectic_candidate(spectral(SkewEndo(space, form_endo(alpha))))
print("rank-4 input compatible?", cand.compatible, "kernel rank:", cand.kernel_rank)
patched = compatible_patch_dim6(alpha)
c = np.array(form_endo(patched))
print("patched form squares to -1:", np.max(np.abs(c @ c + np.eye(6))) < 1e-12)
