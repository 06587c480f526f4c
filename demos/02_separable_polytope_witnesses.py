"""Two faces of the same polytope: vertices and witnesses.

Symmetric four-qubit states live on 4x4 r-matrices.  The separable ones form
a polytope with 60 vertices (the permutation orbits of the dephasing seed D0
and the block seed G0); equivalently, a state is separable iff all five
witness families evaluate nonnegatively on it.  This script certifies states
both ways and cross-checks the answers.
"""

import numpy as np

from slocc import (CANONICAL_WITNESSES, ConvexDecomposition, D0, G0,
                   ViolatedWitness, assemble, is_separable, seesaw_min_product,
                   verify_extension_certificate_W2, vertex_set, witness_orbit,
                   witness_value)

print(f"polytope vertices: {len(vertex_set())}")
families = {}
for w in witness_orbit():
    families[w.family] = families.get(w.family, 0) + 1
print(f"witness orbit sizes: {families}")

print("\ncertifying sample states:")
samples = {
    "D0 (dephasing seed)": np.asarray(D0),
    "G0 (block seed)": np.asarray(G0),
    "uniform 1/16": np.full((4, 4), 1 / 16),
}
bell = np.zeros((4, 4))
bell[3, 0] = 1.0
samples["unit mass at (4,1)"] = bell

for name, r in samples.items():
    cert = is_separable(r)
    if isinstance(cert, ConvexDecomposition):
        support = int((cert.weights > 1e-12).sum())
        print(f"  {name}: SEPARABLE, {support} vertices in the decomposition")
    else:
        assert isinstance(cert, ViolatedWitness)
        print(f"  {name}: ENTANGLED, {cert.witness.family} value "
              f"{cert.value:+.3f}")

# each canonical witness is tight: its minimum over the vertices is zero
print("\nfacet tightness (min over the 60 vertices):")
for name, W in CANONICAL_WITNESSES.items():
    vals = [witness_value(W, v) for v in vertex_set()]
    print(f"  {name}: min {min(vals):+.2e}, saturated by "
          f"{sum(1 for v in vals if v <= 1e-12)} vertices")

# see-saw: the assembled witnesses really are nonnegative on product states
print("\nsee-saw product minima (upper bounds):")
for k, name in enumerate(("W1", "W2", "W3", "W4")):
    Z = assemble(CANONICAL_WITNESSES[name])
    val, _ = seesaw_min_product(Z, restarts=40, rng=k)
    print(f"  {name}: {val:+.2e}")

res = verify_extension_certificate_W2()
print(f"\nW2 extension certificate: residual {res.residual:.2e}")
