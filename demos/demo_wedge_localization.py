"""One-particle modular localization for the standard wedge, discretized.

In rapidity variables the wedge boost is a translation, so its generator on a
periodic grid is the spectral derivative; the modular operator exp(-2 pi K)
is then explicit.  Componentwise conjugation flips K exactly, and the fixed
points of S = J Delta^{1/2} form the standard real subspace whose symplectic
complement is its conjugate image: wedge duality at the one-particle level.
"""

import numpy as np

from vnlab.locwedge import (WedgeModel, boost_matrix, duality_check,
                            flow_invariance_residual, standardness_check,
                            subspace_distance, symplectic_complement,
                            wedge_report)

print("== boost geometry ==")
s = 0.8
print(f" Lambda({s}) =\n{np.round(boost_matrix(s), 4)}")
pt = boost_matrix(s) @ np.array([0.0, 1.0])
print(f" orbit of (0, 1): t={pt[0]:.4f}, x={pt[1]:.4f}  (|t| < x: stays in the wedge)")

print("\n== discretized wedge model ==")
for theta_max in (4.0, 6.0, 8.0):
    model = WedgeModel(64, theta_max)
    rep = wedge_report(model)
    print(f" theta_max={theta_max}: retained {rep['retained_dim']}/{model.n} modes, "
          f"S^2 defect {rep['s_squared_defect']:.1e}, "
          f"duality {rep['duality_residual']:.1e}, "
          f"boost invariance {rep['flow_invariance_residual']:.1e}")

model = WedgeModel(64, 6.0)
k = model.standard_subspace
dim_inter, dim_sum, std = standardness_check(k)
print(f"\n standard subspace: real dim {k.real_dim}, K ∩ iK = {dim_inter}, "
      f"K + iK = {dim_sum} (ambient 2x{k.ambient_dim}), standard: {std}")

kp = symplectic_complement(k)
print(f" symplectic complement dim {kp.real_dim}; distance to J K: "
      f"{duality_check(model):.2e}")
print(f" invariance of K under the boost flow: "
      f"{flow_invariance_residual(model):.2e}")
