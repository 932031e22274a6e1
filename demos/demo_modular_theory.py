"""Walk through the modular machinery on a finite standard pair.

A matrix algebra M_2 (x) 1 acting on C^2 (x) C^2 together with a purification
of a faithful state is the smallest setting where the whole Tomita apparatus
is visible: the star operation on the orbit of the vector closes into an
antilinear S, its polar parts generate the state-preserving flow, and the
conjugation maps the algebra onto its commutant.
"""

import numpy as np

from vnlab.modular import check, modular_flow, purify, tomita
from vnlab.vnalg import TensorFactor

lam = 0.5
rho = np.diag([1.0, lam]) / (1.0 + lam)
weights = tuple(float(x) for x in np.round(np.diag(rho).real, 4))
print(f"state on the 2x2 factor: diag{weights}")

omega = purify(rho, 2)
alg = TensorFactor(2, 2, 0)
md = tomita(alg, omega)

print("\nmodular spectrum (eigenvalue ratios of the state):")
print("  ", np.round(md.delta_spectrum, 6))

print("\nmodular flow rotates off-diagonal matrix units:")
e21 = np.kron(np.array([[0, 0], [1, 0]], dtype=complex), np.eye(2))
t = 1.0
flowed = modular_flow(md, e21, t)
phase = flowed[2, 0]
print(f"   phase acquired by |e2><e1| (x) 1 at t=1: {phase:.6f}")
print(f"   lam^(it) at t=1:                        {lam ** 1j:.6f}")

# KMS and J A J = A' run over the whole basis; the flow samples (t, s, x)
# test sigma_t sigma_s = sigma_{t+s} and that sigma_{t+s}(x) stays in A
print("\ndefining identities, defect norms:")
flows = [(1.0, -0.4, e21), (0.3, 0.9, alg.basis[1])]
for name, val in check(md, flows).items():
    print(f"   {name:<16} {val:.2e}")
print(f"   {'solve_residual':<16} {md.solve_residual:.2e}")
print(f"   commutant dimension: {md.algebra_commutant.size}")
