"""Local preparation and disentanglement as Kraus channels.

A single Kraus family, depending only on the target vector, turns every input
into the product of that vector state and the untouched outer marginal.  The
isometry form of the same operation needs a projector equivalent to the
identity, which no matrix algebra admits: the rank obstruction is checked,
and the channel form is what remains.  Entangled states are generic: Haar
vectors on C^2 (x) C^2 are entangled with probability one.
"""

import numpy as np

from vnlab.channels import (SplitData, bell_state, disentangle,
                            genericity_scan, is_entangled,
                            isometry_impossibility_check, kraus_apply,
                            local_prepare_channel, partial_trace, werner_state)
from vnlab.lattice import local_difference

rng = np.random.default_rng(0)
split = SplitData(2, 2)
xi = np.array([1.0, 1.0]) / np.sqrt(2)
chan = local_prepare_channel(split, xi)
print(f"preparation channel: {len(chan.kraus)} Kraus operators, "
      f"trace-preserving: {chan.is_trace_preserving()}")

bell = np.outer(bell_state(), bell_state().conj())
out = kraus_apply(bell, chan)
target = np.outer(xi, xi.conj())
print(" on a maximally entangled input:")
print(f"   inner marginal -> target: "
      f"{local_difference(partial_trace(out, (2, 2), 0), target):.2e}")
print(f"   outer marginal untouched: "
      f"{local_difference(partial_trace(out, (2, 2), 1), np.eye(2) / 2):.2e}")

print("\ndisentanglement with an ancilla margin:")
lam = 0.7
big = SplitData(4, 2, inner_split=(2, 2))
psi = np.zeros((2, 2, 2), dtype=complex)
psi[0, 0, 0], psi[1, 0, 1] = 1.0, np.sqrt(lam)
psi = (psi / np.linalg.norm(psi)).reshape(-1)
res = disentangle(big, np.outer(psi, psi.conj()))
print(f"   via Kraus family: {res.channel is not None}")
print(f"   inner marginal preserved: "
      f"{local_difference(big.inner_marginal(res.state), big.inner_marginal(np.outer(psi, psi.conj()))):.2e}")

print("\nentanglement detection (partial transpose, exact for 2x2):")
_, bell_eig = is_entangled(bell, (2, 2))
_, werner_eig = is_entangled(werner_state(0.5), (2, 2))
print(f"   Bell state min PT eigenvalue:    {bell_eig:+.6f}  (exact -1/2)")
print(f"   Werner p=0.5 min PT eigenvalue:  {werner_eig:+.6f}  (exact -1/8)")

scan = genericity_scan(2000, seed=1, kind="pure")
print(f"\nHaar-random pure states entangled: {scan['entangled']}/{scan['samples']}")

print("\nisometry obstruction (why the channel form):")
e = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
rep = isometry_impossibility_check(e)
print(f"   {rep['reason']}")
