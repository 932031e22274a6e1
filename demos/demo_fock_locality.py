"""Weyl quantization on a truncated Fock space: commutators and cyclicity.

Field operators built from the truncated ladders satisfy the canonical
commutation relations exactly below the cutoff, so locality is literally the
vanishing of the symplectic form between one-particle subspaces.  Polynomial
excitations of the vacuum over a standard subspace saturate the whole space,
the finite-rank analog of vacuum cyclicity for local algebras.
"""

import numpy as np

from vnlab.fock import (FockSpace, cyclicity_rank, locality_check,
                        sector_commutator, weyl_relation_defect)
from vnlab.locwedge import real_subspace_from_vectors, symplectic_complement
from vnlab.numkit import complex_normal

f = FockSpace(2, 3)
print(f"Fock space: 2 modes, cutoff 3, dimension {f.total_dim}")

rng = np.random.default_rng(0)
psi, phi = complex_normal(rng, (2,), 2)
comm = sector_commutator(f, psi, phi)
print(f"CCR defect on safe sectors: {comm.defect():.2e}")
even, odd = (len(p) for p in comm.parts)
print(f"the commutator splits by particle-number parity: parts {even} and "
      f"{odd} wide, against {f.sector_dim(f.n_max - 2)} safe states")

print("\ncommutator norm equals |Im<psi, phi>| (locality <-> symplectic form):")
for label, pair in [("orthogonal real pair", (np.eye(2)[0], np.eye(2)[1])),
                    ("canonical pair", (np.eye(2)[0], 1j * np.eye(2)[0])),
                    ("random pair", (psi, phi))]:
    got = sector_commutator(f, *pair).norm()
    expect = abs(np.vdot(pair[0], pair[1]).imag)
    print(f"   {label:<22} |[Phi,Phi]| = {got:.6f}, |Im| = {expect:.6f}")

k = real_subspace_from_vectors(np.eye(2))
kp = symplectic_complement(k)
print(f"\nfields over K vs its symplectic complement: "
      f"max commutator {locality_check(f, k, kp):.2e}")

print("\ncyclicity rank of vacuum excitations (degree -> rank):")
for degree, r in enumerate(cyclicity_rank(f, k, 3)):
    print(f"   degree {degree}: rank {r}"
          + ("  <- full space" if r == f.total_dim else ""))
line = real_subspace_from_vectors(np.eye(2)[:1])
print(f"single-mode control at max degree: rank "
      f"{cyclicity_rank(f, line, f.n_max)[-1]} (= cutoff + 1)")

f6 = FockSpace(2, 6)
psi6 = 0.5 * psi / np.linalg.norm(psi)
phi6 = 0.5 * phi / np.linalg.norm(phi)
print(f"\nWeyl relation defect on low sectors (cutoff 6, norms 0.5): "
      f"{weyl_relation_defect(f6, psi6, phi6):.2e}")
