"""Vacuum correlations of a massive scalar on a periodic chain.

The connected two-point function decays exponentially at the lattice rate
2 asinh(m/2) once the separation exceeds the Compton length, every region is
entangled with its complement (with symmetric entropies, the state being
globally pure), and a one-particle overlap between disjoint packets is
nonzero at every positive time, however far apart they sit.
"""

import numpy as np

from vnlab.lattice import (ChainSpec, GaussianState, RegionFockRep,
                           causality_probe_scan, cluster_function,
                           decay_rate_fit, expected_decay_rate,
                           local_difference, reduced_entropy)

spec = ChainSpec(400, 1.0)
state = GaussianState(spec)

print("== cluster decay ==")
for r in (0, 5, 10, 20, 40):
    print(f"   F({r:2d}) = {cluster_function(state, r):+.3e}")
fit = decay_rate_fit(state, (10, 28))
print(f" fitted rate {fit.rate:.5f} vs lattice value "
      f"{expected_decay_rate(1.0):.5f} ({100 * fit.rel_deviation:.1f}% off); "
      f"exponential profile: {fit.is_exponential}")

print("\n== entanglement entropy (64 sites) ==")
small = GaussianState(ChainSpec(64, 1.0))
for width in (1, 2, 4, 8, 16, 32):
    region = np.arange(width)
    comp = np.arange(width, 64)
    s1 = reduced_entropy(small, region)
    s2 = reduced_entropy(small, comp)
    print(f"   block of {width:2d}: S = {s1:.6f} nats "
          f"(complement {s2:.6f}, pure-state symmetry)")

print("\n== operations outside a region are invisible inside ==")
rep = RegionFockRep(ChainSpec(6, 1.0), region=(0, 1))
g = rep.vacuum_vector
psi_c = np.array([0.9, 0.0, 0.4j, 0.0])
moved = rep.apply_outside(g, rep.outside_weyl(psi_c))
d = local_difference(rep.reduced_region(g), rep.reduced_region(moved))
print(f"   trace-norm change of the region state: {d:.2e}")

print("\n== causality probe: disjoint packets, one-particle evolution ==")
probe_spec = ChainSpec(256, 1.0)
supp_in = np.arange(116, 124)
for gap in (4, 16):
    supp_out = np.arange(124 + gap, 132 + gap)
    ts = np.array([0.0, 0.25, 0.5, 1.0])
    amps = np.abs(causality_probe_scan(probe_spec, supp_in, supp_out, ts))
    vals = "  ".join(f"|A({t})|={a:.2e}" for t, a in zip(ts, amps))
    print(f"   gap {gap:2d}: {vals}")
print("   zero at t = 0, nonzero at every t > 0: the analyticity mechanism")
