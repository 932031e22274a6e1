"""vnlab: a finite-dimensional laboratory for the operator-algebraic
structures of relativistic quantum physics.

Modular theory (Tomita operator, modular flow, KMS), type-III factor
approximants, modular localization of a one-particle wedge, truncated Fock
quantization, free-field vacuum correlations on a chain, and local
preparation/disentanglement channels - all as verifiable dense linear algebra.
"""

from . import (channels, experiments, factors, fock, lattice, locwedge,
               modular, numkit, vnalg)
from .experiments import list_experiments, run
from .numkit import AntilinearMap, antilinear_polar
from .vnalg import OperatorAlgebra, commutant, vn_closure

__all__ = [
    "AntilinearMap", "OperatorAlgebra", "antilinear_polar", "channels",
    "commutant", "experiments", "factors", "fock", "lattice",
    "list_experiments", "locwedge", "modular", "numkit", "run", "vnalg",
    "vn_closure",
]
