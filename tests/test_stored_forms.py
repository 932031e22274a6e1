"""Each model keeps only the data that fixes it.

Sizes and maps that this data determines are properties, so no constructor
can be handed a value that disagrees with the data.  Pinning the parameters
keeps a derived field from coming back.
"""

import inspect

from vnlab.factors import Approximant
from vnlab.fock import FockSpace
from vnlab.locwedge import RealSubspace, WedgeModel, real_subspace_from_vectors
from vnlab.vnalg import OperatorAlgebra


def parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_constructors_take_only_the_defining_data():
    assert {cls.__name__: parameters(cls) for cls in (
        RealSubspace, OperatorAlgebra, FockSpace, WedgeModel, Approximant)} \
        == {"RealSubspace": ["rows"],
            "OperatorAlgebra": ["basis", "generators"],
            "FockSpace": ["occupations"],
            "WedgeModel": ["theta_max", "k_values", "retained"],
            "Approximant": ["site_weights", "n_factors"]}
    assert parameters(real_subspace_from_vectors) == ["vecs"]
