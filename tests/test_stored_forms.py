"""Each model keeps only the data that fixes it, and its constructor is its
one entry.

Sizes and maps that this data determines are properties, so no constructor
can be handed a value that disagrees with the data.  Pinning the parameters
keeps a derived field from coming back.  The models are frozen and check
their data on construction, so none can be built invalid or changed after
it is built.
"""

import dataclasses
import inspect
import re

import numpy as np
import pytest

from vnlab.factors import Approximant
from vnlab.fock import FockSpace
from vnlab.lattice import ChainSpec, GaussianState, region_fock_rep
from vnlab.locwedge import RealSubspace, WedgeModel, real_subspace_from_vectors
from vnlab.vnalg import OperatorAlgebra, TensorFactor


def parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_constructors_take_only_the_defining_data():
    assert {cls.__name__: parameters(cls) for cls in (
        RealSubspace, OperatorAlgebra, TensorFactor, FockSpace, WedgeModel,
        Approximant, GaussianState)} \
        == {"RealSubspace": ["rows"],
            "OperatorAlgebra": ["basis", "generators"],
            "TensorFactor": ["d", "m", "side"],
            "FockSpace": ["one_particle_dim", "n_max"],
            "WedgeModel": ["n", "theta_max", "cond_cap"],
            "Approximant": ["site_weights", "n_factors"],
            "GaussianState": ["spec"]}
    assert parameters(real_subspace_from_vectors) == ["vecs"]


W = np.array([0.75, 0.25])


@pytest.mark.parametrize("model,field,value", [
    (RealSubspace(np.eye(2)), "rows", np.eye(4)),
    (FockSpace(2, 3), "n_max", 2),
    (FockSpace(2, 3), "one_particle_dim", 3),
    (FockSpace(2, 3), "occupations", np.zeros((6, 2), np.int32)),
    (Approximant(W, 2), "n_factors", 3),
    (Approximant(W, 2), "site_weights", W[::-1]),
    (WedgeModel(16, 3.0), "n", 32),
    (WedgeModel(16, 3.0), "theta_max", 1.0),
    (WedgeModel(16, 3.0), "cond_cap", 1e4),
    (GaussianState(ChainSpec(8, 1.0)), "spec", ChainSpec(8, 2.0)),
    (region_fock_rep(ChainSpec(4, 1.0), (0,)), "region", np.arange(2)),
])
def test_defining_fields_are_read_only(model, field, value):
    before = getattr(model, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(model, field, value)
    assert getattr(model, field) is before


@pytest.mark.parametrize("build,says", [
    (lambda: FockSpace(0, 3), "need d >= 1 and n_max >= 1"),
    (lambda: FockSpace(2, -1), "need d >= 1 and n_max >= 1"),
    (lambda: FockSpace(4095, 2), "over the byte budget"),
    (lambda: Approximant(W, 0), "need at least one tensor factor"),
    (lambda: Approximant(W, -1), "need at least one tensor factor"),
    (lambda: WedgeModel(7, 1.0), "need an even grid with n >= 8"),
    (lambda: WedgeModel(8, 0.0), "theta_max must be positive"),
    (lambda: WedgeModel(8, float("nan")), "theta_max must be positive"),
    (lambda: WedgeModel(16, 3.0, 0.5), "cond_cap must be >= 1"),
    (lambda: WedgeModel(16, 3.0, float("nan")), "cond_cap must be >= 1"),
    (lambda: Approximant(np.array([2.0, 3.0]), 1),
     "the site weights must sum to 1"),
    (lambda: Approximant(np.array([0.0, 1.0]), 1),
     "the site weights must be finite and positive"),
    (lambda: Approximant(np.array([-0.5, 1.5]), 1),
     "the site weights must be finite and positive"),
    (lambda: Approximant(np.array([np.nan, 1.0]), 1),
     "the site weights must be finite and positive"),
    (lambda: GaussianState(ChainSpec(8, 0.0)),
     "massless chain: the k = 0 mode of <phi phi> diverges"),
])
def test_constructor_refuses_invalid_data(build, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        build()
