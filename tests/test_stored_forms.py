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
from vnlab.lattice import ChainSpec, GaussianState, RegionFockRep
from vnlab.locwedge import RealSubspace, WedgeModel, real_subspace_from_vectors
from vnlab.vnalg import OperatorAlgebra, TensorFactor, matrix_units, vn_closure


def parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_constructors_take_only_the_defining_data():
    assert {cls.__name__: parameters(cls) for cls in (
        RealSubspace, OperatorAlgebra, TensorFactor, FockSpace, WedgeModel,
        Approximant, GaussianState, RegionFockRep)} \
        == {"RealSubspace": ["rows"],
            "OperatorAlgebra": ["basis", "generators"],
            "TensorFactor": ["d", "m", "side"],
            "FockSpace": ["one_particle_dim", "n_max"],
            "WedgeModel": ["n", "theta_max", "cond_cap"],
            "Approximant": ["site_weights", "n_factors"],
            "GaussianState": ["spec"],
            "RegionFockRep": ["spec", "region"]}
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
    (RegionFockRep(ChainSpec(4, 1.0), (0,)), "region", np.arange(2)),
    (OperatorAlgebra(matrix_units(2)), "basis", matrix_units(2)),
    (vn_closure([np.diag([1.0, 2.0])], 2), "generators", None),
    (TensorFactor(2, 2, 0), "split", (2, 2, 1)),
    (TensorFactor(2, 2, 0), "basis", matrix_units(4)),
    (TensorFactor(2, 2, 0), "commutant_hint", None),
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
    (lambda: RegionFockRep(ChainSpec(6, 1.0), ()),
     "region must be a proper nonempty subset"),
    (lambda: RegionFockRep(ChainSpec(6, 1.0), range(-3, 9)),
     "region repeats a site (mod n)"),
    (lambda: RegionFockRep(ChainSpec(6, 1.0), range(6)),
     "region must be a proper nonempty subset"),
])
def test_constructor_refuses_invalid_data(build, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        build()


def test_region_is_reduced_sorted_and_kept_once():
    rep = RegionFockRep(ChainSpec(6, 1.0), [9, -5])
    assert rep.region.tolist() == [1, 3]
    assert rep.complement.tolist() == [0, 2, 4, 5]
    assert (rep.fock_region, rep.fock_complement) \
        == (FockSpace(2, 2), FockSpace(4, 2))
    # the factors are derived, so no split can disagree with the region
    with pytest.raises(TypeError):
        RegionFockRep(ChainSpec(6, 1.0), [0, 1], [1, 2, 3, 4],
                      FockSpace(2, 2), FockSpace(4, 2))
    # a site listed twice (mod n) is refused, not kept once
    with pytest.raises(ValueError, match=re.escape(
            "region repeats a site (mod n)")):
        RegionFockRep(ChainSpec(6, 1.0), [7, -5, 3, 1])


@pytest.mark.parametrize("build", [
    lambda: RealSubspace(np.eye(2)),
    lambda: Approximant(W, 2),
    lambda: RegionFockRep(ChainSpec(6, 1.0), (0, 1)),
])
def test_models_holding_arrays_compare_by_identity(build):
    # a field-wise == would ask an array for its truth value, and a
    # field-wise hash would hash an array
    a, b = build(), build()
    assert a == a and a != b
    assert len({a, b}) == 2


@pytest.mark.parametrize("stored", [
    lambda: FockSpace(2, 3).occupations,
    lambda: FockSpace(2, 3).raise_index,
    lambda: FockSpace(2, 3).raise_value,
    lambda: RealSubspace(np.eye(2)).rows,
    lambda: Approximant(W, 2).site_weights,
    lambda: WedgeModel(16, 3.0).k_values,
    lambda: WedgeModel(16, 3.0).retained,
    lambda: GaussianState(ChainSpec(8, 1.0)).weights_phi,
    lambda: GaussianState(ChainSpec(8, 1.0)).weights_pi,
    lambda: GaussianState(ChainSpec(8, 1.0)).row_phi,
    lambda: GaussianState(ChainSpec(8, 1.0)).row_pi,
    lambda: RegionFockRep(ChainSpec(4, 1.0), (0,)).region,
    lambda: RegionFockRep(ChainSpec(4, 1.0), (0,)).complement,
    lambda: OperatorAlgebra(matrix_units(2)).basis,
    lambda: vn_closure([np.diag([1.0, 2.0])], 2).generators,
    lambda: TensorFactor(2, 2, 0).basis,
])
def test_stored_arrays_are_read_only(stored):
    array = stored()
    with pytest.raises(ValueError, match="read-only"):
        array.flat[0] = 7


def test_handed_in_arrays_are_kept_as_views():
    # a copy of a basis stack would add to the peak of every algebra
    rows, basis = np.eye(2), matrix_units(2)
    kept = [RealSubspace(rows).rows, OperatorAlgebra(basis).basis]
    for given, view in zip((rows, basis), kept):
        assert np.shares_memory(view, given) and given.flags.writeable


def test_member_residual_refuses_a_read_only_stack():
    # the projections are subtracted in place: a stored basis is not
    # overwritten, and a copy of it is projected as before
    alg = OperatorAlgebra(matrix_units(2))
    with pytest.raises(ValueError, match="read-only"):
        alg.member_residual(alg.basis)
    assert alg.member_residual(alg.basis.copy()) <= 1e-15
