"""The modular experiments on random standard pairs read no basis stack:
same reports as the loop over the instances in order, the same reports
with the stack unbuildable, and peak memory measured with tracemalloc, to
which numpy reports its buffers.  The same measure holds the approximants,
field_operator and cyclicity_rank to the peaks they state against the byte
budget: for field_operator, six dense operators; for cyclicity_rank, its
span with one copy, the images of its last block with their SVD, and the
ladder kernel's gather and index maps, never a dense field.

S(k) = 16 k^6 bytes is the size of one basis stack of M_k (x) 1 on
C^k (x) C^k, which a `TensorFactor` builds only when a generic reader asks
for it.  ``modular.tomita`` reads the orbit {b_i Omega} and the adjoint
orbit {b_i* Omega} off Omega, each a k^2 x k^2 matrix that the instance
keeps (0.02 S together at k = 10).  The J A J stage of ``modular.check``
runs over eighths of the basis, each element taken from the split, and
adds about S / 5 (one block of images, reduced in place by the partial
trace).  At k = 10 tracemalloc read 0.33 S for kms-random, 0.44 S for
modular-flow (its 20 flow samples hold 0.2 S), and 0.04 S(12) for
modular-spectrum at max_k = 12.
"""

import tracemalloc

import numpy as np
import pytest

from vnlab import factors, fock, modular, vnalg
from vnlab.experiments import (REGISTRY, Assertion, _conditioned_weights,
                               _faithful_vector, run)
from vnlab.locwedge import real_subspace_from_vectors
from vnlab.numkit import complex_normal, dagger, haar_unitary
from vnlab.vnalg import tensor_factor_algebra


def stack_bytes(k: int) -> int:
    return 16 * k ** 6


def in_order_algebras(p):
    """The instance sizes k = 2, 3, ..., max_k, 2, ... and every distinct
    k's M_k (x) 1, all held for the whole run."""
    sizes = list(range(2, p["max_k"] + 1))
    ks = [sizes[i % len(sizes)] for i in range(p["instances"])]
    return ks, {k: tensor_factor_algebra(k, k) for k in set(ks)}


def kms_random_in_order(p, seed):
    """Reference form of kms-random: each instance draws and runs in turn."""
    rng = np.random.default_rng(seed)
    ks, algebras = in_order_algebras(p)
    worst = dict.fromkeys(("s_reconstruction", "jdj_inverse", "delta_omega",
                           "kms", "jaj_commutant", "flow_membership"), 0.0)
    for k in ks:
        md = modular.tomita(algebras[k], _faithful_vector(rng, k))
        flows = []
        for _ in range(4):
            t = float(rng.uniform(-2, 2))
            x = algebras[k].random_element(rng)
            flows.append((t, 0.0, x / np.linalg.norm(x)))
        found = modular.check(md, flows)
        for key in worst:
            worst[key] = max(worst[key], found[key])
    assertions = [
        Assertion("s_reconstruction", worst["s_reconstruction"], 1e-10),
        Assertion("jdj_inverse", worst["jdj_inverse"], 1e-9),
        Assertion("delta_omega", worst["delta_omega"], 1e-10),
        Assertion("kms_defect_max", worst["kms"], 1e-9),
        Assertion("jaj_commutant_residual", worst["jaj_commutant"], 1e-9),
        Assertion("flow_membership_residual", worst["flow_membership"], 1e-8),
    ]
    return worst, assertions, None


def modular_spectrum_in_order(p, seed):
    """Reference form of modular-spectrum: each instance draws and runs in
    turn."""
    rng = np.random.default_rng(seed)
    ks, algebras = in_order_algebras(p)
    worst = 0.0
    for k in ks:
        weights = _conditioned_weights(rng, k, floor=0.25)
        u = haar_unitary(rng, k)
        rho = (u * weights) @ dagger(u)
        md = modular.tomita(algebras[k], modular.purify(rho, k))
        ratios = np.sort((weights[:, None] / weights[None, :]).flatten())
        err = np.max(np.abs(md.delta_spectrum - ratios) / ratios)
        worst = max(worst, float(err))
    metrics = {"max_ratio_error": worst, "instances": p["instances"]}
    return metrics, [Assertion("spectrum_ratio_law", worst, 1e-9)], None


def peak_above_entry(fn):
    """fn()'s result and the peak and kept traced bytes above the level at
    entry; only what fn allocates is traced."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, kept - base


@pytest.mark.parametrize("name,reference,max_k", [
    ("kms-random", kms_random_in_order, 4),
    ("kms-random", kms_random_in_order, 8),
    ("modular-spectrum", modular_spectrum_in_order, 4),
    ("modular-spectrum", modular_spectrum_in_order, 12)])
def test_same_reports_as_instance_order(monkeypatch, name, reference, max_k):
    for seed in range(3):
        found = run(name, {"max_k": max_k}, seed=seed).to_dict()
        with monkeypatch.context() as patch:
            patch.setattr(REGISTRY[name], "fn", reference)
            expected = run(name, {"max_k": max_k}, seed=seed).to_dict()
        found.pop("wall_time_s")
        expected.pop("wall_time_s")
        assert found == expected


def test_kms_random_does_no_dense_work(monkeypatch):
    # J A J reads N's column blocks and membership in M_k (x) 1 and in its
    # commutant is a partial trace: every OperatorAlgebra.conjugates call
    # takes the split of M_k (x) 1, and no member_residual projects onto a
    # basis
    calls = {"conjugates": 0, "member_residual": 0, "dense": 0}
    conjugates = vnalg.OperatorAlgebra.conjugates
    residual = vnalg.OperatorAlgebra.member_residual

    def conjugates_spy(self, n, idx):
        calls["conjugates"] += 1
        calls["dense"] += self.split is None or self.split[2] != 0
        return conjugates(self, n, idx)

    def residual_spy(self, x):
        calls["member_residual"] += 1
        calls["dense"] += getattr(self, "split", None) is None
        return residual(self, x)

    monkeypatch.setattr(vnalg.OperatorAlgebra, "conjugates", conjugates_spy)
    monkeypatch.setattr(vnalg.OperatorAlgebra, "member_residual", residual_spy)
    report = run("kms-random", {})
    assert report.passed
    # per instance, min(8, k^2) J A J blocks and four flow samples, with
    # 17 instances at k = 2, 17 at 3 and 16 at 4
    assert calls == {"conjugates": 17 * 4 + 33 * 8,
                     "member_residual": 17 * 4 + 33 * 8 + 50 * 4, "dense": 0}


@pytest.mark.parametrize("name,params,bound", [
    # with the algebra and its hint stored as basis stacks these read
    # 2.33 S, 2.04 S and 2.44 S; the instance-order loop read 6.1 S and
    # 5.55 S, the whole-basis J A J stage 4.14 S and 4.25 S
    ("kms-random", {"max_k": 10, "instances": 9}, 0.5),
    ("modular-spectrum", {"max_k": 12, "instances": 11}, 0.1),
    ("modular-flow", {"k": 10}, 0.5)])
def test_run_peak_within_stacks(name, params, bound):
    report, peak, _ = peak_above_entry(lambda: run(name, params, seed=0))
    assert report.passed
    assert peak < bound * stack_bytes(params.get("max_k", params.get("k")))


def test_modular_runs_read_no_basis_stack(monkeypatch):
    # every stage of an instance on M_k (x) 1 reads the split: the orbits,
    # elements, J A J and membership, so an unbuildable stack changes no
    # report
    points = [(name, params)
              for name in ("kms-random", "modular-spectrum", "modular-flow")
              for params in ({}, REGISTRY[name].scale)]
    expected = [run(name, params).to_dict() for name, params in points]

    def unbuildable(self):
        raise AssertionError("a basis stack was read")

    monkeypatch.setattr(vnalg.TensorFactor, "basis", property(unbuildable))
    with pytest.raises(AssertionError, match="stack was read"):
        tensor_factor_algebra(2, 2).basis
    for (name, params), ref in zip(points, expected):
        report = run(name, params)
        assert report.passed
        found = report.to_dict()
        found.pop("wall_time_s")
        ref.pop("wall_time_s")
        assert found == ref


def test_approximant_peak_within_stated_bytes():
    def build():
        approx = factors.araki_woods_approximant(0.5, 0.3, 5)
        factors.signature(approx)
        return approx

    approx, peak, _ = peak_above_entry(build)
    assert peak < approx.peak_bytes


def test_cyclicity_peak_within_stated_bytes():
    # the reeh-schlieder-rank scale point's K = R^5, and R^4 at (4, 10),
    # where the last block's images and their SVD set the peak; lines,
    # where the index maps and the kernel's gather are most of it; and
    # K = C^3, the highest read of 2 d fields.  All at the top degree, with
    # the index maps built inside the measured call.
    for d, n_max, fields in [(5, 6, 5), (4, 10, 4), (3, 22, 1), (52, 2, 1),
                             (3, 6, 6)]:
        f = fock.FockSpace(d, n_max)
        k = real_subspace_from_vectors(
            np.concatenate([np.eye(d), 1j * np.eye(d)])[:fields])
        _, peak, _ = peak_above_entry(
            lambda: fock.cyclicity_rank(f, k, n_max))
        assert peak < fock.cyclicity_bytes(fields, d, n_max)


def test_field_operator_peak_within_stated_bytes():
    # the largest read, at (4, 10); the one-mode-per-state edge (300, 1),
    # near half the statement; and spaces between.  weyl_operator runs
    # its eigensolve after the field, under the same statement.
    rng = np.random.default_rng(3)
    for d, n_max, fn in [(4, 10, fock.field_operator),
                         (300, 1, fock.field_operator),
                         (6, 6, fock.field_operator),
                         (2, 40, fock.field_operator),
                         (2, 40, fock.weyl_operator)]:
        f = fock.FockSpace(d, n_max)
        psi = complex_normal(rng, (d,))
        _, peak, _ = peak_above_entry(lambda: fn(f, psi))
        stated = fock.field_bytes(f.total_dim)
        assert 0.45 * stated < peak < stated


def test_factor_algebra_peak_is_what_it_keeps():
    # the split (d, m, side) is all it keeps; stored with its hint as
    # basis stacks it kept 2 S, and scaling the whole stack after the
    # broadcast read 3 S.  Reading the basis builds one stack.
    alg, _, kept = peak_above_entry(lambda: tensor_factor_algebra(10, 10))
    assert kept < 1024
    basis, peak, _ = peak_above_entry(lambda: alg.basis)
    assert basis.nbytes == stack_bytes(10)
    assert peak <= 1.05 * stack_bytes(10)
    assert alg.size == 100


@pytest.fixture(scope="module")
def factor_pair():
    k = 10
    return tensor_factor_algebra(k, k), _faithful_vector(
        np.random.default_rng(0), k)


# a conjugate copy of the basis is one whole stack
def test_tomita_copies_no_stack(factor_pair):
    alg, omega = factor_pair
    md, peak, _ = peak_above_entry(lambda: modular.tomita(alg, omega))
    assert peak < 0.1 * stack_bytes(10)
    assert md.solve_residual <= 1e-9


# the whole conjugated basis and its projection read 2.01 S
def test_check_copies_under_half_a_stack(factor_pair):
    md = modular.tomita(*factor_pair)
    found, peak, _ = peak_above_entry(lambda: modular.check(md))
    assert peak < 0.5 * stack_bytes(10)
    assert found["jaj_commutant"] <= 1e-9


def test_kms_copies_no_stack(factor_pair):
    md = modular.tomita(*factor_pair)
    kms, peak, _ = peak_above_entry(lambda: modular._kms(md))
    assert peak < 0.1 * stack_bytes(10)
    assert kms <= 1e-9
