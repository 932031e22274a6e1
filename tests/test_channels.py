"""Kraus channels, local preparation, disentanglement, PT detection."""

import numpy as np
import pytest

from vnlab.channels import (Channel, SplitData, bell_state, disentangle,
                            genericity_scan, is_entangled,
                            isometry_impossibility_check, kraus_apply,
                            local_prepare_channel, partial_trace,
                            partial_transpose, werner_state)
from vnlab.lattice import local_difference
from vnlab.numkit import dagger, haar_pure_state, norm2, random_density, rank

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def rand_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def einsum_kraus_apply(rho, channel):
    """sum_i K_i rho K_i* as one three-operand einsum: the reference form."""
    return np.einsum("kij,jl,kml->im", channel.kraus, rho,
                     channel.kraus.conj())


class TestKraus:
    @pytest.mark.parametrize("count,dim", [(1, 3), (4, 8), (8, 16)])
    def test_matches_einsum_reference(self, count, dim):
        rng = np.random.default_rng(dim)
        chan = Channel(rng.standard_normal((count, dim, dim))
                       + 1j * rng.standard_normal((count, dim, dim)))
        rho = rand_density(rng, dim)
        ref = einsum_kraus_apply(rho, chan)
        assert norm2(kraus_apply(rho, chan) - ref) <= 1e-12 * norm2(ref)

    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        rho = rand_density(rng, 3)
        chan = Channel(np.eye(3)[None, :, :])
        assert norm2(kraus_apply(rho, chan) - rho) < 1e-14
        assert chan.is_trace_preserving()

    def test_depolarizing_sends_everything_to_maximally_mixed(self):
        kraus = 0.5 * np.stack([np.eye(2, dtype=complex), SX, SY, SZ])
        chan = Channel(kraus)
        assert chan.is_trace_preserving()
        rng = np.random.default_rng(1)
        for _ in range(5):
            rho = rand_density(rng, 2)
            assert norm2(kraus_apply(rho, chan) - np.eye(2) / 2) < 1e-12

    def test_non_trace_preserving_flagged(self):
        chan = Channel(np.stack([0.5 * np.eye(2, dtype=complex)]))
        assert not chan.is_trace_preserving()
        assert chan.trace_defect() > 0.5

    def test_positivity_preserved(self):
        rng = np.random.default_rng(2)
        ops = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        chan = Channel(ops)
        for _ in range(10):
            rho = rand_density(rng, 4)
            out = kraus_apply(rho, chan)
            assert np.linalg.eigvalsh(out).min() >= -1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            kraus_apply(np.eye(3) / 3, Channel(np.eye(2)[None]))


class TestLocalPrepare:
    def test_product_input(self):
        rng = np.random.default_rng(3)
        split = SplitData(2, 3)
        sigma, tau = rand_density(rng, 2), rand_density(rng, 3)
        xi = haar_pure_state(rng, 2)
        chan = local_prepare_channel(split, xi)
        out = kraus_apply(np.kron(sigma, tau), chan)
        assert norm2(out - np.kron(np.outer(xi, xi.conj()), tau)) < 1e-12

    def test_bell_input_leaves_maximally_mixed_marginal(self):
        split = SplitData(2, 2)
        bell = np.outer(bell_state(), bell_state().conj())
        chan = local_prepare_channel(split, np.eye(2)[0])
        out = kraus_apply(bell, chan)
        expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert norm2(out - expected) < 1e-12

    def test_channel_depends_only_on_target(self):
        rng = np.random.default_rng(4)
        split = SplitData(2, 2)
        xi = haar_pure_state(rng, 2)
        k1 = local_prepare_channel(split, xi).kraus
        k2 = local_prepare_channel(split, xi).kraus
        assert np.array_equal(k1, k2)

    def test_commutant_marginal_untouched_50_random(self):
        rng = np.random.default_rng(5)
        split = SplitData(2, 2)
        xi = haar_pure_state(rng, 2)
        worst = 0.0
        for _ in range(50):
            rho = rand_density(rng, 4)
            out = kraus_apply(rho, local_prepare_channel(split, xi))
            worst = max(worst, local_difference(
                partial_trace(out, (2, 2), 1), partial_trace(rho, (2, 2), 1)))
        assert worst <= 1e-12

    def test_target_must_be_unit(self):
        for xi in ([1.0, 1.0], [np.nan, 0.0]):
            with pytest.raises(ValueError, match="unit vector"):
                local_prepare_channel(SplitData(2, 2), np.array(xi))

    def test_trace_preserving(self):
        rng = np.random.default_rng(6)
        chan = local_prepare_channel(SplitData(3, 2), haar_pure_state(rng, 3))
        assert chan.is_trace_preserving()


class TestSplitData:
    def test_inner_split_must_factor(self):
        with pytest.raises(ValueError):
            SplitData(4, 2, inner_split=(3, 2))

    def test_marginals(self):
        rng = np.random.default_rng(7)
        split = SplitData(4, 2, inner_split=(2, 2))
        rho = rand_density(rng, 8)
        inner = split.inner_marginal(rho)
        assert inner.shape == (2, 2)
        assert abs(np.trace(inner) - 1.0) < 1e-12

    def test_embedded_algebras_commute(self):
        # observed algebra B(C^2) (x) 1 (x) 1 vs outer 1 (x) 1 (x) B(C^2)
        rng = np.random.default_rng(8)
        a = np.kron(np.kron(rng.standard_normal((2, 2)), np.eye(2)), np.eye(2))
        b = np.kron(np.kron(np.eye(2), np.eye(2)), rng.standard_normal((2, 2)))
        assert norm2(a @ b - b @ a) < 1e-12


class TestDisentangle:
    def test_product_state_passes_through(self):
        rng = np.random.default_rng(9)
        split = SplitData(2, 2)
        sigma = np.kron(rand_density(rng, 2), rand_density(rng, 2))
        res = disentangle(split, sigma)
        assert local_difference(res.state, sigma) < 1e-12

    def test_bell_without_margin_gives_product_of_marginals(self):
        split = SplitData(2, 2)
        bell = np.outer(bell_state(), bell_state().conj())
        res = disentangle(split, bell)
        assert res.channel is None
        assert norm2(res.state - np.eye(4) / 4) < 1e-12
        flag, _ = is_entangled(res.state, (2, 2))
        assert not flag

    def test_margin_case_preserves_both_marginals(self):
        # vacuum-like pair between the observed qubit and the outer side
        lam = 0.6
        split = SplitData(4, 2, inner_split=(2, 2))
        psi = np.zeros((2, 2, 2), dtype=complex)
        psi[0, 0, 0] = 1.0
        psi[1, 0, 1] = np.sqrt(lam)
        psi = (psi / np.linalg.norm(psi)).reshape(-1)
        omega = np.outer(psi, psi.conj())
        res = disentangle(split, omega)
        assert res.channel is not None
        assert local_difference(split.inner_marginal(res.state),
                                split.inner_marginal(omega)) < 1e-10
        assert local_difference(split.outer_marginal(res.state),
                                split.outer_marginal(omega)) < 1e-10
        product = np.kron(partial_trace(res.state, (4, 2), 0),
                          split.outer_marginal(res.state))
        assert local_difference(res.state, product) < 1e-10

    def test_margin_too_small_for_rank(self):
        rng = np.random.default_rng(10)
        split = SplitData(4, 2, inner_split=(4, 1))
        rho = np.kron(rand_density(rng, 4), rand_density(rng, 2))
        res = disentangle(split, rho)
        assert res.channel is None  # mixed rank-4 marginal, no ancilla room

    def test_pure_marginal_uses_kraus_without_margin(self):
        rng = np.random.default_rng(11)
        split = SplitData(2, 2)
        v = haar_pure_state(rng, 2)
        rho = np.kron(np.outer(v, v.conj()), rand_density(rng, 2))
        res = disentangle(split, rho)
        assert res.channel is not None
        assert local_difference(res.state, rho) < 1e-12


class TestEntanglementDetection:
    def test_bell_pt_eigenvalue(self):
        bell = np.outer(bell_state(), bell_state().conj())
        flag, min_eig = is_entangled(bell, (2, 2))
        assert flag
        assert abs(min_eig + 0.5) < 1e-10

    def test_product_states_separable(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho = np.kron(rand_density(rng, 2), rand_density(rng, 2))
            flag, min_eig = is_entangled(rho, (2, 2))
            assert not flag and min_eig >= -1e-10

    def test_werner_family_closed_form(self):
        for p in (0.2, 0.5, 0.9):
            _, min_eig = is_entangled(werner_state(p), (2, 2))
            assert abs(min_eig - (1 - 3 * p) / 4) < 1e-10
        flag, min_eig = is_entangled(werner_state(0.5), (2, 2))
        assert flag and abs(min_eig + 0.125) < 1e-10

    def test_2x3_supported(self):
        rng = np.random.default_rng(12)
        rho = np.kron(rand_density(rng, 2), rand_density(rng, 3))
        flag, _ = is_entangled(rho, (2, 3))
        assert not flag

    def test_refuses_beyond_exactness(self):
        with pytest.raises(ValueError):
            is_entangled(np.eye(8) / 8, (2, 4))

    def test_partial_transpose_spectra_agree(self):
        # the first factor's transpose, index by index, is the reference
        rng = np.random.default_rng(13)
        rho = rand_density(rng, 6)
        first = rho.reshape(2, 3, 2, 3).transpose(2, 1, 0, 3).reshape(6, 6)
        w1 = np.linalg.eigvalsh(partial_transpose(rho, (2, 3)))
        w2 = np.linalg.eigvalsh(first)
        assert np.allclose(np.sort(w1), np.sort(w2))


class TestStackedEntanglementTest:
    def _stack(self, rng, dims):
        d = dims[0] * dims[1]
        mixed = random_density(rng, d, 30)
        products = [np.kron(rand_density(rng, dims[0]), rand_density(rng, dims[1]))
                    for _ in range(10)]
        return np.concatenate([mixed, products])

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_matches_per_matrix_verdicts(self, dims):
        stack = self._stack(np.random.default_rng(21), dims)
        flags, mins = is_entangled(stack, dims)
        ref = [is_entangled(rho, dims) for rho in stack]
        assert flags.shape == mins.shape == (len(stack),)
        assert flags.tolist() == [f for f, _ in ref]
        assert np.max(np.abs(mins - [m for _, m in ref])) <= 1e-15
        assert flags.any() and not flags.all()

    def test_single_state_keeps_scalar_result(self):
        flag, min_eig = is_entangled(werner_state(0.5), (2, 2))
        assert type(flag) is bool and type(min_eig) is float

    def test_stack_guard(self):
        with pytest.raises(ValueError):
            is_entangled(np.stack([np.eye(8) / 8] * 3), (2, 4))

    def test_partial_transpose_of_a_stack(self):
        stack = random_density(np.random.default_rng(22), 6, 5)
        pt = partial_transpose(stack, (2, 3))
        assert np.array_equal(pt, [partial_transpose(r, (2, 3))
                                   for r in stack])


def _genericity_scan_loop(samples, seed, kind):
    """Reference form: one draw and one test per sample."""
    rng = np.random.default_rng(seed)

    def haar(dim):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    if kind == "mixed":
        return sum(int(is_entangled(rand_density(rng, 4), (2, 2))[0])
                   for _ in range(samples))
    if kind == "pure":
        psi = [haar(4) for _ in range(samples)]
    else:
        psi = [np.kron(haar(2), haar(2)) for _ in range(samples)]
    return int(np.count_nonzero(rank(np.reshape(psi, (samples, 2, 2))) > 1))


class TestStackedScans:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("kind", ["pure", "product", "mixed"])
    def test_scan_counts_match_loop(self, kind, seed):
        scan = genericity_scan(400, seed=seed, kind=kind)
        assert scan["entangled"] == _genericity_scan_loop(400, seed, kind)


class TestGenericity:
    def test_pure_states_entangled(self):
        scan = genericity_scan(500, seed=1, kind="pure")
        assert scan["fraction"] == 1.0

    def test_product_control(self):
        scan = genericity_scan(200, seed=2, kind="product")
        assert scan["fraction"] == 0.0

    def test_mixed_fraction_strictly_between(self):
        scan = genericity_scan(500, seed=3, kind="mixed")
        assert 0.0 < scan["fraction"] < 1.0

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            genericity_scan(50, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="bogus"):
            genericity_scan(100, seed=0, kind="bogus")


class TestIsometryObstruction:
    def test_proper_projector_certified_impossible(self):
        rng = np.random.default_rng(14)
        for seed in range(20):
            rank = int(rng.integers(1, 4))
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q, _ = np.linalg.qr(g)
            e = q[:, :rank] @ dagger(q[:, :rank])
            rep = isometry_impossibility_check(e, seed=seed)
            assert not rep["possible"]
            assert rep["sampled_ranks_equal"]
            assert str(rank) in rep["reason"] or "rank" in rep["reason"]

    def test_identity_projector_admits_unitary(self):
        rep = isometry_impossibility_check(np.eye(3))
        assert rep["possible"]

    def test_rejects_non_projector(self):
        # n is read from E's shape, so a non-square E has none
        for e, says in ((np.eye(2) * 0.75, "projector"),
                        (np.eye(3)[:, :2], "square"),
                        # refused before the SVD, which would not converge
                        (np.full((2, 2), np.nan), "projector E must be finite"),
                        (np.diag([1.0, np.inf]), "projector E must be finite")):
            with pytest.raises(ValueError, match=says):
                isometry_impossibility_check(e)
