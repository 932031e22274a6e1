"""Wedge geometry, discretized boost, standard subspaces, duality."""

import numpy as np
import pytest

from reference import s_operator
from vnlab import locwedge
from vnlab.locwedge import (AntilinearMap, WedgeModel, apply_real,
                            boost_matrix, duality_check,
                            flow_invariance_residual, multiply_i,
                            real_subspace_from_vectors, standard_subspace,
                            standardness_check, subspace_distance,
                            symplectic_complement, wedge_report)
from vnlab.numkit import dagger, norm2


# ---------------------------------------------------------- reference forms
# The dense n x n operators of a wedge model, from the generator's modes.

def _fourier_columns(grid: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Normalized plane waves exp(i f x) on the grid, one column per f."""
    return np.exp(1j * np.outer(grid, freqs)) / np.sqrt(grid.size)


def modes(model):
    """Columns = eigenvectors of the generator, one plane wave per Fourier
    frequency of the periodic rapidity grid."""
    h = 2.0 * model.theta_max / model.n
    grid = -model.theta_max + h * np.arange(model.n)
    return _fourier_columns(grid, 2.0 * np.pi * np.fft.fftfreq(model.n, d=h))


def isometry(model):
    """The n x n_r isometry onto the retained modes, ordered by k."""
    return modes(model)[:, model.retained]


def k_op(model):
    m = modes(model)
    k = (m * model.k_values) @ m.conj().T
    return 0.5 * (k + k.conj().T)


def dense_delta(model):
    """Delta = exp(-2 pi K)."""
    m = modes(model)
    return (m * np.exp(-2.0 * np.pi * model.k_values)) @ m.conj().T


def flow_full(model, t):
    """Delta^{it} on the full space."""
    m = modes(model)
    return (m * np.exp(-2j * np.pi * t * model.k_values)) @ m.conj().T


def conjugation(n):
    """J on the full space: componentwise complex conjugation."""
    return AntilinearMap(np.eye(n))


class TestBoost:
    def test_identity_at_zero(self):
        assert np.allclose(boost_matrix(0.0), np.eye(2))

    def test_group_law_and_determinant(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = rng.uniform(-2, 2, size=2)
            assert norm2(boost_matrix(a) @ boost_matrix(b)
                         - boost_matrix(a + b)) <= 1e-12
            assert abs(np.linalg.det(boost_matrix(a)) - 1.0) < 1e-12

    def test_orbit_stays_in_wedge(self):
        for s in (-3.0, -0.5, 0.7, 2.5):
            t, x = boost_matrix(s) @ np.array([0.0, 1.0])
            assert np.allclose([t, x], [np.sinh(s), np.cosh(s)])
            assert abs(t) < x


class TestWedgeModel:
    def test_generator_is_hermitian_and_symmetric_spectrum(self):
        model = WedgeModel(16, 3.0)
        k = k_op(model)
        assert norm2(k - dagger(k)) < 1e-12
        w = np.sort(np.linalg.eigvalsh(k))
        assert np.max(np.abs(w + w[::-1])) < 1e-9

    def test_jdj_equals_delta_inverse(self):
        # conjugation flips the generator sign; checked in relative terms
        # since the full spectrum spans many decades
        model = WedgeModel(16, 2.0)
        k = k_op(model)
        assert norm2(np.conj(k) + k) < 1e-12 * norm2(k)
        jdj = np.conj(dense_delta(model))
        dinv = (modes(model) * np.exp(2 * np.pi * model.k_values)) \
            @ dagger(modes(model))
        assert norm2(jdj - dinv) < 1e-12 * norm2(dinv)

    def test_flow_group_law(self):
        model = WedgeModel(32, 4.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            t, s = rng.uniform(-2, 2, size=2)
            u = flow_full(model, t) @ flow_full(model, s)
            assert norm2(u - flow_full(model, t + s)) <= 1e-9

    def test_flow_at_zero(self):
        model = WedgeModel(16, 3.0)
        assert norm2(flow_full(model, 0.0) - np.eye(16)) < 1e-12

    def test_retained_window(self):
        model = WedgeModel(64, 6.0, cond_cap=1e8)
        half = np.exp(-np.pi * model.k_retained)
        assert half.max() / half.min() <= 1e8 * (1 + 1e-9)
        assert model.retained_dim == 12

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            WedgeModel(7, 3.0)
        with pytest.raises(ValueError):
            WedgeModel(6, 3.0)
        with pytest.raises(ValueError):
            WedgeModel(16, -1.0)


class TestSOperator:
    def test_trivial_delta(self):
        s, v = s_operator(np.eye(3), conjugation(3))
        assert np.allclose(s.mat, np.eye(3))
        assert np.allclose(v, np.eye(3))
        k = standard_subspace(s)
        assert k.real_dim == 3
        assert np.max(np.abs(k.basis.imag)) < 1e-12

    def test_toy_model(self):
        d = 4.0
        delta = np.diag([d, 1 / d]).astype(complex)
        j = AntilinearMap(np.array([[0, 1], [1, 0]], dtype=complex))
        s, v = s_operator(delta, j)
        assert np.allclose(v, np.eye(2))
        z = np.array([1 + 2j, -0.5 + 1j])
        expected = np.array([np.conj(z[1]) / np.sqrt(d),
                             np.sqrt(d) * np.conj(z[0])])
        assert np.allclose(s(z), expected)
        assert norm2(s @ s - np.eye(2)) < 1e-12

    def test_refuses_unregularized_ill_conditioning(self):
        delta = np.diag([1e12, 1e-12]).astype(complex)
        j = AntilinearMap(np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(ValueError, match="spectral_cut"):
            s_operator(delta, j)
        s, v = s_operator(delta, j, spectral_cut=1e8)
        assert v.shape[1] == 0  # nothing survives a window this spectrum skips

    def test_wedge_s_squared_on_retained(self):
        model = WedgeModel(64, 6.0, cond_cap=1e8)
        n_r = model.retained_dim
        s = model.s_compressed
        assert norm2(s @ s - np.eye(n_r)) <= 1e-8


class TestStandardSubspace:
    def test_conjugation_fixed_space_is_rn(self):
        k = standard_subspace(conjugation(4))
        assert k.real_dim == 4
        dim_inter, dim_sum, std = standardness_check(k)
        assert (dim_inter, dim_sum, std) == (0, 8, True)

    def test_toy_model_fixed_space(self):
        d = 4.0
        delta = np.diag([d, 1 / d]).astype(complex)
        j = AntilinearMap(np.array([[0, 1], [1, 0]], dtype=complex))
        s, _ = s_operator(delta, j)
        k = standard_subspace(s)
        assert k.real_dim == 2
        # K = {(w, 2 conj(w))}
        for w in (1.0, 1j, 0.3 - 0.8j):
            vec = np.array([w, 2 * np.conj(w)])
            proj = k.rows
            from vnlab.numkit import embed_real
            x = embed_real(vec)
            assert np.linalg.norm(x - proj.T @ (proj @ x)) < 1e-10

    def test_wedge_k_dimension(self):
        model = WedgeModel(32, 4.0, cond_cap=1e8)
        k = model.standard_subspace
        assert k.real_dim == model.retained_dim
        # S phi = phi on every basis vector
        s = model.s_compressed
        for v in k.basis:
            assert np.linalg.norm(s(v) - v) <= 1e-9

    @pytest.mark.parametrize("rows", [np.zeros((2, 5)), np.zeros(4),
                                      np.zeros((1, 2, 2))])
    def test_rows_of_odd_width_or_wrong_rank_refused(self, rows):
        with pytest.raises(ValueError, match="2-D array of even width"):
            locwedge.RealSubspace(rows)

    def test_ambient_dim_is_the_vectors_width(self):
        assert real_subspace_from_vectors(np.eye(3)[:1]).ambient_dim == 3
        assert real_subspace_from_vectors(np.zeros((0, 5))).ambient_dim == 5

    def test_zero_space_not_standard(self):
        zero = real_subspace_from_vectors(np.zeros((0, 3)))
        assert standardness_check(zero) == (0, 0, False)

    def test_full_complex_space_not_standard(self):
        n = 3
        k = real_subspace_from_vectors(np.vstack([np.eye(n), 1j * np.eye(n)]))
        dim_inter, dim_sum, std = standardness_check(k)
        assert dim_inter == 2 * n and not std


class TestSymplecticComplement:
    def test_rn_is_self_complementary(self):
        k = real_subspace_from_vectors(np.eye(3))
        kp = symplectic_complement(k)
        assert subspace_distance(k, kp) < 1e-10

    def test_toy_complement_is_jk(self):
        d = 4.0
        delta = np.diag([d, 1 / d]).astype(complex)
        j = AntilinearMap(np.array([[0, 1], [1, 0]], dtype=complex))
        s, _ = s_operator(delta, j)
        k = standard_subspace(s)
        assert subspace_distance(symplectic_complement(k),
                                 apply_real(j, k)) < 1e-10

    def test_double_complement(self):
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        k = real_subspace_from_vectors(vecs)
        kpp = symplectic_complement(symplectic_complement(k))
        assert subspace_distance(k, kpp) <= 1e-9

    def test_zero_space_complement_is_everything(self):
        k = real_subspace_from_vectors(np.zeros((0, 2)))
        assert k.real_dim == 0 and k.basis.shape == (0, 2)
        kp = symplectic_complement(k)
        assert kp.real_dim == 4

    def test_whole_space_complement_is_zero(self):
        whole = np.vstack([np.eye(3), 1j * np.eye(3)])
        k = real_subspace_from_vectors(whole)
        assert k.real_dim == 6
        kp = symplectic_complement(k)
        assert kp.real_dim == 0 and kp.basis.shape == (0, 3)
        assert real_subspace_from_vectors(np.zeros((2, 3))).real_dim == 0

    def test_multiply_i_dimension(self):
        k = real_subspace_from_vectors(np.eye(2))
        assert multiply_i(k).real_dim == 2

    @pytest.mark.parametrize("image", [
        lambda k: apply_real(np.diag([1.0, 1j, -1.0]), k),
        lambda k: apply_real(AntilinearMap(np.eye(3)), k),
        multiply_i], ids=["linear", "antilinear", "multiply_i"])
    def test_zero_space_maps_to_zero_space(self, image):
        moved = image(real_subspace_from_vectors(np.zeros((0, 3))))
        assert moved.ambient_dim == 3
        assert moved.real_dim == 0 and moved.basis.shape == (0, 3)


class TestDualityAndFlow:
    def test_trivial_model_duality(self):
        s, _ = s_operator(np.eye(3), conjugation(3))
        k = standard_subspace(s)
        assert subspace_distance(symplectic_complement(k),
                                 apply_real(conjugation(3), k)) \
            < 1e-12

    def test_wedge_duality(self):
        model = WedgeModel(64, 6.0)
        assert duality_check(model) <= 1e-8

    def test_wedge_flow_invariance(self):
        model = WedgeModel(64, 6.0)
        assert flow_invariance_residual(model) <= 1e-8

    def test_report_fields(self):
        rep = wedge_report(WedgeModel(16, 3.0))
        assert rep["standardness"] is True
        assert rep["retained_dim"] == rep["k_real_dim"]
        assert set(rep) >= {"n", "theta_max", "retained_dim",
                            "duality_residual", "flow_invariance_residual"}

    def test_report_leaves_dense_operators_unbuilt(self):
        model = WedgeModel(64, 6.0)
        wedge_report(model)
        # the report caches the spectrum, the retained modes and the
        # compressed J, S and K, and nothing n x n
        assert set(model.__dict__) == {"n", "theta_max", "cond_cap",
                                       "k_values", "retained", "j_compressed",
                                       "s_compressed", "standard_subspace"}
        assert model.k_values.shape == (64,)
        assert model.retained.shape == (model.retained_dim,)
        assert model.standard_subspace.ambient_dim == model.retained_dim < 64

    def test_report_solves_k_once(self, monkeypatch):
        calls = []

        def counted(s):
            calls.append(s)
            return standard_subspace(s)

        monkeypatch.setattr(locwedge, "standard_subspace", counted)
        wedge_report(WedgeModel(64, 6.0))
        assert len(calls) == 1

    def test_isometry_is_retained_modes(self):
        # the retained modes, ordered by k, diagonalize the generator with
        # the eigenvalues k_retained
        model = WedgeModel(16, 3.0)
        v = isometry(model)
        assert norm2(k_op(model) @ v - v * model.k_retained) < 1e-12

    def test_truncation_comparison_across_theta(self):
        # boundary artifacts remain small for each window choice
        for theta in (4.0, 6.0, 8.0):
            rep = wedge_report(WedgeModel(64, theta))
            assert rep["duality_residual"] <= 1e-8
            assert rep["s_squared_defect"] <= 1e-8

    def test_generic_route_matches_wedge_route(self):
        # a small grid keeps the modular operator well-conditioned, so the
        # generic eigh-based S can face the generator-based one
        model = WedgeModel(8, 6.0)
        s_gen, v = s_operator(dense_delta(model), conjugation(8))
        assert np.allclose(v, np.eye(8))
        k_gen = standard_subspace(s_gen)
        k_model = model.standard_subspace
        embedded = real_subspace_from_vectors(
            (isometry(model) @ k_model.basis.T).T)
        assert subspace_distance(k_gen, embedded) < 1e-7

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    @pytest.mark.parametrize("theta", [3.0, 6.0, 10.0])
    @pytest.mark.parametrize("cond_cap", [1e8, 1e14])
    def test_j_compressed_is_the_dense_product(self, n, theta, cond_cap):
        # reference: J = conjugation compressed by the isometry V, V* conj(V)
        model = WedgeModel(n, theta, cond_cap)
        v = isometry(model)
        dense = v.conj().T @ v.conj()
        perm = model.j_compressed.mat
        assert np.abs(perm - dense).max() <= 1e-14
        assert np.array_equal(perm, perm.T)
        assert np.array_equal(np.sort(perm, axis=1)[:, -1],
                              np.ones(model.retained_dim))
        assert np.count_nonzero(perm) == model.retained_dim
