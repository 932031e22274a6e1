"""Chain vacuum: correlations, decay, entropy, local differences, causality."""

import ast
import inspect
import re
import tracemalloc

import numpy as np
import pytest
from reference import (dense_creators, indexed_symplectic_eigenvalues,
                       massless_state)

from vnlab import lattice
from vnlab.fock import FockSpace, weyl_operator
from vnlab.lattice import (ChainSpec, GaussianState, RegionFockRep,
                           _circulant_block, causality_probe_scan,
                           cluster_function, decay_rate_fit,
                           expected_decay_rate, first_order_overlap,
                           local_difference, local_difference_bracket,
                           reduced_entropy, symplectic_eigenvalues)
from vnlab.numkit import dagger, haar_unitary, random_density


def g_phi(state):
    """Dense <phi_i phi_j> over the whole chain, gathered from its row."""
    return _circulant_block(state.row_phi, np.arange(state.spec.sites))


def g_pi(state):
    """Dense <pi_i pi_j> over the whole chain, gathered from its row."""
    return _circulant_block(state.row_pi, np.arange(state.spec.sites))


def dense_symplectic(state, region):
    """Reference spectrum: sorted sqrt(eigvals(G_phi G_pi)) on the region."""
    idx = np.ix_(region, region)
    ev = np.linalg.eigvals(g_phi(state)[idx] @ g_pi(state)[idx])
    return np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))


class TestGroundState:
    def test_translation_invariance(self):
        state = GaussianState(ChainSpec(12, 0.7))
        n = 12
        for shift in (1, 5):
            rolled = np.roll(np.roll(g_phi(state), shift, axis=0), shift, axis=1)
            assert np.max(np.abs(rolled - g_phi(state))) <= 1e-12

    def test_two_site_closed_form(self):
        # N = 2, m = 1: modes at omega = 1 and sqrt(5)
        state = GaussianState(ChainSpec(2, 1.0))
        expected = 0.25 * (1.0 + 1.0 / np.sqrt(5.0))
        assert abs(g_phi(state)[0, 0] - expected) < 1e-12
        assert abs(expected - 0.36180) < 5e-6

    def test_per_mode_uncertainty_product(self):
        spec = ChainSpec(8, 1.3)
        omega = spec.dispersion()
        prod = (1.0 / (2.0 * omega)) * (omega / 2.0)
        assert np.allclose(prod, 0.25)

    def test_full_chain_symplectic_values_saturate(self):
        state = GaussianState(ChainSpec(10, 0.5))
        nu = symplectic_eigenvalues(state, np.arange(10))
        assert np.max(np.abs(nu - 0.5)) < 1e-10

    def test_heisenberg_bound_on_regions(self):
        rng = np.random.default_rng(0)
        state = GaussianState(ChainSpec(24, 1.0))
        for _ in range(10):
            size = int(rng.integers(1, 24))
            region = rng.choice(24, size=size, replace=False)
            nu = symplectic_eigenvalues(state, region)
            assert nu.min() >= 0.5 - 1e-10

    @pytest.mark.parametrize("n", [2, 12, 64])
    @pytest.mark.parametrize("mass", [0.9])
    def test_fft_rows_match_cosine_table(self, n, mass):
        # reference: G[i, j] = sum_k w_k cos(k (i - j)) / n, mode by mode
        spec = ChainSpec(n, mass)
        state = GaussianState(spec)
        omega = spec.dispersion()
        w_phi = 0.5 / omega
        x = np.arange(n)
        cos = np.cos(np.subtract.outer(x, x)[..., None] * spec.momenta())
        assert np.max(np.abs(g_phi(state) - cos @ w_phi / n)) < 1e-13
        assert np.max(np.abs(g_pi(state) - cos @ (omega / 2.0) / n)) < 1e-13
        assert np.array_equal(state.row_phi, g_phi(state)[:, 0])
        assert np.array_equal(state.row_pi, g_pi(state)[:, 0])

    def test_proper_region_spectrum_matches_dense(self):
        rng = np.random.default_rng(3)
        for n, mass in ((24, 1.0), (40, 0.3)):
            state = GaussianState(ChainSpec(n, mass))
            for _ in range(8):
                size = int(rng.integers(1, n))
                region = rng.choice(n, size=size, replace=False)
                nu = np.sort(symplectic_eigenvalues(state, region))
                assert np.max(np.abs(nu - dense_symplectic(state, region))) \
                    < 1e-10

    def test_full_chain_mode_path_matches_dense(self):
        state = GaussianState(ChainSpec(10, 0.5))
        dense = dense_symplectic(state, np.arange(10))
        for region in (np.arange(10), np.random.default_rng(2).permutation(10)):
            nu = np.sort(symplectic_eigenvalues(state, region))
            assert np.max(np.abs(nu - dense)) < 1e-10

    @pytest.mark.parametrize("n", [7, 64, 512])
    def test_proper_region_spectrum_matches_index_matrix_form(self, n):
        """Bit for bit the spectrum of the index-matrix gather, on random
        unsorted regions."""
        rng = np.random.default_rng(n)
        state = GaussianState(ChainSpec(n, 0.4))
        for size in (1, 2, n // 3, n - 1):
            region = rng.choice(n, size=size, replace=False)
            assert np.array_equal(symplectic_eigenvalues(state, region),
                                  indexed_symplectic_eigenvalues(state, region))

    def test_shifted_sites_read_the_reduced_region(self):
        state = GaussianState(ChainSpec(6, 0.7))
        assert np.array_equal(symplectic_eigenvalues(state, [-1, 2]),
                              symplectic_eigenvalues(state, [5, 2]))
        region = np.array([4, 0, 3])
        for shift in (-12, -6, 6, 18):
            assert np.array_equal(symplectic_eigenvalues(state, region + shift),
                                  symplectic_eigenvalues(state, region))

    @pytest.mark.parametrize("region,says", [
        ([0, 0], "region repeats a site (mod n)"),
        ([0, 6], "region repeats a site (mod n)"),
        (range(7), "region repeats a site (mod n)"),
        ([0, 1.7], "region sites must be integers"),
        ([], "empty region"),
    ])
    def test_bad_region_is_refused(self, region, says):
        state = GaussianState(ChainSpec(6, 1.0))
        with pytest.raises(ValueError, match=re.escape(says)):
            symplectic_eigenvalues(state, region)

    def test_proper_region_peaks_at_three_blocks(self):
        """Two blocks, the factor and one product: 24 r^2 bytes; an r x r
        index matrix or a fourth block would read 4.0."""
        state = GaussianState(ChainSpec(1024, 1.0))
        region = np.arange(1023)
        symplectic_eigenvalues(state, region[:4])  # first-call set-up
        tracemalloc.start()
        try:
            symplectic_eigenvalues(state, region)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * 8 * region.size ** 2

    def test_region_over_the_budget_is_refused_before_a_block(self):
        # 24 r^2 bytes: 3,344 sites fit in 256 MiB, 3,345 do not
        state = GaussianState(ChainSpec(4096, 1.0))
        symplectic_eigenvalues(state, np.arange(4))  # first-call set-up
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the byte budget"):
                symplectic_eigenvalues(state, np.arange(3345))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_massless_needs_policy(self):
        # the policy is the caller's: GaussianState refuses the k = 0 mode
        with pytest.raises(ValueError, match="massless chain"):
            GaussianState(ChainSpec(8, 0.0))

    @pytest.mark.parametrize("mass", [-0.1, np.inf, -np.inf, np.nan])
    def test_mass_must_be_finite_and_nonnegative(self, mass):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ChainSpec(8, mass)

    @pytest.mark.parametrize("sites", [6.5, True, np.float64(6.0)])
    def test_sites_must_be_an_integer(self, sites):
        with pytest.raises(ValueError, match="sites must be an integer"):
            ChainSpec(sites, 1.0)
        assert ChainSpec(np.int64(6), 1.0).momenta().size == 6


# every reader of a site list, each called with the region it reads on six
# sites, and the message it gives an empty one
SITE_READERS = {
    "symplectic_eigenvalues": (lambda region: symplectic_eigenvalues(
        GaussianState(ChainSpec(6, 1.0)), region), "empty region"),
    "RegionFockRep": (lambda region: RegionFockRep(ChainSpec(6, 1.0), region),
                      "region must be a proper nonempty subset"),
    "causality_probe_scan": (lambda region: causality_probe_scan(
        ChainSpec(6, 1.0), region, [4], [0.1]), "empty support"),
}


@pytest.mark.parametrize("reader", SITE_READERS)
@pytest.mark.parametrize("region,says", [
    ([True, False], "region sites must be integers"),
    ([0, 1.7], "region sites must be integers"),
    ([[0, 1], [2, 3]], "region must be a 1-D list of sites"),
    ([1, 7], "region repeats a site (mod n)"),
])
def test_site_readers_refuse_alike(reader, region, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        SITE_READERS[reader][0](region)


@pytest.mark.parametrize("reader", SITE_READERS)
def test_site_readers_keep_their_empty_message(reader):
    read, says = SITE_READERS[reader]
    with pytest.raises(ValueError, match=re.escape(says)):
        read([])


def test_sites_are_read_in_one_place():
    """bincount and .astype(int) turn a site list into sites: in lattice
    they occur only in _sites."""
    def reads(tree):
        return {(node.lineno, node.col_offset) for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and (node.func.attr == "bincount"
                     or node.func.attr == "astype"
                     and [ast.unparse(a) for a in node.args] == ["int"])}
    tree = ast.parse(inspect.getsource(lattice))
    helper = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_sites")
    assert reads(helper) and reads(tree) == reads(helper)


class TestCirculantBlock:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gather_equals_modulo_form(self, seed):
        """Bit for bit equal to row[(i - j) % n] on unsorted regions, with
        their sites also shifted by multiples of n."""
        rng = np.random.default_rng(seed)
        for n in (1, 2, 7, 64, 513):
            row = rng.standard_normal(n)
            for size in {1, max(1, n // 3), n}:
                region = rng.choice(n, size=size, replace=False)
                ref = row[(region[:, None] - region[None, :]) % n]
                assert np.array_equal(_circulant_block(row, region), ref)
                # negative sites and sites >= n are read mod n
                shifted = region + n * rng.integers(-3, 4, size=region.size)
                assert np.array_equal(_circulant_block(row, shifted), ref)


class TestCluster:
    def test_f0_positive_and_monotone_decay(self):
        state = GaussianState(ChainSpec(64, 1.0))
        vals = [cluster_function(state, r) for r in range(33)]
        assert vals[0] > 0
        assert all(b < a for a, b in zip(vals[:20], vals[1:21]))

    def test_even_and_periodic(self):
        state = GaussianState(ChainSpec(16, 0.8))
        for r in range(1, 8):
            assert abs(cluster_function(state, r)
                       - cluster_function(state, -r)) < 1e-14
            assert abs(cluster_function(state, r)
                       - cluster_function(state, r + 16)) < 1e-14

    def test_far_correlation_below_bound(self):
        state = GaussianState(ChainSpec(400, 1.0))
        assert abs(cluster_function(state, 40)) < 1e-6


class TestDecayFit:
    @pytest.mark.parametrize("m,hi", [(1.0, 28), (0.5, 40), (2.0, 15)])
    def test_rate_matches_lattice_asymptotics(self, m, hi):
        state = GaussianState(ChainSpec(400, m))
        fit = decay_rate_fit(state, (10, hi))
        assert fit.rel_deviation <= 0.10
        assert fit.is_exponential

    def test_expected_rate_values(self):
        assert abs(expected_decay_rate(1.0) - 0.96242365) < 1e-7
        assert abs(expected_decay_rate(0.5) - 0.49493292) < 1e-7

    def test_massless_flagged_non_exponential(self):
        state = massless_state(400)
        fit = decay_rate_fit(state, (10, 40))
        assert not fit.is_exponential

    def test_floor_guard(self):
        state = GaussianState(ChainSpec(400, 2.0))
        with pytest.raises(ValueError, match="floor"):
            decay_rate_fit(state, (10, 60))

    def test_range_validation(self):
        state = GaussianState(ChainSpec(64, 1.0))
        with pytest.raises(ValueError):
            decay_rate_fit(state, (0, 10))
        with pytest.raises(ValueError):
            decay_rate_fit(state, (5, 40))
        # a quadratic through two points is underdetermined
        with pytest.raises(ValueError, match="must be >= 2 sites wide"):
            decay_rate_fit(state, (10, 11))
        assert decay_rate_fit(state, (10, 12)).total_decay > 0


class TestEntropy:
    def test_full_chain_is_pure(self):
        state = GaussianState(ChainSpec(16, 1.0))
        assert reduced_entropy(state, np.arange(16)) < 1e-10

    def test_single_site_positive(self):
        state = GaussianState(ChainSpec(64, 1.0))
        assert reduced_entropy(state, [0]) > 1e-3

    def test_region_complement_symmetry(self):
        rng = np.random.default_rng(5)
        state = GaussianState(ChainSpec(20, 0.8))
        for _ in range(20):
            size = int(rng.integers(1, 20))
            region = rng.choice(20, size=size, replace=False)
            comp = np.setdiff1d(np.arange(20), region)
            assert abs(reduced_entropy(state, region)
                       - reduced_entropy(state, comp)) < 1e-8

    def test_empty_region_rejected(self):
        state = GaussianState(ChainSpec(8, 1.0))
        with pytest.raises(ValueError):
            reduced_entropy(state, [])


class TestLocalDifference:
    def test_identical_states(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 4)
        assert local_difference(rho, rho.copy()) < 1e-14

    def test_orthogonal_pure_states(self):
        rho1 = np.diag([1.0, 0, 0, 0]).astype(complex)
        rho2 = np.diag([0, 1.0, 0, 0]).astype(complex)
        assert abs(local_difference(rho1, rho2) - 2.0) < 1e-14

    @staticmethod
    def assert_bracket(r1, r2):
        """L <= tn <= U at a 1e-12 relative offset, closed to the stopping
        width, and L within 2% of the trace norm."""
        tn = local_difference(r1, r2)
        lower, upper = local_difference_bracket(r1, r2)
        assert lower <= tn * (1 + 1e-12) and tn <= upper * (1 + 1e-12)
        assert upper - lower <= 1e-6 * lower
        assert abs(tn - lower) / tn <= 0.02

    def test_duality_oracle_within_2pct(self):
        rng = np.random.default_rng(7)
        for dim in (2, 4, 6, 8):
            for _ in range(5):
                self.assert_bracket(random_density(rng, dim),
                                    random_density(rng, dim))

    @pytest.mark.parametrize("spectrum", [
        [0.3, 0.3, -0.3, -0.3], [0.25, 0.25, 0.25, -0.75],
        [0.5, 0.0, 0.0, -0.5], [0.2, 0.2, -0.1, -0.3],
        [0.5, 0.0, -0.5], [0.3, 0.3, -0.2, -0.2, -0.2]])
    def test_bracket_on_degenerate_spectra(self, spectrum):
        # repeated and zero eigenvalues of the difference, in a random frame
        u = haar_unitary(np.random.default_rng(3), len(spectrum))
        delta = (u * spectrum) @ u.conj().T
        self.assert_bracket(delta, np.zeros_like(delta))

    def test_bracket_of_equal_states_is_zero(self):
        rho = random_density(np.random.default_rng(1), 4)
        assert local_difference_bracket(rho, rho.copy()) == (0.0, 0.0)

    @pytest.mark.parametrize("dim", [2, 3, 5, 16, 44])
    def test_bracket_closes_within_eight_sweeps(self, monkeypatch, dim):
        # random pairs up to the registry's dim cap close in 4-6 sweeps
        monkeypatch.setattr(lattice, "BRACKET_SWEEPS", 8)
        rng = np.random.default_rng(dim)
        for _ in range(3):
            lower, upper = local_difference_bracket(random_density(rng, dim),
                                                    random_density(rng, dim))
            assert upper - lower <= 1e-6 * lower

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            local_difference(np.eye(2) / 2, np.eye(3) / 3)

    def test_bracket_refuses_shape_mismatch(self):
        # a (1, 1) state broadcast against a (3, 3) one read as 3.33
        with pytest.raises(ValueError, match="different cutoffs"):
            local_difference_bracket(np.eye(1), np.eye(3) / 3)

    def test_bracket_solves_nothing(self):
        """Both trace-norm routes read _difference; of np.linalg, the oracle
        and _difference call only norm: no eigensolver, SVD or solve."""
        tree = ast.parse(inspect.getsource(lattice))

        def calls(name):
            fn = next(node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == name)
            return {ast.unparse(node.func) for node in ast.walk(fn)
                    if isinstance(node, ast.Call)}
        assert "_difference" in calls("local_difference")
        assert "_difference" in calls("local_difference_bracket")
        linalg = {call for name in ("local_difference_bracket", "_difference")
                  for call in calls(name) if "linalg" in call}
        assert linalg == {"np.linalg.norm"}


def _dense_vacuum_vector(rep):
    """exp(a* M a* / 2)|0>, normalized, from the dense potential matrix V,
    M = (1 + sqrt V)^-1 (1 - sqrt V), and Kronecker-product site ladders."""
    n = rep.spec.sites
    lap = 2.0 * np.eye(n) - np.roll(np.eye(n), 1, 0) - np.roll(np.eye(n), -1, 0)
    w, v = np.linalg.eigh(rep.spec.mass ** 2 * np.eye(n) + lap)
    sqrt_v = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    m_mat = np.linalg.solve(np.eye(n) + sqrt_v, np.eye(n) - sqrt_v)
    order = np.concatenate([rep.region, rep.complement])
    m_mat = m_mat[np.ix_(order, order)]
    fr, fc = rep.fock_region, rep.fock_complement
    sites = ([np.kron(c, np.eye(fc.total_dim)) for c in dense_creators(fr)]
             + [np.kron(np.eye(fr.total_dim), c) for c in dense_creators(fc)])
    pair = 0.5 * sum(m_mat[i, j] * sites[i] @ sites[j]
                     for i in range(n) for j in range(n))
    state = term = np.eye(pair.shape[0])[0]
    k = 0
    while np.linalg.norm(term) > 1e-18:
        k += 1
        term = pair @ term / k
        state = state + term
    return state / np.linalg.norm(state)


class TestOutsideOperations:
    @pytest.mark.parametrize("mass", [1.0, 0.0])
    @pytest.mark.parametrize("region,n_max_region,n_max_complement",
                             [((0, 1), 2, 2), ((1, 3, 4), 3, 2)])
    def test_vacuum_vector_matches_dense_pair_matrix(
            self, monkeypatch, mass, region, n_max_region, n_max_complement):
        # other cutoffs than RegionFockRep's two: the factors patched
        monkeypatch.setattr(RegionFockRep, "fock_region", property(
            lambda rep: FockSpace(len(rep.region), n_max_region)))
        monkeypatch.setattr(RegionFockRep, "fock_complement", property(
            lambda rep: FockSpace(len(rep.complement), n_max_complement)))
        rep = RegionFockRep(ChainSpec(6, mass), region)
        gap = rep.vacuum.reshape(-1) - _dense_vacuum_vector(rep)
        assert np.abs(gap).max() <= 1e-13

    def test_outside_unitary_invisible_in_region(self):
        rep = RegionFockRep(ChainSpec(6, 1.0), region=(0, 1))
        g = rep.vacuum
        rho_before = g @ dagger(g)
        psi_c = np.zeros(4, dtype=complex)
        psi_c[1], psi_c[3] = 1.1, -0.4j
        moved = g @ weyl_operator(rep.fock_complement, psi_c).T
        rho_after = moved @ dagger(moved)
        assert local_difference(rho_before, rho_after) <= 1e-12

    def test_inside_operation_is_visible(self):
        rep = RegionFockRep(ChainSpec(6, 1.0), region=(0, 1))
        g = rep.vacuum
        u_r = weyl_operator(rep.fock_region, np.array([0.9, 0.2j]))
        dr, dc = g.shape
        moved = (np.kron(u_r, np.eye(dc)) @ g.reshape(-1)).reshape(dr, dc)
        assert local_difference(g @ dagger(g),
                                moved @ dagger(moved)) > 1e-3

    def test_ground_vector_entangles_region(self):
        rep = RegionFockRep(ChainSpec(6, 1.0), region=(0, 1))
        rho = rep.vacuum @ dagger(rep.vacuum)
        w = np.linalg.eigvalsh(rho)
        purity = float(np.sum(w ** 2))
        assert purity < 1.0 - 1e-4  # coupling across the cut mixes the region


class TestCausalityProbe:
    def test_amplitude_zero_at_t0(self):
        spec = ChainSpec(256, 1.0)
        a0 = causality_probe_scan(spec, np.arange(100, 108),
                                  np.arange(112, 120), [0.0])[0]
        assert abs(a0) < 1e-14

    def test_amplitude_nonzero_at_half(self):
        spec = ChainSpec(256, 1.0)
        a = causality_probe_scan(spec, np.arange(100, 108),
                                 np.arange(112, 120), [0.5])[0]
        assert abs(a) > 1e-8

    def test_grid_max_positive_for_all_gaps(self):
        spec = ChainSpec(128, 1.0)
        grid = np.linspace(0.05, 1.0, 20)
        for gap in (2, 4, 8, 16):
            supp_in = np.arange(40, 48)
            supp_out = np.arange(48 + gap, 56 + gap)
            amps = np.abs(causality_probe_scan(spec, supp_in, supp_out, grid))
            assert amps.max() > 1e-13  # 10x the inner-product roundoff floor

    def test_scan_matches_pointwise(self):
        # reference: site-space evolution by the dense Hamiltonian
        # sqrt(m^2 - laplacian), one t at a time
        spec = ChainSpec(64, 1.0)
        supp_in, supp_out = np.arange(10, 14), np.arange(20, 24)
        lap = 2.0 * np.eye(64) - np.roll(np.eye(64), 1, 0) \
            - np.roll(np.eye(64), -1, 0)
        w, u = np.linalg.eigh(spec.mass ** 2 * np.eye(64) + lap)
        bump = np.sin(np.pi * np.arange(1, 5) / 5)
        psi, chi = np.zeros(64), np.zeros(64)
        psi[supp_in], chi[supp_out] = bump, bump
        psi, chi = psi / np.linalg.norm(psi), chi / np.linalg.norm(chi)
        grid = [0.0, 0.3, 0.7]
        scan = causality_probe_scan(spec, supp_in, supp_out, grid)
        for t, a in zip(grid, scan):
            evolved = (u * np.exp(-1j * np.sqrt(w) * t)) @ (u.T @ psi)
            assert abs(a - np.vdot(chi, evolved)) < 1e-12

    def test_overlapping_supports_rejected(self):
        spec = ChainSpec(64, 1.0)
        with pytest.raises(ValueError):
            causality_probe_scan(spec, np.arange(0, 8), np.arange(7, 12),
                                 [0.1])

    def test_first_order_overlap_matches_dense_and_the_slope(self):
        # <chi, sqrt(m^2 - laplacian) psi> in site space; the scan at small
        # t is -i t times it, up to the Taylor remainder t^2 (m^2 + 4) / 2
        spec = ChainSpec(64, 2.0)
        supp_in, supp_out = np.arange(10, 14), np.arange(16, 20)
        lap = 2.0 * np.eye(64) - np.roll(np.eye(64), 1, 0) \
            - np.roll(np.eye(64), -1, 0)
        w, u = np.linalg.eigh(spec.mass ** 2 * np.eye(64) + lap)
        bump = np.sin(np.pi * np.arange(1, 5) / 5) / np.sqrt(2.5)
        psi, chi = np.zeros(64), np.zeros(64)
        psi[supp_in], chi[supp_out] = bump, bump
        c1 = first_order_overlap(spec, supp_in, supp_out)
        assert abs(c1 - chi @ (u * np.sqrt(w)) @ u.T @ psi) < 1e-12
        assert abs(c1) > 1e-4
        for t in (1e-4, -1e-5, 1e-7):
            a = causality_probe_scan(spec, supp_in, supp_out, [t])[0]
            assert abs(a + 1j * t * c1) <= t ** 2 * (spec.mass ** 2 + 4) / 2
