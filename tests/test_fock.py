"""Truncated Fock space: ladders, CCR, locality, Weyl, cyclicity ranks."""

import itertools
import tracemalloc
from math import comb, factorial

import numpy as np
import pytest
from reference import dense_creators

from vnlab import fock
from vnlab.fock import (FockSpace, SectorCommutator, apply_ladders,
                        cyclicity_rank, field_operator, locality_check,
                        sector_commutator, weyl_operator,
                        weyl_relation_defect)
from vnlab.locwedge import (WedgeModel, real_subspace_from_vectors,
                            symplectic_complement)
from vnlab.numkit import complex_normal, dagger, norm2, rank


def sector_totals(f):
    """Total particle number of each basis state."""
    return f.occupations.sum(axis=1)


def sector_projector(f, max_total):
    """Diagonal projector onto the sectors with total <= max_total."""
    return np.diag((sector_totals(f) <= max_total).astype(float))


def _creation_string_gamma(f, u):
    """Gamma(U) column by column from the loop-built ladders:
    prod_m a*(U e_m)^{n_m} vacuum / sqrt(prod_m n_m!)."""
    rotated = np.tensordot(u, dense_creators(f), axes=(0, 0))
    gamma = np.zeros((f.total_dim, f.total_dim), dtype=complex)
    for i, occ in enumerate(f.occupations):
        col = f.vacuum()
        for m, count in enumerate(occ):
            for _ in range(count):
                col = rotated[m] @ col
        gamma[:, i] = col / np.sqrt(np.prod([factorial(c) for c in occ]))
    return gamma


def _product_cyclicity_rank(f, k, degree):
    """Rank of every product Phi(psi_1)...Phi(psi_j) vacuum, stacked."""
    fields = [field_operator(f, psi) for psi in k.basis]
    vectors, layer = [f.vacuum()], [f.vacuum()]
    for _ in range(degree):
        layer = [m @ v for m in fields for v in layer]
        vectors.extend(layer)
    return rank(np.stack(vectors))


def dense_safe_commutator(f, psi, phi):
    """[Phi(psi), Phi(phi)] on the sectors <= n_max - 2 from the dense field
    blocks mat[:s2, :s1]: the reference for the parity parts."""
    s2, s1 = f.sector_dim(f.n_max - 2), f.sector_dim(f.n_max - 1)
    prod = (field_operator(f, psi)[:s2, :s1]
            @ dagger(field_operator(f, phi)[:s2, :s1]))
    return prod - dagger(prod)


def parity_members(f):
    """Safe-sector basis indices with even and with odd total, in order."""
    totals = sector_totals(f)[:f.sector_dim(f.n_max - 2)]
    return [np.flatnonzero(totals % 2 == p) for p in (0, 1)]


def _random_pair(rng, d):
    return [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2)]


class TestBuild:
    @pytest.mark.parametrize("d,n_max,expected", [
        (2, 2, 6), (1, 5, 6), (3, 3, 20), (2, 3, 10), (3, 4, 35),
        # the largest dimension the byte budget admits
        (1, 4095, 4096),
    ])
    def test_total_dim(self, d, n_max, expected):
        assert FockSpace(d, n_max).total_dim == expected

    @pytest.mark.parametrize("d,n_max", [(1, 5), (2, 3), (4, 3)])
    def test_basis_written_from_the_sizes(self, d, n_max):
        # the sizes are the whole constructor, so no table can be handed
        # that disagrees with them or with the ladder maps
        f = FockSpace(d, n_max)
        assert f == FockSpace(d, n_max)
        with pytest.raises(TypeError):
            FockSpace(d, n_max, f.occupations)
        assert "occupations" not in repr(f)
        # every occupation with total <= n_max, by total and then in
        # decreasing lexicographic order
        states = [o for o in itertools.product(range(n_max + 1), repeat=d)
                  if sum(o) <= n_max]
        states.sort(key=lambda o: (sum(o), [-c for c in o]))
        assert f.occupations.dtype == np.int32
        assert f.occupations.tolist() == [list(o) for o in states]
        assert f.total_dim == len(states) == comb(n_max + d, d)
        assert f.raise_index.shape == f.raise_value.shape \
            == (d, f.sector_dim(n_max - 1))

    def test_sector_structure(self):
        f = FockSpace(2, 2)
        assert list(sector_totals(f)) == [0, 1, 1, 2, 2, 2]

    @pytest.mark.parametrize("d,n_max", [(1, 5), (2, 3), (3, 4), (4, 3)])
    def test_index_maps_match_loop_ladders(self, d, n_max):
        # one row per mode: up = e_m on the identity is a*_m
        f = FockSpace(d, n_max)
        identity = np.eye(f.total_dim)
        assert np.array_equal(apply_ladders(f, np.eye(d), 0, identity),
                              dense_creators(f))

    @pytest.mark.parametrize("d,n_max", [(1, 5), (2, 3), (3, 4), (4, 3),
                                         (2, 10), (8, 2), (5, 6)])
    def test_index_maps_match_the_occupation_lookup(self, d, n_max):
        # the counted raise map against a dictionary of the basis states
        f = FockSpace(d, n_max)
        index = {tuple(o): i for i, o in enumerate(f.occupations.tolist())}
        s1 = f.sector_dim(n_max - 1)
        lookup = [[index[tuple(o + e)] for o in f.occupations[:s1]]
                  for e in np.eye(d, dtype=int)]
        assert f.raise_index.dtype == np.intp
        assert np.array_equal(f.raise_index, lookup)

    def test_raising_is_linear_in_the_mode_vector(self):
        f = FockSpace(3, 4)
        rng = np.random.default_rng(16)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = rng.standard_normal(f.total_dim)
        dense = np.tensordot(psi, dense_creators(f), axes=(0, 0))
        assert np.allclose(apply_ladders(f, psi[None], 0, x)[0], dense @ x,
                           rtol=0, atol=1e-14)

    def test_sector_dim_is_leading_block(self):
        f = FockSpace(3, 4)
        totals = sector_totals(f)
        assert np.all(np.diff(totals) >= 0)
        for k in range(-1, f.n_max + 2):
            assert f.sector_dim(k) == int((totals <= k).sum())

    def test_checks_leave_dense_ladders_unbuilt(self):
        f = FockSpace(3, 4)
        rng = np.random.default_rng(12)
        sector_commutator(f, *_random_pair(rng, 3)).defect()
        k = real_subspace_from_vectors(np.eye(3))
        locality_check(f, k, symplectic_complement(k))
        assert not hasattr(f, "creators")
        assert not hasattr(f, "annihilators")

    def test_widest_space_builds_under_the_budget(self):
        # d = 4095 at n_max = 1 is D = 4096, the largest space the byte
        # budget admits: each row is written straight into the int32
        # table, so the build's peak is the table's 64 MiB and little more
        tracemalloc.start()
        try:
            f = FockSpace(4095, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * f.occupations.nbytes

    def test_cap(self):
        with pytest.raises(ValueError):
            FockSpace(8, 8)
        # one dense operator at dimension 4097 is over the byte budget
        with pytest.raises(ValueError, match="byte budget"):
            FockSpace(1, 4096)
        with pytest.raises(ValueError):
            FockSpace(0, 2)


class TestFieldOperator:
    def test_vacuum_one_particle_component(self):
        f = FockSpace(2, 3)
        phi = field_operator(f, np.eye(2)[0])
        v = phi @ f.vacuum()
        assert abs(np.linalg.norm(v) - 1 / np.sqrt(2)) < 1e-12
        assert np.allclose(
            v, apply_ladders(f, np.eye(2)[:1], 0, f.vacuum())[0] / np.sqrt(2))

    def test_two_point_function(self):
        f = FockSpace(3, 3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a = field_operator(f, psi)
            b = field_operator(f, phi)
            got = np.vdot(f.vacuum(), a @ b @ f.vacuum())
            assert abs(got - np.vdot(psi, phi) / 2.0) < 1e-12

    def test_hermitian(self):
        f = FockSpace(2, 4)
        rng = np.random.default_rng(1)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        m = field_operator(f, psi)
        assert norm2(m - dagger(m)) < 1e-12

    def test_scatter_matches_dense_ladders(self):
        f = FockSpace(3, 4)
        rng = np.random.default_rng(13)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        adag = np.tensordot(psi, dense_creators(f), axes=(0, 0))
        assert np.array_equal(field_operator(f, psi),
                              (dagger(adag) + adag) / np.sqrt(2.0))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            field_operator(FockSpace(2, 2), np.zeros(2))

    def test_apply_matches_dense_field(self):
        # rows (psi, conj psi) give sqrt(2) Phi(psi), every row in one call
        f = FockSpace(3, 4)
        rng = np.random.default_rng(5)
        psis = complex_normal(rng, (3,), 5)
        x = complex_normal(rng, (f.total_dim, 4))
        got = apply_ladders(f, psis, psis.conj(), x) / np.sqrt(2.0)
        assert got.shape == (5, f.total_dim, 4)
        for psi, image in zip(psis, got):
            assert norm2(image - field_operator(f, psi) @ x) < 1e-12


class TestCcr:
    def test_orthogonal_real_pair_commutes(self):
        f = FockSpace(2, 3)
        comm = sector_commutator(f, np.eye(2)[0], np.eye(2)[1])
        assert comm.defect() < 1e-12

    def test_canonical_pair(self):
        f = FockSpace(2, 3)
        e0 = np.eye(2)[0]
        a = field_operator(f, e0)
        b = field_operator(f, 1j * e0)
        p = sector_projector(f, f.n_max - 2)
        comm = p @ (a @ b - b @ a) @ p
        assert norm2(comm - 1j * p) < 1e-12

    def test_random_pairs(self):
        f = FockSpace(3, 4)
        rng = np.random.default_rng(3)
        for _ in range(10):
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert sector_commutator(f, psi, phi).defect() <= 1e-10

    @pytest.mark.parametrize("d,n_max", [(1, 5), (2, 3), (3, 4), (4, 3)])
    def test_safe_commutator_is_projected_commutator(self, d, n_max):
        # the projected dense commutator is the direct sum of the parity
        # parts: exact zeros between even and odd totals
        f = FockSpace(d, n_max)
        p = sector_projector(f, n_max - 2)
        s2 = f.sector_dim(n_max - 2)
        even, odd = parity_members(f)
        rng = np.random.default_rng(14)
        for _ in range(4):
            psi, phi = _random_pair(rng, d)
            a = field_operator(f, psi)
            b = field_operator(f, phi)
            dense = (p @ (a @ b - b @ a) @ p)[:s2, :s2]
            assert not dense[np.ix_(even, odd)].any()
            assert not dense[np.ix_(odd, even)].any()
            parts = sector_commutator(f, psi, phi).parts
            for members, part in zip((even, odd), parts):
                assert part.shape == (members.size, members.size)
                assert norm2(part - dense[np.ix_(members, members)]) <= 1e-13

    def test_needs_room_for_commutator(self):
        with pytest.raises(ValueError):
            sector_commutator(FockSpace(2, 1), np.eye(2)[0], np.eye(2)[1])


class TestSectorCommutator:
    """The parity parts against the dense reference, edges included."""

    GRID = [(1, 2), (1, 6), (2, 2), (2, 5), (3, 3), (3, 4), (4, 4), (5, 3)]

    @pytest.mark.parametrize("d,n_max", GRID)
    def test_ccr_defect_and_norm_match_dense(self, d, n_max):
        f = FockSpace(d, n_max)
        rng = np.random.default_rng(17)
        for _ in range(3):
            psi, phi = _random_pair(rng, d)
            dense = dense_safe_commutator(f, psi, phi)
            expected = 1j * np.vdot(psi, phi).imag * np.eye(len(dense))
            comm = sector_commutator(f, psi, phi)
            assert abs(comm.defect() - norm2(dense - expected)) <= 1e-13
            assert abs(comm.norm() - norm2(dense)) <= 1e-13

    @pytest.mark.parametrize("d,n_max", GRID)
    def test_locality_matches_dense(self, d, n_max):
        # a generic real subspace against itself and against its complement
        f = FockSpace(d, n_max)
        rng = np.random.default_rng(18)
        k = real_subspace_from_vectors(
            complex_normal(rng, (d,), max(1, d - 1)))
        for other in (k, symplectic_complement(k)):
            dense = max((norm2(dense_safe_commutator(f, psi, phi))
                         for psi in k.basis for phi in other.basis),
                        default=0.0)
            assert abs(locality_check(f, k, other) - dense) <= 1e-13

    def test_odd_part_empty_at_n_max_two(self):
        # the safe sectors are the vacuum alone
        f = FockSpace(3, 2)
        rng = np.random.default_rng(19)
        psi, phi = _random_pair(rng, 3)
        even, odd = sector_commutator(f, psi, phi).parts
        assert even.shape == (1, 1) and odd.shape == (0, 0)
        assert sector_commutator(f, psi, phi).defect() <= 1e-14

    @pytest.mark.parametrize("d,n_max", [(1, 4), (3, 4), (5, 6)])
    def test_real_pairs_commute_exactly(self, d, n_max):
        f = FockSpace(d, n_max)
        e = np.eye(d)
        for a in range(d):
            for b in range(d):
                for part in sector_commutator(f, e[a], e[b]).parts:
                    assert not part.any()
        k = real_subspace_from_vectors(e)
        assert locality_check(f, k, symplectic_complement(k)) == 0.0

    @pytest.mark.parametrize("d,n_max", [(1, 5), (2, 3), (3, 4)])
    def test_lowering_rows_are_adjoint_ladders(self, d, n_max):
        # down = e_m on the identity is a_m, the transpose of a*_m
        f = FockSpace(d, n_max)
        identity = np.eye(f.total_dim)
        assert np.array_equal(apply_ladders(f, 0, np.eye(d), identity),
                              dense_creators(f).transpose(0, 2, 1))

    def test_terms_built_once_per_space(self):
        f = FockSpace(3, 4)
        rng = np.random.default_rng(20)
        sector_commutator(f, *_random_pair(rng, 3)).defect()
        parts = f.__dict__["parity_parts"]
        k = real_subspace_from_vectors(np.eye(3))
        locality_check(f, k, symplectic_complement(k))
        assert f.__dict__["parity_parts"] is parts

    def test_rejects_wrong_mode_count_and_low_cutoff(self):
        with pytest.raises(ValueError, match="mode count"):
            sector_commutator(FockSpace(3, 4), np.ones(2), np.ones(3))
        k = real_subspace_from_vectors(np.eye(2))
        with pytest.raises(ValueError, match="n_max >= 2"):
            locality_check(FockSpace(2, 1), k, k)


class TestLocality:
    def test_real_space_against_itself(self):
        f = FockSpace(2, 3)
        k = real_subspace_from_vectors(np.eye(2))
        kp = symplectic_complement(k)
        assert locality_check(f, k, kp) < 1e-10

    def test_toy_wedge_pair(self):
        from reference import s_operator
        from vnlab.locwedge import AntilinearMap, standard_subspace
        d = 4.0
        delta = np.diag([d, 1 / d]).astype(complex)
        j = AntilinearMap(np.array([[0, 1], [1, 0]], dtype=complex))
        s, _ = s_operator(delta, j)
        k = standard_subspace(s)
        kp = symplectic_complement(k)
        f = FockSpace(2, 3)
        assert locality_check(f, k, kp) < 1e-10

    def test_negative_control_value(self):
        f = FockSpace(2, 3)
        e0 = np.eye(2)[0]
        a = field_operator(f, e0)
        b = field_operator(f, 1j * e0)  # Im<e0, i e0> = 1
        p = sector_projector(f, f.n_max - 2)
        assert abs(norm2(p @ (a @ b - b @ a) @ p) - 1.0) < 1e-10

    def test_commutator_norm_equals_im(self):
        f = FockSpace(3, 4)
        rng = np.random.default_rng(5)
        p = sector_projector(f, f.n_max - 2)
        for _ in range(10):
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a = field_operator(f, psi)
            b = field_operator(f, phi)
            got = norm2(p @ (a @ b - b @ a) @ p)
            assert abs(got - abs(np.vdot(psi, phi).imag)) <= 1e-10

    def test_dimension_mismatch(self):
        f = FockSpace(2, 2)
        k = real_subspace_from_vectors(np.eye(3))
        with pytest.raises(ValueError):
            locality_check(f, k, k)

    def test_nan_norm_of_second_pair_is_kept(self, monkeypatch):
        norms = iter([0.0, np.nan, 0.0, 0.0])
        monkeypatch.setattr(SectorCommutator, "norm", lambda c: next(norms))
        k = real_subspace_from_vectors(np.eye(2))
        assert np.isnan(locality_check(FockSpace(2, 3), k,
                                       symplectic_complement(k)))


class TestWeyl:
    def test_zero_argument_is_identity(self):
        f = FockSpace(2, 3)
        assert np.allclose(weyl_operator(f, np.zeros(2)), np.eye(f.total_dim))

    def test_zero_vector_of_the_wrong_length_is_refused(self):
        # the zero shortcut comes after the shape check, as for a non-zero
        # vector of that length
        f = FockSpace(2, 2)
        for psi in (np.zeros(7), np.ones(7)):
            with pytest.raises(ValueError, match="mode count"):
                weyl_operator(f, psi)

    def test_unitarity_on_low_sectors(self):
        f = FockSpace(2, 4)
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = weyl_operator(f, psi)
        p = sector_projector(f, f.n_max - 2)
        assert norm2(p @ (w @ dagger(w) - np.eye(f.total_dim)) @ p) < 1e-9

    def test_weyl_relation_small_arguments(self):
        f = FockSpace(2, 6)
        rng = np.random.default_rng(4)
        for _ in range(5):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi *= 0.5 / np.linalg.norm(psi)
            phi *= 0.5 / np.linalg.norm(phi)
            assert weyl_relation_defect(f, psi, phi) < 1e-6

    def test_weyl_relation_block_is_projected_defect(self):
        f = FockSpace(2, 5)
        rng = np.random.default_rng(15)
        psi, phi = (0.5 * v / np.linalg.norm(v) for v in _random_pair(rng, 2))
        lhs = weyl_operator(f, psi) @ weyl_operator(f, phi)
        rhs = np.exp(-0.5j * np.vdot(psi, phi).imag) * weyl_operator(f, psi + phi)
        p = sector_projector(f, 1)
        dense = norm2(p @ (lhs - rhs) @ p)
        assert abs(weyl_relation_defect(f, psi, phi) - dense) <= 1e-13

    def test_weyl_relation_error_grows_with_norm(self):
        f = FockSpace(2, 6)
        psi = np.array([0.1, 0.05j])
        small = weyl_relation_defect(f, psi, 1j * psi)
        large = weyl_relation_defect(f, 10 * psi, 10j * psi)
        assert small < 1e-9 < large

    def test_weyl_relation_improves_with_cutoff_distance(self):
        rng = np.random.default_rng(11)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi *= 0.5 / np.linalg.norm(psi)
        phi *= 0.5 / np.linalg.norm(phi)
        defects = [weyl_relation_defect(FockSpace(2, n_max), psi, phi)
                   for n_max in (3, 5, 7)]
        assert defects[2] < defects[1] < defects[0]


class TestCyclicity:
    def test_trivial_subspace(self):
        f = FockSpace(2, 3)
        k = real_subspace_from_vectors(np.zeros((0, 2)))
        assert cyclicity_rank(f, k, 3) == [1, 1, 1, 1]

    def test_standard_subspace_saturates(self):
        f = FockSpace(2, 3)
        k = real_subspace_from_vectors(np.eye(2))
        assert cyclicity_rank(f, k, 3)[-1] == f.total_dim == 10

    def test_single_line_control(self):
        for n_max in (2, 3):
            f = FockSpace(2, n_max)
            k = real_subspace_from_vectors(np.eye(2)[:1])
            assert cyclicity_rank(f, k, n_max) == list(range(1, n_max + 2))

    def test_monotone_in_degree(self):
        f = FockSpace(3, 4)
        k = real_subspace_from_vectors(np.eye(3))
        ranks = cyclicity_rank(f, k, 4)
        assert ranks == sorted(ranks)
        assert ranks[-1] == f.total_dim

    @pytest.mark.parametrize("d,n_max", [(2, 3), (3, 4), (3, 5)])
    def test_layer_bases_match_product_stack(self, d, n_max):
        f = FockSpace(d, n_max)
        for k in (real_subspace_from_vectors(np.eye(d)),
                  real_subspace_from_vectors(np.eye(d)[:1])):
            assert cyclicity_rank(f, k, n_max) == [
                _product_cyclicity_rank(f, k, degree)
                for degree in range(n_max + 1)]

    @pytest.mark.parametrize("n_max", [44, 60, 80])
    def test_line_control_exact_past_the_cap(self, n_max):
        # each new direction is a tiny part of Phi(e)^j vacuum (8e-7 at
        # j = 44), which a rank of the stacked powers reads as dependent
        f = FockSpace(1, n_max)
        k = real_subspace_from_vectors(np.eye(1))
        assert cyclicity_rank(f, k, n_max) == list(range(1, n_max + 2))

    def test_plane_saturates_past_the_cap(self):
        # a rank of the stacked layers reads 1030 at the top degree
        f = FockSpace(2, 44)
        k = real_subspace_from_vectors(np.eye(2))
        assert cyclicity_rank(f, k, 44) == [f.sector_dim(j)
                                            for j in range(45)]

    def test_one_decomposition_per_degree(self, monkeypatch):
        # no dense field and no rank of a stack of layers: one row space
        # per new block
        def never(*args):
            raise AssertionError("dense work in cyclicity_rank")

        calls, row_space = [], fock.row_space
        monkeypatch.setattr(fock, "field_operator", never)
        monkeypatch.setattr(fock, "rank", never, raising=False)
        monkeypatch.setattr(fock, "row_space",
                            lambda a: calls.append(a.shape) or row_space(a))
        f = FockSpace(3, 4)
        assert cyclicity_rank(f, real_subspace_from_vectors(np.eye(3)),
                              4) == [1, 4, 10, 20, 35]
        assert calls == [(3, f.total_dim), (9, f.total_dim),
                         (18, f.total_dim), (30, f.total_dim)]

    def test_one_kernel_call_per_degree(self, monkeypatch):
        # every field of K moves the block in one call, whatever their count
        calls, kernel = [], fock.apply_ladders
        monkeypatch.setattr(fock, "apply_ladders",
                            lambda f, up, down, x: calls.append(up.shape)
                            or kernel(f, up, down, x))
        f = FockSpace(3, 4)
        for fields in (np.eye(3), np.concatenate([np.eye(3), 1j * np.eye(3)])):
            calls.clear()
            cyclicity_rank(f, real_subspace_from_vectors(fields), 4)
            assert calls == [(len(fields), 3)] * 4

    def test_line_admitted_at_its_own_size(self):
        # the line's span has n_max + 1 rows: a few MiB where K = R^3 on
        # the same space would be over the budget
        f = FockSpace(3, 24)
        k = real_subspace_from_vectors(np.eye(3)[:1])
        assert cyclicity_rank(f, k, 24) == list(range(1, 26))

    def test_rejects_wrong_mode_count(self):
        f = FockSpace(3, 3)
        for width in (2, 4):
            k = real_subspace_from_vectors(np.eye(width))
            with pytest.raises(ValueError, match="mode count"):
                cyclicity_rank(f, k, 2)

    def test_degree_cap(self):
        f = FockSpace(2, 2)
        k = real_subspace_from_vectors(np.eye(2))
        with pytest.raises(ValueError):
            cyclicity_rank(f, k, 3)


class TestSecondQuantize:
    """Gamma(U) by the creation-string reference: a unitary representation
    that fixes the vacuum, under which the fields transform covariantly."""

    def test_identity(self):
        f = FockSpace(2, 3)
        gamma = _creation_string_gamma(f, np.eye(2))
        assert norm2(gamma - np.eye(f.total_dim)) < 1e-12

    def test_vacuum_invariance_and_unitarity(self):
        f = FockSpace(3, 3)
        rng = np.random.default_rng(7)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        gamma = _creation_string_gamma(f, u)
        assert np.allclose(gamma @ f.vacuum(), f.vacuum())
        assert norm2(dagger(gamma) @ gamma - np.eye(f.total_dim)) < 1e-10

    def test_homomorphism(self):
        f = FockSpace(2, 4)
        rng = np.random.default_rng(8)
        us = []
        for _ in range(2):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(g)
            us.append(q)
        lhs = _creation_string_gamma(f, us[0] @ us[1])
        rhs = _creation_string_gamma(f, us[0]) @ _creation_string_gamma(f, us[1])
        assert norm2(lhs - rhs) <= 1e-10

    def test_field_covariance(self):
        f = FockSpace(2, 4)
        rng = np.random.default_rng(9)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(g)
        gamma = _creation_string_gamma(f, u)
        p = sector_projector(f, f.n_max - 2)
        for _ in range(4):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = gamma @ field_operator(f, psi) @ dagger(gamma)
            rhs = field_operator(f, u @ psi)
            assert norm2(p @ (lhs - rhs) @ p) < 1e-9

    def test_covariance_under_wedge_flow(self):
        model = WedgeModel(8, 1.0, cond_cap=1e8)
        u = model.flow_compressed(0.6)
        d = model.retained_dim
        f = FockSpace(d, 3)
        gamma = _creation_string_gamma(f, u)
        p = sector_projector(f, f.n_max - 2)
        rng = np.random.default_rng(10)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        lhs = gamma @ field_operator(f, psi) @ dagger(gamma)
        rhs = field_operator(f, u @ psi)
        assert norm2(p @ (lhs - rhs) @ p) < 1e-9
