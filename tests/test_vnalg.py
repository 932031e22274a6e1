"""Algebra generation, commutants, centres and factors, GNS."""

import ast
import gc
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest

from reference import (cyclic_separating, full_matrix_algebra, gns,
                       letter_closure, scalar_algebra)
from vnlab import vnalg
from vnlab.modular import tomita
from vnlab.numkit import (complex_normal, dagger, norm2, null_space,
                          random_density)
from vnlab.vnalg import (MEMBERSHIP_RTOL, OperatorAlgebra, center_and_factor,
                         commutant, matrix_units,
                         orthonormalize_span, tensor_factor_algebra,
                         vn_closure)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def span_distance(a: OperatorAlgebra, b: OperatorAlgebra) -> float:
    fa, fb = (x.basis.reshape(x.size, -1) for x in (a, b))
    return norm2(fa.conj().T @ fa - fb.conj().T @ fb)


def closure_residuals(a: OperatorAlgebra) -> dict:
    """Reference check of the algebra axioms: the worst membership residual
    of the identity, of the adjoints and of the products of basis pairs."""
    return {"identity": a.member_residual(np.eye(a.dim)),
            "adjoint": max(a.member_residual(dagger(b)) for b in a.basis),
            "product": max(a.member_residual(b @ c)
                           for b in a.basis for c in a.basis)}


def assert_same_algebra(a: OperatorAlgebra, b: OperatorAlgebra) -> None:
    """Equal sizes, an orthonormal basis in a, and principal cosines
    between the two spans all within 1e-9 of one."""
    fa, fb = (x.basis.reshape(x.size, -1) for x in (a, b))
    assert a.size == b.size
    assert norm2(fa.conj() @ fa.T - np.eye(a.size)) < 1e-12
    cosines = np.linalg.svd(fa.conj() @ fb.T, compute_uv=False)
    assert cosines.min() >= 1.0 - 1e-9


def stacked_commutant(a: OperatorAlgebra) -> OperatorAlgebra:
    """Reference form: the null space of the commutator map stacked over the
    recorded generators (the basis when none are recorded) and adjoints."""
    n = a.dim
    gens = a.generators if a.generators is not None else a.basis
    eye = np.eye(n)
    blocks = []
    for g in gens:
        blocks.append(np.kron(g, eye) - np.kron(eye, g.T))
        blocks.append(np.kron(dagger(g), eye) - np.kron(eye, g.conj()))
    kernel = null_space(np.concatenate(blocks, axis=0))
    return OperatorAlgebra(kernel.reshape(-1, n, n))


def pairwise_closure(generators, dim: int) -> OperatorAlgebra:
    """Reference form: 1, the generators and their adjoints, closed by
    adding every product of two basis elements until the span stops
    growing."""
    mats = [np.eye(dim, dtype=complex)]
    for g in generators:
        mats += [g, dagger(g)]
    basis = orthonormalize_span(np.stack(mats))
    while True:
        products = np.einsum("aij,bjk->abik", basis, basis)
        products = products.reshape(-1, dim, dim)
        grown = orthonormalize_span(np.concatenate([basis, products]))
        if grown.shape[0] == basis.shape[0]:
            return OperatorAlgebra(basis)
        basis = grown


def principal_intersection(a: OperatorAlgebra,
                           b: OperatorAlgebra) -> OperatorAlgebra:
    """Reference form: span a ∩ span b from the principal angles, keeping
    each direction whose cosine is within 1e-9 of one."""
    fa, fb = (x.basis.reshape(x.size, -1) for x in (a, b))
    p, cosines, _ = np.linalg.svd(fa.conj() @ fb.T,
                                  full_matrices=False)
    shared = p[:, cosines >= 1.0 - 1e-9].T @ fa
    return OperatorAlgebra(shared.reshape(-1, a.dim, a.dim))


def block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    i = 0
    for b in blocks:
        out[i:i + b.shape[0], i:i + b.shape[0]] = b
        i += b.shape[0]
    return out


def _m3_times_1(rng):
    eye = np.eye(2)
    return vn_closure([np.kron(complex_normal(rng, (3, 3)), eye),
                       np.kron(complex_normal(rng, (3, 3)), eye)], 6)


def _m2_times_1_plus_c(rng):
    # M_2 (x) 1_2 (+) C 1_3 on C^7
    zero = np.zeros((3, 3))
    return vn_closure([block_diag(np.kron(complex_normal(rng, (2, 2)),
                                          np.eye(2)), zero)
                       for _ in range(2)], 7)


def _m2_plus_m2(rng):
    return vn_closure([block_diag(*complex_normal(rng, (2, 2), 2))
                       for _ in range(2)], 4)


# builder, linear dimension, dimension of the centre
REFERENCE_CASES = {
    "m3_x_1": (_m3_times_1, 9, 1),
    "m2_x_1_plus_c": (_m2_times_1_plus_c, 5, 2),
    "m2_plus_m2": (_m2_plus_m2, 8, 2),
    "diagonal": (lambda rng: vn_closure([np.diag(rng.standard_normal(4))], 4),
                 4, 4),
    # abelian with multiplicity three: the centre is the whole algebra
    "diagonal_x_1": (lambda rng: vn_closure(
        [np.kron(np.diag(complex_normal(rng, (3,))), np.eye(3))], 9), 3, 3),
    "scalars": (lambda rng: scalar_algebra(3), 1, 1),
    "full_m3": (lambda rng: full_matrix_algebra(3), 9, 1),
    "gns": (lambda rng: gns(random_density(rng, 2)).algebra, 4, 1),
}


class TestClosure:
    def test_empty_generators_give_scalars(self):
        alg = vn_closure([], 3)
        assert alg.size == 1
        assert alg.contains(np.eye(3))

    def test_pauli_pair_generates_full_algebra(self):
        alg = vn_closure([SX, SZ], 2)
        assert alg.size == 4
        # saturation oracle: every product of generators is inside
        for a in (SX, SZ, SX @ SZ, SZ @ SX @ SZ):
            assert alg.contains(a)

    def test_single_diagonal_generator(self):
        alg = vn_closure([SZ], 2)
        assert alg.size == 2
        assert alg.contains(np.diag([1.0, 0.0]))
        assert not alg.contains(SX)

    def test_validate_reports_closure(self):
        alg = vn_closure([SX, SZ], 2)
        worst = closure_residuals(alg)
        assert max(worst.values()) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vn_closure([SX], 3)

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_pairwise_reference(self, case):
        build, size, _ = REFERENCE_CASES[case]
        rng = np.random.default_rng(11)
        for _ in range(3):
            alg = build(rng)
            gens = alg.generators if alg.generators is not None else alg.basis
            closed = vn_closure(gens, alg.dim)
            ref = pairwise_closure(gens, alg.dim)
            assert closed.size == ref.size == size
            assert span_distance(closed, ref) < 1e-10
            # and the closure that multiplies the letters by the whole span
            assert_same_algebra(closed, letter_closure(gens, alg.dim))

    def test_tensor_factor_draws_match_letter_closure(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            gens = [np.kron(complex_normal(rng, (4, 4)), np.eye(4))
                    for _ in range(2)]
            with np.errstate(all="raise"):
                closed = vn_closure(gens, 16)
            assert closed.size == 16
            assert_same_algebra(closed, letter_closure(gens, 16))

    def test_each_pass_multiplies_only_the_new_directions(self, monkeypatch):
        # on M_4 (x) 1: 1 and the four letters, then the letters times the
        # 5 directions of that span, then times the 11 the pass added; the
        # letters times the whole span took SVDs of 25 and 80 rows
        shapes, row_space = [], vnalg.row_space

        def spy(a):
            shapes.append(a.shape)
            return row_space(a)

        monkeypatch.setattr(vnalg, "row_space", spy)
        rng = np.random.default_rng(1)
        gens = [np.kron(complex_normal(rng, (4, 4)), np.eye(4))
                for _ in range(2)]
        assert vn_closure(gens, 16).size == 16
        assert shapes == [(5, 256), (20, 256), (44, 256)]

    def test_bicommutant_draw_matches_pairwise_reference(self):
        # the benchmark's bicommutant op: vN({x (x) 1, y (x) 1}), x, y in M_4
        rng = np.random.default_rng(1)
        gens = [np.kron(complex_normal(rng, (4, 4)), np.eye(4))
                for _ in range(2)]
        with np.errstate(all="raise"):
            alg = vn_closure(gens, 16)
            ref = pairwise_closure(gens, 16)
        assert alg.size == ref.size == 16
        assert span_distance(alg, ref) < 1e-10
        assert max(closure_residuals(alg).values()) < 1e-10


class TestCommutant:
    def test_tensor_factor(self):
        alg = tensor_factor_algebra(2, 2)
        comm = commutant(alg, use_hint=False)
        assert comm.size == 4
        assert span_distance(comm, alg.commutant_hint) < 1e-10
        # brute-force commutation scan
        for a in alg.basis:
            for b in comm.basis:
                assert norm2(a @ b - b @ a) < 1e-10

    def test_hint_matches_generic(self):
        for k, m in [(2, 3), (3, 2)]:
            alg = tensor_factor_algebra(k, m)
            generic = commutant(alg, use_hint=False)
            assert span_distance(generic, alg.commutant_hint) < 1e-10

    def test_hinted_pair_freed_without_collector(self):
        """Dropping a tensor factor frees it and its hint at once: the pair
        forms no reference cycle left for the cyclic collector."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            alg = tensor_factor_algebra(3, 2)
            refs = [weakref.ref(alg), weakref.ref(alg.commutant_hint)]
            del alg
            assert [r() for r in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_full_algebra_commutant_is_scalars(self):
        comm = commutant(full_matrix_algebra(3), use_hint=False)
        assert comm.size == 1
        assert comm.contains(np.eye(3))

    def test_diagonal_algebra_is_own_commutant(self):
        alg = vn_closure([SZ], 2)
        comm = commutant(alg)
        assert comm.size == 2
        assert span_distance(alg, comm) < 1e-10

    def test_double_commutant(self):
        rng = np.random.default_rng(4)
        gens = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))]
        for alg in (vn_closure(gens, 4), tensor_factor_algebra(2, 2),
                    vn_closure([SZ], 2), scalar_algebra(3)):
            double = commutant(commutant(alg, use_hint=False), use_hint=False)
            assert span_distance(alg, double) < 1e-9

    def test_commutant_dimension_law(self):
        for k in range(2, 5):
            for m in range(2, 5):
                alg = tensor_factor_algebra(k, m)
                assert commutant(alg, use_hint=False).size == m * m


class TestCertifiedCommutant:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_stacked_reference(self, case):
        build, size, _ = REFERENCE_CASES[case]
        rng = np.random.default_rng(11)
        for _ in range(3):
            alg = build(rng)
            assert alg.size == size
            comm = commutant(alg, use_hint=False)
            ref = stacked_commutant(alg)
            assert comm.size == ref.size
            assert span_distance(comm, ref) < 1e-10
            double = commutant(comm)
            assert double.size == stacked_commutant(ref).size == alg.size
            assert span_distance(double, alg) < 1e-10

    def test_retry_after_scalar_draw(self, monkeypatch):
        draw = OperatorAlgebra.random_element
        residual = vnalg._commutator_residual
        draws, residuals = [], []

        def scalar_first(a, rng):
            z = draw(a, rng)
            draws.append(z)
            return np.eye(a.dim, dtype=complex) if len(draws) == 1 else z

        def record(basis, other):
            residuals.append(residual(basis, other))
            return residuals[-1]

        monkeypatch.setattr(OperatorAlgebra, "random_element", scalar_first)
        monkeypatch.setattr(vnalg, "_commutator_residual", record)
        alg = _m3_times_1(np.random.default_rng(5))
        comm = commutant(alg)
        assert len(draws) == 2
        assert residuals[0] > MEMBERSHIP_RTOL >= residuals[1]
        assert span_distance(comm, stacked_commutant(alg)) < 1e-10

    def test_nan_residual_is_kept(self):
        alg = tensor_factor_algebra(2, 2)
        hint = alg.commutant_hint.basis
        assert vnalg._commutator_residual(alg.basis, hint) < 1e-12
        basis = alg.basis.copy()
        basis[1, 0, 0] = np.nan
        assert np.isnan(vnalg._commutator_residual(basis, hint))

    def test_raises_when_every_draw_fails(self, monkeypatch):
        monkeypatch.setattr(OperatorAlgebra, "random_element",
                            lambda a, rng: np.zeros((a.dim, a.dim), complex))
        with pytest.raises(RuntimeError):
            commutant(tensor_factor_algebra(2, 2), use_hint=False)

    def test_bicommutant_m5_at_scale(self):
        rng = np.random.default_rng(3)
        eye = np.eye(5)
        alg = vn_closure([np.kron(x, eye)
                          for x in complex_normal(rng, (5, 5), 2)], 25)
        with np.errstate(all="raise"):
            comm = commutant(alg)
            double = commutant(comm)
            center, is_factor = center_and_factor(double)
        assert comm.size == 25 and double.size == alg.size == 25
        assert span_distance(double, alg) < 1e-10
        assert is_factor and center.size == 1

    def test_matrix_units_match_loop(self):
        for n in range(1, 13):
            units = np.zeros((n * n, n, n), dtype=complex)
            for i in range(n):
                for j in range(n):
                    units[i * n + j, i, j] = 1.0
            assert np.array_equal(matrix_units(n), units)

    def test_tensor_factor_bases_match_kron_loop(self):
        for d, m in [(1, 3), (2, 2), (2, 5), (4, 3)]:
            eye_m, eye_d = np.eye(m), np.eye(d)
            left = np.stack([np.kron(u, eye_m)
                             for u in matrix_units(d)]) / np.sqrt(m)
            right = np.stack([np.kron(eye_d, u)
                              for u in matrix_units(m)]) / np.sqrt(d)
            alg = tensor_factor_algebra(d, m)
            for basis, ref in ((alg.basis, left),
                               (alg.commutant_hint.basis, right)):
                assert basis.dtype == ref.dtype and basis.shape == ref.shape
                assert basis.tobytes() == ref.tobytes()


class TestCenterFactor:
    def test_tensor_factor_is_factor(self):
        center, is_factor = center_and_factor(tensor_factor_algebra(2, 2))
        assert is_factor and center.size == 1

    def test_diagonal_is_not_factor(self):
        alg = vn_closure([SZ], 2)
        center, is_factor = center_and_factor(alg)
        assert not is_factor
        assert span_distance(center, alg) < 1e-10

    def test_scalars_are_a_factor(self):
        _, is_factor = center_and_factor(scalar_algebra(2))
        assert is_factor

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_intersection_reference(self, case):
        build, _, center_size = REFERENCE_CASES[case]
        rng = np.random.default_rng(11)
        for _ in range(3):
            alg = build(rng)
            center, is_factor = center_and_factor(alg)
            ref = principal_intersection(alg, stacked_commutant(alg))
            assert center.size == ref.size == center_size
            assert is_factor == (center_size == 1)
            assert span_distance(center, ref) < 1e-10
            assert max(closure_residuals(center).values()) < 1e-10

    def test_m5_bicommutant_centre_peaks_at_a_few_blocks(self):
        """At most five size * n^2-entry complex blocks (1.19 MiB on
        M_5 (x) 1, read at 0.96); the whole commutator map took 23.9 MiB."""
        rng = np.random.default_rng(3)
        eye = np.eye(5)
        alg = vn_closure([np.kron(x, eye)
                          for x in complex_normal(rng, (5, 5), 2)], 25)
        double = commutant(commutant(alg))
        tracemalloc.start()
        try:
            center, is_factor = center_and_factor(double)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 16 * double.size * double.dim ** 2
        assert is_factor and center.size == 1
        assert span_distance(center, scalar_algebra(25)) < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_is_not_read_as_a_centre(self, bad):
        basis = tensor_factor_algebra(2, 2).basis.copy()
        basis[1, 0, 0] = bad
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            center_and_factor(OperatorAlgebra(basis))


class TestCyclicSeparating:
    def test_maximally_entangled(self):
        alg = tensor_factor_algebra(2, 2)
        omega = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert cyclic_separating(alg, omega) == (True, True)

    def test_product_vector(self):
        alg = tensor_factor_algebra(2, 2)
        omega = np.array([1, 0, 0, 0], dtype=complex)
        assert cyclic_separating(alg, omega) == (False, False)

    def test_full_algebra_cyclic_not_separating(self):
        rng = np.random.default_rng(0)
        alg = full_matrix_algebra(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert cyclic_separating(alg, v) == (True, False)

    def test_separating_iff_cyclic_for_commutant(self):
        rng = np.random.default_rng(8)
        alg = tensor_factor_algebra(2, 3)
        comm = commutant(alg)
        for _ in range(5):
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            v /= np.linalg.norm(v)
            _, sep = cyclic_separating(alg, v)
            cyc_comm, _ = cyclic_separating(comm, v)
            assert sep == cyc_comm

    # tomita decides the flags where it forms the orbit, and refuses a
    # vector that is not normalized before it does
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            tomita(full_matrix_algebra(2), np.zeros(2))

    def test_nan_vector_rejected_before_the_svd(self):
        with pytest.raises(ValueError, match="normalized"):
            tomita(tensor_factor_algebra(2, 2), np.full(4, np.nan, complex))


class TestGns:
    def test_faithful_state_single_factor(self):
        lam = 0.5
        rho = np.diag([1.0, lam]) / (1.0 + lam)
        rep = gns(rho)
        assert rep.dim == 4
        for x in matrix_units(2):
            expected = np.trace(rho @ x)
            got = np.vdot(rep.vector, rep.represent(x) @ rep.vector)
            assert abs(got - expected) < 1e-12
        assert cyclic_separating(rep.algebra, rep.vector) == (True, True)

    def test_pure_state_quotient(self):
        rep = gns(np.diag([1.0, 0.0]))
        assert rep.dim == 2
        cyc, sep = cyclic_separating(rep.algebra, rep.vector)
        assert cyc and not sep

    def test_representation_is_homomorphism(self):
        rng = np.random.default_rng(2)
        rep = gns(np.diag([0.5, 0.3, 0.2]))
        for _ in range(5):
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert norm2(rep.represent(x @ y)
                         - rep.represent(x) @ rep.represent(y)) < 1e-10

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            gns(np.diag([1.0, 1.0]))
        with pytest.raises(ValueError):
            gns(np.diag([1.5, -0.5]))


class TestSpanTools:
    @pytest.mark.parametrize("basis", [np.zeros((2, 3, 4)), np.zeros((3, 3)),
                                       np.zeros((1, 2, 2, 2))])
    def test_non_square_stack_refused(self, basis):
        with pytest.raises(ValueError, match="stack of square matrices"):
            OperatorAlgebra(basis)

    def test_dim_is_the_matrix_size(self):
        assert OperatorAlgebra(np.zeros((0, 4, 4))).dim == 4
        assert tensor_factor_algebra(2, 3).dim == 6

    def test_member_residual_of_a_stack(self):
        # a single matrix gives ||x - P x||_F bit for bit and is left as it
        # is; a stack gives the largest of its matrices' residuals.  The
        # algebra is M_3 (x) 1 without its split, so it projects onto its
        # basis; the partial trace of the split one agrees at roundoff.
        rng = np.random.default_rng(41)
        split = tensor_factor_algebra(3, 3)
        alg = OperatorAlgebra(split.basis)
        f = alg.basis.reshape(alg.size, -1)
        stack = (rng.standard_normal((5, 9, 9))
                 + 1j * rng.standard_normal((5, 9, 9)))
        stack[2] = alg.random_element(rng)
        singles = []
        for x in stack:
            kept = x.copy()
            proj = ((f @ x.flatten().conj()).conj() @ f).reshape(9, 9)
            singles.append(alg.member_residual(x))
            assert singles[-1] == np.linalg.norm(x - proj)
            assert np.array_equal(x, kept)
        assert singles[2] <= 1e-12 < min(singles[:2] + singles[3:])
        assert split.member_residual(stack.copy()) == pytest.approx(
            max(singles), rel=1e-13)
        assert alg.member_residual(stack) == pytest.approx(max(singles),
                                                           rel=1e-13)
        assert alg.member_residual(np.eye(9)) <= 1e-12  # real input
        assert split.member_residual(np.eye(9)) <= 1e-12


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("d,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
class TestTensorFactorSplit:
    """Membership in M_d (x) 1 (side 0) and in its commutant 1 (x) M_m (side
    1) is a partial trace; the reference is the dense projection onto the
    same basis, an algebra that carries no split."""

    @staticmethod
    def pair(d, m, side):
        alg = tensor_factor_algebra(d, m)
        split = (alg, alg.commutant_hint)[side]
        return split, OperatorAlgebra(split.basis), np.random.default_rng(
            [d, m, side])

    def test_split_is_recorded(self, d, m, side):
        split, dense, _ = self.pair(d, m, side)
        assert split.split == (d, m, side)
        assert dense.split is None
        assert commutant(split, use_hint=False).split is None

    def test_random_matrices(self, d, m, side):
        split, dense, rng = self.pair(d, m, side)
        n = d * m
        for x in [*complex_normal(rng, (4, n, n)),
                  rng.standard_normal((n, n))]:
            kept = x.copy()
            got, ref = split.member_residual(x), dense.member_residual(x)
            assert abs(got - ref) <= 1e-13 * ref
            assert np.array_equal(x, kept)

    def test_near_members(self, d, m, side):
        split, dense, rng = self.pair(d, m, side)
        n = d * m
        for _ in range(4):
            member = split.random_element(rng)
            assert split.member_residual(member) <= 1e-14 * norm2(member)
            x = member + 1e-10 * complex_normal(rng, (n, n))
            got, ref = split.member_residual(x), dense.member_residual(x)
            assert 1e-12 < ref <= MEMBERSHIP_RTOL * np.linalg.norm(x)
            assert abs(got - ref) <= 1e-5 * ref
            assert split.contains(x)

    def test_stack_overwritten_in_place(self, d, m, side):
        split, dense, rng = self.pair(d, m, side)
        n = d * m
        stack = complex_normal(rng, (5, n, n))
        stack[1] = split.random_element(rng)
        got, ref = stack.copy(), stack.copy()
        residual = split.member_residual(got)
        assert residual == pytest.approx(dense.member_residual(ref),
                                         rel=1e-13)
        # both hold the components off the span, and the member's is zero
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(stack))
        assert np.max(np.abs(got[1])) <= 1e-14 * np.max(np.abs(stack[1]))
        assert residual == pytest.approx(
            np.linalg.norm(got, axis=(1, 2)).max(), rel=1e-13)
        real = rng.standard_normal((3, n, n))
        kept = real.copy()
        split.member_residual(real)
        assert np.array_equal(real, kept)


    def test_split_reads_match_the_basis(self, d, m, side):
        # dim, size, elements and the orbits of a vector come from the
        # split, bit for bit what the basis stack gives; the conjugates
        # n conj(b) conj(n) of a run of the basis sum in another order on
        # M_d (x) 1, so they match to roundoff of the images' scale
        split, dense, rng = self.pair(d, m, side)
        assert (split.dim, split.size) == (dense.dim, dense.size)
        coeff = complex_normal(rng, (split.size,))
        assert np.array_equal(split.element(coeff), dense.element(coeff))
        omega = complex_normal(rng, (d * m,))
        for got, ref in zip(split.orbits(omega), dense.orbits(omega)):
            assert np.array_equal(got, ref)
        n = complex_normal(rng, (d * m, d * m))
        for idx in np.array_split(np.arange(split.size), 3):
            ref = n @ dense.basis[idx].conj() @ n.conj()
            assert np.array_equal(dense.conjugates(n, idx), ref)
            got = split.conjugates(n, idx)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_split_is_read_only_in_vnalg():
    # the tensor layout has one home: no other module reads or sets an
    # algebra's split (a call such as str.split is not a read)
    found = set()
    for path in pathlib.Path(vnalg.__file__).parent.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        called = {id(node.func) for node in nodes
                  if isinstance(node, ast.Call)}
        if any(isinstance(node, ast.Attribute) and node.attr == "split"
               and id(node) not in called for node in nodes):
            found.add(path.name)
    assert found == {"vnalg.py"}
