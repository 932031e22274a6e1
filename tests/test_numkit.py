"""Antilinear polar decomposition, realification, the rank rule, the
Krylov closure, the samplers, and the reference spectral calculus the
modular tests lean on."""

import ast
import pathlib
from math import comb

import numpy as np
import pytest

import vnlab
from reference import herm_fn
from vnlab import factors, fock, numkit
from vnlab.experiments import REGISTRY
from vnlab.locwedge import real_subspace_from_vectors
from vnlab.numkit import (BYTE_BUDGET, RANK_RTOL, AntilinearMap,
                          antilinear_polar, complex_normal, dagger,
                          embed_real, haar_pure_state, krylov, nonzero_mask,
                          norm2, null_space, random_density, rank,
                          real_linearize, require_budget, row_space,
                          unembed_real)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + dagger(g))


def delta_from(w, u):
    """Delta multiplied out from its eigenpair."""
    return (u * w) @ dagger(u)


def random_invertible(rng, n, smin=0.3, smax=3.0):
    """Matrix with singular values bounded away from zero."""
    g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q1, _ = np.linalg.qr(g1)
    q2, _ = np.linalg.qr(g2)
    s = rng.uniform(smin, smax, size=n)
    return (q1 * s) @ q2


class TestHermFn:
    """The reference spectral calculus behind the delta_power and
    antilinear_polar checks."""

    def test_exp_of_zero_is_identity(self):
        assert np.allclose(herm_fn(np.zeros((3, 3)), "exp"), np.eye(3))

    def test_imaginary_power_diagonal(self):
        lam, t = 0.37, 1.3
        h = np.diag([1.0, lam]).astype(complex)
        u = herm_fn(h, "ipower", t)
        assert np.allclose(np.diag(u), [1.0, lam ** (1j * t)])
        assert norm2(dagger(u) @ u - np.eye(2)) < 1e-12

    def test_sqrt_diagonal(self):
        h = np.diag([4.0, 0.25]).astype(complex)
        assert np.allclose(herm_fn(h, "sqrt"), np.diag([2.0, 0.5]))

    def test_ipower_group_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            h = random_hermitian(rng, 5)
            h = h @ dagger(h) + 0.1 * np.eye(5)  # positive
            t = rng.uniform(-3, 3)
            prod = herm_fn(h, "ipower", t) @ herm_fn(h, "ipower", -t)
            assert norm2(prod - np.eye(5)) <= 1e-10

    def test_eigh_residual_contract(self):
        rng = np.random.default_rng(3)
        for n in (4, 8, 16):
            h = random_hermitian(rng, n)
            w, v = np.linalg.eigh(h)
            res = np.linalg.norm(h @ v - v * w, axis=0)
            assert res.max() <= 1e-10 * norm2(h)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            herm_fn(np.array([[0.0, 1.0], [0.0, 0.0]]), "exp")

    def test_hermiticity_slack_scales_with_norm(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 6)
        h *= 1e6 / norm2(h)
        g = random_hermitian(rng, 6)
        skew = 1j * g / norm2(g)  # anti-Hermitian, norm 1
        herm_fn(h + 1e-6 * skew, "power", 1.0)
        with pytest.raises(ValueError, match="Hermitian"):
            herm_fn(h + 1e-2 * skew, "power", 1.0)

    def test_no_eigvalsh(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 5)
        herm_fn(h, "exp")
        herm_fn(h @ h + np.eye(5), "ipower", 0.7)

    def test_rejects_log_of_non_positive(self):
        h = np.diag([1.0, -0.5])
        for fn in ("log", "sqrt", "ipower"):
            with pytest.raises(ValueError):
                herm_fn(h, fn, t=1.0)
        with pytest.raises(ValueError):
            herm_fn(h, "power", -1.0)


class TestAntilinearMap:
    def test_conjugate_linearity(self):
        rng = np.random.default_rng(1)
        m = AntilinearMap(random_invertible(rng, 4))
        for _ in range(8):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            c = complex(rng.standard_normal(), rng.standard_normal())
            assert np.linalg.norm(m(c * v) - np.conj(c) * m(v)) < 1e-12

    def test_adjoint_inner_product_identity(self):
        rng = np.random.default_rng(2)
        s = AntilinearMap(random_invertible(rng, 5))
        sa = AntilinearMap(s.mat.T)  # the adjoint is plain transposition
        for _ in range(6):
            phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            assert abs(np.vdot(phi, s(psi)) - np.vdot(psi, sa(phi))) < 1e-12

    def test_polar_of_plain_conjugation(self):
        s = AntilinearMap(np.eye(3))
        j, w, u = antilinear_polar(s)
        assert np.allclose(j.mat, np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.allclose(u @ dagger(u), np.eye(3))

    def test_polar_diagonal_example(self):
        s = AntilinearMap(np.diag([2.0, 0.5]))
        j, w, u = antilinear_polar(s)
        assert np.allclose(w, [0.25, 4.0])
        delta = delta_from(w, u)
        assert np.allclose(delta, np.diag([4.0, 0.25]))
        assert np.allclose(j.mat, np.eye(2))
        # brute-force inner-product check of delta = S* S on basis vectors
        sa = AntilinearMap(s.mat.T)
        for i in range(2):
            e = np.eye(2)[i].astype(complex)
            assert np.allclose(sa(s(e)), delta @ e)

    def test_polar_reconstruction_100_random(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            n = int(rng.integers(2, 17))
            s = AntilinearMap(random_invertible(rng, n))
            j, w, u = antilinear_polar(s)
            # the eigenpair is that of Delta = M^T conj(M), ascending
            delta = s.mat.T @ np.conj(s.mat)
            assert np.all(np.diff(w) >= 0)
            assert norm2(delta @ u - u * w) <= 1e-12 * w[-1]
            assert norm2(dagger(u) @ u - np.eye(n)) <= 1e-12 * n
            sqrt_delta = herm_fn(delta, "sqrt")
            recon = j @ sqrt_delta
            assert norm2(s.mat - recon.mat) <= 1e-10
            assert norm2(dagger(j.mat) @ j.mat - np.eye(n)) <= 1e-10 * n
            # J = U V* from the SVD is S Delta^{-1/2} of the spectral calculus
            ref = s.mat @ np.conj(herm_fn(delta, "power", -0.5))
            assert norm2(j.mat - ref) <= 1e-12

    def test_polar_one_svd_no_eigensolve(self, monkeypatch):
        calls = {"svd": 0}
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls["svd"] += 1
            return svd(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("eigensolve called")

        s = AntilinearMap(random_invertible(np.random.default_rng(8), 6))
        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        antilinear_polar(s)
        assert calls["svd"] == 1

    def test_jdj_inverse_when_involutive(self):
        # S from a standard pair squares to one; then J Delta J = Delta^{-1}
        d = np.diag([3.0, 1 / 3.0])
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = AntilinearMap(flip @ np.sqrt(d))
        assert norm2(s @ s - np.eye(2)) < 1e-12
        j, w, u = antilinear_polar(s)
        delta = delta_from(w, u)
        jdj = j.mat @ delta.conj() @ j.mat.conj()
        assert norm2(jdj - np.linalg.inv(delta)) < 1e-12

    def test_polar_rejects_singular(self):
        # sigma_min = 1e-7 passes sigma_min > VALIDITY_ATOL, but Delta's
        # smallest eigenvalue 1e-14 is below the strict-positivity slack
        rng = np.random.default_rng(9)
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        nearly = (q1 * np.array([2.0, 1.0, 0.5, 1e-7])) @ q2
        # the last makes Delta = S* S = diag(1, 0.5, 0, 2)
        for m in (np.diag([1.0, 0.0]), nearly,
                  np.sqrt(np.diag([1.0, 0.5, 0.0, 2.0]))):
            with pytest.raises(ValueError, match="invertible"):
                antilinear_polar(AntilinearMap(m))

    def test_polar_rejects_nan(self, monkeypatch):
        # a NaN entry stops the SVD itself; a NaN singular value that came
        # through would fail the strict-positivity test as written
        m = np.eye(4, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            antilinear_polar(AntilinearMap(m))
        svd = np.linalg.svd

        def nan_last(*args, **kwargs):
            u, sv, vh = svd(*args, **kwargs)
            sv[-1] = np.nan
            return u, sv, vh

        monkeypatch.setattr(np.linalg, "svd", nan_last)
        with pytest.raises(ValueError, match="invertible"):
            antilinear_polar(AntilinearMap(np.eye(4)))


class TestRealLinearize:
    def test_multiplication_by_i(self):
        r = real_linearize(1j * np.eye(2))
        expected = np.block([[np.zeros((2, 2)), -np.eye(2)],
                             [np.eye(2), np.zeros((2, 2))]])
        assert np.allclose(r, expected)

    def test_conjugation_block_signs(self):
        r = real_linearize(AntilinearMap(np.eye(3)))
        expected = np.diag([1.0] * 3 + [-1.0] * 3)
        assert np.allclose(r, expected)

    def test_action_commutes_with_embedding(self):
        rng = np.random.default_rng(5)
        for op in (random_invertible(rng, 4),
                   AntilinearMap(random_invertible(rng, 4))):
            r = real_linearize(op)
            for _ in range(4):
                v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                image = op @ v if isinstance(op, np.ndarray) else op(v)
                assert np.allclose(r @ embed_real(v), embed_real(image))

    def test_composition_homomorphism(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            ops = []
            for _ in range(2):
                m = random_invertible(rng, 3)
                ops.append(AntilinearMap(m) if rng.random() < 0.5 else m)
            a, b = ops
            lhs = real_linearize(a @ b)
            rhs = real_linearize(a) @ real_linearize(b)
            assert norm2(lhs - rhs) <= 1e-12

    def test_unembed_roundtrip(self):
        v = np.array([1 + 2j, -0.5j, 3.0])
        assert np.allclose(unembed_real(embed_real(v)), v)


def with_singular_values(rng, s, rows, cols):
    """rows x cols matrix with the given singular values (len(s) <= both)."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows))
                        + 1j * rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols))
                        + 1j * rng.standard_normal((cols, cols)))
    k = len(s)
    return (u[:, :k] * np.asarray(s)) @ dagger(v[:, :k])


class TestRankRule:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_values_straddling_the_cut(self, scale):
        # the cut is RANK_RTOL * max(1, s.max()): absolute below scale 1
        cut = RANK_RTOL * max(1.0, scale)
        s = [scale, 0.5 * scale, 2.0 * cut, 0.5 * cut]
        assert nonzero_mask(np.array(s)).tolist() == [True, True, True, False]
        a = with_singular_values(np.random.default_rng(1), s, 6, 5)
        assert rank(a) == 3
        ns = null_space(a)
        assert ns.shape == (2, 5)
        assert np.allclose(ns @ dagger(ns), np.eye(2))
        assert norm2(a @ ns.T) <= cut
        rs = row_space(a)
        assert rs.shape == (3, 5)
        assert norm2(rs @ ns.T) <= 1e-12

    def test_zero_matrix(self):
        z = np.zeros((3, 4))
        assert rank(z) == 0
        assert row_space(z).shape == (0, 4)
        ns = null_space(z)
        assert ns.shape == (4, 4)
        assert np.allclose(ns @ dagger(ns), np.eye(4))

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    def test_empty_matrix(self, shape):
        # no rows or no columns: rank 0, and the null space is the whole
        # column space, as for a zero matrix
        cols = shape[1]
        z = np.zeros(shape)
        assert rank(z) == 0
        assert row_space(z).shape == (0, cols)
        ns = null_space(z)
        assert ns.shape == (cols, cols)
        assert np.allclose(ns @ dagger(ns), np.eye(cols))

    def test_wide_matrix_needs_full_v(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        assert rank(a) == 2
        ns = null_space(a)
        assert ns.shape == (3, 5)
        assert norm2(a @ ns.T) <= 1e-12
        assert np.allclose(ns @ dagger(ns), np.eye(3))

    def test_tall_matrix_uses_economy_svd(self, monkeypatch):
        rng = np.random.default_rng(3)
        a = with_singular_values(rng, [2.0, 1.0], 40, 3)
        calls = []
        svd = np.linalg.svd

        def spy(m, *args, **kwargs):
            calls.append(kwargs.get("full_matrices", True))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        ns = null_space(a)
        assert calls == [False]
        assert ns.shape == (1, 3)
        assert norm2(a @ ns.T) <= 1e-12

    def test_psd_spectrum(self):
        # eigenvalues of a PSD matrix, with roundoff below zero; the cut is
        # absolute below a largest eigenvalue of 1 and relative above it
        w = np.array([-1e-15, 3e-11, 2e-10, 0.4])
        assert nonzero_mask(w).tolist() == [False, False, True, True]
        w = np.array([-1e-12, 3e-9, 2e-8, 400.0])
        assert nonzero_mask(w).tolist() == [False, False, False, True]

    def test_stacked_ranks_match_one_by_one(self):
        rng = np.random.default_rng(4)
        spectra = [[1.0, 0.5, 1e-3], [2.0, 1e-12, 0.0], [0.0, 0.0, 0.0],
                   [3e3, 4e-7, 1e-7], [1e-9, 1e-11, 0.0]]
        stack = np.stack([with_singular_values(rng, s, 4, 3) for s in spectra])
        sv = np.linalg.svd(stack, compute_uv=False)
        assert np.array_equal(nonzero_mask(sv),
                              np.stack([nonzero_mask(s) for s in sv]))
        got = rank(stack)
        assert got.tolist() == [rank(m) for m in stack] == [3, 1, 0, 2, 1]
        assert rank(stack.reshape(5, 1, 4, 3)).shape == (5, 1)

    def test_nan_spectrum_keeps_scalar_cut(self):
        w = np.array([np.nan, 0.5, 1e-11])
        assert nonzero_mask(w).tolist() == [False, True, False]


class TestKrylov:
    """The one Krylov closure, which vnalg.vn_closure and fock.cyclicity_rank
    grow their spans by."""

    def test_steps_caps_the_passes(self):
        # the cyclic shift on C^8 adds one row a pass from e_0, and the
        # ninth pass adds none
        shift = np.roll(np.eye(8), 1, axis=0)
        calls = []

        def step(rows):
            calls.append(len(rows))
            return rows @ shift.T

        for steps in (0, 1, 3, -1):
            calls.clear()
            span, sizes = krylov(np.eye(8, dtype=complex)[:1], step, steps)
            passes = 8 if steps == -1 else steps
            assert calls == [1] * passes
            assert sizes == [min(j + 1, 8) for j in range(passes + 1)]
            assert len(span) == sizes[-1]

    def test_a_pass_that_adds_nothing_stops_the_growth(self):
        # a diagonal step commutes with the span of e_0 and e_1: the first
        # pass adds nothing and there is no second
        calls = []

        def step(rows):
            calls.append(len(rows))
            return rows @ np.diag([1.0, 2.0, 3.0, 4.0])

        start = np.eye(4, dtype=complex)[:2]
        span, sizes = krylov(start, step)
        assert calls == [2] and sizes == [2, 2]
        assert np.array_equal(span, start)

    def test_span_is_orthonormal_and_sizes_count_its_rows(self):
        rng = np.random.default_rng(3)
        a = complex_normal(rng, (12, 12))
        start = row_space(complex_normal(rng, (2, 12)))

        def step(rows):
            return rows @ a.T

        span, sizes = krylov(start, step)
        assert sizes == [2, 4, 6, 8, 10, 12, 12]
        assert norm2(span @ dagger(span) - np.eye(12)) <= 1e-12
        for passes, size in enumerate(sizes):
            grown, _ = krylov(start, step, passes)
            assert len(grown) == size
            assert np.array_equal(grown, span[:size])


class TestNorm2:
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_matches_svd_norm(self, n):
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = rng.standard_normal((n, n))
        cases = [g + dagger(g), g - dagger(g), r + r.T, r - r.T, g, r,
                 g[:, : max(1, n - 1)], 1j * np.eye(n) + (g - dagger(g))]
        for a in cases:
            ref = np.linalg.norm(a, 2)
            assert abs(norm2(a) - ref) <= 1e-13 * ref

    def test_vector_and_empty(self):
        assert norm2(np.array([3.0, 4.0])) == 5.0
        assert norm2(np.zeros((0, 3))) == 0.0
        assert norm2(np.zeros((9, 9), dtype=complex)) == 0.0


def test_rank_decisions_live_in_numkit():
    """Outside numkit, no function takes an SVD or a matrix rank, or calls
    lstsq or pinv, which make a rank cut of their own."""
    found = set()
    for path in pathlib.Path(vnlab.__file__).parent.glob("*.py"):
        if path.name == "numkit.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("svd", "matrix_rank",
                                               "lstsq", "pinv")):
                    found.add((path.stem, fn.name, node.func.attr))
    assert found == set()


def test_tolerances_are_not_arguments():
    """No function takes a tol, rtol or *_tol argument and no module
    rebinds a global: RANK_RTOL and VALIDITY_ATOL are the only tolerances
    shared across the package, and nothing overrides them."""
    knobs, rebinds = set(), set()
    for path in pathlib.Path(vnlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arguments):
                args = (*node.posonlyargs, *node.args, *node.kwonlyargs,
                        node.vararg, node.kwarg)
                knobs |= {(path.stem, a.arg) for a in args if a is not None
                          and (a.arg in ("tol", "rtol")
                               or a.arg.endswith("_tol"))}
            elif isinstance(node, ast.Global):
                rebinds.add(path.stem)
    assert knobs == set()
    assert rebinds == set()


class TestByteBudget:
    def test_refuses_above_the_budget(self):
        require_budget(BYTE_BUDGET, "a build at the budget")
        # one dense operator at d = n_max = 1000 is far past any float
        for nbytes in (BYTE_BUDGET + 1, 16 * comb(2000, 1000) ** 2):
            with pytest.raises(ValueError, match="over the byte budget"):
                require_budget(nbytes, "a build")

    def test_builders_refuse_through_the_one_budget(self, monkeypatch):
        f = fock.FockSpace(2, 2)
        k = real_subspace_from_vectors(np.eye(2))
        # below one dense operator on the six states of FockSpace(2, 2)
        monkeypatch.setattr(numkit, "BYTE_BUDGET", 16 * 6 ** 2 - 1)
        with pytest.raises(ValueError, match="over the byte budget"):
            fock.FockSpace(2, 2)
        with pytest.raises(ValueError, match="over the byte budget"):
            fock.cyclicity_rank(f, k, 1)
        # an approximant's fixed 16 KiB is over the lowered budget too
        with pytest.raises(ValueError, match="over the byte budget"):
            factors.powers_approximant(0.5, 1)

    @pytest.mark.parametrize("name,key", [("kms-random", "max_k"),
                                          ("modular-flow", "k"),
                                          ("modular-spectrum", "max_k")])
    def test_factor_size_maximum_from_the_budget(self, name, key):
        # the cap is for run time: a run builds no basis stack of M_k (x) 1
        assert REGISTRY[name].schema[key].maximum == 12


def _haar_pure_state_loop(rng, dim, count):
    """Reference form: one draw and one norm per sample."""
    out = []
    for _ in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append(v / np.linalg.norm(v))
    return np.array(out)


def _random_density_loop(rng, n, count):
    """Reference form: one Ginibre draw and one product per sample."""
    out = []
    for _ in range(count):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = g @ g.conj().T
        out.append(rho / np.trace(rho).real)
    return np.array(out)


class TestSamplers:
    """A stacked draw consumes the generator as the per-sample loop does."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_haar_stack_matches_loop(self, seed, dim):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        stack = haar_pure_state(rng_a, dim, 400)
        ref = _haar_pure_state_loop(rng_b, dim, 400)
        assert stack.shape == (400, dim)
        assert np.max(np.abs(stack - ref)) <= 1e-15
        assert np.allclose(np.linalg.norm(stack, axis=1), 1.0, atol=1e-15)
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_haar_single_draw_is_a_stack_row(self):
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        stack = haar_pure_state(rng_a, 4, 50)
        singles = np.array([haar_pure_state(rng_b, 4) for _ in range(50)])
        assert singles.shape == (50, 4)
        assert np.array_equal(stack, singles)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_density_stack_matches_loop(self, seed, n):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        stack = random_density(rng_a, n, 200)
        ref = _random_density_loop(rng_b, n, 200)
        assert stack.shape == (200, n, n)
        assert np.max(np.abs(stack - ref)) <= 1e-15
        assert np.allclose(np.trace(stack, axis1=1, axis2=2), 1.0)
        assert np.max(np.abs(stack - dagger(stack))) <= 1e-15
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_complex_normal_stack_is_the_loop(self):
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        stack = complex_normal(rng_a, (3, 5), 20)
        ref = [rng_b.standard_normal((3, 5)) + 1j * rng_b.standard_normal((3, 5))
               for _ in range(20)]
        assert np.array_equal(stack, ref)
        assert complex_normal(rng_a, (2,)).shape == (2,)

    def test_dagger_of_a_stack(self):
        rng = np.random.default_rng(4)
        stack = complex_normal(rng, (3, 2), 5)
        assert np.array_equal(dagger(stack), [m.conj().T for m in stack])

