"""Tomita engine: S, Delta, J, modular flow, KMS, commutant map, purification."""

from dataclasses import replace

import numpy as np
import pytest

from reference import cyclic_separating, full_matrix_algebra, gns, herm_fn
from vnlab import channels, modular, vnalg
from vnlab.modular import ModularData, check, modular_flow, purify, tomita
from vnlab.numkit import (AntilinearMap, antilinear_polar, complex_normal,
                          dagger, haar_unitary, norm2)
from vnlab.vnalg import (OperatorAlgebra, commutant, matrix_units,
                         tensor_factor_algebra, vn_closure)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def powers_pair(lam):
    rho = np.diag([1.0, lam]) / (1.0 + lam)
    omega = purify(rho, 2)
    return tensor_factor_algebra(2, 2), omega, rho


# ---------------------------------------------------------- reference forms
# One identity at a time, one element at a time: the oracles that the
# batched `check` is compared with.

def kms_defect(md, x, y):
    """|<O, x y O> - <O, y Delta x O>| for one pair."""
    omega = md.omega
    lhs = np.vdot(omega, x @ (y @ omega))
    rhs = np.vdot(omega, y @ (md.delta @ (x @ omega)))
    return float(abs(lhs - rhs))


def conjugate_by_j(md, x):
    """J x J = N conj(x) conj(N) as a linear matrix, N the matrix of J; a
    stack of x maps matrix by matrix."""
    return md.j.mat @ x.conj() @ md.j.mat.conj()


def commutant_map_check(md, x):
    """Image J x J and its residual off the commutant's span."""
    image = conjugate_by_j(md, x)
    return image, md.algebra_commutant.member_residual(image)


def flow_defects_loop(md, flows):
    """Per-sample group law and membership of the flow.  The flow is applied
    without `modular_flow`'s membership guard, so that data made wrong on
    purpose reports its defects instead of raising."""
    def flow(x, t):
        u = md.delta_power(1j * t)
        return u @ x @ dagger(u)

    group_max, member_max = 0.0, 0.0
    for t, s, x in flows:
        one = flow(flow(x, s), t)
        two = flow(x, t + s)
        group_max = max(group_max, float(np.linalg.norm(one - two)))
        member_max = max(member_max, md.algebra.member_residual(two))
    return group_max, member_max


def draw_flows(rng, alg, count):
    flows = []
    for _ in range(count):
        t, s = rng.uniform(-2, 2, size=2)
        x = alg.random_element(rng)
        flows.append((t, s, x / np.linalg.norm(x)))
    return flows


def random_pair(rng, k):
    q = 0.3 + rng.random(k)
    q /= q.sum()
    u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    omega = ((u * np.sqrt(q)) @ v.T).flatten()
    return tensor_factor_algebra(k, k), omega


class TestTomita:
    def test_maximally_entangled_gives_tracial_data(self):
        alg = tensor_factor_algebra(2, 2)
        omega = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        md = tomita(alg, omega)
        assert norm2(md.delta - np.eye(4)) < 1e-12
        # J = tensor flip composed with conjugation
        flip = np.zeros((4, 4))
        for a in range(2):
            for b in range(2):
                flip[b * 2 + a, a * 2 + b] = 1.0
        assert norm2(md.j.mat - flip) < 1e-12
        # tracial KMS reduces to <xy> = <yx>
        for x in alg.basis:
            for y in alg.basis:
                assert kms_defect(md, x, y) < 1e-12

    def test_powers_state_spectrum(self):
        alg, omega, _ = powers_pair(0.5)
        md = tomita(alg, omega)
        assert np.allclose(md.delta_spectrum, [0.5, 1.0, 1.0, 2.0], atol=1e-10)

    def test_abelian_diagonal_case(self):
        alg = vn_closure([SZ], 2)
        omega = np.array([1, 1], dtype=complex) / np.sqrt(2)
        md = tomita(alg, omega)
        assert norm2(md.delta - np.eye(2)) < 1e-12
        assert norm2(md.j.mat - np.eye(2)) < 1e-12
        # J A J = A = A' in the abelian case
        comm = commutant(alg)
        for x in alg.basis:
            img = conjugate_by_j(md, x)
            assert alg.member_residual(img) < 1e-10
            assert comm.member_residual(img) < 1e-10

    def test_invariants_on_random_pairs(self):
        rng = np.random.default_rng(12)
        for k in (2, 3, 4):
            alg, omega = random_pair(rng, k)
            md = tomita(alg, omega)
            d = check(md)
            assert d["s_reconstruction"] <= 1e-10
            assert d["s_squared"] <= 1e-9
            assert d["j_squared"] <= 1e-9
            assert d["jdj_inverse"] <= 1e-9
            assert d["s_omega"] <= 1e-10
            assert d["delta_omega"] <= 1e-10
            assert md.solve_residual <= 1e-10

    def test_s_acts_as_star_on_orbit(self):
        rng = np.random.default_rng(3)
        alg, omega = random_pair(rng, 3)
        md = tomita(alg, omega)
        for b in alg.basis:
            assert np.linalg.norm(md.s(b @ omega) - dagger(b) @ omega) < 1e-10

    def test_forms_the_orbit_and_its_adjoint_once(self, monkeypatch):
        # without a split, one pass over the basis stack gives b_i omega,
        # whose rank also decides cyclic and separating, and one gives
        # b_i* omega; M_k (x) 1 reads both off omega, bit for bit the same
        alg, omega = random_pair(np.random.default_rng(7), 3)
        dense = OperatorAlgebra(alg.basis)
        calls, einsum = [], np.einsum

        def counted(subscripts, *operands, **kwargs):
            calls.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        md = tomita(dense, omega)
        assert len(calls) == 2
        assert np.array_equal(md.orbit, (alg.basis @ omega).T)
        assert norm2(md.adjoint_orbit - (dagger(alg.basis) @ omega).T) \
            < 1e-15
        split = tomita(alg, omega)
        assert len(calls) == 2
        assert np.array_equal(split.orbit, md.orbit)
        assert np.array_equal(split.adjoint_orbit, md.adjoint_orbit)

    def test_solve_residual_reads_the_instance(self):
        # the residual of S conj(orbit) = adjoint orbit comes from the
        # fields kept, so data changed after the solve shows in it
        md = tomita(*random_pair(np.random.default_rng(8), 3))
        assert md.solve_residual <= 1e-12
        s = md.s.mat.copy()
        s[0, 1] += 1e-3
        assert md.solve_residual < 1e-6 \
            < replace(md, s=AntilinearMap(s)).solve_residual

    @pytest.mark.parametrize("hinted", [True, False])
    def test_solves_no_commutant(self, monkeypatch, hinted):
        # both flags come from one orbit rank, so
        # tomita needs the commutant neither as a hint nor by a generic solve
        alg, omega = random_pair(np.random.default_rng(5), 2)
        if not hinted:
            alg = OperatorAlgebra(alg.basis)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return commutant(*args, **kwargs)

        monkeypatch.setattr(vnalg, "commutant", counted)
        monkeypatch.setattr(modular, "commutant", counted)
        tomita(alg, omega)
        assert calls == []

    def test_rejects_non_cyclic_or_non_separating(self):
        alg = tensor_factor_algebra(2, 2)
        with pytest.raises(ValueError, match="cyclic"):
            tomita(alg, np.array([1, 0, 0, 0], dtype=complex))
        full = full_matrix_algebra(2)
        with pytest.raises(ValueError, match="separating"):
            tomita(full, np.array([1, 0], dtype=complex))

    def test_unit_norm_checked_at_validity_atol(self):
        # a vector 1e-9 off unit norm passed the old 1e-8 literal; the
        # modular engine and the local preparation now refuse it alike
        alg, omega, _ = powers_pair(0.5)
        xi = np.array([0.6, 0.8j])
        split = channels.SplitData(2, 2)
        for scale in (1.0 + 1e-9, 1.0 - 1e-9):
            with pytest.raises(ValueError, match="normalized"):
                tomita(alg, scale * omega)
            with pytest.raises(ValueError, match="unit vector"):
                channels.local_prepare_channel(split, scale * xi)
        tomita(alg, (1.0 + 1e-12) * omega)
        channels.local_prepare_channel(split, (1.0 + 1e-12) * xi)


class TestDeltaPower:
    def test_matches_spectral_calculus(self):
        rng = np.random.default_rng(29)
        for k in (2, 3, 4):
            alg, omega = random_pair(rng, k)
            md = tomita(alg, omega)
            pairs = [(0.5, herm_fn(md.delta, "sqrt")),
                     (-1.0, herm_fn(md.delta, "power", -1.0))]
            for t in (-1.3, 0.4, 2.0):
                pairs.append((1j * t, herm_fn(md.delta, "ipower", t)))
            for z, ref in pairs:
                assert norm2(md.delta_power(z) - ref) <= 1e-12

    def test_one_factorization_per_instance(self, monkeypatch):
        # the spectrum, the polar checks and every flow are read from the
        # one SVD of antilinear_polar: no eigensolve and no least squares
        calls = {"eigh": 0, "eigvalsh": 0, "lstsq": 0}

        def counting(name):
            solver = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return solver(*args, **kwargs)
            return counted

        polar = []

        def spy(s):
            polar.append(antilinear_polar(s))
            return polar[-1]

        rng = np.random.default_rng(31)
        alg, omega = random_pair(rng, 3)
        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        monkeypatch.setattr(modular, "antilinear_polar", spy)
        md = tomita(alg, omega)
        spectrum = md.delta_spectrum
        check(md, draw_flows(rng, alg, 4))
        for t in np.linspace(-2.0, 2.0, 10):
            modular_flow(md, alg.basis[1], t)
        assert calls == {"eigh": 0, "eigvalsh": 0, "lstsq": 0}
        assert len(polar) == 1
        _, w, u = polar[0]
        assert md.delta_eigh[0] is w and md.delta_eigh[1] is u
        assert spectrum is w

    def test_rejects_non_positive_delta(self):
        # omega passes the rank test for cyclic and separating, but Delta's
        # spectrum {lam, 1, 1, 1/lam} has min/max = 1e-12, below the
        # strict-positivity slack; tomita refuses it, no ModularData exists
        alg, omega, _ = powers_pair(1e-6)
        assert cyclic_separating(alg, omega) == (True, True)
        with pytest.raises(ValueError, match="invertible"):
            tomita(alg, omega)
        tomita(*powers_pair(1e-4)[:2])


class TestModularFlow:
    def test_flow_at_zero(self):
        rng = np.random.default_rng(5)
        alg, omega = random_pair(rng, 2)
        md = tomita(alg, omega)
        x = alg.basis[2]
        assert norm2(modular_flow(md, x, 0.0) - x) < 1e-12

    def test_powers_flow_phase(self):
        # off-diagonal matrix units pick up the eigenvalue-ratio phase: with
        # Delta = S*S the element |e2><e1| (x) 1 rotates by lam^{it}
        lam, t = 0.5, 0.8
        alg, omega, _ = powers_pair(lam)
        md = tomita(alg, omega)
        e21 = np.kron(np.array([[0, 0], [1, 0]], dtype=complex), np.eye(2))
        flowed = modular_flow(md, e21, t)
        assert norm2(flowed - lam ** (1j * t) * e21) < 1e-10
        e12 = dagger(e21)
        flowed = modular_flow(md, e12, t)
        assert norm2(flowed - lam ** (-1j * t) * e12) < 1e-10

    def test_tracial_flow_is_trivial(self):
        alg = tensor_factor_algebra(2, 2)
        omega = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        md = tomita(alg, omega)
        for t in (0.3, -1.7):
            for x in alg.basis:
                assert norm2(modular_flow(md, x, t) - x) < 1e-12

    def test_flow_preserves_algebra(self):
        rng = np.random.default_rng(9)
        alg, omega = random_pair(rng, 3)
        md = tomita(alg, omega)
        for _ in range(20):
            t = rng.uniform(-2, 2)
            x = alg.element(rng.standard_normal(alg.size)
                            + 1j * rng.standard_normal(alg.size))
            x /= np.linalg.norm(x)
            assert alg.member_residual(modular_flow(md, x, t)) <= 1e-8

    def test_rejects_outside_element(self):
        alg = vn_closure([SZ], 2)
        omega = np.array([1, 1], dtype=complex) / np.sqrt(2)
        md = tomita(alg, omega)
        with pytest.raises(ValueError):
            modular_flow(md, np.array([[0, 1], [1, 0]], dtype=complex), 0.5)


class TestKms:
    def test_identity_pair(self):
        rng = np.random.default_rng(1)
        alg, omega = random_pair(rng, 2)
        md = tomita(alg, omega)
        eye = np.eye(4, dtype=complex)
        assert kms_defect(md, eye, eye) < 1e-14

    def test_random_pairs_m3(self):
        # independent oracle: both sides from raw inner products, with Delta
        # applied through its spectral decomposition
        rng = np.random.default_rng(21)
        alg, omega = random_pair(rng, 3)
        md = tomita(alg, omega)
        w, u = np.linalg.eigh(md.delta)
        worst = 0.0
        for _ in range(50):
            cx = rng.standard_normal(alg.size) + 1j * rng.standard_normal(alg.size)
            cy = rng.standard_normal(alg.size) + 1j * rng.standard_normal(alg.size)
            x, y = alg.element(cx), alg.element(cy)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            lhs = np.vdot(omega, x @ y @ omega)
            rhs = np.vdot(omega, y @ ((u * w) @ dagger(u)) @ x @ omega)
            worst = max(worst, abs(lhs - rhs))
            assert abs(kms_defect(md, x, y) - abs(lhs - rhs)) < 1e-12
        assert worst < 1e-9

    def test_negative_control_squared_delta(self):
        rng = np.random.default_rng(2)
        alg, omega = random_pair(rng, 2)
        md = tomita(alg, omega)
        delta2 = md.delta @ md.delta
        worst = 0.0
        for x in alg.basis:
            for y in alg.basis:
                lhs = np.vdot(omega, x @ y @ omega)
                rhs = np.vdot(omega, y @ delta2 @ x @ omega)
                worst = max(worst, abs(lhs - rhs))
        assert worst > 0.01


class TestCommutantMap:
    def test_flip_conjugation_action(self):
        alg = tensor_factor_algebra(2, 2)
        omega = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        md = tomita(alg, omega)
        sz1 = np.kron(SZ, np.eye(2))
        img = conjugate_by_j(md, sz1)
        assert norm2(img - np.kron(np.eye(2), SZ)) < 1e-10

    def test_identity_maps_to_identity(self):
        rng = np.random.default_rng(4)
        alg, omega = random_pair(rng, 2)
        md = tomita(alg, omega)
        img, resid = commutant_map_check(md, np.eye(4, dtype=complex))
        assert norm2(img - np.eye(4)) < 1e-10
        assert resid < 1e-10

    def test_image_spans_commutant(self):
        rng = np.random.default_rng(6)
        alg, omega = random_pair(rng, 3)
        md = tomita(alg, omega)
        comm = commutant(alg)
        imgs = np.stack([conjugate_by_j(md, dagger(b)) for b in alg.basis])
        for x in imgs:
            assert comm.member_residual(x) < 1e-9
        # x -> J x* J is multiplicative (J^2 = 1)
        a, b = alg.basis[3], alg.basis[5]
        lhs = conjugate_by_j(md, dagger(a)) @ conjugate_by_j(md, dagger(b))
        rhs = conjugate_by_j(md, dagger(a @ b))
        assert norm2(lhs - rhs) < 1e-9
        # and the commutant basis is reached: dimension count
        stacked = imgs.reshape(len(imgs), -1)
        rank = np.linalg.matrix_rank(stacked, tol=1e-9)
        assert rank == comm.size


class TestPurify:
    def test_pure_state_gives_product_vector(self):
        rho = np.diag([1.0, 0.0])
        psi = purify(rho, 2)
        m = psi.reshape(2, 2)
        assert np.linalg.matrix_rank(m, tol=1e-10) == 1
        alg = tensor_factor_algebra(2, 2)
        _, sep = cyclic_separating(alg, psi)
        assert not sep

    def test_reconstructs_expectations(self):
        rng = np.random.default_rng(13)
        for k in (2, 3):
            rho = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            rho = rho @ dagger(rho)
            rho /= np.trace(rho).real
            psi = purify(rho, k)
            for x in matrix_units(k):
                got = np.vdot(psi, np.kron(x, np.eye(k)) @ psi)
                assert abs(got - np.trace(rho @ x)) < 1e-12

    def test_maximally_mixed_gives_maximally_entangled(self):
        psi = purify(np.eye(2) / 2, 2)
        s = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
        assert np.allclose(s, [1 / np.sqrt(2)] * 2)

    def test_ratio_law_spectrum(self):
        rng = np.random.default_rng(17)
        for k in (2, 3, 4):
            q = 0.2 + rng.random(k)
            q /= q.sum()
            u, _ = np.linalg.qr(rng.standard_normal((k, k))
                                + 1j * rng.standard_normal((k, k)))
            rho = (u * q) @ dagger(u)
            psi = purify(rho, k)
            md = tomita(tensor_factor_algebra(k, k), psi)
            qs = np.sort(q)[::-1]
            ratios = np.sort((qs[:, None] / qs[None, :]).flatten())
            assert np.max(np.abs(md.delta_spectrum - ratios) / ratios) < 1e-9

    def test_rank_does_not_fit(self):
        with pytest.raises(ValueError):
            purify(np.eye(3) / 3, 2)


class TestPolarDefects:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_each_defect_bounds_its_spectral_norm(self, k):
        # ||X||_2 <= ||X||_F: each tolerance on a polar defect is at least
        # as hard to meet as on the spectral norm of the same matrix
        rng = np.random.default_rng(40 + k)
        eye = np.eye(k * k)
        for _ in range(3):
            md = tomita(*random_pair(rng, k))
            spectral = {
                "s_reconstruction":
                    norm2(md.s.mat - (md.j @ md.delta_power(0.5)).mat),
                "s_squared": norm2(md.s @ md.s - eye),
                "j_squared": norm2(md.j @ md.j - eye),
                "j_antiunitary": norm2(dagger(md.j.mat) @ md.j.mat - eye),
                "jdj_inverse": norm2(md.j @ md.delta @ md.j
                                     - md.delta_power(-1.0)),
            }
            rec = check(md)
            for key, ref in spectral.items():
                assert ref <= rec[key] <= 1e-12, key

    def test_scaled_j_is_not_antiunitary(self):
        # J J* - 1 = ((1 + 1e-6)^2 - 1) 1 at k = 3: 2e-6 on each of nine
        # diagonal entries
        md = tomita(*random_pair(np.random.default_rng(7), 3))
        scaled = replace(md, j=AntilinearMap(md.j.mat * (1 + 1e-6)))
        assert check(md)["j_antiunitary"] <= 1e-13
        assert check(scaled)["j_antiunitary"] > 1e-7

    @pytest.mark.parametrize("t,s,count", [(0.7, 0.0, 2), (0.7, 0.4, 3),
                                           (0.0, 0.4, 2), (0.0, 0.0, 1)])
    def test_one_power_per_distinct_time(self, monkeypatch, t, s, count):
        # a sample (t, s, x) needs Delta^{iz} at s, t and t + s, each formed
        # once; nothing is reused across samples
        md = tomita(*random_pair(np.random.default_rng(8), 2))
        x = md.algebra.element(np.eye(2))
        calls, power = [], ModularData.delta_power

        def spy(self, z):
            calls.append(z)
            return power(self, z)

        monkeypatch.setattr(ModularData, "delta_power", spy)
        modular._flow_defects(md, [(t, s, x)] * 3)
        assert len(calls) == 3 * count


class TestReportRecord:
    def test_check_keys(self):
        import json

        rng = np.random.default_rng(19)
        alg, omega = random_pair(rng, 2)
        md = tomita(alg, omega)
        rec = check(md, draw_flows(rng, alg, 3))
        assert set(rec) == {"s_reconstruction", "s_squared", "j_squared",
                            "j_antiunitary", "jdj_inverse", "s_omega",
                            "delta_omega", "kms", "jaj_commutant",
                            "group_law", "flow_membership"}
        assert all(isinstance(v, float) for v in rec.values())
        assert rec["kms"] <= 1e-9
        assert rec["jaj_commutant"] <= 1e-9
        assert rec["flow_membership"] <= 1e-8
        assert max(rec.values()) <= 1e-8
        assert check(md)["group_law"] == check(md)["flow_membership"] == 0.0
        json.dumps(rec)  # JSON-serializable

    def test_nan_in_a_later_jaj_block_is_kept(self, monkeypatch):
        # the stage's maximum over blocks is numpy's: Python's max keeps its
        # first value when a later one is NaN
        md = tomita(*random_pair(np.random.default_rng(5), 3))
        comm, calls = md.algebra_commutant, []
        residual = type(comm).member_residual

        def spoiled(alg, x):
            if alg is not comm:
                return residual(alg, x)
            calls.append(len(x))
            return np.nan if len(calls) == 2 else residual(alg, x)

        monkeypatch.setattr(type(comm), "member_residual", spoiled)
        assert np.isnan(check(md)["jaj_commutant"])
        # nine basis elements in eight nonempty blocks
        assert sorted(calls) == [1] * 7 + [2]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_jaj_column_blocks_match_conjugate_by_j(self, monkeypatch, k):
        # on M_k (x) 1 the stage reads J b J from N's column blocks; the
        # reference is conjugate_by_j on the whole basis, with its residual
        # from the dense projection onto A' (a copy without the split).  A
        # generic N in place of J's puts the images off A' by O(1).
        rng = np.random.default_rng(k)
        md = tomita(*random_pair(rng, k))
        skewed = replace(md, j=AntilinearMap(complex_normal(rng, (k * k,) * 2)))
        comm, seen = md.algebra_commutant, []
        dense = OperatorAlgebra(comm.basis)
        residual = type(comm).member_residual

        def spy(alg, x):
            if alg is comm:
                seen.append(x.copy())
            return residual(alg, x)

        monkeypatch.setattr(type(comm), "member_residual", spy)
        for data in (md, skewed):
            assert data.algebra_commutant is comm
            images = conjugate_by_j(data, data.algebra.basis)
            ref = dense.member_residual(images.copy())
            seen.clear()
            got = modular._jaj_residual(data)
            assert abs(got - ref) <= 1e-13 * max(1.0, ref)
            assert np.max(np.abs(np.concatenate(seen) - images)) \
                <= 1e-14 * np.max(np.abs(images))
        assert ref > 0.1

    def test_check_needs_the_algebra(self):
        # the algebra is a required field, so every instance carries one
        alg, omega, _ = powers_pair(0.5)
        md = tomita(alg, omega)
        with pytest.raises(TypeError, match="algebra"):
            ModularData(s=md.s, j=md.j, delta_eigh=md.delta_eigh,
                        omega=md.omega)

    def test_check_reads_no_basis_stack_of_a_tensor_factor(self, monkeypatch):
        # KMS reads the orbits tomita formed, and J A J and membership read
        # the split, so a basis that reads NaN after tomita changes no value
        rng = np.random.default_rng(31)
        alg, omega = random_pair(rng, 3)
        flows = draw_flows(rng, alg, 3)
        md = tomita(alg, omega)
        clean = check(md, flows)
        monkeypatch.setattr(type(alg), "basis", property(
            lambda a: np.full((a.size, a.dim, a.dim), np.nan, complex)))
        assert check(md, flows) == clean
        assert np.all(np.isfinite(list(clean.values())))

    def test_batched_checks_match_per_element_loop(self):
        # on genuine data both sides sit at roundoff, so the comparison also
        # runs on data made wrong on purpose: Delta replaced by Delta^2 breaks
        # KMS, the algebra standing in for its commutant breaks JaJ, and
        # skewed eigenvectors make Delta^{it} neither a group nor an
        # automorphism of the algebra.  M_k (x) 1 has a real basis; rotating
        # the pair by a unitary makes the algebra and its commutant complex,
        # so a lost conjugation shows.
        rng = np.random.default_rng(23)
        for k in (2, 3, 4):
            alg, omega = random_pair(rng, k)
            u = haar_unitary(rng, alg.dim)
            rotated = OperatorAlgebra(u @ alg.basis @ dagger(u))
            md = tomita(rotated, u @ omega)
            w, v = md.delta_eigh
            bad = replace(md, delta_eigh=(w, v + 0.1
                                          * haar_unitary(rng, alg.dim)))
            bad.delta = md.delta @ md.delta
            bad.algebra_commutant = rotated
            for data in (tomita(alg, omega), md, bad):
                basis = data.algebra.basis
                flows = draw_flows(rng, data.algebra, 5)
                flows.append((0.7, 0.0, flows[0][2]))
                rec = check(data, flows)
                kms = max(kms_defect(data, x, y) for x in basis for y in basis)
                jaj = max(commutant_map_check(data, x)[1] for x in basis)
                group, member = flow_defects_loop(data, flows)
                for got, ref in ((rec["kms"], kms), (rec["jaj_commutant"], jaj),
                                 (rec["group_law"], group),
                                 (rec["flow_membership"], member)):
                    assert abs(got - ref) <= 1e-13 * max(1.0, ref)
            assert kms > 1e-3 and jaj > 0.1
            assert group > 1e-3 and member > 1e-3


class TestGnsModularLink:
    def test_tracial_gns_has_trivial_delta(self):
        rep = gns(np.eye(2) / 2)
        assert rep.dim == 4
        md = tomita(rep.algebra, rep.vector)
        assert norm2(md.delta - np.eye(4)) < 1e-10

    def test_gns_route_reproduces_ratio_spectrum(self):
        # GNS of the faithful state and the doubled-space purification are
        # unitarily equivalent, so the modular spectra must agree
        lam = 0.5
        rho = np.diag([1.0, lam]) / (1.0 + lam)
        md_gns = tomita(gns(rho).algebra, gns(rho).vector)
        md_pur = tomita(tensor_factor_algebra(2, 2), purify(rho, 2))
        assert np.allclose(md_gns.delta_spectrum, md_pur.delta_spectrum,
                           atol=1e-10)
