"""Powers / Araki-Woods approximants and their spectral signatures."""

from dataclasses import fields
from functools import reduce

import numpy as np
import pytest

from reference import cyclic_separating
from vnlab import factors
from vnlab.experiments import run
from vnlab.factors import (araki_woods_approximant, log_ratio_rational_quality,
                           max_gap_in_window, powers_approximant,
                           powers_purity, signature)
from vnlab.modular import ModularData, check, tomita
from vnlab.numkit import AntilinearMap, dagger, norm2, require_budget
from vnlab.vnalg import OperatorAlgebra, commutant, matrix_units

# ---------------------------------------------------------- reference forms
# The dense D x D objects of an approximant, multiplied out from its site
# weights; the package itself works from the spectrum alone.

def _check_dense(approx):
    """A dense reference holds complex D x D matrices of 16 D^2 bytes; the
    byte budget admits D <= 4096."""
    require_budget(16 * approx.ambient_dim ** 2,
                   f"dense operators of dimension {approx.ambient_dim}")


def _flip(s: int) -> np.ndarray:
    f = np.zeros((s * s, s * s))
    for a in range(s):
        for b in range(s):
            f[b * s + a, a * s + b] = 1.0
    return f


def site_modular(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S matrix, Delta, J matrix) for (M_s (x) 1, purify(diag(p))).

    With the descending diagonal convention Delta = diag(p) (x) diag(p)^{-1}
    and J is the tensor flip composed with conjugation.
    """
    s = p.size
    delta = np.kron(np.diag(p), np.diag(1.0 / p)).astype(complex)
    j = _flip(s).astype(complex)
    s_mat = j @ np.sqrt(delta)
    return s_mat, delta, j


def dense_site_powers(approx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global (S matrix, Delta, J matrix) as dense Kronecker powers of the
    site data."""
    _check_dense(approx)
    return tuple(reduce(np.kron, [m] * approx.n_factors)
                 for m in site_modular(approx.site_weights))


def dense_modular(approx) -> ModularData:
    """The dense global data on the dense algebra.  Delta is diagonal, so
    its eigenvectors are the standard basis, put in the order of its
    ascending diagonal.  The orbits b_i Omega and b_i* Omega are columns."""
    s_mat, delta, j_mat = dense_site_powers(approx)
    w = np.diag(delta).real
    order = np.argsort(w, kind="stable")
    alg = dense_algebra(approx)
    return ModularData(s=AntilinearMap(s_mat), j=AntilinearMap(j_mat),
                       delta_eigh=(w[order], np.eye(w.size)[:, order]),
                       algebra=alg, omega=approx.omega,
                       orbit=(alg.basis @ approx.omega).T,
                       adjoint_orbit=(dagger(alg.basis) @ approx.omega).T)


def _kron_algebra(site_basis, n) -> OperatorAlgebra:
    basis = [np.eye(1, dtype=complex)]
    for _ in range(n):
        basis = [np.kron(b, u) for b in basis for u in site_basis]
    return OperatorAlgebra(np.stack(basis))


class HintedAlgebra(OperatorAlgebra):
    """A dense algebra built with a given commutant hint."""

    def __init__(self, basis, hint: OperatorAlgebra):
        super().__init__(basis)
        object.__setattr__(self, "commutant_hint", hint)


def dense_algebra(approx) -> OperatorAlgebra:
    """The N-fold tensor power of M_s (x) 1, with its commutant as hint."""
    _check_dense(approx)
    s = approx.site_dim
    eye = np.eye(s)
    site_left = [np.kron(u, eye) / np.sqrt(s) for u in matrix_units(s)]
    site_right = [np.kron(eye, u) / np.sqrt(s) for u in matrix_units(s)]
    left = _kron_algebra(site_left, approx.n_factors)
    return HintedAlgebra(left.basis,
                         _kron_algebra(site_right, approx.n_factors))


def holds_only_its_fields(approx) -> bool:
    """True when the approximant holds its fields and at most the product
    vector and the spectrum, which it computes when first read: no dense
    operator was cached on it."""
    return set(vars(approx)) <= ({f.name for f in fields(approx)}
                                 | {"omega", "delta_spectrum"})


class TestPowers:
    def test_n1_spectrum_multiset(self):
        approx = powers_approximant(0.5, 1)
        assert np.allclose(approx.delta_spectrum, [0.5, 1, 1, 2],
                           atol=1e-12)

    def test_n2_spectrum_set(self):
        approx = powers_approximant(0.5, 2)
        got = np.unique(np.round(approx.delta_spectrum, 9))
        assert np.allclose(got, [0.25, 0.5, 1.0, 2.0, 4.0])

    def test_spectrum_law_across_lambda_and_n(self):
        for lam in (0.3, 0.5, 0.7):
            for n in range(1, 5):
                approx = powers_approximant(lam, n)
                targets = lam ** np.arange(-n, n + 1)
                for v in approx.delta_spectrum:
                    assert np.min(np.abs(v - targets) / targets) < 1e-9
                for t in targets:
                    assert np.min(np.abs(approx.delta_spectrum - t)) \
                        < 1e-9 * t

    def test_tracial_edge(self):
        approx = powers_approximant(1.0, 2)
        assert norm2(dense_modular(approx).delta - np.eye(16)) < 1e-12

    def test_log_spectrum_symmetric(self):
        for lam, n in [(0.3, 2), (0.7, 3)]:
            sig = signature(powers_approximant(lam, n))
            assert np.max(np.abs(np.sort(sig.log_spectrum)
                                 + np.sort(sig.log_spectrum)[::-1])) < 1e-9

    def test_dimension_cap(self):
        # construction stops at the byte budget (N = 10 for Powers, 6 for
        # Araki-Woods), dense access at 4096
        with pytest.raises(ValueError):
            dense_modular(powers_approximant(0.5, 7))
        assert powers_approximant(0.5, 10).ambient_dim == 4 ** 10
        with pytest.raises(ValueError):
            powers_approximant(0.5, 11)
        assert araki_woods_approximant(0.5, 0.3, 6).ambient_dim == 9 ** 6
        with pytest.raises(ValueError, match="byte budget"):
            araki_woods_approximant(0.5, 0.3, 7)
        with pytest.raises(ValueError):
            powers_approximant(1.5, 1)


class TestSpectrumFirst:
    def test_signature_leaves_dense_data_unbuilt(self):
        approx = powers_approximant(0.5, 3)
        signature(approx)
        assert holds_only_its_fields(approx)

    def test_powers_experiment_leaves_dense_data_unbuilt(self, monkeypatch):
        built = []

        def spy(*args, **kwargs):
            built.append(powers_approximant(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(factors, "powers_approximant", spy)
        assert run("powers", {"n": 6}, seed=0).passed
        # the largest first, so a refused N stops the run before any work
        assert [a.n_factors for a in built] == [6, 5, 4, 3, 2, 1]
        assert all(holds_only_its_fields(a) for a in built)

    @pytest.mark.parametrize("args", [
        *((lam, n) for lam in (0.3, 0.5, 1.0) for n in range(1, 5)),
        *((lam, mu, n) for lam, mu in [(0.5, 0.3), (0.4, 0.4), (0.7, 0.2)]
          for n in range(1, 4))])
    def test_spectrum_bit_equals_dense_diagonal(self, args):
        # (lam, n) is a Powers model, (lam, mu, n) an Araki-Woods one
        build = powers_approximant if len(args) == 2 else araki_woods_approximant
        approx = build(*args)
        dense = np.sort(np.diag(dense_site_powers(approx)[1]).real)
        assert np.array_equal(approx.delta_spectrum, dense)

    def test_spectral_scale_beyond_dense_cap(self):
        approx = araki_woods_approximant(0.5, 0.3, 4)
        assert approx.ambient_dim == 6561
        assert approx.delta_spectrum.size == 6561
        with pytest.raises(ValueError):
            dense_algebra(approx)
        assert holds_only_its_fields(approx)


class TestPurity:
    def test_closed_form_value(self):
        sig = signature(powers_approximant(0.5, 3))
        assert abs(sig.reduced_purity - 0.17146776406035663) < 1e-10
        assert abs(sig.reduced_purity - powers_purity(0.5, 3)) < 1e-10

    def test_tracial_purity(self):
        for n in (1, 2, 3):
            sig = signature(powers_approximant(1.0, n))
            assert abs(sig.reduced_purity - 2.0 ** (-n)) < 1e-12

    def test_strictly_decreasing_in_n(self):
        for lam in (0.3, 0.5, 0.7):
            purities = [signature(powers_approximant(lam, n)).reduced_purity
                        for n in range(1, 5)]
            assert all(b < a for a, b in zip(purities, purities[1:]))
            assert all(p < 1 for p in purities)

    def test_reduced_density_matches_kron_power(self):
        lam, n = 0.45, 2
        approx = powers_approximant(lam, n)
        site = np.diag([1.0, lam]) / (1.0 + lam)
        assert norm2(approx.reduced_density() - np.kron(site, site)) < 1e-12


class TestArakiWoods:
    def test_n1_log_spectrum_set(self):
        lam, mu = 0.5, 0.3
        sig = signature(araki_woods_approximant(lam, mu, 1))
        la, lm = np.log(lam), np.log(mu)
        expected = np.unique([0.0, la, -la, lm, -lm, la - lm, lm - la])
        got = np.unique(np.round(sig.log_spectrum, 9))
        assert got.size == expected.size
        assert np.max(np.abs(got - np.sort(expected))) < 1e-9

    def test_equal_ratios_collapse(self):
        lam = 0.4
        sig = signature(araki_woods_approximant(lam, lam, 2))
        # every log eigenvalue is an integer multiple of log(lam)
        ks = sig.log_spectrum / np.log(lam)
        assert np.max(np.abs(ks - np.round(ks))) < 1e-9

    def test_gap_densification(self):
        gaps = [signature(araki_woods_approximant(0.5, 0.3, n), 1.0).max_gap
                for n in (1, 2, 3)]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[2] < gaps[0]

    def test_sorted_weights_regardless_of_order(self):
        a = araki_woods_approximant(0.3, 0.5, 1)
        b = araki_woods_approximant(0.5, 0.3, 1)
        assert np.allclose(a.delta_spectrum, b.delta_spectrum)


class TestConstruction:
    def test_weights_sorted_descending(self):
        approx = factors.Approximant(np.array([0.25, 0.75]), 2)
        assert np.array_equal(approx.site_weights, [0.75, 0.25])
        assert approx.site_dim == 2 and approx.ambient_dim == 16
        assert np.array_equal(approx.delta_spectrum,
                              powers_approximant(1 / 3, 2).delta_spectrum)

    def test_direct_construction_over_cap_refused(self):
        with pytest.raises(ValueError, match="byte budget"):
            factors.Approximant(np.full(2, 0.5), 11)
        with pytest.raises(ValueError, match="byte budget"):
            factors.Approximant(np.full(4, 0.25), 6)

    def test_direct_construction_outside_float_range_refused(self):
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="normal float range"):
                factors.Approximant(np.array([1e-200, 1.0]), 2)
            with pytest.raises(ValueError, match="normal float range"):
                factors.Approximant(np.array([0.5, 1e-160, 0.5]), 2)


class TestFloatRange:
    def test_spectrum_beyond_normal_floats_refused(self):
        # (p_max/p_min)^{+-N} must stay normal: lam = 1e-300 spans 691 of
        # the 708 natural-log units down to the smallest normal float at
        # N = 1, and twice that at N = 2
        tiny = np.finfo(float).tiny
        with np.errstate(all="raise"):
            spectrum = powers_approximant(1e-300, 1).delta_spectrum
            assert spectrum[0] >= tiny and 1.0 / spectrum[-1] >= tiny
            for lam, n in ((1e-300, 2), (1e-200, 2), (5e-324, 1)):
                with pytest.raises(ValueError, match="normal float range"):
                    powers_approximant(lam, n)
            with pytest.raises(ValueError, match="normal float range"):
                araki_woods_approximant(1e-160, 0.3, 2)


class TestMaxGap:
    @pytest.mark.parametrize("window", [0.0, -1.0, -0.0])
    def test_non_positive_window_refused(self, window):
        with pytest.raises(ValueError, match="window must be positive"):
            max_gap_in_window(np.array([0.0]), window)

    def test_empty_window(self):
        assert max_gap_in_window(np.array([5.0, -5.0]), 1.0) == 2.0

    def test_walls_count(self):
        assert abs(max_gap_in_window(np.array([0.0]), 1.0) - 1.0) < 1e-15
        assert abs(max_gap_in_window(np.array([-0.5, 0.5]), 1.0) - 1.0) < 1e-15


class TestAgainstTomita:
    @pytest.mark.parametrize("lam,n", [(0.5, 1), (0.35, 2)])
    def test_powers_closed_form_matches_engine(self, lam, n):
        approx = powers_approximant(lam, n)
        md = tomita(dense_algebra(approx), approx.omega)
        dense = dense_modular(approx)
        assert norm2(md.delta - dense.delta) < 1e-9
        assert norm2(md.j.mat - dense.j.mat) < 1e-9
        assert norm2(md.s.mat - dense.s.mat) < 1e-9

    def test_araki_woods_n1_matches_engine(self):
        approx = araki_woods_approximant(0.5, 0.3, 1)
        md = tomita(dense_algebra(approx), approx.omega)
        assert norm2(md.delta - dense_modular(approx).delta) < 1e-9

    def test_closed_form_invariants(self):
        approx = araki_woods_approximant(0.6, 0.2, 2)
        dense = dense_modular(approx)
        assert max(check(dense).values()) < 1e-9
        # the closed-form S maps the orbit onto the adjoint orbit
        assert dense.solve_residual < 1e-9

    def test_omega_cyclic_separating_for_algebra(self):
        approx = powers_approximant(0.5, 2)
        alg = dense_algebra(approx)
        assert cyclic_separating(alg, approx.omega) == (True, True)

    def test_algebra_commutant_hint_consistent(self):
        approx = powers_approximant(0.5, 1)
        alg = dense_algebra(approx)
        generic = commutant(OperatorAlgebra(alg.basis))
        hinted = commutant(alg)
        fa, fb = (x.basis.reshape(x.size, -1) for x in (generic, hinted))
        assert norm2(fa.conj().T @ fa - fb.conj().T @ fb) < 1e-10


class TestRationalQuality:
    def test_reports_best_fraction(self):
        q = log_ratio_rational_quality(0.5, 0.3)
        assert q["denominator"] <= 1000
        assert q["error"] < 1e-2
        assert abs(q["ratio"] - np.log(0.5) / np.log(0.3)) < 1e-15

    def test_rational_pair_detected(self):
        # log(0.25)/log(0.5) = 2 exactly
        q = log_ratio_rational_quality(0.25, 0.5)
        assert q["numerator"] == 2 and q["denominator"] == 1
        assert q["error"] < 1e-14
