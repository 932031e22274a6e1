"""Modular localization at the one-particle level, reduced to 1+1 dimensions.

In the rapidity representation the wedge boost acts by translation, so the
generator is the spectral derivative on a periodic rapidity grid and the
modular operator is its exponential.  The conjugation is componentwise complex
conjugation, which flips the generator's sign exactly, giving J Delta J =
Delta^{-1} by construction; on the Fourier modes it is the exact permutation
f -> -f.  Because the modular spectrum spans e^{+-2 pi k}, a spectral window
(condition cap on Delta^{1/2}) defines the retained subspace, and every
localization statement is made there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numkit import (AntilinearMap, embed_real, norm2, null_space, rank,
                     real_linearize, row_space, unembed_real)

COND_CAP = 1e8


def boost_matrix(s: float) -> np.ndarray:
    """The standard-wedge boost in the time-space plane."""
    return np.array([[np.cosh(s), np.sinh(s)],
                     [np.sinh(s), np.cosh(s)]])


@dataclass
class RealSubspace:
    """Real-linear subspace of C^n, basis orthonormal in Re<.,.>."""

    ambient_dim: int
    basis: np.ndarray  # (real_dim, ambient_dim) complex rows

    @property
    def real_dim(self) -> int:
        return self.basis.shape[0]

    def real_basis_matrix(self) -> np.ndarray:
        """Rows embedded in R^{2n}."""
        return embed_real(self.basis)

    def __repr__(self):
        return f"RealSubspace(ambient={self.ambient_dim}, real_dim={self.real_dim})"


def real_subspace_from_vectors(vecs: np.ndarray,
                               ambient_dim: int) -> RealSubspace:
    """Span over R of the given complex vectors (orthonormalized)."""
    vecs = np.atleast_2d(np.asarray(vecs, dtype=complex))
    if vecs.size == 0:
        return RealSubspace(ambient_dim, np.zeros((0, ambient_dim), complex))
    return RealSubspace(ambient_dim, unembed_real(row_space(embed_real(vecs))))


def subspace_distance(k1: RealSubspace, k2: RealSubspace) -> float:
    """Spectral-norm distance of the orthogonal projectors in R^{2n}."""
    b1, b2 = k1.real_basis_matrix(), k2.real_basis_matrix()
    p1 = b1.T @ b1
    p2 = b2.T @ b2
    return norm2(p1 - p2)


@dataclass
class WedgeModel:
    """Discretized one-particle wedge data.

    k_values and the Fourier modes of freqs on the grid hold the spectral
    decomposition of the boost generator; retained_* fields live on the
    spectral window where cond(Delta^{1/2}) stays below cond_cap.  No dense
    n x n operator is formed: Delta's spectrum spans e^{+-2 pi max|k|} and
    overflows beyond small n.
    """

    n: int
    theta_max: float
    grid: np.ndarray
    freqs: np.ndarray            # Fourier-grid frequency of each mode
    k_values: np.ndarray
    cond_cap: float
    retained: np.ndarray         # boolean mask over modes
    isometry: np.ndarray = field(repr=False)  # (n, n_r)
    k_retained: np.ndarray = field(repr=False)

    @property
    def retained_dim(self) -> int:
        return int(self.retained.sum())

    @cached_property
    def j_compressed(self) -> AntilinearMap:
        """J on the retained modes: the frequency reflection f -> -f, with
        the Nyquist mode sent to itself.  It is the permutation that the
        product V* conj(V) of the isometry V gives up to rounding, and that
        rounding would be amplified by cond(Delta^{1/2}) in S."""
        modes = np.flatnonzero(self.retained)[
            np.argsort(self.k_values[self.retained], kind="stable")]
        column = np.empty(self.n, dtype=int)
        column[modes] = np.arange(modes.size)
        perm = np.zeros((modes.size, modes.size))
        perm[np.arange(modes.size), column[-modes % self.n]] = 1.0
        return AntilinearMap(perm)

    def flow_compressed(self, t: float) -> np.ndarray:
        """Delta^{it} on the retained subspace (exactly unitary)."""
        return np.diag(np.exp(-2j * np.pi * t * self.k_retained))

    @cached_property
    def s_compressed(self) -> AntilinearMap:
        half = np.exp(-np.pi * self.k_retained)
        return AntilinearMap(self.j_compressed.mat * half[None, :])


def _fourier_columns(grid: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Normalized plane waves exp(i f x) on the grid, one column per f."""
    return np.exp(1j * np.outer(grid, freqs)) / np.sqrt(grid.size)


def wedge_one_particle(n: int, theta_max: float,
                       cond_cap: float = COND_CAP) -> WedgeModel:
    """Wedge model on a uniform periodic rapidity grid of n points.

    The generator is the Fourier-grid derivative (Nyquist mode zeroed so the
    spectrum is symmetric about 0), Delta = exp(-2 pi K), J = conjugation.
    Only the n x n_r isometry onto the retained modes is built here.
    """
    if n < 8 or n % 2:
        raise ValueError("need an even grid with n >= 8")
    if theta_max <= 0:
        raise ValueError("theta_max must be positive")
    h = 2.0 * theta_max / n
    grid = -theta_max + h * np.arange(n)
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    kvals = freqs.copy()
    kvals[n // 2] = 0.0  # drop the unpaired Nyquist frequency, keep its mode

    k_cut = np.log(cond_cap) / (2.0 * np.pi)
    retained = np.abs(kvals) <= k_cut + 1e-12
    order = np.argsort(kvals[retained], kind="stable")
    isometry = _fourier_columns(grid, freqs[retained][order])
    k_retained = np.sort(kvals[retained], kind="stable")
    return WedgeModel(n=n, theta_max=theta_max, grid=grid, freqs=freqs,
                      k_values=kvals, cond_cap=cond_cap, retained=retained,
                      isometry=isometry, k_retained=k_retained)


def standard_subspace(s: AntilinearMap) -> RealSubspace:
    """Fixed-point space of S, from the null space of its realification - 1."""
    m = s.dim
    kernel = null_space(real_linearize(s) - np.eye(2 * m))
    return RealSubspace(m, unembed_real(kernel))


def symplectic_complement(k: RealSubspace) -> RealSubspace:
    """{psi : Im<psi, phi> = 0 for all phi in K}."""
    m = k.ambient_dim
    if k.real_dim == 0:
        return real_subspace_from_vectors(
            np.vstack([np.eye(m), 1j * np.eye(m)]), m)
    omega = np.block([[np.zeros((m, m)), np.eye(m)],
                      [-np.eye(m), np.zeros((m, m))]])
    kernel = null_space(k.real_basis_matrix() @ omega.T)
    return real_subspace_from_vectors(unembed_real(kernel), m)


def apply_real(op, k: RealSubspace) -> RealSubspace:
    """Image of a real subspace under a linear matrix or an AntilinearMap."""
    if isinstance(op, AntilinearMap):
        imgs = np.stack([op(v) for v in k.basis]) if k.real_dim else k.basis
    else:
        imgs = (np.asarray(op) @ k.basis.T).T if k.real_dim else k.basis
    return real_subspace_from_vectors(imgs, k.ambient_dim)


def multiply_i(k: RealSubspace) -> RealSubspace:
    return real_subspace_from_vectors(1j * k.basis, k.ambient_dim)


def standardness_check(k: RealSubspace) -> tuple[int, int, bool]:
    """(dim_R K ∩ iK, dim_R K + iK, standard?), ranks over R."""
    b = k.real_basis_matrix()
    ik = multiply_i(k).real_basis_matrix()
    if k.real_dim == 0:
        return 0, 0, False
    dim_sum = rank(np.vstack([b, ik]))
    dim_inter = 2 * k.real_dim - dim_sum
    is_standard = dim_inter == 0 and dim_sum == 2 * k.ambient_dim
    return dim_inter, dim_sum, is_standard


def wedge_standard_subspace(model: WedgeModel) -> RealSubspace:
    """K = fix(S) on the retained subspace, in compressed coordinates."""
    return standard_subspace(model.s_compressed)


def duality_check(model: WedgeModel) -> float:
    """Distance between the symplectic complement of K and J K."""
    k = wedge_standard_subspace(model)
    return subspace_distance(symplectic_complement(k),
                             apply_real(model.j_compressed, k))


def flow_invariance_residual(model: WedgeModel) -> float:
    """Max distance between Delta^{is} K and K over the sample boosts
    s = 0.35, 1.0, -0.6."""
    k = wedge_standard_subspace(model)
    worst = 0.0
    for s in (0.35, 1.0, -0.6):
        moved = apply_real(model.flow_compressed(s), k)
        worst = max(worst, subspace_distance(moved, k))
    return worst


def wedge_report(model: WedgeModel) -> dict:
    """Summary record used by the experiment driver."""
    k = wedge_standard_subspace(model)
    dim_inter, dim_sum, is_standard = standardness_check(k)
    s2 = model.s_compressed.squared()
    return {
        "n": model.n,
        "theta_max": model.theta_max,
        "retained_dim": model.retained_dim,
        "s_squared_defect": norm2(s2 - np.eye(model.retained_dim)),
        "standardness": bool(is_standard),
        "k_real_dim": k.real_dim,
        "duality_residual": duality_check(model),
        "flow_invariance_residual": flow_invariance_residual(model),
    }
