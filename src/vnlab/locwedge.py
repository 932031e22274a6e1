"""Modular localization at the one-particle level, reduced to 1+1 dimensions.

In the rapidity representation the wedge boost acts by translation, so the
generator is the spectral derivative on a periodic rapidity grid and the
modular operator is its exponential.  The conjugation is componentwise complex
conjugation, which flips the generator's sign exactly, giving J Delta J =
Delta^{-1} by construction; on the Fourier modes it is the exact permutation
f -> -f.  Because the modular spectrum spans e^{+-2 pi k}, a spectral window
(condition cap on Delta^{1/2}) defines the retained subspace, and every
localization statement is made there.

Each object has one stored form: a RealSubspace its orthonormal rows in R^{2n}
under v -> (Re v, Im v), so a span, an image or a complement is one rank-rule
call; a WedgeModel the indices of its retained modes ordered by k.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Real-linear subspace of C^n, stored as orthonormal rows of R^{2n}."""

    ambient_dim: int
    rows: np.ndarray  # (real_dim, 2 * ambient_dim) real, orthonormal

    @property
    def real_dim(self) -> int:
        return self.rows.shape[0]

    @property
    def basis(self) -> np.ndarray:
        """The rows as complex vectors of C^n."""
        return unembed_real(self.rows)

    def __repr__(self):
        return f"RealSubspace(ambient={self.ambient_dim}, real_dim={self.real_dim})"


def real_subspace_from_vectors(vecs: np.ndarray,
                               ambient_dim: int) -> RealSubspace:
    """Span over R of the given complex vectors (orthonormalized)."""
    return RealSubspace(ambient_dim, row_space(embed_real(np.atleast_2d(vecs))))


def subspace_distance(k1: RealSubspace, k2: RealSubspace) -> float:
    """Spectral-norm distance of the orthogonal projectors in R^{2n}."""
    return norm2(k1.rows.T @ k1.rows - k2.rows.T @ k2.rows)


@dataclass
class WedgeModel:
    """Discretized one-particle wedge data.

    k_values, the Fourier frequencies of the grid, are the boost generator's
    spectrum; the cached S, J and K live on the retained modes, the spectral
    window where cond(Delta^{1/2}) stays below the cap.  No dense n x n
    operator is formed: Delta's spectrum spans e^{+-2 pi max|k|} and
    overflows beyond small n.
    """

    n: int
    theta_max: float
    k_values: np.ndarray
    retained: np.ndarray  # indices of the retained modes, ordered by k

    @property
    def k_retained(self) -> np.ndarray:
        return self.k_values[self.retained]

    @property
    def retained_dim(self) -> int:
        return self.retained.size

    @cached_property
    def j_compressed(self) -> AntilinearMap:
        """J on the retained modes: the frequency reflection f -> -f, with
        the Nyquist mode sent to itself.  It is the permutation that the
        product V* conj(V) of the retained-mode isometry V gives up to
        rounding, which cond(Delta^{1/2}) would amplify in S."""
        modes = self.retained
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

    @cached_property
    def standard_subspace(self) -> RealSubspace:
        """K = fix(S) in compressed coordinates, solved once per model."""
        return standard_subspace(self.s_compressed)


def wedge_one_particle(n: int, theta_max: float,
                       cond_cap: float = COND_CAP) -> WedgeModel:
    """Wedge model on a uniform periodic rapidity grid of n points.

    The generator is the Fourier-grid derivative (Nyquist mode zeroed so the
    spectrum is symmetric about 0), Delta = exp(-2 pi K), J = conjugation.
    Only the generator's spectrum and the retained window are built here.
    """
    if n < 8 or n % 2:
        raise ValueError("need an even grid with n >= 8")
    if theta_max <= 0:
        raise ValueError("theta_max must be positive")
    h = 2.0 * theta_max / n
    kvals = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    kvals[n // 2] = 0.0  # drop the unpaired Nyquist frequency, keep its mode

    k_cut = np.log(cond_cap) / (2.0 * np.pi)
    order = np.argsort(kvals, kind="stable")
    retained = order[np.abs(kvals[order]) <= k_cut + 1e-12]
    return WedgeModel(n=n, theta_max=theta_max, k_values=kvals,
                      retained=retained)


def standard_subspace(s: AntilinearMap) -> RealSubspace:
    """Fixed-point space of S, from the null space of its realification - 1."""
    m = s.dim
    return RealSubspace(m, null_space(real_linearize(s) - np.eye(2 * m)))


def symplectic_complement(k: RealSubspace) -> RealSubspace:
    """{psi : Im<psi, phi> = Re<psi, -i phi> = 0 for all phi in K}."""
    m = k.ambient_dim
    minus_i = real_linearize(-1j * np.eye(m))
    return RealSubspace(m, null_space(k.rows @ minus_i.T))


def apply_real(op, k: RealSubspace) -> RealSubspace:
    """Image of a real subspace under a linear matrix or an AntilinearMap."""
    return RealSubspace(k.ambient_dim,
                        row_space(k.rows @ real_linearize(op).T))


def multiply_i(k: RealSubspace) -> RealSubspace:
    return apply_real(1j * np.eye(k.ambient_dim), k)


def standardness_check(k: RealSubspace) -> tuple[int, int, bool]:
    """(dim_R K ∩ iK, dim_R K + iK, standard?), ranks over R."""
    dim_sum = rank(np.vstack([k.rows, multiply_i(k).rows]))
    dim_inter = 2 * k.real_dim - dim_sum
    is_standard = dim_inter == 0 and dim_sum == 2 * k.ambient_dim
    return dim_inter, dim_sum, is_standard


def duality_check(model: WedgeModel) -> float:
    """Distance between the symplectic complement of K and J K."""
    k = model.standard_subspace
    return subspace_distance(symplectic_complement(k),
                             apply_real(model.j_compressed, k))


def flow_invariance_residual(model: WedgeModel) -> float:
    """Max distance between Delta^{is} K and K over the sample boosts
    s = 0.35, 1.0, -0.6."""
    k = model.standard_subspace
    return float(np.max([
        subspace_distance(apply_real(model.flow_compressed(s), k), k)
        for s in (0.35, 1.0, -0.6)]))


def wedge_report(model: WedgeModel) -> dict:
    """Summary record used by the experiment driver."""
    k = model.standard_subspace
    dim_inter, dim_sum, is_standard = standardness_check(k)
    s2 = model.s_compressed @ model.s_compressed
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
