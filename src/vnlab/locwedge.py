"""Modular localization at the one-particle level, reduced to 1+1 dimensions.

In the rapidity representation the wedge boost acts by translation, so the
generator is the spectral derivative on a periodic rapidity grid and the
modular operator is its exponential.  The conjugation is componentwise complex
conjugation, which flips the generator's sign exactly, giving J Delta J =
Delta^{-1} by construction; on the Fourier modes it is the exact permutation
f -> -f.  Because the modular spectrum spans e^{+-2 pi k}, a spectral window
(condition cap on Delta^{1/2}) defines the retained subspace, and every
localization statement is made there.

Each object has one frozen stored form and keeps only the data that fixes
it: a RealSubspace its orthonormal rows in R^{2n} under v -> (Re v, Im v), so
a span, an image or a complement is one rank-rule call, and n is half their
width; a WedgeModel its grid size n, rapidity half-width and condition cap,
from which the generator's spectrum k_values and the retained modes are
read once, and whose constructor refuses an invalid grid or a condition
cap below 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkit import (AntilinearMap, embed_real, norm2, null_space, rank,
                     read_only, real_linearize, require_budget, row_space,
                     unembed_real)

COND_CAP = 1e8


def boost_matrix(s: float) -> np.ndarray:
    """The standard-wedge boost in the time-space plane."""
    return np.array([[np.cosh(s), np.sinh(s)],
                     [np.sinh(s), np.cosh(s)]])


@dataclass(frozen=True, eq=False)
class RealSubspace:
    """Real-linear subspace of C^n, stored as orthonormal rows of R^{2n}."""

    rows: np.ndarray  # (real_dim, 2 * ambient_dim) real, orthonormal

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[1] % 2:
            raise ValueError("rows must be a 2-D array of even width")
        object.__setattr__(self, "rows", read_only(self.rows))

    @property
    def ambient_dim(self) -> int:
        return self.rows.shape[1] // 2

    @property
    def real_dim(self) -> int:
        return self.rows.shape[0]

    @property
    def basis(self) -> np.ndarray:
        """The rows as complex vectors of C^n."""
        return unembed_real(self.rows)

    def __repr__(self):
        return f"RealSubspace(ambient={self.ambient_dim}, real_dim={self.real_dim})"


def real_subspace_from_vectors(vecs: np.ndarray) -> RealSubspace:
    """Span over R of the given complex vectors (orthonormalized); the rows
    of vecs, whose width is the ambient dimension."""
    return RealSubspace(row_space(embed_real(np.atleast_2d(vecs))))


def subspace_distance(k1: RealSubspace, k2: RealSubspace) -> float:
    """Spectral-norm distance of the orthogonal projectors in R^{2n}."""
    return norm2(k1.rows.T @ k1.rows - k2.rows.T @ k2.rows)


def wedge_bytes(n: int, r: int) -> int:
    """Stated peak of a wedge model of n grid points with r retained modes
    and its `wedge_report`: 32 n bytes for the spectrum and the window's
    sort, 11 dense operators of 16 r^2 bytes for the realified solves, and
    256 KiB.  Over 17 points with 8 <= n <= 2^20 and 2 <= r <= 1232,
    tracemalloc read 0.06-0.99 of it: 0.99 at n = 2^20 with r <= 26, and
    10.5 operators (0.95) from r = 420 on.  The budget admits r <= 1234 (r
    is even) up to n = 5258 and r <= 1154 at n = 2^20; r = 1232 at n = 8192
    and r = 1154 at n = 2^20 took 12 s and 10 s on two cores."""
    return 32 * n + 176 * r ** 2 + (1 << 18)


@dataclass(frozen=True)
class WedgeModel:
    """Wedge model on a uniform periodic rapidity grid of n points.

    The generator is the Fourier-grid derivative (Nyquist mode zeroed so the
    spectrum is symmetric about 0), Delta = exp(-2 pi K), J = conjugation.
    The cached S, J and K live on the retained modes, where cond(Delta^{1/2})
    stays below the cap; no dense n x n operator is formed, as Delta's
    spectrum spans e^{+-2 pi max|k|} and overflows beyond small n.
    """

    n: int
    theta_max: float
    cond_cap: float = COND_CAP

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise ValueError("need an even grid with n >= 8")
        if not self.theta_max > 0:     # a NaN half-width is refused too
            raise ValueError("theta_max must be positive")
        if not self.cond_cap >= 1:     # and a NaN cap
            raise ValueError("cond_cap must be >= 1: a cap below 1 cuts every "
                             "mode of the wedge space")
        # the grid is charged before its spectrum is read, the modes after
        require_budget(wedge_bytes(self.n, 0),
                       f"a wedge grid of {self.n} points")
        r = self.retained_dim
        require_budget(wedge_bytes(self.n, r),
                       f"a wedge model with {r} retained modes")

    @cached_property
    def k_values(self) -> np.ndarray:
        """The generator's spectrum, one Fourier frequency per grid point."""
        h = 2.0 * self.theta_max / self.n
        kvals = 2.0 * np.pi * np.fft.fftfreq(self.n, d=h)
        kvals[self.n // 2] = 0.0  # drop the unpaired Nyquist frequency
        return read_only(kvals)

    @cached_property
    def retained(self) -> np.ndarray:
        """Indices of the retained modes, ordered by k."""
        k_cut = np.log(self.cond_cap) / (2.0 * np.pi)
        order = np.argsort(self.k_values, kind="stable")
        return read_only(order[np.abs(self.k_values[order]) <= k_cut + 1e-12])

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


def standard_subspace(s: AntilinearMap) -> RealSubspace:
    """Fixed-point space of S, from the null space of its realification - 1."""
    return RealSubspace(null_space(real_linearize(s) - np.eye(2 * s.dim)))


def symplectic_complement(k: RealSubspace) -> RealSubspace:
    """{psi : Im<psi, phi> = Re<psi, -i phi> = 0 for all phi in K}."""
    minus_i = real_linearize(-1j * np.eye(k.ambient_dim))
    return RealSubspace(null_space(k.rows @ minus_i.T))


def apply_real(op, k: RealSubspace) -> RealSubspace:
    """Image of a real subspace under a linear matrix or an AntilinearMap."""
    return RealSubspace(row_space(k.rows @ real_linearize(op).T))


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
