"""Reference forms shared by several test modules.

Each is an independent, dense route to something the package computes in a
structured way: the spectral calculus behind ``ModularData.delta_power`` and
``antilinear_polar``, the eigensolve-based S operator behind the wedge's
Fourier-mode S, the GNS construction as a second route to modular data, the
cyclic and separating flags that ``modular.tomita`` decides inside its
solve, the closure that re-orthonormalizes the whole span each pass (which
``vnalg.vn_closure`` grows by the new directions only), the full and scalar
matrix algebras as test cases, the dense Fock ladders that
``fock.apply_ladders`` applies from index maps, and the massless chain,
which ``lattice.GaussianState`` refuses, with its divergent k = 0 mode
dropped, in a form of its own, and the region spectrum gathered through
index matrices, which ``lattice.symplectic_eigenvalues`` reads from a
strided view of the circulant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from vnlab.lattice import ChainSpec
from vnlab.locwedge import COND_CAP
from vnlab.numkit import (VALIDITY_ATOL, AntilinearMap, dagger, nonzero_mask,
                          rank)
from vnlab.vnalg import OperatorAlgebra, matrix_units, orthonormalize_span

_HERM_FNS = ("exp", "log", "sqrt", "power", "ipower")


def herm_fn(h: np.ndarray, fn: str, t: float | None = None) -> np.ndarray:
    """Spectral calculus f(H) = U f(diag) U* for Hermitian H.

    ``fn`` is one of ``exp``, ``log``, ``sqrt``, ``power`` (H**t) or
    ``ipower`` (H**(i t), unitary).  ``log``, ``ipower`` and ``power`` with a
    negative exponent require a strictly positive matrix; ``sqrt`` requires a
    positive semidefinite one.
    """
    if fn not in _HERM_FNS:
        raise ValueError(f"unknown spectral function {fn!r}")
    if fn in ("power", "ipower") and t is None:
        raise ValueError(f"{fn} needs an exponent t")

    w, u = np.linalg.eigh(0.5 * (h + dagger(h)))
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.max(np.abs(h - dagger(h))) > VALIDITY_ATOL * scale:
        raise ValueError("herm_fn requires a Hermitian matrix")
    if fn == "exp":
        fw = np.exp(w)
    elif fn == "sqrt":
        if w.min() < -VALIDITY_ATOL * scale:
            raise ValueError("sqrt of a non-positive matrix")
        fw = np.sqrt(np.clip(w, 0.0, None))
    elif fn == "log" or fn == "ipower" or (fn == "power" and t < 0):
        if w.min() <= VALIDITY_ATOL * scale:
            raise ValueError(f"{fn} requires a strictly positive matrix")
        if fn == "log":
            fw = np.log(w)
        elif fn == "ipower":
            fw = np.exp(1j * t * np.log(w))
        else:
            fw = w ** t
    else:  # power, t >= 0
        fw = w ** t
    return (u * fw) @ dagger(u)


def s_operator(delta: np.ndarray, j: AntilinearMap,
               spectral_cut: float | None = None
               ) -> tuple[AntilinearMap, np.ndarray]:
    """S = J Delta^{1/2}, with a spectral window for ill-conditioned Delta.

    Returns (S, V): V is the isometry onto the retained subspace and S acts in
    its coordinates (V is the full identity when no cut was needed).  Refuses
    ill-conditioned input unless spectral_cut (a condition cap for
    Delta^{1/2}) is supplied; the window is centered at eigenvalue 1, matching
    spectra that are symmetric under inversion.
    """
    n = delta.shape[0]
    w, u = np.linalg.eigh(0.5 * (delta + delta.conj().T))
    if w.min() <= 0:
        raise ValueError("delta must be positive")
    cond_sqrt = float(np.sqrt(w.max() / w.min()))
    if spectral_cut is None:
        if cond_sqrt > COND_CAP:
            raise ValueError("ill-conditioned delta: pass spectral_cut to regularize")
        sqrt_delta = (u * np.sqrt(w)) @ u.conj().T
        return AntilinearMap(j.mat @ np.conj(sqrt_delta)), np.eye(n)
    keep = np.abs(np.log(w)) <= np.log(spectral_cut)
    v = u[:, keep]
    w = w[keep]
    n_c = v.conj().T @ j.mat @ v.conj()
    s = AntilinearMap(n_c * np.sqrt(w)[None, :])
    return s, v


def full_matrix_algebra(n: int) -> OperatorAlgebra:
    """All of B(C^n); matrix units are already HS-orthonormal."""
    return OperatorAlgebra(matrix_units(n))


def scalar_algebra(n: int) -> OperatorAlgebra:
    return OperatorAlgebra(np.eye(n)[None, :, :] / np.sqrt(n))


def letter_closure(generators, dim: int) -> OperatorAlgebra:
    """Reference form of ``vnalg.vn_closure``: each pass re-orthonormalizes
    the span together with the letters (the generators and their adjoints)
    times the whole span, until a pass leaves its dimension unchanged."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    letters = np.array(gens + [dagger(g) for g in gens]).reshape(-1, dim, dim)
    basis = orthonormalize_span(np.concatenate([np.eye(dim)[None], letters]))
    while True:
        words = (letters[:, None] @ basis).reshape(-1, dim, dim)
        grown = orthonormalize_span(np.concatenate([basis, words]))
        if grown.shape[0] == basis.shape[0]:
            return OperatorAlgebra(basis)
        basis = grown


def cyclic_separating(a: OperatorAlgebra,
                      omega: np.ndarray) -> tuple[bool, bool]:
    """(is_cyclic, is_separating) for a unit vector, from the rank of the
    orbit {b_i omega}: cyclic iff it spans the ambient space, separating iff
    b -> b omega is injective on the algebra, that is iff the rank equals
    the algebra's dimension."""
    orbit_rank = rank(np.einsum("aij,j->ai", a.basis, omega))
    return orbit_rank == a.dim, orbit_rank == a.size


def dense_creators(f) -> np.ndarray:
    """Dense (d, D, D) stack of the creation operators a*_m on the Fock space
    f, by the per-state loop over its occupation basis."""
    d, dim = f.one_particle_dim, f.total_dim
    index = {tuple(o): i for i, o in enumerate(f.occupations)}
    creators = np.zeros((d, dim, dim), dtype=complex)
    for i, occ in enumerate(f.occupations):
        if occ.sum() >= f.n_max:
            continue
        for m in range(d):
            target = occ.copy()
            target[m] += 1
            creators[m, index[tuple(target)], i] = np.sqrt(occ[m] + 1.0)
    return creators


@dataclass
class GnsRep:
    """GNS data for a state on the full matrix algebra M_d."""

    source_dim: int
    dim: int
    vector: np.ndarray
    represent: Callable[[np.ndarray], np.ndarray]
    algebra: OperatorAlgebra


def gns(rho: np.ndarray) -> GnsRep:
    """GNS representation of omega = tr(rho .) on M_d.

    The algebra with inner product <a, b> = omega(a* b) is quotiented by its
    null space; left multiplication descends to the quotient and the class of
    the identity is the GNS vector, so <Omega, pi(x) Omega> = omega(x).
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    w = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    if w.min() < -VALIDITY_ATOL or abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError("gns needs a positive, unit-trace density matrix")

    # Gram of the matrix-unit basis: <E_ij, E_kl> = delta_ik rho[l, j]
    gram = np.einsum("ik,lj->ijkl", np.eye(d), rho).reshape(d * d, d * d)
    gw, gv = np.linalg.eigh(0.5 * (gram + dagger(gram)))
    keep = nonzero_mask(gw)
    sq = np.sqrt(gw[keep])
    v = gv[:, keep]

    def represent(x: np.ndarray) -> np.ndarray:
        left = np.kron(np.asarray(x, complex), np.eye(d))
        return (sq[:, None] * (dagger(v) @ left @ v)) / sq[None, :]

    vector = sq * (dagger(v) @ np.eye(d).flatten())
    basis = np.stack([represent(u) for u in matrix_units(d)])
    algebra = OperatorAlgebra(orthonormalize_span(basis))
    return GnsRep(source_dim=d, dim=int(keep.sum()), vector=vector,
                  represent=represent, algebra=algebra)


@dataclass(frozen=True)
class MasslessState:
    """The five attributes of a ``lattice.GaussianState`` that ``lattice``
    reads, for the chain that ``GaussianState`` refuses."""

    spec: ChainSpec
    row_phi: np.ndarray
    row_pi: np.ndarray
    weights_phi: np.ndarray
    weights_pi: np.ndarray


def massless_state(sites: int) -> MasslessState:
    """Covariances of the massless chain without its k = 0 field mode.

    Each row is the mode sum row[r] = sum_k w_k cos(k r) / n; <phi phi> keeps
    w_k = 1 / (2 omega_k) for k != 0 only, so its tail is a power law, not an
    exponential.
    """
    spec = ChainSpec(sites, 0.0)
    omega = spec.dispersion()
    w_phi = np.zeros(sites)
    w_phi[1:] = 0.5 / omega[1:]
    w_pi = omega / 2.0
    cos = np.cos(np.outer(np.arange(sites), spec.momenta()))
    return MasslessState(spec=spec, row_phi=cos @ w_phi / sites,
                         row_pi=cos @ w_pi / sites, weights_phi=w_phi,
                         weights_pi=w_pi)


def indexed_symplectic_eigenvalues(state, region) -> np.ndarray:
    """Symplectic spectrum of a proper region, each block gathered with an
    r x r index matrix and L^T G_pi L formed as a new array.

    The same entries meet the same BLAS and LAPACK calls as in
    ``lattice.symplectic_eigenvalues``, so the two agree bit for bit.
    """
    region = np.asarray(region, dtype=int)
    index = np.subtract.outer(region, region)
    chol = np.linalg.cholesky(state.row_phi.take(index, mode="wrap"))
    b = state.row_pi.take(index, mode="wrap")
    ev = np.linalg.eigvalsh(chol.T @ b @ chol)
    return np.sqrt(np.clip(ev, 0.0, None))
