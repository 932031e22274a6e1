"""Truncated symmetric Fock space and Weyl quantization.

Occupation-number basis over d modes with total particle number capped at
n_max.  Ladder matrices use the symmetric-tensor normalization, so the field
operator Phi(psi) = (a(psi) + a*(psi))/sqrt(2) (with a conjugate-linear in
psi) reproduces the commutator i Im<psi, phi> exactly away from the cutoff;
all canonical-commutation and covariance statements are made on sectors
<= n_max - 2 where truncation cannot reach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .numkit import dagger, norm2, rank
from .locwedge import RealSubspace

DIMENSION_CAP = 4096


@dataclass
class FockSpace:
    one_particle_dim: int
    n_max: int
    occupations: np.ndarray      # (total_dim, d)
    creators: np.ndarray         # (d, total_dim, total_dim)

    @property
    def total_dim(self) -> int:
        return self.occupations.shape[0]

    @property
    def annihilators(self) -> np.ndarray:
        return np.conj(np.transpose(self.creators, (0, 2, 1)))

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.total_dim, dtype=complex)
        v[0] = 1.0
        return v

    def sector_totals(self) -> np.ndarray:
        return self.occupations.sum(axis=1)

    def sector_projector(self, max_total: int) -> np.ndarray:
        """Diagonal projector onto sectors with total <= max_total."""
        mask = self.sector_totals() <= max_total
        return np.diag(mask.astype(float))

    def embed_one_particle(self, psi: np.ndarray) -> np.ndarray:
        """One-particle vector as a Fock vector in sector 1."""
        out = np.zeros(self.total_dim, dtype=complex)
        d = self.one_particle_dim
        for m in range(d):
            idx = 1 + m  # sector-1 states follow the vacuum in lex order
            out[idx] = psi[m]
        return out


def build_fock(d: int, n_max: int, cap: int = DIMENSION_CAP) -> FockSpace:
    """Occupation basis (ordered by total, then lexicographically) and ladders."""
    if d < 1 or n_max < 1:
        raise ValueError("need d >= 1 and n_max >= 1")
    total_dim = sum(comb(k + d - 1, k) for k in range(n_max + 1))
    if total_dim > cap:
        raise ValueError(f"Fock dimension {total_dim} exceeds cap {cap}")

    occs = []
    for total in range(n_max + 1):
        # each multiset of modes is one occupation pattern; the generation
        # order (by total, then mode-lexicographic) is the basis order
        for c in itertools.combinations_with_replacement(range(d), total):
            occ = [0] * d
            for m in c:
                occ[m] += 1
            occs.append(occ)
    occupations = np.array(occs, dtype=int)
    assert occupations.shape[0] == total_dim

    index = {tuple(o): i for i, o in enumerate(occupations)}
    creators = np.zeros((d, total_dim, total_dim), dtype=complex)
    for i, occ in enumerate(occupations):
        total = occ.sum()
        if total >= n_max:
            continue
        for m in range(d):
            target = occ.copy()
            target[m] += 1
            creators[m, index[tuple(target)], i] = np.sqrt(occ[m] + 1.0)
    return FockSpace(one_particle_dim=d, n_max=n_max,
                     occupations=occupations, creators=creators)


@dataclass
class FieldOperator:
    psi: np.ndarray
    mat: np.ndarray


def field_operator(f: FockSpace, psi: np.ndarray) -> FieldOperator:
    """Phi(psi) = (a(psi) + a*(psi)) / sqrt(2), a conjugate-linear in psi."""
    psi = np.asarray(psi, dtype=complex)
    if np.linalg.norm(psi) == 0:
        raise ValueError("field operator of the zero vector")
    adag = np.tensordot(psi, f.creators, axes=(0, 0))
    mat = (dagger(adag) + adag) / np.sqrt(2.0)
    return FieldOperator(psi=psi, mat=mat)


def ccr_defect(f: FockSpace, psi: np.ndarray, phi: np.ndarray) -> float:
    """Distance of [Phi(psi), Phi(phi)] from i Im<psi,phi> on safe sectors."""
    if f.n_max < 2:
        raise ValueError("commutator check needs n_max >= 2")
    a = field_operator(f, psi).mat
    b = field_operator(f, phi).mat
    comm = a @ b - b @ a
    expected = 1j * np.vdot(psi, phi).imag * np.eye(f.total_dim)
    p = f.sector_projector(f.n_max - 2)
    return norm2(p @ (comm - expected) @ p)


def locality_check(f: FockSpace, k: RealSubspace, k_prime: RealSubspace) -> float:
    """Max commutator norm between fields smeared in K and in K'."""
    if k.ambient_dim != f.one_particle_dim or k_prime.ambient_dim != f.one_particle_dim:
        raise ValueError("subspace ambient dimension does not match the mode count")
    p = f.sector_projector(f.n_max - 2)
    worst = 0.0
    for psi in k.basis:
        a = field_operator(f, psi).mat
        for phi in k_prime.basis:
            b = field_operator(f, phi).mat
            worst = max(worst, norm2(p @ (a @ b - b @ a) @ p))
    return worst


def weyl_operator(f: FockSpace, psi: np.ndarray) -> np.ndarray:
    """exp(i Phi(psi)) on the truncation (exactly unitary as a matrix; the
    discrepancy against the untruncated Weyl operator sits in the top sectors)."""
    psi = np.asarray(psi, dtype=complex)
    if np.linalg.norm(psi) == 0:
        return np.eye(f.total_dim, dtype=complex)
    phi = field_operator(f, psi).mat
    w, u = np.linalg.eigh(phi)
    return (u * np.exp(1j * w)) @ dagger(u)


def weyl_relation_defect(f: FockSpace, psi: np.ndarray, phi: np.ndarray,
                         low: int = 1) -> float:
    """Defect of W(psi) W(phi) = exp(-i Im<psi,phi>/2) W(psi+phi) on sectors
    <= low.

    Unlike the commutator checks, the product of truncated exponentials feels
    the cutoff through every intermediate sector, so the defect decays with
    the distance n_max - low (and grows like a power of the argument norms);
    keep low well below the cutoff."""
    lhs = weyl_operator(f, psi) @ weyl_operator(f, phi)
    rhs = np.exp(-0.5j * np.vdot(psi, phi).imag) * weyl_operator(f, psi + phi)
    p = f.sector_projector(low)
    return norm2(p @ (lhs - rhs) @ p)


def cyclicity_rank(f: FockSpace, k: RealSubspace, degree: int) -> int:
    """Rank of span{Phi(psi_1)...Phi(psi_j) vacuum : j <= degree, psi in K}."""
    if degree > f.n_max:
        raise ValueError("degree exceeds the particle cutoff")
    vectors = [f.vacuum()]
    fields = [field_operator(f, psi).mat for psi in k.basis]
    layer = [f.vacuum()]
    for _ in range(degree):
        layer = [m @ v for m in fields for v in layer]
        vectors.extend(layer)
        if not layer:
            break
    return rank(np.stack(vectors))


def second_quantize(f: FockSpace, u: np.ndarray) -> np.ndarray:
    """Gamma(U): block-diagonal over sectors, built from creation strings.

    Columns are prod_m a*(U e_m)^{n_m} vacuum / sqrt(prod n_m!), which is
    exact on every retained sector since pure creation strings never cross
    the cutoff downward.
    """
    u = np.asarray(u, dtype=complex)
    d = f.one_particle_dim
    if u.shape != (d, d) or norm2(dagger(u) @ u - np.eye(d)) > 1e-8:
        raise ValueError("second_quantize needs a unitary on the one-particle space")
    rotated = [np.tensordot(u[:, m], f.creators, axes=(0, 0)) for m in range(d)]
    gamma = np.zeros((f.total_dim, f.total_dim), dtype=complex)
    for i, occ in enumerate(f.occupations):
        col = f.vacuum()
        norm = 1.0
        for m in range(d):
            for _ in range(occ[m]):
                col = rotated[m] @ col
            norm *= factorial(int(occ[m]))
        gamma[:, i] = col / np.sqrt(norm)
    return gamma
