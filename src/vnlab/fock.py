"""Truncated symmetric Fock space and Weyl quantization.

Occupation-number basis over d modes with total particle number capped at
n_max, ordered by total particle number, so the sectors <= k are the leading
`sector_dim(k)` basis states.  Ladders are stored as index maps: for each
mode, the basis index that a creator sends each of the first
`sector_dim(n_max - 1)` states to, and the symmetric-tensor weight
sqrt(occ + 1); `create` applies a*(v) from them, and no dense ladder matrix
is formed.  The field operator Phi(psi) = (a(psi) + a*(psi))/sqrt(2) (with
a conjugate-linear in psi) reproduces the commutator i Im<psi, phi> exactly
away from the cutoff; all canonical-commutation and covariance statements are
made on sectors <= n_max - 2 where truncation cannot reach, by slicing the
leading `sector_dim(n_max - 2)` block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .numkit import dagger, norm2, rank, row_space
from .locwedge import RealSubspace

DIMENSION_CAP = 4096


@dataclass
class FockSpace:
    one_particle_dim: int
    n_max: int
    occupations: np.ndarray      # (total_dim, d)
    raise_index: np.ndarray      # (d, sector_dim(n_max - 1)): a*_m target
    raise_value: np.ndarray      # (d, sector_dim(n_max - 1)): sqrt(occ_m + 1)

    @property
    def total_dim(self) -> int:
        return self.occupations.shape[0]

    def sector_dim(self, max_total: int) -> int:
        """Number of basis states with total <= max_total (a leading block)."""
        k = min(max_total, self.n_max)
        return comb(k + self.one_particle_dim, k) if k >= 0 else 0

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.total_dim, dtype=complex)
        v[0] = 1.0
        return v


def build_fock(d: int, n_max: int) -> FockSpace:
    """Occupation basis (ordered by total, then lexicographically) and ladders."""
    if d < 1 or n_max < 1:
        raise ValueError("need d >= 1 and n_max >= 1")
    total_dim = comb(n_max + d, d)
    if total_dim > DIMENSION_CAP:
        raise ValueError(f"Fock dimension {total_dim} exceeds cap {DIMENSION_CAP}")

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

    # a creator acts on the states below the top sector: the first s1
    s1 = comb(n_max - 1 + d, d)
    index = {tuple(o): i for i, o in enumerate(occs)}
    raise_index = np.empty((d, s1), dtype=np.intp)
    for i, occ in enumerate(occs[:s1]):
        for m in range(d):
            occ[m] += 1
            raise_index[m, i] = index[tuple(occ)]
            occ[m] -= 1
    raise_value = np.sqrt(occupations[:s1].T + 1.0)
    return FockSpace(one_particle_dim=d, n_max=n_max, occupations=occupations,
                     raise_index=raise_index, raise_value=raise_value)


def create(f: FockSpace, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a*(v) x = sum_m v_m a*_m x along the first axis of x, scattered from
    the index maps; the top sector has no image under the truncation."""
    x = np.asarray(x)
    low = x[:f.raise_index.shape[1]]
    weights = (np.asarray(v)[:, None] * f.raise_value).reshape(
        f.raise_value.shape + (1,) * (x.ndim - 1))
    out = np.zeros((f.total_dim,) + x.shape[1:], dtype=complex)
    for m in range(f.one_particle_dim):
        out[f.raise_index[m]] += weights[m] * low
    return out


def _field_block(f: FockSpace, psi: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Phi(psi)[:rows, :cols], scattered from the index maps."""
    src = np.broadcast_to(np.arange(f.raise_index.shape[1]), f.raise_index.shape)
    amp = psi[:, None] * f.raise_value / np.sqrt(2.0)
    out = np.zeros((rows, cols), dtype=complex)
    up = (f.raise_index < rows) & (src < cols)       # a*(psi): src -> target
    out[f.raise_index[up], src[up]] = amp[up]
    down = (src < rows) & (f.raise_index < cols)     # a(psi): target -> src
    out[src[down], f.raise_index[down]] = amp[down].conj()
    return out


@dataclass(eq=False)
class FieldOperator:
    """Phi(psi) on a Fock space; its matrices are built on first access."""
    space: FockSpace
    psi: np.ndarray

    @cached_property
    def mat(self) -> np.ndarray:
        """The full total_dim x total_dim matrix."""
        d = self.space.total_dim
        return _field_block(self.space, self.psi, d, d)

    @cached_property
    def safe_block(self) -> np.ndarray:
        """mat[:s2, :s1], s_k = sector_dim(n_max - k): the sectors <= n_max - 1
        into the safe sectors <= n_max - 2.  mat[:s1, :s2] is its adjoint."""
        f = self.space
        return _field_block(f, self.psi, f.sector_dim(f.n_max - 2),
                            f.sector_dim(f.n_max - 1))


def field_operator(f: FockSpace, psi: np.ndarray) -> FieldOperator:
    """Phi(psi) = (a(psi) + a*(psi)) / sqrt(2), a conjugate-linear in psi."""
    psi = np.asarray(psi, dtype=complex)
    if np.linalg.norm(psi) == 0:
        raise ValueError("field operator of the zero vector")
    return FieldOperator(space=f, psi=psi)


def _field(f: FockSpace, x) -> FieldOperator:
    return x if isinstance(x, FieldOperator) else field_operator(f, x)


def safe_commutator(f: FockSpace, psi, phi) -> np.ndarray:
    """[Phi(psi), Phi(phi)] on the sectors <= n_max - 2, as their leading
    block; psi and phi are one-particle vectors or fields already built.

    Exact, not truncated: a field moves the particle number by one, so every
    intermediate state of the product lies in the sectors <= n_max - 1.
    With both fields Hermitian, Phi(phi) Phi(psi) is the adjoint of
    Phi(psi) Phi(phi), so one block product serves both terms."""
    prod = _field(f, psi).safe_block @ dagger(_field(f, phi).safe_block)
    return prod - dagger(prod)


def ccr_defect(f: FockSpace, psi, phi) -> float:
    """Distance of [Phi(psi), Phi(phi)] from i Im<psi,phi> on safe sectors;
    psi and phi are one-particle vectors or fields already built."""
    if f.n_max < 2:
        raise ValueError("commutator check needs n_max >= 2")
    a, b = _field(f, psi), _field(f, phi)
    comm = safe_commutator(f, a, b)
    expected = 1j * np.vdot(a.psi, b.psi).imag * np.eye(comm.shape[0])
    return norm2(comm - expected)


def locality_check(f: FockSpace, k: RealSubspace, k_prime: RealSubspace) -> float:
    """Max commutator norm between fields smeared in K and in K'."""
    if k.ambient_dim != f.one_particle_dim or k_prime.ambient_dim != f.one_particle_dim:
        raise ValueError("subspace ambient dimension does not match the mode count")
    fields = [field_operator(f, psi) for psi in k.basis]
    fields_prime = [field_operator(f, phi) for phi in k_prime.basis]
    return max((norm2(safe_commutator(f, a, b))
                for a in fields for b in fields_prime), default=0.0)


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
    s = f.sector_dim(low)
    lhs = weyl_operator(f, psi)[:s] @ weyl_operator(f, phi)[:, :s]
    rhs = np.exp(-0.5j * np.vdot(psi, phi).imag) * weyl_operator(f, psi + phi)
    return norm2(lhs - rhs[:s, :s])


def cyclicity_rank(f: FockSpace, k: RealSubspace, degree: int) -> int:
    """Rank of span{Phi(psi_1)...Phi(psi_j) vacuum : j <= degree, psi in K}."""
    if degree > f.n_max:
        raise ValueError("degree exceeds the particle cutoff")
    fields = [field_operator(f, psi).mat for psi in k.basis]
    # each layer is kept as an orthonormal basis of its span, never as the
    # (dim K)^j products themselves; rows v map to (m v)^T = v m^T
    layer = f.vacuum()[None, :]
    layers = [layer]
    for _ in range(degree):
        if not fields:
            break
        layer = row_space(np.concatenate([layer @ m.T for m in fields]))
        layers.append(layer)
    return rank(np.concatenate(layers))

