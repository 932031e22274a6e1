"""Truncated symmetric Fock space and Weyl quantization.

Occupation-number basis over d modes with total particle number capped at
n_max, ordered by total particle number, so the sectors <= k are the leading
`sector_dim(k)` basis states.  A FockSpace stores that basis alone: d is its
width and n_max the total of its last state.  Ladders are index maps cached
on first read: for each mode, the basis index that a creator sends each of
the first `sector_dim(n_max - 1)` states to, and the symmetric-tensor weight
sqrt(occ + 1); `create` applies a*(v) from them, and no dense ladder matrix
is formed.  The field operator Phi(psi) = (a(psi) + a*(psi))/sqrt(2) (with
a conjugate-linear in psi) reproduces the commutator i Im<psi, phi> exactly
away from the cutoff, so the canonical-commutation and locality checks are
made on the safe sectors <= n_max - 2, where truncation cannot reach.

Those checks follow the particle-number structure.  A field moves the
number by one, so C = [Phi(psi), Phi(phi)] couples sector k only to k and
k +- 2: on the safe sectors it is a permuted direct sum of a part on the
even totals and a part on the odd totals, and its spectral norm (or that of
C - c 1) is the larger of the two parts' norms, exactly.  The product
Phi(psi) Phi(phi) is a sum of (2d)^2 ladder pairs a#_m a#_m', each with at
most one entry per column; the raise map and its inverse, the lowering map,
are composed once per space into `FockSpace.parity_parts`, and every
commutator is accumulated from those terms straight into the two parts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .numkit import dagger, norm2, rank, require_budget, row_space
from .locwedge import RealSubspace


@dataclass
class FockSpace:
    """The truncated Fock space, stored as its occupation basis; the mode
    count, the cutoff and the ladder index maps are read from it."""

    occupations: np.ndarray      # (total_dim, d), ordered by total

    @property
    def total_dim(self) -> int:
        return self.occupations.shape[0]

    @property
    def one_particle_dim(self) -> int:
        return self.occupations.shape[1]

    @cached_property
    def n_max(self) -> int:
        """The particle cutoff: the total of the last basis state."""
        return int(self.occupations[-1].sum())

    @cached_property
    def raise_index(self) -> np.ndarray:
        """(d, sector_dim(n_max - 1)): the basis index a*_m sends each state
        below the top sector to."""
        occs = self.occupations.tolist()
        s1 = self.sector_dim(self.n_max - 1)
        index = {tuple(o): i for i, o in enumerate(occs)}
        out = np.empty((self.one_particle_dim, s1), dtype=np.intp)
        for i, occ in enumerate(occs[:s1]):
            for m in range(self.one_particle_dim):
                occ[m] += 1
                out[m, i] = index[tuple(occ)]
                occ[m] -= 1
        return out

    @cached_property
    def raise_value(self) -> np.ndarray:
        """(d, sector_dim(n_max - 1)): the weight sqrt(occ_m + 1) of a*_m."""
        s1 = self.sector_dim(self.n_max - 1)
        return np.sqrt(self.occupations[:s1].T + 1.0)

    def sector_dim(self, max_total: int) -> int:
        """Number of basis states with total <= max_total (a leading block)."""
        k = min(max_total, self.n_max)
        return comb(k + self.one_particle_dim, k) if k >= 0 else 0

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.total_dim, dtype=complex)
        v[0] = 1.0
        return v

    @cached_property
    def ladders(self) -> tuple[np.ndarray, np.ndarray]:
        """Target index and weight of every ladder on the states below the
        top sector, each (2d, sector_dim(n_max - 1)): row m is a*_m, row
        d + m is a_m.  The lowering map inverts `raise_index`; a_m of a state
        with mode m empty has weight 0."""
        d, s1 = self.raise_index.shape
        lower = np.zeros((d, self.total_dim), dtype=np.intp)
        lower[np.arange(d)[:, None], self.raise_index] = np.arange(s1)
        return (np.concatenate([self.raise_index, lower[:, :s1]]),
                np.concatenate([self.raise_value,
                                np.sqrt(self.occupations[:s1].T)]))

    @cached_property
    def parity_parts(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
        """The ladder-pair terms of Phi(psi) Phi(phi) on the safe sectors
        (total <= n_max - 2), split into the even and the odd totals.

        Term (t2, t1, j) applies ladder t1 of Phi(phi), then ladder t2 of
        Phi(psi), to safe state j; both keep its parity.  A part is (cells,
        pairs, weights, width): each term adds its weight times coefficient
        `pairs` (t2 * 2d + t1) of the two fields' ladder coefficients to flat
        cell `cells` of the width x width part.  Terms that lower an empty
        mode or leave the safe sectors are dropped."""
        index, weight = self.ladders
        safe = self.sector_dim(self.n_max - 2)
        two_d = index.shape[0]
        mid = index[:, :safe]                         # [t1, j]
        target = index[:, mid]                        # [t2, t1, j]
        w = weight[:, mid] * weight[:, :safe]
        pair = np.broadcast_to(
            np.arange(two_d * two_d).reshape(two_d, two_d, 1), target.shape)
        source = np.broadcast_to(np.arange(safe), target.shape)
        parity = self.occupations[:safe].sum(axis=1) % 2
        keep = (w != 0) & (target < safe)
        pos = np.empty(safe, dtype=np.intp)           # place within its part
        parts = []
        for p in (0, 1):
            members = np.flatnonzero(parity == p)
            pos[members] = np.arange(members.size)
            sel = keep & (parity[source] == p)
            parts.append((pos[target[sel]] * members.size + pos[source[sel]],
                          pair[sel], w[sel], members.size))
        return parts


def build_fock(d: int, n_max: int) -> FockSpace:
    """Occupation basis, ordered by total, then lexicographically.

    The space is refused when one dense operator on it, 16 D^2 bytes, is
    over the byte budget, which admits D <= 4096."""
    if d < 1 or n_max < 1:
        raise ValueError("need d >= 1 and n_max >= 1")
    total_dim = comb(n_max + d, d)
    require_budget(16 * total_dim ** 2,
                   f"a dense operator on the Fock space of dimension {total_dim}")

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
    return FockSpace(occupations)


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


def _checked_vector(f: FockSpace, psi: np.ndarray) -> np.ndarray:
    """psi as a complex one-particle vector; refuses a wrong mode count and
    the zero vector."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (f.one_particle_dim,):
        raise ValueError("one-particle vector does not match the mode count")
    if np.linalg.norm(psi) == 0:
        raise ValueError("field operator of the zero vector")
    return psi


def field_operator(f: FockSpace, psi: np.ndarray) -> np.ndarray:
    """Phi(psi) = (a(psi) + a*(psi)) / sqrt(2), a conjugate-linear in psi: the
    full total_dim x total_dim matrix, scattered from the index maps."""
    psi = _checked_vector(f, psi)
    src = np.broadcast_to(np.arange(f.raise_index.shape[1]), f.raise_index.shape)
    amp = psi[:, None] * f.raise_value / np.sqrt(2.0)
    out = np.zeros((f.total_dim, f.total_dim), dtype=complex)
    out[f.raise_index, src] = amp              # a*(psi): src -> target
    out[src, f.raise_index] = amp.conj()       # a(psi): target -> src
    return out


@dataclass
class SectorCommutator:
    """[Phi(psi), Phi(phi)] on the safe sectors as its even and odd parity
    parts; every entry between the two is an exact zero."""
    parts: list[np.ndarray]
    im: float                     # Im<psi, phi>: the CCR say C = i im 1

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the Hermitian i C, both parts together (each part
        is exactly anti-Hermitian); an all-zero part is not solved."""
        return np.concatenate([np.linalg.eigvalsh(1j * p) if p.any()
                               else np.zeros(len(p)) for p in self.parts])

    def norm(self) -> float:
        return float(np.max(np.abs(self.spectrum), initial=0.0))

    def defect(self) -> float:
        """norm2(C - i Im<psi,phi> 1): i (C - i im 1) = i C + im 1."""
        return float(np.max(np.abs(self.spectrum + self.im), initial=0.0))


def sector_commutator(f: FockSpace, psi: np.ndarray,
                      phi: np.ndarray) -> SectorCommutator:
    """[Phi(psi), Phi(phi)] on the sectors <= n_max - 2, from the ladder
    pairs of `FockSpace.parity_parts`.

    Exact, not truncated: every intermediate state of the product lies in
    the sectors <= n_max - 1.  With both fields Hermitian, Phi(phi) Phi(psi)
    is the adjoint of P = Phi(psi) Phi(phi), so C = P - P*."""
    if f.n_max < 2:
        raise ValueError("commutator check needs n_max >= 2")
    psi, phi = _checked_vector(f, psi), _checked_vector(f, phi)
    # a*_m carries v_m and a_m carries conj(v_m), each over sqrt(2)
    coef = 0.5 * np.outer(np.concatenate([psi, psi.conj()]),
                          np.concatenate([phi, phi.conj()])).ravel()
    parts = []
    for cells, pair, weight, width in f.parity_parts:
        term = weight * coef[pair]
        prod = np.empty(width * width, dtype=complex)
        prod.real = np.bincount(cells, term.real, width * width)
        prod.imag = np.bincount(cells, term.imag, width * width)
        prod = prod.reshape(width, width)
        parts.append(prod - dagger(prod))
    return SectorCommutator(parts, float(np.vdot(psi, phi).imag))


def locality_check(f: FockSpace, k: RealSubspace, k_prime: RealSubspace) -> float:
    """Max commutator norm between fields smeared in K and in K'."""
    if k.ambient_dim != f.one_particle_dim or k_prime.ambient_dim != f.one_particle_dim:
        raise ValueError("subspace ambient dimension does not match the mode count")
    return float(np.max([sector_commutator(f, psi, phi).norm()
                         for psi in k.basis for phi in k_prime.basis],
                        initial=0.0))


def weyl_operator(f: FockSpace, psi: np.ndarray) -> np.ndarray:
    """exp(i Phi(psi)) on the truncation (exactly unitary as a matrix; the
    discrepancy against the untruncated Weyl operator sits in the top sectors)."""
    psi = np.asarray(psi, dtype=complex)
    if np.linalg.norm(psi) == 0:
        return np.eye(f.total_dim, dtype=complex)
    phi = field_operator(f, psi)
    w, u = np.linalg.eigh(phi)
    return (u * np.exp(1j * w)) @ dagger(u)


def weyl_relation_defect(f: FockSpace, psi: np.ndarray,
                         phi: np.ndarray) -> float:
    """Defect of W(psi) W(phi) = exp(-i Im<psi,phi>/2) W(psi+phi) on sectors
    <= 1.

    Unlike the commutator checks, the product of truncated exponentials feels
    the cutoff through every intermediate sector, so the defect decays with
    the distance n_max - 1 (and grows like a power of the argument norms)."""
    s = f.sector_dim(1)
    lhs = weyl_operator(f, psi)[:s] @ weyl_operator(f, phi)[:, :s]
    rhs = np.exp(-0.5j * np.vdot(psi, phi).imag) * weyl_operator(f, psi + phi)
    return norm2(lhs - rhs[:s, :s])


def cyclicity_bytes(fields: int, total_dim: int) -> int:
    """Stated peak of `cyclicity_rank` with `fields` dense fields (one per
    basis vector of K) on a space of dimension D: 2 (fields + 1) dense
    operators of 16 D^2 bytes, the fields, one layer's stacked products and
    the rank of all layers.  tracemalloc read 1.7-2.2 x fields x 16 D^2 for
    K = R^d at (d, n_max) = (3, 5), (5, 6), (4, 8), (6, 5), (3, 12), (8, 4),
    and at most 3.3 x 16 D^2 for a one-dimensional K."""
    return 2 * (fields + 1) * 16 * total_dim ** 2


def cyclicity_rank(f: FockSpace, k: RealSubspace, degree: int) -> int:
    """Rank of span{Phi(psi_1)...Phi(psi_j) vacuum : j <= degree, psi in K}.

    Refused before any field is built when `cyclicity_bytes` is over the
    byte budget."""
    if degree > f.n_max:
        raise ValueError("degree exceeds the particle cutoff")
    require_budget(cyclicity_bytes(k.real_dim, f.total_dim),
                   f"cyclicity_rank with {k.real_dim} fields of dimension "
                   f"{f.total_dim}")
    fields = [field_operator(f, psi) for psi in k.basis]
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

