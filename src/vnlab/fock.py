"""Truncated symmetric Fock space and Weyl quantization.

Occupation-number basis over d modes with total particle number capped at
n_max, ordered by total particle number, so the sectors <= k are the leading
`sector_dim(k)` basis states.  A FockSpace is frozen and stores d and n_max
alone; its constructor refuses invalid sizes and a space over the byte
budget, then writes that basis once, row by row.  Ladders are one index map
cached on first read: for each mode, the basis index that a creator sends
each of the first `sector_dim(n_max - 1)` states to, and the weight
sqrt(occ + 1); `apply_ladders` applies any number of ladder sums from it at
once, and no dense ladder matrix is formed.  The field operator Phi(psi) =
(a(psi) + a*(psi))/sqrt(2) (with a conjugate-linear in psi) reproduces the
commutator i Im<psi, phi> exactly away from the cutoff, so the
canonical-commutation and locality checks are made on the safe sectors
<= n_max - 2, where truncation cannot reach.

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
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .numkit import dagger, norm2, read_only, require_budget, row_space
from .locwedge import RealSubspace


@dataclass(frozen=True)
class FockSpace:
    """The truncated Fock space of d modes with particle cutoff n_max,
    refused when one dense operator on it, 16 D^2 bytes, is over the byte
    budget (D <= 4096).  The occupation basis, (total_dim, d), is written
    on construction; it and the ladder maps read from it are read-only."""

    one_particle_dim: int
    n_max: int
    occupations: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.one_particle_dim
        if d < 1 or self.n_max < 1:
            raise ValueError("need d >= 1 and n_max >= 1")
        require_budget(16 * self.total_dim ** 2, f"a dense operator on the "
                       f"Fock space of dimension {self.total_dim}")
        # int32 keeps the table under the budget at D = 4096
        table = np.zeros((self.total_dim, d), np.int32)
        # each multiset of modes is one occupation pattern; the generation
        # order (by total, then mode-lexicographic) is the basis order
        patterns = itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(d), total)
            for total in range(self.n_max + 1))
        for i, modes in enumerate(patterns):
            occ = [0] * d
            for m in modes:
                occ[m] += 1
            table[i] = occ
        object.__setattr__(self, "occupations", read_only(table))

    @property
    def total_dim(self) -> int:
        return self.sector_dim(self.n_max)

    @cached_property
    def raise_index(self) -> np.ndarray:
        """(d, sector_dim(n_max - 1)): the basis index a*_m sends each state
        below the top sector to, counted in the basis order.  Of the
        states that precede one in its sector, below[r, k] agree with it
        before mode j and exceed it at j (k = d - 1 - j, r the total it
        leaves to the modes after j); raising mode m adds one to r at j < m."""
        d = self.one_particle_dim
        occ = self.occupations[:self.sector_dim(self.n_max - 1)]
        total = occ.sum(axis=1)
        # below[r, k]: the states of k modes with total < r
        below = np.array([[comb(r - 1 + k, k) if r else 0 for k in range(d + 1)]
                          for r in range(self.n_max + 1)], dtype=np.intp)
        rest, after = total[:, None] - np.cumsum(occ, axis=1), np.arange(d)[::-1]
        kept = below[rest, after]
        gain = below[rest + 1, after] - kept
        start = below[total + 1, d] + kept.sum(axis=1)    # index of occ + e_0
        return read_only((start[:, None] + np.cumsum(gain, axis=1) - gain).T)

    @cached_property
    def raise_value(self) -> np.ndarray:
        """(d, sector_dim(n_max - 1)): the weight sqrt(occ_m + 1) of a*_m."""
        s1 = self.sector_dim(self.n_max - 1)
        return read_only(np.sqrt(self.occupations[:s1].T + 1.0))

    def sector_dim(self, max_total: int) -> int:
        """Number of basis states with total <= max_total (a leading block)."""
        k = min(max_total, self.n_max)
        return comb(k + self.one_particle_dim, k) if k >= 0 else 0

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.total_dim, dtype=complex)
        v[0] = 1.0
        return v

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
        # rows a*_m, then a_m by the inverse map (weight 0 on an empty mode)
        d, s1 = self.raise_index.shape
        lower = np.zeros((d, self.total_dim), dtype=np.intp)
        lower[np.arange(d)[:, None], self.raise_index] = np.arange(s1)
        index = np.concatenate([self.raise_index, lower[:, :s1]])
        weight = np.concatenate([self.raise_value,
                                 np.sqrt(self.occupations[:s1].T)])
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


def apply_ladders(f: FockSpace, up, down, x: np.ndarray) -> np.ndarray:
    """sum_m up[k, m] a*_m x + down[k, m] a_m x along the first axis of x,
    one image per row k of up and down, which broadcast to (rows, d).  a* is
    one scatter per mode into every row (the top sector has no image); a_m
    reads the state a*_m raises each state to, one gather and one
    contraction over the modes."""
    up, down = np.broadcast_arrays(up, down)
    x = np.asarray(x)
    index = f.raise_index
    s1 = index.shape[1]
    value = f.raise_value.reshape(index.shape + (1,) * (x.ndim - 1))
    out = np.zeros((len(up), f.total_dim) + x.shape[1:], dtype=complex)
    lead = (len(up),) + (1,) * x.ndim
    for m in range(f.one_particle_dim):
        out[:, index[m]] += (up[:, m].reshape(lead) * value[m]) * x[:s1]
    lowered = x[index]            # (d, s1, ...), weighted in place
    lowered *= value
    out[:, :s1] += np.tensordot(down, lowered, axes=(1, 0))
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


def field_bytes(dim: int) -> int:
    """Stated peak of `field_operator` on a Fock space of dimension D = dim:
    six dense operators of 16 D^2 bytes, and 16 KiB.  They are the
    identity, the lowered identity (d n_max / (d + n_max) operators), the
    scatter's temporaries and the result.  Over 30 spaces with
    21 <= D <= 1891, tracemalloc read 3.0 operators at d = 1671, n_max = 1,
    and at most 5.6, at d = 4, n_max = 10; `weyl_operator`, whose
    eigensolve follows, read at most 5.0.  The budget admits D <= 1672."""
    return 96 * dim ** 2 + (1 << 14)


def field_operator(f: FockSpace, psi: np.ndarray) -> np.ndarray:
    """Phi(psi) = (a(psi) + a*(psi)) / sqrt(2), a conjugate-linear in psi: the
    full total_dim x total_dim matrix, `apply_ladders` on the identity.
    Refused when `field_bytes` is over the budget."""
    psi = _checked_vector(f, psi)
    require_budget(field_bytes(f.total_dim),
                   f"a field operator on the Fock space of dimension "
                   f"{f.total_dim}")
    return apply_ladders(f, psi[None], psi.conj()[None],
                         np.eye(f.total_dim, dtype=complex))[0] / np.sqrt(2.0)


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
    if np.shape(psi) == (f.one_particle_dim,) and np.linalg.norm(psi) == 0:
        return np.eye(f.total_dim, dtype=complex)
    w, u = np.linalg.eigh(field_operator(f, psi))
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


def cyclicity_bytes(fields: int, d: int, n_max: int) -> int:
    """Stated peak of `cyclicity_rank` with `fields` fields on d modes and
    cutoff n_max: 16 D (2 S + 3 fields b) bytes for the span with its copy
    and a block's images with their SVD, 16 s1 b (d + 2 fields) for the
    kernel's gather or scatter, 80 d s1 for the index maps, and 16 KiB.  D
    and s1 count all states and those below the top sector, S and b the
    span's and the largest block's rows over the c = min(fields, d) modes
    that K spans, the only ones its fields reach."""
    c = min(fields, d)
    dim, s1 = comb(n_max + d, d), comb(n_max - 1 + d, d)
    span = comb(n_max + c, c)
    block = comb(n_max + c - 2, c - 1) if c else 0
    return (16 * (dim * (2 * span + 3 * fields * block)
                  + s1 * (block * (d + 2 * fields) + 5 * d)) + (1 << 14))


def cyclicity_rank(f: FockSpace, k: RealSubspace, degree: int) -> list[int]:
    """Rank of span{Phi(psi_1)...Phi(psi_j) vacuum : j <= dd, psi in K} at
    every degree dd = 0, 1, ..., degree, from one Krylov pass: the rows of
    `span` are an orthonormal basis of the degrees <= j, and `block` is the
    part degree j added.  Phi(psi) maps the degrees <= j - 1 into the
    degrees <= j, so one `apply_ladders` call moves `block` by every field
    (without the 1/sqrt(2)); the images, projected off `span` twice, have
    the next block as row space.  Refused before any vector is built when
    `cyclicity_bytes` is over the budget."""
    if degree > f.n_max:
        raise ValueError("degree exceeds the particle cutoff")
    if k.ambient_dim != f.one_particle_dim:
        raise ValueError("subspace ambient dimension does not match the mode count")
    require_budget(cyclicity_bytes(k.real_dim, f.one_particle_dim, f.n_max),
                   f"cyclicity_rank with {k.real_dim} fields of dimension "
                   f"{f.total_dim}")
    span = block = f.vacuum()[None, :]
    ranks = [1]
    for _ in range(degree):
        if len(block) and k.real_dim:
            # the roundoff left along `span` shrinks by about eps^2 a degree
            # and underflows on long chains: ignored, as in numpy.linalg
            with np.errstate(under="ignore"):
                images = apply_ladders(f, k.basis, k.basis.conj(), block.T)
                images = images.transpose(0, 2, 1).reshape(-1, f.total_dim)
                for _ in range(2):
                    images -= (images @ dagger(span)) @ span
            block = row_space(images)
            span = np.concatenate([span, block])
        ranks.append(len(span))
    return ranks
