"""Kraus channels, strong local preparability, disentanglement, and
entanglement detection.

The preparation channel {|xi><e_i| (x) 1} turns any input into the product of
the target vector state and the untouched outer marginal; it depends only on
the target.  The single-isometry form of that operation (W*W = 1, WW* = E a
proper projector) has no finite-dimensional solution - the rank obstruction is
itself a checked artifact - which is why the channel form stands in for it.
Partial-transpose detection is restricted to 2x2 and 2x3 where it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modular import purify
from .numkit import (VALIDITY_ATOL, complex_normal, dagger, haar_pure_state,
                     nonzero_mask, norm2, random_density, rank, require_budget)


@dataclass
class Channel:
    """A finite Kraus family; complete positivity is automatic."""

    kraus: np.ndarray  # (k, n, n)

    def __post_init__(self):
        self.kraus = np.asarray(self.kraus, dtype=complex)
        if self.kraus.ndim != 3 or self.kraus.shape[1] != self.kraus.shape[2]:
            raise ValueError("kraus operators must be a stack of square matrices")

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    def trace_defect(self) -> float:
        total = np.einsum("kij,kil->jl", self.kraus.conj(), self.kraus)
        return norm2(total - np.eye(self.dim))

    def is_trace_preserving(self) -> bool:
        return self.trace_defect() <= VALIDITY_ATOL * self.dim


def kraus_apply(rho: np.ndarray, channel: Channel) -> np.ndarray:
    """sum_i K_i rho K_i*."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (channel.dim, channel.dim):
        raise ValueError("state dimension does not match the channel")
    k = channel.kraus
    return (k @ rho @ dagger(k)).sum(axis=0)


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite density matrix."""
    d1, d2 = dims
    r = np.asarray(rho, dtype=complex).reshape(d1, d2, d1, d2)
    if keep == 0:
        return np.einsum("ijkj->ik", r)
    if keep == 1:
        return np.einsum("ijil->jl", r)
    raise ValueError("keep must be 0 or 1")


def partial_transpose(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the second tensor factor; a stack of states maps state by
    state."""
    d1, d2 = dims
    rho = np.asarray(rho, dtype=complex)
    r = rho.reshape(rho.shape[:-2] + (d1, d2, d1, d2))
    return r.swapaxes(-3, -1).reshape(rho.shape)


@dataclass
class SplitData:
    """Tensor split C^{d1} (x) C^{d2}; the observed algebra sits inside the
    first factor.

    inner_split = (a, b) with a b = d1 models the preparation margin: the
    observed algebra is B(C^a) (x) 1_b (x) 1_{d2}, strictly smaller than
    B(H_1) (x) 1, and the b ancilla levels are what purification of targets
    uses."""

    d1: int
    d2: int
    inner_split: tuple[int, int] | None = None

    def __post_init__(self):
        if self.inner_split is not None:
            a, b = self.inner_split
            if a * b != self.d1:
                raise ValueError("inner split must factor d1")

    @property
    def dim(self) -> int:
        return self.d1 * self.d2

    def inner_marginal(self, rho: np.ndarray) -> np.ndarray:
        """Marginal on the observed algebra."""
        first = partial_trace(rho, (self.d1, self.d2), keep=0)
        if self.inner_split is None:
            return first
        return partial_trace(first, self.inner_split, keep=0)

    def outer_marginal(self, rho: np.ndarray) -> np.ndarray:
        return partial_trace(rho, (self.d1, self.d2), keep=1)


def local_prepare_channel(split: SplitData, xi: np.ndarray) -> Channel:
    """Kraus family {|xi><e_i| (x) 1}: depends only on the target vector."""
    xi = np.asarray(xi, dtype=complex)
    # written so that a NaN target is refused
    if not abs(np.linalg.norm(xi) - 1.0) <= VALIDITY_ATOL:
        raise ValueError("target must be a unit vector")
    eye2 = np.eye(split.d2)
    ops = [np.kron(np.outer(xi, np.eye(split.d1)[i].conj()), eye2)
           for i in range(split.d1)]
    return Channel(np.stack(ops))


@dataclass
class DisentangleResult:
    state: np.ndarray
    channel: Channel | None       # None when the product-of-marginals fallback ran


def disentangle(split: SplitData, omega: np.ndarray) -> DisentangleResult:
    """Turn omega into an uncorrelated state with the same marginals.

    The target on the observed algebra is omega's own inner marginal,
    prepared as a vector state via purification into the margin levels.  When
    no margin can host the purification the product of marginals is returned
    directly (documented fallback; a vector target cannot carry a mixed
    marginal without ancilla room).
    """
    omega = np.asarray(omega, dtype=complex)
    rho_inner = split.inner_marginal(omega)
    ancilla = split.inner_split[1] if split.inner_split else 1
    if nonzero_mask(np.linalg.eigvalsh(rho_inner)).sum() <= ancilla:
        xi = purify(rho_inner, ancilla)
        channel = local_prepare_channel(split, xi)
        return DisentangleResult(state=kraus_apply(omega, channel),
                                 channel=channel)
    product = np.kron(partial_trace(omega, (split.d1, split.d2), 0),
                      split.outer_marginal(omega))
    return DisentangleResult(state=product, channel=None)


def is_entangled(rho: np.ndarray, dims: tuple[int, int]
                 ) -> tuple[bool | np.ndarray, float | np.ndarray]:
    """Partial-transpose test, exact only for 2x2 and 2x3 (enforced).

    Returns (verdict, minimum PT eigenvalue).  A stack of states takes one
    batched ``eigvalsh`` and returns both as arrays over its leading axes.
    """
    d1, d2 = dims
    if d1 * d2 > 6:
        raise ValueError("partial-transpose criterion is only exact up to dim 6")
    min_eig = np.linalg.eigvalsh(partial_transpose(rho, dims)).min(axis=-1)
    if min_eig.ndim == 0:
        min_eig = float(min_eig)
    return min_eig < -VALIDITY_ATOL, min_eig


# bytes a sample at genericity_scan's peak (tracemalloc read 137, 163 and
# 785), stated with 128 KiB more: the budget admits 1.86 M pure samples
SCAN_BYTES = {"pure": 144, "product": 168, "mixed": 800}


def genericity_scan(samples: int, seed: int, kind: str = "pure") -> dict:
    """Fraction of random qubit-pair states that are entangled.

    kind='pure': Haar vectors, Schmidt-rank test (entangled off a measure-zero
    set).  kind='product': explicit product controls.  kind='mixed':
    Hilbert-Schmidt random density matrices with the PT test (fraction lands
    strictly between 0 and 1; reported, not asserted).  Every kind draws its
    samples as one stack, refused over the byte budget before the draw.
    """
    if samples < 100:
        raise ValueError("use at least 100 samples")
    if kind not in SCAN_BYTES:
        raise ValueError(f"unknown scan kind {kind!r}")
    require_budget(SCAN_BYTES[kind] * samples + (1 << 17),
                   f"a genericity scan of {samples:,} {kind} samples")
    d1 = d2 = 2
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        flags, _ = is_entangled(random_density(rng, d1 * d2, samples), (d1, d2))
    else:
        if kind == "pure":
            psi = haar_pure_state(rng, d1 * d2, samples)
        else:
            # d1 == d2: a sample's two factors are consecutive draws
            pair = haar_pure_state(rng, d1, 2 * samples).reshape(samples, 2, d1)
            psi = pair[:, 0, :, None] * pair[:, 1, None, :]
        # Schmidt ranks of all samples from one stacked SVD
        flags = rank(np.reshape(psi, (samples, d1, d2))) > 1
    hits = int(np.count_nonzero(flags))
    return {"kind": kind, "samples": samples, "entangled": hits,
            "fraction": hits / samples}


def isometry_impossibility_check(projector: np.ndarray, seed: int = 0) -> dict:
    """Certify that W*W = 1, WW* = E has no solution for a proper projector
    E on C^n, n read from its shape.

    rank(W*W) = rank(W) = rank(WW*) for every matrix W, so the two conditions
    force rank(E) = n.  Random W samples illustrate the rank equality; the
    certificate itself is the exact rank argument.
    """
    projector = np.asarray(projector, dtype=complex)
    if projector.ndim != 2 or projector.shape[0] != projector.shape[1]:
        raise ValueError("E must be a square matrix")
    n = projector.shape[0]
    # a NaN or inf would reach the SVD in norm2 and break it there
    if not np.isfinite(projector).all():
        raise ValueError("projector E must be finite")
    if not (norm2(projector @ projector - projector) <= VALIDITY_ATOL
            and norm2(projector - dagger(projector)) <= VALIDITY_ATOL):
        raise ValueError("E must be an orthogonal projector")
    rank_e = int(round(np.trace(projector).real))
    trials = 20
    w = complex_normal(np.random.default_rng(seed), (n, n), trials)
    equal_ranks = bool(np.array_equal(rank(dagger(w) @ w),
                                      rank(w @ dagger(w))))
    possible = rank_e == n
    reason = ("E = 1: any unitary solves the relation" if possible else
              "rank(W*W) = rank(WW*) for every W, but the relation would "
              f"force {n} = rank(1) = rank(W*W) = rank(WW*) = rank(E) = {rank_e}")
    return {"dim": n, "rank_e": rank_e, "possible": possible,
            "sampled_rank_checks": trials, "sampled_ranks_equal": equal_ranks,
            "reason": reason}


def bell_state() -> np.ndarray:
    """The maximally entangled qubit-pair vector (|00> + |11>) / sqrt(2)."""
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)


def werner_state(p: float) -> np.ndarray:
    b = bell_state()
    return p * np.outer(b, b.conj()) + (1.0 - p) * np.eye(4) / 4.0
