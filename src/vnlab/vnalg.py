"""Finite-dimensional von Neumann algebra machinery.

Algebras are unital *-closed spans of matrices, stored with a basis that is
orthonormal in the Hilbert-Schmidt inner product tr(A* B), a tensor factor
as its split alone; membership tests are projection residuals with a single
threshold and J b J a product with the basis (a partial trace on a tensor
factor, J's column blocks on M_d (x) 1).  Every rank decision is numkit's
rank rule: the closure is numkit's Krylov closure under the letters, one
letter per pass; commutants are solved from one random element of the
algebra on the entries where its Hermitian part's commutator vanishes and
certified against the whole basis; and the center is the null space of a
triangular factor that the commutator map's row blocks are folded into one
QR at a time, so the map is never formed.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import cached_property

import numpy as np

from .numkit import (complex_normal, dagger, krylov, nonzero_mask,
                     null_space, read_only, row_space)

# an element belongs to a span when its orthogonal residual is below
# MEMBERSHIP_RTOL times its own norm
MEMBERSHIP_RTOL = 1e-9

# random elements commutant() tries before it gives up
COMMUTANT_DRAWS = 4


def orthonormalize_span(mats: np.ndarray) -> np.ndarray:
    """Orthonormal HS basis of span{mats}."""
    mats = np.asarray(mats, dtype=complex)
    k, n, _ = mats.shape
    return row_space(mats.reshape(k, n * n)).reshape(-1, n, n)


class OperatorAlgebra:
    """A *-closed unital span of matrices on C^dim, given by an orthonormal
    basis (orthonormalize_span makes one from any spanning set); read-only,
    and it keeps the arrays it is handed as read-only views."""

    # a TensorFactor's (d, m, side) and its commutant; none on a generic span
    split: tuple[int, int, int] | None = None
    commutant_hint: OperatorAlgebra | None = None

    def __init__(self, basis: np.ndarray, *, generators=None):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise ValueError("basis must be a stack of square matrices")
        object.__setattr__(self, "basis", read_only(basis))
        object.__setattr__(self, "generators", None if generators is None
                           else read_only(np.asarray(generators, complex)))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def dim(self) -> int:
        """Dimension of the Hilbert space the matrices act on."""
        if self.split is None:
            return self.basis.shape[-1]
        return self.split[0] * self.split[1]

    @property
    def size(self) -> int:
        """Linear dimension of the algebra."""
        if self.split is None:
            return self.basis.shape[0]
        return self.split[self.split[2]] ** 2

    def member_residual(self, x: np.ndarray) -> float:
        """Norm of the component of x orthogonal to the span; for a stack of
        matrices, the largest over the stack.  A complex stack is overwritten
        by those components (the projections are subtracted in place; a
        read-only one raises); a single matrix is left as it is.  A tensor
        factor subtracts a partial trace in place: tr_2 x (x) 1 / m on
        M_d (x) 1, 1 (x) tr_1 x / d on 1 (x) M_m.  Any other algebra
        projects onto its basis, and a stack then costs one temporary of its
        own size, first its conjugated rows, then the projection product.
        """
        rows = x.reshape(-1, self.dim ** 2).astype(complex, copy=x.ndim == 2)
        if self.split is None:
            f = self.basis.reshape(self.size, -1)
            # the coefficients tr(b_i* x) conjugate x, not the whole basis
            rows -= (f @ rows.conj().T).conj().T @ f
        else:
            # the entries x[(a, i), (b, j)] the projection reaches are a
            # writeable diagonal view: i = j on the left, a = b on the right
            d, m, side = self.split
            blocks = rows.reshape(-1, d, m, d, m)
            if side == 0:
                diag = np.einsum("xaibi->xabi", blocks)
                diag -= diag.sum(axis=-1, keepdims=True) / m
            else:
                diag = np.einsum("xaiaj->xaij", blocks)
                diag -= diag.sum(axis=1, keepdims=True) / d
        # per row, the sum np.linalg.norm forms for one matrix
        sq = np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag)
        return float(np.sqrt(sq.max()))

    def contains(self, x: np.ndarray) -> bool:
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            return True
        return self.member_residual(x) <= MEMBERSHIP_RTOL * nx

    def element(self, coeff: np.ndarray) -> np.ndarray:
        """Linear combination of basis matrices; on M_d (x) 1_m, the
        coefficients as a d x d matrix, kron'd with 1_m / sqrt(m)."""
        coeff = np.asarray(coeff, dtype=complex)
        if self.split is None or self.split[2] == 1:
            return np.tensordot(coeff, self.basis, axes=(0, 0))
        d, m, _ = self.split
        return np.kron(coeff.reshape(d, d), np.eye(m) / np.sqrt(m))

    def orbits(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The orbit {b_i omega} and the adjoint orbit {b_i* omega}, as the
        columns of two dim x size matrices, one pass over the basis stack
        each (conjugating omega and the result spares a conjugate copy of
        it).  On M_d (x) 1_m, with omega a d x m matrix W, the orbit is
        kron(1_d, W^T) times the basis's 1 / sqrt(m), bit for bit, and
        b_(i,j)* = b_(j,i): the adjoint orbit has its columns transposed."""
        if self.split is None or self.split[2] == 1:
            return (np.einsum("aij,j->ia", self.basis, omega),
                    np.einsum("aji,j->ia", self.basis, omega.conj()).conj())
        d, m, _ = self.split
        orbit = np.kron(np.eye(d), omega.reshape(d, m).T * (1 / np.sqrt(m)))
        return orbit, orbit.reshape(-1, d, d).swapaxes(1, 2).reshape(d * m, -1)

    def conjugates(self, n: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """J b_i J = n conj(b_i) conj(n) over the consecutive basis indices
        idx, as a stack, for an antiunitary J of matrix n.  On M_d (x) 1_m
        the basis element E_ij (x) 1 / sqrt(m) is real, so J b J is n's
        column block i times conj(n)'s row block j over sqrt(m): about k^5
        flops on C^k (x) C^k, against 2 k^6 for the dense product any other
        algebra takes on a view of its basis."""
        if self.split is None or self.split[2] == 1:
            return n @ self.basis[idx[0]:idx[-1] + 1].conj() @ n.conj()
        d, m, _ = self.split
        cols = n.reshape(-1, d, m).transpose(1, 0, 2) / np.sqrt(m)
        return cols[idx // d] @ n.conj().reshape(d, m, -1)[idx % d]

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        """sum_i c_i b_i over the basis with complex Gaussian c."""
        return self.element(complex_normal(rng, (self.size,)))

    def __repr__(self):
        return f"OperatorAlgebra(dim={self.dim}, size={self.size})"


def matrix_units(n: int) -> np.ndarray:
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n)


class TensorFactor(OperatorAlgebra):
    """M_d (x) 1_m (side 0) or 1_d (x) M_m (side 1) on C^(d m), stored as
    its split alone.  Its basis of matrix units, kron(E_ij, 1_m) / sqrt(m)
    or kron(1_d, E_ab) / sqrt(d), is built only when a generic reader asks.
    The left factor hints the right as its commutant, one way only: a pair
    hinting at each other would be a reference cycle."""

    generators = None

    def __init__(self, d: int, m: int, side: int):
        object.__setattr__(self, "split", (d, m, side))

    @cached_property
    def basis(self) -> np.ndarray:
        d, m, side = self.split
        if side == 0:
            return read_only(np.kron(matrix_units(d), np.eye(m) / np.sqrt(m)))
        return read_only(np.kron(np.eye(d) / np.sqrt(d), matrix_units(m)))

    @cached_property
    def commutant_hint(self) -> TensorFactor | None:
        d, m, side = self.split
        return None if side else TensorFactor(d, m, 1)


def tensor_factor_algebra(d: int, m: int) -> TensorFactor:
    """`TensorFactor(d, m, 0)`, kept only for perfbench/test_tracer.py."""
    return TensorFactor(d, m, 0)


def vn_closure(generators, dim: int) -> OperatorAlgebra:
    """Smallest unital *-closed product-closed span containing the generators.

    The letters are the generators and their adjoints.  `numkit.krylov`
    grows the span of 1 and the letters under left multiplication by the
    letters, so the words it holds grow by one letter per pass; the span is
    the algebra once a pass adds none.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if any(g.shape != (dim, dim) for g in gens):
        raise ValueError("generator dimension mismatch")
    letters = np.array(gens + [dagger(g) for g in gens]).reshape(-1, dim, dim)
    start = orthonormalize_span(np.concatenate([np.eye(dim)[None], letters]))
    span, _ = krylov(start.reshape(-1, dim * dim), lambda added: (
        letters[:, None] @ added.reshape(-1, dim, dim)).reshape(-1, dim * dim))
    return OperatorAlgebra(span.reshape(-1, dim, dim),
                           generators=np.array(gens) if gens else None)


def commutant(a: OperatorAlgebra, use_hint: bool = True) -> OperatorAlgebra:
    """{X : [b, X] = 0 for all b in the algebra}.

    A generic element z of the algebra and its adjoint generate it, so A' is
    the set of X commuting with h = (z + z*)/2 and k = (z - z*)/2i.  In the
    eigenbasis of h, [h, X] has entries (w_r - w_s) X_rs, so the unknowns
    are the entries whose |w_r - w_s| the rank rule reads as zero, and
    [k, X] = 0 is solved on those entries only.  The result is certified by
    commuting it with every basis element of the algebra, which proves that
    it lies in A'; it is all of A' when every split of a degenerate
    eigenvalue is below the rank rule's cut.  A failed certification (an
    unlucky z) redraws, up to COMMUTANT_DRAWS times.  The draws come from a
    fixed seed, so the result is a pure function of the algebra.  A
    structured commutant_hint short-circuits the solve unless use_hint is
    False.
    """
    if use_hint and a.commutant_hint is not None:
        return a.commutant_hint
    rng = np.random.default_rng(0)
    for _ in range(COMMUTANT_DRAWS):
        basis = _commutant_of_element(a.random_element(rng))
        if _commutator_residual(a.basis, basis) <= MEMBERSHIP_RTOL:
            return OperatorAlgebra(basis)
    raise RuntimeError("commutant certification failed on every draw")


def _commutant_of_element(z: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {X : [z, X] = [z*, X] = 0}."""
    n = z.shape[0]
    w, v = np.linalg.eigh(0.5 * (z + dagger(z)))
    k = dagger(v) @ (-0.5j * (z - dagger(z))) @ v
    # unknowns: the entries (r, s) on which [h, .] vanishes
    gaps = np.abs(w[:, None] - w).ravel()
    r, s = np.nonzero(~nonzero_mask(gaps).reshape(n, n))
    cols = np.arange(r.size)
    # column (r, s) of the map Y -> k Y - Y k, as an n x n matrix
    cmap = np.zeros((n, n, r.size), dtype=complex)
    cmap[:, s, cols] = k[:, r]
    cmap[r, :, cols] -= k[s, :]
    kernel = null_space(cmap.reshape(n * n, r.size))
    # orthonormal kernel rows, conjugated by the unitary v, stay orthonormal
    y = np.zeros((kernel.shape[0], n, n), dtype=complex)
    y[:, r, s] = kernel
    return v @ y @ dagger(v)


def _commutator_residual(basis: np.ndarray, other: np.ndarray) -> float:
    """Largest ||[b, x]||_F over b in basis, x in other.

    One batched product per b: a single (basis x other) batch would hold
    size_a * size_c * n^2 entries, about 1 GB for M_8 (x) 1 without the hint.
    """
    return float(np.max([
        np.linalg.norm(b @ other - other @ b, axis=(1, 2)).max()
        for b in basis]))


def center_and_factor(a: OperatorAlgebra) -> tuple[OperatorAlgebra, bool]:
    """Center A ∩ A' and the factor flag (center of linear dimension one).

    The center is the null space of c -> ([b_j, sum_i c_i b_i])_j over the
    basis coefficients; the basis is orthonormal, so orthonormal coefficient
    rows give an orthonormal basis of the center.  The map is never formed:
    its row block j (the entries of [b_j, b_i] in column i, n^2 x size) is
    folded into a running triangular factor R by one QR at a time.  The map
    is Q R with Q's columns orthonormal, so R has its singular values and
    right singular vectors, and the null space of R is the same rank decision.
    The peak is a few complex size * n^2-entry blocks, not size^2 * n^2:
    tracemalloc reads about four (0.96 MiB on M_5 (x) 1; a test holds it to
    five), where the whole map took 23.9 MiB.
    """
    r = np.zeros((0, a.size), dtype=complex)
    for b in a.basis:
        block = (b @ a.basis - a.basis @ b).reshape(a.size, -1).T
        r = np.linalg.qr(np.concatenate([r, block]), mode="r")
    coeff = null_space(r)
    flat = a.basis.reshape(a.size, -1)
    center = OperatorAlgebra((coeff @ flat).reshape(-1, a.dim, a.dim))
    return center, center.size == 1

