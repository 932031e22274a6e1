"""Finite-dimensional von Neumann algebra machinery.

Algebras are unital *-closed spans of matrices, stored with a basis that is
orthonormal in the Hilbert-Schmidt inner product tr(A* B); membership tests
are then projection residuals with a single threshold (on a tensor factor,
the projection is a partial trace).  Every rank decision is numkit's rank
rule: the closure grows a span by one letter per pass, commutants are solved
from one random element of the algebra on the entries where its Hermitian
part's commutator vanishes and certified against the whole basis, and the
center is one null space over the algebra's coefficients.
"""

from __future__ import annotations

import numpy as np

from .numkit import (complex_normal, dagger, nonzero_mask, null_space,
                     row_space)

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
    basis (orthonormalize_span makes one from any spanning set)."""

    def __init__(self, basis: np.ndarray, *, generators=None):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise ValueError("basis must be a stack of square matrices")
        self.basis = basis
        self.generators = None if generators is None else np.asarray(generators, complex)
        self.commutant_hint: "OperatorAlgebra | None" = None
        # (d, m, side), set by tensor_factor_algebra alone: side 0 for
        # M_d (x) 1_m, 1 for 1_d (x) M_m, each with the basis of matrix units
        # that function builds (modular.check reads the left one's order)
        self.split: tuple[int, int, int] | None = None

    @property
    def dim(self) -> int:
        """Dimension of the Hilbert space the matrices act on."""
        return self.basis.shape[-1]

    @property
    def size(self) -> int:
        """Linear dimension of the algebra."""
        return self.basis.shape[0]

    def member_residual(self, x: np.ndarray) -> float:
        """Norm of the component of x orthogonal to the span; for a stack of
        matrices, the largest over the stack.  A complex stack is overwritten
        by those components (the projections are subtracted in place); a
        single matrix is left as it is.  A tensor factor subtracts a partial
        trace in place: tr_2 x (x) 1 / m on M_d (x) 1, 1 (x) tr_1 x / d on
        1 (x) M_m.  Any other algebra projects onto its basis, and a stack
        then costs one temporary of its own size, first its conjugated
        rows, then the projection product.
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
        """Linear combination of basis matrices."""
        coeff = np.asarray(coeff, dtype=complex)
        return np.tensordot(coeff, self.basis, axes=(0, 0))

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        """sum_i c_i b_i over the basis with complex Gaussian c."""
        return self.element(complex_normal(rng, (self.size,)))

    def __repr__(self):
        return f"OperatorAlgebra(dim={self.dim}, size={self.size})"


def matrix_units(n: int) -> np.ndarray:
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n)


def tensor_factor_algebra(d: int, m: int) -> OperatorAlgebra:
    """M_d (x) 1_m on C^(d m), carrying its commutant 1_d (x) M_m as hint.

    The hint lets structured models avoid the generic null-space solve
    (cross-checked against it in the test suite at small dimensions), and it
    is where the right factor is reached.  Both record their split, so
    membership in either is a partial trace.  The hint points one way only: a
    pair hinting at each other is a reference cycle, and both bases would
    stay allocated until the cyclic garbage collector happened to run.
    """
    n = d * m
    # kron(E_ij, 1_m) and kron(1_d, E_ab), one broadcast each; the small
    # identity carries the normalization, so no stack-sized quotient is made
    left_b = np.einsum("aij,kl->aikjl", matrix_units(d),
                       np.eye(m) / np.sqrt(m)).reshape(d * d, n, n)
    right_b = np.einsum("ij,akl->aikjl", np.eye(d) / np.sqrt(d),
                        matrix_units(m)).reshape(m * m, n, n)
    alg = OperatorAlgebra(left_b)
    alg.commutant_hint = OperatorAlgebra(right_b)
    alg.split, alg.commutant_hint.split = (d, m, 0), (d, m, 1)
    return alg


def vn_closure(generators, dim: int) -> OperatorAlgebra:
    """Smallest unital *-closed product-closed span containing the generators.

    The letters are the generators and their adjoints.  Starting from the
    span of 1 and the letters, each pass adds the letters times the span, so
    the words it holds grow by one letter per pass; the span is the algebra
    once a pass leaves its dimension unchanged.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if any(g.shape != (dim, dim) for g in gens):
        raise ValueError("generator dimension mismatch")
    letters = np.array(gens + [dagger(g) for g in gens]).reshape(-1, dim, dim)
    basis = orthonormalize_span(np.concatenate([np.eye(dim)[None], letters]))
    while True:
        words = (letters[:, None] @ basis).reshape(-1, dim, dim)
        grown = orthonormalize_span(np.concatenate([basis, words]))
        if grown.shape[0] == basis.shape[0]:
            break
        basis = grown
    return OperatorAlgebra(basis, generators=np.array(gens) if gens else None)


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
    rows give an orthonormal basis of the center.
    """
    prod = a.basis[:, None] @ a.basis
    # row block j, column i: the entries of [b_j, b_i]
    cmap = (prod - prod.swapaxes(0, 1)).transpose(0, 2, 3, 1)
    coeff = null_space(cmap.reshape(-1, a.size))
    flat = a.basis.reshape(a.size, -1)
    center = OperatorAlgebra((coeff @ flat).reshape(-1, a.dim, a.dim))
    return center, center.size == 1

