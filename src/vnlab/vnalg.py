"""Finite-dimensional von Neumann algebra machinery.

Algebras are unital *-closed spans of matrices, stored with a basis that is
orthonormal in the Hilbert-Schmidt inner product tr(A* B); membership tests
are then projection residuals with a single threshold.  Commutants are solved
from one random element of the algebra and certified against the whole basis,
and centers come from span intersection.
"""

from __future__ import annotations

import numpy as np

from .numkit import dagger, null_space, rank, row_space

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
    """A *-closed unital span of matrices on C^dim with orthonormal basis."""

    def __init__(self, dim: int, basis: np.ndarray, *, generators=None,
                 orthonormal: bool = False):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[1:] != (dim, dim):
            raise ValueError("basis must be a stack of dim x dim matrices")
        if not orthonormal:
            basis = orthonormalize_span(basis)
        self.dim = dim
        self.basis = basis
        self.generators = None if generators is None else np.asarray(generators, complex)
        self.commutant_hint: "OperatorAlgebra | None" = None

    @property
    def size(self) -> int:
        """Linear dimension of the algebra."""
        return self.basis.shape[0]

    def _flat(self) -> np.ndarray:
        return self.basis.reshape(self.size, -1)

    def member_residual(self, x: np.ndarray) -> float:
        """Norm of the component of x orthogonal to the span; for a stack of
        matrices, the largest over the stack.  A complex stack is overwritten
        by those components (the projections are subtracted in place, so a
        large stack costs no second copy); a single matrix is left as it is.
        """
        rows = x.reshape(-1, self.dim ** 2).astype(complex, copy=x.ndim == 2)
        f = self._flat()
        # the coefficients tr(b_i* x) conjugate x, not the whole basis
        rows -= (f @ rows.conj().T).conj().T @ f
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
        return self.element(rng.standard_normal(self.size)
                            + 1j * rng.standard_normal(self.size))

    def __repr__(self):
        return f"OperatorAlgebra(dim={self.dim}, size={self.size})"


def matrix_units(n: int) -> np.ndarray:
    units = np.zeros((n * n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            units[i * n + j, i, j] = 1.0
    return units


def tensor_factor_algebra(d: int, m: int, side: str = "left") -> OperatorAlgebra:
    """M_d (x) 1_m on C^(d m) (side='left'), or 1_d (x) M_m (side='right').

    The two constructions are each other's commutant; the returned one
    carries the other as its hint so structured models avoid the generic
    null-space solve (cross-checked against it in the test suite at small
    dimensions).  The hint points one way only: a pair hinting at each other
    is a reference cycle, and both bases would stay allocated until the
    cyclic garbage collector happened to run.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    n = d * m
    # kron(E_ij, 1_m) and kron(1_d, E_ab), one broadcast each
    left_b = np.einsum("aij,kl->aikjl", matrix_units(d),
                       np.eye(m)).reshape(d * d, n, n) / np.sqrt(m)
    right_b = np.einsum("ij,akl->aikjl", np.eye(d),
                        matrix_units(m)).reshape(m * m, n, n) / np.sqrt(d)
    left = OperatorAlgebra(n, left_b, orthonormal=True)
    right = OperatorAlgebra(n, right_b, orthonormal=True)
    alg, partner = (left, right) if side == "left" else (right, left)
    alg.commutant_hint = partner
    return alg


def vn_closure(generators, dim: int) -> OperatorAlgebra:
    """Smallest unital *-closed product-closed span containing the generators.

    Iterates pairwise products to a fixed point; the dim^2 cap can only trip
    on a logic error since B(C^dim) has dimension dim^2.
    """
    mats = [np.eye(dim, dtype=complex)]
    for g in generators:
        g = np.asarray(g, dtype=complex)
        if g.shape != (dim, dim):
            raise ValueError("generator dimension mismatch")
        mats.append(g)
        mats.append(dagger(g))
    basis = orthonormalize_span(np.stack(mats))
    while True:
        products = np.einsum("aij,bjk->abik", basis, basis).reshape(-1, dim, dim)
        grown = orthonormalize_span(np.concatenate([basis, products]))
        if grown.shape[0] == basis.shape[0]:
            break
        if grown.shape[0] > dim * dim:
            raise RuntimeError("closure exceeded dim^2 basis elements")
        basis = grown
    gens = np.stack([np.asarray(g, complex) for g in generators]) if len(generators) else None
    return OperatorAlgebra(dim, basis, generators=gens, orthonormal=True)


def commutant(a: OperatorAlgebra, use_hint: bool = True) -> OperatorAlgebra:
    """{X : [b, X] = 0 for all b in the algebra}.

    A generic element z of the algebra and its adjoint generate it, so A' is
    the set of X commuting with h = (z + z*)/2 and k = (z - z*)/2i.  Such an
    X is block-diagonal in the eigenbasis of h (blocks: the eigenvalue
    clusters), and [k, X] = 0 is solved on those block entries only.  The
    kernel always contains A'; the result is certified by commuting it with
    every basis element of the algebra, which proves equality.  A failed
    certification (an unlucky z) redraws, up to COMMUTANT_DRAWS times.  The
    draws come from a fixed seed, so the result is a pure function of the
    algebra.  A structured commutant_hint short-circuits the solve unless
    use_hint is False.
    """
    if use_hint and a.commutant_hint is not None:
        return a.commutant_hint
    rng = np.random.default_rng(0)
    for _ in range(COMMUTANT_DRAWS):
        basis = _commutant_of_element(a.random_element(rng))
        if _commutator_residual(a.basis, basis) <= MEMBERSHIP_RTOL:
            return OperatorAlgebra(a.dim, basis, orthonormal=True)
    raise RuntimeError("commutant certification failed on every draw")


def _commutant_of_element(z: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {X : [z, X] = [z*, X] = 0}."""
    n = z.shape[0]
    w, v = np.linalg.eigh(0.5 * (z + dagger(z)))
    k = dagger(v) @ (-0.5j * (z - dagger(z))) @ v
    # unknowns: the entries (r, s) of each diagonal block of h's eigenbasis
    blocks = _eigenvalue_clusters(w)
    r = np.concatenate([np.repeat(c, c.size) for c in blocks])
    s = np.concatenate([np.tile(c, c.size) for c in blocks])
    cols = np.arange(r.size)
    # column (r, s) of the map Y -> k Y - Y k, as an n x n matrix
    cmap = np.zeros((n, n, r.size), dtype=complex)
    cmap[:, s, cols] = k[:, r]
    cmap[r, :, cols] -= k[s, :]
    kernel = null_space(cmap.reshape(n * n, r.size))
    y = np.zeros((kernel.shape[0], n, n), dtype=complex)
    y[:, r, s] = kernel
    return orthonormalize_span(v @ y @ dagger(v))


def _commutator_residual(basis: np.ndarray, other: np.ndarray) -> float:
    """Largest ||[b, x]||_F over b in basis, x in other.

    One batched product per b: a single (basis x other) batch would hold
    size_a * size_c * n^2 entries, about 1 GB for M_8 (x) 1 without the hint.
    """
    return max(float(np.linalg.norm(b @ other - other @ b, axis=(1, 2)).max())
               for b in basis)


def span_intersection(flat_u: np.ndarray, flat_v: np.ndarray) -> np.ndarray:
    """Intersection of two spans given by orthonormal row stacks (flattened).

    A principal direction is shared when its cosine is within 1e-9 of one.
    """
    m = flat_u.conj() @ flat_v.T
    p, s, _ = np.linalg.svd(m)
    keep = s >= 1.0 - 1e-9
    return (p[:, keep].T @ flat_u)


def center_and_factor(a: OperatorAlgebra) -> tuple[OperatorAlgebra, bool]:
    """Center A ∩ A' and the factor flag (center of linear dimension one)."""
    comm = commutant(a)
    inter = span_intersection(a._flat(), comm._flat())
    basis = orthonormalize_span(inter.reshape(-1, a.dim, a.dim))
    center = OperatorAlgebra(a.dim, basis, orthonormal=True)
    return center, center.size == 1


def _eigenvalue_clusters(w: np.ndarray) -> list[np.ndarray]:
    """Indices of eigenvalues grouped by gaps (w sorted ascending).

    A gap wider than 1e-8 times max(1, |w|_max) starts a new cluster.
    """
    scale = max(1.0, float(np.max(np.abs(w))))
    clusters = [[0]]
    for i in range(1, w.size):
        if w[i] - w[i - 1] > 1e-8 * scale:
            clusters.append([])
        clusters[-1].append(i)
    return [np.array(c) for c in clusters]


def cyclic_separating(a: OperatorAlgebra,
                      omega: np.ndarray) -> tuple[bool, bool]:
    """(is_cyclic, is_separating) for a unit vector.

    Cyclic iff the algebra orbit spans the ambient space; separating iff the
    vector is cyclic for the commutant.
    """
    omega = np.asarray(omega, dtype=complex)
    nrm = float(np.linalg.norm(omega))
    if nrm == 0.0:
        raise ValueError("zero vector")
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError("omega must be normalized")
    is_cyclic = _orbit_rank(a, omega) == a.dim
    is_sep = _orbit_rank(commutant(a), omega) == a.dim
    return is_cyclic, is_sep


def _orbit_rank(a: OperatorAlgebra, omega: np.ndarray) -> int:
    return rank(np.einsum("aij,j->ai", a.basis, omega))

