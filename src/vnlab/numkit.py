"""Dense complex linear algebra kernel.

Antilinear-operator arithmetic and polar decomposition, the
real-linearization used to extract fixed-point subspaces of antilinear
involutions, the one rank rule, Krylov closure and memory budget, and the
random samplers shared by the experiments (each draws a stack in one call).

Every rank or null-space decision in the package is made here: a singular
value (or eigenvalue of a positive semidefinite matrix) ``s`` counts as zero
when ``s <= RANK_RTOL * max(1, s.max())``.  ``nonzero_mask``, ``rank``,
``row_space`` and ``null_space`` apply that rule.  The validity checks
(positivity, invertibility, trace preservation, the partial-transpose sign)
share one absolute slack, ``VALIDITY_ATOL``.  These two constants and
``vnalg.MEMBERSHIP_RTOL`` (1e-9), the residual bound that decides
``OperatorAlgebra.contains`` and certifies a solved commutant, are the
package's only global tolerances; none can be overridden at run time.

Every size rule is one byte budget, ``BYTE_BUDGET`` (256 MiB, one dense
complex operator at dimension 4096), and it cannot be set at run time
either.  A builder whose memory grows fastest with its parameters states
its measured peak in bytes and calls ``require_budget`` before it
allocates, so a point over the budget is refused with a ValueError instead
of being built.  tracemalloc, which read most stated peaks, misses the
copies and workspaces of numpy.linalg's LAPACK calls (n = 1000: Cholesky
15.6 MiB of resident peak against 7.6 traced, complex eigh 65.3 against
15.3), so a peak read that way over an eigensolve or SVD under-counts.

Antilinear maps are stored by their *conjugation matrix* ``M``: the map acts as
``v -> M @ conj(v)``.  With this convention the adjoint (defined through
``<phi, S psi> = <psi, S* phi>``) is plain transposition, and composition rules
are explicit:

    antilinear(A) o antilinear(B) = linear  A @ conj(B)
    antilinear(A) o linear(L)     = antilinear  A @ conj(L)
    linear(L) o antilinear(A)     = antilinear  L @ A
"""

from __future__ import annotations

import numpy as np


# relative cut-off of the rank rule (module docstring)
RANK_RTOL = 1e-10

# absolute slack of the validity checks (module docstring)
VALIDITY_ATOL = 1e-10

# bytes a builder may allocate at its peak (module docstring)
BYTE_BUDGET = 1 << 28


def require_budget(nbytes: int, what: str) -> None:
    """Refuse a build whose stated peak, nbytes, exceeds BYTE_BUDGET.  The
    count is an exact integer, so no size is too large to compare."""
    if not nbytes <= BYTE_BUDGET:
        raise ValueError(f"{what} needs {-(-nbytes >> 20):,} MiB, over the "
                         f"byte budget of {BYTE_BUDGET >> 20:,} MiB")


def read_only(a) -> np.ndarray:
    """A view of the array a, never a copy, that refuses in-place writes."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; a stack is transposed matrix by matrix."""
    return a.conj().swapaxes(-1, -2)


def norm2(a: np.ndarray) -> float:
    """Spectral norm."""
    return float(np.linalg.norm(a, 2))


class AntilinearMap:
    """Antilinear operator v -> mat @ conj(v) on C^n."""

    __array_ufunc__ = None  # keep numpy from hijacking ndarray @ AntilinearMap

    def __init__(self, mat: np.ndarray):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("antilinear map needs a square matrix")
        self.mat = mat

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.mat @ np.conj(v)

    def __matmul__(self, other):
        if isinstance(other, AntilinearMap):
            return self.mat @ np.conj(other.mat)
        return AntilinearMap(self.mat @ np.conj(np.asarray(other)))

    def __rmatmul__(self, other):
        return AntilinearMap(np.asarray(other) @ self.mat)

    def __repr__(self):
        return f"AntilinearMap(dim={self.dim})"


def antilinear_polar(s: AntilinearMap
                     ) -> tuple[AntilinearMap, np.ndarray, np.ndarray]:
    """Polar decomposition S = J Delta^{1/2} of an invertible antilinear map.

    One SVD M = U Sigma V* gives both factors: J = S Delta^{-1/2} has
    conjugation matrix U V*, and Delta = S* S = M^T conj(M) = conj(V)
    Sigma^2 V^T.  The map is rejected unless Delta is strictly positive,
    sigma_min^2 > VALIDITY_ATOL * max(1, sigma_max^2), which a NaN fails
    too.  Returns (J, w, u): Delta's eigenvalues w = sigma^2 ascending and
    its eigenvectors u = conj(V) as the matching columns.
    """
    u, sv, vh = np.linalg.svd(s.mat)
    if not sv[-1] ** 2 > VALIDITY_ATOL * max(1.0, sv[0] ** 2):
        raise ValueError("antilinear_polar requires an invertible map")
    return AntilinearMap(u @ vh), sv[::-1] ** 2, vh[::-1].T


def real_linearize(op) -> np.ndarray:
    """Real 2n x 2n matrix of a (anti)linear map under v -> (Re v, Im v).

    Complex-linear L = X + iY becomes [[X, -Y], [Y, X]]; an AntilinearMap with
    conjugation matrix M = X + iY becomes [[X, Y], [Y, -X]].
    """
    if isinstance(op, AntilinearMap):
        x, y = op.mat.real, op.mat.imag
        return np.block([[x, y], [y, -x]])
    m = np.asarray(op, dtype=complex)
    x, y = m.real, m.imag
    return np.block([[x, -y], [y, x]])


def embed_real(v: np.ndarray) -> np.ndarray:
    """C^n vector -> stacked (Re, Im) in R^{2n}; a stack maps row by row."""
    v = np.asarray(v, dtype=complex)
    return np.concatenate([v.real, v.imag], axis=-1)


def unembed_real(x: np.ndarray) -> np.ndarray:
    """Inverse of embed_real, also row by row."""
    n = x.shape[-1] // 2
    return x[..., :n] + 1j * x[..., n:]


def nonzero_mask(s: np.ndarray) -> np.ndarray:
    """Mask of the singular values (or PSD eigenvalues) the rank rule keeps.

    A stack of spectra is cut spectrum by spectrum along its last axis.
    """
    top = np.fmax(1.0, s.max(axis=-1, keepdims=True, initial=0.0))
    return s > RANK_RTOL * top


def rank(a: np.ndarray) -> int | np.ndarray:
    """Number of singular values of a that the rank rule keeps.

    For a stack of matrices (ndim > 2) the ranks of all of them come from
    one batched SVD, as an integer array over the leading axes.
    """
    kept = nonzero_mask(np.linalg.svd(a, compute_uv=False)).sum(axis=-1)
    return int(kept) if kept.ndim == 0 else kept


def row_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the row space of a."""
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return vh[nonzero_mask(s)]


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal rows x spanning {x : a @ x = 0}.

    The full V is computed only for wide matrices; for a tall one the economy
    SVD already holds all of V, and a full U would be rows^2 in size.
    """
    rows, cols = a.shape
    _, s, vh = np.linalg.svd(a, full_matrices=rows < cols)
    zero = np.ones(cols, dtype=bool)
    zero[: s.size] = ~nonzero_mask(s)
    return vh[zero].conj()


def krylov(span: np.ndarray, step, steps: int = -1
           ) -> tuple[np.ndarray, list[int]]:
    """Grow the orthonormal rows span under the linear map step (a stack of
    rows to a stack of images) until a pass adds nothing, or for at most
    `steps` passes (-1: no cap).  Each pass maps only the rows the last one
    added, the first all of span; the images, projected off the span twice,
    have the new rows as row space.  Returns the orthonormal span and its
    row count before the first pass and after each pass."""
    added, sizes = span, [len(span)]
    while len(added) and steps:
        images = step(added)
        for _ in range(2):
            images -= (images @ dagger(span)) @ span
        added = row_space(images)
        span = np.concatenate([span, added])
        sizes.append(len(span))
        steps -= 1
    return span, sizes


def complex_normal(rng: np.random.Generator, shape: tuple,
                   count: int | None = None) -> np.ndarray:
    """Standard complex Gaussian array of the given shape, or a stack of
    ``count`` of them.

    One ``standard_normal((count, 2, *shape))`` block whose ``[:, 0]`` and
    ``[:, 1]`` are the real and imaginary parts consumes the generator
    exactly as ``count`` one-sample draws ``standard_normal(shape) + 1j *
    standard_normal(shape)`` do, so a stack equals that loop bit for bit.
    """
    lead = () if count is None else (count,)
    g = rng.standard_normal(lead + (2,) + tuple(shape))
    re, im = np.moveaxis(g, len(lead), 0)
    return re + 1j * im


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n x n unitary (QR of a Ginibre matrix, phases fixed)."""
    q, r = np.linalg.qr(complex_normal(rng, (n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def haar_pure_state(rng: np.random.Generator, dim: int,
                    count: int | None = None) -> np.ndarray:
    """Haar-random unit vector in C^dim, or a (count, dim) stack of them.

    The norm is sqrt(Re.Re + Im.Im), the sum ``np.linalg.norm`` forms for
    one vector, so row i of a stack is bit for bit the i-th of ``count``
    one-sample draws.
    """
    v = complex_normal(rng, (dim,), count)
    norm = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    return v / norm[..., None]


def random_density(rng: np.random.Generator, n: int,
                   count: int | None = None) -> np.ndarray:
    """Hilbert-Schmidt random n x n density matrix, or a stack of count."""
    g = complex_normal(rng, (n, n), count)
    rho = g @ dagger(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
