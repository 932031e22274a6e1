"""Tensor-power approximants of Powers and Araki-Woods factors.

Finite tensor powers of a matrix algebra in a product state, built on a
doubled space per site so the product vector stays explicit.  Each site
contributes the known diagonal modular data of (M_s (x) 1, purification), so
the global modular operator is a Kronecker product and its spectrum is the set
of products of per-site eigenvalue ratios.  The spectral signatures (log
spectrum, gaps in a window, reduced purity) are the desk-scale shadows of the
type-III classification data.

The approximants are spectrum-first.  Construction keeps the per-site
``(S, Delta, J)`` and computes only the product vector and ``delta_spectrum``,
the sorted Kronecker product of the per-site Delta diagonals; that is all the
signatures read.  The dense global ``ModularData`` (three D x D complex
matrices, 268 MB each at D = 4096) is multiplied out only when
``Approximant.modular`` is read.  Two caps follow: construction accepts
ambient dimensions up to ``SPECTRUM_CAP`` (N = 10 for Powers), while dense
access (``modular`` and ``algebra``) stays within ``DIMENSION_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .modular import ModularData, purify
from .numkit import AntilinearMap
from .vnalg import OperatorAlgebra, matrix_units

# largest ambient dimension of a dense operator (modular data, algebra basis)
DIMENSION_CAP = 4096
# largest ambient dimension of an approximant (its spectrum and product vector)
SPECTRUM_CAP = 1 << 20


def _flip(s: int) -> np.ndarray:
    f = np.zeros((s * s, s * s))
    for a in range(s):
        for b in range(s):
            f[b * s + a, a * s + b] = 1.0
    return f


def _site_modular(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S matrix, Delta, J matrix) for (M_s (x) 1, purify(diag(p))).

    With the descending diagonal convention Delta = diag(p) (x) diag(p)^{-1}
    and J is the tensor flip composed with conjugation.
    """
    s = p.size
    delta = np.kron(np.diag(p), np.diag(1.0 / p)).astype(complex)
    j = _flip(s).astype(complex)
    s_mat = j @ np.sqrt(delta)
    return s_mat, delta, j


@dataclass
class Approximant:
    """A finite tensor-power model: product vector, per-site modular data and
    the global Delta-spectrum.

    ``site_modular`` is the per-site ``(S matrix, Delta, J matrix)``;
    ``delta_spectrum`` is the sorted Kronecker product of the per-site Delta
    diagonals, taken in the same left-to-right order as the dense operators.
    ``modular`` and ``algebra`` are dense D x D objects, built on first access
    and refused above ``DIMENSION_CAP``.
    """

    kind: str
    lam: float
    mu: float | None
    n_factors: int
    site_dim: int
    site_weights: np.ndarray
    omega: np.ndarray
    site_modular: tuple[np.ndarray, np.ndarray, np.ndarray]
    delta_spectrum: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return (self.site_dim ** 2) ** self.n_factors

    def _check_dense(self) -> None:
        if self.ambient_dim > DIMENSION_CAP:
            raise ValueError(f"dense operators of dimension {self.ambient_dim}"
                             f" exceed cap {DIMENSION_CAP}")

    @cached_property
    def modular(self) -> ModularData:
        """Global (S, Delta, J) as dense Kronecker powers of the site data."""
        self._check_dense()
        s_mat, delta, j_mat = (reduce(np.kron, [m] * self.n_factors)
                               for m in self.site_modular)
        return ModularData(s=AntilinearMap(s_mat), delta=delta,
                           j=AntilinearMap(j_mat),
                           delta_spectrum=self.delta_spectrum,
                           algebra=None, omega=self.omega)

    @cached_property
    def algebra(self) -> OperatorAlgebra:
        """The N-fold tensor power of M_s (x) 1, materialized on demand."""
        self._check_dense()
        s = self.site_dim
        eye = np.eye(s)
        site_left = [np.kron(u, eye) / np.sqrt(s) for u in matrix_units(s)]
        site_right = [np.kron(eye, u) / np.sqrt(s) for u in matrix_units(s)]
        left = _kron_algebra(site_left, self.n_factors, self.ambient_dim)
        right = _kron_algebra(site_right, self.n_factors, self.ambient_dim)
        left.commutant_hint = right  # one way, as in tensor_factor_algebra
        return left

    def reduced_density(self) -> np.ndarray:
        """Partial trace of |Omega><Omega| over the commutant-side factors."""
        s, n = self.site_dim, self.n_factors
        psi = self.omega.reshape((s,) * (2 * n))
        alg_legs = tuple(range(0, 2 * n, 2))
        env_legs = tuple(range(1, 2 * n, 2))
        m = psi.transpose(alg_legs + env_legs).reshape(s ** n, s ** n)
        return m @ m.conj().T


def _kron_algebra(site_basis: list[np.ndarray], n: int, dim: int) -> OperatorAlgebra:
    basis = [np.eye(1, dtype=complex)]
    for _ in range(n):
        basis = [np.kron(b, u) for b in basis for u in site_basis]
    return OperatorAlgebra(dim, np.stack(basis), orthonormal=True)


def _build(kind: str, weights: np.ndarray, lam: float, mu: float | None,
           n: int) -> Approximant:
    s = weights.size
    dim = (s * s) ** n
    if dim > SPECTRUM_CAP:
        raise ValueError(f"ambient dimension {dim} exceeds cap {SPECTRUM_CAP}")
    p = np.sort(weights)[::-1]          # descending, matching purify
    rho = np.diag(p).astype(complex)
    psi_site = purify(rho, s)
    site = _site_modular(p)
    omega = reduce(np.kron, [psi_site] * n)
    spectrum = np.sort(reduce(np.kron, [np.diag(site[1]).real] * n))
    return Approximant(kind=kind, lam=lam, mu=mu, n_factors=n, site_dim=s,
                       site_weights=p, omega=omega, site_modular=site,
                       delta_spectrum=spectrum)


def powers_approximant(lam: float, n: int) -> Approximant:
    """N-fold tensor power of M_2 in the product state with weights (1, lam).

    lam = 1 is the tracial edge case (modular operator = identity); the
    Delta-spectrum is {lam^k : |k| <= N} as a set.
    """
    if not 0 < lam <= 1:
        raise ValueError("lam must lie in (0, 1]")
    if n < 1:
        raise ValueError("need at least one tensor factor")
    weights = np.array([1.0, lam]) / (1.0 + lam)
    return _build("powers", weights, lam, None, n)


def araki_woods_approximant(lam: float, mu: float, n: int) -> Approximant:
    """N-fold tensor power of M_3 with weights (1, lam, mu).

    Per-site eigenvalue ratios are {1, lam^±1, mu^±1, (lam/mu)^±1}; the global
    spectrum is their N-fold products.
    """
    if not (0 < lam < 1 and 0 < mu < 1):
        raise ValueError("lam and mu must lie in (0, 1)")
    if n < 1:
        raise ValueError("need at least one tensor factor")
    weights = np.array([1.0, lam, mu]) / (1.0 + lam + mu)
    return _build("araki-woods", weights, lam, mu, n)


@dataclass
class SpectrumSignature:
    log_spectrum: np.ndarray
    window: float
    max_gap: float
    reduced_purity: float


def max_gap_in_window(log_spectrum: np.ndarray, window: float) -> float:
    """Largest hole the spectrum leaves in [-L, L], endpoints acting as walls."""
    pts = np.asarray(log_spectrum, dtype=float)
    inside = np.sort(pts[(pts >= -window) & (pts <= window)])
    walls = np.concatenate([[-window], inside, [window]])
    return float(np.max(np.diff(walls)))


def signature(approx: Approximant, window: float = 1.0) -> SpectrumSignature:
    """Log-spectrum, max gap in [-window, window], and reduced purity."""
    log_spec = np.sort(np.log(approx.delta_spectrum))
    rho = approx.reduced_density()
    purity = float(np.vdot(rho, rho).real)  # tr(rho^2), rho Hermitian
    return SpectrumSignature(log_spectrum=log_spec, window=window,
                             max_gap=max_gap_in_window(log_spec, window),
                             reduced_purity=purity)


def powers_purity(lam: float, n: int) -> float:
    """Closed form tr(rho^2)^N for the restriction of the product vector."""
    return float(((1.0 + lam ** 2) / (1.0 + lam) ** 2) ** n)


def log_ratio_rational_quality(lam: float, mu: float,
                               max_denominator: int = 1000) -> dict:
    """Best rational approximation of log(lam)/log(mu).

    Irrationality cannot be certified in floating point; the distance to the
    best small-denominator rational is reported instead.
    """
    ratio = float(np.log(lam) / np.log(mu))
    best = Fraction(ratio).limit_denominator(max_denominator)
    return {
        "ratio": ratio,
        "numerator": best.numerator,
        "denominator": best.denominator,
        "error": abs(ratio - float(best)),
    }
