"""Tensor-power approximants of Powers and Araki-Woods factors.

Finite tensor powers of a matrix algebra in a product state, built on a
doubled space per site so the product vector stays explicit.  Each site
contributes the known diagonal modular data of (M_s (x) 1, purification), so
the global modular operator is a Kronecker product and its spectrum is the set
of products of per-site eigenvalue ratios.  The spectral signatures (log
spectrum, gaps in a window, reduced purity) are the desk-scale shadows of the
type-III classification data.

The approximants are spectrum-first.  An Approximant is frozen and stores
only its site weights and the number of factors N; the product vector and
``delta_spectrum``, the sorted Kronecker product of the per-site Delta
diagonals p (x) 1/p, are computed when first read.  That is all the
signatures read, and no modular operator, per-site or global (268 MB per
complex matrix at D = 4096), is formed.  Construction refuses N < 1,
weights that are not a probability vector, and a model whose stated peak,
``Approximant.peak_bytes``, exceeds the package's byte budget
(``numkit.BYTE_BUDGET``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .modular import purify
from .numkit import VALIDITY_ATOL, read_only, require_budget


@dataclass(frozen=True, eq=False)
class Approximant:
    """A finite tensor-power model, fixed by its site weights and the number
    of factors N.

    ``site_weights`` p are sorted descending on construction, matching
    ``purify``, and read-only; each site's Delta is diag(p (x) 1/p), and
    ``delta_spectrum`` is the sorted Kronecker product of those diagonals,
    in the left-to-right order of the Kronecker powers of the site vector.
    Construction refuses N < 1, a model over the byte budget
    (``peak_bytes``), weights that are not all finite and positive or do
    not sum to 1 (within ``VALIDITY_ATOL``), and weights whose spectrum
    would leave the normal float range.
    """

    site_weights: np.ndarray
    n_factors: int

    def __post_init__(self):
        if self.n_factors < 1:
            raise ValueError("need at least one tensor factor")
        require_budget(self.peak_bytes, f"an approximant of ambient "
                       f"dimension {self.ambient_dim}")
        p = np.sort(self.site_weights)[::-1]    # descending, matching purify
        if not np.all(np.isfinite(p) & (p > 0)):
            raise ValueError("the site weights must be finite and positive")
        if not abs(p.sum() - 1.0) <= VALIDITY_ATOL:
            raise ValueError("the site weights must sum to 1")
        n = self.n_factors
        # Delta's spectrum spans (p_max/p_min)^{+-n}: both ends must be normal
        if not n * (np.log(p[-1]) - np.log(p[0])) >= np.log(np.finfo(float).tiny):
            raise ValueError("Delta's spectrum leaves the normal float range at "
                             f"n = {n}: the weights are too uneven")
        object.__setattr__(self, "site_weights", read_only(p))

    @property
    def site_dim(self) -> int:
        return self.site_weights.size

    @property
    def ambient_dim(self) -> int:
        return (self.site_dim ** 2) ** self.n_factors

    @property
    def peak_bytes(self) -> int:
        """Peak of building the model and its signature: five complex
        vectors of the ambient dimension D and up to 16 KiB besides
        (tracemalloc read 5.0 x 16 D plus 3-10 KiB for Powers N = 1..10,
        Araki-Woods N = 1..6 and uniform weights on 4 to 7 levels).  The
        byte budget then admits Powers N <= 10 and Araki-Woods N <= 6."""
        return 5 * 16 * self.ambient_dim + (1 << 14)

    @cached_property
    def omega(self) -> np.ndarray:
        """The product vector: the N-th Kronecker power of the purified
        site state."""
        p = self.site_weights
        psi_site = purify(np.diag(p).astype(complex), p.size)
        return reduce(np.kron, [psi_site] * self.n_factors)

    @cached_property
    def delta_spectrum(self) -> np.ndarray:
        p = self.site_weights
        return np.sort(reduce(np.kron, [np.kron(p, 1.0 / p)] * self.n_factors))

    def reduced_density(self) -> np.ndarray:
        """Partial trace of |Omega><Omega| over the commutant-side factors."""
        s, n = self.site_dim, self.n_factors
        psi = self.omega.reshape((s,) * (2 * n))
        alg_legs = tuple(range(0, 2 * n, 2))
        env_legs = tuple(range(1, 2 * n, 2))
        m = psi.transpose(alg_legs + env_legs).reshape(s ** n, s ** n)
        return m @ m.conj().T


def powers_approximant(lam: float, n: int) -> Approximant:
    """N-fold tensor power of M_2 in the product state with weights (1, lam).

    lam = 1 is the tracial edge case (modular operator = identity); the
    Delta-spectrum is {lam^k : |k| <= N} as a set.
    """
    if not 0 < lam <= 1:
        raise ValueError("lam must lie in (0, 1]")
    weights = np.array([1.0, lam]) / (1.0 + lam)
    return Approximant(weights, n)


def araki_woods_approximant(lam: float, mu: float, n: int) -> Approximant:
    """N-fold tensor power of M_3 with weights (1, lam, mu).

    Per-site eigenvalue ratios are {1, lam^±1, mu^±1, (lam/mu)^±1}; the global
    spectrum is their N-fold products.
    """
    if not (0 < lam < 1 and 0 < mu < 1):
        raise ValueError("lam and mu must lie in (0, 1)")
    weights = np.array([1.0, lam, mu]) / (1.0 + lam + mu)
    return Approximant(weights, n)


@dataclass
class SpectrumSignature:
    log_spectrum: np.ndarray
    max_gap: float
    reduced_purity: float


def max_gap_in_window(log_spectrum: np.ndarray, window: float) -> float:
    """Largest hole the spectrum leaves in [-L, L], L > 0, ends as walls."""
    if not window > 0:
        raise ValueError("window must be positive")
    pts = np.asarray(log_spectrum, dtype=float)
    inside = np.sort(pts[(pts >= -window) & (pts <= window)])
    walls = np.concatenate([[-window], inside, [window]])
    return float(np.max(np.diff(walls)))


def signature(approx: Approximant, window: float = 1.0) -> SpectrumSignature:
    """Log-spectrum, max gap in [-window, window], and reduced purity."""
    log_spec = np.sort(np.log(approx.delta_spectrum))
    rho = approx.reduced_density()
    purity = float(np.vdot(rho, rho).real)  # tr(rho^2), rho Hermitian
    return SpectrumSignature(log_spectrum=log_spec,
                             max_gap=max_gap_in_window(log_spec, window),
                             reduced_purity=purity)


def powers_purity(lam: float, n: int) -> float:
    """Closed form tr(rho^2)^N for the restriction of the product vector."""
    return float(((1.0 + lam ** 2) / (1.0 + lam) ** 2) ** n)


def log_ratio_rational_quality(lam: float, mu: float) -> dict:
    """Best rational approximation of log(lam)/log(mu), denominator <= 1000.

    Irrationality cannot be certified in floating point; the distance to the
    best small-denominator rational is reported instead.
    """
    ratio = float(np.log(lam) / np.log(mu))
    best = Fraction(ratio).limit_denominator(1000)
    return {
        "ratio": ratio,
        "numerator": best.numerator,
        "denominator": best.denominator,
        "error": abs(ratio - float(best)),
    }
