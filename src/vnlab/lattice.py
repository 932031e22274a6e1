"""Free scalar field vacuum on a finite periodic chain.

Momentum-space diagonalization gives the ground-state covariances, a frozen
GaussianState that keeps its ChainSpec and caches its rows; from these come
connected correlation functions, their mass-gap decay rate, reduced
entanglement entropies via symplectic eigenvalues, and trace-norm local
differences of region states.  A one-particle evolution probe exhibits the
nonvanishing of out-of-region amplitudes at every nonzero time (the
analyticity mechanism that rules out causal position-operator localization),
and a RegionFockRep, fixed by its ChainSpec and region, demonstrates that
operations strictly outside a region leave its reduced state untouched.
Every list of sites, a region or a packet's support, is read by _sites.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fock as fockmod
from .numkit import dagger, read_only, require_budget


@dataclass(frozen=True)
class ChainSpec:
    """Periodic chain with unit spacing."""

    sites: int
    mass: float

    def __post_init__(self):
        if not np.issubdtype(type(self.sites), np.integer):  # bool too
            raise ValueError("sites must be an integer")
        if self.sites < 2:
            raise ValueError("need at least two sites")
        # dispersion() squares the mass; written so that a NaN is refused
        # and no overflow is raised or warned about
        mass = float(self.mass)
        if not (mass >= 0 and math.isfinite(mass * mass)):
            raise ValueError("mass must be finite and nonnegative, with a "
                             "finite square")

    def momenta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.sites) / self.sites

    def dispersion(self) -> np.ndarray:
        k = self.momenta()
        return np.sqrt(self.mass ** 2 + 4.0 * np.sin(k / 2.0) ** 2)


@dataclass(frozen=True)
class GaussianState:
    """Ground-state covariances of the chain; cross correlations vanish.

    Both covariances are circulant: <phi_i phi_j> = row_phi[(i - j) % n], and
    the Fourier modes diagonalize them with eigenvalues weights_phi =
    1 / (2 omega) and weights_pi = omega / 2, omega the dispersion.  Region
    blocks are read through a read-only strided view of each circulant.  A
    massless chain has no vacuum: its k = 0 mode diverges, so it is refused.
    """

    spec: ChainSpec

    def __post_init__(self):
        if not np.all(self.weights_pi > 0):
            raise ValueError(
                "massless chain: the k = 0 mode of <phi phi> diverges")

    @cached_property
    def weights_pi(self) -> np.ndarray:
        return read_only(self.spec.dispersion() / 2.0)

    @cached_property
    def weights_phi(self) -> np.ndarray:
        return read_only(0.25 / self.weights_pi)

    # row[r] = sum_k cos(k r) w_k / n: the real part of a forward FFT
    @cached_property
    def row_phi(self) -> np.ndarray:
        return read_only(np.fft.fft(self.weights_phi).real / self.spec.sites)

    @cached_property
    def row_pi(self) -> np.ndarray:
        return read_only(np.fft.fft(self.weights_pi).real / self.spec.sites)


def _sites(n: int, region) -> np.ndarray:
    """The sites of a region, mod n, in the given order.  A 2-D array, a
    boolean mask, a non-integer site or a site listed twice (mod n) is
    refused; an empty region is returned, for the caller to refuse."""
    sites = np.asarray(region)
    if sites.ndim != 1:
        raise ValueError("region must be a 1-D list of sites")
    if sites.size == 0:
        return sites.astype(int)
    if not np.issubdtype(sites.dtype, np.integer):  # a bool mask too
        raise ValueError("region sites must be integers")
    sites = sites.astype(int) % n
    if np.bincount(sites).max() > 1:
        raise ValueError("region repeats a site (mod n)")
    return sites


def _circulant_block(row: np.ndarray, region: np.ndarray) -> np.ndarray:
    """Region block of the circulant C[i, j] = row[(i - j) % n], sites mod n,
    gathered from a read-only strided view of C: no r x r index array."""
    n = row.size
    ext = row[np.arange(1 - n, n) % n]
    view = np.lib.stride_tricks.sliding_window_view(ext, n)[:, ::-1]
    sites = np.asarray(region) % n
    return view[np.ix_(sites, sites)]


def cluster_function(state: GaussianState, r: int) -> float:
    """Connected field-field correlator F(r) = <phi_0 phi_r> (one-point
    functions vanish in the vacuum)."""
    n = state.spec.sites
    return float(state.row_phi[r % n])


def expected_decay_rate(mass: float) -> float:
    """Lattice-dispersion decay rate 2 asinh(m/2) of the vacuum correlator."""
    return 2.0 * np.arcsinh(mass / 2.0)


@dataclass
class DecayFit:
    rate: float
    expected: float
    rel_deviation: float
    is_exponential: bool
    curvature: float      # fractional drift of the local slope across the window
    total_decay: float    # nats of decay the window actually resolves


def decay_rate_fit(state: GaussianState,
                   fit_range: tuple[int, int]) -> DecayFit:
    """Least-squares slope of log|F(r)| over the fit window.

    A window is accepted as exponential only when it resolves at least 2
    nats of decay and the local slope stays put (quadratic correction below
    0.2 of the slope across the window); a massless tail fails the first
    test on any window where it has not yet collapsed, and fails the second
    where it has.
    """
    r0, r1 = fit_range
    n = state.spec.sites
    if not 0 < r0 < r1 <= n // 2:
        raise ValueError("fit range must sit inside (0, sites/2]")
    if r1 - r0 < 2:  # the quadratic drift test needs three points
        raise ValueError(f"fit window ({r0}, {r1}) must be >= 2 sites wide")
    rs = np.arange(r0, r1 + 1).astype(float)
    vals = np.abs(state.row_phi[r0:r1 + 1])
    if np.any(vals < 1e-14):
        raise ValueError("fit range touches the numerical floor")
    logv = np.log(vals)
    slope, _ = np.polyfit(rs, logv, 1)
    quad = np.polyfit(rs, logv, 2)[0]
    drift = abs(quad) * (r1 - r0) / max(abs(slope), 1e-300)
    total_decay = float(logv[0] - logv[-1])
    expected = expected_decay_rate(state.spec.mass)
    rate = float(-slope)
    rel = abs(rate - expected) / expected if expected > 0 else np.inf
    return DecayFit(rate=rate, expected=expected, rel_deviation=float(rel),
                    is_exponential=bool(slope < 0 and total_decay >= 2.0
                                        and drift <= 0.2),
                    curvature=float(drift), total_decay=total_decay)


def symplectic_eigenvalues(state: GaussianState, region) -> np.ndarray:
    """Symplectic spectrum of the region covariance (vanishing cross block).

    The region is read by _sites; an empty one is refused.  The whole chain
    is diagonal on the Fourier modes: sqrt(w_phi w_pi) per mode.  A proper
    region uses the symmetric form: with G_phi = L L^T, L^T G_pi L, written
    over the G_pi block, has the eigenvalues of G_phi G_pi; at most three
    r x r arrays, 24 r^2 bytes held to the byte budget, are alive at once.
    """
    n = state.spec.sites
    region = _sites(n, region)
    if region.size == 0:
        raise ValueError("empty region")
    if region.size == n:
        return np.sqrt(state.weights_phi * state.weights_pi)
    require_budget(24 * region.size ** 2, "a region's symplectic spectrum")
    chol = np.linalg.cholesky(_circulant_block(state.row_phi, region))
    b = _circulant_block(state.row_pi, region)
    np.matmul(chol.T @ b, chol, out=b)
    del chol
    return np.sqrt(np.clip(np.linalg.eigvalsh(b), 0.0, None))


def reduced_entropy(state: GaussianState, region) -> float:
    """Entanglement entropy (nats) of the region's reduced Gaussian state."""
    return gaussian_entropy(symplectic_eigenvalues(state, region))


def gaussian_entropy(nu: np.ndarray) -> float:
    """Entropy (nats) of a Gaussian state with symplectic spectrum nu."""
    nu = np.clip(nu, 0.5, None)
    plus = nu + 0.5
    minus = nu - 0.5
    ent = plus * np.log(plus)
    pos = minus > 0
    ent[pos] -= minus[pos] * np.log(minus[pos])
    return float(np.sum(ent))


def local_difference(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace norm of the difference of two region density matrices.

    Equals the sup of |tr((rho1 - rho2) A)| over contractions A when the
    region algebra is the full truncated matrix algebra.
    """
    return float(np.sum(np.abs(np.linalg.eigvalsh(_difference(rho1, rho2)))))


def _difference(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """The Hermitian part of rho1 - rho2; two shapes are refused."""
    rho1, rho2 = np.asarray(rho1), np.asarray(rho2)
    if rho1.shape != rho2.shape:
        raise ValueError("region states live at different cutoffs")
    return 0.5 * ((rho1 - rho2) + dagger(rho1 - rho2))


# Jacobi sweeps before local_difference_bracket stops short; random pairs
# close in 4-5 sweeps at dims 12 to 64 and in 6 at dim 128
BRACKET_SWEEPS = 20


def local_difference_bracket(rho1: np.ndarray,
                             rho2: np.ndarray) -> tuple[float, float]:
    """Bounds L <= ||rho1 - rho2||_1 <= U by cyclic Jacobi on B = V* delta V.

    delta is the Hermitian part of rho1 - rho2 and V starts at 1.  A sweep
    zeroes each B_pq, p < q in row order, by a 2 x 2 unitary at an angle of
    at most pi/4 (Golub & Van Loan, Matrix Computations, 4th ed., 8.5).  L =
    sum |B_ii| = tr(delta A) for the contraction A = V diag(sign B_ii) V*, and
    U = sum_j ||B e_j||_2 >= ||B||_1.  Sweeps stop at U - L <= 1e-6 L, at a
    NaN or after BRACKET_SWEEPS, blind to local_difference's eigenvalues.
    """
    b = _difference(rho1, rho2).astype(complex)
    for sweep in range(BRACKET_SWEEPS + 1):
        lower = np.sum(np.abs(np.diagonal(b).real))
        upper = np.sum(np.linalg.norm(b, axis=0))
        if not upper - lower > 1e-6 * lower or sweep == BRACKET_SWEEPS:
            break
        for p, q in itertools.combinations(range(len(b)), 2):
            gap = (b[p, p] - b[q, q]).real
            angle = 0.5 * math.atan2(math.copysign(2 * abs(b[p, q]), gap),
                                     abs(gap))
            c, s = math.cos(angle), math.sin(angle)
            phase = np.exp(-1j * np.angle(b[p, q]))
            rot = np.array([[c, -s], [s * phase, c * phase]])
            b[:, [p, q]] = b[:, [p, q]] @ rot  # two columns, then two rows
            b[[p, q]] = dagger(rot) @ b[[p, q]]
    return float(lower), float(upper)


def causality_probe_scan(spec: ChainSpec, support_in, support_out,
                         t_grid) -> np.ndarray:
    """Overlaps <chi, e^{-iHt} psi> of packets with disjoint supports.

    One-particle evolution with the lattice dispersion, one overlap per t in
    t_grid; the overlap vanishes exactly at t = 0 and is nonzero for generic
    t > 0 however far the supports are separated.

    At t != 0 the overlap is taken as <chi, (e^{-iwt} - 1) psi>, the same
    number since <chi, psi> = 0, with e^{-iwt} - 1 = -2i sin(wt/2) e^{-iwt/2}:
    its roundoff then shrinks with |t| as the overlap itself does.  At t = 0
    the direct form is kept, so the zero it reads is the computed one.
    """
    psi_hat, chi_hat, omega = _packet_transforms(spec, support_in, support_out)
    out = np.empty(len(t_grid), dtype=complex)
    for i, t in enumerate(t_grid):
        phase = (np.exp(-1j * omega * t) if t == 0 else
                 -2j * np.sin(omega * t / 2) * np.exp(-0.5j * omega * t))
        out[i] = np.vdot(chi_hat, phase * psi_hat) / spec.sites
    return out


def first_order_overlap(spec: ChainSpec, support_in, support_out) -> complex:
    """<chi, w psi> for the packets of `causality_probe_scan`: its overlap
    at t is -i t times this up to t^2 max(w^2) / 2, the bound on
    |e^{-ix} - 1 + ix| <= x^2 / 2 for unit packets."""
    psi_hat, chi_hat, omega = _packet_transforms(spec, support_in, support_out)
    return complex(np.vdot(chi_hat, omega * psi_hat) / spec.sites)


def _packet_transforms(spec: ChainSpec, support_in, support_out):
    """Fourier transforms of the two packets, refused when their supports
    meet, and the dispersion they are weighted by."""
    psi = _packet(spec.sites, support_in)
    chi = _packet(spec.sites, support_out)
    if np.any(np.abs(psi) * np.abs(chi) > 0):
        raise ValueError("packet supports overlap")
    return np.fft.fft(psi), np.fft.fft(chi), spec.dispersion()


def _packet(n: int, support) -> np.ndarray:
    """Normalized raised-cosine bump on the given sites, read by _sites."""
    support = _sites(n, support)
    if support.size == 0:
        raise ValueError("empty support")
    v = np.zeros(n, dtype=complex)
    m = support.size
    v[support] = np.sin(np.pi * (np.arange(m) + 1) / (m + 1))
    return v / np.linalg.norm(v)


@dataclass(frozen=True, eq=False)
class RegionFockRep:
    """Chain vacuum in a region (x) complement product-truncated Fock basis.

    Fixed by the chain and the region, read by _sites and sorted; an empty
    or full region is refused.  Both factors are truncated at two particles.
    The vacuum is the truncated Gaussian state exp(a* M a* / 2)|0>, M from
    the chain's potential matrix, kept as its (dr, dc) coefficient matrix G:
    1 (x) U maps it to G U^T, which leaves the region's reduced density
    matrix G G* as it was, and M's pair correlations couple the factors.
    """

    spec: ChainSpec
    region: np.ndarray

    def __post_init__(self):
        region = np.sort(_sites(self.spec.sites, self.region))
        if not 0 < region.size < self.spec.sites:
            raise ValueError("region must be a proper nonempty subset")
        object.__setattr__(self, "region", read_only(region))

    @cached_property
    def complement(self) -> np.ndarray:
        return read_only(np.delete(np.arange(self.spec.sites), self.region))

    @cached_property
    def fock_region(self) -> fockmod.FockSpace:
        return fockmod.FockSpace(self.region.size, 2)

    @cached_property
    def fock_complement(self) -> fockmod.FockSpace:
        return fockmod.FockSpace(self.complement.size, 2)

    def _create(self, v: np.ndarray, x: np.ndarray) -> np.ndarray:
        """a*(v) on the (dr, dc) tensor x, v over region then complement."""
        nr = len(self.region)
        return (fockmod.apply_ladders(self.fock_region, v[None, :nr], 0, x)[0]
                + fockmod.apply_ladders(self.fock_complement, v[None, nr:], 0,
                                        x.T)[0].T)

    @cached_property
    def vacuum(self) -> np.ndarray:
        # M = (1 + sqrt V)^-1 (1 - sqrt V) is circulant with eigenvalues
        # (1 - w_k) / (1 + w_k), w the dispersion: its first row is one FFT
        n = self.spec.sites
        w = self.spec.dispersion()
        order = np.concatenate([self.region, self.complement])
        m_mat = _circulant_block(np.fft.fft((1 - w) / (1 + w)).real / n, order)

        def pair(x):
            """(1/2) sum_ij M_ij a*_i a*_j x; raises occupation by 2."""
            return 0.5 * sum(self._create(e, self._create(row, x))
                             for e, row in zip(np.eye(n), m_mat))

        state = np.zeros((self.fock_region.total_dim,
                          self.fock_complement.total_dim), dtype=complex)
        state[0, 0] = 1.0
        term = state.copy()
        k = 0
        while term.any():
            k += 1
            term = pair(term) / k  # nilpotent
            state = state + term
        return read_only(state / np.linalg.norm(state))
