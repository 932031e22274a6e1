"""Tomita-Takesaki engine on finite-dimensional standard pairs.

From an algebra with a cyclic separating vector, the antilinear map defined by
b Omega -> b* Omega on the (spanning) orbit is recovered by least squares; its
polar decomposition yields the positive modular operator and the antiunitary
conjugation.  The modular flow, the KMS identity and the commutant map are
then direct matrix computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkit import (VALIDITY_ATOL, AntilinearMap, antilinear_polar, dagger,
                     nonzero_mask, norm2)
from .vnalg import OperatorAlgebra, commutant, cyclic_separating


@dataclass
class ModularData:
    """The triple (S, Delta, J) attached to (algebra, Omega)."""

    s: AntilinearMap
    delta: np.ndarray
    j: AntilinearMap
    delta_spectrum: np.ndarray
    algebra: OperatorAlgebra | None
    omega: np.ndarray
    solve_residual: float = 0.0

    @cached_property
    def delta_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues w and eigenvectors u of Delta, which must be strictly
        positive; every power of Delta is taken from this one eigensolve."""
        w, u = np.linalg.eigh(self.delta)
        if w.min() <= VALIDITY_ATOL * max(1.0, float(w.max())):
            raise ValueError("Delta is not strictly positive")
        return w, u

    def delta_power(self, z: complex) -> np.ndarray:
        """Delta^z; unitary for imaginary z."""
        w, u = self.delta_eigh
        return (u * w ** z) @ dagger(u)

    @cached_property
    def algebra_commutant(self) -> OperatorAlgebra:
        if self.algebra is None:
            raise ValueError("modular data carries no algebra")
        return commutant(self.algebra)


def tomita(a: OperatorAlgebra, omega: np.ndarray) -> ModularData:
    """Modular data of (a, omega) with omega cyclic and separating.

    The conjugation matrix M of S solves M conj(b_i omega) = b_i* omega over
    the whole basis; cyclicity makes this overdetermined but consistent, and
    the least-squares residual is kept as a diagnostic.
    """
    omega = np.asarray(omega, dtype=complex)
    cyc, sep = cyclic_separating(a, omega)
    missing = [word for word, ok in (("cyclic", cyc), ("separating", sep))
               if not ok]
    if missing:
        raise ValueError(f"omega is not {' or '.join(missing)} for the algebra")
    orbit = np.einsum("aij,j->ia", a.basis, omega)          # columns b_i omega
    target = np.einsum("aji,j->ia", a.basis.conj(), omega)  # columns b_i* omega
    mt, *_ = np.linalg.lstsq(orbit.conj().T, target.T, rcond=None)
    m = mt.T
    residual = float(np.linalg.norm(m @ orbit.conj() - target))
    s = AntilinearMap(m)
    j, delta = antilinear_polar(s)
    spectrum = np.sort(np.linalg.eigvalsh(delta))
    return ModularData(s=s, delta=delta, j=j, delta_spectrum=spectrum,
                       algebra=a, omega=omega, solve_residual=residual)


def modular_defects(md: ModularData) -> dict:
    """Defect norms of the defining identities; all should sit at the
    floating-point floor for genuine modular data."""
    n = md.delta.shape[0]
    eye = np.eye(n)
    recon = md.j @ md.delta_power(0.5)  # antilinear J o Delta^{1/2}
    out = {
        "s_reconstruction": norm2(md.s.mat - recon.mat),
        "s_squared": norm2(md.s.squared() - eye),
        "j_squared": norm2(md.j.squared() - eye),
        "j_antiunitary": norm2(dagger(md.j.mat) @ md.j.mat - eye),
        "jdj_inverse": norm2(md.j.mat @ md.delta.conj() @ md.j.mat.conj()
                             - md.delta_power(-1.0)),
        "s_omega": float(np.linalg.norm(md.s(md.omega) - md.omega)),
        "delta_omega": float(np.linalg.norm(md.delta @ md.omega - md.omega)),
    }
    return out


def modular_flow(md: ModularData, x: np.ndarray, t: float) -> np.ndarray:
    """Delta^{it} x Delta^{-it}; the algebra is invariant under the flow."""
    if md.algebra is not None and not md.algebra.contains(x):
        raise ValueError("element lies outside the source algebra")
    u = md.delta_power(1j * t)
    return u @ x @ dagger(u)


def kms_defect(md: ModularData, x: np.ndarray, y: np.ndarray) -> float:
    """|<O, x y O> - <O, y Delta x O>|, the equilibrium identity.

    This is the orientation consistent with S = J Delta^{1/2} and
    S(b O) = b* O: expectation values are invariant under moving the left
    factor to the right after one unit of flow at imaginary time.  (Texts
    with the opposite sign convention for the flow write Delta^{-1} here.)
    """
    omega = md.omega
    lhs = np.vdot(omega, x @ (y @ omega))
    rhs = np.vdot(omega, y @ (md.delta @ (x @ omega)))
    return float(abs(lhs - rhs))


def conjugate_by_j(md: ModularData, x: np.ndarray) -> np.ndarray:
    """J x J as a linear matrix; a stack of x maps matrix by matrix."""
    n = md.j.mat
    return n @ x.conj() @ n.conj()


def commutant_map_check(md: ModularData, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Image J x J and its residual off the commutant's span."""
    image = conjugate_by_j(md, x)
    return image, md.algebra_commutant.member_residual(image)


def modular_report(md: ModularData, flow_samples: int = 10,
                   rng: np.random.Generator | None = None) -> dict:
    """Machine-readable record for one modular instance.

    Each flow sample draws t, then x, from rng.
    """
    rng = rng or np.random.default_rng(0)
    alg = md.algebra
    basis = alg.basis
    # kms_defect over every basis pair: lhs[i, j] = <b_i* O, b_j O> and
    # rhs[j, i] = <b_j* O, Delta b_i O>
    xo = basis @ md.omega
    xso = np.conj(basis).transpose(0, 2, 1) @ md.omega
    lhs = np.conj(xso) @ xo.T
    rhs = np.conj(xso) @ (md.delta @ xo.T)
    kms_max = float(np.max(np.abs(lhs - rhs.T)))
    # commutant_map_check over the basis: J b J off the commutant's span
    images = conjugate_by_j(md, basis).reshape(alg.size, -1)
    flat = md.algebra_commutant.basis.reshape(-1, images.shape[1])
    coeff = (flat @ images.conj().T).conj()
    images -= coeff.T @ flat  # in place: the residuals are all that is read
    jaj_max = float(np.max(np.linalg.norm(images, axis=1)))
    flow_max = 0.0
    for _ in range(flow_samples):
        t = float(rng.uniform(-2, 2))
        x = alg.random_element(rng)
        x /= np.linalg.norm(x)
        flow_max = max(flow_max, alg.member_residual(modular_flow(md, x, t)))
    return {
        "dims": {"ambient": int(md.delta.shape[0]), "algebra": int(alg.size)},
        "delta_spectrum": [float(v) for v in md.delta_spectrum],
        "max_kms_defect": float(kms_max),
        "flow_residual": float(flow_max),
        "commutant_map_residual": float(jaj_max),
    }


def purify(rho: np.ndarray, m: int) -> np.ndarray:
    """Vector on C^k (x) C^m with <psi, (x (x) 1) psi> = tr(rho x).

    Spectral convention: psi = sum_i sqrt(p_i) u_i (x) e_i with eigenvalues in
    descending order; any other representative differs by a unitary on the
    second factor.
    """
    rho = np.asarray(rho, dtype=complex)
    k = rho.shape[0]
    w, u = np.linalg.eigh(0.5 * (rho + dagger(rho)))
    order = np.argsort(w)[::-1]
    w, u = w[order], u[:, order]
    rank = int(nonzero_mask(w).sum())
    if m < rank:
        raise ValueError(f"purification needs at least {rank} ancilla dimensions")
    psi = np.zeros(k * m, dtype=complex)
    for i in range(rank):
        psi += np.sqrt(w[i]) * np.kron(u[:, i], np.eye(m)[i])
    return psi
