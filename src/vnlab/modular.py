"""Tomita-Takesaki engine on finite-dimensional standard pairs.

From an algebra with a cyclic separating vector Omega, the antilinear map
S: b Omega -> b* Omega is recovered by least squares over the orbit; its polar
decomposition S = J Delta^{1/2} gives the modular operator and conjugation,
and every power of Delta comes from one eigensolve.  `check` is the one
checker of an instance: the polar identities, KMS and J A J = A' over the
basis, and the group law and invariance of the flow on given samples.
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
    """The triple (S, Delta, J) attached to (algebra, Omega); Delta's
    spectrum and powers all come from its one eigensolve ``delta_eigh``."""

    s: AntilinearMap
    delta: np.ndarray
    j: AntilinearMap
    algebra: OperatorAlgebra | None
    omega: np.ndarray
    solve_residual: float = 0.0

    @cached_property
    def delta_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues w and eigenvectors u of Delta, which must be strictly
        positive; every power of Delta is taken from this one eigensolve."""
        w, u = np.linalg.eigh(self.delta)
        # written so that a NaN eigenvalue fails too
        if not w.min() > VALIDITY_ATOL * max(1.0, float(w.max())):
            raise ValueError("Delta is not strictly positive")
        return w, u

    @property
    def delta_spectrum(self) -> np.ndarray:
        """Eigenvalues of Delta in ascending order."""
        return self.delta_eigh[0]

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
    # columns b_i* omega; conjugating omega and the result spares a
    # conjugate copy of the basis
    target = np.einsum("aji,j->ia", a.basis, omega.conj()).conj()
    mt, *_ = np.linalg.lstsq(orbit.conj().T, target.T, rcond=None)
    m = mt.T
    residual = float(np.linalg.norm(m @ orbit.conj() - target))
    s = AntilinearMap(m)
    j, delta = antilinear_polar(s)
    return ModularData(s=s, delta=delta, j=j, algebra=a, omega=omega,
                       solve_residual=residual)


def modular_flow(md: ModularData, x: np.ndarray, t: float) -> np.ndarray:
    """Delta^{it} x Delta^{-it}; the algebra is invariant under the flow."""
    if md.algebra is not None and not md.algebra.contains(x):
        raise ValueError("element lies outside the source algebra")
    u = md.delta_power(1j * t)
    return u @ x @ dagger(u)


def conjugate_by_j(md: ModularData, x: np.ndarray) -> np.ndarray:
    """J x J as a linear matrix; a stack of x maps matrix by matrix."""
    n = md.j.mat
    return n @ x.conj() @ n.conj()


def check(md: ModularData, flows=()) -> dict:
    """Defects of every identity of one modular instance, at roundoff for
    genuine data.  KMS and J A J = A' run over the algebra's basis.  Each
    flow sample (t, s, x), x in the algebra, adds ||sigma_t sigma_s(x) -
    sigma_{t+s}(x)||_F to ``group_law`` and the residual of sigma_{t+s}(x)
    off the algebra to ``flow_membership`` (maxima; 0.0 without samples).
    Each stage is its own helper, so its arrays are freed before the next.
    With S the size of the basis stack, the J A J stage peaks at 2 S above
    what the caller holds (the conjugated stack and one temporary of
    ``member_residual``); no other stage copies the basis.
    """
    comm = md.algebra_commutant  # raises when md carries no algebra
    return {**_polar_defects(md), "kms": _kms(md),
            "jaj_commutant": comm.member_residual(
                conjugate_by_j(md, md.algebra.basis)),
            **_flow_defects(md, flows)}


def _polar_defects(md: ModularData) -> dict:
    """S = J Delta^{1/2} and the identities of S, J, Delta and Omega."""
    eye = np.eye(md.delta.shape[0])
    recon = md.j @ md.delta_power(0.5)  # antilinear J o Delta^{1/2}
    return {
        "s_reconstruction": norm2(md.s.mat - recon.mat),
        "s_squared": norm2(md.s.squared() - eye),
        "j_squared": norm2(md.j.squared() - eye),
        "j_antiunitary": norm2(dagger(md.j.mat) @ md.j.mat - eye),
        "jdj_inverse": norm2(md.j.mat @ md.delta.conj() @ md.j.mat.conj()
                             - md.delta_power(-1.0)),
        "s_omega": float(np.linalg.norm(md.s(md.omega) - md.omega)),
        "delta_omega": float(np.linalg.norm(md.delta @ md.omega - md.omega)),
    }


def _kms(md: ModularData) -> float:
    """max |<O, x y O> - <O, y Delta x O>| over basis pairs: the orientation
    forced by S = J Delta^{1/2} and S(b O) = b* O.  (Texts with the opposite
    sign convention for the flow write Delta^{-1} here.)"""
    basis = md.algebra.basis
    # lhs[i, j] = <b_i* O, b_j O> and rhs[j, i] = <b_j* O, Delta b_i O>
    xo = basis @ md.omega
    xso = np.conj(basis.transpose(0, 2, 1) @ np.conj(md.omega))
    lhs = np.conj(xso) @ xo.T
    rhs = np.conj(xso) @ (md.delta @ xo.T)
    return float(np.max(np.abs(lhs - rhs.T)))


def _flow_defects(md: ModularData, flows) -> dict:
    """Group law and membership of the flow samples, one at a time."""
    group, member = [], []
    for t, s, x in flows:
        u_s, u_t, u_ts = (md.delta_power(1j * z) for z in (s, t, t + s))
        twice = u_t @ (u_s @ x @ dagger(u_s)) @ dagger(u_t)
        direct = u_ts @ x @ dagger(u_ts)
        group.append(np.linalg.norm(twice - direct))
        member.append(md.algebra.member_residual(direct))
    return {"group_law": float(np.max(group, initial=0.0)),
            "flow_membership": float(np.max(member, initial=0.0))}


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
