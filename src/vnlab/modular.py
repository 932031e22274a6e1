"""Tomita-Takesaki engine on finite-dimensional standard pairs.

From an algebra with a cyclic separating vector Omega, the antilinear map
S: b Omega -> b* Omega is one square solve between the orbit {b_i Omega}
and the adjoint orbit {b_i* Omega}, which `tomita` forms once; the orbit's
rank also decides cyclic and separating.  The SVD of the polar
decomposition S = J Delta^{1/2} also diagonalizes Delta, so J, Delta's
spectrum and every power come from that one factorization.  `check` is the
one checker of an instance: the polar identities, KMS over the orbits,
J A J = A' over the basis, and the group law and invariance of the flow on
given samples.  The polar identities are measured in the Frobenius norm,
which bounds the spectral norm from above (||X||_2 <= ||X||_F), so each
tolerance on them is at least as hard to meet as a spectral one, and the
five defects cost one batched reduction instead of five SVDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkit import (VALIDITY_ATOL, AntilinearMap, antilinear_polar, dagger,
                     nonzero_mask, rank)
from .vnalg import OperatorAlgebra, commutant


@dataclass
class ModularData:
    """The triple (S, Delta, J) attached to (algebra, Omega).  Delta is held
    as the eigenpair ``delta_eigh`` = (w ascending, u) that
    ``antilinear_polar`` returns; Delta, its spectrum and powers read it.
    ``orbit`` and ``adjoint_orbit`` hold b_i Omega and b_i* Omega as the
    columns of two dim x size matrices."""

    s: AntilinearMap
    j: AntilinearMap
    delta_eigh: tuple[np.ndarray, np.ndarray]
    algebra: OperatorAlgebra
    omega: np.ndarray
    orbit: np.ndarray
    adjoint_orbit: np.ndarray

    @property
    def solve_residual(self) -> float:
        """||S conj(orbit) - adjoint_orbit||, the solve's residual."""
        return float(np.linalg.norm(self.s.mat @ self.orbit.conj()
                                    - self.adjoint_orbit))

    @property
    def delta_spectrum(self) -> np.ndarray:
        """Eigenvalues of Delta in ascending order."""
        return self.delta_eigh[0]

    def delta_power(self, z: complex) -> np.ndarray:
        """Delta^z; unitary for imaginary z."""
        w, u = self.delta_eigh
        return (u * w ** z) @ dagger(u)

    @cached_property
    def delta(self) -> np.ndarray:
        return self.delta_power(1.0)

    @cached_property
    def algebra_commutant(self) -> OperatorAlgebra:
        return commutant(self.algebra)


def tomita(a: OperatorAlgebra, omega: np.ndarray) -> ModularData:
    """Modular data of (a, omega) with omega cyclic and separating.

    The conjugation matrix M of S solves M conj(b_i omega) = b_i* omega over
    the basis, with both orbits from `OperatorAlgebra.orbits` (read off
    omega on M_d (x) 1).  One rank of the orbit {b_i omega} decides both
    conditions: omega is cyclic iff it spans H, and separating iff
    b -> b omega is injective on the algebra, that is iff it is dim A.  The
    system is then square and invertible.
    """
    omega = np.asarray(omega, dtype=complex)
    # written so that a NaN omega is refused before the SVD
    if not abs(float(np.linalg.norm(omega)) - 1.0) <= VALIDITY_ATOL:
        raise ValueError("omega must be normalized")
    orbit, target = a.orbits(omega)
    orbit_rank = rank(orbit)
    missing = [word for word, ok in (("cyclic", orbit_rank == a.dim),
                                     ("separating", orbit_rank == a.size))
               if not ok]
    if missing:
        raise ValueError(f"omega is not {' or '.join(missing)} for the algebra")
    s = AntilinearMap(np.linalg.solve(orbit.conj().T, target.T).T)
    j, w, u = antilinear_polar(s)
    return ModularData(s=s, j=j, delta_eigh=(w, u), algebra=a, omega=omega,
                       orbit=orbit, adjoint_orbit=target)


def modular_flow(md: ModularData, x: np.ndarray, t: float) -> np.ndarray:
    """Delta^{it} x Delta^{-it}; the algebra is invariant under the flow."""
    if not md.algebra.contains(x):
        raise ValueError("element lies outside the source algebra")
    u = md.delta_power(1j * t)
    return u @ x @ dagger(u)


def check(md: ModularData, flows=()) -> dict:
    """Defects of every identity of one modular instance, at roundoff for
    genuine data.  The five operator identities of S, J and Delta are
    Frobenius norms of their defects, upper bounds of the spectral norms.
    KMS runs over the orbits `tomita` formed, and J A J = A'
    over eighths of the algebra's basis by `OperatorAlgebra.conjugates`,
    which on M_d (x) 1 reads the split, so no stage reads a basis stack.
    Each flow sample (t, s, x), x in the algebra, adds ||sigma_t sigma_s(x) -
    sigma_{t+s}(x)||_F to ``group_law`` and the residual of sigma_{t+s}(x)
    off the algebra to ``flow_membership`` (maxima; 0.0 without samples).
    Each stage is its own helper, so its arrays are freed before the next.
    With S = 16 k^6 bytes, what a basis stack of M_k (x) 1 would take, the
    J A J stage peaks at about S / 5 there (one block of images, reduced in
    place by the partial trace; tracemalloc read 0.19 S at k = 10), and at
    about S / 4 on the same basis without a split (0.28 S).
    """
    return {**_polar_defects(md), "kms": _kms(md),
            "jaj_commutant": _jaj_residual(md),
            **_flow_defects(md, flows)}


def _jaj_residual(md: ModularData) -> float:
    """Largest residual of J b J off A' over the basis, block by block, each
    block of images from `OperatorAlgebra.conjugates`.  Eight blocks (one
    element each when the basis is smaller) bound the stage's peak (see
    `check`): with the dense product on M_k (x) 1, two or four blocks ran
    about 12% faster at k = 12 but peaked at S and S / 2, and sixteen ran
    9-35% slower at k = 8 to 12.  numpy's maximum keeps a NaN block, which
    Python's max would drop."""
    a = md.algebra
    images = (a.conjugates(md.j.mat, idx)
              for idx in np.array_split(np.arange(a.size), min(8, a.size)))
    # map drops each image before it makes the next; a comprehension's
    # loop variable would hold it
    return float(np.max(list(map(md.algebra_commutant.member_residual,
                                 images))))


def _polar_defects(md: ModularData) -> dict:
    """S = J Delta^{1/2} and the identities of S, J, Delta and Omega.  The
    five operator defects are Frobenius norms, taken together over their
    stack: ||X||_2 <= ||X||_F, so no defect reads below its spectral norm,
    and no SVD is taken."""
    eye = np.eye(md.delta.shape[0])
    recon = md.j @ md.delta_power(0.5)  # antilinear J o Delta^{1/2}
    defects = np.linalg.norm(np.stack([
        md.s.mat - recon.mat,
        md.s @ md.s - eye,
        md.j @ md.j - eye,
        dagger(md.j.mat) @ md.j.mat - eye,
        md.j @ md.delta @ md.j - md.delta_power(-1.0)]), axis=(1, 2))
    return {
        **dict(zip(("s_reconstruction", "s_squared", "j_squared",
                    "j_antiunitary", "jdj_inverse"), defects.tolist())),
        "s_omega": float(np.linalg.norm(md.s(md.omega) - md.omega)),
        "delta_omega": float(np.linalg.norm(md.delta @ md.omega - md.omega)),
    }


def _kms(md: ModularData) -> float:
    """max |<O, x y O> - <O, y Delta x O>| over basis pairs: the orientation
    forced by S = J Delta^{1/2} and S(b O) = b* O.  (Texts with the opposite
    sign convention for the flow write Delta^{-1} here.)"""
    # lhs[i, j] = <b_i* O, b_j O> and rhs[j, i] = <b_j* O, Delta b_i O>
    adjoint = md.adjoint_orbit.conj().T
    lhs = adjoint @ md.orbit
    rhs = adjoint @ (md.delta @ md.orbit)
    return float(np.max(np.abs(lhs - rhs.T)))


def _flow_defects(md: ModularData, flows) -> dict:
    """Group law and membership of the flow samples, one at a time.  Each
    sample forms Delta^{iz} once per distinct time among s, t and t + s (two
    when s = 0); nothing is kept across samples, so the stage holds at most
    three unitaries."""
    group, member = [], []
    for t, s, x in flows:
        ts = t + s    # bound once, so that a NaN key finds itself
        power = {z: md.delta_power(1j * z) for z in dict.fromkeys((s, t, ts))}
        u_s, u_t, u_ts = power[s], power[t], power[ts]
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
    kept = int(nonzero_mask(w).sum())
    if m < kept:
        raise ValueError(f"purification needs at least {kept} ancilla dimensions")
    psi = np.zeros(k * m, dtype=complex)
    psi.reshape(k, m)[:, :kept] = u[:, :kept] * np.sqrt(w[:kept])
    return psi
