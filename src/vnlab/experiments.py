"""Named experiments: reproducible runs with seeds, tolerances and reports.

Every experiment is a pure function of (params, seed); it returns metrics,
a list of pass/fail assertions each carrying its tolerance, and optionally a
plot-ready series.  The registry is the single source the CLI and the
acceptance suite drive.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import channels, factors, fock, lattice, locwedge, modular, vnalg
from .numkit import Tolerance, dagger, default_tolerance, norm2


@dataclass
class Assertion:
    name: str
    value: float
    tolerance: float
    cmp: str = "le"  # value <= tolerance ("le") or value >= tolerance ("ge")

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tolerance if self.cmp == "le"
                    else self.value >= self.tolerance)

    def to_dict(self) -> dict:
        return {"name": self.name, "value": _jsonable(self.value),
                "tolerance": _jsonable(self.tolerance), "cmp": self.cmp,
                "pass": self.passed}


@dataclass
class Report:
    experiment: str
    params: dict
    seed: int
    metrics: dict
    assertions: list[Assertion]
    wall_time_s: float
    series_header: list[str] | None = None
    series: list[tuple] | None = None

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "seed": self.seed,
            "metrics": {k: _jsonable(v) for k, v in self.metrics.items()},
            "assertions": [a.to_dict() for a in self.assertions],
            "pass": self.passed,
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = []
        if self.series is not None:
            lines.append(",".join(self.series_header))
            for row in self.series:
                lines.append(",".join(repr(_jsonable(x)) for x in row))
        else:
            lines.append("metric,value")
            for k, v in self.metrics.items():
                lines.append(f"{k},{_jsonable(v)!r}")
        return "\n".join(lines) + "\n"


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _bool_assert(name: str, ok: bool) -> Assertion:
    return Assertion(name, 0.0 if ok else 1.0, 0.0)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def _conditioned_weights(rng: np.random.Generator, k: int,
                         floor: float = 0.3) -> np.ndarray:
    q = floor + rng.random(k)
    return q / q.sum()


def _random_standard_pair(rng, k):
    """(algebra M_k (x) 1, faithful random vector) on C^k (x) C^k."""
    q = _conditioned_weights(rng, k)
    u = _haar_unitary(rng, k)
    v = _haar_unitary(rng, k)
    a = (u * np.sqrt(q)) @ v.T
    omega = a.flatten()
    algebra = vnalg.tensor_factor_algebra(k, k, "left")
    return algebra, omega


# ---------------------------------------------------------------- experiments

def _exp_kms_random(p, seed, tol):
    rng = np.random.default_rng(seed)
    sizes = list(range(2, p["max_k"] + 1)) or [2]
    ks = [sizes[i % len(sizes)] for i in range(p["instances"])]
    worst = {"s_reconstruction": 0.0, "jdj_inverse": 0.0, "delta_omega": 0.0,
             "kms": 0.0, "jaj_commutant": 0.0, "flow_membership": 0.0}
    for k in ks:
        alg, omega = _random_standard_pair(rng, k)
        md = modular.tomita(alg, omega)
        defects = modular.modular_defects(md)
        worst["s_reconstruction"] = max(worst["s_reconstruction"],
                                        defects["s_reconstruction"])
        worst["jdj_inverse"] = max(worst["jdj_inverse"], defects["jdj_inverse"])
        worst["delta_omega"] = max(worst["delta_omega"], defects["delta_omega"])
        for x in alg.basis:
            _, resid = modular.commutant_map_check(md, x)
            worst["jaj_commutant"] = max(worst["jaj_commutant"], resid)
            for y in alg.basis:
                worst["kms"] = max(worst["kms"], modular.kms_defect(md, x, y))
        for _ in range(4):
            t = float(rng.uniform(-2, 2))
            x = alg.element(rng.standard_normal(alg.size)
                            + 1j * rng.standard_normal(alg.size))
            x /= np.linalg.norm(x)
            y = modular.modular_flow(md, x, t)
            worst["flow_membership"] = max(worst["flow_membership"],
                                           alg.member_residual(y))
    assertions = [
        Assertion("s_reconstruction", worst["s_reconstruction"], 1e-10),
        Assertion("jdj_inverse", worst["jdj_inverse"], 1e-9),
        Assertion("delta_omega", worst["delta_omega"], 1e-10),
        Assertion("kms_defect_max", worst["kms"], 1e-9),
        Assertion("jaj_commutant_residual", worst["jaj_commutant"], 1e-9),
        Assertion("flow_membership_residual", worst["flow_membership"], 1e-8),
    ]
    return worst, assertions, None


def _exp_modular_spectrum(p, seed, tol):
    rng = np.random.default_rng(seed)
    sizes = list(range(2, p["max_k"] + 1)) or [2]
    worst = 0.0
    for i in range(p["instances"]):
        k = sizes[i % len(sizes)]
        weights = _conditioned_weights(rng, k, floor=0.25)
        u = _haar_unitary(rng, k)
        rho = (u * weights) @ dagger(u)
        omega = modular.purify(rho, k)
        alg = vnalg.tensor_factor_algebra(k, k, "left")
        md = modular.tomita(alg, omega)
        ratios = np.sort((weights[:, None] / weights[None, :]).flatten())
        err = np.max(np.abs(md.delta_spectrum - ratios) / ratios)
        worst = max(worst, float(err))
    metrics = {"max_ratio_error": worst, "instances": p["instances"]}
    return metrics, [Assertion("spectrum_ratio_law", worst, 1e-9)], None


def _set_match_error(values: np.ndarray, targets: np.ndarray,
                     relative: bool) -> float:
    scale = np.abs(targets) if relative else np.ones_like(targets)
    err = 0.0
    for v in values:
        err = max(err, float(np.min(np.abs(v - targets) / scale)))
    for t, s in zip(targets, scale):
        err = max(err, float(np.min(np.abs(values - t)) / s))
    return err


def _exp_powers(p, seed, tol):
    lam, n_max = p["lam"], p["n"]
    purities, spec_err, purity_err = [], 0.0, 0.0
    for n in range(1, n_max + 1):
        approx = factors.powers_approximant(lam, n)
        sig = factors.signature(approx, window=p["window"])
        targets = lam ** np.arange(-n, n + 1)
        spec_err = max(spec_err, _set_match_error(
            approx.modular.delta_spectrum, targets, relative=True))
        purity_err = max(purity_err, abs(sig.reduced_purity
                                         - factors.powers_purity(lam, n)))
        purities.append(sig.reduced_purity)
    decreasing = all(b < a for a, b in zip(purities, purities[1:]))
    metrics = {"spectrum_set_error": spec_err, "purity_error": purity_err,
               "purities": purities}
    assertions = [
        Assertion("spectrum_set", spec_err, 1e-9),
        Assertion("purity_closed_form", purity_err, 1e-10),
        _bool_assert("purity_strictly_decreasing", decreasing),
    ]
    return metrics, assertions, None


def _exp_araki_woods(p, seed, tol):
    lam, mu, n_max, window = p["lam"], p["mu"], p["n"], p["window"]
    la, lm = np.log(lam), np.log(mu)
    targets = np.unique(np.array([0.0, la, -la, lm, -lm, la - lm, lm - la]))
    gaps = []
    log_err = None
    for n in range(1, n_max + 1):
        approx = factors.araki_woods_approximant(lam, mu, n)
        sig = factors.signature(approx, window=window)
        gaps.append(sig.max_gap)
        if n == 1:
            log_err = _set_match_error(sig.log_spectrum, targets, relative=False)
    growth = max((b - a for a, b in zip(gaps, gaps[1:])), default=0.0)
    quality = factors.log_ratio_rational_quality(lam, mu)
    metrics = {"n1_log_spectrum_error": log_err, "max_gaps": gaps,
               "log_ratio": quality["ratio"],
               "log_ratio_best_rational": f"{quality['numerator']}/{quality['denominator']}",
               "log_ratio_rational_error": quality["error"]}
    assertions = [
        Assertion("n1_log_spectrum_set", log_err, 1e-9),
        Assertion("gap_non_increasing", growth, 1e-12),
    ]
    return metrics, assertions, (["n", "max_gap"],
                                 list(zip(range(1, n_max + 1), gaps)))


def _exp_wedge(p, seed, tol):
    model = locwedge.wedge_one_particle(p["n"], p["theta_max"], p["cond_cap"])
    rep = locwedge.wedge_report(model)
    k = locwedge.wedge_standard_subspace(model)
    assertions = [
        Assertion("s_squared_defect", rep["s_squared_defect"], 1e-8),
        _bool_assert("standardness", rep["standardness"]),
        Assertion("duality_residual", rep["duality_residual"], 1e-8),
        Assertion("flow_invariance", rep["flow_invariance_residual"], 1e-8),
        _bool_assert("k_dim_matches_retained", k.real_dim == rep["retained_dim"]),
    ]
    return rep, assertions, None


def _exp_fock_ccr(p, seed, tol):
    rng = np.random.default_rng(seed)
    d, n_max = p["d"], p["n_max"]
    f = fock.build_fock(d, n_max)
    ccr_max, eq_max = 0.0, 0.0
    for _ in range(p["pairs"]):
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        defect = fock.ccr_defect(f, psi, phi)
        ccr_max = max(ccr_max, defect)
        a = fock.field_operator(f, psi).mat
        b = fock.field_operator(f, phi).mat
        pr = f.sector_projector(n_max - 2)
        norm = norm2(pr @ (a @ b - b @ a) @ pr)
        eq_max = max(eq_max, abs(norm - abs(np.vdot(psi, phi).imag)))
    # controls: orthogonal real pair, canonical pair, wedge-type subspaces
    e = np.eye(d)
    eq_max = max(eq_max, norm2(_low_comm(f, e[0], e[1])))
    eq_max = max(eq_max, abs(norm2(_low_comm(f, e[0], 1j * e[0])) - 1.0))
    k = locwedge.real_subspace_from_vectors(np.eye(d), d)
    kp = locwedge.symplectic_complement(k)
    loc = fock.locality_check(f, k, kp)
    metrics = {"ccr_defect_max": ccr_max, "equality_defect_max": eq_max,
               "locality_max": loc, "total_dim": f.total_dim}
    assertions = [
        Assertion("ccr_defect", ccr_max, 1e-10),
        Assertion("commutator_equals_im", eq_max, 1e-10),
        Assertion("locality_zero", loc, 1e-10),
    ]
    return metrics, assertions, None


def _low_comm(f, psi, phi):
    a = fock.field_operator(f, psi).mat
    b = fock.field_operator(f, phi).mat
    pr = f.sector_projector(f.n_max - 2)
    return pr @ (a @ b - b @ a) @ pr


def _exp_reeh_schlieder(p, seed, tol):
    d, n_max, degree = p["d"], p["n_max"], p["degree"]
    f = fock.build_fock(d, n_max)
    k_std = locwedge.real_subspace_from_vectors(np.eye(d), d)
    table = [(dd, fock.cyclicity_rank(f, k_std, dd)) for dd in range(degree + 1)]
    ranks = [r for _, r in table]
    k_line = locwedge.real_subspace_from_vectors(np.eye(d)[:1], d)
    line_rank = fock.cyclicity_rank(f, k_line, n_max)
    metrics = {"cyclicity_table": table, "total_dim": f.total_dim,
               "line_rank": line_rank}
    assertions = [
        _bool_assert("rank_saturates", ranks[-1] == f.total_dim),
        _bool_assert("rank_monotone",
                     all(b >= a for a, b in zip(ranks, ranks[1:]))),
        _bool_assert("line_control_rank", line_rank == n_max + 1),
    ]
    return metrics, assertions, (["degree", "rank"], table)


def _exp_cluster_decay(p, seed, tol):
    spec = lattice.ChainSpec(p["sites"], p["m"])
    state = lattice.ground_state(spec)
    # clip the fit window where the correlator sinks into roundoff (the
    # fitter refuses ranges that touch the floor)
    hi = p["fit_lo"] + 1
    for r in range(p["fit_lo"] + 1, p["fit_hi"] + 1):
        if abs(lattice.cluster_function(state, r)) <= 1e-13:
            break
        hi = r
    fit = lattice.decay_rate_fit(state, (p["fit_lo"], hi))
    f_far = abs(lattice.cluster_function(state, p["far_site"]))
    series = [(r, lattice.cluster_function(state, r))
              for r in range(p["sites"] // 2 + 1)]
    metrics = {"fitted_rate": fit.rate, "expected_rate": fit.expected,
               "rel_deviation": fit.rel_deviation, "curvature": fit.curvature,
               "f_far": f_far, "fit_hi_used": hi}
    assertions = [
        Assertion("rate_within_10pct", fit.rel_deviation, 0.10),
        Assertion("far_correlation_small", f_far, p["far_bound"]),
        _bool_assert("exponential_profile", fit.is_exponential),
    ]
    return metrics, assertions, (["r", "F"], series)


def _exp_entropy_scan(p, seed, tol):
    rng = np.random.default_rng(seed)
    spec = lattice.ChainSpec(p["sites"], p["m"])
    state = lattice.ground_state(spec)
    n = spec.sites
    sym_max, nu_min = 0.0, np.inf
    for _ in range(p["bipartitions"]):
        size = int(rng.integers(1, n))
        region = rng.choice(n, size=size, replace=False)
        comp = np.setdiff1d(np.arange(n), region)
        s1 = lattice.reduced_entropy(state, region)
        s2 = lattice.reduced_entropy(state, comp)
        sym_max = max(sym_max, abs(s1 - s2))
        nu_min = min(nu_min, float(lattice.symplectic_eigenvalues(state, region).min()))
    single = lattice.reduced_entropy(state, [0])
    full = lattice.reduced_entropy(state, np.arange(n))
    series = [(w, lattice.reduced_entropy(state, np.arange(w)))
              for w in range(1, min(n // 2, 16) + 1)]
    metrics = {"symmetry_defect_max": sym_max, "single_site_entropy": single,
               "full_chain_entropy": full, "min_symplectic_eigenvalue": nu_min}
    assertions = [
        Assertion("entropy_symmetry", sym_max, 1e-8),
        Assertion("single_site_positive", single, 1e-4, cmp="ge"),
        Assertion("full_chain_zero", full, 1e-10),
        Assertion("heisenberg_bound", nu_min, 0.5 - 1e-10, cmp="ge"),
    ]
    return metrics, assertions, (["block_size", "entropy"], series)


def _exp_local_difference(p, seed, tol):
    rng = np.random.default_rng(seed)
    rel_max = 0.0
    for i in range(p["pairs"]):
        r1 = _random_density(rng, p["dim"])
        r2 = _random_density(rng, p["dim"])
        tn = lattice.local_difference(r1, r2)
        bf = lattice.local_difference_bruteforce(r1, r2, budget=p["budget"],
                                                 seed=seed + 1000 + i)
        rel_max = max(rel_max, abs(tn - bf) / tn)
    spec = lattice.ChainSpec(6, 1.0)
    rep = lattice.region_fock_rep(spec, region=(0, 1), n_max_region=2,
                                  n_max_complement=2)
    g = rep.vacuum_vector
    psi_c = np.zeros(rep.fock_complement.one_particle_dim, dtype=complex)
    psi_c[0], psi_c[2] = 0.8, 0.6j
    u_out = rep.outside_weyl(psi_c)
    moved = rep.apply_outside(g, u_out)
    d_outside = lattice.local_difference(rep.reduced_region(g),
                                         rep.reduced_region(moved))
    metrics = {"dual_gap_rel_max": rel_max, "outside_op_difference": d_outside}
    assertions = [
        Assertion("trace_norm_duality_2pct", rel_max, 0.02),
        Assertion("outside_operation_invisible", d_outside, 1e-12),
    ]
    return metrics, assertions, None


def _exp_causality_probe(p, seed, tol):
    spec = lattice.ChainSpec(p["sites"], p["m"])
    w = p["width"]
    start = p["sites"] // 2 - w - (p["gap"] + 1) // 2
    supp_in = np.arange(start, start + w)
    supp_out = np.arange(start + w + p["gap"], start + 2 * w + p["gap"])
    a0, a_t = np.abs(lattice.causality_probe_scan(
        spec, supp_in, supp_out, [0.0, p["t"]])).tolist()
    grid = np.linspace(0.05, 1.0, 20)
    amps = np.abs(lattice.causality_probe_scan(spec, supp_in, supp_out, grid))
    series = [(0.0, a0)] + [(float(t), float(a)) for t, a in zip(grid, amps)]
    metrics = {"amp_t0": a0, "amp_t": a_t, "grid_max": float(amps.max())}
    assertions = [
        Assertion("amplitude_zero_at_t0", a0, 1e-12),
        Assertion("amplitude_nonzero_at_t", a_t, 1e-8, cmp="ge"),
        Assertion("grid_max_above_floor", float(amps.max()), 1e-10, cmp="ge"),
    ]
    return metrics, assertions, (["t", "abs_amplitude"], series)


def _exp_local_prepare(p, seed, tol):
    rng = np.random.default_rng(seed)
    split = channels.SplitData(p["d1"], p["d2"])
    xi = channels.haar_pure_state(rng, p["d1"])
    target = np.outer(xi, xi.conj())
    ref_kraus = channels.local_prepare_channel(split, xi).kraus
    inner_max, outer_max, prod_max = 0.0, 0.0, 0.0
    kraus_same = True
    for _ in range(p["inputs"]):
        rho = _random_density(rng, split.dim)
        chan = channels.local_prepare_channel(split, xi)
        kraus_same &= bool(np.array_equal(chan.kraus, ref_kraus))
        out = channels.kraus_apply(rho, chan)
        outer_in = channels.partial_trace(rho, (p["d1"], p["d2"]), 1)
        inner_max = max(inner_max, lattice.local_difference(
            channels.partial_trace(out, (p["d1"], p["d2"]), 0), target))
        outer_max = max(outer_max, lattice.local_difference(
            channels.partial_trace(out, (p["d1"], p["d2"]), 1), outer_in))
        prod_max = max(prod_max, lattice.local_difference(
            out, np.kron(target, outer_in)))
    metrics = {"inner_marginal_deviation": inner_max,
               "outer_marginal_deviation": outer_max,
               "product_deviation": prod_max}
    assertions = [
        Assertion("inner_marginal_is_target", inner_max, 1e-12),
        Assertion("outer_marginal_unchanged", outer_max, 1e-12),
        Assertion("output_is_product", prod_max, 1e-12),
        _bool_assert("kraus_input_independent", kraus_same),
    ]
    return metrics, assertions, None


def _exp_disentangle(p, seed, tol):
    lam = p["lam"]
    # margin case: observed qubit entangled with the outer side, ancilla qubit idle
    a = b = d2 = 2
    split = channels.SplitData(a * b, d2, inner_split=(a, b))
    psi = np.zeros((a, b, d2), dtype=complex)
    psi[0, 0, 0] = 1.0
    psi[1, 0, 1] = np.sqrt(lam)
    psi = (psi / np.linalg.norm(psi)).reshape(-1)
    omega = np.outer(psi, psi.conj())
    res = channels.disentangle(split, omega)
    inner_dev = lattice.local_difference(split.inner_marginal(res.state),
                                         split.inner_marginal(omega))
    outer_dev = lattice.local_difference(split.outer_marginal(res.state),
                                         split.outer_marginal(omega))
    prod_dev = lattice.local_difference(
        res.state, np.kron(channels.partial_trace(res.state, (split.d1, d2), 0),
                           split.outer_marginal(res.state)))
    # no-margin Bell pair: falls back to the product of marginals
    split22 = channels.SplitData(2, 2)
    bell = channels.bell_state(0)
    res_bell = channels.disentangle(split22, np.outer(bell, bell.conj()))
    _, pt_min = channels.is_entangled(res_bell.state, (2, 2))
    # product input passes through unchanged
    sigma = np.kron(_random_density(np.random.default_rng(seed), 2),
                    _random_density(np.random.default_rng(seed + 1), 2))
    res_prod = channels.disentangle(split22, sigma)
    prod_change = lattice.local_difference(res_prod.state, sigma)
    metrics = {"inner_marginal_deviation": inner_dev,
               "outer_marginal_deviation": outer_dev,
               "product_deviation": prod_dev,
               "via_kraus": res.channel is not None,
               "bell_pt_min": pt_min,
               "product_input_change": prod_change}
    assertions = [
        Assertion("inner_marginal_preserved", inner_dev, 1e-10),
        Assertion("outer_marginal_preserved", outer_dev, 1e-10),
        Assertion("output_is_product", prod_dev, 1e-10),
        _bool_assert("margin_case_used_kraus", res.channel is not None),
        Assertion("bell_output_separable", pt_min, -1e-10, cmp="ge"),
        Assertion("product_input_unchanged", prod_change, 1e-12),
    ]
    return metrics, assertions, None


def _exp_genericity(p, seed, tol):
    scan = channels.genericity_scan(p["samples"], seed, "pure")
    control = channels.genericity_scan(max(100, p["samples"] // 10),
                                       seed + 1, "product")
    mixed = channels.genericity_scan(max(100, p["samples"] // 10),
                                     seed + 2, "mixed")
    bell = channels.bell_state(0)
    _, bell_pt = channels.is_entangled(np.outer(bell, bell.conj()), (2, 2))
    _, werner_pt = channels.is_entangled(channels.werner_state(0.5), (2, 2))
    metrics = {"pure_fraction": scan["fraction"],
               "product_fraction": control["fraction"],
               "mixed_fraction": mixed["fraction"],
               "bell_pt_min": bell_pt, "werner_pt_min": werner_pt}
    assertions = [
        Assertion("pure_fraction_one", 1.0 - scan["fraction"], 0.0),
        Assertion("product_fraction_zero", control["fraction"], 0.0),
        Assertion("bell_pt_value", abs(bell_pt + 0.5), 1e-10),
        Assertion("werner_pt_value", abs(werner_pt + 0.125), 1e-10),
    ]
    return metrics, assertions, None


def _exp_isometry(p, seed, tol):
    n = p["n"]
    rng = np.random.default_rng(seed)
    all_certified = True
    for i in range(p["trials"]):
        rank = int(rng.integers(1, n))
        u = _haar_unitary(rng, n)
        e = u[:, :rank] @ dagger(u[:, :rank])
        rep = channels.isometry_impossibility_check(n, e, seed=seed + i)
        all_certified &= (not rep["possible"]) and rep["sampled_ranks_equal"]
    identity_rep = channels.isometry_impossibility_check(n, np.eye(n), seed=seed)
    metrics = {"trials": p["trials"], "all_certified": all_certified,
               "identity_possible": identity_rep["possible"]}
    assertions = [
        _bool_assert("rank_obstruction_certified", all_certified),
        _bool_assert("identity_projector_admits_unitary",
                     identity_rep["possible"]),
    ]
    return metrics, assertions, None


def _exp_modular_flow(p, seed, tol):
    rng = np.random.default_rng(seed)
    alg, omega = _random_standard_pair(rng, p["k"])
    md = modular.tomita(alg, omega)
    group_max, member_max = 0.0, 0.0
    for _ in range(p["samples"]):
        t, s = rng.uniform(-2, 2, size=2)
        x = alg.element(rng.standard_normal(alg.size)
                        + 1j * rng.standard_normal(alg.size))
        x /= np.linalg.norm(x)
        one = modular.modular_flow(md, modular.modular_flow(md, x, s), t)
        two = modular.modular_flow(md, x, t + s)
        group_max = max(group_max, float(np.linalg.norm(one - two)))
        member_max = max(member_max, alg.member_residual(two))
    fixed = norm2(modular.modular_flow(md, alg.basis[1], 0.0) - alg.basis[1])
    metrics = {"group_law_defect": group_max, "membership_residual": member_max,
               "t0_defect": fixed}
    assertions = [
        Assertion("one_parameter_group", group_max, 1e-9),
        Assertion("flow_stays_in_algebra", member_max, 1e-8),
        Assertion("flow_at_zero_is_identity", fixed, 1e-12),
    ]
    return metrics, assertions, None


@dataclass
class ExperimentDef:
    name: str
    description: str
    schema: dict            # param -> (type, default)
    fn: object = field(repr=False)


REGISTRY: dict[str, ExperimentDef] = {}


def _register(name, description, schema, fn):
    REGISTRY[name] = ExperimentDef(name, description, schema, fn)


_register("kms-random",
          "Tomita engine on random standard pairs: polar, KMS, commutant map",
          {"max_k": (int, 4), "instances": (int, 50)}, _exp_kms_random)
_register("modular-flow",
          "one-parameter group law and algebra invariance of the modular flow",
          {"k": (int, 3), "samples": (int, 20)}, _exp_modular_flow)
_register("modular-spectrum",
          "modular spectrum equals the eigenvalue-ratio multiset of the state",
          {"max_k": (int, 4), "instances": (int, 20)}, _exp_modular_spectrum)
_register("powers",
          "tensor powers of M_2 in a product state: spectrum set and purity decay",
          {"lam": (float, 0.5), "n": (int, 4), "window": (float, 1.0)},
          _exp_powers)
_register("araki-woods",
          "tensor powers of M_3: two-ratio log-spectrum and gap densification",
          {"lam": (float, 0.5), "mu": (float, 0.3), "n": (int, 3),
           "window": (float, 1.0)}, _exp_araki_woods)
_register("wedge-localization",
          "discretized boost: S^2, standardness, duality, flow invariance",
          {"n": (int, 64), "theta_max": (float, 6.0), "cond_cap": (float, 1e8)},
          _exp_wedge)
_register("fock-ccr",
          "canonical commutation relations and locality from symplectic orthogonality",
          {"d": (int, 3), "n_max": (int, 4), "pairs": (int, 20)}, _exp_fock_ccr)
_register("reeh-schlieder-rank",
          "cyclicity rank of polynomial field excitations over a real subspace",
          {"d": (int, 2), "n_max": (int, 3), "degree": (int, 3)},
          _exp_reeh_schlieder)
_register("cluster-decay",
          "exponential clustering of vacuum correlations with a mass gap",
          {"m": (float, 1.0), "sites": (int, 400), "fit_lo": (int, 10),
           "fit_hi": (int, 40), "far_site": (int, 40),
           "far_bound": (float, 1e-6)}, _exp_cluster_decay)
_register("entropy-scan",
          "entanglement entropy of chain regions via symplectic eigenvalues",
          {"m": (float, 1.0), "sites": (int, 64), "bipartitions": (int, 20)},
          _exp_entropy_scan)
_register("local-difference",
          "trace-norm local difference vs contraction sup; outside ops invisible",
          {"dim": (int, 4), "pairs": (int, 5), "budget": (int, 10000)},
          _exp_local_difference)
_register("causality-probe",
          "disjoint-packet overlap under relativistic one-particle evolution",
          {"m": (float, 1.0), "sites": (int, 256), "gap": (int, 4),
           "width": (int, 8), "t": (float, 0.5)}, _exp_causality_probe)
_register("local-prepare",
          "state-independent Kraus preparation of a vector state on one factor",
          {"d1": (int, 2), "d2": (int, 2), "inputs": (int, 50)},
          _exp_local_prepare)
_register("disentangle",
          "margin-assisted disentanglement preserving both marginals",
          {"lam": (float, 0.7)}, _exp_disentangle)
_register("genericity",
          "entangled fraction of random states; reference PT eigenvalues",
          {"samples": (int, 10000)}, _exp_genericity)
_register("isometry-impossibility",
          "rank obstruction to W*W = 1, WW* = E with E a proper projector",
          {"n": (int, 4), "trials": (int, 20)}, _exp_isometry)


def list_experiments() -> dict[str, ExperimentDef]:
    return dict(REGISTRY)


def validate_params(name: str, overrides: dict | None) -> dict:
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; see list_experiments()")
    schema = REGISTRY[name].schema
    overrides = overrides or {}
    bad = [k for k in overrides if k not in schema]
    if bad:
        raise ValueError(f"unknown parameter(s) for {name}: {', '.join(sorted(bad))}")
    params = {}
    for key, (typ, default) in schema.items():
        if key in overrides:
            try:
                params[key] = typ(overrides[key])
            except (TypeError, ValueError):
                raise ValueError(f"parameter {key} must be {typ.__name__}")
        else:
            params[key] = default
    return params


def run(name: str, params: dict | None = None, seed: int = 0,
        tol: Tolerance | None = None, out=None, fmt: str = "json") -> Report:
    """Run a registered experiment; deterministic given (name, params, seed)."""
    tol = tol or default_tolerance()
    resolved = validate_params(name, params)
    start = time.perf_counter()
    result = REGISTRY[name].fn(resolved, seed, tol)
    metrics, assertions, series = result[0], result[1], result[2]
    header, rows = (series if series else (None, None))
    report = Report(experiment=name, params=resolved, seed=seed,
                    metrics=metrics, assertions=assertions,
                    wall_time_s=time.perf_counter() - start,
                    series_header=header, series=rows)
    if out is not None:
        text = report.to_json() if fmt == "json" else report.to_csv()
        with open(out, "w") as fh:
            fh.write(text)
    return report
