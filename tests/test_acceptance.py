"""Acceptance suite: every criterion runs a registered experiment at its
pinned tolerances and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines live.
"""

import numpy as np

from vnlab.experiments import run


def _report_line(num: int, label: str, reports) -> bool:
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    ok = all(r.passed for r in reports)
    print(f"ACCEPTANCE {num:2d} {label}: {'PASS' if ok else 'FAIL'}")
    for r in reports:
        for a in r.assertions:
            if not a.passed:
                print(f"    failed assertion {r.experiment}/{a.name}: "
                      f"value={a.value!r} vs tolerance={a.tolerance!r} ({a.cmp})")
    return ok


def test_criterion_01_tomita_engine():
    report = run("kms-random", {"max_k": 4, "instances": 50}, seed=0)
    names = {a.name: a for a in report.assertions}
    assert names["s_reconstruction"].tolerance == 1e-10
    assert names["jdj_inverse"].tolerance == 1e-9
    assert names["delta_omega"].tolerance == 1e-10
    assert names["kms_defect_max"].tolerance == 1e-9
    assert names["jaj_commutant_residual"].tolerance == 1e-9
    assert names["flow_membership_residual"].tolerance == 1e-8
    ok = _report_line(1, "tomita engine (50 random standard pairs)", report)
    assert ok
    assert report.wall_time_s < 10.0


def test_criterion_02_modular_spectrum_law():
    report = run("modular-spectrum", {"max_k": 4, "instances": 20}, seed=0)
    assert {a.name: a for a in report.assertions}["spectrum_ratio_law"] \
        .tolerance == 1e-9
    assert _report_line(2, "modular spectrum = eigenvalue ratios", report)


def test_criterion_03_powers_approximants():
    reports = [run("powers", {"lam": lam, "n": 4}, seed=0)
               for lam in (0.3, 0.5, 0.7)]
    for r in reports:
        names = {a.name: a for a in r.assertions}
        assert names["spectrum_set"].tolerance == 1e-9
        assert names["purity_closed_form"].tolerance == 1e-10
    assert _report_line(3, "Powers approximants (lam in {0.3,0.5,0.7}, N<=4)",
                        reports)


def test_criterion_04_araki_woods_signature():
    report = run("araki-woods", {"lam": 0.5, "mu": 0.3, "n": 3, "window": 1.0},
                 seed=0)
    names = {a.name: a for a in report.assertions}
    assert names["n1_log_spectrum_set"].tolerance == 1e-9
    assert _report_line(4, "Araki-Woods signature (lam=0.5, mu=0.3)", report)


def test_criterion_05_wedge_localization():
    report = run("wedge-localization",
                 {"n": 64, "theta_max": 6.0, "cond_cap": 1e8}, seed=0)
    names = {a.name: a for a in report.assertions}
    assert names["s_squared_defect"].tolerance == 1e-8
    assert names["duality_residual"].tolerance == 1e-8
    assert names["flow_invariance"].tolerance == 1e-8
    assert _report_line(5, "wedge localization (n=64, theta_max=6)", report)


def test_criterion_06_ccr_and_locality():
    report = run("fock-ccr", {"d": 3, "n_max": 4, "pairs": 20}, seed=0)
    names = {a.name: a for a in report.assertions}
    assert names["ccr_defect"].tolerance == 1e-10
    assert names["commutator_equals_im"].tolerance == 1e-10
    assert names["locality_zero"].tolerance == 1e-10
    assert _report_line(6, "CCR and locality (d=3, n_max=4)", report)


def test_criterion_07_reeh_schlieder_rank():
    report = run("reeh-schlieder-rank", {"d": 2, "n_max": 3, "degree": 3},
                 seed=0)
    assert report.metrics["total_dim"] == 10
    assert report.metrics["cyclicity_table"][-1] == (3, 10)
    assert report.metrics["line_rank"] == 4
    assert _report_line(7, "cyclicity rank saturation (finite analog)", report)


def test_criterion_08_cluster_decay():
    reports = [run("cluster-decay",
                   {"m": m, "sites": 400},
                   seed=0) for m in (0.5, 1.0)]
    for r in reports:
        names = {a.name: a for a in r.assertions}
        assert names["rate_within_10pct"].tolerance == 0.10
        assert names["far_correlation_small"].tolerance == 1e-6
    assert _report_line(8, "cluster decay (m in {0.5, 1}, 400 sites)", reports)
    assert sum(r.wall_time_s for r in reports) < 5.0


def test_criterion_09_local_differences():
    report = run("local-difference", {"dim": 4, "pairs": 5}, seed=0)
    names = {a.name: a for a in report.assertions}
    assert names["trace_norm_duality_2pct"].tolerance == 0.02
    assert names["trace_norm_in_bracket"].tolerance == 1e-12
    assert names["bracket_within_2pct"].tolerance == 0.02
    assert names["outside_operation_invisible"].tolerance == 1e-12
    assert _report_line(9, "local differences (duality + outside ops)", report)


def test_criterion_10_causality_probe():
    reports = [run("causality-probe",
                   {"m": 1.0, "sites": 256, "gap": gap, "width": 8, "t": 0.5},
                   seed=0) for gap in (2, 4, 8)]
    main = reports[1]  # gap = 4, the pinned configuration
    names = {a.name: a for a in main.assertions}
    # the floor shrinks as min(1, |t|) with the overlap's roundoff
    assert names["amplitude_nonzero_at_t"].tolerance == 1e-14 * 0.5
    assert _report_line(10, "causality probe (disjoint packets)", reports)


def test_criterion_11_strong_local_preparability():
    prep = run("local-prepare", {"d1": 2, "d2": 2, "inputs": 50}, seed=0)
    names = {a.name: a for a in prep.assertions}
    assert names["inner_marginal_is_target"].tolerance == 1e-12
    assert names["outer_marginal_unchanged"].tolerance == 1e-12
    iso = run("isometry-impossibility", {"n": 4, "trials": 20}, seed=0)
    assert _report_line(11, "strong local preparability + rank obstruction",
                        [prep, iso])


def test_criterion_12_entanglement_genericity():
    report = run("genericity", {"samples": 10000}, seed=0)
    names = {a.name: a for a in report.assertions}
    assert names["bell_pt_value"].tolerance == 1e-10
    assert names["werner_pt_value"].tolerance == 1e-10
    assert report.metrics["pure_fraction"] == 1.0
    assert abs(report.metrics["bell_pt_min"] + 0.5) <= 1e-10
    assert abs(report.metrics["werner_pt_min"] + 0.125) <= 1e-10
    assert _report_line(12, "entanglement genericity (10^4 Haar states)",
                        report)


def test_criteria_01_02_without_commutant_hints(monkeypatch):
    """Criteria 1 and 2 with every commutant solved by the generic path: the
    outcomes match the hinted runs and the metrics agree to roundoff."""
    from vnlab import vnalg

    configs = [("kms-random", {"max_k": 4, "instances": 50}),
               ("modular-spectrum", {"max_k": 4, "instances": 20})]
    hinted = [run(name, params, seed=0) for name, params in configs]

    solve = vnalg._commutant_of_element
    solves = []

    def counted(z):
        solves.append(z.shape[0])
        return solve(z)

    monkeypatch.setattr(vnalg.TensorFactor, "commutant_hint", None)
    monkeypatch.setattr(vnalg, "_commutant_of_element", counted)
    free = [run(name, params, seed=0) for name, params in configs]
    assert max(solves) == 16
    for h, f in zip(hinted, free):
        assert [(a.name, a.passed) for a in h.assertions] \
            == [(a.name, a.passed) for a in f.assertions]
        assert h.metrics.keys() == f.metrics.keys()
        for key, value in h.metrics.items():
            assert abs(f.metrics[key] - value) <= 1e-13, key
    assert _report_line(1, "tomita engine, hint-free commutants", free[0])
    assert _report_line(2, "modular spectrum, hint-free commutants", free[1])
