"""Experiment registry, reports, determinism, CLI contract."""

import csv
import inspect
import io
import itertools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from reference import run_python

from vnlab import (channels, cli, experiments, factors, fock, lattice,
                   locwedge, modular, vnalg)
from vnlab.experiments import (REGISTRY, Assertion, _set_match_error,
                               list_experiments, run, validate_params)
from vnlab.vnalg import TensorFactor

REQUIRED = [
    "kms-random", "modular-flow", "modular-spectrum", "powers", "araki-woods",
    "wedge-localization", "fock-ccr", "reeh-schlieder-rank", "cluster-decay",
    "entropy-scan", "local-difference", "causality-probe", "local-prepare",
    "disentangle", "genericity", "isometry-impossibility",
]


class TestRegistry:
    def test_required_experiments_present(self):
        names = set(list_experiments())
        assert set(REQUIRED) <= names

    def test_names_unique_and_described(self):
        exps = list_experiments()
        assert len(exps) == len(set(exps))
        for exp in exps.values():
            assert exp.description
            assert isinstance(exp.schema, dict)
            for param in exp.schema.values():
                assert isinstance(param.default, param.type)
                assert param.minimum is None or param.default >= param.minimum
                assert param.maximum is None or param.default <= param.maximum

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            validate_params("no-such-thing", {})

    def test_unknown_parameters_listed(self):
        with pytest.raises(ValueError, match="bogus"):
            validate_params("powers", {"bogus": 1, "lam": 0.5})

    def test_type_coercion_and_errors(self):
        params = validate_params("powers", {"lam": "0.25", "n": "2"})
        assert params["lam"] == 0.25 and params["n"] == 2
        with pytest.raises(ValueError, match="n must be int"):
            validate_params("powers", {"n": "two"})


class TestReports:
    WEDGE_CASES = [(256, theta_max, cond_cap)
                   for cond_cap in (1e8, 1e9, 1e10, 1e12, 1e14)
                   for theta_max in (6.0, 10.0)] + [(1024, 10.0, 1e14)]

    @pytest.mark.parametrize("n,theta_max,cond_cap", WEDGE_CASES, ids=[
        f"{cond_cap}-{theta_max}" + (f"-{n}" if n != 256 else "")
        for n, theta_max, cond_cap in WEDGE_CASES])
    def test_wedge_passes_across_cond_cap(self, n, theta_max, cond_cap):
        # the registered bounds hold over the whole window range: J is the
        # exact frequency reflection, so S^2 = 1 is met at roundoff however
        # large cond(Delta^{1/2}) is
        params = {"n": n, "theta_max": theta_max, "cond_cap": cond_cap}
        with np.errstate(all="raise"):
            report = run("wedge-localization", params, seed=0)
        assert report.passed, ", ".join(
            a.name for a in report.assertions if not a.passed)
        assert report.metrics["s_squared_defect"] <= 1e-15

    @pytest.mark.parametrize("k", [3, 8])
    def test_modular_flow_reports_every_check_key(self, k):
        # the keys of check on any instance; the flow keys are reported
        # under their own metric names
        md = modular.tomita(TensorFactor(2, 2, 0),
                            modular.purify(np.diag([0.6, 0.4]), 2))
        keys = set(modular.check(md)) - {"group_law", "flow_membership"}
        for seed in range(3):
            metrics = run("modular-flow", {"k": k}, seed=seed).metrics
            assert keys <= set(metrics)
            assert max(metrics[key] for key in keys) <= 1e-12

    @pytest.mark.parametrize("m", [0.2, 1.0, 3.0, 20.0])
    def test_cluster_decay_window_from_mass(self, m):
        # the window scales as 1 / rate, so light and heavy chains resolve
        # their decay on 400 sites alike
        report = run("cluster-decay", {"m": m}, seed=0)
        assert report.passed
        assert report.metrics["rel_deviation"] <= 0.05

    def test_deterministic_reports(self):
        a = run("modular-flow", {}, seed=11).to_dict()
        b = run("modular-flow", {}, seed=11).to_dict()
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_seed_changes_metrics(self):
        a = run("entropy-scan", {"bipartitions": 3}, seed=1).metrics
        b = run("entropy-scan", {"bipartitions": 3}, seed=2).metrics
        assert a["symmetry_defect_max"] != b["symmetry_defect_max"]

    def test_json_report_file(self, tmp_path):
        out = tmp_path / "r.json"
        report = run("powers", {"n": 2}, seed=0, out=out, fmt="json")
        data = json.loads(out.read_text())
        assert data["experiment"] == "powers"
        assert data["params"]["n"] == 2
        assert data["pass"] is True
        assert all(set(a) == {"name", "value", "tolerance", "cmp", "pass"}
                   for a in data["assertions"])
        assert report.passed

    def test_csv_series_emission(self, tmp_path):
        out = tmp_path / "r.csv"
        run("cluster-decay", {}, seed=0, out=out, fmt="csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "r,F"
        assert len(lines) > 100

    def test_csv_metrics_fallback(self, tmp_path):
        out = tmp_path / "r.csv"
        run("powers", {"n": 2}, seed=0, out=out, fmt="csv")
        text = out.read_text()
        assert text.startswith("metric,value")
        rows = list(csv.reader(io.StringIO(text)))
        assert all(len(row) == len(rows[0]) for row in rows)


def _sweep_points(name):
    """The registry's points of one experiment, each once: its defaults, its
    scale point, every set minimum and maximum with the other parameters at
    their defaults, then, with two or more bounded parameters, every corner:
    each combination of their set bounds."""
    exp = REGISTRY[name]
    bounds = {key: [b for b in (param.minimum, param.maximum) if b is not None]
              for key, param in exp.schema.items()}
    bounds = {key: values for key, values in bounds.items() if values}
    corners = ([dict(zip(bounds, values))
                for values in itertools.product(*bounds.values())]
               if len(bounds) >= 2 else [])
    points = [{}, exp.scale] + [
        {key: bound} for key, values in bounds.items()
        for bound in values] + corners
    unique = {}
    for point in points:
        # every point is inside the schema, so a refusal below is a run's
        unique.setdefault(tuple(validate_params(name, point).items()), point)
    return list(unique.values())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(REGISTRY))
def test_registry_points_pass_or_are_refused(name, seed):
    """Each point passes with finite values and no floating-point event, or
    the run refuses it with a ValueError that is not a numerical breakdown;
    the defaults and the scale point must pass."""
    for point in _sweep_points(name):
        with np.errstate(all="raise"):
            try:
                report = run(name, point, seed=seed)
            except np.linalg.LinAlgError:
                raise
            except ValueError:
                assert point not in ({}, REGISTRY[name].scale), \
                    f"{name} {point} refused"
                continue
        assert report.passed, f"{name} {point} failed: " + ", ".join(
            a.name for a in report.assertions if not a.passed)
        # strict JSON refuses a value that is not finite
        json.dumps([report.to_dict(), report.series], allow_nan=False)


def test_reeh_schlieder_builds_no_dense_field(monkeypatch):
    # the fields act through the ladder index maps; the layer-stack form
    # built the three fields of R^3 and the line control's one
    built, field = [], fock.field_operator

    def spy(f, psi):
        built.append(psi)
        return field(f, psi)

    monkeypatch.setattr(fock, "field_operator", spy)
    report = run("reeh-schlieder-rank", {"d": 3, "n_max": 3, "degree": 3})
    assert report.passed
    assert report.metrics["cyclicity_table"] == [(0, 1), (1, 4), (2, 10),
                                                 (3, 20)]
    assert built == []


def test_causality_first_order_catches_frozen_packets(monkeypatch):
    # a scan that reads every t as 0 returns the t = 0 roundoff at t = 1e-10
    # (4.5e-18), which clears that t's nonzero floor of 1e-24; the first
    # order -i t <chi, w psi> is 3.1e-15 there
    assert run("causality-probe", {"t": 1e-10}).passed
    scan = lattice.causality_probe_scan
    monkeypatch.setattr(lattice, "causality_probe_scan",
                        lambda spec, a, b, grid: scan(spec, a, b,
                                                      np.zeros(len(grid))))
    found = {a.name: a.passed
             for a in run("causality-probe", {"t": 1e-10}).assertions}
    assert found["amplitude_nonzero_at_t"]
    assert not found["amplitude_first_order"]


NUMPY_MA_PROBE = """
import sys
from vnlab.experiments import REGISTRY, run
for name, exp in REGISTRY.items():
    for params in (None, exp.scale):
        run(name, params)
print("numpy.ma" in sys.modules)
"""


def test_experiments_leave_numpy_ma_unimported():
    # np.unique, np.setdiff1d and their kin import numpy.ma on a first call
    # (numpy 2.4), which a fresh process pays inside its first run; every
    # experiment at its defaults and at scale, in a fresh interpreter
    proc = run_python(["-c", NUMPY_MA_PROBE], timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]


def _set_match_error_loop(values, targets, relative):
    """Reference form: one Python step per value and per target."""
    scale = np.abs(targets) if relative else np.ones_like(targets)
    err = 0.0
    for v in values:
        err = max(err, float(np.min(np.abs(v - targets) / scale)))
    for t, s in zip(targets, scale):
        err = max(err, float(np.min(np.abs(values - t)) / s))
    return err


class TestSetMatchError:
    @pytest.mark.parametrize("lam,n", [(lam, n)
                                       for lam in (0.5, 0.3, 0.9, 1.0, 1e-5)
                                       for n in range(1, 7)])
    def test_matches_loop_form_on_powers_spectra(self, lam, n):
        values = factors.powers_approximant(lam, n).delta_spectrum
        targets = lam ** np.arange(-n, n + 1)
        assert _set_match_error(values, targets, True) \
            == _set_match_error_loop(values, targets, True)

    @pytest.mark.parametrize("relative", [True, False])
    def test_matches_loop_form_with_duplicates(self, relative):
        rng = np.random.default_rng(5)
        for _ in range(20):
            distinct = rng.uniform(0.1, 4.0, rng.integers(1, 12))
            values = rng.choice(distinct, size=rng.integers(1, 200))
            targets = rng.uniform(0.1, 4.0, rng.integers(1, 9))
            if rng.random() < 0.5:
                targets = np.concatenate([targets, targets[:2]])
            assert _set_match_error(values, targets, relative) \
                == _set_match_error_loop(values, targets, relative)

    def test_exact_match_is_zero(self):
        targets = 0.5 ** np.arange(-3, 4)
        values = np.repeat(targets, 5)
        assert _set_match_error(values, targets, relative=True) == 0.0

    def test_nan_fails(self):
        targets = np.array([1.0, 2.0])
        values = np.array([1.0, np.nan, 2.0])
        assert np.isnan(_set_match_error(values, targets, relative=False))


def _nan_on_call(monkeypatch, owner, name, call):
    """Make owner.name (a function, method or property) return NaN in
    place of its value on its call-th call; a dict value turns into NaNs."""
    attr = inspect.getattr_static(owner, name)
    fn = attr.fget if isinstance(attr, property) else attr
    calls = itertools.count(1)

    def spoiled(*args, **kwargs):
        value = fn(*args, **kwargs)
        if next(calls) != call:
            return value
        if isinstance(value, dict):
            return dict.fromkeys(value, np.nan)
        return np.full(np.shape(value), np.nan)[()]

    monkeypatch.setattr(owner, name, property(spoiled)
                        if isinstance(attr, property) else spoiled)


class TestNanDraws:
    """A NaN in one draw fails the run: each worst case is a numpy
    reduction, which keeps a NaN where Python's max and min drop it."""

    # (experiment, params, owner, name, call): the call is that of the
    # second draw, sample or instance
    CASES = [
        ("fock-ccr", {}, fock.SectorCommutator, "defect", 2),
        ("local-prepare", {}, lattice, "local_difference", 4),
        ("local-difference", {"pairs": 2}, lattice, "local_difference", 2),
        ("powers", {}, factors, "powers_purity", 2),
        # calls 1-8 are the J A J residual's eight blocks of the instance
        ("modular-flow", {}, vnalg.OperatorAlgebra, "member_residual", 10),
        ("kms-random", {}, modular, "check", 2),
        # calls 1 and 2 are the first bipartition's region and complement
        ("entropy-scan", {}, lattice, "symplectic_eigenvalues", 3),
        # call 1 is the duality residual, then one per boost
        ("wedge-localization", {}, locwedge, "subspace_distance", 3),
        ("modular-spectrum", {}, modular.ModularData, "delta_spectrum", 2),
    ]

    @pytest.mark.parametrize("name,params,owner,attr,call", CASES,
                             ids=[case[0] for case in CASES])
    def test_nan_in_second_draw_fails(self, monkeypatch, name, params, owner,
                                      attr, call):
        assert run(name, params).passed
        _nan_on_call(monkeypatch, owner, attr, call)
        assert not run(name, params).passed


class TestCli:
    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        text = capsys.readouterr().out
        for name in REQUIRED:
            assert name in text

    def test_run_success_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "powers.json"
        code = cli.main(["powers", "--lam", "0.5", "--n", "2",
                         "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_failing_assertion_exit_one(self, capsys, monkeypatch):
        def failing(p, seed):
            return {}, [Assertion("always_fails", 1.0, 0.0)], None

        monkeypatch.setitem(REGISTRY, "powers",
                            replace(REGISTRY["powers"], fn=failing))
        assert cli.main(["powers"]) == 1
        assert "[FAIL] always_fails" in capsys.readouterr().err

    def test_unknown_parameter_exit_two(self, capsys):
        # from the second on, parameters that changed nothing, set a
        # tolerance, or that the mass now fixes: they are unknown now
        for argv in (["powers", "--frobnicate", "3"],
                     ["powers", "--tol-rel", "3"],
                     ["powers", "--tol-abs", "3"],
                     ["powers", "--window", "1.0"],
                     ["cluster-decay", "--far-bound", "1e-6"],
                     ["local-difference", "--budget", "40"],
                     ["cluster-decay", "--fit-hi", "2"],
                     ["cluster-decay", "--fit-hi", "10"],
                     ["cluster-decay", "--fit-hi", "11"]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.startswith(
                "error: unknown parameter(s)")

    @pytest.mark.parametrize("argv", [
        # a prefix of a name (n_max, sites) is not a flag
        ["fock-ccr", "--n", "2"],
        ["cluster-decay", "--site", "50"],
        ["fock-ccr", "--n_max", "3"],
        ["--n_max", "3"],
        ["powers", "--lam"],
        ["powers", "3"],
        ["powers", "--"],
        ["powers", "--format", "xml"],
        ["powers", "--seed", "x"],
        ["no-such-experiment"],
    ])
    def test_invalid_invocation_exit_two(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("out", ["missing/r.json", "."])
    def test_unwritable_out_exit_two(self, capsys, monkeypatch, tmp_path,
                                     out):
        # a missing directory, or a directory in place of a file, refused
        # before the experiment is entered
        def never(p, seed):
            raise AssertionError("ran with an unwritable --out")

        monkeypatch.setitem(REGISTRY, "powers",
                            replace(REGISTRY["powers"], fn=never))
        assert cli.main(["powers", "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("existing", [True, False])
    def test_raising_run_leaves_out_as_it_was(self, capsys, tmp_path,
                                              existing):
        # t = 0 is refused by the run itself, after the --out check
        out = tmp_path / "r.json"
        if existing:
            out.write_text("kept")
        assert cli.main(["causality-probe", "--t", "0",
                         "--out", str(out)]) == 2
        assert "t must be nonzero" in capsys.readouterr().err
        assert (out.read_text() == "kept") if existing else not out.exists()

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_negative_seed_exit_two(self, capsys, monkeypatch, name):
        def never(p, seed):
            raise AssertionError(f"{name} ran at seed {seed}")

        monkeypatch.setitem(REGISTRY, name, replace(REGISTRY[name], fn=never))
        assert cli.main([name, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be a non-negative int\n"

    @pytest.mark.parametrize("argv, named", [
        (["--n_max", "3"], "'--n_max'"),
        (["nosuch", "--n", "2"], "'nosuch'")])
    def test_unknown_experiment_named_with_known_ones(self, capsys, argv,
                                                      named):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"error: unknown experiment {named}; known: "
                       f"{', '.join(REGISTRY)}\n")

    @pytest.mark.parametrize("argv", [[], ["list"], ["-h"], ["--help"],
                                      ["powers", "--help"],
                                      ["powers", "--n", "2", "-h"]])
    def test_help_lists_names_and_minimums(self, capsys, argv):
        assert cli.main(argv) == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: vnlab")
        for name, exp in REGISTRY.items():
            assert name in text
            row = next(ln for ln in text.splitlines()
                       if ln.startswith(f"{name} "))
            for key, param in exp.schema.items():
                bounds = "".join(
                    f" ({word} {bound})" for word, bound in
                    (("min", param.minimum), ("max", param.maximum))
                    if bound is not None)
                assert f"{key}={param.default}{bounds}" in row

    @pytest.mark.parametrize("argv", [
        ["entropy-scan", "--bipartitions", "0"],
        ["kms-random", "--instances", "0"],
        ["kms-random", "--max-k", "1"],
        ["modular-spectrum", "--instances", "0"],
        ["powers", "--n", "0"],
        ["araki-woods", "--n", "0"],
        ["modular-flow", "--k", "1"],
        ["reeh-schlieder-rank", "--degree", "-1"],
        # sizes math.comb would refuse inside the run, naming its own
        # arguments; the commutator checks need n_max >= 2
        ["reeh-schlieder-rank", "--d", "-1"],
        ["reeh-schlieder-rank", "--n-max", "-3"],
        ["fock-ccr", "--n-max", "1"],
        ["local-prepare", "--inputs", "0"],
        ["isometry-impossibility", "--trials", "0"],
        ["local-difference", "--pairs", "0"],
        ["local-difference", "--dim", "1"],
        ["fock-ccr", "--pairs", "0"],
        ["fock-ccr", "--d", "1"],
        ["wedge-localization", "--cond-cap", "0.5"],
        ["wedge-localization", "--cond-cap", "nan"],
        ["local-prepare", "--d2", "0"],
        # the probe needs the packets to have moved
        ["causality-probe", "--t", "0"],
        # sqrt(lam) of a negative lam
        ["disentangle", "--lam", "-1"],
        ["causality-probe", "--m", "nan"],
        ["entropy-scan", "--m", "nan"],
        # a negative gap overlaps the packets or wraps round the ring
        ["causality-probe", "--gap", "-1"],
        # a packet needs a site
        ["causality-probe", "--width", "0"],
        # no minimum: a NaN or inf is refused as not finite; t's minimum,
        # its cap against overflow, refuses its NaN first
        ["araki-woods", "--window", "nan"],
        ["araki-woods", "--window", "inf"],
        ["causality-probe", "--t", "nan"],
        ["causality-probe", "--t", "inf"],
        # above a maximum: K and iK meet below the rank cut, the vacuum is
        # nearly a product state, or the overlap sinks into roundoff
        ["wedge-localization", "--cond-cap", "3e20"],
        ["wedge-localization", "--cond-cap", "1e22"],
        ["entropy-scan", "--m", "12"],
        ["causality-probe", "--gap", "12"],
        ["causality-probe", "--m", "5"],
        # the run-time cap of the cyclicity table
        ["reeh-schlieder-rank", "--n-max", "44"],
        # past the cap on |t|, t^2 overflowed and ended in a traceback
        ["causality-probe", "--t", "1e300"],
        ["causality-probe", "--t", "-1e300"],
    ])
    def test_out_of_range_parameter_exit_two(self, capsys, argv):
        assert cli.main(argv) == 2
        flag, value = argv[1:]
        maximum = REGISTRY[argv[0]].schema[flag[2:].replace("-", "_")].maximum
        expected = ("must be nonzero" if (flag, value) == ("--t", "0")
                    else "must be finite" if flag == "--window"
                    or value == "inf"
                    else "must be <=" if maximum is not None
                    and float(value) > maximum
                    else "must be >=")
        assert expected in capsys.readouterr().err

    def test_packets_wider_than_the_chain_exit_two(self, capsys):
        # two packets of width 20 need 40 sites: refused by name, not as a
        # region that repeats a site
        argv = ["causality-probe", "--sites", "16", "--width", "20"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "width" in err and "repeats" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,says", [
        (["powers", "--lam", "1e-200", "--n", "2"], "normal float range"),
        (["araki-woods", "--lam", "1e-160", "--n", "2"], "normal float range"),
        (["araki-woods", "--window", "0"], "window must be positive"),
        (["araki-woods", "--window", "-1"], "window must be positive")])
    def test_refused_by_factors_exit_two(self, capsys, argv, says):
        # refused before anything overflows or a gap is measured
        with np.errstate(all="raise"):
            assert cli.main(argv) == 2
        assert says in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 6])
    def test_purity_rounding_to_one_refused_before_building(
            self, capsys, monkeypatch, n):
        # at lam = 1e-17 the per-site purity is 1.0 in double precision, so
        # the purities of N >= 2 factors cannot decrease; the refusal comes
        # after the largest N's construction, which computes nothing
        built, build = [], factors.powers_approximant

        def spy(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(factors, "powers_approximant", spy)
        assert cli.main(["powers", "--lam", "1e-17", "--n", str(n)]) == 2
        assert "purity rounds to 1.0" in capsys.readouterr().err
        assert [vars(a).keys() for a in built] == [{"site_weights",
                                                    "n_factors"}]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        # a spectrum spanning 1e-200 to 1e200: no distance overflows
        ["powers", "--lam", "1e-200", "--n", "1"],
        # the smallest lam whose per-site purity stays below 1.0
        ["powers", "--lam", "1.2e-16", "--n", "2"],
        # one factor has no decrease to show
        ["powers", "--lam", "1e-17", "--n", "1"]])
    def test_extreme_powers_weights_pass(self, argv):
        with np.errstate(all="raise"):
            assert cli.main(argv) == 0

    @pytest.mark.parametrize("name,key,value", [
        (name, key, value) for name, exp in REGISTRY.items()
        for key, param in exp.schema.items() if param.type is float
        for value in ("nan", "inf", "-inf")])
    def test_non_finite_float_exit_two(self, capsys, name, key, value):
        # a minimum refuses NaN and -inf first; the rest are not finite
        minimum = REGISTRY[name].schema[key].minimum
        below = minimum is not None and not float(value) >= minimum
        assert cli.main([name, f"--{key.replace('_', '-')}", value]) == 2
        expected = "must be >=" if below else "must be finite"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("argv, says", [
        (["causality-probe", "--m", "inf"], "parameter m must be finite"),
        (["cluster-decay", "--m", "inf"], "parameter m must be finite"),
        (["cluster-decay", "--m", "0"], "massless chain"),
        # the schema's minimum refuses the massless chain first
        (["entropy-scan", "--m", "0"], "parameter m must be >= 5e-05"),
        # the window from the mass: past the antipode of 400 sites, or
        # under three sites wide
        (["cluster-decay", "--m", "0.1"], "fit range must sit inside"),
        (["cluster-decay", "--m", "50"], "fit window (2, 3)"),
        # the square of the mass overflows
        (["cluster-decay", "--m", "1.35e154"], "mass must be finite and "
         "nonnegative, with a finite square"),
        (["cluster-decay", "--m", "1e200"], "mass must be finite and "
         "nonnegative, with a finite square")])
    def test_chain_mass_refused_exit_two(self, capsys, argv, says):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {says}") and "zero_mode" not in err

    @pytest.mark.parametrize("argv", [
        # the images of the last block alone are 304 MB at (8, 6), and
        # 4095 fields on dimension 4096 need about 1.3 GB; d = 1831 is the
        # first point past the edge at n_max = 1; the wedge's 4096 retained
        # modes need about 2.8 GB
        ["reeh-schlieder-rank", "--d", "8", "--n-max", "6"],
        ["reeh-schlieder-rank", "--d", "4095", "--n-max", "1"],
        ["reeh-schlieder-rank", "--d", "1831", "--n-max", "1"],
        ["wedge-localization", "--n", "4096", "--theta-max", "1000",
         "--cond-cap", "1e18"],
        # the stacks drawn at once: 3 M pure samples would hold about
        # 411 MB, and 2000 pairs at dim 44 about 390 MB; the next two are
        # the first points past each stated edge
        ["genericity", "--samples", "3000000"],
        ["genericity", "--samples", "1863225"],
        ["local-difference", "--dim", "44", "--pairs", "2000"],
        ["local-difference", "--dim", "44", "--pairs", "1237"]])
    def test_over_budget_point_refused_before_allocating(self, capsys, argv):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "over the byte budget" in capsys.readouterr().err
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv,module,sampler", [
        (["genericity", "--samples", "1863224"], channels, "haar_pure_state"),
        (["local-difference", "--dim", "44", "--pairs", "1236"], experiments,
         "random_density")])
    def test_stack_at_the_budget_edge_is_drawn(self, monkeypatch, argv,
                                               module, sampler):
        # the last admitted point reaches its draw, stubbed out here
        class Drawn(Exception):
            pass

        def draw(*args):
            raise Drawn

        monkeypatch.setattr(module, sampler, draw)
        with pytest.raises(Drawn):
            cli.main(argv)

    @pytest.mark.parametrize("name,key", [
        (name, key) for name, exp in REGISTRY.items()
        for key, param in exp.schema.items() if param.minimum is not None])
    def test_value_just_below_every_minimum_exit_two(self, capsys, name, key):
        param = REGISTRY[name].schema[key]
        below = (param.minimum - 1 if param.type is int
                 else float(np.nextafter(param.minimum, -np.inf)))
        assert cli.main([name, f"--{key.replace('_', '-')}", str(below)]) == 2
        assert "must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("name,key", [
        (name, key) for name, exp in REGISTRY.items()
        for key, param in exp.schema.items() if param.maximum is not None])
    def test_value_just_above_every_maximum_exit_two(self, capsys,
                                                     monkeypatch, name, key):
        # refused by validate_params: the experiment itself must not run
        def never(p, seed):
            raise AssertionError(f"{name} ran above its cap")

        monkeypatch.setitem(REGISTRY, name, replace(REGISTRY[name], fn=never))
        param = REGISTRY[name].schema[key]
        above = (param.maximum + 1 if param.type is int
                 else float(np.nextafter(param.maximum, np.inf)))
        assert cli.main([name, f"--{key.replace('_', '-')}", str(above)]) == 2
        assert "must be <=" in capsys.readouterr().err

    def test_numerical_breakdown_is_not_exit_two(self, monkeypatch):
        # LinAlgError is a ValueError, but a breakdown is a failed run, not
        # an invalid invocation: it propagates
        def breakdown(spec):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(lattice, "GaussianState", breakdown)
        with pytest.raises(np.linalg.LinAlgError):
            cli.main(["cluster-decay"])

    @pytest.mark.parametrize("token", ["-1e-3", "-1E-3", "-.5e-2", "-2.5e+0"])
    def test_negative_exponent_value_after_space(self, capsys, tmp_path, token):
        out = tmp_path / "p.json"
        assert cli.main(["causality-probe", "--t", token,
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["params"]["t"] == float(token)

    def test_minimum_is_per_experiment(self, capsys):
        # d = 1 is a valid Reeh-Schlieder run, and the fock-ccr minimum of 2
        # does not reach it; the smallest sizes pass
        for argv in (["reeh-schlieder-rank", "--d", "1"],
                     ["reeh-schlieder-rank", "--d", "1", "--n-max", "1",
                      "--degree", "0"],
                     ["reeh-schlieder-rank", "--n-max", "1", "--degree", "1"],
                     ["fock-ccr", "--n-max", "2"]):
            assert cli.main(argv) == 0

    def test_seed_flag_threads_through(self, capsys, tmp_path):
        out = tmp_path / "e.json"
        cli.main(["entropy-scan", "--bipartitions", "3", "--seed", "9",
                  "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 9

    @pytest.mark.parametrize("name", list(list_experiments()))
    def test_text_output_prints_plain_values(self, capsys, name):
        # every experiment passes at the registry defaults; the CSV report
        # and the assertion lines print plain values: a numpy scalar would
        # print as np.float64(...) or np.True_
        assert cli.main([name, "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert "np." not in captured.out + captured.err
