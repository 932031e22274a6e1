"""Experiment registry, reports, determinism, CLI contract."""

import json

import numpy as np
import pytest

from vnlab import cli
from vnlab.experiments import (REGISTRY, list_experiments, run,
                               validate_params)

REQUIRED = [
    "kms-random", "modular-flow", "powers", "araki-woods",
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
            for typ, default in exp.schema.values():
                assert isinstance(default, typ)

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
    def test_fast_experiments_pass_at_defaults(self):
        quick = {"modular-flow": {}, "powers": {"n": 2},
                 "araki-woods": {"n": 2}, "fock-ccr": {"pairs": 5},
                 "reeh-schlieder-rank": {}, "cluster-decay": {},
                 "entropy-scan": {"bipartitions": 5},
                 "causality-probe": {}, "local-prepare": {"inputs": 5},
                 "disentangle": {}, "isometry-impossibility": {"trials": 5}}
        for name, params in quick.items():
            report = run(name, params, seed=0)
            assert report.passed, f"{name} failed: " + ", ".join(
                a.name for a in report.assertions if not a.passed)
            assert json.loads(report.to_json())["pass"] is True

    @pytest.mark.parametrize("name,params", [
        ("wedge-localization", {"n": 4096}),
        ("entropy-scan", {"sites": 1024, "bipartitions": 2})])
    def test_scale_configurations_pass_finite(self, name, params):
        with np.errstate(all="raise"):
            report = run(name, params, seed=0)
        assert report.passed, f"{name} failed: " + ", ".join(
            a.name for a in report.assertions if not a.passed)

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
        assert out.read_text().startswith("metric,value")


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

    def test_failing_assertion_exit_one(self, capsys):
        code = cli.main(["cluster-decay", "--far-bound", "1e-30"])
        assert code == 1

    def test_unknown_parameter_exit_two(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["powers", "--frobnicate", "3"])

    def test_seed_flag_threads_through(self, capsys, tmp_path):
        out = tmp_path / "e.json"
        cli.main(["entropy-scan", "--bipartitions", "3", "--seed", "9",
                  "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 9
