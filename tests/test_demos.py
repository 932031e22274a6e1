"""Entry points as real processes, with RuntimeWarnings as errors: every demo
script, and the `vnlab` command reading sys.argv and ending in
sys.exit(main()) on the README's examples, its help, one refusal, and the
in-schema points that once exited 1."""

import json
import pathlib
import re
import shlex

import numpy as np
import pytest
from reference import run_python

from vnlab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the fenced sh block after "Examples:" in the README, one command a line
EXAMPLES = [shlex.split(line, comments=True) for line in re.search(
    r"^Examples:\n+```sh\n(.*?)^```", (ROOT / "README.md").read_text(),
    re.M | re.S).group(1).splitlines()]


def _python(args, cwd):
    return run_python(["-W", "error::RuntimeWarning", *args], cwd=cwd,
                      timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _python([str(demo)], ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]


CLI_CASES = [(argv, 0) for argv in EXAMPLES] + [
    (["vnlab", "--help"], 0), (["vnlab", "fock-ccr", "--n", "2"], 2)]


@pytest.mark.parametrize("argv,code", CLI_CASES,
                         ids=["_".join(argv[1:]) for argv, _ in CLI_CASES])
def test_vnlab_process(tmp_path, argv, code):
    assert argv[0] == "vnlab"
    proc = _python(["-m", "vnlab.cli", *argv[1:]], tmp_path)
    assert proc.returncode == code, proc.stderr[-2000:]
    if code == 2:
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    elif argv[1] == "--help":
        assert proc.stdout.startswith("usage: vnlab")
    elif "--out" in argv:
        out = tmp_path / argv[argv.index("--out") + 1]
        text = out.read_text()
        if out.suffix == ".json":
            assert json.loads(text)["pass"] is True
        else:
            # the cluster-decay series header
            assert text.startswith("r,F\n")


# points the schema accepted and the runs failed on: a log taken before
# the weights were refused, a rank compared with sectors the degree cannot
# reach, fixed floors or fit windows that the physics outran, and overlaps
# at small |t| read against a floor that did not shrink with |t|
BOUNDED = [["araki-woods", "--lam", "0"], ["araki-woods", "--mu", "0"],
           ["araki-woods", "--lam", "-1"], ["reeh-schlieder-rank", "--degree", "2"],
           ["wedge-localization", "--cond-cap", "3e20"],
           ["wedge-localization", "--cond-cap", "1e22"],
           ["cluster-decay", "--m", "0.2"], ["cluster-decay", "--m", "0.05"],
           ["entropy-scan", "--m", "12"], ["causality-probe", "--gap", "12"],
           ["causality-probe", "--t", "1e-8"], ["causality-probe", "--m", "5"],
           ["causality-probe", "--m", "3", "--gap", "8", "--t", "1e-3"],
           ["causality-probe", "--m", "3", "--gap", "8", "--width", "32"],
           ["causality-probe", "--t", "1e-10"]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("argv", BOUNDED, ids="_".join)
def test_bounded_point_passes_or_is_refused(tmp_path, capsys, argv, seed):
    argv = [*argv, "--seed", seed]
    proc = _python(["-m", "vnlab.cli", *argv], tmp_path)
    with np.errstate(all="raise"):
        code = cli.main(argv)
    assert code in (0, 2) and proc.returncode == code, proc.stderr[-2000:]
