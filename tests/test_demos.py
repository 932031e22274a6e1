"""Entry points as real processes, with RuntimeWarnings as errors: every demo
script, and the `vnlab` command reading sys.argv and ending in
sys.exit(main()) on the README's examples, its help and one refusal."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import vnlab

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(pathlib.Path(vnlab.__file__).resolve().parents[1])
# the fenced sh block after "Examples:" in the README, one command a line
EXAMPLES = [shlex.split(line, comments=True) for line in re.search(
    r"^Examples:\n+```sh\n(.*?)^```", (ROOT / "README.md").read_text(),
    re.M | re.S).group(1).splitlines()]


def _python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


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
