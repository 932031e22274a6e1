"""The workloads: seeded inputs and the check each operation must pass.

A workload is a list of operations that one round runs in order.  `build`
draws every random input from the round's seed before the first operation
starts, so input generation counts as set-up, not as work.  Each operation
returns `None` when its result is verified, or the reason it failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

WORKLOADS = ("fock", "chain", "algebra")

# Bicommutant draws per algebra round; x, y in M_4 act as x (x) 1 on C^16.
BICOMMUTANT_DRAWS = 3
COMMUTE_RTOL = 1e-9
SPAN_TOL = 1e-9


def _non_finite(value, path: str = "") -> str | None:
    """Path of the first non-finite number in a report, or None."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and not math.isfinite(value)):
            return path or "value"
        return None
    for key, item in items:
        found = _non_finite(item, f"{path}.{key}" if path else str(key))
        if found:
            return found
    return None


def _csv_non_finite(text: str) -> str | None:
    for line_no, line in enumerate(text.splitlines()):
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:
                continue
            if not math.isfinite(value):
                return f"line {line_no + 1}"
    return None


def _cli_op(vnlab, name: str, params: dict, seed: int, fmt: str,
            out_dir: str):
    """`vnlab NAME --PARAM V ... --seed S --format F --out PATH`, captured."""
    path = os.path.join(out_dir, f"{name}.{fmt}")
    argv = [name]
    for key, value in params.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    argv += ["--seed", str(seed), "--format", fmt, "--out", path]

    def op():
        if os.path.exists(path):
            os.remove(path)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            code = vnlab.cli.main(argv)
        if code != 0:
            fails = [ln.strip() for ln in captured.getvalue().splitlines()
                     if "[FAIL]" in ln or ln.startswith("error")]
            return f"exit {code}: " + "; ".join(fails)
        with open(path) as fh:
            text = fh.read()
        bad = (_non_finite(json.loads(text)) if fmt == "json"
               else _csv_non_finite(text))
        return f"non-finite {bad}" if bad else None
    return " ".join([name] + [f"{k}={v}" for k, v in params.items()]
                    + [f"--format {fmt}"]), op


def _bicommutant_op(vnlab, rng: np.random.Generator, draw: int):
    """A = vN({x(x)1, y(x)1}); A' and A'' by the generic solve; Z(A'')."""
    eye = np.eye(4)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gens = [np.kron(x, eye), np.kron(y, eye)]

    def op():
        vnalg = vnlab.vnalg
        a = vnalg.vn_closure(gens, 16)
        a1 = vnalg.commutant(a)
        a2 = vnalg.commutant(a1)
        center, _ = vnalg.center_and_factor(a2)
        if a2.size != a.size:
            return f"dim A'' = {a2.size} != dim A = {a.size}"
        flat = a.basis.reshape(a.size, -1)
        flat2 = a2.basis.reshape(a2.size, -1)
        cosines = np.linalg.svd(flat.conj() @ flat2.T, compute_uv=False)
        if cosines.min() < 1.0 - SPAN_TOL:
            return f"span A'' != span A (min cosine {cosines.min():.3g})"
        if center.size != 1:
            return f"centre of A'' has size {center.size}"
        worst = max(np.linalg.norm(b @ g - g @ b)
                    / (np.linalg.norm(b) * np.linalg.norm(g))
                    for b in a1.basis for g in gens)
        if worst > COMMUTE_RTOL:
            return f"A' fails to commute with x, y (relative {worst:.3g})"
        return None
    return f"bicommutant M_4 draw {draw}", op


# Registered experiments per workload, run through `vnlab.cli.main`; an
# empty dict runs the registry defaults.
EXPERIMENTS = {
    "fock": [("fock-ccr", {"d": 5, "n_max": 6, "pairs": 5}),
             ("reeh-schlieder-rank", {"d": 3, "n_max": 5, "degree": 5})],
    "chain": [("entropy-scan", {"sites": 512}),
              ("wedge-localization", {"n": 1024}),
              ("cluster-decay", {"sites": 4096}),
              ("causality-probe", {"sites": 4096}),
              ("local-prepare", {}), ("disentangle", {}),
              ("genericity", {}), ("isometry-impossibility", {})],
    "algebra": [("kms-random", {"max_k": 8, "instances": 40}),
                ("powers", {"n": 6}), ("araki-woods", {"n": 3}),
                ("modular-flow", {}), ("modular-spectrum", {})],
}


def build(vnlab, workload: str, seed: int, out_dir: str):
    """The operations of one round, as (label, callable) pairs.

    Report formats alternate JSON, CSV, ... down each workload's list.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    ops = []
    if workload == "algebra":
        rng = np.random.default_rng(seed)
        ops = [_bicommutant_op(vnlab, rng, i)
               for i in range(BICOMMUTANT_DRAWS)]
    return ops + [
        _cli_op(vnlab, name, params, seed, ("json", "csv")[i % 2], out_dir)
        for i, (name, params) in enumerate(EXPERIMENTS[workload])]
