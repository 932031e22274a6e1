"""vnlab benchmark: three workloads, end-to-end metrics, outside-in traces.

    python3 perfbench/run.py --workload {fock,chain,algebra} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a vnlab source tree (the package is imported from
`src/`, nothing is installed).  A run is a closed loop of rounds, one at a
time, each in a fresh `worker.py` process.  With `--trace 0` rounds repeat
until S seconds have passed and the end-to-end metrics are printed; with
`--trace 1` a fixed number of traced rounds, each paired with an untraced
round of the same seed, and one tracemalloc round give the per-layer
metrics.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Traced rounds per traced run; fixed so that counts repeat exactly.
TRACED_ROUNDS = 2
# A run, set-up included, ends within this many seconds whatever the host.
RUN_LIMIT_S = 170


class WorkerFailed(RuntimeError):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker(mode: str, workload: str, seed: int, round_index: int,
            deadline: float) -> dict:
    path = os.path.join(ROOT, ".perfbench", f"result-{os.getpid()}.json")
    if os.path.exists(path):
        os.remove(path)
    t_spawn = _monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload,
           str(seed), str(round_index), repr(t_spawn), path]
    proc = subprocess.run(cmd, stdout=sys.stderr,
                          timeout=max(deadline - time.perf_counter(), 1.0))
    if proc.returncode != 0 or not os.path.exists(path):
        raise WorkerFailed(f"{mode} round {round_index} exited "
                           f"{proc.returncode}")
    with open(path) as fh:
        result = json.load(fh)
    os.remove(path)
    return result


def _git_revision() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _env_line(rounds: list[dict]) -> str:
    env = rounds[0]["env"]
    blas = env["blas"]
    return (f"env: numpy {env['numpy']}, BLAS {blas['name']} with "
            f"{blas['threads']} threads, nproc {os.cpu_count()}, "
            f"python {env['python']}, git {_git_revision()}")


def _result_line(correct: bool, rounds: list[dict], metrics: dict) -> str:
    ops = [rec for r in rounds for rec in r["ops"]]
    return json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(rec["failure"] is not None for rec in ops),
        "metrics": metrics})


def _print_failures(rounds: list[dict]) -> None:
    failed: dict[str, list[str]] = {}
    for rec in (rec for r in rounds for rec in r["ops"]):
        if rec["failure"] is not None:
            failed.setdefault(rec["op"], []).append(rec["failure"])
    for op, reasons in failed.items():
        print(f"FAILED {op}: {reasons[0]} ({len(reasons)} of {len(rounds)} "
              f"rounds)")


def _range(values: list[float]) -> str:
    return (f"median {statistics.median(values):.4g}, "
            f"min {min(values):.4g}, max {max(values):.4g}")


def untraced(workload: str, seed: int, seconds: float,
             deadline: float) -> tuple[bool, list, dict]:
    rounds, setups = [], []
    correct = True
    begin = time.perf_counter()
    round_index = 0
    while True:
        try:
            # one set-up-only process per round spreads the set-up samples
            # over the run, so their median does not hang on one host phase
            setups.append(_worker("setup", workload, seed, round_index,
                                  deadline)["setup_s"])
            result = _worker("work", workload, seed, round_index, deadline)
        except (WorkerFailed, subprocess.TimeoutExpired) as err:
            print(f"harness error: {err}", file=sys.stderr)
            correct = False
            break
        rounds.append(result)
        setups.append(result["setup_s"])
        round_index += 1
        if time.perf_counter() - begin >= seconds:
            break
    if not rounds:
        return False, [], {}

    walls = [r["wall_s"] for r in rounds]
    rss = [r["peak_rss_mb"] for r in rounds]
    ops = [rec for r in rounds for rec in r["ops"]]
    events = sum(rec["fp_events"] for rec in ops)
    metrics = {
        "wall_s": statistics.fmean(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
        "pass_share": sum(rec["failure"] is None for rec in ops) / len(ops),
        "fp_free_share": sum(rec["fp_events"] == 0 for rec in ops) / len(ops),
    }
    units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
             "pass_share": "share", "fp_free_share": "share"}
    samples = {"wall_s": f"mean of n={len(walls)} rounds; {_range(walls)}",
               "peak_rss_mb": f"median of n={len(rss)} rounds; {_range(rss)}",
               "setup_s": f"median of n={len(setups)}; {_range(setups)}",
               "pass_share": f"n={len(ops)} operations",
               "fp_free_share": f"n={len(ops)} operations"}
    print(f"workload {workload}, seed {seed}, {len(rounds)} rounds in "
          f"{time.perf_counter() - begin:.1f} s")
    print(_env_line(rounds))
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]} ({samples[key]})")
    print(f"fp_events = {events / len(rounds):.6g} count per round "
          f"(n={len(rounds)} rounds; "
          + ", ".join(f"{rec['op']}: {rec['fp_events']}"
                      for rec in rounds[0]["ops"] if rec["fp_events"]) + ")")
    per_op: dict[str, list[float]] = {}
    for rec in ops:
        per_op.setdefault(rec["op"], []).append(rec["seconds"])
    print("operations (mean s): " + ", ".join(
        f"{op} {statistics.fmean(v):.3f}" for op, v in per_op.items()))
    _print_failures(rounds)
    return correct, rounds, {k: {"value": v, "unit": units[k]}
                             for k, v in metrics.items()}


def traced(workload: str, seed: int, deadline: float) -> tuple[list, dict]:
    plain, traced_rounds = [], []
    for r in range(TRACED_ROUNDS):
        plain.append(_worker("work", workload, seed, r, deadline))
        traced_rounds.append(_worker("trace", workload, seed, r, deadline))
    alloc = _worker("alloc", workload, seed, 0, deadline)

    def total(key):
        out: dict = {}
        for r in traced_rounds:
            for name, value in r[key].items():
                out[name] = (max(out.get(name, 0), value)
                             if name.endswith(".max_dim")
                             else out.get(name, 0) + value)
        return out

    n = len(traced_rounds)
    self_s = total("self_s")
    values = tracer.layer_metrics(self_s, total("calls"),
                                  total("errors"), total("counts"),
                                  alloc["peak_alloc"], n)
    traced_wall = sum(r["wall_s"] for r in traced_rounds) / n
    attributed = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
    values["trace.overhead_s"] = traced_wall - statistics.median(
        r["wall_s"] for r in plain)
    values["trace.unattributed_s"] = traced_wall - attributed

    print(f"workload {workload}, seed {seed}, traced: {n} rounds "
          f"({traced_rounds[0]['bindings']} bindings wrapped, "
          f"{sum(r['spans'] for r in traced_rounds)} spans written to "
          f".perfbench/spans), traced wall {traced_wall:.4g} s per round")
    print(_env_line(traced_rounds))
    largest = sorted(self_s, key=self_s.get, reverse=True)[:4]
    print("largest self times per round: " + ", ".join(
        f"{name} {self_s[name] / n:.3f} s" for name in largest))
    _print_failures(traced_rounds)
    metrics = {}
    for spec in per_layer_specs():
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
    return traced_rounds, metrics


def per_layer_specs() -> list[dict]:
    """Names and units of the per-layer metrics, in BENCHMARK.json order."""
    specs = []
    for layer in tracer.LAYERS:
        specs += [{"name": f"{layer}.self_s", "unit": "s"},
                  {"name": f"{layer}.calls", "unit": "count"},
                  {"name": f"{layer}.errors", "unit": "count"},
                  {"name": f"{layer}.peak_alloc_mb", "unit": "MB"}]
    for layer, fns in tracer.KERNELS.items():
        for f in fns:
            specs += [{"name": f"{layer}.{f}.self_s", "unit": "s"},
                      {"name": f"{layer}.{f}.calls", "unit": "count"}]
    specs += [{"name": name,
               "unit": "bytes" if name.endswith("_bytes") else "count"}
              for name in tracer.COUNT_NAMES]
    specs += [{"name": "trace.overhead_s", "unit": "s"},
              {"name": "trace.unattributed_s", "unit": "s"}]
    return [dict(s, better="lower") for s in specs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vnlab", "__init__.py")):
        print(f"error: no vnlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= RUN_LIMIT_S - 50:
        parser.error(f"--seconds must lie in (0, {RUN_LIMIT_S - 50}]")
    deadline = time.perf_counter() + RUN_LIMIT_S
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    if args.trace:
        try:
            rounds, metrics = traced(args.workload, args.seed, deadline)
        except (WorkerFailed, subprocess.TimeoutExpired) as err:
            print(f"harness error: {err}", file=sys.stderr)
            return 1
        correct = True
    else:
        correct, rounds, metrics = untraced(args.workload, args.seed,
                                            args.seconds, deadline)
    if not rounds:
        print("error: no round completed", file=sys.stderr)
        return 1
    print(_result_line(correct, rounds, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
