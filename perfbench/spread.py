"""Run-to-run spread of the end-to-end metrics, as used to set the bounds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads fock,chain]
                                [--seconds S] [--out FILE]

Runs `run.py --trace 0` once per workload and seed, in sequence, and prints
for each metric the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json.  The raw results go
to FILE (default `.perfbench/spread.json`) with the summary and the
environment line of the first run.
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


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench",
                                                      "spread.json"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, env = [], None
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            begin = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            env = env or next(ln for ln in lines if ln.startswith("env: "))
            runs.append({"workload": workload, "seed": seed,
                         "elapsed_s": time.perf_counter() - begin,
                         "result": result})
            print(f"{workload} seed {seed}: {runs[-1]['elapsed_s']:.1f} s, "
                  + ", ".join(f"{k} {v['value']:.4g}"
                              for k, v in result["metrics"].items()),
                  flush=True)
    summary = []
    print(f"\n{'workload':<8} {'metric':<14} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for workload in args.workloads.split(","):
        mine = [r["result"] for r in runs if r["workload"] == workload]
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in mine]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary.append({"workload": workload, "metric": name,
                            "median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med, "bound": bounds[name]})
            print(f"{workload:<8} {name:<14} {med:>10.5g} {q1:>10.5g} "
                  f"{q3:>10.5g} {(q3 - q1) / med:>7.3f} {bounds[name]:>6}")
        elapsed = [r["elapsed_s"] for r in runs if r["workload"] == workload]
        print(f"{workload:<8} {'run length':<14} "
              f"{statistics.median(elapsed):>10.1f} s "
              f"(max {max(elapsed):.1f} s)")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"claim": None, "env": env, "seconds": args.seconds,
                   "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
