"""One round of a workload in a fresh process; `run.py` starts it.

    python3 perfbench/worker.py MODE WORKLOAD SEED ROUND T_SPAWN RESULT

MODE is `setup` (import vnlab and build the inputs, then stop), `work`
(untraced round), `trace` (round with spans) or `alloc` (round under
tracemalloc).  T_SPAWN is the CLOCK_MONOTONIC reading taken by the parent
just before it started this process; set-up time runs from there until the
round's seeded inputs are built.  The result is written as JSON to RESULT.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_info(np) -> dict:
    """BLAS library name and its thread count, read from the loaded library."""
    import ctypes
    info = {"name": "unknown", "threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{cfg.get('name')} {cfg.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def main(argv) -> int:
    mode, workload, seed, round_index, t_spawn, result_path = argv
    seed, round_index, t_spawn = int(seed), int(round_index), float(t_spawn)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np

    import vnlab
    import vnlab.cli  # noqa: F401  (not imported by the package itself)
    import workloads

    out_dir = os.path.join(ROOT, ".perfbench", f"out-{os.getpid()}")
    round_seed = seed * 1000 + round_index
    ops = workloads.build(vnlab, workload, round_seed, out_dir)
    setup_s = _monotonic() - t_spawn
    result = {"setup_s": setup_s}
    if mode == "setup":
        _write(result_path, result)
        return 0

    os.makedirs(out_dir, exist_ok=True)
    spans = alloc = None
    if mode in ("trace", "alloc"):
        import tracer
    if mode == "trace":
        spans = tracer.SpanRecorder(run_id=f"{workload}-{seed}-{round_index}")
        result["bindings"] = tracer.instrument(spans)
    elif mode == "alloc":
        alloc = tracer.AllocRecorder()
        result["bindings"] = tracer.instrument(alloc)
        tracemalloc.start()

    fp_events = [0]

    def on_fp_event(kind, flag):
        fp_events[0] += 1

    np.seterrcall(on_fp_event)
    records = []
    first = time.perf_counter()
    for label, op in ops:
        if alloc is not None:
            gc.collect()   # the previous operation's garbage is not ours
        fp_events[0] = 0
        t0 = time.perf_counter()
        try:
            with np.errstate(all="call"):
                reason = op()
        except Exception as err:
            traceback.print_exc()
            reason = f"raised {type(err).__name__}: {err}"
        records.append({"op": label, "seconds": time.perf_counter() - t0,
                        "failure": reason, "fp_events": fp_events[0]})
    last = time.perf_counter()
    if alloc is not None:
        tracemalloc.stop()

    result.update(
        wall_s=last - first,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=records,
        env={"numpy": np.__version__, "blas": _blas_info(np),
             "python": platform.python_version()})
    if spans is not None:
        result.update(self_s=spans.self_s, calls=spans.calls,
                      errors=spans.errors, counts=spans.counts)
        span_dir = os.path.join(ROOT, ".perfbench", "spans")
        os.makedirs(span_dir, exist_ok=True)
        result["spans"] = spans.write_spans(os.path.join(
            span_dir, f"{workload}-round{round_index}.jsonl"))
    if alloc is not None:
        result["peak_alloc"] = alloc.peak
    _write(result_path, result)
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))
    os.rmdir(out_dir)
    return 0


def _write(path: str, result: dict) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
