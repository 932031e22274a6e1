"""Outside-in tracing of the vnlab layers, from the benchmark's own code.

`instrument` replaces every public function of the ten layer modules at
every binding: the defining module, each `from .x import y` name in another
module, and the re-exports of the `vnlab` package.  Each function gets one
wrapper, shared by all its bindings, so a call is recorded once whichever
name the caller used.

Two recorders plug into the wrappers, and they never share a process:

- `SpanRecorder` keeps one span per call (function, start, end, parent) in
  flat arrays, and accumulates per-function self time: the span minus the
  time covered by its wrapped children.
- `AllocRecorder` uses `tracemalloc` (numpy reports its buffers to it) to
  record, per function, the peak allocation above the level at entry.
  tracemalloc slows Python-bound code several times over, so its figures
  never come from a timed run.

Computed counts (`COUNTERS`) are derived from argument and return shapes at
the wrapper; they are labelled as computed because no counter runs inside
the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import tracemalloc
import types
from array import array
from collections import defaultdict

LAYERS = ("numkit", "vnalg", "modular", "factors", "locwedge", "fock",
          "lattice", "channels", "experiments", "cli")

# Functions whose self time and calls are reported one by one.
KERNELS = {
    "numkit": ("herm_fn", "norm2", "antilinear_polar", "is_hermitian"),
    "vnalg": ("orthonormalize_span", "vn_closure", "commutant",
              "center_and_factor", "cyclic_separating"),
    "modular": ("tomita", "modular_flow", "kms_defect", "commutant_map_check"),
    "factors": ("powers_approximant", "araki_woods_approximant", "signature"),
    "locwedge": ("wedge_one_particle", "standard_subspace",
                 "symplectic_complement", "real_subspace_from_vectors"),
    "fock": ("build_fock", "field_operator", "ccr_defect", "locality_check",
             "cyclicity_rank"),
    "lattice": ("ground_state", "symplectic_eigenvalues", "reduced_entropy",
                "local_difference", "local_difference_bruteforce"),
    "channels": ("genericity_scan", "is_entangled", "disentangle",
                 "isometry_impossibility_check"),
    "experiments": ("run",),
    "cli": ("main",),
}


# ------------------------------------------------------------ computed counts

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_norm2(counts, args, kwargs, out):
    counts["numkit.norm2.elements"] += int(_arg(args, kwargs, 0, "a").size)


def _count_herm_fn(counts, args, kwargs, out):
    dim = int(_arg(args, kwargs, 0, "h").shape[0])
    key = "numkit.herm_fn.max_dim"
    counts[key] = max(counts[key], dim)


def _count_commutant(counts, args, kwargs, out):
    a = _arg(args, kwargs, 0, "a")
    if out is a.commutant_hint:
        return
    gens = a.generators if a.generators is not None else a.basis
    counts["vnalg.commutant.generic_calls"] += 1
    counts["vnalg.commutant.stacked_rows"] += 2 * len(gens) * a.dim ** 2


def _count_build_fock(counts, args, kwargs, out):
    counts["fock.build_fock.total_dim"] += int(out.total_dim)


def _count_symplectic(counts, args, kwargs, out):
    region = _arg(args, kwargs, 1, "region")
    counts["lattice.symplectic_eigenvalues.sites"] += len(region)


def _count_approximant(counts, args, kwargs, out):
    counts["factors.ambient_dim"] += int(out.ambient_dim)


def _count_report(counts, args, kwargs, out):
    path = kwargs.get("out", args[4] if len(args) > 4 else None)
    if path is None:
        return
    size = os.path.getsize(path)
    if kwargs.get("fmt", args[5] if len(args) > 5 else "json") == "json":
        # a JSON report embeds its own run time, whose digits vary
        size -= len(json.dumps(out.wall_time_s))
    counts["experiments.report_bytes"] += size


COUNTERS = {
    "numkit.norm2": _count_norm2,
    "numkit.herm_fn": _count_herm_fn,
    "vnalg.commutant": _count_commutant,
    "fock.build_fock": _count_build_fock,
    "lattice.symplectic_eigenvalues": _count_symplectic,
    "factors.powers_approximant": _count_approximant,
    "factors.araki_woods_approximant": _count_approximant,
    "experiments.run": _count_report,
}

COUNT_NAMES = ("numkit.norm2.elements", "numkit.herm_fn.max_dim",
               "vnalg.commutant.generic_calls", "vnalg.commutant.stacked_rows",
               "fock.build_fock.total_dim",
               "lattice.symplectic_eigenvalues.sites", "factors.ambient_dim",
               "experiments.report_bytes")


# ------------------------------------------------------------------ recorders

class SpanRecorder:
    """Spans in memory and self time per function, from one clock."""

    def __init__(self, clock=time.perf_counter, run_id: str = "0"):
        self.clock = clock
        self.run_id = run_id
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[list] = []        # [span index, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = dict.fromkeys(COUNT_NAMES, 0)

    def wrap(self, name: str, fn, counter=None):
        fid = len(self.names)
        self.names.append(name)
        rec, clock, stack = self, self.clock, self.stack
        self_s, calls, errors, counts = (self.self_s, self.calls, self.errors,
                                         self.counts)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            rec.fn.append(fid)
            rec.parent.append(stack[-1][0] if stack else -1)
            rec.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            rec.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                rec.end[idx] = t1
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return wrapper

    def write_spans(self, path: str) -> int:
        """One JSON line per span: name, start, end, parent index, run id."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.fn[i]], self.start[i],
                                     self.end[i], self.parent[i],
                                     self.run_id]) + "\n")
        return len(self.start)


class AllocRecorder:
    """Peak tracemalloc bytes above the entry level, per function.

    A child call resets the interpreter-wide peak, so every frame folds the
    peak seen so far into its own record before a child starts, and the
    child hands its peak up to the parent when it returns.
    """

    def __init__(self):
        self.stack: list[list[int]] = []   # [level at entry, peak so far]
        self.peak: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, counter=None):
        stack, peak = self.stack, self.peak

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cur, pk = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][1] = max(stack[-1][1], pk)
            tracemalloc.reset_peak()
            frame = [cur, cur]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                _, pk = tracemalloc.get_traced_memory()
                stack.pop()
                top = max(frame[1], pk)
                peak[name] = max(peak[name], top - frame[0])
                if stack:
                    stack[-1][1] = max(stack[-1][1], top)
                tracemalloc.reset_peak()

        return wrapper


# ------------------------------------------------------------ instrumentation

def _modules():
    pkg = importlib.import_module("vnlab")
    return [pkg] + [importlib.import_module(f"vnlab.{m}") for m in LAYERS]


def _public_functions(module):
    for key, value in vars(module).items():
        if (isinstance(value, types.FunctionType) and not key.startswith("_")
                and value.__module__.startswith("vnlab.")):
            yield key, value


def instrument(recorder) -> int:
    """Wrap every public layer function at every binding; return bindings."""
    wrappers: dict[int, object] = {}
    bindings = 0
    for module in _modules():
        for key, fn in list(_public_functions(module)):
            if id(fn) not in wrappers:
                name = f"{fn.__module__.removeprefix('vnlab.')}.{fn.__name__}"
                wrappers[id(fn)] = recorder.wrap(name, fn, COUNTERS.get(name))
            setattr(module, key, wrappers[id(fn)])
            bindings += 1
    return bindings


def layer_metrics(self_s: dict, calls: dict, errors: dict, counts: dict,
                  peak_alloc: dict, rounds: int) -> dict[str, float]:
    """Per-round layer totals, kernel totals and computed counts.

    The first four arguments are summed over `rounds` traced rounds, keyed
    by `layer.function`; `peak_alloc` holds bytes from the tracemalloc pass.
    """
    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_sum(self_s, layer) / rounds
        out[f"{layer}.calls"] = layer_sum(calls, layer) / rounds
        out[f"{layer}.errors"] = layer_sum(errors, layer) / rounds
        out[f"{layer}.peak_alloc_mb"] = max(
            [v for k, v in peak_alloc.items() if k.split(".")[0] == layer],
            default=0) / 2**20
    for layer, fns in KERNELS.items():
        for f in fns:
            name = f"{layer}.{f}"
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / rounds
            out[f"{name}.calls"] = calls.get(name, 0) / rounds
    for key in COUNT_NAMES:
        out[key] = counts[key] if key.endswith(".max_dim") \
            else counts[key] / rounds
    return out
