"""Self-test of the benchmark's own code.

    python3 -m pytest -q perfbench

Instrumenting vnlab rebinds module globals, so those checks run in a child
interpreter and leave this process untouched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_nested_calls_are_exact():
    clock = FakeClock()
    rec = tracer.SpanRecorder(clock=clock)
    calls = {}

    def leaf():
        clock.now += 3.0

    def mid():
        clock.now += 2.0
        calls["leaf"]()
        clock.now += 1.0
        calls["leaf"]()

    def top():
        clock.now += 5.0
        calls["mid"]()
        clock.now += 7.0

    for name, fn in (("leaf", leaf), ("mid", mid), ("top", top)):
        calls[name] = rec.wrap(f"toy.{name}", fn)
    calls["top"]()

    assert dict(rec.self_s) == {"toy.leaf": 6.0, "toy.mid": 3.0,
                                "toy.top": 12.0}
    assert dict(rec.calls) == {"toy.leaf": 2, "toy.mid": 1, "toy.top": 1}
    assert sum(rec.self_s.values()) == rec.end[0] - rec.start[0] == 21.0
    assert [rec.names[i] for i in rec.fn] == ["toy.top", "toy.mid",
                                              "toy.leaf", "toy.leaf"]
    assert list(rec.parent) == [-1, 0, 1, 1]
    assert rec.stack == []


def test_escaping_exception_is_counted_and_unwinds():
    clock = FakeClock()
    rec = tracer.SpanRecorder(clock=clock)

    def bad():
        clock.now += 1.0
        raise ValueError("boom")

    def outer():
        clock.now += 2.0
        wrapped_bad()

    wrapped_bad = rec.wrap("toy.bad", bad)
    with pytest.raises(ValueError):
        rec.wrap("toy.outer", outer)()
    assert dict(rec.errors) == {"toy.bad": 1, "toy.outer": 1}
    assert dict(rec.self_s) == {"toy.bad": 1.0, "toy.outer": 2.0}
    assert rec.stack == []


def test_child_peak_reset_keeps_parent_peak():
    rec = tracer.AllocRecorder()
    mib = 2**20

    def small_child():
        buf = bytearray(1 * mib)
        return len(buf)

    def big_child():
        buf = bytearray(20 * mib)
        return len(buf)

    small = rec.wrap("toy.small", small_child)
    big = rec.wrap("toy.big", big_child)

    def parent_peaks_before_child():
        buf = bytearray(10 * mib)
        del buf
        small()

    def parent_peaks_in_child():
        big()

    first = rec.wrap("toy.first", parent_peaks_before_child)
    second = rec.wrap("toy.second", parent_peaks_in_child)
    tracemalloc.start()
    try:
        first()
        second()
    finally:
        tracemalloc.stop()
    assert 10 * mib <= rec.peak["toy.first"] < 11 * mib
    assert 1 * mib <= rec.peak["toy.small"] < 2 * mib
    assert 20 * mib <= rec.peak["toy.second"] < 21 * mib
    assert 20 * mib <= rec.peak["toy.big"] < 21 * mib
    assert rec.stack == []


INSTRUMENT_CHECK = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import tracer
originals = {}
for module in tracer._modules():
    for key, fn in tracer._public_functions(module):
        originals.setdefault(id(fn), f"{module.__name__}.{key}")
rec = tracer.SpanRecorder()
bindings = tracer.instrument(rec)
survivors = [originals[id(v)] for module in tracer._modules()
             for v in vars(module).values() if id(v) in originals]
from vnlab import numkit, vnalg
numkit.norm2(np.ones((3, 4)))
alg = vnalg.tensor_factor_algebra(2, 2)
vnalg.commutant(alg)
vnalg.commutant(alg, use_hint=False)
print(json.dumps({"bindings": bindings, "functions": len(originals),
                  "survivors": survivors, "counts": rec.counts,
                  "basis": alg.size}))
"""


def test_instrument_wraps_every_binding():
    src = os.path.join(os.path.dirname(HERE), "src")
    proc = subprocess.run([sys.executable, "-c", INSTRUMENT_CHECK, HERE, src],
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["survivors"] == []
    assert out["bindings"] > out["functions"] > 0
    counts = out["counts"]
    assert counts["numkit.norm2.elements"] == 12
    assert counts["vnalg.commutant.generic_calls"] == 1
    # tensor_factor_algebra records no generators: the basis is stacked
    assert counts["vnalg.commutant.stacked_rows"] == 2 * out["basis"] * 4 ** 2


def test_report_checks_find_non_finite_values():
    assert workloads._non_finite({"a": [1.0, 2], "b": {"c": True}}) is None
    assert workloads._non_finite({"a": [1.0, float("nan")]}) == "a.1"
    assert workloads._csv_non_finite("r,F\n1,0.5\n2,inf\n") == "line 3"
    assert workloads._csv_non_finite("metric,value\nratio,1/2\n") is None
