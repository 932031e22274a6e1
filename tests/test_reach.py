"""Every definition in src/vnlab is entered by an entry point.

An entry point is the `vnlab` CLI (its `list` command and every registered
experiment), a `demos/*.py` script, or a call the benchmark in `perfbench/`
makes.  The probe runs in a fresh interpreter with a profile hook set before
vnlab is imported, so calls made at import time count.  Each experiment runs
once through the CLI at its defaults.  Code that only tests use belongs in
`tests/` (shared reference forms in `tests/reference.py`).  A call is
matched to its definition by file and first line, the line of the first
decorator if there is one, which is what a code object reports on every
Python the package supports (`co_qualname` is new in 3.11).

Run as a script, this module is the probe: it prints the entered
(file, first line) pairs as JSON on its last line.
"""

import ast
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vnlab"

# Definitions that only the benchmark reaches.  perfbench's bicommutant op
# closes vN({x (x) 1, y (x) 1}), solves A' and A'' by the generic commutant
# and takes the centre of A''.  No experiment or demo builds an algebra
# without a structured commutant hint.  perfbench/test_tracer.py builds its
# M_2 (x) 1 through the alias tensor_factor_algebra.
PERFBENCH_ONLY = {
    ("vnalg", "tensor_factor_algebra"),
    ("vnalg", "vn_closure"),
    ("vnalg", "orthonormalize_span"),
    ("vnalg", "_commutant_of_element"),
    ("vnalg", "_commutator_residual"),
    ("vnalg", "center_and_factor"),
}


def definitions():
    """(module path, qualified name) of every function, method and property
    in the package, nested functions included; dunder methods are left out."""
    return set(first_lines().values())


def first_lines():
    """The definitions of `definitions`, keyed by (module path, first line)."""
    found = {}

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(path, child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    line = min([d.lineno for d in child.decorator_list]
                               + [child.lineno])
                    found[str(path), line] = (str(path), name)
                walk(path, child, f"{name}.<locals>.")
            else:
                walk(path, child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(path.resolve(), ast.parse(path.read_text()), "")
    return found


def probe():
    """Run every entry point under a profile hook; return what it entered."""
    import contextlib
    import io
    import runpy

    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(record)
    try:
        from vnlab import cli, experiments

        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(["list"])
            for i, name in enumerate(experiments.REGISTRY):
                cli.main([name, "--format", ("json", "csv")[i % 2]])
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    return {(str(pathlib.Path(f).resolve()), line) for f, line in entered
            if f.endswith(".py")}


def test_every_definition_is_reached():
    # imported here: the probe, this file run as a script, must import no
    # vnlab before its profile hook is set
    from reference import run_python
    proc = run_python([__file__], cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = first_lines()
    entered = {lines[tuple(pair)]
               for pair in json.loads(proc.stdout.splitlines()[-1])
               if tuple(pair) in lines}
    unreached = {(pathlib.Path(path).stem, name)
                 for path, name in definitions() - entered}
    assert unreached == PERFBENCH_ONLY


def test_definitions_cover_methods_properties_and_nested_functions():
    names = {name for path, name in definitions()
             if pathlib.Path(path).stem in ("locwedge", "lattice")}
    assert {"WedgeModel.j_compressed", "WedgeModel.retained_dim",
            "RegionFockRep.vacuum.<locals>.pair"} <= names
    assert not any(name.split(".")[-1].startswith("__") for name in names)


if __name__ == "__main__":
    print(json.dumps(sorted(probe())))
