"""Command-line experiment driver: `vnlab --help` prints USAGE and the table
of experiments, with each parameter's default and bounds.

A flag is a schema name with dashes for underscores, written in full, and
takes the next token as its value, so a negative value may follow it after
a space.  The values reach `experiments.validate_params` as strings: it
alone converts and checks them.  Exit status is 0 iff every assertion of the
run passed, 1 if one failed and 2, after one `error:` line, on any invalid
invocation, an unwritable `--out` included, which `run` refuses before
the experiment starts.  A numerical breakdown
(`LinAlgError`, a `ValueError` subclass) is not an invalid invocation: it
propagates, and Python exits 1.  Reports echo the full parameter set so any
table or figure can be regenerated from the JSON alone.
"""

from __future__ import annotations

import sys

import numpy as np

from .experiments import list_experiments, run, validate_params

USAGE = """usage: vnlab list
       vnlab <experiment> [--<param> <value> | --<param>=<value> ...]
                          [--seed S] [--out PATH] [--format {json,csv}]"""
# each ends the reading where an experiment or a flag is expected
HELP = ("list", "-h", "--help")


def _read_flags(tokens: list[str]) -> dict[str, str] | None:
    """{schema name: value} from `--flag value` and `--flag=value`; None
    at a help token."""
    flags = {}
    tokens = iter(tokens)
    for token in tokens:
        if token in HELP:
            return None
        flag, eq, value = token.partition("=")
        if not flag.startswith("--") or flag == "--" or "_" in flag:
            raise ValueError(f"expected a --flag in dashes, got {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"flag {flag} needs a value")
        flags[flag[2:].replace("-", "_")] = value
    return flags


def main(argv=None) -> int:
    name, *tokens = (sys.argv[1:] if argv is None else argv) or ["list"]
    try:
        flags = None
        if name not in HELP:
            # the name first, so a flag typed in its place is named as such
            validate_params(name, None)
            flags = _read_flags(tokens)
        if flags is None:
            print(USAGE)
            experiments = list_experiments()
            width = max(map(len, experiments))
            for exp in experiments.values():
                schema = ", ".join(
                    f"{k}={p.default}"
                    + ("" if p.minimum is None else f" (min {p.minimum})")
                    + ("" if p.maximum is None else f" (max {p.maximum})")
                    for k, p in exp.schema.items())
                print(f"{exp.name:<{width}}  {exp.description}  [{schema}]")
            return 0
        out, fmt = flags.pop("out", None), flags.pop("format", "json")
        if fmt not in ("json", "csv"):
            raise ValueError(f"--format must be json or csv, not {fmt!r}")
        try:
            seed = int(flags.pop("seed", "0"))
            if seed < 0:
                # numpy's seeding refuses it in its own words, or not at all
                raise ValueError
        except ValueError:
            raise ValueError("--seed must be a non-negative int") from None
        report = run(name, flags, seed=seed, out=out, fmt=fmt)
    except np.linalg.LinAlgError:
        raise
    except (KeyError, ValueError, OSError) as err:
        # str() of a KeyError quotes its message; OSError: an unwritable --out
        print(f"error: {err.args[0] if isinstance(err, KeyError) else err}",
              file=sys.stderr)
        return 2
    print(report.to_json() if fmt == "json" else report.to_csv())
    for a in report.assertions:
        status = "pass" if a.passed else "FAIL"
        print(f"  [{status}] {a.name}: value={a.value!r} "
              f"{'<=' if a.cmp == 'le' else '>='} {a.tolerance!r}",
              file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
