"""Command-line experiment driver.

    vnlab list
    vnlab <experiment> [--<param> <value> ...] [--seed S] [--out PATH]
                       [--format {json,csv}]

Exit status is 0 iff every assertion of the run passed, 1 if one failed and
2 on invalid parameters.  Reports echo the full parameter set so any table
or figure can be regenerated from the JSON alone.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import list_experiments, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnlab",
        description="numerical laboratory for modular theory, localization "
                    "and local channels")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="show registered experiments")
    for name, exp in list_experiments().items():
        p = sub.add_parser(name, help=exp.description)
        for key, param in exp.schema.items():
            bound = "" if param.minimum is None else f", at least {param.minimum}"
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           type=param.type, default=None,
                           metavar=param.type.__name__.upper(),
                           help=f"default {param.default}{bound}")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write "--key -1e-3" as "--key=-1e-3": each option takes one value, but
    argparse reads "-..." as an option unless it looks like -1 or -0.5."""
    joined = []
    for token in argv:
        prev = joined[-1] if joined else ""
        if (prev.startswith("--") and "=" not in prev
                and token.startswith("-") and not token.startswith("--")):
            joined[-1] = f"{prev}={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_join_negative_values(argv))
    if args.command is None or args.command == "list":
        width = max(len(n) for n in list_experiments())
        for name, exp in list_experiments().items():
            schema = ", ".join(f"{k}={p.default}" for k, p in exp.schema.items())
            print(f"{name:<{width}}  {exp.description}  [{schema}]")
        return 0

    schema = list_experiments()[args.command].schema
    overrides = {k: getattr(args, k) for k in schema
                 if getattr(args, k) is not None}
    try:
        report = run(args.command, overrides, seed=args.seed, out=args.out,
                     fmt=args.format)
    except (KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(report.to_json() if args.format == "json" else report.to_csv())
    for a in report.assertions:
        status = "pass" if a.passed else "FAIL"
        print(f"  [{status}] {a.name}: value={a.value!r} "
              f"{'<=' if a.cmp == 'le' else '>='} {a.tolerance!r}",
              file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
