"""Command-line front end: run scenarios, compare allocators, run checks."""

from __future__ import annotations

import argparse
import sys

from .errors import RUN_ERRORS, ConfigError
from .models import MODEL_CATALOG


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projctl",
        description="Projection-based constrained robot control with power-optimal torque allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one scenario config, write trace + report")
    run_p.add_argument("config", help="path to a scenario JSON document")

    cmp_p = sub.add_parser("compare", help="run a scenario under each optimizer in optimizer.types")
    cmp_p.add_argument("config", help="path to a scenario JSON document")

    chk_p = sub.add_parser("check", help="run the fast property suites")

    sub.add_parser("list-models", help="list the bundled robot models")

    for p in (run_p, cmp_p):
        p.add_argument("--out", default=None, help="output directory override")
    chk_p.add_argument("--seed", type=_seed, default=0, help="seed for the randomized property suites")
    for p in (run_p, cmp_p, chk_p):
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            from .runner import run_scenario

            run_scenario(args.config, out_dir=args.out, quiet=args.quiet)
            return 0
        if args.command == "compare":
            from .runner import compare_controllers

            compare_controllers(args.config, out_dir=args.out, quiet=args.quiet)
            return 0
        if args.command == "check":
            from .checks import run_all

            results = run_all(seed=args.seed, quiet=args.quiet)
            failed = [r for r in results if not r.passed]
            if failed:
                print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
                return 3
            if not args.quiet:
                print(f"all {len(results)} checks passed")
            return 0
        if args.command == "list-models":
            for name, (_, _, blurb) in sorted(MODEL_CATALOG.items()):
                print(f"{name}: {blurb}")
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RUN_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
