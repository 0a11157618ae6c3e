"""Command-line entry points: verify, suite, tables, delta-table.

Exit codes: 0 pass, 1 fail (a statement not Proved), 2 user error (bad
arguments or an unreadable or malformed script, reported in one stderr line).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import script as dsl
from .runner import CACHE_ENV, RunConfig, Runner, default_cache_dir
from .suites import SUITE_NAMES, run_suite
from .tables import emit_tables
from .twisted import delta_coefficients
from .zhu import GeneratorPolicy


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, with exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_config_args(p):
    p.add_argument("--rank", type=int, default=2, help="number of generators")
    p.add_argument("--max-weight", type=int, default=8,
                   help="reduction cutoff weight (default 8)")
    p.add_argument("--slack", type=int, default=2,
                   help="extra weight allowed for circle tails (default 2)")
    p.add_argument("--pairs", choices=("all", "omega", "quadratic"),
                   default="all", help="circle generator policy")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timing", action="store_true",
                   help="include per-statement timing in text output")
    p.add_argument("--cache-dir", default=None,
                   help=f"echelon cache directory (default ${CACHE_ENV})")


def _config(args):
    return RunConfig(rank=args.rank, max_weight=args.max_weight,
                     slack=args.slack,
                     policy=GeneratorPolicy(pairs=args.pairs),
                     cache_dir=args.cache_dir or default_cache_dir())


def _emit(report, args):
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text(with_timing=args.timing))
    return 0 if report.passed() else 1


def main(argv=None):
    parser = _Parser(
        prog="orbifock",
        description="Exact verification of quotient-algebra relations for "
                    "the free-boson orbifold")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a relation script")
    p.add_argument("script", help="path to the script file, or - for stdin")
    _add_config_args(p)

    p = sub.add_parser("suite", help="run a built-in suite")
    p.add_argument("name", choices=SUITE_NAMES)
    _add_config_args(p)

    p = sub.add_parser("tables", help="emit the canonical action tables")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("delta-table", help="emit twisted correction coefficients")
    p.add_argument("--degree", type=int, default=8)

    args = parser.parse_args(argv)
    if args.command in ("verify", "suite"):
        for option, value, low in (("--rank", args.rank, 1),
                                   ("--max-weight", args.max_weight, 0),
                                   ("--slack", args.slack, 0)):
            if value < low:
                parser.error(f"{option} must be at least {low}, got {value}")

    if args.command == "verify":
        try:
            text = (sys.stdin.read() if args.script == "-"
                    else Path(args.script).read_text())
        except (OSError, UnicodeError) as exc:
            parser.error(f"cannot read script: {exc}")
        try:
            stmts = dsl.parse_script(text, args.rank)
        except dsl.ScriptError as exc:
            print(f"syntax error: {exc}", file=sys.stderr)
            return 2
        report = Runner(_config(args)).run(stmts)
        return _emit(report, args)

    if args.command == "suite":
        report = run_suite(args.name, _config(args))
        return _emit(report, args)

    try:
        if args.command == "tables":
            text = emit_tables(args.rank, args.format)
        else:
            text = delta_coefficients(args.degree).to_text()
    except ValueError as exc:
        parser.error(str(exc))
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
