"""Command-line entry points: verify, suite, tables, delta-table.

Exit codes: 0 pass, 1 fail (a statement not Proved), 2 user error (bad
arguments or an unreadable or malformed script, reported in one stderr line).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import script as dsl
from .runner import RunConfig, Runner
from .suites import SUITE_NAMES, run_suite
from .tables import emit_tables
from .twisted import delta_coefficients
from .zhu import MAX_WEIGHT_CAP

# Each Hminus/Tminus reading holds rank x rank cells; at rank 8 a whole
# ``suite all`` takes about 0.4 s, and far beyond it memory runs out.
MAX_RANK = 8


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, with exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_config_args(p):
    p.add_argument("--rank", type=int, default=2, help="number of generators")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timing", action="store_true",
                   help="include per-statement timing in text output")


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
    # verify certifies each sector part of a difference at its own weight,
    # else at the window max_weight plus RunConfig's default slack; the
    # resource guard checks that window before any certificate, so it must
    # fit the cap.
    top = MAX_WEIGHT_CAP - RunConfig.slack
    p.add_argument("--max-weight", type=int, default=8,
                   help="cutoff weight above which a claim stays Unknown, "
                        f"0..{top} (default 8)")

    p = sub.add_parser("suite", help="run a built-in suite")
    p.add_argument("name", choices=SUITE_NAMES)
    _add_config_args(p)

    p = sub.add_parser("tables", help="emit the canonical action tables")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("delta-table", help="emit twisted correction coefficients")
    p.add_argument("--degree", type=int, default=8,
                   help=f"total degree, 2..{MAX_WEIGHT_CAP} (default 8)")

    args = parser.parse_args(argv)
    if args.command in ("verify", "suite") and args.rank < 1:
        parser.error(f"--rank must be at least 1, got {args.rank}")
    if args.command != "delta-table" and args.rank > MAX_RANK:
        parser.error(f"--rank must be at most {MAX_RANK}, got {args.rank}")
    if args.command == "verify" and not 0 <= args.max_weight <= top:
        parser.error(f"--max-weight must be between 0 and {top}, "
                     f"got {args.max_weight}")
    if args.command == "delta-table" and not 2 <= args.degree <= MAX_WEIGHT_CAP:
        parser.error(f"--degree must be between 2 and {MAX_WEIGHT_CAP}, "
                     f"got {args.degree}")

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
        report = Runner(RunConfig(args.rank,
                                  max_weight=args.max_weight)).run(stmts)
        return _emit(report, args)

    if args.command == "suite":
        # Each suite block sets its own cutoff and policy.
        report = run_suite(args.name, RunConfig(rank=args.rank))
        return _emit(report, args)

    try:
        if args.command == "tables":
            text = emit_tables(args.rank, args.format)
        else:
            table = delta_coefficients(args.degree)
            text = f"# delta table, degree {args.degree}\n" + "".join(
                f"{m} {n} {table[m, n]}\n" for m, n in sorted(table))
    except ValueError as exc:
        parser.error(str(exc))
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
