"""Report lines pinned byte for byte: disproof witnesses and the recorded
benchmark lines.

The benchmark under ``perfbench/`` records the report line of every
statement its workloads can draw (``perfbench/expected_lines.json``).  The
replays here run the eval-r2 statements and ``suite all`` at rank 2 and
compare their lines with the recording, so a drifted line fails in the
test suite.  The recording is only read.  ``suite all`` at rank 4, which
the benchmark does not run, is pinned by a digest of its lines.
"""

import hashlib
import json
import os
import re

import pytest

from orbifock.runner import RunConfig, Runner
from orbifock.script import parse_script
from orbifock.suites import SUITE_NAMES, run_suite

EXPECTED_LINES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "expected_lines.json")
TIMING_RE = re.compile(r"\d+ ms\b")

WITNESS_LINES = {
    "assert_zero_eval one":
        "[DISPROVED] assert_zero_eval one  (Hplus: 1 vs 0)",
    "assert_zero_eval Lam(1,2)":
        "[DISPROVED] assert_zero_eval Lam(1,2)  (Mlambda at (1, 1): 1 vs 0)",
    "assert_zero_eval Et(1,2)":
        "[DISPROVED] assert_zero_eval Et(1,2)  (Tminus at (1, 2): 1 vs 0)",
    "assert_eval w1 on Tminus = I":
        "[DISPROVED] assert_eval w1 on Tminus = I  "
        "(Tminus: got [9/16,0;0,1/16], expected [1,0;0,1])",
    "assert_eval J1 on Mlambda = l1^4":
        "[DISPROVED] assert_eval J1 on Mlambda = l1^4  "
        "(Mlambda: got -1/2*l1^2 + l1^4, expected l1^4)",
    "assert_rank [w1, w2, J1] = 2":
        "[DISPROVED] assert_rank [w1, w2, J1] = 2  (rank 3 != 2)",
    "assert_equiv J1 ~ 3/128 one":
        "[DISPROVED] assert_equiv J1 ~ 3/128 one  "
        "(Hminus at (1, 1): -6 vs 3/128)",
}

# Realized states are checked before their difference is evaluated, so an
# odd side stays an error even when the two sides cancel.
ERROR_LINES = {
    "assert_equiv h1(-1) ~ h1(-1)":
        "[ERROR    ] assert_equiv h1(-1) ~ h1(-1)  "
        "(evaluate expects even-parity states)",
    "assert_equiv h1(-1)h1(-1) + h1(-1) ~ h1(-1)":
        "[ERROR    ] assert_equiv h1(-1)h1(-1) + h1(-1) ~ h1(-1)  "
        "(evaluate expects even-parity states)",
    "assert_zero_eval h1(-1)":
        "[ERROR    ] assert_zero_eval h1(-1)  "
        "(evaluate expects even-parity states)",
}


def _line(result):
    return TIMING_RE.sub("<t> ms", result.line())


@pytest.fixture(scope="module")
def expected_lines():
    with open(EXPECTED_LINES, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("text, line", list(WITNESS_LINES.items())
                         + list(ERROR_LINES.items()))
def test_disproof_and_error_lines(text, line):
    config = RunConfig(rank=2)
    report = Runner(config).run(parse_script(text, config.rank))
    assert [r.line() for r in report.results] == [line]


def test_eval_r2_lines_replay(expected_lines):
    config = RunConfig(rank=2)
    drifted = []
    for text, want in expected_lines["eval-r2"].items():
        report = Runner(config).run(parse_script(text, config.rank))
        got = [_line(r) for r in report.results]
        if got != [want]:
            drifted.append((text, got, want))
    assert len(expected_lines["eval-r2"]) == 627
    assert not drifted, drifted[:3]


def test_suite_all_lines_replay(expected_lines, ospan_cache):
    report = run_suite("all", RunConfig(rank=2, cache_dir=ospan_cache))
    assert [_line(r) for r in report.results] == expected_lines["suite-warm"]


# SHA-256 of the 257 timing-stripped lines of ``suite all --rank 4``, each
# ended by a newline.
SUITE_ALL_RANK_4 = "49f16cbc71f2a7f362461f779c0f5fe1b9c2e1c51f3e0571946b01b5e06082da"


def test_suite_all_rank_4_lines_pinned(ospan_cache):
    report = run_suite("all", RunConfig(rank=4, cache_dir=ospan_cache))
    lines = [_line(r) for r in report.results]
    assert report.counts()["Proved"] == len(lines) == 257
    digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode())
    assert digest.hexdigest() == SUITE_ALL_RANK_4


def test_suite_all_is_one_report_of_the_four_suites(tmp_path, file_reads):
    # 'all' runs the four suites in order into one report: the same lines
    # and the one rank header.  Its blocks share their spans, so the
    # matrix-unit block does not read again the window-10 echelon that the
    # S(1,1;2,6) ladder read: one echelon file fewer than the parts read.
    config = RunConfig(rank=2, cache_dir=str(tmp_path))
    run_suite("all", config)
    file_reads.clear()
    whole = run_suite("all", config)
    whole_reads = list(file_reads)
    file_reads.clear()
    parts = [run_suite(name, config) for name in SUITE_NAMES if name != "all"]
    assert [_line(r) for r in whole.results] == [
        _line(r) for part in parts for r in part.results]
    assert len(whole_reads) == 12
    assert len(file_reads) == 13
    assert sorted(file_reads) == sorted(whole_reads + [(2, 10, 0b11)])
    assert [report.header for report in [whole, *parts]] == ["rank=2"] * 5
