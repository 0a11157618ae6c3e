"""Runner semantics, report determinism, and the command-line interface."""

import json
import os

import pytest

from orbifock.cli import main
from orbifock.runner import MAX_WEIGHT_CAP, Report, RunConfig, Runner, run_text
from orbifock.script import parse_script


def cfg(rank=2, max_weight=6, slack=2):
    return RunConfig(rank=rank, max_weight=max_weight, slack=slack,
                     cache_dir=os.environ.get("ORBIFOCK_CACHE_DIR"))


def test_equiv_statuses():
    report = run_text(
        # the shift identity star(S, w1) ~ (L1(-2) + L1(-1)) S, certifiable
        "assert_equiv S(1,1;2,1) * w1 ~ h1(-2)h2(-1) + h1(-3)h2(-1) + "
        "1/2 h1(-1)h1(-1)h1(-1)h2(-1)\n"
        "assert_equiv w1 ~ 0\n"        # disprovable on the odd module
        "assert_equiv w1 ~ w1 + circ(w1, J1)\n",  # needs weight 9 > cutoff
        cfg())
    statuses = [r.status for r in report.results]
    assert statuses == ["Proved", "Disproved", "Unknown"]
    assert "Hminus" in report.results[1].detail
    assert not report.passed()


def test_exact_equality_shortcut():
    report = run_text("assert_equiv h1(-1)h1(-3) ~ h1(-3)h1(-1)", cfg())
    assert report.results[0].status == "Proved"
    assert report.results[0].detail == "exact equality"


def test_eval_and_rank_and_zero_eval():
    report = run_text(
        "assert_eval S(1,1;2,4) on Tminus = -35/32 E(1,2) - 5/32 E(2,1)\n"
        "assert_eval w1 on Tplus = 1/16\n"
        "assert_eval w1 on Tplus = 1/8\n"
        "assert_rank [S(1,1;2,1), S(1,1;2,2), S(1,1;2,3), S(1,1;2,4), "
        "S(1,1;2,5), S(1,1;2,6)] = 5\n"
        "assert_zero_eval circn(w1, S(1,1;2,1), 1)\n",
        cfg())
    statuses = [r.status for r in report.results]
    assert statuses == ["Proved", "Proved", "Disproved", "Proved", "Proved"]


def test_error_status_for_bad_realization():
    # Twisted monomials cannot live in the even untwisted algebra.
    report = run_text("assert_zero_eval h1(-1/2)h1(-1/2)", cfg())
    assert report.results[0].status == "Error"
    assert report.passed() is False


def test_runner_never_both_proved_and_disproved():
    text = ("assert_equiv w1 ~ 0\n"
            "assert_equiv w1 ~ w1\n"
            "assert_equiv Lam(1,2) ~ Lam(2,1)\n")
    report = run_text(text, cfg(max_weight=8))
    for r in report.results:
        assert r.status in ("Proved", "Disproved", "Unknown")


def test_resource_guard_reports_unknown():
    report = run_text("assert_equiv circn(w1, J1, 9) ~ 0",
                      cfg(max_weight=MAX_WEIGHT_CAP + 2, slack=0))
    assert report.results[0].status == "Unknown"
    assert "resource guard" in report.results[0].detail


def test_report_determinism_modulo_timing():
    text = ("assert_eval w1 on Hminus = E(1,1)\n"
            "assert_equiv w1 ~ 0\n")
    a = run_text(text, cfg())
    b = run_text(text, cfg())
    assert a.to_text() == b.to_text()
    ja, jb = json.loads(a.to_json()), json.loads(b.to_json())
    for row in ja["results"] + jb["results"]:
        row.pop("ms")
    assert ja == jb


def test_report_unknown_blocks_pass_only_when_expected():
    report = run_text("assert_equiv w1 ~ w1 + circ(w1, J1)", cfg())
    assert report.results[0].status == "Unknown"
    assert not report.passed()


def test_negative_slack_is_an_error():
    config = RunConfig(rank=1, max_weight=4, slack=-1, cache_dir=None)
    report = Runner(config).run(parse_script("assert_equiv circ(w1, one) ~ 0", 1))
    assert report.results[0].status == "Error"
    assert "nonnegative" in report.results[0].detail


def test_cache_hits_counted(tmp_path):
    config = RunConfig(rank=1, max_weight=4, slack=2, cache_dir=str(tmp_path))
    stmts = parse_script("assert_equiv circ(w1, one) ~ 0", 1)
    first = Runner(config).run(stmts)
    second = Runner(config).run(stmts)
    assert first.cache_hits == 0
    assert second.cache_hits == 1


def test_cli_verify_and_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("assert_eval J1 on Tplus = 3/128\n")
    assert main(["verify", str(good), "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "[PROVED" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("assert_equiv w1 ~ 0\n")
    assert main(["verify", str(bad), "--rank", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out

    ugly = tmp_path / "ugly.txt"
    ugly.write_text("assert_equiv w1 ~ (\n")
    assert main(["verify", str(ugly), "--rank", "2"]) == 2
    assert "syntax error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "{missing}"],
    ["delta-table", "--degree", "1"],
    ["tables", "--rank", "1"],
    ["verify", "{script}", "--rank", "0"],
    ["verify", "{script}", "--slack", "-3"],
    ["verify", "{script}", "--max-weight", "-1"],
], ids=["missing-script", "degree-1", "tables-rank-1", "rank-0",
        "negative-slack", "negative-max-weight"])
def test_cli_user_errors_exit_2(argv, tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("assert_eval w1 on Tplus = 1/16\n")
    argv = [a.format(script=script, missing=tmp_path / "missing.txt")
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_cli_json_format(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("assert_eval w1 on Tplus = 1/16\n")
    assert main(["verify", str(script), "--rank", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["results"][0]["status"] == "Proved"


def test_cli_tables_and_delta(capsys):
    assert main(["tables", "--rank", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "-35/32" in out and "-5/32" in out
    assert main(["delta-table", "--degree", "6"]) == 0
    out = capsys.readouterr().out
    assert "1 1 1/16" in out


def test_cli_suite_smoke(capsys):
    assert main(["suite", "tables", "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")
