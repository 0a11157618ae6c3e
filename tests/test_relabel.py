"""Index relabeling: the ``relabel`` key, the session's memo of Proved
verdicts, and the symmetry of verdicts under permuting the generators that
the memo rests on."""

import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

from orbifock import script
from orbifock.runner import RunConfig, Runner, Session
from orbifock.script import Mono, Named, parse_script, relabel
from orbifock.suites import run_suite

TIMING_RE = re.compile(r"\d+ ms\b")

# Where a generator index stands in statement text: glued to w, J, H, l
# or a raw monomial's h; the two indices of a pair atom; the two of S.
_GLUED = re.compile(r"\b([wJHlh])(\d+)\b")
_PAIR = re.compile(r"\b(Eu|Eubar|Et|Etbar|Lam|E)\((\d+),(\d+)\)")
_S = re.compile(r"\bS\((\d+),(\d+);(\d+),(\d+)\)")


def permute(text, perm):
    """Statement text with every generator index a replaced by perm[a],
    rewritten on the text so that it does not lean on ``relabel``."""
    def p(digits):
        return str(perm[int(digits)])

    text = _GLUED.sub(lambda m: m[1] + p(m[2]), text)
    text = _PAIR.sub(lambda m: f"{m[1]}({p(m[2])},{p(m[3])})", text)
    return _S.sub(lambda m: f"S({p(m[1])},{m[2]};{p(m[3])},{m[4]})", text)


def key(text, rank=4):
    [stmt] = parse_script(text, rank)
    return relabel(stmt)


# ---------------------------------------------------------------------------
# The key

def test_relabel_renames_by_first_appearance():
    assert key("assert_zero_eval w3 * J2 + H3") == ("zero_eval", (
        script.Bin("+", script.Bin("*", Named("w", (1,)), Named("J", (2,))),
                   Named("H", (1,))),))
    # The pair's order is kept: Eu(3,1) * Eu(1,3) is Eu(1,2) * Eu(2,1).
    assert key("assert_zero_eval Eu(3,1) * Eu(1,3)") == key(
        "assert_zero_eval Eu(1,2) * Eu(2,1)")
    assert key("assert_zero_eval Eu(1,2) * Eu(1,2)") != key(
        "assert_zero_eval Eu(1,2) * Eu(2,1)")


def test_relabel_keeps_mode_depths_and_monomial_order():
    _, (s_atom,) = key("assert_zero_eval S(2,1;3,2)")
    assert s_atom == Named("S", (1, 1, 2, 2))
    _, (mono,) = key("assert_zero_eval h3(-2)h2(-1)")
    assert mono == Mono(((1, -2), (2, -1)))
    assert key("assert_zero_eval S(3,2;2,1)") != key("assert_zero_eval S(2,1;3,2)")


def test_relabel_rank_payload():
    assert key("assert_rank [w2, J2, S(2,1;1,3)] = 3") == ("rank", (
        (Named("w", (1,)), Named("J", (1,)), Named("S", (1, 1, 2, 3))), 3))


def test_relabel_shares_one_renaming_with_the_expected_value():
    base = key("assert_eval w1 on Hminus = E(1,1)")
    assert key("assert_eval w2 on Hminus = E(2,2)") == base
    # E(2,2) brings in an index the expression lacks: not a relabeling.
    assert key("assert_eval w1 on Hminus = E(2,2)") != base
    assert key("assert_eval w2 on Hminus = E(1,1)") != base
    assert key("assert_eval Lam(3,1) on Mlambda = l1*l3") == key(
        "assert_eval Lam(1,2) on Mlambda = l2*l1")
    assert key("assert_eval Lam(3,1) on Mlambda = l3*l1") != key(
        "assert_eval Lam(1,2) on Mlambda = l2*l1")


def test_relabel_drops_the_source_position_and_reports_the_renaming():
    first, second = parse_script("assert_equiv w3 ~ J3\n\n  assert_equiv w1 ~ J1", 3)
    assert (first.line, first.col, second.line, second.col) == (1, 1, 3, 3)
    names = {}
    assert relabel(first, names) == relabel(second)
    assert names == {3: 1}


CORPUS = [
    "assert_equiv w1 * Eu(2,3) ~ 0",
    "assert_equiv w2 * Eu(2,3) ~ 0",
    "assert_equiv w3 * Eu(2,3) ~ 0",
    "assert_eval Lam(1,2) on Mlambda = l1*l2",
    "assert_eval Lam(1,2) on Mlambda = l1*l3",
    "assert_rank [S(1,1;2,1), S(1,1;2,2), S(2,1;3,1)] = 3",
    "assert_rank [S(1,1;2,1), S(1,1;2,2), S(1,1;3,1)] = 3",
    "assert_zero_eval circn(w1, J2, 2)",
    "assert_zero_eval circn(w1, J1, 2)",
    "assert_eval S(1,1;2,4) on Tminus = -35/32 E(1,2) - 5/32 E(2,1)",
    "assert_eval S(1,1;2,4) on Tminus = -35/32 E(2,1) - 5/32 E(1,2)",
    "assert_zero_eval h1(-3)h2(-1) - h3(-1)h1(-3)",
    "assert_zero_eval h1(-3)h2(-1) - h2(-1)h1(-3)",
    "assert_eval Etbar(2,1) * H3 on Tminus = E(2,1)",
]


def test_keys_equal_exactly_for_relabelings():
    # The corpus holds no two relabelings of each other, so its keys are
    # distinct; every permutation of 1..3 keeps each one's key.
    keys = [key(text, 3) for text in CORPUS]
    assert len(set(keys)) == len(CORPUS)
    for text, k in zip(CORPUS, keys):
        for image in permutations((1, 2, 3)):
            assert key(permute(text, dict(zip((1, 2, 3), image))), 3) == k


# ---------------------------------------------------------------------------
# The memo

@pytest.fixture
def calls(monkeypatch):
    """The statements each Runner.run_statement call decided, in order."""
    seen = []
    original = Runner.run_statement

    def spy(self, stmt):
        seen.append(script.format_statement(stmt))
        return original(self, stmt)

    monkeypatch.setattr(Runner, "run_statement", spy)
    return seen


def run(text, rank=2, runner=None):
    runner = runner or Runner(RunConfig(rank=rank))
    return [(r.status, r.detail)
            for r in runner.run(parse_script(text, rank)).results]


def test_relabeled_proved_statement_is_a_hit(calls):
    assert run("assert_eval w1 on Hminus = E(1,1)\n"
               "assert_eval w2 on Hminus = E(2,2)") == [("Proved", "")] * 2
    assert calls == ["assert_eval w1 on Hminus = E(1,1)"]


def test_hit_carries_the_certificate_detail(calls):
    config = RunConfig(rank=2, max_weight=10, slack=0)
    report = Runner(config).run(parse_script(
        "assert_equiv w1 * Eu(1,2) ~ Eu(1,2)\n"
        "assert_equiv w2 * Eu(2,1) ~ Eu(2,1)", 2))
    assert [r.line() for r in report.results] == [
        "[PROVED   ] assert_equiv w1 * Eu(1,2) ~ Eu(1,2)  "
        "(circle-span certificate at cutoff 10)",
        "[PROVED   ] assert_equiv w2 * Eu(2,1) ~ Eu(2,1)  "
        "(circle-span certificate at cutoff 10)"]
    assert len(calls) == 1


def test_expected_value_outside_the_relabeling_stays_disproved(calls):
    assert run("assert_eval w1 on Hminus = E(1,1)\n"
               "assert_eval w2 on Hminus = E(1,1)") == [
        ("Proved", ""),
        ("Disproved", "Hminus: got [0,0;0,1], expected [1,0;0,0]")]
    assert len(calls) == 2


def test_disproofs_are_recomputed_with_their_own_witness(calls):
    assert run("assert_equiv w1 ~ J1\nassert_equiv w2 ~ J2") == [
        ("Disproved", "Hminus at (1, 1): 1 vs -6"),
        ("Disproved", "Hminus at (2, 2): 1 vs -6")]
    assert len(calls) == 2


def test_unknown_verdicts_are_recomputed(calls):
    detail = "weight 9 exceeds cutoff 8; no disproof found"
    assert run("assert_equiv w1 + circ(J1, J1) ~ w1\n"
               "assert_equiv w2 + circ(J2, J2) ~ w2") == [("Unknown", detail)] * 2
    assert len(calls) == 2


def test_memo_lives_on_one_runner(calls):
    run("assert_eval J1 on Tplus = 3/128")
    run("assert_eval J2 on Tplus = 3/128")
    runner = Runner(RunConfig(rank=2))
    run("assert_eval J1 on Tplus = 3/128", runner=runner)
    run("assert_eval J2 on Tplus = 3/128", runner=runner)
    assert len(calls) == 3
    assert runner.session.proved == {
        (2, ("eval", (Named("J", (1,)), "Tplus",
                      script.Num(Fraction(3, 128))))): ""}


def test_index_beyond_the_rank_is_never_a_hit(calls):
    # Parsed at rank 3 and run at rank 2, w3 ~ w3 keys like w1 ~ w1 but
    # names a generator rank 2 lacks, so it is run and is an Error.
    runner = Runner(RunConfig(rank=2))
    report = runner.run(parse_script("assert_equiv w1 ~ w1\n"
                                     "assert_equiv w3 ~ w3", 3))
    assert [(r.status, r.detail) for r in report.results] == [
        ("Proved", "exact equality"),
        ("Error", "generator index 3 out of range 1..2")]
    assert len(calls) == 2


# Across ranks, in one session: evaluation-only statements carry over, an
# expected value does not, and a certificate belongs to its span and cutoff.

def session_runner(session, rank, **settings):
    return Runner(RunConfig(rank=rank, **settings), session)


def test_zero_eval_proved_at_rank_2_is_a_hit_at_rank_3(calls):
    session = Session()
    text = "assert_zero_eval (70 H1 + 1188 w1^2 - 585 w1 + 27) * H1"
    for rank in (2, 3):
        runner = session_runner(session, rank)
        assert run(text, rank, runner) == [("Proved", "")]
    assert calls == [text]


def test_eval_proved_at_rank_1_is_rerun_at_rank_2(calls):
    session = Session()
    text = "assert_eval one on Hminus = E(1,1)"
    assert run(text, 1, session_runner(session, 1)) == [("Proved", "")]
    assert run(text, 2, session_runner(session, 2)) == [
        ("Disproved", "Hminus: got [1,0;0,1], expected [1,0;0,0]")]
    assert len(calls) == 2


def test_equiv_is_reused_only_under_its_own_span_and_cutoff(calls):
    session = Session()
    text = "assert_equiv w1 * Eu(1,2) ~ Eu(1,2)"
    at = "circle-span certificate at cutoff {}"
    for rank, cutoff, slack in ((2, 10, 0), (2, 10, 0), (2, 8, 2), (3, 10, 0)):
        runner = session_runner(session, rank, max_weight=cutoff, slack=slack)
        assert run(text, rank, runner) == [("Proved", at.format(cutoff))]
    # The repeat at rank 2 and cutoff 10 is the one hit.
    assert len(calls) == 3


def _bypass(monkeypatch):
    """Make every statement's key fresh, so the memo never hits."""
    monkeypatch.setattr(script, "relabel", lambda stmt, names=None: object())


@pytest.mark.parametrize("rank, lines, decided, script_lines",
                         [(2, 179, 93, 155), (3, 179, 93, 155),
                          (4, 257, 94, 215)], ids=["2", "3", "4"])
def test_suite_all_lines_match_a_run_without_the_memo(
        rank, lines, decided, script_lines, calls, file_reads, tmp_path,
        monkeypatch):
    config = RunConfig(rank=rank, cache_dir=str(tmp_path))
    run_suite("all", config)                    # warms the cache
    calls.clear()
    file_reads.clear()
    memo = run_suite("all", config)
    memo_calls = len(calls)
    memo_reads = len(file_reads)
    with monkeypatch.context() as patch:
        _bypass(patch)
        plain = run_suite("all", config)
    # A native check's detail gives its time in ms.
    assert TIMING_RE.sub("", memo.to_text()) == TIMING_RE.sub("", plain.to_text())
    # Each run reads the 12 echelon files of the four suites' spans once:
    # the memo skips statements, never a span.
    assert (memo_reads, len(file_reads) - memo_reads) == (12, 12)
    # At ranks 2 and 3, 62 of the 155 script lines are relabelings of a
    # line Proved before them in the run, six of them rank-3 closing
    # relations Proved at rank 2; the other 24 of the 179 lines are native
    # checks.
    assert len(memo.results) == lines
    assert (memo_calls, len(calls) - memo_calls) == (decided, script_lines)


# ---------------------------------------------------------------------------
# The symmetry

def _eval_r2_style(workloads, seed):
    rng = random.Random(seed)
    return [text for text, _ in workloads.table_statements()
            + workloads.final_relation_statements()
            + workloads.circle_statements(rng)
            + workloads.false_claim_pool()
            + [(workloads.OVER_CUTOFF, "Unknown")]]


def _verdict(text, rank):
    [result] = Runner(RunConfig(rank=rank)).run(
        parse_script(text, rank)).results
    if result.status == "Disproved":
        # The witness's family; its entry depends on the index order.
        return result.status, re.match(r"\w+", result.detail)[0]
    return result.status, result.detail


def test_verdicts_are_invariant_under_permuting_the_generators(workloads):
    # Each statement and its image under a seeded permutation of 1..4 run
    # in fresh Runners, so no memo is in the way.
    rng = random.Random(4)
    statuses = set()
    for text in _eval_r2_style(workloads, seed=1):
        perm = dict(zip((1, 2, 3, 4), rng.sample((1, 2, 3, 4), 4)))
        image = permute(text, perm)
        want = _verdict(text, 4)
        assert _verdict(image, 4) == want, (text, image)
        statuses.add(want[0])
    assert statuses == {"Proved", "Disproved", "Unknown"}
