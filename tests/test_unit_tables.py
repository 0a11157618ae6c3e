"""The matrix-unit product tables of the ``matrix_units`` suite.

``suites._multiplication_tables`` forms every product of two unit actions
from their nonzero cells, in one walk that also yields the detour-index
line.  Its three report lines are compared here with a dense reference,
whole-action products plus a second pass over the detour index, on the
true units and on four mutated ones.
"""

import pytest

from orbifock import suites, toplevel, zhu
from orbifock.runner import Report, RunConfig
from orbifock.toplevel import FAMILIES, evaluate_word

E_U, E_T, LAM = zhu.e_u, zhu.e_t, zhu.lam

# Each mutation replaces one unit generator E*(a,b) by another state.
MUTATIONS = {
    "Eu(1,2)-scaled-by-2": ("e_u", (1, 2), lambda r: 2 * E_U(r, 1, 2)),
    "Et(2,3)-as-Et(3,2)": ("e_t", (2, 3), lambda r: E_T(r, 3, 2)),
    "Eu(3,1)-plus-Et(3,1)": ("e_u", (3, 1),
                             lambda r: E_U(r, 3, 1) + E_T(r, 3, 1)),
    "Et(1,3)-plus-Lam(1,3)": ("e_t", (1, 3),
                              lambda r: E_T(r, 1, 3) + LAM(r, 1, 3)),
}


def dense_tables(rank):
    """(status, detail) of the three table lines, from dense products of
    whole actions and a second pass over the detour index."""
    units = suites._unit_words(rank)
    acts = {(key, fam): evaluate_word(word, fam)
            for key, word in units.items() for fam in FAMILIES}
    products, annihilation = [], []
    for x in units:
        for y in units:
            same = x[0] == y[0]
            for fam in FAMILIES:
                got = acts[x, fam] * acts[y, fam]
                if same and x[2] == y[1]:
                    ok = got == acts[(x[0], x[1], y[2]), fam]
                else:
                    ok = not got
                if not ok:
                    (products if same else annihilation).append((x, y, fam))
    bad = []
    for kind in ("u", "t"):
        for a in range(1, rank + 1):
            diag = {b: [acts[(kind, a, b), fam] * acts[(kind, b, a), fam]
                        for fam in FAMILIES]
                    for b in range(1, rank + 1) if b != a}
            base = next(iter(diag.values()))
            bad += [(kind, a, b) for b, cur in diag.items() if cur != base]
    return [("Disproved", f"failures: {shown}") if fails else ("Proved", "")
            for fails, shown in ((products, products[:3]),
                                 (annihilation, annihilation[:3]), (bad, bad))]


def _table_lines(rank):
    report = Report(RunConfig(rank=rank))
    suites._multiplication_tables(report, rank)
    return [(r.status, r.detail) for r in report.results]


@pytest.mark.parametrize("rank", [3, 4])
@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_tables_match_the_dense_reference(monkeypatch, rank, mutation):
    if mutation is not None:
        name, pair, state = MUTATIONS[mutation]
        original = getattr(zhu, name)
        monkeypatch.setattr(zhu, name, lambda r, a, b: (
            state(r) if (a, b) == pair else original(r, a, b)))
    lines = _table_lines(rank)
    assert lines == dense_tables(rank)
    disproved = [status for status, _ in lines if status == "Disproved"]
    if mutation is None:
        assert not disproved
    else:
        assert disproved


def test_rank_8_tables_multiply_only_the_diagonal_words(monkeypatch):
    # Every product of the tables is formed from cells; only the words of
    # the 8 + 8 diagonal units multiply matrices, on Hminus and Tminus.
    calls = []
    mul = toplevel.Matrix.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(toplevel.Matrix, "__mul__", counting)
    assert _table_lines(8) == [("Proved", "")] * 3
    assert len(calls) == 32
