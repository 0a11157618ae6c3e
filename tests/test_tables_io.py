"""Table emission: golden fragments, determinism, and read-back round trips."""

import csv
import io
import json

import pytest

from orbifock.script import parse_script, realize_expected
from orbifock.tables import GOLDEN, emit_tables, table_actions


def test_row_counts():
    rows = table_actions(2)
    assert len(rows) == 15 + 15 + 10
    by_table = {}
    for tnum, *_ in rows:
        by_table[tnum] = by_table.get(tnum, 0) + 1
    assert by_table == {1: 15, 2: 15, 3: 10}


def test_csv_fragments_and_determinism():
    text = emit_tables(2, "csv")
    assert emit_tables(2, "csv") == text
    line = next(l for l in text.splitlines() if l.startswith('1,"S(1,1;2,4)",Tminus')
                or ("S(1,1;2,4)" in l and "Tminus" in l))
    assert "-35/32" in line and "-5/32" in line
    assert "315/256" in text and "35/256" in text
    assert "1/16" in text and "3/128" in text


def test_rank_one_matrices_error():
    with pytest.raises(ValueError):
        emit_tables(1, "csv")


def _golden_cells(rank):
    # The golden expected value of every row, realized in the script language
    # and rendered as the emitted action cell.
    cells = []
    for tnum, elements in GOLDEN.items():
        for label, row in elements.items():
            for fam, expected in row.items():
                stmt, = parse_script(f"assert_eval {label} on {fam} = {expected}",
                                     rank)
                act = realize_expected(stmt.payload[2], fam, rank)
                cells.append([str(tnum), label, fam, str(act)])
    return cells


def test_csv_round_trip():
    # Emitted csv read back by the csv module gives the computed rows, and
    # every action cell equals the golden value of its row.
    for rank in (2, 3):
        rows = list(csv.reader(io.StringIO(emit_tables(rank, "csv"))))
        computed = [[str(t), label, fam, str(a)]
                    for t, label, fam, a in table_actions(rank)]
        assert rows == [["table", "element", "family", "action"]] + computed
        assert rows[1:] == _golden_cells(rank)


def test_json_round_trip():
    for rank in (2, 3):
        payload = json.loads(emit_tables(rank, "json"))
        assert payload["rank"] == rank
        rows = [[str(r["table"]), r["element"], r["family"], r["action"]]
                for r in payload["rows"]]
        computed = [[str(t), label, fam, str(a)]
                    for t, label, fam, a in table_actions(rank)]
        assert rows == computed
        assert rows == _golden_cells(rank)


def test_bad_format_rejected():
    with pytest.raises(ValueError):
        emit_tables(2, "xml")
