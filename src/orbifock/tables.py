"""Canonical top-level action tables, their emission and reparsing.

Three tables cover the generator actions on the five module families: the
quadratics h_1(-1)h_2(-m) for m = 1..5, the five matrix-unit/center
combinations, and the singlet generators w_1, J_1.  Emission is
deterministic, so files can serve as golden fixtures.
"""

from __future__ import annotations

import csv
import io
import json

from .script import parse_expr, realize
from .toplevel import evaluate, parse_action

# Golden actions, table -> element label -> family -> expected value, in the
# script language; each element is built by parsing its label.
GOLDEN = {
    1: {
        "S(1,1;2,1)": {"Hminus": "E(1,2) + E(2,1)", "Mlambda": "l1*l2",
                       "Tminus": "1/2 E(1,2) + 1/2 E(2,1)"},
        "S(1,1;2,2)": {"Hminus": "-2 E(1,2)", "Mlambda": "-l1*l2",
                       "Tminus": "-3/4 E(1,2) - 1/4 E(2,1)"},
        "S(1,1;2,3)": {"Hminus": "3 E(1,2)", "Mlambda": "l1*l2",
                       "Tminus": "15/16 E(1,2) + 3/16 E(2,1)"},
        "S(1,1;2,4)": {"Hminus": "-4 E(1,2)", "Mlambda": "-l1*l2",
                       "Tminus": "-35/32 E(1,2) - 5/32 E(2,1)"},
        "S(1,1;2,5)": {"Hminus": "5 E(1,2)", "Mlambda": "l1*l2",
                       "Tminus": "315/256 E(1,2) + 35/256 E(2,1)"},
    },
    2: {
        "Eu(1,2)": {"Hminus": "E(1,2)", "Mlambda": "0", "Tminus": "0"},
        "Eubar(2,1)": {"Hminus": "E(2,1)", "Mlambda": "0", "Tminus": "0"},
        "Et(1,2)": {"Hminus": "0", "Mlambda": "0", "Tminus": "E(1,2)"},
        "Etbar(2,1)": {"Hminus": "0", "Mlambda": "0", "Tminus": "E(2,1)"},
        "Lam(1,2)": {"Hminus": "0", "Mlambda": "l1*l2", "Tminus": "0"},
    },
    3: {
        "w1": {"Hplus": "0", "Hminus": "E(1,1)", "Mlambda": "1/2 l1^2",
               "Tplus": "1/16", "Tminus": "1/16 I + 1/2 E(1,1)"},
        "J1": {"Hplus": "0", "Hminus": "-6 E(1,1)",
               "Mlambda": "l1^4 - 1/2 l1^2",
               "Tplus": "3/128", "Tminus": "3/128 I - 3/8 E(1,1)"},
    },
}


def table_actions(rank):
    """All (table, element, family, action) rows, in canonical order."""
    if rank < 2:
        raise ValueError("tables need rank at least 2")
    rows = []
    for tnum, elements in GOLDEN.items():
        for label, row in elements.items():
            vec = realize(parse_expr(label, rank), rank)
            for fam in row:
                rows.append((tnum, label, fam, evaluate(vec, fam)))
    return rows


def emit_tables(rank, fmt="csv"):
    """Serialize the tables; identical text across runs."""
    rows = table_actions(rank)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["table", "element", "family", "action"])
        for tnum, label, fam, action in rows:
            writer.writerow([tnum, label, fam, action.to_string()])
        return buf.getvalue()
    if fmt == "json":
        payload = {
            "rank": rank,
            "rows": [{"table": tnum, "element": label, "family": fam,
                      "action": action.to_string()}
                     for tnum, label, fam, action in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def parse_tables(text, fmt, rank=None):
    """Reparse emitted tables into (table, element, family, action) rows."""
    out = []
    if fmt == "csv":
        if rank is None:
            raise ValueError("csv reparsing needs the rank")
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if header != ["table", "element", "family", "action"]:
            raise ValueError("unrecognized table header")
        for tnum, label, fam, action in reader:
            out.append((int(tnum), label, fam, parse_action(action, fam, rank)))
        return out
    if fmt == "json":
        payload = json.loads(text)
        rank = payload["rank"] if rank is None else rank
        for row in payload["rows"]:
            out.append((row["table"], row["element"], row["family"],
                        parse_action(row["action"], row["family"], rank)))
        return out
    raise ValueError(f"unknown format {fmt!r}")
