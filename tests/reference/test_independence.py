"""The query model shares no code with what it checks.

So a wrong rule in the engines' one owner of SQL semantics
(``repro.common.relational``) cannot make the model agree: with ``>=``
meaning ``>`` there, the engine drops the boundary row and the model
keeps it.  An oracle that called the shared rule would answer like the
engine and pass every equivalence test over the broken code.
"""

from __future__ import annotations

import operator

import repro.common.relational
from repro.sql.presto.connector import MemoryConnector
from repro.sql.presto.engine import PrestoEngine
from tests.reference.query import execute

ROWS = [{"city": "sf", "x": float(x)} for x in range(10)]
SQL = "SELECT city, COUNT(*) AS n FROM t WHERE x >= 5 GROUP BY city"


def test_the_model_is_right_where_the_engine_is():
    engine = PrestoEngine({"t": MemoryConnector({"t": ROWS})})
    assert engine.execute(SQL).rows == execute(SQL, {"t": ROWS})


def test_a_wrong_shared_rule_does_not_reach_the_model(monkeypatch):
    monkeypatch.setitem(repro.common.relational._BINARY, ">=", operator.gt)
    engine = PrestoEngine({"t": MemoryConnector({"t": ROWS})})
    assert engine.execute(SQL).rows == [{"city": "sf", "n": 4}]
    assert execute(SQL, {"t": ROWS}) == [{"city": "sf", "n": 5}]
