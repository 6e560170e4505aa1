"""A repeat served whole from its root artifact does only a lookup.

A kept plan's scan tables, ``tables_scanned`` and ``connectors_used`` are
facts of the plan, read at planning; a root found in the artifact store
returns from the probe without the scheduler's wave bookkeeping.  Neither
may change what a caller is told: the rows, every ``QueryStats`` field,
the plan, and the schedule record the general path keeps for a served
stage.
"""

from __future__ import annotations

import pytest

import repro.sql.presto.engine as engine_module
from repro.sql.planner.scheduler import StageExecution
from tests.sql.test_exit_isolation import json_platform

# Texts whose plan is kept (no joins), one per root shape.
KEPT_TEXTS = {
    "grouped aggregate": (
        "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM rides GROUP BY city"
    ),
    "order by limit": (
        "SELECT ride_id, amount FROM rides ORDER BY amount DESC, ride_id LIMIT 7"
    ),
    "selection": "SELECT ride_id, payload FROM rides WHERE amount >= 10",
    "global max": "SELECT MAX(amount) AS top FROM rides",
}


def walks_no_plan(node):
    raise AssertionError("a served root walked its plan")


def served_root(engine, planned):
    """What the scheduler reports for ``planned`` now, asked directly."""
    versions = {}
    for table in planned.tables:
        connector = engine.catalog[table]
        versions[table] = (connector, connector.version(table))
    return engine.scheduler.run(planned.physical, versions, "probe")


@pytest.mark.parametrize("shape", KEPT_TEXTS)
def test_a_served_root_does_no_plan_work_and_reports_the_same_evidence(
    shape, monkeypatch
):
    sql = KEPT_TEXTS[shape]
    platform, __ = json_platform()
    engine = platform.presto
    missed = engine.execute(sql)
    assert missed.stats.stages_executed > 0
    first_hit = engine.execute(sql)
    assert first_hit.plan is missed.plan

    monkeypatch.setattr(engine_module, "scan_nodes", walks_no_plan)
    monkeypatch.setattr(engine_module, "direct_scan_nodes", walks_no_plan)
    again = engine.execute(sql)
    assert again.rows == first_hit.rows
    assert again.stats == first_hit.stats  # every field
    assert again.stats.tables_scanned == ["rides"]
    assert again.stats.connectors_used == ["pinot"]
    assert again.stats.stage_artifact_hits == 1
    assert again.stats.stages_executed == 0
    assert again.plan is first_hit.plan
    # Each output owns its lists: a caller appending to one reaches
    # neither the kept plan nor the next answer.
    again.stats.tables_scanned.append("poison")
    assert engine.execute(sql).stats.tables_scanned == ["rides"]

    root = again.plan.physical.stages[again.plan.physical.root]
    payload, executions = served_root(engine, again.plan)
    assert executions == [
        StageExecution(root.sid, root.op, -1, -1, True, len(again.rows))
    ]
    assert payload.num_rows() == len(again.rows)


def test_a_served_root_is_recorded_as_the_general_path_records_a_served_stage():
    platform, __ = json_platform()
    engine = platform.presto
    grouped = "SELECT city, COUNT(*) AS n FROM rides GROUP BY city"
    ordered = grouped + " ORDER BY city"
    engine.execute(grouped)
    # ``ordered`` sorts the artifact ``grouped`` stored as its root: the
    # general path serves that stage and runs only the sort above it.
    planned = engine.plan(ordered)
    __, general = served_root(engine, planned)
    assert [e.served_from_artifact for e in general] == [True, False]
    __, served = served_root(engine, engine.plan(grouped))
    assert served == general[:1]
    assert served[0].op == "aggregate"

    # The span each path records for that stage carries the same facts.
    engine.execute(ordered)
    engine.execute(grouped)
    spans = [
        span.attrs
        for span in engine.tracer.spans(name="stage.aggregate", layer="presto")
        if span.attrs["served_from_artifact"]
    ]
    assert len(spans) >= 2
    assert spans[-1] == spans[-2]
    assert set(spans[-1]) == {"sid", "key", "served_from_artifact", "rows"}
