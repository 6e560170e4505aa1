"""A state machine over the query path: ingest, ask, repeat, vandalize.

Hypothesis interleaves three things a dashboard's table sees — rides
produced and ingested, a text from a fixed pool asked through Presto,
and the caller changing the answer it was handed — over one realtime
table with a small seal threshold, so asks land on sealed and consuming
segments alike.  A repeat with no produce since is served whole from the
stage-artifact store; one after a produce reaches the broker's cache and
the servers' memos at a new table version.  After every ask the answer
must equal ``tests/reference/query.execute`` over every ride produced.

Broker kills and ``acks=1`` failovers are outside this machine.
"""

from __future__ import annotations

import copy

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.pinot.table import TableConfig
from repro.platform import Platform
from tests.pinot.fixtures import CITIES, SCHEMA
from tests.pinot.test_selection_boundary import vandalize
from tests.reference.query import canonical, execute

SEAL_ROWS = 7

# (text, whether the SQL fixes the order of its answer)
POOL = (
    (
        "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM rides GROUP BY city",
        False,
    ),
    ("SELECT ride_id, amount FROM rides ORDER BY amount DESC, ride_id LIMIT 5", True),
    ("SELECT ride_id, city, payload FROM rides WHERE amount >= 40", False),
    ("SELECT MAX(amount) AS top, COUNT(*) AS n FROM rides", True),
    (
        "SELECT city, AVG(amount) AS mean FROM rides WHERE ts >= 20 "
        "GROUP BY city ORDER BY city",
        True,
    ),
    ("SELECT ride_id, payload FROM rides WHERE city = 'city-1'", False),
)

rides = st.lists(
    st.fixed_dictionaries(
        {
            "city": st.sampled_from(CITIES[:4]),
            # Whole numbers: a sum is exact in any fold order.
            "amount": st.one_of(st.none(), st.integers(0, 80).map(float)),
            "payload": st.one_of(
                st.none(),
                st.builds(
                    lambda tag, tier: {"tags": [tag], "meta": {"tier": tier}},
                    st.sampled_from(["a", "b"]),
                    st.integers(0, 2),
                ),
            ),
        }
    ),
    min_size=1,
    max_size=40,
)


class QueryPathMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.platform = (
            Platform().with_kafka().with_pinot().with_presto().topic("rides")
        )
        self.table = self.platform.realtime_table(
            TableConfig(
                "rides", SCHEMA, time_column="ts", segment_rows_threshold=SEAL_ROWS
            ),
            topic="rides",
        )
        self.producer = self.platform.producer("machine")
        self.produced: list[dict] = []
        self.asked_since_produce: set[str] = set()
        self.last_ask: tuple[str, bool] | None = None
        self.last_rows: list[dict] | None = None

    def send(self, drawn: list[dict]) -> None:
        for fields in drawn:
            n = len(self.produced)
            row = dict(fields, ride_id=f"ride-{n:05d}", ts=float(n))
            # The model keeps its own copy: nothing the platform shares a
            # JSON cell with can reach it.
            self.producer.send("rides", copy.deepcopy(row), key=row["city"])
            self.produced.append(row)
        self.producer.flush()
        self.platform.step()
        self.asked_since_produce.clear()

    @initialize(drawn=rides)
    def first_rides(self, drawn):
        self.send(drawn)

    @rule(drawn=rides)
    def produce(self, drawn):
        self.send(drawn)

    @rule(choice=st.sampled_from(POOL))
    def ask(self, choice):
        sql, ordered = choice
        output = self.platform.sql(sql)
        expected = execute(sql, {"rides": self.produced})
        if ordered:
            assert output.rows == expected, sql
        else:
            assert canonical(output.rows) == canonical(expected), sql
        if sql in self.asked_since_produce:
            assert output.stats.stage_artifact_hits == 1, sql
            assert output.stats.stages_executed == 0, sql
        self.asked_since_produce.add(sql)
        self.last_ask = choice
        self.last_rows = output.rows

    @rule()
    def ask_again(self):
        if self.last_ask is not None:
            self.ask(self.last_ask)

    @rule()
    def vandalize_last_answer(self):
        if self.last_rows is not None:
            vandalize(self.last_rows)

    @invariant()
    def every_ride_is_queryable(self):
        assert self.table.ingestion.lag() == 0


QueryPathMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=30,
    derandomize=True,
    deadline=None,
)
TestQueryPath = QueryPathMachine.TestCase
