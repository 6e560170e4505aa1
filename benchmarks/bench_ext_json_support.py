"""Extension X3 — §4.3 current work: native JSON vs Flink flattening.

"Users currently rely on a Flink job to preprocess an input Kafka topic
with nested JSON format into a flattened-schema Kafka topic for Pinot
ingestion.  We are working with the community in building native JSON
support for both ingestion and queries."

Series: the same nested-payload query answered (a) natively against the
JSON column (no pipeline, full scan) and (b) against a Flink-flattened,
inverted-indexed table (extra pipeline, fast serving); plus the
flexibility case — a brand-new path that only the native route can query
without redeploying anything.  The serving gap is asserted in docs
examined, which repeat for a seed (the native route reads every payload,
the inverted index reads none); the wall factor is printed as read.
"""

from __future__ import annotations

import time

from repro.common.rng import seeded_rng
from repro.pinot.json_support import build_flattener, execute_json_query
from repro.pinot.query import Aggregation, Filter, PinotQuery, execute_on_segment
from repro.pinot.segment import ImmutableSegment, IndexConfig, MutableSegment

from benchmarks.conftest import print_table

N_EVENTS = 20_000
REPEATS = 5


def build():
    rng = seeded_rng(71)
    payloads = [
        {
            "order": {
                "city": f"city-{rng.randrange(10)}",
                "total": float(rng.randrange(5, 90)),
                "channel": rng.choice(["app", "web"]),
            },
            "device": {"os": rng.choice(["ios", "android"])},
        }
        for __ in range(N_EVENTS)
    ]
    # Native route: the raw payload is the (JSON) column.
    native = MutableSegment("json-native")
    for payload in payloads:
        native.append({"payload": payload})
    # Flattened route: the Flink preprocessor's mapping, chosen when the
    # pipeline was built (device.os wasn't thought of back then).
    flatten = build_flattener(
        {"city": "order.city", "total": "order.total",
         "channel": "order.channel"}
    )
    flat_rows = [flatten(p) for p in payloads]
    flat = ImmutableSegment(
        "json-flat",
        {k: [r[k] for r in flat_rows] for k in flat_rows[0]},
        IndexConfig(inverted=frozenset({"city", "channel"})),
    )
    return payloads, native, flat


def run_comparison():
    payloads, native, flat = build()
    native_query = PinotQuery(
        "t",
        aggregations=[Aggregation("SUM", "order.total")],
        filters=[Filter("order.city", "=", "city-3")],
        group_by=["order.channel"],
    )
    flat_query = PinotQuery(
        "t",
        aggregations=[Aggregation("SUM", "total")],
        filters=[Filter("city", "=", "city-3")],
        group_by=["channel"],
    )
    start = time.perf_counter()
    native_partial = None
    for __ in range(REPEATS):
        native_partial = execute_json_query(native, "payload", native_query)
    native_latency = time.perf_counter() - start
    start = time.perf_counter()
    flat_partial = None
    for __ in range(REPEATS):
        flat_partial = execute_on_segment(flat, flat_query)
    flat_latency = time.perf_counter() - start
    # Results agree where the flattened schema covers the query.
    native_sums = {k[0]: v[0] for k, v in native_partial.groups.items()}
    flat_sums = {k[0]: v[0] for k, v in flat_partial.groups.items()}
    assert native_sums == flat_sums
    # Flexibility: a never-flattened path is only reachable natively.
    adhoc = execute_json_query(
        native, "payload",
        PinotQuery("t", aggregations=[Aggregation("COUNT")],
                   filters=[Filter("device.os", "=", "ios")]),
    )
    adhoc_count = adhoc.groups[()][0]
    truth = sum(1 for p in payloads if p["device"]["os"] == "ios")
    assert adhoc_count == truth
    flat_can_answer = "os" in flat.column_names()
    return (
        native_latency,
        flat_latency,
        native_partial.plan,
        flat_partial.plan,
        adhoc_count,
        flat_can_answer,
    )


def test_native_json_vs_flattening(benchmark):
    native_latency, flat_latency, native_plan, flat_plan, adhoc_count, flat_can = (
        benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    )
    print_table(
        f"X3: nested-payload query over {N_EVENTS} events, {REPEATS} repeats",
        ["route", "docs examined", "latency (s)", "extra pipeline",
         "can query new paths"],
        [
            ["native JSON (scan)", native_plan.docs_examined,
             f"{native_latency:.4f}", "no", "yes"],
            ["flink-flattened (indexed)", flat_plan.docs_examined,
             f"{flat_latency:.4f}", "yes (redeploy to change)", "no"],
        ],
    )
    print(f"  flattened serves {native_latency / flat_latency:.1f}x faster (as read)")
    # The trade: flattening + indexes serve from the postings, reading no
    # payload, where the native route parses every one...
    assert native_plan.access_paths == ["json-scan:payload"]
    assert native_plan.docs_examined == N_EVENTS
    assert flat_plan.access_paths == ["inverted:city"]
    assert flat_plan.docs_examined == 0
    # ...but the never-mapped path is only answerable natively.
    assert adhoc_count > 0
    assert not flat_can
    benchmark.extra_info["flat_speedup"] = native_latency / flat_latency
