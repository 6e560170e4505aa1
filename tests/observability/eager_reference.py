"""Executable reference model of the span collector: eager fan-out.

This is what ``SpanCollector`` did before it recorded a query once and a
hop once per batch: every finished span is one object, with its trace id
worked out when it is recorded, in one unbounded list, and a table query
is copied, at the moment it is recorded, onto *every trace ingested into
the table so far*.  It is quadratic and unbounded, which is why production
no longer works this way — and it is ten lines per method, which is why
the tests keep it: ``test_collector_differential.py`` drives both
collectors with the same seeded schedules and requires the same per-trace
answers.
"""

from __future__ import annotations

from typing import Any

from repro.observability.trace import HOP_ORDER, Span


def _hop_rank(name: str) -> int:
    return HOP_ORDER.index(name) if name in HOP_ORDER else len(HOP_ORDER)


class EagerCollector:
    def __init__(self) -> None:
        self.finished: list[Span] = []
        self.table_traces: dict[str, set[str]] = {}

    def record_span(self, trace_id, name, layer, start, end, **attrs: Any) -> Span:
        span = Span(trace_id, name, layer, start, end, attrs)
        self._finish(span)
        return span

    def record_table_query(self, table, layer, start, end, **attrs: Any) -> None:
        for trace_id in sorted(self.table_traces.get(table, ())):
            self._finish(
                Span(trace_id, "query", layer, start, end, dict(attrs, table=table))
            )

    def _finish(self, span: Span) -> None:
        self.finished.append(span)
        if span.name == "ingest" and "table" in span.attrs:
            self.table_traces.setdefault(span.attrs["table"], set()).add(
                span.trace_id
            )

    # -- views --------------------------------------------------------------

    def trace(self, trace_id: str) -> list[Span]:
        spans = [s for s in self.finished if s.trace_id == trace_id]
        return sorted(spans, key=lambda s: (s.start, _hop_rank(s.name)))

    def trace_ids(self) -> list[str]:
        return sorted({s.trace_id for s in self.finished})

    def traces_for_table(self, table: str) -> set[str]:
        return set(self.table_traces.get(table, ()))

    def trace_latency(self, trace_id, first_hop="produce", last_hop="ingest"):
        spans = self.trace(trace_id)
        starts = [s.start for s in spans if s.name == first_hop]
        ends = [s.end for s in spans if s.name == last_hop]
        if not starts or not ends:
            return None
        return max(ends) - min(starts)

    def anomalies(self) -> list[str]:
        problems = [
            f"span {s.name}[{s.layer}] of {s.trace_id} ends "
            f"at {s.end:.6f} before it starts at {s.start:.6f}"
            for s in self.finished
            if s.end < s.start
        ]
        for trace_id in self.trace_ids():
            starts_by_hop: dict[str, list[float]] = {}
            for span in self.trace(trace_id):
                if span.name in HOP_ORDER:
                    starts_by_hop.setdefault(span.name, []).append(span.start)
            present = [h for h in HOP_ORDER if h in starts_by_hop]
            for earlier, later in zip(present, present[1:]):
                for a, b in zip(
                    sorted(starts_by_hop[earlier]), sorted(starts_by_hop[later])
                ):
                    if b < a - 1e-9:
                        problems.append(
                            f"trace {trace_id}: {later} starts at {b:.6f}, "
                            f"before {earlier} at {a:.6f}"
                        )
        return problems


def survivors(
    eager: EagerCollector, dropped: int, ordinal: str, copied: str
) -> EagerCollector:
    """The eager collector a bounded store must agree with once it has
    dropped its ``dropped`` oldest rows.

    Every recorded row carries its arrival ordinal in ``attrs[ordinal]``
    (a query's copies share the query's) and a query's copies also carry
    ``attrs[copied]``.  A span survives if its row does; the copy of a
    query on trace T survives if the query's row does *and* so does an
    earlier ``ingest`` row of T into the query's table — the fact that put
    T under the query in the first place.
    """
    pruned = EagerCollector()
    for span in eager.finished:
        if span.attrs[ordinal] < dropped:
            continue
        if copied in span.attrs:
            covered = pruned.table_traces.get(span.attrs["table"], ())
            if span.trace_id not in covered:
                continue
        pruned._finish(span)
    return pruned
