"""In-memory spans around the public entry points of each ``repro`` layer.

The traced run wraps bound methods *on the instances the workload built*
(never the classes), so the untraced run executes unmodified code.  A span
is ``[name, start, end, parent, trace]``: ``parent`` indexes the enclosing
span (-1 for a root) and ``trace`` is the tick or query number the driver
loop was on.  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Iterator

STEP_SPAN = "bench.step"


def entry_points(platform: Any, producers: list[Any]) -> Iterator[tuple[Any, str, str]]:
    """``(object, method, span name)`` for the public entry points of every
    layer the workload built."""
    for producer in producers:
        yield producer, "send", "kafka.produce"
        yield producer, "flush", "kafka.produce"
    yield platform.kafka, "replicate", "kafka.replicate"
    yield platform.kafka, "fetch", "kafka.fetch"
    for runtime in platform.runtimes:
        yield runtime, "run_rounds", "flink.run_rounds"
    if platform.pinot is not None:
        for table in platform.pinot.tables.values():
            yield table.ingestion, "run_step", "pinot.ingest"
        yield platform.pinot.backup, "run_step", "pinot.backup"
        for server in platform.pinot.servers:
            yield server, "execute", "pinot.server"
        yield platform.broker, "execute", "pinot.broker"
    if platform.presto is not None:
        yield platform.presto, "execute", "sql.engine"
        yield platform.presto, "plan", "sql.plan"
        yield platform.presto.scheduler, "run", "sql.scheduler"
        for connector in platform.presto.catalog.values():
            yield connector, "scan", "sql.connector_scan"


class SpanRecorder:
    """Collects spans; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[Any, str]] = []
        self.trace = -1

    def wrap(self, obj: Any, method: str, name: str) -> None:
        inner = getattr(obj, method)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trace]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        setattr(obj, method, traced)
        self._wrapped.append((obj, method))

    def instrument(self, platform: Any, producers: list[Any]) -> None:
        for obj, method, name in entry_points(platform, producers):
            self.wrap(obj, method, name)

    def uninstrument(self) -> None:
        """Drop the wrappers, so that later calls (the reference checks)
        run the classes' own methods and record nothing."""
        for obj, method in self._wrapped:
            delattr(obj, method)
        self._wrapped.clear()

    def begin_step(self, trace: int) -> None:
        """Open the root span of one tick or query."""
        self.trace = trace
        self._stack.append(len(self.spans))
        self.spans.append([STEP_SPAN, time.perf_counter(), 0.0, -1, trace])

    def end_step(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call counts per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for __, start, end, parent, __ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, __, __) in enumerate(self.spans):
            self_s[name] += end - start - child_time[index]
            calls[name] += 1
        return dict(self_s), calls

    def dump(self, path: Path, header: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(
            header,
            columns=["name", "start_s", "end_s", "parent", "trace"],
            spans=self.spans,
        )
        with path.open("w") as handle:
            json.dump(document, handle)
