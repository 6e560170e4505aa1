"""Native semistructured (JSON) support (Section 4.3, current work).

"Users currently rely on a Flink job to preprocess an input Kafka topic
with nested JSON format into a flattened-schema Kafka topic for Pinot
ingestion.  We are working with the community in building native JSON
support for both ingestion and queries."

This module supplies both halves so the ablation can compare them:

* **Native path** — ``json_extract`` evaluates dotted/indexed paths
  against JSON column values at query time, and :func:`execute_json_query`
  runs filter/group-by queries over a JSON column without any
  preprocessing (full scan of the JSON column; flexible but slower).
* **Flattening path** — :func:`build_flattener` returns the map function
  a Flink preprocessing job applies to turn nested payloads into flat
  rows (fast indexed serving; schema fixed at pipeline-build time).
"""

from __future__ import annotations

import re
from typing import Any, Callable

from repro.columnar import ColumnBatch
from repro.common.errors import QueryError
from repro.pinot.query import (
    PartialResult,
    PinotQuery,
    SegmentPlan,
    fold_row,
    group_fold,
)
from repro.pinot.segment import ImmutableSegment, MutableSegment

_PATH_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)|\[(\d+)\]")


def parse_json_path(path: str) -> list[Any]:
    """'payload.items[2].name' -> ['payload', 'items', 2, 'name']."""
    if not path:
        raise QueryError("empty JSON path")
    tokens: list[Any] = []
    for part in path.split("."):
        if not part:
            raise QueryError(f"malformed JSON path {path!r}: empty segment")
        matched = 0
        for match in _PATH_TOKEN.finditer(part):
            if match.group(1) is not None:
                tokens.append(match.group(1))
            else:
                tokens.append(int(match.group(2)))
            matched += len(match.group(0))
        if matched != len(part):
            raise QueryError(f"malformed JSON path segment {part!r}")
    return tokens


def json_extract(value: Any, path: str) -> Any:
    """Evaluate a dotted/indexed path; None when any hop is missing."""
    current = value
    for token in parse_json_path(path):
        if isinstance(token, int):
            if not isinstance(current, list) or token >= len(current):
                return None
            current = current[token]
        else:
            if not isinstance(current, dict):
                return None
            current = current.get(token)
        if current is None:
            return None
    return current


def execute_json_query(
    segment: ImmutableSegment | MutableSegment,
    json_column: str,
    query: PinotQuery,
) -> PartialResult:
    """Run a query whose filter/group-by columns are JSON paths *inside*
    ``json_column`` (e.g. ``Filter("order.city", "=", "sf")``).

    Always a full scan of the JSON column — the flexibility/cost trade the
    paper's users escape by flattening with Flink.
    """
    plan = SegmentPlan(segment=segment.name)
    plan.access_paths.append(f"json-scan:{json_column}")
    num_docs = segment.num_docs
    plan.docs_examined = num_docs
    partial = PartialResult(plan=plan)
    fold = group_fold(query)
    selected: list[Any] = []  # payloads of a selection's matching docs
    for doc_id in range(num_docs):
        payload = segment.value(json_column, doc_id)
        if payload is None:
            continue
        if not all(
            flt.matches(json_extract(payload, flt.column))
            for flt in query.filters
        ):
            continue
        if query.is_aggregation():
            fold_row(fold, query, lambda path: json_extract(payload, path))
        else:
            selected.append(payload)
    partial.groups = fold.groups
    if selected:
        partial.page = ColumnBatch.from_columns(
            {
                path: [json_extract(payload, path) for payload in selected]
                for path in query.select_columns
            }
            or {json_column: selected}
        )
    return partial


def build_flattener(
    mapping: dict[str, str],
) -> Callable[[dict[str, Any]], dict[str, Any]]:
    """The Flink preprocessing function: flat column -> JSON path.

    ``build_flattener({"city": "order.city"})`` returns a map function for
    a Flink job that emits flat rows Pinot can index normally.  Changing
    the mapping means redeploying the pipeline — the rigidity native JSON
    removes.
    """
    compiled = {flat: path for flat, path in mapping.items()}
    for path in compiled.values():
        parse_json_path(path)  # validate eagerly

    def flatten(payload: dict[str, Any]) -> dict[str, Any]:
        return {flat: json_extract(payload, path) for flat, path in compiled.items()}

    return flatten
