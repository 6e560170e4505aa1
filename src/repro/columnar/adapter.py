"""Batch↔row adapters: the boundary of the vectorized plane.

Row-only consumers (legacy connectors, transactional sinks, operators
without a columnar kernel) keep working against the columnar plane
through these helpers.  Every crossing is counted
(``columnar.rows_adapted``) so the counters show exactly where the
pipeline still falls back to rows — the adapter is the safety net, not
the fast path.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.columnar.batch import ColumnBatch


def rows_to_pages(
    rows: Sequence[Mapping[str, Any]],
    page_size: int = 1024,
    column_names: Sequence[str] | None = None,
) -> list[ColumnBatch]:
    """Adapt row dicts into fixed-size pages (row→batch boundary)."""
    if not rows:
        return []
    return [
        ColumnBatch.from_rows(rows[i : i + page_size], column_names)
        for i in range(0, len(rows), page_size)
    ]


def pages_to_rows(pages: Sequence[ColumnBatch]) -> list[dict[str, Any]]:
    """Materialize pages back into row dicts (batch→row boundary)."""
    out: list[dict[str, Any]] = []
    for page in pages:
        out.extend(page.to_rows())
    return out
