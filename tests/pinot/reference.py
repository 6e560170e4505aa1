"""Plain-Python evaluation of a :class:`PinotQuery` over a list of row
dicts: no segments, no indexes, no routing, no caches.  The oracle the
routing, scan-share, selection and pushdown-equivalence tests compare the
broker (and Presto over it) against.

It states SQL's rules on its own, sharing no code with
``repro.common.relational``: NULL (a cell, a literal, a bound) matches no
operator; ``COUNT(col)`` counts non-NULL cells and AVG / MIN / MAX over
none are ``None`` (until PR 20 this file said ``len(values)`` and ``nan``
— it had been written to agree with the broker, which was wrong on both,
and the Presto engine over the same table already answered ``0`` and
``None``); NaN orders with nothing so it is never a MIN or MAX; a global
aggregate over no matching row is still one row; groups come in
canonical order (sorted by stringified key) before any ORDER BY.

Aggregates are folded in row order, so fixtures keep metric values exact
in binary floating point (integers, multiples of 1/64); sums then do not
depend on the order segments are merged in.
"""

from __future__ import annotations

import operator

from repro.common import serde

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


def _matches(flt, cell) -> bool:
    if cell is None:
        return False
    if flt.op == "IN":
        return cell in flt.values
    if flt.op == "BETWEEN":
        if flt.low is None or flt.high is None:
            return False
        return flt.low <= cell <= flt.high
    return flt.value is not None and _OPS[flt.op](cell, flt.value)


def _aggregate(func: str, values: list):
    present = [v for v in values if v is not None]
    if func == "COUNT":
        return len(present)
    if func == "SUM":
        return sum(present, 0.0)
    if func == "AVG":
        return sum(present, 0.0) / len(present) if present else None
    if func in ("MIN", "MAX"):
        ordered = [v for v in present if v == v]
        return (min if func == "MIN" else max)(ordered) if ordered else None
    if func == "DISTINCTCOUNT":
        return len(set(present))
    raise ValueError(func)


def latest_per_key(rows: list[dict], key: str) -> list[dict]:
    """What an upsert table holds: the last row sent for each key."""
    latest: dict = {}
    for row in rows:
        latest[row[key]] = row
    return list(latest.values())


def evaluate(query, rows: list[dict]) -> list[dict]:
    """The rows ``broker.execute(query)`` must answer with over a table
    holding ``rows``.  Without ORDER BY a selection's row order is not
    defined here; compare those with :func:`canonical`."""
    matching = [
        row
        for row in rows
        if all(_matches(flt, row.get(flt.column)) for flt in query.filters)
    ]
    if query.aggregations:
        groups: dict[tuple, list[dict]] = {} if query.group_by else {(): []}
        for row in matching:
            groups.setdefault(tuple(row.get(c) for c in query.group_by), []).append(row)
        out = []
        for key, members in groups.items():
            answer = dict(zip(query.group_by, key))
            for agg in query.aggregations:
                answer[agg.alias()] = _aggregate(
                    agg.func, [m.get(agg.column) if agg.column else 1 for m in members]
                )
            out.append(answer)
        out.sort(key=lambda r: tuple(str(r.get(c)) for c in query.group_by))
    else:
        columns = query.select_columns or sorted({name for row in rows for name in row})
        out = [{c: row.get(c) for c in columns} for row in matching]
    for name, descending in reversed(query.order_by):
        out.sort(key=lambda r: (r.get(name) is None, r.get(name)), reverse=descending)
    return out[: query.limit] if query.limit else out


def canonical(rows: list[dict]) -> list[bytes]:
    """Order-free form of a row list (cells may be unhashable JSON)."""
    return sorted(serde.encode(sorted(row.items())) for row in rows)
