"""The query model: what a query over plain row lists must answer, with
no segments, indexes, routing, caches, plans or pushdown, and no code
shared with what it checks.  The value rules, stated once:

* NULL (a cell, a literal, a bound) matches no operator, ``!=`` and
  ``IN`` included, so a NULL join key joins nothing;
* ``COUNT(col)`` counts non-NULL cells, SUM over none is ``0.0``, AVG /
  MIN / MAX over none are ``None``; NaN orders with nothing, so it is
  never a MIN or a MAX; a global aggregate over no row is one row;
* groups come in canonical order (sorted by stringified key); ORDER BY
  sorts each key on ``(is NULL, value)``, NULLs last, and DESC reverses
  that whole order; ties keep their order.

A grouped query answers its group columns by bare name, then each
aggregate by its alias (``count(*)``, ``sum(amount)`` without one);
ORDER BY names an output column; a joined row names its cells
``alias.column``, in nested-loop order.  Aggregates fold in row order,
so fixtures keep metric values exact in binary floating point.
"""

from __future__ import annotations

import dataclasses
import operator

from repro.common import serde
from repro.sql.parser import BoolOp, Column, Literal, Star, SubqueryRef, parse

_OPS = {"=": "eq", "!=": "ne", ">": "gt", ">=": "ge", "<": "lt", "<=": "le"}


def _holds(test, cell, value) -> bool:
    """``cell <op> value``, ``cell IN values``, ``cell BETWEEN low AND high``."""
    if cell is None:
        return False
    if test.op == "IN":
        return cell in test.values
    if test.op == "BETWEEN":
        return None not in (test.low, test.high) and test.low <= cell <= test.high
    return value is not None and getattr(operator, _OPS[test.op])(cell, value)


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


def _fold(rows, names, refs, aggregates, cell) -> list[dict]:
    """One row per group in canonical order: the ``refs`` cells under ``names``,
    then each ``(alias, func, ref)`` over ``ref`` cells (no ``ref``: rows)."""
    groups: dict[tuple, list[dict]] = {} if refs else {(): []}
    for row in rows:
        groups.setdefault(tuple(cell(row, ref) for ref in refs), []).append(row)
    out = []
    for key in sorted(groups, key=lambda key: tuple(map(str, key))):
        answer = dict(zip(names, key))
        for alias, func, ref in aggregates:
            cells = [1 if ref is None else cell(row, ref) for row in groups[key]]
            answer[alias] = _aggregate(func, cells)
        out.append(answer)
    return out


def _order(rows, keys, limit) -> list[dict]:
    for name, desc in reversed(keys):
        nulls_last = lambda row: (row.get(name) is None, row.get(name))
        rows = sorted(rows, key=nulls_last, reverse=desc)
    return rows[:limit] if limit else rows


def evaluate(query, rows: list[dict]) -> list[dict]:
    """The rows ``broker.execute(query)`` must answer with over a table
    holding ``rows``; without ORDER BY a selection's order is not defined."""
    keep = lambda row: all(_holds(f, row.get(f.column), f.value) for f in query.filters)
    matching = [row for row in rows if keep(row)]
    if query.aggregations:
        aggregates = [(a.alias(), a.func, a.column) for a in query.aggregations]
        out = _fold(matching, query.group_by, query.group_by, aggregates, dict.get)
    else:
        columns = query.select_columns or sorted({name for row in rows for name in row})
        out = [{c: row.get(c) for c in columns} for row in matching]
    return _order(out, query.order_by, query.limit)


def answers(got: list[dict], query, rows: list[dict]) -> bool:
    """Whether ``got`` answers ``query`` over ``rows``: exactly when the order is
    defined (by groups, or an ORDER BY on a total key), else in any order, and
    for a bare LIMIT, any ``limit`` of the rows."""
    if query.aggregations or query.order_by:
        return serde.encode(got) == serde.encode(evaluate(query, rows))
    full = canonical(evaluate(dataclasses.replace(query, limit=0), rows))
    if not query.limit:
        return canonical(got) == full
    some = canonical(got)
    return len(some) == min(query.limit, len(full)) and all(r in full for r in some)


def canonical(rows: list[dict]) -> list[bytes]:
    """Order-free form of a row list (cells may be unhashable JSON)."""
    return sorted(serde.encode(sorted(row.items())) for row in rows)


def latest_per_key(rows: list[dict], key: str) -> list[dict]:
    """What an upsert table holds: the last row sent for each key."""
    return list({row[key]: row for row in rows}.values())


def realtime_rows(
    sent, dropped=frozenset(), expired=frozenset(), identity="ts", dedup=False, key=None
) -> list[dict]:
    """What a realtime table holds after ingesting ``sent``: every row but
    those at an ``expired`` index (gone from the log before they were
    durable) or whose ``identity`` is ``dropped`` (with their segment); a
    dedup table holds a re-sent row once, an upsert table the last per ``key``."""
    kept, seen = [], set()
    for index, row in enumerate(sent):
        if index in expired or (dedup and row[identity] in seen):
            continue
        seen.add(row[identity])
        kept.append(row)
    kept = [row for row in kept if row[identity] not in dropped]
    return latest_per_key(kept, key) if key else kept


def execute(sql: str, tables: dict[str, list[dict]]) -> list[dict]:
    """The rows ``PrestoEngine.execute(sql).rows`` must be over a catalog
    whose table ``name`` holds ``tables[name]``."""
    return _select(parse(sql), tables)


def _cell(row: dict, node, joined: bool):
    if isinstance(node, Literal):
        return node.value
    if not joined:
        return row.get(node.name)
    if node.table:
        return row.get(f"{node.table}.{node.name}")
    found = [v for k, v in row.items() if k.endswith(f".{node.name}")]
    if len(found) > 1:
        raise ValueError(f"ambiguous column {node.name!r}")
    return found[0] if found else None


def _test(node, row: dict, joined: bool) -> bool:
    if isinstance(node, BoolOp):
        combine = all if node.op == "AND" else any
        return combine(_test(operand, row, joined) for operand in node.operands)
    right = node.right and _cell(row, node.right, joined)
    return _holds(node, _cell(row, node.left, joined), right)


def _name(func, select) -> str:
    if isinstance(func, Column):
        return func.name
    for item in select.items:
        if item.expr == func and item.alias:
            return item.alias
    arg = func.args[0].name if func.args and isinstance(func.args[0], Column) else "*"
    return f"{func.name.lower()}{'_distinct' if func.distinct else ''}({arg})"


def _source(ref, tables) -> tuple[str, list[dict]]:
    if isinstance(ref, SubqueryRef):
        return ref.alias, _select(ref.select, tables)
    return ref.alias or ref.name, tables[ref.name]


def _select(select, tables) -> list[dict]:
    if select.window() is not None:
        raise ValueError("TUMBLE / HOP windows are streaming SQL")
    joined = bool(select.joins)
    read = lambda row, node: _cell(row, node, joined)
    alias, rows = _source(select.source, tables)
    if joined:
        rows = [{f"{alias}.{k}": v for k, v in row.items()} for row in rows]
    for join in select.joins:
        right_alias, right = _source(join.table, tables)
        mine, theirs = join.left_key, join.right_key
        if mine.table == right_alias:  # ON may name either side first
            mine, theirs = theirs, mine
        rows = [
            {**row, **{f"{right_alias}.{k}": v for k, v in match.items()}}
            for row in rows
            for match in right
            if read(row, mine) is not None and read(row, mine) == match.get(theirs.name)
        ]
    if select.where is not None:
        rows = [row for row in rows if _test(select.where, row, joined)]
    if select.aggregations():
        aggregates = []
        for func, alias in select.aggregations():
            star = not func.args or isinstance(func.args[0], Star)
            name = "DISTINCTCOUNT" if func.distinct else func.name
            ref = None if star else func.args[0]
            aggregates.append((alias or _name(func, select), name, ref))
        groups = select.group_columns()
        rows = _fold(rows, [c.name for c in groups], groups, aggregates, read)
        if select.having is not None:
            rows = [row for row in rows if _test(select.having, row, False)]
    else:
        rows = [_project(select.items, row, joined) for row in rows]
    keys = [(_name(expr, select), desc) for expr, desc in select.order_by]
    return _order(rows, keys, select.limit)


def _project(items, row: dict, joined: bool) -> dict:
    out = {}
    for item in items:
        if isinstance(item.expr, Star):
            out.update(row)
        elif isinstance(item.expr, Column):
            out[item.alias or item.expr.name] = _cell(row, item.expr, joined)
        else:
            out[item.alias or str(item.expr.value)] = item.expr.value
    return out
