"""Plain-Python oracles the workloads compare the stack's answers against.

Nothing here imports ``repro``: a query is evaluated by looping over the
row dicts the workload produced, and the interval join by brute force per
key, so an answer that merely agrees with the system's own code paths
cannot pass.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

_OPS = {
    "=": lambda value, literal: value == literal,
    ">=": lambda value, literal: value >= literal,
    "BETWEEN": lambda value, literal: literal[0] <= value <= literal[1],
}


def _literal(value: Any) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


@dataclass(frozen=True)
class Query:
    """One analytic query over ``rides``, renderable as SQL and evaluable
    over a list of row dicts.

    ``aggs`` are ``(function, column, alias)`` with function one of COUNT,
    SUM, AVG, MAX (``column`` is ``*`` for COUNT).  A query with ``aggs``
    groups by ``group_by`` (or is one global group); a query without
    selects ``columns``.  ``order_by`` is ``(output column, descending)``
    pairs and must be a total order for the answer to be unique.
    """

    filters: tuple[tuple[str, str, Any], ...]
    aggs: tuple[tuple[str, str, str], ...] = ()
    group_by: str | None = None
    columns: tuple[str, ...] = ()
    order_by: tuple[tuple[str, bool], ...] = ()
    limit: int | None = None

    def sql(self) -> str:
        select = [self.group_by] if self.group_by else list(self.columns)
        select += [f"{fn}({col}) AS {alias}" for fn, col, alias in self.aggs]
        where = []
        for column, op, literal in self.filters:
            if op == "BETWEEN":
                low, high = literal
                where.append(f"{column} BETWEEN {_literal(low)} AND {_literal(high)}")
            else:
                where.append(f"{column} {op} {_literal(literal)}")
        text = f"SELECT {', '.join(select)} FROM rides WHERE {' AND '.join(where)}"
        if self.group_by:
            text += f" GROUP BY {self.group_by}"
        if self.order_by:
            keys = [f"{col} {'DESC' if desc else 'ASC'}" for col, desc in self.order_by]
            text += f" ORDER BY {', '.join(keys)}"
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        return text

    def matching(self, rows: list[dict]) -> list[dict]:
        filters = self.filters
        return [
            row
            for row in rows
            if all(_OPS[op](row[column], literal) for column, op, literal in filters)
        ]

    def evaluate(self, rows: list[dict]) -> list[dict]:
        """The unique answer of an aggregate query (sorted by group key
        when the query itself imposes no order)."""
        groups: dict[Any, list[dict]] = defaultdict(list)
        for row in self.matching(rows):
            groups[row[self.group_by] if self.group_by else None].append(row)
        out = []
        for key, members in groups.items():
            result = {self.group_by: key} if self.group_by else {}
            for fn, column, alias in self.aggs:
                result[alias] = _aggregate(fn, column, members)
            out.append(result)
        for column, descending in reversed(self.order_by):
            out.sort(key=lambda r: r[column], reverse=descending)
        if not self.order_by and self.group_by:
            out.sort(key=lambda r: r[self.group_by])
        return out if self.limit is None else out[: self.limit]

    def agrees(self, got: list[dict], rows: list[dict]) -> bool:
        """Whether ``got`` is a right answer over ``rows``."""
        if not self.aggs:
            # LIMIT without ORDER BY leaves the choice of rows open: any
            # min(limit, matches) distinct matching rows are right.
            matches = self.matching(rows)
            want = len(matches) if self.limit is None else min(self.limit, len(matches))
            allowed = {tuple(row[c] for c in self.columns) for row in matches}
            return len(got) == want and all(
                tuple(row[c] for c in self.columns) in allowed for row in got
            )
        expected = self.evaluate(rows)
        if not self.order_by and self.group_by:
            got = sorted(got, key=lambda r: r[self.group_by])
        return len(got) == len(expected) and all(
            _same_row(g, e) for g, e in zip(got, expected)
        )


def _aggregate(fn: str, column: str, members: list[dict]) -> Any:
    if fn == "COUNT":
        return len(members)
    values = [row[column] for row in members]
    if not values:
        return None
    if fn == "SUM":
        return math.fsum(values)
    if fn == "AVG":
        return math.fsum(values) / len(values)
    if fn == "MAX":
        return max(values)
    raise ValueError(f"unsupported aggregate {fn}")


def _same_value(got: Any, expected: Any) -> bool:
    if isinstance(expected, (int, float)) and isinstance(got, (int, float)):
        return math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)
    return got == expected


def _same_row(got: dict, expected: dict) -> bool:
    return got.keys() == expected.keys() and all(
        _same_value(got[k], expected[k]) for k in expected
    )


def interval_join(
    lefts: list[dict],
    rights: list[dict],
    lower: float,
    upper: float,
    window: float,
) -> tuple[int, dict[tuple[str, float], float]]:
    """Pairs with equal ``id`` and ``left.ts - right.ts`` in [lower, upper];
    returns the pair count and, per (model, tumbling window start of the
    pair's time ``max(left.ts, right.ts)``), the mean absolute error."""
    rights_by_key: dict[str, list[dict]] = defaultdict(list)
    for right in rights:
        rights_by_key[right["id"]].append(right)
    errors: dict[tuple[str, float], list[float]] = defaultdict(list)
    pairs = 0
    for left in lefts:
        for right in rights_by_key.get(left["id"], ()):
            if lower <= left["ts"] - right["ts"] <= upper:
                pairs += 1
                stamp = max(left["ts"], right["ts"])
                start = math.floor(stamp / window) * window
                errors[(left["model"], start)].append(abs(left["val"] - right["obs"]))
    averages = {key: math.fsum(vals) / len(vals) for key, vals in errors.items()}
    return pairs, averages
