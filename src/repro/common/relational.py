"""The one owner of SQL semantics.

One dialect runs on several executors — Pinot's segment engine and broker
merge, Presto's row operators and page kernels, the FlinkSQL window
aggregate, the Hive scan, the foil stores of ``benchmarks/foils`` — and
pushing an operator down must change where it runs, never what it
answers.  So the four rules an answer depends on are written here once
and every executor calls them:

1. :class:`Predicate` — ``column <op> literal`` with the cell rule
   (:attr:`Predicate.matches`), its form over a sorted run of distinct
   values (:meth:`Predicate.code_range`: the matching index range of a
   dictionary, by two bisects) and the min/max range rule
   (:meth:`Predicate.may_match`).  A NULL cell matches no operator,
   ``!=`` and ``IN`` included, and neither does a NULL literal or bound.
   Operands that do not order raise :class:`IncomparableError` from the
   cell rule alone: the sorted form answers ``None`` and the range rule
   "may match" on any doubt, so a type error is never skipped or pruned.
2. :func:`aggregate_rule` — init / add / merge / final / copy for COUNT,
   SUM, AVG, MIN, MAX, DISTINCTCOUNT.  NULL is skipped inside ``add``:
   ``COUNT(col)`` counts non-NULL cells, SUM over none is ``0.0``,
   AVG / MIN / MAX over none is ``None``.  MIN / MAX start from their
   first value, so they order strings as well as numbers; SUM / AVG of a
   cell that does not add is an :class:`IncomparableError` too.
3. :class:`GroupFold` — group key -> states, fed a row at a time
   (:meth:`GroupFold.add`) or a column at a time
   (:meth:`GroupFold.add_columns`: same states, each aggregate sweeping
   its own column in row order, the additive ones inline), resumable
   from another fold's states (:meth:`GroupFold.resume`, which copies
   them), merged by adoption (:meth:`GroupFold.merge`, which writes into
   no state it is given), and the finisher (:meth:`GroupFold.rows`): one
   row per group, sorted by stringified key; a global aggregate over no
   input is still one row.
4. :func:`order_rows` — ORDER BY sorts on ``(is None, value)`` per key
   (NULLs last ascending, first descending), then LIMIT.

Floats fold in the order callers feed them; nothing here counts work
(callers own their ``PERF`` counters) or knows a segment, page or row.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import compress
from typing import Any, Callable, NamedTuple, Sequence

from repro.common import serde
from repro.common.errors import IncomparableError, QueryError

_BINARY = {
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


def _never(cell: Any) -> bool:
    return False


def _incomparable(column: str, op: str, cell: Any, *literals: Any) -> IncomparableError:
    against = " AND ".join(type(v).__name__ for v in literals)
    return IncomparableError(
        f"column {column!r} {op} {against}: a {type(cell).__name__} cell "
        "does not order against that literal"
    )


@dataclass(frozen=True)
class Predicate:
    """``column <op> literal``; op in {=, !=, >, >=, <, <=, IN, BETWEEN}."""

    column: str
    op: str
    value: Any = None
    values: tuple = ()  # for IN
    low: Any = None  # for BETWEEN
    high: Any = None

    @cached_property
    def canonical_bytes(self) -> bytes | None:
        """Equality-canonical bytes of the whole predicate — ``ts = 5`` and
        ``ts = 5.0``, which :attr:`matches` cannot tell apart, encode
        alike — or None when a literal is unencodable.  Encoded on first
        use: a scatter keys one predicate against every segment."""
        try:
            return serde.encode_key(
                [
                    self.column,
                    self.op,
                    self.value,
                    list(self.values),
                    self.low,
                    self.high,
                ]
            )
        except Exception:
            return None

    @cached_property
    def matches(self) -> Callable[[Any], bool]:
        """The cell rule ``matches(cell) -> bool``, bound to this
        predicate on first use so a scan dispatches on the operator once,
        not once per cell."""
        column, op = self.column, self.op
        if op == "IN":
            values = self.values
            return lambda cell: cell is not None and cell in values
        if op == "BETWEEN":
            low, high = self.low, self.high
            if low is None or high is None:
                return _never

            def between(cell: Any) -> bool:
                if cell is None:
                    return False
                try:
                    return low <= cell <= high
                except TypeError:
                    raise _incomparable(column, op, cell, low, high) from None

            return between
        test = _BINARY.get(op)
        if test is None:
            raise QueryError(f"unknown filter op {op!r}")
        value = self.value
        if value is None:
            return _never

        def compare(cell: Any) -> bool:
            if cell is None:
                return False
            try:
                return test(cell, value)
            except TypeError:
                raise _incomparable(column, op, cell, value) from None

        return compare

    @property
    def unsatisfiable(self) -> bool:
        """A NULL literal or bound: no cell can match, so an index (which
        would read the NULL as an open bound) must not be asked."""
        return self.matches is _never

    def code_range(self, ordered_values: Sequence[Any]) -> tuple[int, int] | None:
        """The cell rule over a whole sorted dictionary at once: the
        half-open index range of ``ordered_values`` — ascending, mutually
        comparable, NULL- and NaN-free — whose values :attr:`matches`, found
        by two bisects.  Range operators only; ``None`` is doubt (another
        operator, a NULL or NaN literal, a literal that does not order
        against the values): the caller asks the cell rule, which answers
        or raises as it always did."""
        op = self.op
        low, high = (self.low, self.high) if op == "BETWEEN" else (self.value,) * 2
        if low is None or high is None or low != low or high != high:
            return None
        try:
            if op in (">=", "BETWEEN"):
                start = bisect_left(ordered_values, low)
            elif op == ">":
                start = bisect_right(ordered_values, low)
            elif op in ("<", "<="):
                start = 0
            else:
                return None
            if op in ("<=", "BETWEEN"):
                stop = bisect_right(ordered_values, high)
            elif op == "<":
                stop = bisect_left(ordered_values, high)
            else:
                stop = len(ordered_values)
        except TypeError:
            return None
        return start, max(start, stop)

    def may_match(self, lo: Any, hi: Any) -> bool:
        """The range rule: could a non-NULL cell within ``[lo, hi]``
        satisfy this predicate?  False is a proof of absence; bounds the
        literal does not order against, or an unknown operator, are doubt
        and answer True.  Callers pass real bounds (no NULL, no NaN)."""
        op = self.op
        try:
            if op == "=":
                return lo <= self.value <= hi
            if op == "!=":
                # Every cell equals the zone's single value: none differs.
                return not (lo == hi == self.value)
            if op == ">":
                return hi > self.value
            if op == ">=":
                return hi >= self.value
            if op == "<":
                return lo < self.value
            if op == "<=":
                return lo <= self.value
            if op == "BETWEEN":
                # Both bounds are compared, so either one's type error is doubt.
                below, above = self.high < lo, self.low > hi
                return not (below or above)
            if op == "IN":
                return any(lo <= v <= hi for v in self.values)
        except TypeError:
            pass
        return True


# --- aggregate states ----------------------------------------------------


class AggregateRule(NamedTuple):
    """One aggregate function's mergeable state machine."""

    init: Callable[[], Any]
    add: Callable[[Any, Any], Any]  # (state, value) -> state; NULL skipped
    merge: Callable[[Any, Any], Any]
    final: Callable[[Any], Any]
    # A state ``add`` may write into (AVG's list, DISTINCTCOUNT's set) is
    # copied; a number or a MIN / MAX value is shared.
    copy: Callable[[Any], Any]


def _identity(state: Any) -> Any:
    return state


def _apply(final: Callable[[Any], Any], state: Any) -> Any:
    return final(state)


#: ``_present(cell)``: the cell is not NULL.
_present = partial(operator.is_not, None)


def _count_add(state: int, value: Any) -> int:
    return state if value is None else state + 1


def _unsummable(name: str, value: Any) -> IncomparableError:
    return IncomparableError(f"{name} cannot add a {type(value).__name__} cell")


def _sum_add(state: float, value: Any) -> float:
    if value is None:
        return state
    try:
        return state + value
    except TypeError:
        raise _unsummable("SUM", value) from None


def _avg_add(state: list, value: Any) -> list:
    if value is not None:
        try:
            state[0] += value
        except TypeError:
            raise _unsummable("AVG", value) from None
        state[1] += 1
    return state


def _distinct_add(state: set, value: Any) -> set:
    if value is not None:
        state.add(value)
    return state


def _extreme(name: str, better: Callable[[Any, Any], bool]) -> AggregateRule:
    """MIN / MAX: the state is the best value so far, ``None`` before any."""

    def add(state: Any, value: Any) -> Any:
        if value is None:
            return state
        if state is None:
            # NaN orders with nothing: it never displaces a value, so it
            # must not seed the state either.
            return value if value == value else None
        try:
            return value if better(value, state) else state
        except TypeError:
            raise IncomparableError(
                f"{name} cannot order {type(value).__name__} against "
                f"{type(state).__name__}"
            ) from None

    return AggregateRule(
        lambda: None,
        add,
        lambda a, b: b if a is None else add(a, b),
        _identity,
        _identity,
    )


_RULES = {
    "COUNT": AggregateRule(int, _count_add, operator.add, _identity, _identity),
    "SUM": AggregateRule(float, _sum_add, operator.add, _identity, _identity),
    "AVG": AggregateRule(
        lambda: [0.0, 0],
        _avg_add,
        lambda a, b: [a[0] + b[0], a[1] + b[1]],
        lambda state: state[0] / state[1] if state[1] else None,
        list,
    ),
    "MIN": _extreme("MIN", operator.lt),
    "MAX": _extreme("MAX", operator.gt),
    "DISTINCTCOUNT": AggregateRule(set, _distinct_add, operator.or_, len, set),
}


def _count_row(state: int, value: Any) -> int:
    return state + 1


_COUNT_ROWS = _RULES["COUNT"]._replace(add=_count_row)


def aggregate_rule(func: str, column: Any = None) -> AggregateRule:
    """The state machine of ``func(column)``; ``COUNT`` with no column
    (``COUNT(*)``) counts rows, whatever value it is fed."""
    if func == "COUNT" and column is None:
        return _COUNT_ROWS
    rule = _RULES.get(func)
    if rule is None:
        raise QueryError(f"unknown aggregation {func!r}")
    return rule


@lru_cache(maxsize=64)
def _fold_plan(rules: tuple[AggregateRule, ...]) -> tuple:
    """What a fold over ``rules`` reads of them, worked out once per rule
    list: inits, adds, whether every merge is ``+``, the finals (``None``
    when all are the identity) and the fresh states (``None`` unless all
    are numbers or ``None``, which one list copied can serve: a state is
    replaced, never written into)."""
    fresh = [rule.init() for rule in rules]
    shareable = all(type(state) in (int, float, type(None)) for state in fresh)
    finals = [rule.final for rule in rules]
    return (
        [rule.init for rule in rules],
        [rule.add for rule in rules],
        all(rule.merge is operator.add for rule in rules),
        None if all(final is _identity for final in finals) else finals,
        fresh if shareable else None,
    )


class GroupFold:
    """Grouped aggregation: ``groups`` maps a group-key tuple to one state
    per aggregate; the global aggregation folds under the ``()`` key."""

    def __init__(
        self,
        group_names: Sequence[str],
        aliases: Sequence[str],
        rules: Sequence[AggregateRule],
    ) -> None:
        self.group_names = list(group_names)
        self.aliases = list(aliases)  # one output name per aggregate
        self.rules = list(rules)
        self._inits, self._adds, self._additive, self._finals, fresh = _fold_plan(
            tuple(self.rules)
        )
        if fresh is not None:
            self._fresh = fresh.copy
        self.groups: dict[tuple, list[Any]] = {}

    def _fresh(self) -> list[Any]:
        return [init() for init in self._inits]

    def add(self, key: tuple, values: Sequence[Any]) -> None:
        """Fold one row: ``values[i]`` is the cell the i-th aggregate reads."""
        states = self.groups.get(key)
        if states is None:
            states = self.groups[key] = self._fresh()
        for i, add in enumerate(self._adds):
            states[i] = add(states[i], values[i])

    def add_columns(
        self,
        keys: Sequence[Any] | None,
        value_columns: Sequence[Sequence[Any] | None],
        n: int,
    ) -> None:
        """Fold ``n`` rows given as columns — what :meth:`add` over the
        same rows leaves behind.  ``keys`` holds each row's group key
        (``None``: every row folds under the global ``()``); new groups
        are made in first-seen order, then each aggregate sweeps its own
        column in row order.  COUNT(*), COUNT, SUM and AVG are swept
        inline — counts per group, sums cell by cell, so floats fold
        exactly as row by row — and MIN, MAX and DISTINCTCOUNT through
        their rule's ``add``.  A ``None`` value column is ``COUNT(*)``'s:
        no cell to read."""
        if not n:
            return
        if keys is None:
            keys = [()] * n
        groups = self.groups
        for key in dict.fromkeys(keys):
            if key not in groups:
                groups[key] = self._fresh()
        row_states = list(map(groups.__getitem__, keys))
        for i, (add, column) in enumerate(zip(self._adds, value_columns)):
            if add is _count_row or add is _count_add:
                counted = keys
                if add is _count_add:
                    counted = compress(keys, map(_present, column))
                for key, count in Counter(counted).items():
                    groups[key][i] += count
            elif add is _sum_add:
                try:
                    for states, value in zip(row_states, column):
                        if value is not None:
                            states[i] += value
                except TypeError:
                    raise _unsummable("SUM", value) from None
            elif add is _avg_add:
                try:
                    for states, value in zip(row_states, column):
                        if value is not None:
                            state = states[i]
                            state[0] += value
                            state[1] += 1
                except TypeError:
                    raise _unsummable("AVG", value) from None
            else:
                for states, value in zip(row_states, column):
                    states[i] = add(states[i], value)

    def resume(self, groups: dict[tuple, list[Any]]) -> None:
        """Start from copies of another fold's ``groups``, which stay
        unwritten: rows added next fold on top of them, in the order
        they come, exactly as if this fold had taken the other's rows
        first."""
        copies = [rule.copy for rule in self.rules]
        self.groups = {
            key: [copy(state) for copy, state in zip(copies, states)]
            for key, states in groups.items()
        }

    def merge(self, groups: dict[tuple, list[Any]]) -> None:
        """Fold another fold's ``groups`` into this one.  Into an empty
        fold the groups are adopted as they are; a group met again gets
        new merged states.  So no state merged in is ever written to,
        and a partial can be merged as often as it is served."""
        mine = self.groups
        if not mine:
            self.groups = dict(groups)
            return
        if self._additive:
            for key, states in groups.items():
                held = mine.get(key)
                mine[key] = (
                    states if held is None else list(map(operator.add, held, states))
                )
            return
        merges = [rule.merge for rule in self.rules]
        for key, states in groups.items():
            held = mine.get(key)
            mine[key] = (
                states
                if held is None
                else [merge(a, b) for merge, a, b in zip(merges, held, states)]
            )

    def rows(self) -> list[dict[str, Any]]:
        """The finisher: states -> result rows, one per group, sorted by
        stringified key."""
        names = self.group_names
        items = list(self.groups.items())
        if not names:
            items = items or [((), self._fresh())]
        elif len(names) == 1:
            text = [str(key[0]) for key, __ in items]
            items = [items[i] for i in sorted(range(len(items)), key=text.__getitem__)]
        else:
            items.sort(key=lambda item: tuple(map(str, item[0])))
        columns = [*names, *self.aliases]
        finals = self._finals
        if finals is None:
            return [dict(zip(columns, (*key, *states))) for key, states in items]
        return [
            dict(zip(columns, (*key, *map(_apply, finals, states))))
            for key, states in items
        ]


def order_rows(
    keys: Sequence[tuple[str, bool]], rows: list[dict], limit: int | None = None
) -> list[dict]:
    """ORDER BY ``keys`` (``(name, descending)``, major key first) in
    place, then LIMIT (``0`` / ``None``: no limit)."""
    for name, descending in reversed(keys):
        rows.sort(key=lambda r: (r.get(name) is None, r.get(name)), reverse=descending)
    return rows[:limit] if limit else rows
