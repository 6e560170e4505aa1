"""The shared SQL rules (``repro.common.relational``) as properties.

Pruning soundness — whatever a cell rule can match (or fail on), the
range rule must not rule out — is checked against the rule itself and
through both real zone builders (Pinot's ``ZoneMap``, Hive's
``ColumnStats``); partial aggregation must merge to what one fold says.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import IncomparableError, QueryError, ReproError
from repro.common.relational import GroupFold, Predicate, aggregate_rule, order_rows
from repro.pinot.segment import ImmutableSegment
from repro.storage.columnar import ColumnarFile

OPS = ("=", "!=", ">", ">=", "<", "<=")
FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX", "DISTINCTCOUNT")

# Exact in binary (multiples of 1/4), so sums do not depend on fold order.
numbers = st.one_of(
    st.integers(-40, 40),
    st.integers(-160, 160).map(lambda n: n / 4),
    st.sampled_from([math.inf, -math.inf]),
)
strings = st.text("abcxyz", max_size=3)
nan = st.just(math.nan)


def cells_of(*kinds):
    return st.lists(st.one_of(st.none(), *kinds), max_size=12)


columns = st.one_of(
    cells_of(numbers),
    cells_of(strings),
    cells_of(numbers, nan),
    cells_of(numbers, strings),
)
literals = st.one_of(st.none(), numbers, strings, nan)
in_lists = st.lists(literals, max_size=3).map(tuple)
predicates = st.one_of(
    st.builds(Predicate, st.just("c"), st.sampled_from(OPS), literals),
    st.builds(Predicate, st.just("c"), st.just("IN"), values=in_lists),
    st.builds(Predicate, st.just("c"), st.just("BETWEEN"), low=literals, high=literals),
)


def needs_scan(predicate: Predicate, cells: list) -> bool:
    """Some cell matches — or cannot be compared, which the scan must
    get to report."""
    for cell in cells:
        try:
            if predicate.matches(cell):
                return True
        except IncomparableError:
            return True
    return False


class TestPruningSoundness:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(cells_of(numbers), cells_of(strings)), predicates)
    def test_a_match_implies_may_match(self, cells, predicate):
        present = [c for c in cells if c is not None]
        if present and needs_scan(predicate, cells):
            assert predicate.may_match(min(present), max(present))

    @settings(max_examples=300, deadline=None)
    @given(columns, predicates)
    def test_neither_zone_builder_prunes_a_needed_scan(self, cells, predicate):
        if not cells or not needs_scan(predicate, cells):
            return
        assert ColumnarFile({"c": cells}).stats["c"].might_contain(predicate)
        assert ImmutableSegment("s", {"c": cells}).may_match([predicate])

    def test_a_type_error_never_prunes(self):
        assert Predicate("c", ">", 5).may_match("a", "z")
        assert Predicate("c", "BETWEEN", low="a", high="b").may_match(1, 9)
        assert Predicate("c", "LIKE", "a%").may_match(1, 9)  # unknown op: doubt

    def test_all_null_and_unusable_bounds(self):
        stats = ColumnarFile(
            {"c": [None, None], "b": [True, False], "n": [1.0, math.nan]}
        ).stats
        assert not stats["c"].might_contain(Predicate("c", "!=", 1))
        # Parent commit: bools had no bounds and no NULLs, so the file was pruned.
        assert stats["b"].might_contain(Predicate("b", "=", True))
        assert stats["n"].min_value is None
        assert stats["n"].might_contain(Predicate("n", ">", 5))


class TestCellRule:
    @given(st.one_of(numbers, strings, nan))
    def test_null_never_matches(self, literal):
        for predicate in [
            *(Predicate("c", op, literal) for op in OPS),
            Predicate("c", "IN", values=(literal, None)),
            Predicate("c", "BETWEEN", low=literal, high=literal),
        ]:
            assert predicate.matches(None) is False
        # ... and neither does a NULL literal or bound, whatever the cell.
        for predicate in [
            *(Predicate("c", op, None) for op in OPS),
            Predicate("c", "IN", values=(None,)),
            Predicate("c", "IN", values=()),
            Predicate("c", "BETWEEN", low=None, high=literal),
            Predicate("c", "BETWEEN", low=literal, high=None),
        ]:
            assert predicate.matches(literal) is False

    def test_operators(self):
        assert Predicate("c", "=", 5).matches(5.0)
        assert Predicate("c", "!=", 5).matches("five")  # equality never fails
        assert Predicate("c", "IN", values=(1, "a")).matches("a")
        assert Predicate("c", "BETWEEN", low=1, high=3).matches(3)
        assert not Predicate("c", ">", math.nan).matches(math.inf)
        with pytest.raises(QueryError, match="unknown filter op 'LIKE'"):
            Predicate("c", "LIKE", "a%").matches("a")

    @pytest.mark.parametrize(
        "predicate, cell, named",
        [
            (Predicate("city", ">", 5), "sf", ("'city'", ">", "str", "int")),
            (Predicate("n", "<=", "x"), 1.5, ("'n'", "<=", "float", "str")),
            (
                Predicate("n", "BETWEEN", low="a", high="b"),
                3,
                ("'n'", "BETWEEN", "int", "str AND str"),
            ),
        ],
    )
    def test_incomparable_operands(self, predicate, cell, named):
        with pytest.raises(IncomparableError) as caught:
            predicate.matches(cell)
        assert isinstance(caught.value, ReproError)
        for part in named:
            assert part in str(caught.value)

    def test_one_record_under_both_public_names(self):
        from repro.pinot import Filter
        from repro.sql.presto import PushedFilter

        assert Filter is PushedFilter is Predicate


RANGE_OPS = (">", ">=", "<", "<=")
range_predicates = st.one_of(
    st.builds(Predicate, st.just("c"), st.sampled_from(RANGE_OPS), literals),
    st.builds(Predicate, st.just("c"), st.just("BETWEEN"), low=literals, high=literals),
)


def dictionaries_of(kind):
    """What a sealed column's dictionary is: distinct, ascending, one kind."""
    return st.lists(kind, max_size=12, unique=True).map(sorted)


dictionaries = st.one_of(dictionaries_of(numbers), dictionaries_of(strings))
#: A dictionary with two literals of its own kind.
same_kind = st.one_of(
    st.tuples(dictionaries_of(kind), kind, kind) for kind in (numbers, strings)
)


class TestSortedValuesRule:
    """``code_range`` is the cell rule over a sorted dictionary: the same
    matches as one contiguous index run, or ``None`` — never a wrong run."""

    @settings(max_examples=500, deadline=None)
    @given(dictionaries, range_predicates)
    def test_the_run_is_exactly_what_the_cell_rule_matches(self, values, predicate):
        run = predicate.code_range(values)
        try:
            matched = [predicate.matches(v) for v in values]
        except IncomparableError:
            assert run is None  # the cell rule gets to raise
            return
        if run is None:
            return  # doubt is always allowed; the next two tests bound it
        start, stop = run
        assert 0 <= start <= stop <= len(values)
        assert matched == [start <= i < stop for i in range(len(values))]

    @given(same_kind, st.sampled_from(RANGE_OPS))
    def test_a_literal_of_the_values_kind_always_gets_a_run(self, drawn, op):
        values, low, high = drawn
        assert Predicate("c", op, low).code_range(values) is not None
        between = Predicate("c", "BETWEEN", low=low, high=high)
        assert between.code_range(values) is not None

    @given(dictionaries, st.sampled_from(RANGE_OPS), st.sampled_from([None, math.nan]))
    def test_null_and_nan_literals_are_doubt(self, values, op, literal):
        assert Predicate("c", op, literal).code_range(values) is None
        for low, high in ((literal, 1), (1, literal), (literal, literal)):
            between = Predicate("c", "BETWEEN", low=low, high=high)
            assert between.code_range(values) is None

    def test_other_operators_and_unordered_literals_are_doubt(self):
        assert Predicate("c", "=", 2).code_range([1, 2, 3]) is None
        assert Predicate("c", "!=", 2).code_range([1, 2, 3]) is None
        assert Predicate("c", "IN", values=(2,)).code_range([1, 2, 3]) is None
        assert Predicate("c", ">", "b").code_range([1, 2, 3]) is None
        assert Predicate("c", "<=", 2).code_range(["a", "b"]) is None
        # One bound orders, the other does not: still doubt.
        assert Predicate("c", "BETWEEN", low=1, high="z").code_range([1, 2]) is None

    def test_runs(self):
        values = [-math.inf, 1, 2.5, 4, math.inf]
        assert Predicate("c", ">", 2.5).code_range(values) == (3, 5)
        assert Predicate("c", ">=", 2.5).code_range(values) == (2, 5)
        assert Predicate("c", "<", -math.inf).code_range(values) == (0, 0)
        assert Predicate("c", "<=", math.inf).code_range(values) == (0, 5)
        assert Predicate("c", "BETWEEN", low=1, high=4).code_range(values) == (1, 4)
        inverted = Predicate("c", "BETWEEN", low=4, high=1).code_range(values)
        assert inverted[0] == inverted[1]  # low above high: the empty run
        assert Predicate("c", ">", "a").code_range([]) == (0, 0)


def fold(func: str, values: list):
    rule = aggregate_rule(func, "c")
    state = rule.init()
    for value in values:
        state = rule.add(state, value)
    return rule, state


class TestAggregateStates:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUNCS), cells_of(numbers, nan), cells_of(numbers, nan))
    def test_merge_of_partials_is_the_whole(self, func, a, b):
        rule, whole = fold(func, a + b)
        merged = rule.merge(fold(func, a)[1], fold(func, b)[1])
        assert repr(rule.final(merged)) == repr(rule.final(whole))

    @settings(max_examples=200, deadline=None)
    @given(
        cells_of(numbers, nan, st.sampled_from([1e16, -1e16, 0.1])),
        cells_of(numbers, st.sampled_from([1e16, -1e16, 0.1])),
    )
    def test_a_resumed_fold_is_the_whole_and_leaves_its_source_alone(self, a, b):
        rules = [aggregate_rule(f, "c") for f in FUNCS]
        key_a, key_b = [i % 3 for i in range(len(a))], [i % 3 for i in range(len(b))]
        held = GroupFold(["k"], FUNCS, rules)
        held.add_columns(list(zip(key_a)), [a] * len(FUNCS), len(a))
        before = repr(held.rows())
        resumed = GroupFold(["k"], FUNCS, rules)
        resumed.resume(held.groups)
        resumed.add_columns(list(zip(key_b)), [b] * len(FUNCS), len(b))
        # Float sums fold in the same order as one pass over a + b.
        whole = GroupFold(["k"], FUNCS, rules)
        whole.add_columns(
            list(zip(key_a + key_b)), [a + b] * len(FUNCS), len(a) + len(b)
        )
        assert repr(resumed.rows()) == repr(whole.rows())
        assert repr(held.rows()) == before

    @given(cells_of(strings), cells_of(strings))
    def test_min_max_order_strings(self, a, b):
        present = [v for v in a + b if v is not None]
        for func, best in (("MIN", min), ("MAX", max)):
            rule, whole = fold(func, a + b)
            merged = rule.merge(fold(func, a)[1], fold(func, b)[1])
            assert rule.final(merged) == rule.final(whole)
            assert rule.final(whole) == (best(present) if present else None)

    def test_null_handling(self):
        nulls = [None, None]
        finals = [fold(f, nulls)[0].final(fold(f, nulls)[1]) for f in FUNCS]
        assert finals == [0, 0.0, None, None, None, 0]
        rule, state = fold("COUNT", [1, None, 3])
        assert rule.final(state) == 2  # COUNT(col) skips NULL ...
        rows = aggregate_rule("COUNT")  # ... COUNT(*) does not
        assert rows.add(rows.add(rows.init(), None), None) == 2

    def test_min_max_corner_values(self):
        assert fold("MAX", [math.inf])[1] == math.inf  # a stored inf is an answer
        assert fold("MIN", [math.nan, 4, math.nan, 2])[1] == 2  # NaN never wins
        assert fold("MAX", [math.nan])[1] is None
        with pytest.raises(IncomparableError, match="MIN cannot order str against int"):
            fold("MIN", [1, "a"])
        with pytest.raises(QueryError, match="unknown aggregation 'MEDIAN'"):
            aggregate_rule("MEDIAN", "c")


def _fold(rows) -> GroupFold:
    out = GroupFold(
        ["k"], ["n", "hi"], [aggregate_rule("COUNT"), aggregate_rule("MAX", "v")]
    )
    for key, value in rows:
        out.add((key,), [None, value])
    return out


keys = st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["a", "b"]))
fed_rows = st.lists(
    st.tuples(keys, keys, st.one_of(st.none(), numbers, nan)), max_size=20
)


class TestColumnFeed:
    """``add_columns`` is ``add`` over the same rows: same groups, same
    states, floats folded in the same order."""

    @staticmethod
    def folds(group_names):
        aliases = [f.lower() for f in FUNCS] + ["rows"]
        rules = [aggregate_rule(f, "v") for f in FUNCS] + [aggregate_rule("COUNT")]
        return [GroupFold(group_names, aliases, rules) for __ in range(2)]

    @settings(max_examples=300, deadline=None)
    @given(fed_rows, st.integers(0, 2), st.integers(0, 20))
    def test_same_groups_as_the_row_feed(self, rows, group_columns, split):
        names = ["k1", "k2"][:group_columns]
        by_row, by_column = self.folds(names)
        for row in rows:
            by_row.add(row[:group_columns], [row[2]] * len(FUNCS) + [None])
        # Two calls: states carry over from one batch to the next.
        for batch in (rows[:split], rows[split:]):
            values = [row[2] for row in batch]
            by_column.add_columns(
                [row[:group_columns] for row in batch] if names else None,
                [values] * len(FUNCS) + [None],  # COUNT(*) reads no column
                len(batch),
            )
        assert repr(by_column.groups) == repr(by_row.groups)
        assert repr(by_column.rows()) == repr(by_row.rows())

    def test_zero_rows_create_no_group(self):
        for names in ([], ["k1"]):
            fold = self.folds(names)[0]
            fold.add_columns([] if names else None, [[]] * len(FUNCS) + [None], 0)
            assert fold.groups == {}

    @pytest.mark.parametrize("func", ["SUM", "AVG"])
    def test_a_cell_that_does_not_add_raises_the_typed_error(self, func):
        rule = aggregate_rule(func, "v")
        message = f"{func} cannot add a str cell"
        with pytest.raises(IncomparableError, match=message):
            GroupFold([], ["x"], [rule]).add((), ["sf"])
        with pytest.raises(IncomparableError, match=message):
            GroupFold(["k"], ["x"], [rule]).add_columns([(1,), (1,)], [[2.0, "sf"]], 2)


class TestFinisherAndOrder:
    def test_groups_come_in_canonical_order(self):
        rows = _fold([(10, 1), (9, 2), (None, 3), (10, 5)]).rows()
        assert rows == [  # sorted by str(key): "10" < "9" < "None"
            {"k": 10, "n": 2, "hi": 5},
            {"k": 9, "n": 1, "hi": 2},
            {"k": None, "n": 1, "hi": 3},
        ]

    def test_merging_partials(self):
        data = [(i % 3, i / 4) for i in range(12)]
        merged = _fold(data[:5])
        merged.merge(_fold(data[5:]).groups)
        assert merged.rows() == _fold(data).rows()

    def test_a_global_aggregate_over_nothing_is_one_row(self):
        rules = [aggregate_rule("COUNT"), aggregate_rule("AVG", "v")]
        assert GroupFold([], ["n", "a"], rules).rows() == [{"n": 0, "a": None}]
        assert GroupFold(["k"], ["n", "a"], rules).rows() == []

    def test_order_by_puts_nulls_last_then_limits(self):
        rows = [{"v": v, "i": i} for i, v in enumerate([2, None, 1, 2])]

        def order(keys, limit=None):
            return [r["i"] for r in order_rows(keys, list(rows), limit)]

        assert order([("v", False)]) == [2, 0, 3, 1]
        assert order([("v", True)]) == [1, 0, 3, 2]
        assert order([("v", True), ("i", True)], 2) == [1, 3]
        assert order([], 0) == [0, 1, 2, 3]
