import pytest

from repro.common.errors import IncomparableError, QueryError
from repro.common.relational import aggregate_rule
from repro.common.rng import seeded_rng
from repro.pinot.query import (
    Aggregation,
    Filter,
    PinotQuery,
    execute_on_segment,
    group_fold,
)
from repro.pinot.segment import ImmutableSegment, IndexConfig, MutableSegment
from repro.pinot.startree import StarTree, StarTreeConfig
from tests.reference.query import evaluate


def make_rows(n=1000, cities=4, products=3):
    rng = seeded_rng(5)
    return [
        {
            "city": f"city-{rng.randrange(cities)}",
            "product": f"prod-{rng.randrange(products)}",
            "amount": float(rng.randrange(1, 100)),
            "ts": float(i),
        }
        for i in range(n)
    ]


class TestStarTree:
    def _tree(self, rows=None):
        rows = rows if rows is not None else make_rows()
        config = StarTreeConfig(
            dimensions=["city", "product"], metrics=["amount"], max_leaf_records=32
        )
        return rows, StarTree(rows, config)

    def test_group_by_counts_match_scan(self):
        rows, tree = self._tree()
        result, __ = tree.query(group_by=["city"])
        for (city,), entry in result.items():
            truth = sum(1 for r in rows if r["city"] == city)
            assert entry["count"] == truth

    def test_filter_plus_sum_matches_scan(self):
        rows, tree = self._tree()
        result, __ = tree.query(
            filters={"city": "city-1"}, group_by=["product"], sum_metric="amount"
        )
        for (product,), entry in result.items():
            truth = sum(
                r["amount"]
                for r in rows
                if r["city"] == "city-1" and r["product"] == product
            )
            assert entry["sum"] == pytest.approx(truth)

    def test_group_by_order_respects_request(self):
        rows, tree = self._tree()
        result, __ = tree.query(group_by=["product", "city"])
        key = next(iter(result))
        assert key[0].startswith("prod-")
        assert key[1].startswith("city-")

    def test_work_is_sublinear(self):
        rows, tree = self._tree(make_rows(5000))
        __, stats = tree.query(filters={"city": "city-0"}, group_by=["product"])
        assert stats.nodes_visited + stats.docs_scanned < len(rows) / 5

    def test_uncovered_dimension_raises(self):
        __, tree = self._tree()
        with pytest.raises(QueryError):
            tree.query(filters={"unknown": 1})
        with pytest.raises(QueryError):
            tree.query(sum_metric="ts")

    def test_global_aggregate_uses_root(self):
        rows, tree = self._tree()
        result, stats = tree.query()
        assert result[()]["count"] == len(rows)
        assert stats.docs_scanned == 0  # star path only


class TestSegmentExecution:
    def _segment(self, rows=None):
        rows = rows if rows is not None else make_rows(500)
        columns = {k: [r[k] for r in rows] for k in rows[0]}
        return rows, ImmutableSegment(
            "s",
            columns,
            IndexConfig(
                inverted=frozenset({"city"}),
                range_indexed=frozenset({"amount"}),
                sort_column="ts",
            ),
        )

    def test_inverted_path_used_for_equality(self):
        rows, segment = self._segment()
        result = execute_on_segment(
            segment,
            PinotQuery("t", aggregations=[Aggregation("COUNT")],
                       filters=[Filter("city", "=", "city-2")]),
        )
        assert result.plan.access_paths == ["inverted:city"]
        truth = sum(1 for r in rows if r["city"] == "city-2")
        assert result.groups[()][0] == truth

    def test_sorted_path_used_for_time(self):
        rows, segment = self._segment()
        result = execute_on_segment(
            segment,
            PinotQuery("t", aggregations=[Aggregation("COUNT")],
                       filters=[Filter("ts", "BETWEEN", low=100.0, high=199.0)]),
        )
        assert result.plan.access_paths == ["sorted:ts"]
        assert result.groups[()][0] == 100

    def test_range_path_with_boundary_refinement(self):
        rows, segment = self._segment()
        result = execute_on_segment(
            segment,
            PinotQuery("t", aggregations=[Aggregation("COUNT")],
                       filters=[Filter("amount", ">=", 50.0)]),
        )
        assert result.plan.access_paths == ["range:amount"]
        truth = sum(1 for r in rows if r["amount"] >= 50.0)
        assert result.groups[()][0] == truth

    def test_scan_fallback_for_unindexed(self):
        rows, segment = self._segment()
        result = execute_on_segment(
            segment,
            PinotQuery("t", aggregations=[Aggregation("COUNT")],
                       filters=[Filter("product", "=", "prod-1")]),
        )
        assert result.plan.access_paths == ["scan:product"]

    def test_conjunctive_filters_intersect(self):
        rows, segment = self._segment()
        result = execute_on_segment(
            segment,
            PinotQuery(
                "t",
                aggregations=[Aggregation("COUNT")],
                filters=[
                    Filter("city", "=", "city-0"),
                    Filter("amount", "<", 50.0),
                ],
            ),
        )
        truth = sum(
            1 for r in rows if r["city"] == "city-0" and r["amount"] < 50.0
        )
        assert result.groups[()][0] == truth

    def test_group_by_aggregations(self):
        rows, segment = self._segment()
        result = execute_on_segment(
            segment,
            PinotQuery(
                "t",
                aggregations=[
                    Aggregation("SUM", "amount"),
                    Aggregation("AVG", "amount"),
                    Aggregation("MIN", "amount"),
                    Aggregation("MAX", "amount"),
                    Aggregation("DISTINCTCOUNT", "product"),
                ],
                group_by=["city"],
            ),
        )
        for key, states in result.groups.items():
            city_rows = [r for r in rows if r["city"] == key[0]]
            amounts = [r["amount"] for r in city_rows]
            finals = [
                aggregate_rule(a.func, a.column).final(s)
                for a, s in zip(
                    [
                        Aggregation("SUM", "amount"),
                        Aggregation("AVG", "amount"),
                        Aggregation("MIN", "amount"),
                        Aggregation("MAX", "amount"),
                        Aggregation("DISTINCTCOUNT", "product"),
                    ],
                    states,
                )
            ]
            assert finals[0] == pytest.approx(sum(amounts))
            assert finals[1] == pytest.approx(sum(amounts) / len(amounts))
            assert finals[2] == min(amounts)
            assert finals[3] == max(amounts)
            assert finals[4] == len({r["product"] for r in city_rows})

    def test_selection_query_returns_rows(self):
        rows, segment = self._segment()
        result = execute_on_segment(
            segment,
            PinotQuery("t", select_columns=["city", "amount"],
                       filters=[Filter("city", "=", "city-3")]),
        )
        selected = result.page.to_rows()  # a selection is one page
        assert selected
        assert all(set(r) == {"city", "amount"} for r in selected)
        assert all(r["city"] == "city-3" for r in selected)

    def test_valid_doc_ids_restrict_results(self):
        rows, segment = self._segment()
        result = execute_on_segment(
            segment,
            PinotQuery("t", aggregations=[Aggregation("COUNT")]),
            valid_doc_ids={0, 1, 2},
        )
        assert result.groups[()][0] == 3

    def test_mutable_segment_scans(self):
        mutable = MutableSegment("consuming")
        for r in make_rows(50):
            mutable.append(r)
        result = execute_on_segment(
            mutable,
            PinotQuery("t", aggregations=[Aggregation("COUNT")],
                       filters=[Filter("city", "=", "city-0")]),
        )
        assert result.plan.access_paths == ["scan:city"]

    def test_startree_used_when_attached(self):
        rows, __ = self._segment()
        columns = {k: [r[k] for r in rows] for k in rows[0]}
        segment = ImmutableSegment("s", columns)
        segment.startree = StarTree(
            rows,
            StarTreeConfig(dimensions=["city", "product"], metrics=["amount"]),
        )
        result = execute_on_segment(
            segment,
            PinotQuery("t", aggregations=[Aggregation("SUM", "amount")],
                       filters=[Filter("city", "=", "city-1")],
                       group_by=["product"]),
        )
        assert result.plan.used_startree
        truth = {}
        for r in rows:
            if r["city"] == "city-1":
                truth[r["product"]] = truth.get(r["product"], 0.0) + r["amount"]
        for key, states in result.groups.items():
            assert states[0] == pytest.approx(truth[key[0]])

    def test_startree_counts_a_column_only_when_it_has_no_null(self):
        rows = make_rows(200)
        for r in rows[::4]:
            r["amount"] = None
        columns = {k: [r[k] for r in rows] for k in rows[0]}
        segment = ImmutableSegment("s", columns)
        segment.startree = StarTree(
            rows, StarTreeConfig(dimensions=["city", "product"], metrics=[])
        )
        answers = {}
        for column in (None, "product", "amount"):
            result = execute_on_segment(
                segment, PinotQuery("t", aggregations=[Aggregation("COUNT", column)])
            )
            answers[column] = (result.plan.used_startree, result.groups[()][0])
        # Parent commit: COUNT(amount) took the tree too and answered 200.
        assert answers == {
            None: (True, 200),
            "product": (True, 200),
            "amount": (False, 150),
        }

    @pytest.mark.parametrize(
        "flt",
        [
            Filter("ts", ">", None),
            Filter("ts", "=", "noon"),
            Filter("ts", "BETWEEN", low=None, high=5.0),
            Filter("amount", ">", None),  # parent: the range index read "unbounded"
            Filter("amount", "BETWEEN", low=None, high=50.0),
            Filter("city", "=", None),
            Filter("city", "IN", values=(None, 5)),
        ],
    )
    def test_an_index_answers_what_the_scan_answers(self, flt):
        rows, indexed = self._segment()
        bare = ImmutableSegment("s", {k: [r[k] for r in rows] for k in rows[0]})
        query = PinotQuery("t", aggregations=[Aggregation("COUNT")], filters=[flt])
        assert execute_on_segment(indexed, query).groups == {}
        assert execute_on_segment(bare, query).groups == {}

    @pytest.mark.parametrize(
        "flt",
        [Filter("ts", ">", "noon"), Filter("amount", "BETWEEN", low="a", high="b")],
    )
    def test_an_index_refuses_what_the_scan_refuses(self, flt):
        __, indexed = self._segment()
        query = PinotQuery("t", aggregations=[Aggregation("COUNT")], filters=[flt])
        with pytest.raises(IncomparableError, match=repr(flt.column)):
            execute_on_segment(indexed, query)

    def test_merge_agg_states(self):
        avg = aggregate_rule("AVG", "x")
        assert avg.final(avg.merge([10.0, 2], [20.0, 3])) == 6.0


class TestTheTreeDeclinesWhatItCannotSay:
    """The tree keys its filters by column, so a column filtered twice or
    to NULL is a question it cannot ask: it declines, and the scan
    answers."""

    ROWS = [
        {"city": city, "amount": amount}
        for city, amount in [
            ("a", 1.0), ("b", 2.0), (None, 4.0), ("b", 6.0), ("a", 8.0), ("c", 16.0)
        ]
    ]

    @pytest.mark.parametrize(
        "filters, aggregation",
        [
            # Parent commit: the tree answered the last conjunct alone, 8.0.
            ([Filter("city", "=", "a"), Filter("city", "=", "b")],
             Aggregation("SUM", "amount")),
            # Parent commit: the tree counted the NULL-city doc, 1.
            ([Filter("city", "=", None)], Aggregation("COUNT")),
        ],
    )
    def test_the_tree_answers_what_the_scan_answers(self, filters, aggregation):
        columns = {k: [r[k] for r in self.ROWS] for k in self.ROWS[0]}
        treed, bare = ImmutableSegment("s", columns), ImmutableSegment("s", columns)
        treed.startree = StarTree(
            self.ROWS, StarTreeConfig(dimensions=["city"], metrics=["amount"])
        )
        query = PinotQuery("t", aggregations=[aggregation], filters=filters)

        def finished(segment):
            partial = execute_on_segment(segment, query)
            fold = group_fold(query)
            fold.merge(partial.groups)
            return partial.plan.used_startree, fold.rows()

        expected = evaluate(query, self.ROWS)
        assert finished(bare) == (False, expected)
        assert finished(treed) == (False, expected)
