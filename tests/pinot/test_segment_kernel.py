"""The column-at-a-time segment kernel (``execute_on_segment``).

The same rows, sealed and consuming, must answer what the plain-Python
reference says — through the code-space range filter and both of its
short-circuits (no value matches; every cell matches), with and without
NULL cells — and a mistake in the query must raise the same typed error
whatever the data holds.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import IncomparableError, QueryError, ReproError
from repro.common.perf import measured
from repro.pinot.query import (
    Aggregation,
    Filter,
    PinotQuery,
    execute_on_segment,
    group_fold,
)
from repro.pinot.segment import BitPackedArray, IndexConfig, MutableSegment
from tests.reference.query import canonical, evaluate

COLUMNS = ["k", "n", "m", "s"]


def make_rows(count: int = 60) -> list[dict]:
    """``n`` has no NULL, ``m`` has some; both are exact in binary."""
    return [
        {
            "k": f"k{i % 4}",
            "n": (i * 7 % 40) / 4,
            "m": None if i % 6 == 0 else float(i % 9),
            "s": None if i % 11 == 0 else f"s{i % 5}",
        }
        for i in range(count)
    ]


def both_forms(rows: list[dict], index_config: IndexConfig | None = None):
    consuming = MutableSegment("seg", column_names=list(COLUMNS))
    for row in rows:
        consuming.append(dict(row))
    return {"consuming": consuming, "sealed": consuming.seal(index_config)}


def answer(segment, query: PinotQuery) -> tuple[list[dict], object]:
    """One segment's partial, finished the way the broker would."""
    partial = execute_on_segment(segment, query)
    if query.is_aggregation():
        fold = group_fold(query)
        fold.merge(partial.groups)
        return fold.rows(), partial.plan
    return (partial.page.to_rows() if partial.page else []), partial.plan


ROWS = make_rows()
FORMS = both_forms(ROWS)
AGGS = [
    Aggregation("COUNT"),
    Aggregation("COUNT", "m"),
    Aggregation("SUM", "n"),
    Aggregation("AVG", "m"),
    Aggregation("MIN", "s"),
    Aggregation("MAX", "n"),
    Aggregation("DISTINCTCOUNT", "s"),
]
# Every value of n lies in [0, 9.75] and every value of m in [0, 8].
RANGE_FILTERS = {
    "partial": Filter("n", ">=", 5.0),
    "partial-between": Filter("m", "BETWEEN", low=2.0, high=5.0),
    "none-match": Filter("n", ">", 100.0),
    "none-match-nulls": Filter("m", "<", -1.0),
    "all-match": Filter("n", "<=", 100.0),
    "all-match-nulls": Filter("m", ">=", 0.0),  # every cell but the NULLs
    "all-match-between": Filter("n", "BETWEEN", low=-math.inf, high=math.inf),
    "strings": Filter("s", ">", "s1"),
    "inverted-between": Filter("n", "BETWEEN", low=6.0, high=2.0),
    "nan": Filter("n", ">=", math.nan),
    "null": Filter("n", "<", None),
}


@pytest.mark.parametrize("form", list(FORMS))
@pytest.mark.parametrize("name", list(RANGE_FILTERS))
@pytest.mark.parametrize("group_by", [[], ["k"], ["k", "s"]])
def test_aggregations_answer_the_reference(form, name, group_by):
    query = PinotQuery(
        "t",
        aggregations=AGGS,
        filters=[RANGE_FILTERS[name], Filter("k", "!=", "k3")],
        group_by=group_by,
        limit=0,
    )
    rows, plan = answer(FORMS[form], query)
    assert repr(rows) == repr(evaluate(query, ROWS))
    # (A sealed conjunction stops at the first filter nothing survives.)
    assert plan.access_paths[0] == "scan:" + query.filters[0].column


@pytest.mark.parametrize("form", list(FORMS))
@pytest.mark.parametrize("name", list(RANGE_FILTERS))
def test_selections_answer_the_reference(form, name):
    query = PinotQuery(
        "t", select_columns=["k", "m"], filters=[RANGE_FILTERS[name]], limit=0
    )
    rows, __ = answer(FORMS[form], query)
    assert canonical(rows) == canonical(evaluate(query, ROWS))


def test_the_short_circuits_decode_nothing():
    sealed = FORMS["sealed"]
    for name, decoded in [
        ("none-match", 0),
        ("none-match-nulls", 0),
        ("all-match", 0),
        ("all-match-between", 0),
        ("all-match-nulls", len(ROWS)),  # NULLs must be swept out
        ("partial", len(ROWS)),
    ]:
        query = PinotQuery("t", select_columns=["k"], filters=[RANGE_FILTERS[name]])
        with measured() as window:
            partial = execute_on_segment(sealed, query)
            counts = window.counts
        # Selecting ``k`` gathers one more column when anything matched.
        gathered = len(ROWS) if partial.page is not None else 0
        assert counts.get("pinot.cells_decoded", 0) == decoded + gathered, name
        assert counts.get("pinot.filter_evals", 0) == 0, name  # two bisects
        assert partial.plan.docs_examined == len(ROWS)  # evidence reads as a scan


@pytest.mark.parametrize("form", list(FORMS))
def test_a_literal_that_does_not_order_raises_the_typed_error(form):
    query = PinotQuery(
        "t", aggregations=[Aggregation("COUNT")], filters=[Filter("n", ">", "x")]
    )
    with pytest.raises(IncomparableError, match="'n' > str: a float cell"):
        execute_on_segment(FORMS[form], query)


def test_indexed_paths_answer_the_reference():
    config = IndexConfig(
        inverted=frozenset({"k"}), range_indexed=frozenset({"m"}), sort_column="n"
    )
    sealed = both_forms(ROWS, config)["sealed"]
    for flt, path in [
        (Filter("n", ">", 5.0), "sorted:n"),
        (Filter("n", "<", 5.0), "sorted:n"),
        (Filter("n", "BETWEEN", low=2.0, high=5.0), "sorted:n"),
        (Filter("n", "=", 5.0), "sorted:n"),
        (Filter("n", ">=", "x"), "scan:n"),  # the index cannot place it ...
        (Filter("m", ">=", 3.0), "range:m"),
        (Filter("k", "IN", values=("k1", "k2")), "inverted:k"),
    ]:
        query = PinotQuery(
            "t", aggregations=AGGS, filters=[flt], group_by=["k"], limit=0
        )
        if flt.value == "x":  # ... and the scan's cell rule says why
            with pytest.raises(IncomparableError):
                execute_on_segment(sealed, query)
            continue
        rows, plan = answer(sealed, query)
        assert plan.access_paths == [path]
        assert repr(rows) == repr(evaluate(query, ROWS))


def _queries_naming(column: str, matching: bool) -> list[PinotQuery]:
    where = [Filter("k", "=", "k1" if matching else "nope")]
    return [
        PinotQuery("t", aggregations=[Aggregation("SUM", column)], filters=where),
        PinotQuery(
            "t", aggregations=[Aggregation("COUNT")], filters=where, group_by=[column]
        ),
        PinotQuery("t", select_columns=["k", column], filters=where),
        PinotQuery(
            "t",
            aggregations=[Aggregation("COUNT")],
            filters=[*where, Filter(column, ">", 1)],
        ),
    ]


@pytest.mark.parametrize("form", list(FORMS))
@pytest.mark.parametrize("matching", [False, True], ids=["no-match", "match"])
def test_an_unknown_column_is_an_error_whatever_matched(form, matching):
    for query in _queries_naming("nosuch", matching):
        with pytest.raises(QueryError, match="unknown column 'nosuch'") as caught:
            execute_on_segment(FORMS[form], query)
        assert isinstance(caught.value, ReproError)
    for query in _queries_naming("m", matching):  # the same shapes, spelled right
        execute_on_segment(FORMS[form], query)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 32), st.data())
def test_bulk_decode_is_the_per_index_read_at_every_width(width, data):
    values = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=70))
    packed = BitPackedArray(values, width)
    assert packed.decode_all() == values == [packed.get(i) for i in range(len(values))]
    picked = data.draw(st.lists(st.integers(0, len(values) - 1))) if values else []
    assert packed.gather(picked) == [values[i] for i in picked]


def test_every_width_round_trips_its_extremes():
    for width in range(1, 33):
        top = (1 << width) - 1
        values = [0, top, 1, top - 1 if top else 0, top // 2] * 3
        packed = BitPackedArray(values, width)
        assert packed.decode_all() == values == [packed.get(i) for i in range(15)]


# -- code-space grouping: both forms fold to the model -------------------------

#: Three spellings of one value, NULL, a string and two NaN objects.
KEYS = st.sampled_from([1, 1.0, True, None, "a", math.nan, float("nan")])
TAGS = st.sampled_from([None, "x", "y"])
DYADIC = st.one_of(
    st.none(), st.just(math.nan), st.integers(-64, 64).map(lambda i: i / 4)
)
FOLDED = [
    Aggregation("COUNT"),
    Aggregation("COUNT", "m"),
    Aggregation("SUM", "m"),
    Aggregation("AVG", "m"),
    Aggregation("MIN", "m"),
    Aggregation("MAX", "m"),
    Aggregation("DISTINCTCOUNT", "k"),
]
GROUPINGS = st.sampled_from([[], ["k"], ["t"], ["k", "t"], ["t", "k"]])


def _forms(rows: list[dict]) -> dict:
    consuming = MutableSegment("seg")
    for row in rows:
        consuming.append(row)
    return {"consuming": consuming, "sealed": consuming.seal()}


def _spellings(rows: list[dict]) -> int:
    return len({repr(row["k"]) for row in rows if row["k"] == 1})


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries({"k": KEYS, "t": TAGS, "m": DYADIC}),
        min_size=1,
        max_size=40,
    ),
    GROUPINGS,
    st.sampled_from([None, Filter("m", ">=", 0.0), Filter("t", "!=", "y")]),
)
def test_both_forms_group_as_the_model(rows, group_by, flt):
    """A sealed column keeps one spelling of equal cells (its first), so
    where ``1``, ``1.0`` and ``True`` share a column the model names a
    group alike only when every row is read and one column is grouped."""
    if _spellings(rows) > 1 and (flt is not None or len(group_by) > 1):
        rows = [dict(row, k=None if row["k"] == 1 else row["k"]) for row in rows]
    summed = [] if any(row["k"] == "a" for row in rows) else [Aggregation("SUM", "k")]
    query = PinotQuery(
        "t",
        aggregations=FOLDED + summed,
        filters=[flt] if flt else [],
        group_by=group_by,
        limit=0,
    )
    expected = repr(evaluate(query, rows))
    for form, segment in _forms(rows).items():
        assert repr(answer(segment, query)[0]) == expected, form


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries(
            {
                "k": st.sampled_from(["a", "b", None]),
                "t": TAGS,
                "m": st.floats(-1e6, 1e6) | st.sampled_from([0.1, 0.7]),
            }
        ),
        min_size=1,
        max_size=40,
    ),
    GROUPINGS,
)
def test_non_dyadic_floats_fold_alike_bit_for_bit(rows, group_by):
    query = PinotQuery(
        "t",
        aggregations=[Aggregation("SUM", "m"), Aggregation("AVG", "m")],
        group_by=group_by,
        limit=0,
    )
    consuming, sealed = (answer(s, query)[0] for s in _forms(rows).values())
    assert repr(sealed) == repr(consuming)
    expected = evaluate(query, rows)  # the model's own float order may differ
    assert [list(r) for r in consuming] == [list(r) for r in expected]
    for got, want in zip(consuming, expected):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-6)


@pytest.mark.parametrize("func", ["SUM", "AVG"])
@pytest.mark.parametrize("group_by", [[], ["k"], ["k", "t"]])
def test_a_string_cell_does_not_add_on_either_form(func, group_by):
    rows = [{"k": "a", "t": "x", "m": 1.5}, {"k": "b", "t": None, "m": "sf"}]
    query = PinotQuery("t", aggregations=[Aggregation(func, "m")], group_by=group_by)
    for segment in _forms(rows).values():
        with pytest.raises(IncomparableError, match=f"{func} cannot add a str cell"):
            execute_on_segment(segment, query)
