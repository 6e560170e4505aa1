import enum
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SchemaError
from repro.metadata.schema import (
    Field,
    FieldRole,
    FieldType,
    Schema,
    infer_schema,
    is_backward_compatible,
)


def make_schema(*fields: Field) -> Schema:
    return Schema("t", tuple(fields))


class TestFieldType:
    def test_long_accepts_int_not_bool(self):
        assert FieldType.LONG.accepts(5)
        assert not FieldType.LONG.accepts(True)

    def test_double_accepts_int_and_float(self):
        assert FieldType.DOUBLE.accepts(5)
        assert FieldType.DOUBLE.accepts(5.5)

    def test_none_always_accepted(self):
        assert FieldType.STRING.accepts(None)

    def test_string_rejects_number(self):
        assert not FieldType.STRING.accepts(5)

    def test_json_accepts_structures(self):
        assert FieldType.JSON.accepts({"a": [1]})


class TestSchema:
    def test_duplicate_field_names_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(Field("a", FieldType.INT), Field("a", FieldType.STRING))

    def test_field_lookup(self):
        schema = make_schema(Field("a", FieldType.INT))
        assert schema.field("a").type is FieldType.INT
        with pytest.raises(SchemaError):
            schema.field("missing")

    def test_time_field(self):
        schema = make_schema(
            Field("a", FieldType.INT),
            Field("ts", FieldType.DOUBLE, FieldRole.TIME),
        )
        assert schema.time_field().name == "ts"

    def test_validate_rejects_wrong_type(self):
        schema = make_schema(Field("a", FieldType.INT))
        with pytest.raises(SchemaError):
            schema.validate({"a": "not-an-int"})

    def test_validate_missing_required(self):
        schema = make_schema(Field("a", FieldType.INT, nullable=False))
        with pytest.raises(SchemaError):
            schema.validate({})

    def test_validate_missing_nullable_ok(self):
        schema = make_schema(Field("a", FieldType.INT, nullable=True))
        schema.validate({})

    def test_conform_fills_defaults_and_drops_extras(self):
        schema = make_schema(Field("a", FieldType.INT, default=7))
        row = schema.conform({"b": "extra"})
        assert row == {"a": 7}

    def test_evolve_bumps_version(self):
        schema = make_schema(Field("a", FieldType.INT))
        evolved = schema.evolve(schema.fields + (Field("b", FieldType.STRING),))
        assert evolved.version == 2
        assert evolved.has_field("b")


class Color(enum.IntEnum):
    RED = 1


class Tag(str):
    pass


MISSING = object()
#: Cells of every kind a row can hold: each type's exact class, ``bool``,
#: ``None``, absent, subclasses of accepted classes, and plain wrong types.
CELLS = (
    7, 2.5, "s", b"b", True, False, None, MISSING, {"a": 1}, [1],
    Color.RED, Tag("t"), OrderedDict(a=1), (1, 2), 1j, object(),
)  # fmt: skip
#: (nullable, default): nullable, required, required-but-defaulted.
MODES = ((True, None), (False, None), (False, 0))


def reference_error(fields: list[Field], row: dict) -> str | None:
    """The field-by-field rule ``validate`` must keep, written out with
    its own isinstance ladder; the message of the first failing field."""

    def accepts(ftype: FieldType, value) -> bool:
        if ftype in (FieldType.INT, FieldType.LONG):
            return isinstance(value, int) and not isinstance(value, bool)
        if ftype in (FieldType.FLOAT, FieldType.DOUBLE):
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if ftype is FieldType.STRING:
            return isinstance(value, str)
        if ftype is FieldType.BOOLEAN:
            return isinstance(value, bool)
        if ftype is FieldType.BYTES:
            return isinstance(value, bytes)
        return isinstance(value, (dict, list, str, int, float, bool))  # JSON

    for f in fields:
        if f.name not in row or row[f.name] is None:
            if not f.nullable and f.default is None:
                return f"row missing non-nullable field {f.name!r} (schema t v1)"
            continue
        if not accepts(f.type, row[f.name]):
            return (
                f"field {f.name!r} expects {f.type.value}, got "
                f"{type(row[f.name]).__name__} (schema t)"
            )
    return None


class TestCompiledValidate:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(FieldType)),
                st.sampled_from(MODES),
                st.sampled_from(CELLS),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_raises_exactly_when_the_field_rules_do(self, spec):
        fields = [
            Field(f"f{i}", ftype, nullable=nullable, default=default)
            for i, (ftype, (nullable, default), __) in enumerate(spec)
        ]
        cells = [(f"f{i}", cell) for i, (__, __, cell) in enumerate(spec)]
        row = {name: cell for name, cell in cells if cell is not MISSING}
        try:
            make_schema(*fields).validate(row)
            got = None
        except SchemaError as exc:
            got = str(exc)
        assert got == reference_error(fields, row)

    @pytest.mark.parametrize("ftype", list(FieldType))
    @pytest.mark.parametrize("cell", CELLS, ids=repr)
    def test_accepts_agrees_with_the_reference_per_cell(self, ftype, cell):
        if cell is MISSING:
            return
        field = Field("f0", ftype)
        assert ftype.accepts(cell) is (reference_error([field], {"f0": cell}) is None)

    def test_exact_cells_never_reach_the_subclass_rule(self, monkeypatch):
        schema = make_schema(
            Field("a", FieldType.LONG, nullable=False),
            Field("b", FieldType.DOUBLE),
            Field("c", FieldType.STRING, nullable=False, default="x"),
            Field("d", FieldType.JSON),
        )
        calls = []
        accepts = FieldType.accepts
        monkeypatch.setattr(
            FieldType, "accepts", lambda self, v: calls.append(v) or accepts(self, v)
        )
        schema.validate({"a": 1, "b": 2.5, "d": {"k": [1]}, "extra": object()})
        assert calls == []
        schema.validate({"a": Color.RED, "b": 2})  # a subclass: the rule decides
        assert Color.RED in calls

    def test_the_compiled_table_is_not_a_field(self):
        a = make_schema(Field("a", FieldType.INT))
        b = make_schema(Field("a", FieldType.INT))
        assert a == b and hash(a) == hash(b)
        assert "exact" not in repr(a)
        evolved = a.evolve((Field("a", FieldType.INT), Field("b", FieldType.STRING)))
        evolved.validate({"a": 1, "b": "s"})
        with pytest.raises(SchemaError, match="expects string, got int"):
            evolved.validate({"a": 1, "b": 2})


class TestBackwardCompatibility:
    def test_adding_nullable_field_ok(self):
        old = make_schema(Field("a", FieldType.INT))
        new = make_schema(Field("a", FieldType.INT), Field("b", FieldType.STRING))
        assert is_backward_compatible(old, new) == []

    def test_adding_required_field_breaks(self):
        old = make_schema(Field("a", FieldType.INT))
        new = make_schema(
            Field("a", FieldType.INT),
            Field("b", FieldType.STRING, nullable=False),
        )
        assert is_backward_compatible(old, new)

    def test_adding_required_with_default_ok(self):
        old = make_schema(Field("a", FieldType.INT))
        new = make_schema(
            Field("a", FieldType.INT),
            Field("b", FieldType.STRING, nullable=False, default="x"),
        )
        assert is_backward_compatible(old, new) == []

    def test_type_change_breaks(self):
        old = make_schema(Field("a", FieldType.INT))
        new = make_schema(Field("a", FieldType.STRING))
        problems = is_backward_compatible(old, new)
        assert any("changed type" in p for p in problems)

    def test_removing_required_field_breaks(self):
        old = make_schema(Field("a", FieldType.INT, nullable=False))
        new = make_schema(Field("b", FieldType.INT))
        problems = is_backward_compatible(old, new)
        assert any("removed" in p for p in problems)

    def test_removing_nullable_field_ok(self):
        old = make_schema(Field("a", FieldType.INT, nullable=True))
        new = make_schema(Field("b", FieldType.INT))
        # removing 'a' is fine; adding nullable 'b' is fine
        assert is_backward_compatible(old, new) == []


class TestInference:
    def test_infers_types_and_roles(self):
        rows = [
            {"city": "sf", "amount": 3.5, "event_time": 100.0},
            {"city": "nyc", "amount": 5, "event_time": 101.0},
        ]
        schema = infer_schema("t", rows)
        assert schema.field("city").type is FieldType.STRING
        assert schema.field("city").role is FieldRole.DIMENSION
        assert schema.field("amount").role is FieldRole.METRIC
        assert schema.field("event_time").role is FieldRole.TIME

    def test_numeric_widening(self):
        rows = [{"x": 1}, {"x": 2.5}]
        assert infer_schema("t", rows).field("x").type is FieldType.DOUBLE

    def test_mixed_types_become_json(self):
        rows = [{"x": 1}, {"x": "str"}]
        assert infer_schema("t", rows).field("x").type is FieldType.JSON

    def test_zero_rows_rejected(self):
        with pytest.raises(SchemaError):
            infer_schema("t", [])

    def test_only_one_time_column(self):
        rows = [{"ts": 1.0, "event_time": 2.0, "v": "x"}]
        schema = infer_schema("t", rows)
        time_fields = [f for f in schema.fields if f.role is FieldRole.TIME]
        assert len(time_fields) == 1
