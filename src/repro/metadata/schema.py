"""Structured schemas for streams, tables and datasets.

The metadata layer (Section 3) stores schemas for data managed by the
storage and stream layers, with versioning and backward-compatibility
checks.  Pinot also uses schemas to infer table columns from Kafka topics
(Section 4.3.3), so the field model covers both worlds: dimensions,
metrics and time columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.common.errors import SchemaError


class FieldType(Enum):
    """Primitive field types, the subset shared by Avro and Pinot."""

    STRING = "string"
    INT = "int"
    LONG = "long"
    FLOAT = "float"
    DOUBLE = "double"
    BOOLEAN = "boolean"
    BYTES = "bytes"
    JSON = "json"  # semistructured payloads (§4.3 future work)

    def accepts(self, value: Any) -> bool:
        """Whether a Python value conforms to this type (None = nullable).

        An instance of one of the type's Python classes — subclasses
        included, except that ``bool`` is an ``int`` only where the type
        lists ``bool`` itself.
        """
        if value is None:
            return True
        classes = _PYTHON_CLASSES[self]
        if isinstance(value, bool):
            return bool in classes
        return isinstance(value, classes)


#: The Python classes each field type holds; ``Schema.validate`` asks for
#: exactly these first (``type(True)`` is not ``int``, so the ``bool``
#: exclusion holds by construction) and ``accepts`` for their subclasses.
_PYTHON_CLASSES: dict[FieldType, tuple[type, ...]] = {
    FieldType.STRING: (str,),
    FieldType.INT: (int,),
    FieldType.LONG: (int,),
    FieldType.FLOAT: (int, float),
    FieldType.DOUBLE: (int, float),
    FieldType.BOOLEAN: (bool,),
    FieldType.BYTES: (bytes,),
    FieldType.JSON: (dict, list, str, int, float, bool),
}


class FieldRole(Enum):
    """How OLAP treats a column (Pinot's dimension/metric/time split)."""

    DIMENSION = "dimension"
    METRIC = "metric"
    TIME = "time"


@dataclass(frozen=True, slots=True)
class Field:
    """One named, typed field."""

    name: str
    type: FieldType
    role: FieldRole = FieldRole.DIMENSION
    nullable: bool = True
    default: Any = None


def _exact_classes(field: Field) -> tuple[type, ...]:
    """The classes a conforming cell of ``field`` has exactly — NoneType
    among them where the cell may be absent."""
    classes = _PYTHON_CLASSES[field.type]
    if field.nullable or field.default is not None:
        classes += (type(None),)
    return classes


@dataclass(frozen=True)
class Schema:
    """An ordered collection of fields describing one dataset version."""

    name: str
    fields: tuple[Field, ...]
    version: int = 1
    doc: str = ""

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate field names in {self.name}: {duplicates}")
        # Compiled once per schema object.  A derived attribute, not a
        # field, so equality, hashing, repr and ``evolve`` see nothing new.
        table = tuple((f.name, _exact_classes(f)) for f in self.fields)
        object.__setattr__(self, "_exact_classes", table)

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> Field:
        for f in self.fields:
            if f.name == name:
                return f
        raise SchemaError(f"schema {self.name} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    def time_field(self) -> Field | None:
        for f in self.fields:
            if f.role is FieldRole.TIME:
                return f
        return None

    def validate(self, row: dict[str, Any]) -> None:
        """Raise :class:`SchemaError` if a row does not conform."""
        get = row.get
        for name, exact in self._exact_classes:
            if type(get(name)) not in exact:
                break  # a subclass or an error: the field rules decide
        else:
            return
        for f in self.fields:
            if f.name not in row or row[f.name] is None:
                if not f.nullable and f.default is None:
                    raise SchemaError(
                        f"row missing non-nullable field {f.name!r} "
                        f"(schema {self.name} v{self.version})"
                    )
                continue
            if not f.type.accepts(row[f.name]):
                raise SchemaError(
                    f"field {f.name!r} expects {f.type.value}, got "
                    f"{type(row[f.name]).__name__} (schema {self.name})"
                )

    def conform(self, row: dict[str, Any]) -> dict[str, Any]:
        """Validated copy of ``row`` restricted to schema fields, with
        defaults filled in for absent nullable fields."""
        self.validate(row)
        out: dict[str, Any] = {}
        for f in self.fields:
            if f.name in row and row[f.name] is not None:
                out[f.name] = row[f.name]
            else:
                out[f.name] = f.default
        return out

    def evolve(self, fields: tuple[Field, ...], doc: str | None = None) -> "Schema":
        """Next version of this schema with a new field list."""
        return Schema(
            name=self.name,
            fields=fields,
            version=self.version + 1,
            doc=self.doc if doc is None else doc,
        )


def is_backward_compatible(old: Schema, new: Schema) -> list[str]:
    """Check that readers of ``new`` can still read data written with ``old``.

    Returns a list of human-readable problems; empty means compatible.
    Rules (mirroring Avro's backward compatibility):

    * a field may not be removed unless it was nullable or had a default;
    * a field's type may not change;
    * an added field must be nullable or carry a default.
    """
    problems: list[str] = []
    old_fields = {f.name: f for f in old.fields}
    new_fields = {f.name: f for f in new.fields}
    for name, old_field in old_fields.items():
        if name not in new_fields:
            if not old_field.nullable and old_field.default is None:
                problems.append(f"removed required field {name!r}")
            continue
        if new_fields[name].type is not old_field.type:
            problems.append(
                f"field {name!r} changed type "
                f"{old_field.type.value} -> {new_fields[name].type.value}"
            )
    for name, new_field in new_fields.items():
        if name in old_fields:
            continue
        if not new_field.nullable and new_field.default is None:
            problems.append(f"added required field {name!r} without default")
    return problems


def infer_schema(name: str, rows: list[dict[str, Any]]) -> Schema:
    """Infer a schema by sampling rows (Pinot's Kafka-topic inference,
    Section 4.3.3).  Numeric fields become metrics, ``*_time``/``timestamp``
    fields become the time column, everything else a dimension."""
    if not rows:
        raise SchemaError("cannot infer a schema from zero rows")
    types: dict[str, FieldType] = {}
    for row in rows:
        for key, value in row.items():
            observed = _python_type_to_field_type(value)
            if observed is None:
                continue
            current = types.get(key)
            if current is None:
                types[key] = observed
            elif current is not observed:
                types[key] = _widen(current, observed)
    fields = []
    time_assigned = False
    for key in sorted(types):
        ftype = types[key]
        if not time_assigned and _looks_like_time(key, ftype):
            role = FieldRole.TIME
            time_assigned = True
        elif ftype in (FieldType.INT, FieldType.LONG, FieldType.FLOAT, FieldType.DOUBLE):
            role = FieldRole.METRIC
        else:
            role = FieldRole.DIMENSION
        fields.append(Field(key, ftype, role))
    return Schema(name=name, fields=tuple(fields))


def _python_type_to_field_type(value: Any) -> FieldType | None:
    if value is None:
        return None
    if isinstance(value, bool):
        return FieldType.BOOLEAN
    if isinstance(value, int):
        return FieldType.LONG
    if isinstance(value, float):
        return FieldType.DOUBLE
    if isinstance(value, str):
        return FieldType.STRING
    if isinstance(value, bytes):
        return FieldType.BYTES
    if isinstance(value, (dict, list)):
        return FieldType.JSON
    return None


def _widen(a: FieldType, b: FieldType) -> FieldType:
    numeric = {FieldType.INT, FieldType.LONG, FieldType.FLOAT, FieldType.DOUBLE}
    if a in numeric and b in numeric:
        return FieldType.DOUBLE
    return FieldType.JSON


def _looks_like_time(name: str, ftype: FieldType) -> bool:
    numeric = ftype in (FieldType.INT, FieldType.LONG, FieldType.FLOAT, FieldType.DOUBLE)
    return numeric and (name.endswith("_time") or name in ("timestamp", "ts", "event_time"))
