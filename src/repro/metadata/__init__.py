"""Metadata layer: versioned schemas, registry, catalog and lineage.

The registry and the catalog are on no path the platform runs
(``tests/test_reachability.py``), so this package does not load them:
import them from their own modules.
"""

from repro.metadata.schema import (
    Field,
    FieldRole,
    FieldType,
    Schema,
    infer_schema,
    is_backward_compatible,
)

__all__ = [
    "Field",
    "FieldRole",
    "FieldType",
    "Schema",
    "infer_schema",
    "is_backward_compatible",
]
