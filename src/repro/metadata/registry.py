"""Versioned schema registry with backward-compatibility enforcement.

Section 3's metadata layer: "ability to version the metadata and have
checks for ensuring backward compatibility across versions."  This is the
centralized repository that Section 9.4 calls the source of truth for
schemas across Kafka, Pinot and Hive.
"""

from __future__ import annotations

from repro.common.errors import SchemaCompatibilityError, SchemaError
from repro.metadata.schema import Schema, is_backward_compatible


class SchemaRegistry:
    """Stores every version of every subject's schema.

    A *subject* is a dataset name (a Kafka topic, a Pinot table, a Hive
    table).  Registration of a new version is rejected unless it is
    backward compatible with the latest registered version, unless the
    subject was registered with ``compatibility="none"``.
    """

    def __init__(self) -> None:
        self._versions: dict[str, list[Schema]] = {}
        self._compatibility: dict[str, str] = {}

    def register(self, subject: str, schema: Schema, compatibility: str = "backward") -> int:
        """Register a schema version; returns the assigned version number."""
        if compatibility not in ("backward", "none"):
            raise SchemaError(f"unknown compatibility mode {compatibility!r}")
        versions = self._versions.setdefault(subject, [])
        if subject not in self._compatibility:
            self._compatibility[subject] = compatibility
        if versions and self._compatibility[subject] == "backward":
            problems = is_backward_compatible(versions[-1], schema)
            if problems:
                raise SchemaCompatibilityError(
                    f"schema for {subject!r} v{len(versions) + 1} is not "
                    f"backward compatible: {'; '.join(problems)}"
                )
        version = len(versions) + 1
        registered = Schema(
            name=schema.name, fields=schema.fields, version=version, doc=schema.doc
        )
        versions.append(registered)
        return version

    def latest(self, subject: str) -> Schema:
        versions = self._versions.get(subject)
        if not versions:
            raise SchemaError(f"no schema registered for subject {subject!r}")
        return versions[-1]

    def get(self, subject: str, version: int) -> Schema:
        versions = self._versions.get(subject)
        if not versions:
            raise SchemaError(f"no schema registered for subject {subject!r}")
        if not 1 <= version <= len(versions):
            raise SchemaError(
                f"subject {subject!r} has versions 1..{len(versions)}, "
                f"requested {version}"
            )
        return versions[version - 1]

    def subjects(self) -> list[str]:
        return sorted(self._versions)

    def versions(self, subject: str) -> int:
        return len(self._versions.get(subject, []))
