"""repro.common.perf.measured: sections start from zero, and nest."""

from __future__ import annotations

from repro.common.perf import PERF, measured


def test_nested_section_counts_alone_and_folds_into_the_outer_one():
    with measured() as outer:
        outer.inc("a", 5)
        with measured() as inner:
            inner.inc("a", 2)
            inner.inc("b")
            assert inner.snapshot() == {"a": 2, "b": 1}
        assert PERF.enabled  # still inside the outer section
        outer.inc("a")
        assert outer.snapshot() == {"a": 8, "b": 1}
    assert not PERF.enabled


def test_sequential_sections_each_start_from_zero():
    with measured() as first:
        first.inc("a", 3)
        assert first.snapshot() == {"a": 3}
    with measured() as second:
        assert second.snapshot() == {}
        second.inc("b")
        assert second.snapshot() == {"b": 1}
    assert not PERF.enabled
