"""The contract of the one cache under the broker, the Pinot servers and
the Presto workers: epoch-validated reads, a counted LRU bound, exact
lookup accounting and isolation at the boundary."""

from __future__ import annotations

import enum

from repro.common.epochcache import EpochCache, combined_stats, copy_rows


class TestEpochValidation:
    def test_entry_is_served_only_at_the_epoch_it_was_stored_under(self):
        cache = EpochCache(8)
        cache.put("q", 3, "answer")
        assert cache.get("q", 3) == "answer"
        assert cache.get("q", 4) is None
        # The mismatch evicted the entry: asking at the old epoch again
        # finds nothing either.
        assert cache.get("q", 3) is None
        assert len(cache) == 0

    def test_mismatch_counts_an_invalidation_and_a_miss(self):
        cache = EpochCache(8)
        cache.put("q", 1, "old")
        assert cache.get("q", 2) is None
        assert (cache.invalidations, cache.misses, cache.hits) == (1, 1, 0)

    def test_successor_replaces_the_stale_entry_under_the_same_key(self):
        cache = EpochCache(8)
        for epoch in range(50):
            assert cache.get("q", epoch) is None
            cache.put("q", epoch, f"answer@{epoch}")
            assert cache.get("q", epoch) == f"answer@{epoch}"
        assert len(cache) == 1  # stale entries never pile up
        assert cache.invalidations == 49

    def test_epochs_compare_by_equality_not_order(self):
        # A stage over two tables is validated against a tuple of
        # (table, epoch) pairs; "newer" has no meaning there.
        cache = EpochCache(8)
        cache.put("stage", (("a", 2), ("b", 7)), "rows")
        assert cache.get("stage", (("a", 2), ("b", 7))) == "rows"
        assert cache.get("stage", (("a", 2), ("b", 6))) is None


class TestLruBound:
    def test_capacity_bounds_entries_and_counts_evictions(self):
        cache = EpochCache(4)
        for i in range(10):
            cache.put(i, 1, i)
        assert len(cache) == 4
        assert cache.evictions == 6
        assert [cache.get(i, 1) for i in range(10)] == [None] * 6 + [6, 7, 8, 9]

    def test_a_hit_refreshes_recency(self):
        cache = EpochCache(2)
        cache.put("a", 1, "A")
        cache.put("b", 1, "B")
        assert cache.get("a", 1) == "A"  # "b" is now the oldest
        cache.put("c", 1, "C")
        assert cache.get("b", 1) is None
        assert cache.get("a", 1) == "A" and cache.get("c", 1) == "C"

    def test_overwriting_a_key_does_not_grow_the_cache(self):
        cache = EpochCache(2)
        for epoch in range(5):
            cache.put("a", epoch, epoch)
        assert len(cache) == 1 and cache.evictions == 0


class TestAccounting:
    def test_hits_plus_misses_equals_lookups(self):
        cache = EpochCache(2)
        lookups = 0
        for i in range(60):
            key, epoch = (i // 2) % 3, i // 15
            lookups += 1
            if cache.get(key, epoch) is None:
                cache.put(key, epoch, i)
        assert cache.hits + cache.misses == lookups
        assert cache.hits > 0 and cache.invalidations > 0 and cache.evictions > 0

    def test_stats_is_the_one_shape(self):
        cache = EpochCache(2)
        cache.put("a", 1, "A")
        cache.get("a", 1)
        cache.get("a", 2)
        cache.get("zzz", 1)
        assert cache.stats() == {
            "hits": 1,
            "misses": 2,
            "hit_rate": 1 / 3,
            "invalidations": 1,
            "evictions": 0,
            "entries": 0,
        }
        assert EpochCache(1).stats()["hit_rate"] == 0.0

    def test_combined_stats_reports_many_caches_as_one(self):
        first, second = EpochCache(2), EpochCache(2)
        first.put("a", 1, "A")
        first.get("a", 1)
        second.get("b", 1)
        combined = combined_stats([first, second])
        assert combined["hits"] == 1 and combined["misses"] == 1
        assert combined["hit_rate"] == 0.5 and combined["entries"] == 1
        assert set(combined) == set(first.stats())


class TestIsolation:
    def test_mutating_what_was_put_cannot_change_a_later_hit(self):
        cache = EpochCache(4, copy=copy_rows)
        rows = [{"city": "sf", "tags": ["a"]}]
        cache.put("q", 1, rows)
        rows[0]["city"] = "vandalized"
        rows[0]["tags"].append("poison")
        rows.append({"city": "extra"})
        assert cache.get("q", 1) == [{"city": "sf", "tags": ["a"]}]

    def test_mutating_what_was_served_cannot_change_a_later_hit(self):
        cache = EpochCache(4, copy=copy_rows)
        cache.put("q", 1, [{"city": "sf", "tags": ["a"]}])
        served = cache.get("q", 1)
        served[0]["city"] = "vandalized"
        served[0]["tags"].append("poison")
        served.clear()
        assert cache.get("q", 1) == [{"city": "sf", "tags": ["a"]}]

    def test_without_a_copy_function_values_are_shared(self):
        # Immutable values (doc-id tuples, column pages) skip the copy.
        cache = EpochCache(4)
        value = (1, 2, 3)
        cache.put("q", 1, value)
        assert cache.get("q", 1) is value


class TestCopyRows:
    def test_scalar_rows_get_a_fresh_dict(self):
        rows = [{"a": 1, "b": "x", "c": None, "d": 2.5, "e": b"z", "f": True}]
        copied = copy_rows(rows)
        assert copied == rows and copied[0] is not rows[0]

    def test_mutable_cells_are_deep_copied(self):
        rows = [{"tags": ["a", "b"], "payload": {"k": [1]}, "n": 1}]
        copied = copy_rows(rows)
        copied[0]["tags"].append("poison")
        copied[0]["payload"]["k"].append(2)
        assert rows == [{"tags": ["a", "b"], "payload": {"k": [1]}, "n": 1}]

    def test_a_bool_is_a_scalar_of_its_own(self):
        # ``bool`` is judged by its exact type, not as an ``int`` subclass.
        rows = [{"ok": True, "n": 0}, {"ok": False, "n": 1}]
        copied = copy_rows(rows)
        assert copied == rows and copied[1]["ok"] is False
        assert all(new is not old for new, old in zip(copied, rows))

    def test_a_subclass_instance_takes_the_deepcopy_side(self):
        class Tier(enum.IntEnum):
            GOLD = 1

        class Tags(list):
            pass

        rows = [{"tier": Tier.GOLD, "tags": Tags(["a"])}]
        copied = copy_rows(rows)
        assert copied == rows and copied[0]["tier"] is Tier.GOLD
        copied[0]["tags"].append("poison")
        assert rows[0]["tags"] == ["a"]

    def test_a_tuple_cell_is_copied_as_deep_as_it_goes(self):
        rows = [{"path": (1, ("a", [2]))}]
        copied = copy_rows(rows)
        copied[0]["path"][1][1].append("poison")
        assert rows == [{"path": (1, ("a", [2]))}]
