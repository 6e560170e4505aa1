"""Tests for records, memory accounting, hex grid and seeded RNG."""

import pytest

from repro.common.hexgrid import HexCell, HexGrid, disk, neighbors, ring
from repro.common.memory import deep_sizeof
from repro.common.records import Record
from repro.common.rng import seeded_rng, zipf_sampler


class TestRecords:
    def test_with_value_preserves_rest(self):
        record = Record("k", 1, 5.0, {"trace_id": "rides-0@7"})
        updated = record.with_value(2)
        assert updated == Record("k", 2, 5.0, {"trace_id": "rides-0@7"})

    def test_with_key(self):
        record = Record("k", 1, 5.0)
        assert record.with_key("j").key == "j"


class TestDeepSizeof:
    def test_bigger_structures_are_bigger(self):
        small = [1, 2, 3]
        large = list(range(1000))
        assert deep_sizeof(large) > deep_sizeof(small)

    def test_shared_objects_counted_once(self):
        shared = list(range(100))
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof([shared])

    def test_walks_nested_dicts(self):
        payload = "x" * 10_000
        assert deep_sizeof({"a": {"b": {"c": payload}}}) > 10_000

    def test_walks_slots_objects(self):
        class Slotted:
            __slots__ = ("data",)

            def __init__(self):
                self.data = "y" * 5000

        assert deep_sizeof(Slotted()) > 5000

    def test_skips_functions(self):
        def fn():
            return 1

        assert deep_sizeof({"fn": fn}) < 1000


class TestHexGrid:
    def test_same_point_same_cell(self):
        grid = HexGrid(37.77, -122.42, 500.0)
        assert grid.cell_for(37.775, -122.418) == grid.cell_for(37.775, -122.418)

    def test_distant_points_different_cells(self):
        grid = HexGrid(37.77, -122.42, 500.0)
        assert grid.cell_for(37.77, -122.42) != grid.cell_for(37.85, -122.30)

    def test_center_round_trips_to_same_cell(self):
        grid = HexGrid(37.77, -122.42, 500.0)
        cell = grid.cell_for(37.78, -122.41)
        lat, lon = grid.cell_center(cell)
        assert grid.cell_for(lat, lon) == cell

    def test_invalid_edge_length(self):
        with pytest.raises(ValueError):
            HexGrid(0, 0, -1.0)

    def test_six_neighbors(self):
        cell = HexCell(0, 0)
        result = neighbors(cell)
        assert len(result) == 6
        assert len(set(result)) == 6
        assert cell not in result

    def test_ring_sizes(self):
        cell = HexCell(2, -1)
        assert len(ring(cell, 0)) == 1
        assert len(ring(cell, 1)) == 6
        assert len(ring(cell, 3)) == 18

    def test_disk_size(self):
        # 1 + 6 + 12 = 19 cells within radius 2
        assert len(disk(HexCell(0, 0), 2)) == 19

    def test_ring_negative_radius(self):
        with pytest.raises(ValueError):
            ring(HexCell(0, 0), -1)

    def test_cell_id_format(self):
        assert HexCell(3, -4).cell_id() == "hex_3_-4"


class TestRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(1, "x")
        b = seeded_rng(1, "x")
        assert [a.random() for __ in range(5)] == [b.random() for __ in range(5)]

    def test_labels_give_independent_streams(self):
        a = seeded_rng(1, "x")
        b = seeded_rng(1, "y")
        assert [a.random() for __ in range(5)] != [b.random() for __ in range(5)]

    def test_zipf_skews_toward_low_ranks(self):
        sampler = zipf_sampler(seeded_rng(7), 100, skew=1.2)
        samples = [sampler() for __ in range(5000)]
        top = sum(1 for s in samples if s < 10)
        bottom = sum(1 for s in samples if s >= 90)
        assert top > 5 * max(1, bottom)

    def test_zipf_zero_skew_roughly_uniform(self):
        sampler = zipf_sampler(seeded_rng(7), 10, skew=0.0)
        samples = [sampler() for __ in range(10_000)]
        counts = [samples.count(i) for i in range(10)]
        assert max(counts) < 2 * min(counts)

    def test_zipf_rejects_bad_args(self):
        rng = seeded_rng(1)
        with pytest.raises(ValueError):
            zipf_sampler(rng, 0)
        with pytest.raises(ValueError):
            zipf_sampler(rng, 10, skew=-1.0)

    def test_zipf_stays_in_range(self):
        sampler = zipf_sampler(seeded_rng(3), 7, skew=2.0)
        assert all(0 <= sampler() < 7 for __ in range(1000))
