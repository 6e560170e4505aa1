import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import KafkaError, OffsetOutOfRangeError
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.kafka.tiered import TieredTopic
from repro.storage.blobstore import BlobStore


def build(hot_retention=100.0, chunk_records=50, count=400, partitions=1):
    clock = SimulatedClock()
    cluster = KafkaCluster("k", 3, clock=clock)
    cluster.create_topic("t", TopicConfig(partitions=partitions))
    # batch_size=1 flushes per record so append times track event times
    # (tier aging depends on broker append time).
    producer = Producer(cluster, "svc", clock=clock, batch_size=1)
    for i in range(count):
        clock.advance(1.0)
        producer.send("t", {"i": i}, key="k" if partitions == 1 else f"k{i}")
    producer.flush()
    cluster.replicate()
    tiered = TieredTopic(
        cluster, "t", BlobStore(), hot_retention, chunk_records
    )
    return clock, cluster, tiered


class TestOffload:
    def test_cold_chunks_move_out_of_hot_tier(self):
        clock, cluster, tiered = build()
        moved = tiered.offload_step()
        # Events appended at t=1..250 are strictly older than 100s at
        # t=400 in full 50-record chunks (the t=251..300 chunk's last
        # record is exactly at the boundary and stays hot): 5 chunks.
        assert moved == 250
        assert cluster.start_offset("t", 0) == 250
        assert tiered.total_cold_bytes() > 0

    def test_retention_boundary_respected(self):
        clock, cluster, tiered = build(hot_retention=1e9)
        assert tiered.offload_step() == 0  # nothing old enough

    def test_partial_chunks_stay_hot(self):
        clock, cluster, tiered = build(chunk_records=300, count=450)
        moved = tiered.offload_step()
        assert moved == 300  # one full chunk; remaining 150 < chunk size
        assert cluster.start_offset("t", 0) == 300

    def test_invalid_retention(self):
        clock, cluster, __ = build()
        with pytest.raises(KafkaError):
            TieredTopic(cluster, "t", BlobStore(), hot_retention_seconds=0)


class TestTransparentReads:
    def test_reads_span_both_tiers(self):
        __, __c, tiered = build()
        tiered.offload_step()
        seen = []
        offset = tiered.log_start_offset(0)
        assert offset == 0
        while True:
            batch = tiered.fetch(0, offset, 100)
            if not batch:
                break
            seen.extend(batch)
            offset = batch[-1].offset + 1
        assert [e.record.value["i"] for e in seen] == list(range(400))
        partition = tiered.partitions[0]
        assert partition.cold_reads > 0
        assert partition.hot_reads > 0

    def test_cold_read_preserves_headers(self):
        __, __c, tiered = build()
        hot = tiered.fetch(0, 0, 1)[0].record
        tiered.offload_step()
        entry = tiered.fetch(0, 0, 1)[0]
        assert tiered.partitions[0].cold_reads > 0
        assert entry.record == hot and entry.record.headers == {}

    def test_below_cold_start_raises(self):
        clock, cluster, tiered = build()
        tiered.offload_step()
        # Drop the first chunk from the catalog to simulate cold expiry.
        tiered.partitions[0].chunks.pop(0)
        with pytest.raises(OffsetOutOfRangeError):
            tiered.fetch(0, 0)

    def test_chunk_boundary_read(self):
        __, __c, tiered = build(chunk_records=50)
        tiered.offload_step()
        batch = tiered.fetch(0, 49, 5)
        assert [e.offset for e in batch][:1] == [49]


class TestCostModel:
    def test_tiering_reduces_cost(self):
        __, __c, untiered = build(hot_retention=1e9)
        cost_before = untiered.total_cost() + untiered.total_hot_bytes() * 0
        __, __c2, tiered = build(hot_retention=100.0)
        baseline = tiered.total_cost()
        tiered.offload_step()
        assert tiered.total_cost() < baseline
        assert tiered.total_cost() < cost_before

    def test_hot_plus_cold_cover_all_data(self):
        __, cluster, tiered = build()
        tiered.offload_step()
        partition = tiered.partitions[0]
        hot_records = cluster.end_offset("t", 0) - cluster.start_offset("t", 0)
        cold_records = sum(
            c.end_offset - c.base_offset for c in partition.chunks
        )
        assert hot_records + cold_records == 400
