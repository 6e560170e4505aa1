"""A record's byte size is the length of its encoded envelope.

``_record_size`` adds a record's four fields to the envelope's fixed bytes
instead of encoding (or even building) the envelope map; it must read
exactly what ``len(serde.encode(envelope))`` reads, errors included, and
the producer's batches and the log's byte accounting must add up to those
lengths.
"""

from __future__ import annotations

import random
from types import MappingProxyType

import pytest

from repro.common import serde
from repro.common.errors import SerdeError
from repro.common.perf import measured
from repro.common.records import Record
from repro.kafka.log import PartitionLog, _record_size
from repro.kafka.producer import Producer

from tests.common.test_serde import _random_value


def _envelope(record: Record) -> dict:
    return {
        "key": record.key,
        "value": record.value,
        "event_time": record.event_time,
        "headers": dict(record.headers),
    }


def _encoded_length(record: Record) -> int:
    return len(serde.encode(_envelope(record)))


_VALUE = {"city": "sf", "fare": 12.5, "n": 3}

_KEYS = [
    None,
    0,
    -1,
    2**70,
    -(2**70),
    1.5,
    True,
    "",
    "k",
    "a" * 127,
    "a" * 128,
    "b" * 300,
    "é",
    "clé" * 50,
    b"",
    b"\x00\xff",
    ("a", 1),
    ["nested", {"x": None}],
]

_EVENT_TIMES = [None, 0, 3, -(2**40), 1.0, float("nan"), float("inf")]

_HEADERS = [
    {},
    {"trace_id": "rides-0@17"},
    {"origin_event_time": 12.25, "trace_id": "x" * 200},
    MappingProxyType({}),
    MappingProxyType({"trace_id": "t", "n": 2}),
]


class TestRecordSizeIsEncodedLength:
    @pytest.mark.parametrize("key", _KEYS, ids=repr)
    def test_keys(self, key):
        record = Record(key, _VALUE, 1.0)
        assert _record_size(record) == _encoded_length(record)

    @pytest.mark.parametrize("event_time", _EVENT_TIMES, ids=repr)
    def test_event_times(self, event_time):
        record = Record("k", _VALUE, event_time)
        assert _record_size(record) == _encoded_length(record)

    @pytest.mark.parametrize("headers", _HEADERS, ids=repr)
    def test_headers(self, headers):
        record = Record("k", _VALUE, 1.0, headers)
        assert _record_size(record) == _encoded_length(record)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_records(self, seed):
        rng = random.Random(seed)
        for __ in range(300):
            record = Record(
                rng.choice(_KEYS) if rng.random() < 0.5 else _random_value(rng),
                _random_value(rng),
                rng.choice(_EVENT_TIMES),
                rng.choice(_HEADERS),
            )
            assert _record_size(record) == _encoded_length(record), record

    def test_append_sizes_and_counts_as_a_batch_of_one(self):
        records = [Record(f"k{i}", {"i": i}, float(i)) for i in range(5)]
        log = PartitionLog()
        with measured() as perf:
            for record in records:
                _record_size(record)
            log.append_batch(records, 0.0)
            log.append(records[0], 0.0)
            counts = perf.snapshot()
        assert counts["kafka.size_encodings"] == 5 + 5 + 1
        assert counts["kafka.entry_allocs"] == 5 + 1
        assert log.size_bytes == sum(map(_encoded_length, records + records[:1]))
        assert [e.offset for e in log.iter_from(0)] == list(range(6))


class TestRecordSizeRaisesAsEncode:
    @pytest.mark.parametrize(
        "record",
        [
            Record("k", _VALUE, 1.0, {1: "x"}),
            Record("k", _VALUE, 1.0, MappingProxyType({"ok": 1, 2: "b"})),
            Record("k", _VALUE, 1.0, {"h": object()}),
            Record(object(), {1: "not a str key"}, 1.0),
            Record({3}, _VALUE, 1.0),
            Record("k", {"v": {3}}, object()),
            Record("k", _VALUE, object(), {2: "b"}),
            Record(("x", {None: 1}), object(), 1.0),
        ],
        ids=repr,
    )
    def test_same_error_as_encode(self, record):
        with pytest.raises(SerdeError) as encoded:
            serde.encode(_envelope(record))
        with pytest.raises(SerdeError) as sized:
            _record_size(record)
        assert str(sized.value) == str(encoded.value)


class TestByteAccountingAddsUp:
    def test_batch_and_log_bytes_are_the_encoded_lengths(self, kafka, clock):
        producer = Producer(kafka, batch_size=1 << 30, clock=clock)
        rng = random.Random(7)
        sent: dict[int, list[Record]] = {}
        for i in range(60):
            key = rng.choice(["rider-1", "clé", 2**70, None, ("a", i)])
            value = {"i": i, "fare": i * 0.5, "city": rng.choice(["sf", "ny"])}
            headers = rng.choice(_HEADERS)
            partition = producer.send(
                "events", value, key=key, event_time=float(i), headers=headers
            )
            sent.setdefault(partition, []).append(
                Record(key, value, float(i), dict(headers))
            )
        for partition, records in sent.items():
            expected = sum(map(_encoded_length, records))
            assert producer._batches[("events", partition)].bytes == expected
        producer.flush()
        kafka.replicate()
        for partition, records in sent.items():
            expected = sum(map(_encoded_length, records))
            logs = [
                broker.replicas[("events", partition)]
                for broker in kafka.brokers.values()
                if ("events", partition) in broker.replicas
            ]
            assert logs and all(log.size_bytes == expected for log in logs)
