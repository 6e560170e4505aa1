"""A record is paid for once per hop: exact construction counts.

Elements are values (never assigned to after they are built,
``tests/property/test_element_values.py``): built where a value changes
and shared everywhere else.  These tests count calls of the dataclass-generated ``__init__``
code objects (``sys.setprofile``) over a fixed keyed tumbling-count job,
so a copy that creeps back onto the live path — a re-stamped key the
record already carried, a window rebuilt per record — moves an integer.
"""

import sys
from collections import Counter

from repro.flink.graph import StreamEnvironment
from repro.flink.operators import BoundedListReader, BoundedListSource, WindowOperator
from repro.flink.runtime import JobRuntime
from repro.flink.time import StreamRecord
from repro.flink.windows import CountAggregate, TimeWindow, TumblingWindows

RECORDS = 1_000
WINDOWS = 5
KEYS = ("a", "b", "c", "d")


def elements():
    """1,000 records in event-time order over 5 one-minute windows."""
    step = WINDOWS * 60.0 / RECORDS
    keys = [KEYS[i % len(KEYS)] for i in range(RECORDS)]
    return [
        ({"k": key, "other": f"o{i % 3}", "n": i}, i * step, key)
        for i, key in enumerate(keys)
    ]


def run_counted(key_fn, monkeypatch):
    """Run the job; returns (constructions by class, records the source
    emitted, records the window operator received, fired results)."""
    emitted, received, out = [], [], []
    read, process = BoundedListReader._read, WindowOperator.process

    def spy_read(self, max_records):
        batch = read(self, max_records)
        emitted.extend(batch)
        return batch

    def spy_process(self, record, input_index=0):
        received.append(record)
        return process(self, record, input_index)

    monkeypatch.setattr(BoundedListReader, "_read", spy_read)
    monkeypatch.setattr(WindowOperator, "process", spy_process)
    env = StreamEnvironment()
    env.add_source(BoundedListSource(elements())).key_by(key_fn).window(
        TumblingWindows(60.0)
    ).aggregate(CountAggregate()).sink_to_list(out)
    runtime = JobRuntime(env.build("allocation"))

    codes = {cls.__init__.__code__: cls.__name__ for cls in (StreamRecord, TimeWindow)}
    built: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            built[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        runtime.run_until_quiescent()
    finally:
        sys.setprofile(None)
    return built, emitted, received, out


def test_a_key_the_record_already_carries_costs_no_copy(monkeypatch):
    built, emitted, received, out = run_counted(lambda v: v["k"], monkeypatch)
    fired = WINDOWS * len(KEYS)
    assert len(out) == fired and sum(r.value for r in out) == RECORDS
    # One StreamRecord per source record, one per fired result: the hash
    # edge hands the operator the very object the source emitted.
    assert built["StreamRecord"] == RECORDS + fired
    assert len(received) == RECORDS
    assert all(got is sent for got, sent in zip(received, emitted))
    # One TimeWindow per distinct window, one per fired WindowResult.
    assert built["TimeWindow"] == WINDOWS + fired


def test_a_different_key_is_restamped_on_a_copy(monkeypatch):
    built, emitted, received, out = run_counted(lambda v: v["other"], monkeypatch)
    fired = len(out)
    assert built["StreamRecord"] == 2 * RECORDS + fired
    assert [r.key for r in received] == [r.value["other"] for r in emitted]
    assert all(got is not sent for got, sent in zip(received, emitted))
    assert all(got.value is sent.value for got, sent in zip(received, emitted))
    assert {r.key for r in out} == {"o0", "o1", "o2"}


def test_an_equal_key_of_another_type_is_still_restamped():
    # 5 == 5.0, but the type the key function returns is the type the
    # window state is keyed by and the result reports: identity decides.
    out = []
    env = StreamEnvironment()
    env.add_source(BoundedListSource([({"n": 1}, 1.0, 5)])).key_by(
        lambda v: 5.0
    ).window(TumblingWindows(60.0)).aggregate(CountAggregate()).sink_to_list(out)
    JobRuntime(env.build("retyped")).run_until_quiescent()
    assert [type(r.key) for r in out] == [float]
