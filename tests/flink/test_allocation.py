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
from repro.flink.runtime import MICRO_BATCH, JobRuntime, SubTask
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


def count_constructions(runtime) -> Counter:
    """Run the job to quiescence; constructions by class."""
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
    return built


def run_counted(key_fn, monkeypatch):
    """Run the job; returns (constructions by class, records the source
    emitted, records the window operator received, fired results)."""
    emitted, received, out = [], [], []
    read, process = BoundedListReader._read, WindowOperator.process
    deliver = SubTask._deliver
    # The length of every run delivered to the window task, and of every
    # run its operator was called with.
    delivered, calls = [], []

    def spy_read(self, *args):
        batch = read(self, *args)
        emitted.extend(batch)
        return batch

    def spy_deliver(self, data, channel):
        if self.spec.kind == "window":
            delivered.append(len(data))
        return deliver(self, data, channel)

    def spy_process(self, records, input_index=0):
        calls.append(len(records))
        received.extend(records)
        return process(self, records, input_index)

    monkeypatch.setattr(BoundedListReader, "_read", spy_read)
    monkeypatch.setattr(SubTask, "_deliver", spy_deliver)
    monkeypatch.setattr(WindowOperator, "process", spy_process)
    env = StreamEnvironment()
    env.add_source(BoundedListSource(elements())).key_by(key_fn).window(
        TumblingWindows(60.0)
    ).aggregate(CountAggregate()).sink_to_list(out)
    built = count_constructions(JobRuntime(env.build("allocation")))
    # One operator call per delivered run, never one per record: each
    # 100-record poll reaches the window between two watermarks, as runs
    # of at most MICRO_BATCH records.
    assert calls == delivered == [32, 32, 32, 4] * (RECORDS // 100)
    assert MICRO_BATCH == 32
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


def test_a_joined_pair_is_built_once():
    # Each prediction joins exactly its own outcome, 1 s later; the window
    # is keyed by model, not by the join key, and the join builds each
    # pair keyed by model.
    pairs = 200
    predictions = [({"id": i, "model": f"m{i % 2}"}, float(i), i) for i in range(pairs)]
    outcomes = [({"id": i, "err": 1.0}, i + 1.0, i) for i in range(pairs)]
    out = []
    env = StreamEnvironment()
    left = env.add_source(BoundedListSource(predictions))
    right = env.add_source(BoundedListSource(outcomes))
    joined = left.interval_join(
        right,
        key_fns=(lambda p: p["id"], lambda o: o["id"]),
        lower=-5.0,
        upper=0.0,
        join_fn=lambda p, o: {"model": p["model"], "err": o["err"]},
    )
    windowed = joined.key_by("model").window(TumblingWindows(60.0))
    windowed.aggregate(CountAggregate()).sink_to_list(out)
    runtime = JobRuntime(env.build("join-rekey"))
    built = count_constructions(runtime)
    assert sum(result.value for result in out) == pairs
    assert runtime.records_processed()["interval_join-2"] == 2 * pairs
    # Source records, then one per pair, then one per fired window.
    assert built["StreamRecord"] == 2 * pairs + pairs + len(out)
    assert {result.key for result in out} == {"m0", "m1"}


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
