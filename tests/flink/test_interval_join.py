"""Interval join: time-bounded pairing, TTL eviction, spill pressure.

The per-key interval join (Section 5.3's prediction-to-outcome join)
buffers both sides in keyed state and emits eagerly when the second side
arrives.  These tests pin what is the join's own: the pairing bound,
eviction that can never drop a still-joinable record (TTL is
extension-only) and the spill-pressure signal into the autoscaler.  The
rules it shares with every event-time operator are checked for all of
them at once: lateness in ``test_lateness_boundary.py``, checkpoints and
crash-restore in ``test_kill_restore_property.py``.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FlinkError, OperatorError
from repro.common.perf import measured
from repro.flink.autoscaler import AutoScaler, JobProfile, classify_job
from repro.flink.graph import StreamEnvironment
from repro.flink.operators import BoundedListSource, IntervalJoinOperator
from repro.flink.runtime import JobRuntime
from repro.flink.time import StreamRecord, Watermark
from repro.flink.windows import CountAggregate, TumblingWindows
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer


def left(value, ts, key="k"):
    return StreamRecord(value, ts, key)


def make_join(lower=-10.0, upper=0.0, **kwargs):
    return IntervalJoinOperator(lower, upper, lambda l, r: (l, r), **kwargs)


class TestPairing:
    def test_joins_within_bounds_eagerly(self):
        op = make_join()
        assert op.process([left("p", 10.0)], 0) == []
        out = op.process([left("o", 15.0)], 1)
        assert [(r.value, r.timestamp) for r in out] == [(("p", "o"), 15.0)]

    def test_bound_edges_inclusive(self):
        op = make_join(lower=-10.0, upper=0.0)
        op.process([left("p", 10.0)], 0)
        # left.ts - right.ts = -10 (lower edge) and 0 (upper edge) both join.
        assert op.process([left("lo", 20.0)], 1)
        assert op.process([left("hi", 10.0)], 1)
        assert op.process([left("out", 20.1)], 1) == []

    def test_pairs_outside_bounds_do_not_join(self):
        op = make_join(lower=-10.0, upper=0.0)
        op.process([left("p", 10.0)], 0)
        assert op.process([left("too-late", 25.0)], 1) == []
        assert op.process([left("before", 5.0)], 1) == []

    def test_keys_do_not_cross(self):
        op = make_join()
        op.process([left("p", 10.0, key="a")], 0)
        assert op.process([left("o", 12.0, key="b")], 1) == []

    def test_many_to_many_per_key(self):
        op = make_join()
        op.process([left("p1", 10.0)], 0)
        op.process([left("p2", 12.0)], 0)
        out = op.process([left("o", 15.0)], 1)
        assert sorted(r.value for r in out) == [("p1", "o"), ("p2", "o")]

    def test_order_of_arrival_does_not_matter(self):
        op = make_join()
        op.process([left("o", 15.0)], 1)
        out = op.process([left("p", 10.0)], 0)
        assert [r.value for r in out] == [("p", "o")]

    def test_pair_timestamp_is_completion_time(self):
        op = make_join()
        op.process([left("o", 15.0)], 1)
        assert op.process([left("p", 10.0)], 0)[0].timestamp == 15.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(OperatorError):
            make_join(lower=5.0, upper=-5.0)

    @pytest.mark.parametrize(
        "lower, upper",
        [(math.nan, 0.0), (-10.0, math.nan), (-math.inf, 0.0), (-10.0, math.inf)],
    )
    def test_non_finite_bounds_rejected(self, lower, upper):
        # NaN would silently join nothing; an infinite reach would make
        # every record's horizon non-finite and fail as a bad event time.
        with pytest.raises(OperatorError, match="bounds must be finite"):
            make_join(lower=lower, upper=upper)

    @pytest.mark.parametrize("ttl", [-1.0, -math.inf, math.nan])
    def test_negative_or_nan_ttl_rejected(self, ttl):
        with pytest.raises(OperatorError, match="state TTL"):
            make_join(state_ttl=ttl)

    @pytest.mark.parametrize("budget", [0, -100, math.nan])
    def test_non_positive_spill_budget_rejected(self, budget):
        # A negative budget would read as negative pressure, never as spill.
        with pytest.raises(OperatorError, match="spill budget"):
            make_join(spill_budget_bytes=budget)

    def test_zero_ttl_is_legal(self):
        assert make_join(state_ttl=0.0).state_ttl == 0.0

    @pytest.mark.parametrize(
        "delta, joins",
        [
            (-10.0, True),
            (5.0, True),
            (math.nextafter(-10.0, -math.inf), False),
            (math.nextafter(5.0, math.inf), False),
        ],
    )
    def test_bounds_hold_to_the_ulp_from_either_side(self, delta, joins):
        # The other side sits at 0.0, so left.ts - right.ts is exactly delta
        # whichever side arrives second.
        arriving_left = make_join(lower=-10.0, upper=5.0)
        arriving_left.process([left("r", 0.0)], 1)
        assert bool(arriving_left.process([left("l", delta)], 0)) is joins
        arriving_right = make_join(lower=-10.0, upper=5.0)
        arriving_right.process([left("l", 0.0)], 0)
        assert bool(arriving_right.process([left("r", -delta)], 1)) is joins


def reference_join(script, lower, upper, lateness, ttl):
    """The join's contract, written down the slow way: every admitted
    record is buffered, probes the whole other side of its key in arrival
    order, and leaves once the watermark reaches its deadline.

    Besides the pairs and counts it returns what stays buffered after
    each watermark: per side, ``{key: [[ts, value], ...]}`` in arrival
    order."""
    buffers = {"left": [], "right": []}  # entries: [key, ts, value, deadline]
    watermark, admitted, evicted, pairs, survivors = -math.inf, 0, 0, [], []
    for kind, *event in script:
        if kind == "watermark":
            watermark = max(watermark, event[0])
            for entries in buffers.values():
                kept = [e for e in entries if e[3] > watermark]
                evicted += len(entries) - len(kept)
                entries[:] = kept
            grouped = {}
            for side, entries in buffers.items():
                by_key = grouped[side] = {}
                for key, ts, value, __ in entries:
                    by_key.setdefault(key, []).append([ts, value])
            survivors.append(grouped)
            continue
        key, ts, value = event
        horizon = ts + (max(0.0, -lower) if kind == "left" else max(0.0, upper))
        if horizon + lateness <= watermark:
            continue
        for other_key, other_ts, other_value, __ in buffers[
            "right" if kind == "left" else "left"
        ]:
            l_ts, r_ts = (ts, other_ts) if kind == "left" else (other_ts, ts)
            if other_key == key and lower <= l_ts - r_ts <= upper:
                pair = (value, other_value) if kind == "left" else (other_value, value)
                pairs.append((pair, max(ts, other_ts), key))
        deadline = horizon + lateness
        if ttl is not None:
            deadline = max(deadline, ts + ttl)
        buffers[kind].append([key, ts, value, deadline])
        admitted += 1
    return pairs, admitted, evicted, survivors


def _buffered(op):
    """Each side's buffered entries, per key in arrival order, as
    :func:`reference_join` reports its survivors.  A key's buffer is one
    flat list, ``[ts, seq, value]`` slots per entry."""
    return {
        side: {
            key: [[ts, value] for ts, value in zip(entries[::3], entries[2::3])]
            for key, entries in op.state.tables.get(side, {}).items()
        }
        for side in ("left", "right")
    }


class TestAgainstReference:
    @pytest.mark.parametrize(
        "lower, upper, lateness, ttl",
        [(-10.0, 0.0, 0.0, None), (-3.0, 4.0, 2.0, 9.0), (1.0, 6.0, 0.5, 2.0)],
    )
    def test_out_of_order_script_matches_reference(self, lower, upper, lateness, ttl):
        rng = random.Random(2000)
        script, now = [], 0.0
        for i in range(2000):
            now += rng.random()
            if rng.random() < 0.05:
                script.append(("watermark", now - rng.uniform(0.0, 8.0)))
            else:
                side = rng.choice(("left", "right"))
                ts = now - rng.uniform(0.0, 20.0)  # some hopelessly late
                script.append((side, rng.choice("abcde"), ts, f"{side[0]}{i}"))
        op = IntervalJoinOperator(
            lower, upper, lambda l, r: (l, r), allowed_lateness=lateness, state_ttl=ttl
        )
        pairs, admitted, evicted, survivors = reference_join(
            script, lower, upper, lateness, ttl
        )
        emitted, buffered = [], []
        for kind, *event in script:
            if kind == "watermark":
                assert op.on_watermark(Watermark(event[0])) == []
                # What stays is exact, not only how much left: each side's
                # surviving entries, per key, in arrival order.
                buffered.append(_buffered(op))
            else:
                key, ts, value = event
                index = 0 if kind == "left" else 1
                out = op.process([StreamRecord(value, ts, key)], index)
                emitted.extend((r.value, r.timestamp, r.key) for r in out)
        assert pairs and evicted and admitted < len(script)  # the script bites
        assert emitted == pairs
        assert buffered == survivors
        assert (op._seq, op.evicted) == (admitted, evicted)
        assert op.late_dropped == sum(e[0] != "watermark" for e in script) - admitted


#: Half-second event times over a short span: ties, disorder and late
#: records are common.
halves = st.integers(0, 40).map(lambda half: half / 2)
join_steps = st.one_of(
    st.tuples(st.just("watermark"), halves),
    st.tuples(
        st.sampled_from(("left", "right")),
        st.lists(
            st.tuples(st.sampled_from("abc"), halves, st.integers(0, 99).map(str)),
            min_size=1,
            max_size=6,
        ),
    ),
    st.just(("restore",)),
)


class TestEvictionProperty:
    @given(
        bounds=st.tuples(halves, halves).map(lambda b: (-b[0], b[1] - 5.0)),
        lateness=st.sampled_from((0.0, 0.5, 2.0)),
        ttl=st.sampled_from((None, 0.0, 1.5, 6.0)),
        script=st.lists(join_steps, max_size=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_fire_leaves_what_the_reference_keeps(
        self, bounds, lateness, ttl, script
    ):
        # After every watermark the buffers hold exactly the entries whose
        # deadline the watermark has not reached, per key in arrival
        # order, whatever the disorder and however the eviction runs were
        # rebuilt by a restore part-way.
        lower, upper = min(bounds), max(bounds)
        events = []
        for step in script:
            if step[0] == "watermark":
                events.append(step)
            elif step[0] != "restore":
                events.extend((step[0], *record) for record in step[1])
        pairs, admitted, evicted, survivors = reference_join(
            events, lower, upper, lateness, ttl
        )

        def make():
            return IntervalJoinOperator(
                lower, upper, lambda l, r: (l, r), lateness, state_ttl=ttl
            )

        op, emitted, buffered = make(), [], []
        for kind, *event in script:
            if kind == "restore":
                op, restored = make(), op
                op.restore(restored.snapshot())
            elif kind == "watermark":
                assert op.on_watermark(Watermark(event[0])) == []
                buffered.append(_buffered(op))
            else:
                run = [StreamRecord(value, ts, key) for key, ts, value in event[0]]
                out = op.process(run, kind == "right")
                emitted.extend((r.value, r.timestamp, r.key) for r in out)
        assert buffered == survivors
        assert emitted == pairs
        assert (op._seq, op.evicted) == (admitted, evicted)


class TestOutputKey:
    def test_a_raising_out_key_keeps_the_prefix_and_emits_nothing(self):
        def out_key(pair):
            if pair[1] == "bad":
                raise KeyError("model")
            return "m"

        whole, reference = make_join(), make_join()
        whole.out_key_fn = reference.out_key_fn = out_key
        for op in (whole, reference):
            op.process([left("p", 10.0)], 0)
        prefix = [left("o1", 11.0), left("o2", 12.0)]
        with pytest.raises(KeyError, match="model"):
            whole.process(prefix + [left("bad", 13.0), left("o3", 14.0)], 1)
        assert len(reference.process(prefix, 1)) == 2
        assert whole.snapshot() == reference.snapshot()

    def test_the_runtime_hands_the_key_to_the_join_and_routes_nothing_on_a_raise(
        self,
    ):
        # The key_by after the join raises on the second pair of a run:
        # the raise comes from the join's process, before anything of the
        # run is routed, so the window's channels stay empty.
        def model(pair):
            if pair["id"] == 1:
                raise KeyError("model")
            return pair["model"]

        env = StreamEnvironment()
        predictions = env.add_source(
            BoundedListSource([({"id": i, "model": "m"}, float(i), 0) for i in range(3)])
        )
        outcomes = env.add_source(
            BoundedListSource([({"id": i}, i + 0.5, 0) for i in range(3)])
        )
        predictions.interval_join(
            outcomes,
            key_fns=(lambda p: 0, lambda o: 0),
            lower=-1.0,
            upper=0.0,
            join_fn=lambda p, o: p,
        ).key_by(model).window(TumblingWindows(60.0)).aggregate(
            CountAggregate()
        ).sink_to_list([])
        runtime = JobRuntime(env.build("raising-key"))
        join = runtime.tasks["interval_join-2"][0]
        with pytest.raises(KeyError, match="model"):
            runtime.run_until_quiescent()
        assert join.operator.out_key_fn is model
        window = next(
            task for tasks in runtime.tasks.values() for task in tasks
            if task.spec.kind == "window"
        )
        assert not any(
            isinstance(element, StreamRecord)
            for channel in window.inputs.values()
            for element in channel.queue
        )


class TestProbeAccounting:
    def test_probes_count_buffered_entries_and_nothing_on_an_empty_buffer(self):
        op = make_join()
        with measured() as perf:
            op.process([left("p1", 10.0)], 0)  # finds nothing buffered
            assert perf.counts.get("flink.join_probes", 0) == 0
            op.process([left("p2", 12.0)], 0)  # other side still empty
            assert perf.counts.get("flink.join_probes", 0) == 0
            out = op.process([left("o", 15.0)], 1)  # probes both lefts
            assert len(out) == 2
            assert perf.counts["flink.join_probes"] == 2
            assert perf.counts["flink.join_state_appends"] == 3
            assert perf.counts["flink.join_rows_out"] == 2


class TestEviction:
    def test_watermark_evicts_expired_entries(self):
        op = make_join(lower=-10.0, upper=0.0)
        op.process([left("p", 10.0)], 0)
        op.on_watermark(Watermark(19.9))
        assert op.evicted == 0
        op.on_watermark(Watermark(20.0))
        assert op.evicted == 1
        # The buffer is gone: a (now late) right matches nothing.
        assert op.process([left("o", 20.0)], 1) == []

    def test_ttl_never_drops_a_still_joinable_record(self):
        # TTL far below the join horizon: the left at 10 can complete
        # pairs until event time 20, so a 2s TTL must not evict it early.
        op = make_join(lower=-10.0, upper=0.0, state_ttl=2.0)
        op.process([left("p", 10.0)], 0)
        op.on_watermark(Watermark(19.9))
        assert op.evicted == 0
        out = op.process([left("o", 19.95)], 1)
        assert [r.value for r in out] == [("p", "o")]

    def test_ttl_extends_retention_past_the_horizon(self):
        op = make_join(lower=-10.0, upper=0.0, state_ttl=30.0)
        op.process([left("p", 10.0)], 0)
        op.on_watermark(Watermark(25.0))  # past the horizon, inside TTL
        assert op.evicted == 0
        op.on_watermark(Watermark(40.0))  # past ts + TTL
        assert op.evicted == 1

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("input_index", [0, 1], ids=["left", "right"])
    def test_non_finite_event_time_is_a_flink_error(self, input_index, timestamp):
        op = make_join()
        with pytest.raises(FlinkError, match=f"finite, got {timestamp!r}"):
            op.process([left("bad", timestamp)], input_index)
        assert (op._seq, op.late_dropped, op.state.entry_count()) == (0, 0, 0)
        # Nothing of the rejected record is due: a later watermark evicts
        # exactly what was buffered after it.
        op.process([left("p", 1.0)], input_index)
        op.on_watermark(Watermark(1000.0))
        assert (op.evicted, op.state.entry_count()) == (1, 0)

    def test_a_rejected_nan_leaves_eviction_working(self):
        # Admitted, a NaN deadline would never compare <= any watermark
        # and would break its eviction run's order: entries would stay.
        op = make_join()
        with pytest.raises(FlinkError):
            op.process([left("bad", math.nan)], 0)
        for ts in range(5):
            op.process([left(f"p{ts}", float(ts))], 0)
        op.on_watermark(Watermark(1000.0))
        assert op.evicted == 5
        assert op.state.keys("left") == []

    def test_eviction_is_per_entry(self):
        # Arrived second, the due p1 sits behind the live p2 in its key's
        # list: eviction deletes it from the middle, not only the front.
        for arrivals in ([("p1", 10.0), ("p2", 18.0)], [("p2", 18.0), ("p1", 10.0)]):
            op = make_join(lower=-10.0, upper=0.0)
            for value, ts in arrivals:
                op.process([left(value, ts)], 0)
            op.on_watermark(Watermark(20.0))
            assert op.evicted == 1  # p1 out, p2 (horizon 28) still buffered
            assert op.state.tables["left"]["k"][2::3] == ["p2"]
            assert [r.value for r in op.process([left("o", 20.5)], 1)] == [
                ("p2", "o")
            ]

    def test_an_out_of_order_evict_finds_its_entry_by_seq_alone(self):
        # Key k's buffer is [5.0, 0, 5, 1.0, 5, "p5", 9.0, 6, 5.0]: the due
        # entry (seq 5, ts 1.0) is not the key's oldest, and the oldest's
        # ts and value, and the newest's value, all equal 5.  Only a seq
        # slot may match it.
        script = [("left", "k", 5.0, 5)]
        script += [("left", "other", 20.0, f"o{i}") for i in range(1, 5)]
        script += [("left", "k", 1.0, "p5"), ("left", "k", 9.0, 5.0)]
        script += [("watermark", 12.0), ("watermark", 16.0)]
        op = make_join(lower=-10.0, upper=0.0)
        buffered = []
        for kind, *event in script:
            if kind == "watermark":
                op.on_watermark(Watermark(event[0]))
                buffered.append(_buffered(op))
            else:
                key, ts, value = event
                op.process([StreamRecord(value, ts, key)], 0)
        __, __, evicted, survivors = reference_join(script, -10.0, 0.0, 0.0, None)
        assert buffered == survivors
        assert survivors[0]["left"]["k"] == [[5.0, 5], [9.0, 5.0]]
        assert op.evicted == evicted == 2


class TestSpillPressure:
    def test_zero_without_budget(self):
        op = make_join()
        op.process([left("p", 10.0)], 0)
        assert op.spill_pressure() == 0.0

    def test_ratio_against_budget(self):
        op = make_join(spill_budget_bytes=1)
        empty = op.spill_pressure()
        op.process([left("p" * 100, 10.0)], 0)
        assert op.spill_pressure() > max(empty, 1.0)

    def test_autoscaler_scales_up_on_spill_pressure(self):
        scaler = AutoScaler()
        decision = scaler.evaluate(
            parallelism=2, source_lag=0.0, state_bytes=0.0, spill_pressure=1.2
        )
        assert decision.action == "scale_up"
        assert decision.new_parallelism == 4
        assert "spill pressure" in decision.reason

    def test_autoscaler_holds_below_budget(self):
        scaler = AutoScaler()
        decision = scaler.evaluate(
            parallelism=2,
            source_lag=0.0,
            state_bytes=0.0,
            input_rate=5000.0,  # mid-band utilization: no other signal fires
            spill_pressure=0.9,
        )
        assert decision.action == "hold"

    def test_runtime_exposes_max_spill_pressure(self):
        env = StreamEnvironment()
        cluster = KafkaCluster()
        cluster.create_topic("l", TopicConfig(partitions=1))
        cluster.create_topic("r", TopicConfig(partitions=1))
        lstream = env.from_kafka(cluster, "l", group="g")
        rstream = env.from_kafka(cluster, "r", group="g")
        lstream.interval_join(
            rstream,
            key_fns=(lambda v: v["k"], lambda v: v["k"]),
            lower=-10.0,
            upper=0.0,
            join_fn=lambda l, r: (l, r),
            spill_budget_bytes=256,
        ).sink_to_list([])
        runtime = JobRuntime(env.build("spill-job"))
        assert runtime.join_spill_pressure() < 1.0
        producer = Producer(cluster, "w")
        producer.produce("l", {"k": "a", "pad": "x" * 200}, key="a", event_time=1.0)
        runtime.run_until_quiescent()
        assert runtime.join_spill_pressure() > 1.0

    def test_interval_join_classified_memory_bound(self):
        env = StreamEnvironment()
        cluster = KafkaCluster()
        cluster.create_topic("l", TopicConfig(partitions=1))
        cluster.create_topic("r", TopicConfig(partitions=1))
        env.from_kafka(cluster, "l", group="g").interval_join(
            env.from_kafka(cluster, "r", group="g"),
            key_fns=(lambda v: v["k"], lambda v: v["k"]),
            lower=-1.0,
            upper=0.0,
            join_fn=lambda l, r: (l, r),
        ).sink_to_list([])
        assert classify_job(env.build("j")) is JobProfile.JOIN_MEMORY_BOUND
