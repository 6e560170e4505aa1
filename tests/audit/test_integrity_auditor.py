"""Unit tests for the cross-layer integrity auditor (Section 9.4).

The chaos e2e exercises the auditor against a live pipeline; these tests
pin down the primitives of ``reconcile()`` — digest canonicalization, the
expected ledger, every discrepancy class (missing / duplicated /
reordered), and the byte stability of the rendered report that the
determinism CI gate diffs.
"""

from repro.audit import IntegrityAuditor, IntegrityReport, lineage_digest
from repro.common.clock import SimulatedClock
from repro.common.records import Record
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer


class TestLineageDigest:
    def test_dict_key_order_is_canonical(self):
        assert lineage_digest({"a": 1, "b": 2}) == lineage_digest({"b": 2, "a": 1})

    def test_int_float_typing_drift_is_canonical(self):
        # A count emitted as 3 by Flink and scanned back as 3.0 from a
        # DOUBLE column is the same record.
        assert lineage_digest({"n": 3}) == lineage_digest({"n": 3.0})

    def test_different_payloads_differ(self):
        assert lineage_digest({"n": 3}) != lineage_digest({"n": 4})

    def test_digest_is_short_and_stable(self):
        digest = lineage_digest({"city": "sf", "amount": 2.5})
        assert digest == lineage_digest({"amount": 2.5, "city": "sf"})
        assert len(digest) == 16
        assert int(digest, 16) >= 0  # hex


class TestLineageLedger:
    """The expected ledger is the auditor's first stage."""

    def test_per_key_sequences_keep_order(self):
        audit = IntegrityAuditor("unit")
        one, two = {"v": 1}, {"v": 2}
        digests = audit.record_expected("k", one), audit.record_expected("k", two)
        assert digests == (lineage_digest(one), lineage_digest(two))
        audit.add_stage("in-order", [Record("k", one, 0.0), Record("k", two, 0.0)])
        audit.add_stage("swapped", [Record("k", two, 0.0), Record("k", one, 0.0)])
        in_order, swapped = audit.reconcile().stages
        assert in_order.ok and in_order.expected_records == 2
        assert swapped.reordered == ("'k'",)

    def test_equal_keys_collapse_like_the_partitioner(self):
        audit = IntegrityAuditor("unit")
        audit.record_expected(5, {"v": 1})
        audit.record_expected(5.0, {"v": 2})
        audit.add_stage("s", [Record(5.0, {"v": 1}, 0.0), Record(5, {"v": 2}, 0.0)])
        assert audit.reconcile().ok


def _audited_topic(payloads, produced=None):
    """A one-topic cluster whose log holds ``produced`` (default: exactly
    the expected payloads), plus an auditor expecting ``payloads``."""
    clock = SimulatedClock()
    cluster = KafkaCluster(clock=clock)
    cluster.create_topic("t", TopicConfig(partitions=2))
    producer = Producer(cluster, "gen")
    audit = IntegrityAuditor("unit")
    for key, value in payloads:
        audit.record_expected(key, value)
    for key, value in (payloads if produced is None else produced):
        producer.produce("t", value, key=key)
    audit.add_kafka_stage(cluster, "t")
    return cluster, audit


PAYLOADS = [(f"k{i % 3}", {"k": f"k{i % 3}", "v": i}) for i in range(12)]


class TestReconcile:
    def test_clean_pipeline_reconciles_ok(self):
        __, audit = _audited_topic(PAYLOADS)
        report = audit.reconcile()
        assert report.ok
        assert "CLEAN" in report.summary()
        [stage] = report.stages
        assert (stage.expected_records, stage.observed_records) == (12, 12)

    def test_missing_record_is_flagged_with_its_digest(self):
        __, audit = _audited_topic(PAYLOADS, produced=PAYLOADS[:-1])
        report = audit.reconcile()
        assert not report.ok
        [stage] = report.stages
        [finding] = stage.missing
        lost_key, lost_value = PAYLOADS[-1]
        assert finding.key == repr(lost_key)
        assert finding.count == 1
        assert finding.digests == (lineage_digest(lost_value),)
        assert not stage.duplicated and not stage.reordered

    def test_duplicated_record_is_flagged(self):
        __, audit = _audited_topic(PAYLOADS, produced=PAYLOADS + [PAYLOADS[0]])
        report = audit.reconcile()
        [stage] = report.stages
        [finding] = stage.duplicated
        assert finding.key == repr(PAYLOADS[0][0])
        assert finding.count == 1
        assert "duplicated 1" in stage.summary()

    def test_reordered_key_is_flagged(self):
        audit = IntegrityAuditor("unit")
        audit.record_expected("k", {"v": 1})
        audit.record_expected("k", {"v": 2})
        swapped = [Record("k", {"v": 2}, 0.0), Record("k", {"v": 1}, 0.0)]
        audit.add_stage("fake", swapped)
        report = audit.reconcile()
        [stage] = report.stages
        assert stage.reordered == ("'k'",)
        assert not stage.missing and not stage.duplicated
        assert "reordered keys 1" in stage.summary()

    def test_unexpected_key_reports_as_duplicate_not_crash(self):
        __, audit = _audited_topic(
            PAYLOADS, produced=PAYLOADS + [("rogue", {"v": 99})]
        )
        report = audit.reconcile()
        [stage] = report.stages
        [finding] = stage.duplicated
        assert finding.key == repr("rogue")

    def test_where_and_key_fn_reshape_the_scan(self):
        clock = SimulatedClock()
        cluster = KafkaCluster(clock=clock)
        cluster.create_topic("t", TopicConfig(partitions=1))
        producer = Producer(cluster, "gen")
        audit = IntegrityAuditor("unit")
        audit.record_expected(("w", "sf"), {"win": "w", "city": "sf", "n": 1})
        producer.produce("t", {"win": "w", "city": "sf", "n": 1}, key="sf")
        producer.produce("t", {"city": "__probe-1"}, key="__probe-1")
        audit.add_kafka_stage(
            cluster,
            "t",
            key_fn=lambda record: (record.value["win"], record.value["city"]),
            where=lambda record: not str(record.value["city"]).startswith(
                "__probe"
            ),
        )
        assert audit.reconcile().ok

    def test_multiple_stages_reconcile_independently(self):
        __, audit = _audited_topic(PAYLOADS)
        audit.add_stage("empty", [])
        report = audit.reconcile()
        assert not report.ok
        ok_by_stage = {stage.stage: stage.ok for stage in report.stages}
        assert ok_by_stage == {"kafka:t": True, "empty": False}


class TestReportDeterminism:
    def test_render_is_byte_stable_across_reconciles(self):
        __, audit = _audited_topic(PAYLOADS, produced=PAYLOADS[2:] + PAYLOADS[:1])
        first = audit.reconcile().render()
        second = audit.reconcile().render()
        assert first == second
        assert isinstance(audit.last_report, IntegrityReport)

    def test_findings_sorted_by_display_key(self):
        produced = list(reversed(PAYLOADS))[:6]  # lose half, scan reversed
        __, audit = _audited_topic(PAYLOADS, produced=produced)
        [stage] = audit.reconcile().stages
        keys = [finding.key for finding in stage.missing]
        assert keys == sorted(keys)

    def test_render_names_the_verdict_and_stage_counts(self):
        __, audit = _audited_topic(PAYLOADS)
        text = audit.reconcile().render()
        assert "=== integrity report: unit ===" in text
        assert "stage kafka:t: expected=12 observed=12 OK" in text
        assert text.endswith("verdict: CLEAN")
