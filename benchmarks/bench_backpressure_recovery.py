"""Experiment C1 — §4.2: backlog recovery, Flink vs Storm.

Paper: "Storm performed poorly in handling back pressure when faced with a
massive input backlog of millions of messages, taking several hours to
recover whereas Flink only took 20 minutes."

Reproduced series: recovery time for a 1M-message backlog at the same
service rate.  Flink's credit-based engine recovers in backlog/rate
(~17 simulated minutes at 1000 msg/s); the Storm ack-timeout engine thrashes
on replays and takes several times longer (simulated hours), with goodput
collapse visible in the wasted-work column.
"""

from __future__ import annotations

from benchmarks.foils.backlog import recovery_comparison

from benchmarks.conftest import print_table

BACKLOG = 1_000_000
SERVICE_RATE = 1000.0


def test_backlog_recovery(benchmark):
    results = benchmark.pedantic(
        recovery_comparison,
        kwargs={"backlog": BACKLOG, "service_rate": SERVICE_RATE,
                "ack_timeout": 30.0},
        rounds=1, iterations=1,
    )
    print_table(
        "C1: recovery from a 1M-message backlog @ 1000 msg/s",
        ["engine", "recovery (sim min)", "wasted work", "replays", "lost",
         "goodput"],
        [
            [
                name,
                f"{r.recovery_seconds / 60:.1f}",
                r.wasted_work,
                r.replays,
                r.lost,
                f"{r.goodput_fraction():.2f}",
            ]
            for name, r in results.items()
        ],
    )
    flink = results["flink"]
    storm = results["storm-replay"]
    drop = results["storm-drop"]
    # Flink: ~1000s =~ 17 min, matching the paper's "20 minutes" scale.
    assert 10 <= flink.recovery_seconds / 60 <= 30
    # Storm: multiple times slower (the paper's "several hours" shape).
    assert storm.recovery_seconds > 3 * flink.recovery_seconds
    assert storm.goodput_fraction() < 0.8
    assert flink.wasted_work == 0
    # The drop variant is "fast" only because it loses most of the data.
    assert drop.lost > BACKLOG * 0.5
    benchmark.extra_info["storm_over_flink"] = (
        storm.recovery_seconds / flink.recovery_seconds
    )
