"""Per-use-case SLO targets and evaluation (paper Sections 8 and 9.3).

Table 1 of the paper groups the platform's workloads into representative
use cases — surge pricing needs seconds-level freshness, dashboards need
sub-second query latency at high QPS, ads attribution needs exactly-once
delivery within minutes.  Section 9.3's monitoring/chargeback story turns
those expectations into per-use-case targets evaluated continuously.

:class:`SloMonitor` is that evaluation loop in miniature: register
:class:`SloTarget` objects, feed observed samples (directly, or from a
:class:`~repro.observability.freshness.FreshnessReport` such as
``Platform.freshness`` reads off the stored ingest spans), and render a
text dashboard of pass/fail per target.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observability.freshness import FreshnessReport, nearest_rank


@dataclass(frozen=True)
class SloTarget:
    """One use case's target: ``metric`` at ``percentile`` must stay at or
    under ``target_seconds``."""

    use_case: str
    metric: str  # e.g. "freshness", "e2e_latency", "query_latency"
    percentile: float
    target_seconds: float
    description: str = ""

    @property
    def key(self) -> tuple[str, str]:
        return (self.use_case, self.metric)


@dataclass(frozen=True)
class SloEvaluation:
    """Outcome of evaluating one target against its observed samples."""

    target: SloTarget
    observed: float | None  # None = no samples yet
    sample_count: int

    @property
    def met(self) -> bool | None:
        if self.observed is None:
            return None
        return self.observed <= self.target.target_seconds

    @property
    def status(self) -> str:
        if self.met is None:
            return "NO DATA"
        return "OK" if self.met else "VIOLATED"


# Freshness/latency expectations for the paper's Section 5 use cases.
# The paper quotes qualitative bands ("seconds", "sub-second queries",
# "minutes" for ads); the numbers here are the reproduction's concrete
# stand-ins for those bands.
TABLE1_SLOS = (
    SloTarget(
        "surge_pricing",
        "freshness",
        99,
        120.0,
        "surge windows queryable within the 2-minute pricing cycle",
    ),
    SloTarget(
        "eats_dashboard",
        "freshness",
        99,
        30.0,
        "restaurant dashboards read seconds-fresh orders",
    ),
    SloTarget(
        "ads_attribution",
        "e2e_latency",
        99,
        300.0,
        "ad events attributed within minutes, exactly once",
    ),
    SloTarget(
        "exploration",
        "query_latency",
        95,
        5.0,
        "ad-hoc Presto queries return interactively",
    ),
)


class SloMonitor:
    """Evaluates registered targets against observed samples."""

    def __init__(self, targets: tuple[SloTarget, ...] | list[SloTarget] = ()) -> None:
        self._targets: dict[tuple[str, str], SloTarget] = {}
        self._samples: dict[tuple[str, str], list[float]] = {}
        for target in targets:
            self.add_target(target)

    @staticmethod
    def with_table1_targets() -> "SloMonitor":
        return SloMonitor(TABLE1_SLOS)

    def add_target(self, target: SloTarget) -> None:
        self._targets[target.key] = target
        self._samples.setdefault(target.key, [])

    def targets(self) -> list[SloTarget]:
        return list(self._targets.values())

    # -- feeding samples ----------------------------------------------------

    def observe(self, use_case: str, metric: str, value: float) -> None:
        self._samples.setdefault((use_case, metric), []).append(value)

    def ingest_report(
        self, use_case: str, report: FreshnessReport, metric: str = "freshness"
    ) -> None:
        self._samples.setdefault((use_case, metric), []).extend(report.samples)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self) -> list[SloEvaluation]:
        results = []
        for key, target in self._targets.items():
            samples = sorted(self._samples.get(key, []))
            observed = nearest_rank(samples, target.percentile) if samples else None
            results.append(SloEvaluation(target, observed, len(samples)))
        return results

    def violations(self) -> list[SloEvaluation]:
        return [e for e in self.evaluate() if e.met is False]

    def render(self) -> str:
        """Text dashboard, one row per target."""
        header = ["use case", "metric", "target", "observed", "n", "status"]
        rows = []
        for ev in self.evaluate():
            t = ev.target
            rows.append(
                [
                    t.use_case,
                    f"p{t.percentile:g} {t.metric}",
                    f"<= {t.target_seconds:g}s",
                    "-" if ev.observed is None else f"{ev.observed:.2f}s",
                    str(ev.sample_count),
                    ev.status,
                ]
            )
        widths = [
            max(len(row[i]) for row in [header] + rows) for i in range(len(header))
        ]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)
