"""Cross-layer observability: tracing, freshness reports and SLO monitoring.

Implements the operational half of the paper — Section 8's seconds-level
freshness claims and Section 9.3's per-use-case monitoring — as a small
subsystem every layer of the stack hooks into via an opt-in ``tracer=``
kwarg.  See :mod:`repro.observability.trace` for the data-path model.
"""

from repro.observability.freshness import FreshnessReport
from repro.observability.slo import (
    TABLE1_SLOS,
    SloEvaluation,
    SloMonitor,
    SloTarget,
)
from repro.observability.trace import (
    HOP_ORDER,
    ORIGIN_HEADER,
    TRACE_HEADER,
    Span,
    SpanCollector,
    TraceContext,
)

__all__ = [
    "HOP_ORDER",
    "ORIGIN_HEADER",
    "TRACE_HEADER",
    "Span",
    "SpanCollector",
    "TraceContext",
    "FreshnessReport",
    "SloEvaluation",
    "SloMonitor",
    "SloTarget",
    "TABLE1_SLOS",
]
