"""Million-user control plane: admission and cross-layer scaling.

The paper's Section 3 requirements — multi-tenant SLO tiers, elastic
scaling, load shedding under surge — concentrated in one package:

* :mod:`~repro.controlplane.admission` — SLO-tiered token-bucket
  admission with p99-reactive and queue-pressure load shedding;
* :mod:`~repro.controlplane.scaler` — one reactive controller scaling
  Kafka partitions, Pinot servers/ingest, Presto workers and Flink jobs
  with per-resource hysteresis;
* :mod:`~repro.controlplane.plane` — the Platform-facing facade.

The surge experiment that drives all three against millions of users
(its workload generator and queue model with it) is the counted-work
gate's ``controlplane_surge`` scenario, in ``benchmarks/core/``.
"""

from repro.controlplane.admission import (
    TIER_ORDER,
    TIER_QUERY_SLOS,
    AdmissionController,
    AdmissionDecision,
    DecisionLog,
    TokenBucket,
    tier_of,
)
from repro.controlplane.plane import ControlPlane
from repro.controlplane.scaler import CrossLayerController, ResourcePolicy

__all__ = [
    "TIER_ORDER",
    "TIER_QUERY_SLOS",
    "AdmissionController",
    "AdmissionDecision",
    "ControlPlane",
    "CrossLayerController",
    "DecisionLog",
    "ResourcePolicy",
    "TokenBucket",
    "tier_of",
]
