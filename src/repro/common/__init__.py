"""Shared substrate: clocks, records, serde, memory accounting."""

from repro.common.clock import Clock, SimulatedClock, SystemClock
from repro.common.memory import deep_sizeof
from repro.common.records import Record, next_uid, stamp_audit_headers
from repro.common.rng import seeded_rng, zipf_sampler
from repro.common.serde import decode, encode, encoded_size

__all__ = [
    "Clock",
    "SimulatedClock",
    "SystemClock",
    "Record",
    "next_uid",
    "stamp_audit_headers",
    "deep_sizeof",
    "seeded_rng",
    "zipf_sampler",
    "encode",
    "decode",
    "encoded_size",
]
