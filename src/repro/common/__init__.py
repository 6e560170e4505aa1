"""Shared substrate: clocks, records, serde, memory accounting."""

from repro.common.clock import Clock, SimulatedClock, SystemClock
from repro.common.memory import deep_sizeof
from repro.common.records import Record
from repro.common.rng import seeded_rng, zipf_sampler
from repro.common.serde import decode, encode, encoded_size

__all__ = [
    "Clock",
    "SimulatedClock",
    "SystemClock",
    "Record",
    "deep_sizeof",
    "seeded_rng",
    "zipf_sampler",
    "encode",
    "decode",
    "encoded_size",
]
