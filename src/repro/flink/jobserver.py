"""The unified job management layer (Section 4.2.2, Figure 5).

Sits between the platform layer (FlinkSQL, business components) and the
physical infrastructure.  Offers the unified API abstractions the paper
lists — validate / start / stop / list — persists job metadata and state
checkpoints, dispatches jobs to compute clusters by type and priority, and
continuously monitors health, automatically recovering jobs from transient
failures (the shared component of Figure 5's middle layer).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.common.errors import JobNotFoundError, JobValidationError
from repro.flink.graph import JobGraph, validate_graph
from repro.flink.runtime import JobRuntime
from repro.storage.blobstore import BlobStore


class JobState(Enum):
    VALIDATED = "validated"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"
    RECOVERING = "recovering"


class JobPriority(Enum):
    CRITICAL = 0  # surge, payments
    PRODUCTION = 1  # dashboards, monitoring
    ADHOC = 2  # exploration, backfills


@dataclass
class ComputeCluster:
    """One physical compute cluster (YARN / Peloton pool in the paper)."""

    name: str
    total_slots: int
    used_slots: int = 0

    def free_slots(self) -> int:
        return self.total_slots - self.used_slots


@dataclass
class ManagedJob:
    """Job metadata the management layer persists."""

    job_id: str
    graph: JobGraph
    priority: JobPriority
    state: JobState
    cluster: str | None = None
    runtime: JobRuntime | None = None
    restarts: int = 0
    last_checkpoint: int | None = None
    slots: int = 0
    tags: dict[str, Any] = field(default_factory=dict)


class JobServer:
    """Deploy, monitor and recover streaming jobs across compute clusters."""

    def __init__(self, checkpoint_store: BlobStore | None = None) -> None:
        self.checkpoint_store = checkpoint_store or BlobStore("flink-checkpoints")
        self.clusters: dict[str, ComputeCluster] = {}
        self.jobs: dict[str, ManagedJob] = {}
        self._ids = itertools.count(1)

    def add_cluster(self, name: str, total_slots: int) -> ComputeCluster:
        cluster = ComputeCluster(name, total_slots)
        self.clusters[name] = cluster
        return cluster

    # -- unified API (Start / Stop / List, Section 4.2.2) ---------------------

    def validate(self, graph: JobGraph) -> None:
        validate_graph(graph)

    def submit(
        self,
        graph: JobGraph,
        priority: JobPriority = JobPriority.PRODUCTION,
        slots: int | None = None,
    ) -> str:
        """Validate, place and start a job; returns its job id."""
        self.validate(graph)
        job_id = f"job-{next(self._ids)}"
        needed = slots if slots is not None else sum(
            op.parallelism for op in graph.operators.values()
        )
        cluster = self._place(needed, priority)
        runtime = JobRuntime(graph, blob_store=self.checkpoint_store)
        job = ManagedJob(
            job_id=job_id,
            graph=graph,
            priority=priority,
            state=JobState.RUNNING,
            cluster=cluster.name,
            runtime=runtime,
            slots=needed,
        )
        cluster.used_slots += needed
        self.jobs[job_id] = job
        return job_id

    def _place(self, slots: int, priority: JobPriority) -> ComputeCluster:
        """Dispatch by priority: critical jobs get first pick of capacity."""
        if not self.clusters:
            raise JobValidationError("no compute clusters registered")
        candidates = [c for c in self.clusters.values() if c.free_slots() >= slots]
        if not candidates:
            if priority is JobPriority.CRITICAL:
                # Critical jobs may oversubscribe the least-loaded cluster.
                return min(
                    self.clusters.values(), key=lambda c: c.used_slots / c.total_slots
                )
            raise JobValidationError(
                f"no cluster has {slots} free slots for a {priority.name} job"
            )
        return max(candidates, key=ComputeCluster.free_slots)

    def stop(self, job_id: str, with_savepoint: bool = True) -> int | None:
        """Stop a job, optionally taking a final checkpoint (savepoint)."""
        job = self.get(job_id)
        savepoint = None
        if with_savepoint and job.runtime is not None:
            savepoint = job.runtime.trigger_checkpoint()
            job.last_checkpoint = savepoint
        self._release(job)
        job.state = JobState.STOPPED
        return savepoint

    def _release(self, job: ManagedJob) -> None:
        if job.cluster is not None:
            self.clusters[job.cluster].used_slots -= job.slots

    def list_jobs(self, state: JobState | None = None) -> list[ManagedJob]:
        jobs = sorted(self.jobs.values(), key=lambda j: j.job_id)
        if state is None:
            return jobs
        return [j for j in jobs if j.state == state]

    def get(self, job_id: str) -> ManagedJob:
        if job_id not in self.jobs:
            raise JobNotFoundError(f"unknown job {job_id!r}")
        return self.jobs[job_id]

    # -- execution driving ----------------------------------------------------

    def run_all(self, rounds: int = 1) -> dict[str, int]:
        """Drive every running job's scheduler; returns per-job progress."""
        progress = {}
        for job in self.jobs.values():
            if job.state is JobState.RUNNING and job.runtime is not None:
                progress[job.job_id] = job.runtime.run_rounds(rounds)
        return progress

    def checkpoint(self, job_id: str) -> int:
        job = self.get(job_id)
        if job.runtime is None:
            raise JobValidationError(f"job {job_id} has no runtime")
        checkpoint_id = job.runtime.trigger_checkpoint()
        job.last_checkpoint = checkpoint_id
        return checkpoint_id

    # -- failure handling -------------------------------------------------------

    def mark_failed(self, job_id: str) -> None:
        """Record a job failure (detected by the watchdog or a user)."""
        job = self.get(job_id)
        job.state = JobState.FAILED

    def recover(self, job_id: str) -> bool:
        """Automatically restart a failed job from its last checkpoint.

        Builds a fresh runtime and restores state + source offsets; if no
        checkpoint exists, restarts from scratch (sources at earliest).
        Returns True on success.
        """
        job = self.get(job_id)
        if job.state is not JobState.FAILED:
            return False
        job.state = JobState.RECOVERING
        runtime = JobRuntime(job.graph, blob_store=self.checkpoint_store)
        if job.last_checkpoint is not None:
            runtime.restore_from(job.last_checkpoint)
        job.runtime = runtime
        job.restarts += 1
        job.state = JobState.RUNNING
        return True

    def health_snapshot(self) -> dict[str, dict[str, float]]:
        """Per-job metrics the watchdog rules evaluate."""
        out: dict[str, dict[str, float]] = {}
        for job in self.jobs.values():
            if job.runtime is None:
                continue
            out[job.job_id] = {
                "state_bytes": float(job.runtime.total_state_bytes()),
                "join_spill_pressure": job.runtime.join_spill_pressure(),
                "buffered_elements": float(job.runtime.total_buffered_elements()),
                "source_lag": float(job.runtime.total_source_lag()),
                "running": 1.0 if job.state is JobState.RUNNING else 0.0,
                "restarts": float(job.restarts),
            }
        return out
