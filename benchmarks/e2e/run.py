"""Wall-clock benchmark of the Figure 3 path: one workload, one seed, one run.

    python3 benchmarks/e2e/run.py --workload olap_scan --seed 42 \
        --seconds 10 --trace 0

Everything is fixed work in one thread; only the stopwatch varies between
runs of one seed.  ``--trace 0`` prints the end-to-end metrics, the
stopwatch's readings restated for a host of fixed speed; ``--trace 1``
repeats the same inputs with spans around each layer's entry points and
prints the per-layer metrics as read.  The last line of standard output is the
result as one JSON object.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform as host_platform
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

REPEATS = 10
CALIBRATE_EVERY_S = 0.5
DISTURBED_RATIO = 1.25
REFERENCE_CALIB_MS = 16.0
QUERY_STATS = (
    "segments_scanned",
    "segments_pruned",
    "cache_hits",
    "rows_transferred",
    "stages_executed",
    "stage_artifact_hits",
)


def calibration_kernel() -> int:
    """Fixed pure-Python work that touches no ``repro`` code: the measure
    of how fast the host is at the moment (``on_reference_host``)."""
    total = 0
    for i in range(250_000):
        total += i * i % 7
    return total


def fresh_import() -> Any:
    """Import ``repro`` as a new process would: set-up is timed several
    times in one run, and each time pays for the package's import."""
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    import repro

    return repro


class Phase:
    """Stopwatch of one timed phase.

    A step is one tick, query or scheduler call.  Its wall time runs from
    the end of the previous step, so the driver loop's own work is inside
    it; calibration and the traced run's gauge sampling happen between
    steps and are outside every step.
    """

    clock = staticmethod(time.perf_counter)

    def __init__(self, tracing: Any | None) -> None:
        self.tracing = tracing
        self.walls: list[float] = []
        self.items: list[int] = []
        self.latency_ms: list[float] = []  # the workload's latency samples
        self.query_ms: list[float] = []  # every Platform.sql call
        self.calib_ms: list[float] = []
        self.stats: Counter = Counter()
        self._mark = self._calibrated = 0.0

    def calibrate(self, times: int) -> None:
        for __ in range(times):
            begin = self.clock()
            calibration_kernel()
            self.calib_ms.append((self.clock() - begin) * 1000)

    def start(self) -> None:
        self._mark = self._calibrated = self.clock()

    def begin_step(self, trace: int) -> None:
        if self.tracing is not None:
            self.tracing.begin_step(trace)

    def end_step(self, items: int) -> None:
        if self.tracing is not None:
            self.tracing.end_step()
        now = self.clock()
        self.walls.append(now - self._mark)
        self.items.append(items)
        if self.tracing is not None:
            self.tracing.between_steps()
        if now - self._calibrated > CALIBRATE_EVERY_S:
            self.calibrate(1)
            self._calibrated = self.clock()
        self._mark = self.clock()

    def observe(self, stats: Any) -> None:
        """Fold one ``QueryOutput.stats`` into the phase's totals."""
        for name in QUERY_STATS:
            self.stats[name] += getattr(stats, name)

    @property
    def wall_s(self) -> float:
        return math.fsum(self.walls)


def fastest(repeats: list[list[float]]) -> list[float]:
    """Per step, the fastest of the repeats.  Every repeat does the same
    work step by step, and on a shared host interference only ever adds
    time, so the minimum is the step's time on an undisturbed machine."""
    if len({len(samples) for samples in repeats}) != 1:
        raise SystemExit("repeats of one seed took different numbers of steps")
    return [min(samples) for samples in zip(*repeats)]


def on_reference_host(stopwatch: dict[str, float], calib_ms: float) -> dict:
    """The stopwatch's readings restated for a host on which the
    calibration kernel takes ``REFERENCE_CALIB_MS``.

    Neighbours speed this VM up and slow it down by 10-40% for minutes at
    a time, uniformly down to single steps, so no repeat inside a run is
    spared; the kernel is timed all through the run and moves with it.
    ``calib_ms`` is the fastest kernel sample of the run, as every step's
    time is its fastest repeat."""
    slower = calib_ms / REFERENCE_CALIB_MS
    return {
        "setup_s": stopwatch["setup_s"] / slower,
        "throughput_per_s": stopwatch["throughput_per_s"] * slower,
        "latency_p50_ms": stopwatch["latency_p50_ms"] / slower,
        "latency_p90_ms": stopwatch["latency_p90_ms"] / slower,
        "peak_rss_mb": stopwatch["peak_rss_mb"],
    }


def timed_phase(run: Callable, state: Any, inputs: dict, tracing: Any | None) -> tuple:
    phase = Phase(tracing)
    phase.calibrate(3)
    gc.collect()  # start every phase from the same heap; GC stays enabled
    with tracing.active() if tracing is not None else nullcontext():
        result = run(state, inputs, phase)
    phase.calibrate(3)
    return phase, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=float,
        default=SPEC["run_seconds"],
        help="nominal length of the timed phase; the fixed work is sized "
        "in proportion to it (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="for test_smoke.py only: shrink the work; numbers are valid at 1",
    )
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order (and with it routing and allocation patterns)
        # must not differ between runs of one seed.
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            dict(os.environ, PYTHONHASHSEED="0"),
        )

    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    generate, build, run, check = workloads.WORKLOADS[args.workload]
    scale = args.scale * args.seconds / SPEC["run_seconds"]
    inputs = generate(args.seed, scale)

    # The whole run, several times over: each repeat is a fresh import,
    # platform and preload (a setup_s sample) and then the timed phase on
    # it.  Only the last repeat of a traced run is traced; the others give
    # the untraced phase its overhead ratio is taken against.
    setups = []
    phases: list[Phase] = []
    failed = 0
    state = None
    for repeat in range(REPEATS):
        state = None
        gc.collect()
        begin = time.perf_counter()
        state = build(fresh_import(), inputs)
        setups.append(time.perf_counter() - begin)
        last = repeat == REPEATS - 1
        tracing = layers.Tracing(state) if args.trace and last else None
        phase, result = timed_phase(run, state, inputs, tracing)
        phases.append(phase)
        failed += result["failed"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, check_failed = check(state, inputs, result)
    failed += check_failed

    calib_ms = [ms for p in phases for ms in p.calib_ms]
    if tracing is not None:
        untraced_wall_s = statistics.median(p.wall_s for p in phases[:-1])
        metrics = tracing.metrics(phase, inputs["records"], untraced_wall_s)
        declared = SPEC["per_layer"]
        spans_path = HERE / "out" / f"spans-{args.workload}-{args.seed}.json"
        tracing.recorder.dump(
            spans_path,
            {"workload": args.workload, "seed": args.seed, "phase_s": phase.wall_s},
        )
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        latency_ms = fastest([p.latency_ms for p in phases])
        stopwatch = {
            "setup_s": min(setups),
            "throughput_per_s": sum(phase.items)
            / math.fsum(fastest([p.walls for p in phases])),
            "latency_p50_ms": layers.percentile(latency_ms, 0.50),
            "latency_p90_ms": layers.percentile(latency_ms, 0.90),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = on_reference_host(stopwatch, min(calib_ms))
        declared = SPEC["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if metrics.keys() != units.keys():
        odd = sorted(metrics.keys() ^ units.keys())
        print(f"metrics differ from BENCHMARK.json: {odd}", file=sys.stderr)
        return 3

    disturbed = max(calib_ms) > DISTURBED_RATIO * statistics.median(calib_ms)
    print(
        f"fingerprint python={host_platform.python_version()} nproc={os.cpu_count()} "
        f"workload={args.workload} seed={args.seed} scale={scale:g} "
        f"trace={args.trace} records={inputs['records']} queries={inputs['queries']} "
        f"steps={len(phase.walls)} latency_samples={len(phase.latency_ms)} "
        f"repeats={REPEATS} phase_s={'/'.join(f'{p.wall_s:.3f}' for p in phases)} "
        f"setup_s={'/'.join(f'{s:.3f}' for s in setups)} "
        f"calib_ms_min={min(calib_ms):.3f} "
        f"calib_ms_p50={statistics.median(calib_ms):.2f} "
        f"calib_ms_max={max(calib_ms):.2f} disturbed={int(disturbed)}"
    )
    for name, value in metrics.items():
        read = ""
        if tracing is None and stopwatch[name] != value:
            read = f"  (stopwatch {stopwatch[name]:.6g})"
        print(f"{name} = {value:.6g} {units[name]}{read}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
