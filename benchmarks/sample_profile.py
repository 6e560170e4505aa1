"""Sampling profile of one ``benchmarks/e2e`` workload's timed phase.

    python3 benchmarks/sample_profile.py --workload join_backfill --seed 1

cProfile charges its per-call overhead to Python-level calls only, so it
over-ranks call-heavy code (``serde.encoded_size``) and cannot see time
spent in C-level ``object.__setattr__`` made by dataclass-generated
``__init__``.  This asks for a stack sample every 0.5 ms of CPU time
instead (``ITIMER_PROF``; the kernel delivers at its own tick, 4 ms on
the reference host, so ``--repeats`` is how to get more samples): a
function's *self* share is the samples it was executing in, its
*cumulative* share those it was anywhere on the stack of.  It prints three
tables: the top frames ranked by self share, then ranked by cumulative
share, where a layer's entry point (``Producer.send``, a task's ``step``)
shows what the whole layer costs, then each source file's cumulative
share — the samples with any of its frames on the stack — so a module
whose cost is spread thin over many small calls (the tracer's
``trace.py``) reads as one row.  Generated
``<string>:__init__`` frames are named after ``type(self)`` and counted
in the file that defines it, every other frame ``file:function:firstline``,
so two lambdas (or comprehensions) of one file are two rows.

The cyclic collector runs in C and has no frame of its own.  A sample
that falls in a collection is taken at the next Python frame to run, and
the timer's expiries during one long collection merge into that one
sample.  Without a ``gc.callbacks`` hook, that frame is the one whose
allocation triggered the collection, so a structure that keeps many
containers alive shows up as self time of whatever code allocates.  The
hook that times the collector here runs first instead, so those samples
read as ``sample_profile.py:on_gc``, and still far fewer than the
collector's time.  The collector is therefore timed apart, with
``gc.callbacks`` as ``benchmarks/e2e/layers.py`` does, and printed under
the sample count: its share of the timed phase and the collections per
generation.  It asserts nothing about time; the speed claims come from
``benchmarks/e2e/run.py``, which this file only imports.
"""

from __future__ import annotations

import argparse
import gc
import signal
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

INTERVAL_S = 0.0005
TOP = 60


def frame_name(frame) -> str:
    code = frame.f_code
    if code.co_filename == "<string>" and "self" in frame.f_locals:
        return f"{type(frame.f_locals['self']).__name__}.{code.co_name} (generated)"
    return f"{Path(code.co_filename).name}:{code.co_name}:{code.co_firstlineno}"


def frame_file(frame) -> str:
    """The source file a frame's code belongs to; a generated frame
    belongs to the file defining ``type(self)``."""
    filename = frame.f_code.co_filename
    if filename == "<string>" and "self" in frame.f_locals:
        module = sys.modules.get(type(frame.f_locals["self"]).__module__)
        filename = getattr(module, "__file__", None) or filename
    return Path(filename).name


def main() -> int:
    import run
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = sorted(workloads.WORKLOADS)
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    self_samples: Counter = Counter()
    cumulative: Counter = Counter()
    by_file: Counter = Counter()

    def sample(signum, frame) -> None:
        if frame.f_code is run.calibration_kernel.__code__:
            return  # the ruler's own host-speed probe, not the workload
        self_samples[frame_name(frame)] += 1
        on_stack, files = set(), set()
        while frame is not None:
            on_stack.add(frame_name(frame))
            files.add(frame_file(frame))
            frame = frame.f_back
        cumulative.update(on_stack)
        by_file.update(files)

    collections = [0, 0, 0]  # per generation
    gc_s = phase_s = began = 0.0

    def on_gc(event: str, info: dict) -> None:
        nonlocal gc_s, began
        if event == "start":
            began = time.perf_counter()
        else:
            gc_s += time.perf_counter() - began
            collections[info["generation"]] += 1

    generate, build, run_phase, __ = workloads.WORKLOADS[args.workload]

    def observed_phase(state, inputs, phase) -> dict:
        # The run alone: timed_phase's calibration and gc.collect() stay
        # outside, as they do for the traced run's collector timing.
        nonlocal phase_s
        started = time.perf_counter()
        gc.callbacks.append(on_gc)
        try:
            return run_phase(state, inputs, phase)
        finally:
            gc.callbacks.remove(on_gc)
            phase_s += time.perf_counter() - started

    inputs = generate(args.seed, args.scale)
    signal.signal(signal.SIGPROF, sample)
    for __ in range(args.repeats):
        state = build(run.fresh_import(), inputs)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            run.timed_phase(observed_phase, state, inputs, None)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    total = sum(self_samples.values()) or 1
    print(f"{args.workload} seed={args.seed} scale={args.scale:g}: {total} samples")
    print(
        f"collector: {gc_s / phase_s:.1%} of {phase_s:.2f} s timed phase "
        f"({args.repeats} repeats); collections gen0/gen1/gen2 "
        + "/".join(map(str, collections))
    )
    print(f"{'self':>7} {'cum':>7}  function")
    for name, count in self_samples.most_common(TOP):
        print(f"{count / total:7.1%} {cumulative[name] / total:7.1%}  {name}")
    print(f"\nby cumulative share:\n{'cum':>7} {'self':>7}  function")
    for name, count in cumulative.most_common(TOP):
        print(f"{count / total:7.1%} {self_samples[name] / total:7.1%}  {name}")
    print(f"\nby source file:\n{'cum':>7}  file")
    for name, count in by_file.most_common(TOP):
        print(f"{count / total:7.1%}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
