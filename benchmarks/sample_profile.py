"""Sampling profile of one ``benchmarks/e2e`` workload's timed phase.

    python3 benchmarks/sample_profile.py --workload join_backfill --seed 1

cProfile charges its per-call overhead to Python-level calls only, so it
over-ranks call-heavy code (``serde.encoded_size``) and cannot see time
spent in C-level ``object.__setattr__`` made by dataclass-generated
``__init__``.  This asks for a stack sample every 0.5 ms of CPU time
instead (``ITIMER_PROF``; the kernel delivers at its own tick, 4 ms on
the reference host, so ``--repeats`` is how to get more samples): a
function's *self* share is the samples it was executing in, its
*cumulative* share those it was anywhere on the stack of.  Generated
``<string>:__init__`` frames are named after ``type(self)``.  It asserts
nothing about time; the speed claims come from ``benchmarks/e2e/run.py``,
which this file only imports.
"""

from __future__ import annotations

import argparse
import signal
import sys
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
    return f"{Path(code.co_filename).name}:{code.co_name}"


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

    def sample(signum, frame) -> None:
        if frame.f_code is run.calibration_kernel.__code__:
            return  # the ruler's own host-speed probe, not the workload
        self_samples[frame_name(frame)] += 1
        on_stack = set()
        while frame is not None:
            on_stack.add(frame_name(frame))
            frame = frame.f_back
        cumulative.update(on_stack)

    generate, build, run_phase, __ = workloads.WORKLOADS[args.workload]
    inputs = generate(args.seed, args.scale)
    signal.signal(signal.SIGPROF, sample)
    for __ in range(args.repeats):
        state = build(run.fresh_import(), inputs)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            run.timed_phase(run_phase, state, inputs, None)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    total = sum(self_samples.values()) or 1
    print(f"{args.workload} seed={args.seed} scale={args.scale:g}: {total} samples")
    print(f"{'self':>7} {'cum':>7}  function")
    for name, count in self_samples.most_common(TOP):
        print(f"{count / total:7.1%} {cumulative[name] / total:7.1%}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
