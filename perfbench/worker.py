"""One benchmark process: set up, print READY, measure, print one JSON line.

Started by run.py with ``src`` on PYTHONPATH.  Set-up is the import, input
generation and one untimed pass over the workload's cycle.  The timed loop
then repeats cycles for --seconds; checks run outside the timed part.  The
record gives each cycle's items, timed seconds and timed reference units
(see :func:`reference_s`), and the hash of cycle 0's
outputs, which must match the warm-up pass and every other worker run with
the same seed.  With --trace 1 odd cycles record spans, even cycles do not,
and the layer probes run after the loop.  With --setup-only it exits at
READY, so that run.py can time set-up once more.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import workloads
from spans import Tracer, Untraced

REFERENCE_LOOPS = 100_000
REFERENCE_EVERY_S = 0.25


def _median_of_5(fn) -> float:
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _python_loop() -> None:
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7


def reference_s(memory: bool) -> tuple[float, float | None]:
    """Reference times: (core, memory), each the median of 5 timings.

    core is seconds per 10^6 iterations of a fixed pure-Python loop; memory
    is seconds per GiB read by a compare-and-count over a 32 MiB array,
    measured only when ``memory``.  Neither touches the library, so their
    speed tracks only the machine.  On a shared host the core's speed and
    the memory bandwidth swing by 10-30% within seconds, not always
    together; timing these next to each step and dividing a step's time by
    the reference of its kind keeps those swings out of the throughput.
    """
    core = _median_of_5(_python_loop) * (1_000_000 / REFERENCE_LOOPS)
    if not memory:
        return core, None
    # Made afresh and dropped each time, so that it adds nothing to the
    # peak memory of the steps in between.
    a = np.linspace(0.0, 1.0, 1 << 22)  # 32 MiB, far beyond the caches
    stream = _median_of_5(lambda: int((a[1:] < a[:-1]).sum()))
    return core, stream * (1 << 30) / (2 * a.nbytes)


def per_ref(cycles) -> float:
    """Items per reference unit pooled over cycles: total items / total units."""
    return sum(c[0] for c in cycles) / sum(c[2] for c in cycles)


def span_cost_us() -> float:
    """Microseconds one recorded span adds around a call: the median over
    blocks of 10^4 traced no-op calls, less the same calls untraced."""
    calls = 10_000

    def block(tr):
        t0 = time.perf_counter()
        for _ in range(calls):
            tr.call("noop", int)
        return time.perf_counter() - t0

    costs = [block(Tracer()) - block(Untraced()) for _ in range(15)]
    return statistics.median(costs) / calls * 1e6


def fingerprint(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


class Run:
    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.refs: list[tuple[float, float | None]] = []
        self.memory = False  # whether any step is memory-bound
        self._ref_at = 0.0

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def reference(self) -> None:
        self.refs.append(reference_s(self.memory))
        self._ref_at = time.perf_counter()

    def cycle(self, index: int, tracer, timed: bool):
        """Run one cycle: (items, spans, outputs).

        A span is (timed seconds, index of the reference just before the
        step, reference kind) for each step that returned.  With ``timed``
        each output is checked and the references are timed at the cycle's
        ends and between steps at least every REFERENCE_EVERY_S.
        """
        steps = self.workload.steps(index)
        items = 0
        outputs = []
        spans = []  # (seconds, index of the reference before the step, reference kind)
        if timed:
            self.reference()
        for j, step in enumerate(steps):
            if timed and time.perf_counter() - self._ref_at >= REFERENCE_EVERY_S:
                self.reference()
            t0 = time.perf_counter()
            try:
                with tracer.span(f"step:{step.name}", op=f"{index}.{j}"):
                    out = step.run(tracer)
            except Exception:
                # A raising call is a failed call; the run goes on.
                self.attempted += 1
                self.fail(f"{step.name} raised:\n{traceback.format_exc()}")
                outputs.append(None)
                continue
            spans.append((time.perf_counter() - t0, len(self.refs) - 1, int(step.memory_bound)))
            items += step.items
            outputs.append(out)
            if timed:
                self.attempted += 1
                message = step.check(out)
                if message:
                    self.fail(message)
        if timed:
            self.reference()
        else:
            self.memory = any(step.memory_bound for step in steps)
        return items, spans, outputs

    def units(self, spans) -> float:
        """Timed reference units of a cycle's spans.

        A step's reference time is the mean of the measurements of its kind
        just before and just after it.
        """
        return sum(s / ((self.refs[k][kind] + self.refs[k + 1][kind]) / 2) for s, k, kind in spans)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", default="")
    ap.add_argument("--setup-only", action="store_true", help="exit after READY; times set-up once more")
    args = ap.parse_args()

    run = Run(workloads.WORKLOADS[args.workload](args.seed))
    # Warm-up: cycle 0, untimed and unchecked; timed cycle 0 repeats it and
    # must reproduce it exactly.
    _, _, warm = run.cycle(0, Untraced(), timed=False)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    warm_print = fingerprint(warm)
    del warm

    tracer = Tracer()
    cycles = {False: [], True: []}  # (items, spans), by traced
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        items, spans, outputs = run.cycle(index, tracer if traced else Untraced(), timed=True)
        cycles[traced].append((items, spans))
        if index == 0:
            run.attempted += 1
            cycle0_print = fingerprint(outputs)
            if cycle0_print != warm_print:
                run.fail("determinism: cycle 0 run twice gave different outputs")
        # Keep no cycle's outputs alive into the next, so that peak memory
        # does not depend on how many cycles fit into --seconds.
        del outputs
        index += 1
        enough = not args.trace or cycles[True]
        if enough and time.perf_counter() - start >= args.seconds:
            break
    measured_s = time.perf_counter() - start
    cycles = {
        traced: [[items, sum(s for s, _, _ in spans), run.units(spans)] for items, spans in done]
        for traced, done in cycles.items()
    }

    # Read before the whole-run checks, whose imports and arrays are the
    # benchmark's, not the library's.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted, failures = run.workload.finish()
    run.attempted += attempted
    for message in failures:
        run.fail(message)

    metrics = {}
    if args.trace:
        import layers

        probes = layers.Probes(args.seed)
        probes.run_all()
        run.attempted += probes.attempted
        for message in probes.failures:
            run.fail(message)
        metrics.update(probes.metrics)
        untraced = per_ref(cycles[False])
        traced = per_ref(cycles[True])
        metrics["trace.throughput_untraced"] = {"value": untraced, "unit": "items/ref"}
        metrics["trace.throughput_traced"] = {"value": traced, "unit": "items/ref"}
        metrics["trace.span_cost_us"] = {"value": span_cost_us(), "unit": "us"}
        if args.trace_file:
            tracer.write(args.trace_file)
    else:
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}

    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "measured_s": measured_s,
                "cycles": cycles[False],
                "reference_s": run.refs,
                "cycle0_sha256": cycle0_print,
                "attempted": run.attempted,
                "failures": run.failures,
                "env": {
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "cpu_count": os.cpu_count(),
                },
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
