"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh worker
process (worker.py) with one closed-loop client and workers=1.  With
--trace 0 the last stdout line carries the end-to-end metrics, pooled over
WORKERS fresh worker processes run one after another: throughput, total
items over total timed reference units; peak_rss_mb, the largest worker
peak; and setup_s, the median time from process start to READY over the
workers and a set-up-only process between each two of them, five in all.
With --trace 1 it carries the per-layer metrics and the spans go to .perfbench_out/.  The
line before it is the full record: seed, environment, load averages and
failed checks.  Exits 1 if any output check fails, 2 if the checkout has no
library to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3
DEADLINE_S = 170  # the whole run must end within 180 s


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float | None, list[str], int]:
    """Run one worker: (seconds from start to READY, other stdout lines, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    timer.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return ready, lines, code


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("need --seed >= 0 and 1 <= --seconds <= 60")

    if not (ROOT / "src" / "bisector_words" / "__init__.py").is_file():
        print(f"error: no library under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    load_start = os.getloadavg()
    # Untraced runs split --seconds over WORKERS fresh processes, so that no
    # single process's memory layout sets the throughput.  A set-up-only
    # process between each two of them adds set-up timings: a slow spell of
    # the host then moves the median of five, not of three.
    workers = 1 if args.trace else WORKERS
    argv = ["--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", str(args.seconds / workers), "--trace", str(args.trace)]
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        argv += ["--trace-file", str(out_dir / f"trace-{args.workload}-seed{args.seed}.json")]

    records = []
    setups = []
    for i in range(workers):
        if i > 0:
            ready, _, code = spawn([*argv, "--setup-only"], env, deadline)
            if code != 0 or ready is None:
                print(f"error: set-up-only worker exited with {code}", file=sys.stderr)
                return 1
            setups.append(ready)
        ready, lines, code = spawn(argv, env, deadline)
        if code != 0 or ready is None or not lines:
            print(f"error: worker exited with {code}", file=sys.stderr)
            return 1
        records.append(dict(json.loads(lines[-1]), setup_s=ready))
        setups.append(ready)

    failures = [f for r in records for f in r["failures"]]
    attempted = sum(r["attempted"] for r in records)
    if workers > 1:
        attempted += 1
        if len({r["cycle0_sha256"] for r in records}) > 1:
            failures.append("determinism: workers with the same seed gave different cycle-0 outputs")
    cycles = [c for r in records for c in r["cycles"]]  # [items, seconds, reference units]
    if args.trace:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            "throughput": {"value": sum(c[0] for c in cycles) / sum(c[2] for c in cycles), "unit": "items/ref"},
            "peak_rss_mb": {"value": max(r["metrics"]["peak_rss_mb"]["value"] for r in records), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    if sorted(metrics) != sorted(expected):
        print(f"error: metrics {sorted(set(metrics) ^ set(expected))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1

    env_record = dict(records[0]["env"], git_commit=git_commit(), loadavg_start=load_start, loadavg_end=os.getloadavg())
    keep = ("setup_s", "measured_s", "cycles", "reference_s", "cycle0_sha256")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "env": env_record,
                "workers": [{k: r[k] for k in keep} for r in records],
                "setup_s": setups,
                "failures": failures,
                "items_per_s": sum(c[0] for c in cycles) / sum(c[1] for c in cycles),
                "metrics": metrics,
            }
        )
    )
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: metrics[name] for name in expected},
    }
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
