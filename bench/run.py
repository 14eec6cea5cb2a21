"""Run one workload of the ucayley benchmark and print its metrics.

    python3 bench/run.py --workload {build,search,enumerate,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a fresh Python
process (bench/worker.py) as a closed loop: one task after another, no
threads, every search under its own Budget(max_nodes=2_000_000).  Before it,
nine more fresh processes only set up, and `setup_s` is the median of
their set-up times and the workload process's own.  Times are in reference
seconds: scaled by the host's speed, which speed.py measures in the run.

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
per-layer ones from the span tracer.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every definite answer matched its oracle, 1 on a wrong answer
and non-zero without a result when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import UNMEASURED
from speed import SpeedLog
from worker import EXIT_WRONG

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def spawn(cmd, deadline):
    """Start a worker process and wait for it; the last stdout line is its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise subprocess.TimeoutExpired(cmd, 0)
    return subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())],
                          stdout=subprocess.PIPE, text=True, timeout=remaining,
                          cwd=HERE.parent, check=False)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("build", "search", "enumerate", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + RUN_LIMIT_S
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        speed = SpeedLog()
        for _ in range(0 if args.trace else SETUP_PROBES):
            for _ in range(3):
                speed.probe_now()
            probe = spawn(cmd + ["--setup-only"], deadline)
            if probe.returncode != 0:
                print("set-up failed (exit %d)" % probe.returncode, file=sys.stderr)
                return probe.returncode
            setups.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
        proc = spawn(cmd, deadline)
    except subprocess.TimeoutExpired:
        print("the run did not end within %.0f s" % RUN_LIMIT_S, file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, EXIT_WRONG) or not lines:
        print("\n".join(lines))
        print("the workload process failed (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not args.trace and result["correct"]:
        setups.append(result["setup_s"])
        speed.probe_now()
        print("measured: setup %.4f s; %.4f reference s per s"
              % (statistics.median(setups), speed.scale()))
        metrics["setup_s"] = (statistics.median(setups) * speed.scale(), "s")
    for name, (value, unit) in sorted(metrics.items()):
        shown = "unmeasured" if value == UNMEASURED else "%.6g %s" % (value, unit)
        print("%-40s %s" % (name, shown))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
