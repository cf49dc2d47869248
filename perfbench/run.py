"""Benchmark berezinlab: one workload, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload route-sweep --seed 1 --seconds 20 --trace 0

Workloads: route-sweep, conjugation-ladder, cli-session (see README.md).
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics setup_s, wall_ref and peak_rss_mb; with ``--trace 1``
it holds the per-layer metrics of a traced run instead.  The line
before it gives raw reference figures (wall and CPU seconds per round,
reference kernel duration).  Exit code 0 means the run finished; its
``correct`` field says whether every output passed its checks.

Set-up time comes from SETUP_SAMPLES fresh processes, each timed from
spawn to the moment it is ready for its first operation.  Each time is
divided by the reference kernel's duration measured in that process
right after set-up and multiplied by REF_NOMINAL_S, so it reads in
seconds at a fixed host speed; setup_s is the median.  A further
process then runs the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "berezinlab", "__init__.py")
WORKLOADS = ("route-sweep", "conjugation-ladder", "cli-session")
SETUP_SAMPLES = 7
# Converts set-up time in kernel durations back to seconds: about the
# kernel's duration on the 2-core host the bounds were set on.
REF_NOMINAL_S = 1.5e-3
# A run must end well inside 180 s; a worker that overruns is killed.
WORKER_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def spawn(args, extra, deadline):
    """Start a worker; return (seconds until READY, remaining stdout)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        timeout = max(1.0, deadline - time.monotonic())
        if not select.select([proc.stdout], [], [], timeout)[0]:
            raise subprocess.TimeoutExpired(cmd, timeout)
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return ready, rest


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(PACKAGE):
        print(f"error: berezinlab sources not found at {os.path.dirname(PACKAGE)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    setups, setup_refs = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            ready, rest = spawn(args, ["--setup-only"], deadline)
            setups.append(ready)
            setup_refs.append(float(rest))
    result = json.loads(spawn(args, [], deadline)[1].strip().splitlines()[-1])

    for line in result["failures"] + result["errors"]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    if args.trace:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": REF_NOMINAL_S * statistics.median(
                s / k for s, k in zip(setups, setup_refs)), "unit": "s"},
            "wall_ref": {"value": result["wall_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print("reference figures: " + json.dumps({
        "rounds": result["rounds"], "round_wall_s": result["wall_s"],
        "round_cpu_s": result["cpu_s"], "ref_kernel_ms": result["ref_ms"],
        "setup_samples_s": setups, "setup_ref_ms": [1e3 * k for k in setup_refs]}))
    print(json.dumps({"correct": not result["errors"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
