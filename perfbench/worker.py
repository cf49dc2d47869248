"""One workload process: set-up, then a closed loop of whole rounds.

Started by ``run.py``.  It prints ``READY`` once set-up is done (the
parent times process start to that line), then runs rounds of the
workload's operations until ``--seconds`` have passed, and prints one
JSON line with its figures.  With ``--setup-only`` it exits after
``READY``.  A traced run writes the spans of its first traced round to
``out/spans-<workload>-<seed>.jsonl``.

Between consecutive operations it runs a fixed reference kernel.  The
host's speed drifts by tens of percent over tens of seconds, so each
round's operation time is divided by the mean kernel duration within
that round; the ratio (``wall_ref``) tracks the program, not the host.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: with the default pool on a 2-core host the
# sweeps burn twice the CPU for no gain in wall time.  This must be set
# before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REF_SAMPLES = 15
SRC = os.path.join(os.path.dirname(HERE), "src")


class ReferenceKernel:
    """A fixed mix of interpreter, convolution and elementwise work.

    It calls nothing in berezinlab.  Its three parts mirror what the
    program spends time on: Python-level loops (symbol tables, CLI),
    np.convolve (the U_z column build) and elementwise complex arithmetic
    (the quadrature routes).
    """

    def __init__(self):
        rng = np.random.default_rng(20020)
        self.a = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        self.b = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        self.x = rng.standard_normal(16384) + 1j * rng.standard_normal(16384)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(4000):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        c = np.convolve(self.a, self.b)
        y = np.abs(self.x ** 3 * np.conj(self.x) + c[acc % c.size]) ** 0.25
        float(y.sum())
        return time.perf_counter() - t0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ref = ReferenceKernel()
    ref()
    setup_counts = None
    if tracer is not None:
        tracer.uninstall()
        setup_counts = tracer.snapshot()
        tracer.reset()
    print("READY", flush=True)
    if args.setup_only:
        # the host's speed right after set-up, to put set-up time in reference units
        print(statistics.median(ref() for _ in range(SETUP_REF_SAMPLES)), flush=True)
        return 0

    workload.prepare_checks()
    rounds = run_rounds(workload, ref, tracer, args)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = rounds[1:]   # round 0 warms caches and lazy set-up
    untraced = [r for r in timed if not r["traced"]]
    result = {
        "rounds": len(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "errors": [e for r in rounds for e in r["errors"]][:20],
        "failures": [e for r in rounds for e in r["failures"]][:20],
        "wall_ref": statistics.median(r["wall_ref"] for r in untraced),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "ref_ms": 1e3 * statistics.median(r["ref_s"] for r in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(rounds, setup_counts)
        write_spans(tracer, os.path.join(
            HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(result), flush=True)
    return 0


def run_rounds(workload, ref, tracer, args) -> list:
    """Whole rounds until the time is up; with tracing, odd rounds are traced."""
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.keep_spans = len(rounds) == 1
            tracer.install()
        failures, errors, op_s, cpu_s, refs, bytes_out = [], [], 0.0, 0.0, [], 0
        for i, (label, op) in enumerate(workload.ops):
            refs.append(ref())
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out = op()
            except Exception as exc:   # a failing operation is counted, not fatal
                out = exc
            op_s += time.perf_counter() - t0
            cpu_s += time.process_time() - c0
            # Checked and dropped at once, so no output outlives its operation
            # and the peak resident set is that of one operation.
            if isinstance(out, Exception):
                failures.append(f"{label}: {type(out).__name__}: {out}")
            else:
                if traced:   # the checks' own calls into berezinlab are not traced
                    tracer.uninstall()
                errors += workload.check_one(i, out)
                if traced:
                    tracer.install()
                bytes_out += len(out.text.encode()) if hasattr(out, "text") else 0
            del out
        ref_s = sum(refs) / len(refs)
        record = {"traced": traced, "attempted": len(workload.ops), "failed": len(failures),
                  "wall_s": op_s, "cpu_s": cpu_s, "ref_s": ref_s,
                  "wall_ref": op_s / ref_s, "failures": failures, "errors": errors}
        if traced:
            tracer.uninstall()
            tracer.keep_spans = False
            record["trace"] = tracer.snapshot()
            record["trace"]["counts"]["cli.bytes_out"] = bytes_out
        rounds.append(record)
        enough = len(rounds) >= 3 and (tracer is None or len(rounds) % 2 == 1)
        if enough and time.perf_counter() >= deadline:
            return rounds


def layer_metrics(rounds, setup) -> dict:
    """Per-layer figures for set-up plus one round.

    Calls and work counts add set-up's to the mean of the traced rounds
    (every round does the same work, so the mean is exact); self time
    is in reference units, the median over traced rounds plus set-up's.
    """
    from tracer import COUNTS, LAYERS

    traced = [r for r in rounds if r["traced"]]
    ref_s = statistics.median(r["ref_s"] for r in rounds)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = setup["calls"][layer] + statistics.mean(
            r["trace"]["calls"][layer] for r in traced)
        out[f"{layer}.self_ref"] = setup["self_s"][layer] / ref_s + statistics.median(
            r["trace"]["self_s"][layer] / r["ref_s"] for r in traced)
    for name in COUNTS:
        out[name] = setup["counts"].get(name, 0) + statistics.mean(
            r["trace"]["counts"][name] for r in traced)
    untraced = [r["wall_ref"] for r in rounds[1:] if not r["traced"]]
    out["trace_overhead"] = (statistics.median(r["wall_ref"] for r in traced)
                             / statistics.median(untraced))
    return out


def write_spans(tracer, path: str):
    """The first traced round's spans as JSON lines, times relative to its start."""
    if not tracer.spans:
        return
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    origin = tracer.spans[0][2]
    with open(path, "w", encoding="utf-8") as fh:
        for i, (layer, name, t0, t1, parent) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "parent": parent, "layer": layer, "name": name,
                                 "start_s": t0 - origin, "end_s": t1 - origin}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
