"""Steadiness check: two sets of runs of the same code, workloads alternating.

    python3 perfbench/steady.py

Each set runs every workload RUNS times, run_seconds from BENCHMARK.json
each, with a fresh seed per run (set A seeds 1-10, set B seeds 101-110),
cycling through the workloads so that slow periods of the host spread
over all of them.  For every workload and end-to-end metric it prints
each set's median and quartiles, the spread (quartile distance over the
median) and whether the two sets agree within the bound in
BENCHMARK.json: each spread, except that of setup_s, within the bound;
the two medians apart by no more than the bound, in either direction;
every run correct, with the same share of failed operations.  The
table also goes to perfbench/out/steady.json.  The exit code is 0 when
everything agrees, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out", "steady.json")
RUNS = 10


def machine() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": "1 (OPENBLAS/OMP/MKL_NUM_THREADS=1 in every worker)"}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    print("machine: " + json.dumps(machine()), flush=True)
    results = {s: {w: [] for w in workloads} for s in "AB"}
    for set_name, base in (("A", 1), ("B", 101)):
        for i in range(RUNS):
            for w in workloads:
                res = run_once(w, base + i, seconds)
                results[set_name][w].append(res)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {set_name} seed {base + i:3d} {w:20s} correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} {vals}",
                      flush=True)

    ok = True
    table = []
    print(f"\n{'workload':20s} {'metric':12s} {'set':3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        shares = {s: {r["failed"] / r["attempted"] for r in results[s][w]} for s in "AB"}
        correct = all(r["correct"] for s in "AB" for r in results[s][w])
        for name, m in metrics.items():
            stats = {s: summary([r["metrics"][name]["value"] for r in results[s][w]])
                     for s in "AB"}
            bound = m["bound"]
            apart = (stats["B"]["median"] - stats["A"]["median"]) / stats["A"]["median"]
            spread_ok = name == "setup_s" or all(stats[s]["spread"] <= bound for s in "AB")
            agree = spread_ok and abs(apart) <= bound and correct and shares["A"] == shares["B"]
            ok = ok and agree
            for s in "AB":
                st = stats[s]
                verdict = (f"(B-A)/A {apart:+.3f}: {'agree' if agree else 'DISAGREE'}"
                           if s == "B" else "")
                print(f"{w:20s} {name:12s} {s:3s} {st['median']:10.4g} {st['q1']:10.4g} "
                      f"{st['q3']:10.4g} {st['spread']:7.3f} {bound:6.2f}  {verdict}")
            table.append({"workload": w, "metric": name, "bound": bound, "sets": stats,
                          "b_minus_a": apart, "agree": agree})
        print(f"{w:20s} failed share A={sorted(shares['A'])} B={sorted(shares['B'])} "
              f"correct={correct}")
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine(), "seconds": seconds, "runs": RUNS,
                   "table": table, "agree": ok}, fh, indent=1)
    print("\nall agree" if ok else "\nSETS DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
