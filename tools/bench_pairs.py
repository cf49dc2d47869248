"""Paired benchmark runs of two trees of this repository, summarized as one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change WORKTREE \\
        --workload conjugation-ladder --pairs 10 --seconds 30 --out BENCH_N.json

Each side is a git tree-ish (a commit, a branch, ``HEAD~1``) or
``WORKTREE``, the working tree as ``git add -A`` would stage it, written
to a scratch index so the real one is left alone.  Every run extracts
its side's ``git archive`` into a fresh directory, runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` there and
deletes the directory: the same code can read differently from one
directory to the next through heap placement, and a fresh directory
per run keeps that from siding with either tree.  Pair k uses seed k
and runs the parent first when k is odd, the change first when it is
even.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the
file holds every run, the median and quartiles (numpy's linear
percentiles) per side, the median change in percent, the gap between
the medians, the parent's quartile distance and the pairs the change
won (strictly better; ties count for neither side).  Under "raw" it
holds, per side, the two parts of ``wall_ref`` that run.py reports
beside it, the median round wall time and the reference kernel's time,
and the two parts of ``setup_s``: each run's median time to READY
(``setup_samples_s``) and median kernel time right after set-up
(``setup_ref_ms``), so a change in the kernel's speed after set-up
reads apart from slower set-up.
``--claim WORKLOAD:METRIC:PCT`` records whether that metric improved by
at least PCT percent in the medians, in at least nine of ten pairs, and
by more than the parent's quartile distance.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
RETRIES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD", help="tree-ish of the parent side")
    p.add_argument("--change", default="WORKTREE", help="tree-ish of the change side")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", required=True)
    p.add_argument("--note", default="", help="what the change does, for the file")
    p.add_argument("--claim", help="WORKLOAD:METRIC:PCT, a claimed improvement")
    p.add_argument("--workdir", help="where the per-run directories go")
    return p.parse_args(argv)


def git(*args, env=None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          stdout=subprocess.PIPE).stdout


def resolve_tree(spec: str, scratch: str) -> str:
    """The tree id of a tree-ish, or of the working tree for WORKTREE."""
    if spec != "WORKTREE":
        return git("rev-parse", f"{spec}^{{tree}}").decode().strip()
    env = dict(os.environ, GIT_INDEX_FILE=os.path.join(scratch, "index"))
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env).decode().strip()


def run_once(tree: str, workload: str, seed: int, seconds: float, scratch: str) -> dict:
    """One benchmark run in a freshly extracted tree; the last stdout line, parsed.

    A run that exits non-zero is started again in a new directory, up to
    RETRIES times; the result counts the restarts as "reruns".
    """
    for attempt in range(RETRIES + 1):
        where = tempfile.mkdtemp(prefix="run-", dir=scratch)
        try:
            with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", tree))) as tar:
                tar.extractall(where, filter="data")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=where, stdout=subprocess.PIPE, text=True)
        finally:
            shutil.rmtree(where, ignore_errors=True)
        if proc.returncode == 0:
            return {**parse_run(proc.stdout), "reruns": attempt}
        print(f"{workload} seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
    raise RuntimeError(f"{workload} seed {seed} failed {RETRIES + 1} times")


def parse_run(stdout: str) -> dict:
    """run.py's last line, parsed, with the line before it reduced to "raw" figures."""
    *_, figures, line = stdout.strip().splitlines()
    figures = json.loads(figures.split(": ", 1)[1])
    return {**json.loads(line),
            "raw": {"round_wall_ms": 1e3 * figures["round_wall_s"],
                    "ref_kernel_ms": figures["ref_kernel_ms"],
                    "setup_samples_s": float(np.median(figures["setup_samples_s"])),
                    "setup_ref_ms": float(np.median(figures["setup_ref_ms"]))}}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "runs": [float(v) for v in values]}


def summarize(pairs: list, metrics: list) -> dict:
    """Statistics of one workload from its pairs of run results.

    ``pairs`` holds dicts {"seed", "parent", "change"}, each side the
    parsed result line of one run; ``metrics`` holds the end-to-end
    entries of BENCHMARK.json ({"name", "unit", "better"}).
    """
    out = {
        "seeds": [p["seed"] for p in pairs],
        "correct_all_runs": all(p[s]["correct"] for p in pairs for s in SIDES),
        "failed_operations": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "attempted_operations": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
        "reruns": {s: sum(p[s].get("reruns", 0) for p in pairs) for s in SIDES},
        "metrics": {},
    }
    if all("raw" in p[s] for p in pairs for s in SIDES):
        # wall_ref's numerator and denominator, to tell program time from kernel time
        out["raw"] = {name: {s: quartiles([p[s]["raw"][name] for p in pairs]) for s in SIDES}
                      for name in pairs[0]["parent"]["raw"]}
    for metric in metrics:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        stats = {s: quartiles(values[s]) for s in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        out["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"], **stats,
            "pairs_won_by_change": sum(sign * (c - p) < 0
                                       for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            "median_change_pct": round(100.0 * (change - parent) / parent, 2),
            # positive when the change is better
            "median_gap": sign * (parent - change),
            "parent_quartile_distance": stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return out


def judge_claim(workloads: dict, claim: str) -> dict:
    """Whether WORKLOAD:METRIC:PCT holds: PCT% better in the medians, 9 of 10 pairs, beyond noise."""
    workload, metric, pct = claim.split(":")
    m = workloads[workload]["metrics"][metric]
    gain_pct = -m["median_change_pct"] if m["better"] == "lower" else m["median_change_pct"]
    return {"workload": workload, "metric": metric, "claimed": f"improves by at least {pct}%",
            "median_change_pct": m["median_change_pct"],
            "pairs_won_by_change": m["pairs_won_by_change"], "pairs": m["pairs"],
            "median_gap": m["median_gap"],
            "parent_quartile_distance": m["parent_quartile_distance"],
            "met": (gain_pct >= float(pct)
                    and m["pairs_won_by_change"] >= math.ceil(0.9 * m["pairs"])
                    and m["median_gap"] > m["parent_quartile_distance"])}


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    scratch = tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir)
    try:
        trees = {"parent": resolve_tree(args.parent, scratch),
                 "change": resolve_tree(args.change, scratch)}
        report = {
            "change": args.note,
            "parent": args.parent, "parent_tree": trees["parent"],
            "change_side": args.change, "change_tree": trees["change"],
            "protocol": (f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                         f"--trace 0, seeds 1-{args.pairs} per workload, each run in a fresh "
                         "directory holding its side's `git archive`; odd seeds run the "
                         "parent first; median and quartiles are numpy linear percentiles; "
                         "a pair is won by the change when its value is strictly better"),
            "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__, "platform": platform.platform()},
            "workloads": {},
        }
        for workload in args.workload:
            pairs = []
            for seed in range(1, args.pairs + 1):
                pair = {"seed": seed}
                for side in (SIDES if seed % 2 else SIDES[::-1]):
                    pair[side] = run_once(trees[side], workload, seed, args.seconds, scratch)
                    print(f"{workload} seed {seed} {side}: {json.dumps(pair[side])}",
                          file=sys.stderr)
                pairs.append(pair)
            # written after every workload, so a later failure keeps what is done
            report["workloads"][workload] = summarize(pairs, metrics)
            if args.claim and args.claim.split(":")[0] in report["workloads"]:
                report["claim"] = judge_claim(report["workloads"], args.claim)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
