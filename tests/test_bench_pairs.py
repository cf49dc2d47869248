"""The summary arithmetic of tools/bench_pairs.py on canned run lines."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_ref", "unit": "ref", "better": "lower"},
           {"name": "hits", "unit": "count", "better": "higher"}]


def line(wall, hits, correct=True, failed=0, attempted=100):
    """One run's last stdout line, as perfbench/run.py prints it."""
    return json.loads(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {"wall_ref": {"value": wall, "unit": "ref"},
                    "hits": {"value": hits, "unit": "count"}}}))


def canned_pairs():
    parent = [(10.0, 5), (12.0, 6), (11.0, 7), (13.0, 8)]
    change = [(8.0, 7), (12.0, 6), (9.0, 9), (14.0, 7)]
    return [{"seed": k + 1, "parent": line(*p), "change": line(*c)}
            for k, (p, c) in enumerate(zip(parent, change))]


def test_quartiles_are_linear_percentiles():
    q = bench_pairs.quartiles([10.0, 12.0, 11.0, 13.0])
    assert (q["q1"], q["median"], q["q3"]) == (10.75, 11.5, 12.25)
    assert q["runs"] == [10.0, 12.0, 11.0, 13.0]


def test_summary_of_a_lower_is_better_metric():
    wall = bench_pairs.summarize(canned_pairs(), METRICS)["metrics"]["wall_ref"]
    assert wall["parent"]["median"] == 11.5
    assert wall["change"]["median"] == 10.5       # of 8, 9, 12, 14
    assert wall["change"]["q1"] == 8.75 and wall["change"]["q3"] == 12.5
    assert wall["pairs_won_by_change"] == 2       # 8 < 10 and 9 < 11; 12 = 12 is a tie
    assert wall["pairs"] == 4
    assert wall["median_change_pct"] == pytest.approx(-8.7, abs=1e-12)
    assert wall["median_gap"] == 1.0
    assert wall["parent_quartile_distance"] == 1.5


def test_summary_of_a_higher_is_better_metric():
    hits = bench_pairs.summarize(canned_pairs(), METRICS)["metrics"]["hits"]
    assert hits["pairs_won_by_change"] == 2       # 7 > 5 and 9 > 7; 6 = 6 ties, 7 < 8 loses
    assert hits["median_gap"] == 0.5              # 7 (of 6, 7, 7, 9) against 6.5
    assert hits["median_change_pct"] == pytest.approx(7.69, abs=1e-12)


def test_run_counts_and_correctness():
    pairs = canned_pairs()
    pairs[2]["change"] = line(9.0, 9, correct=False, failed=3, attempted=90)
    out = bench_pairs.summarize(pairs, METRICS)
    assert out["seeds"] == [1, 2, 3, 4]
    assert out["correct_all_runs"] is False
    assert out["failed_operations"] == {"parent": 0, "change": 3}
    assert out["attempted_operations"] == {"parent": 400, "change": 390}


def test_raw_figures_summarized_when_every_run_has_them():
    pairs = canned_pairs()
    assert "raw" not in bench_pairs.summarize(pairs, METRICS)
    for k, p in enumerate(pairs):
        p["parent"]["raw"] = {"round_wall_ms": 100.0 + k, "ref_kernel_ms": 2.0}
        p["change"]["raw"] = {"round_wall_ms": 90.0 - k, "ref_kernel_ms": 1.5 + k}
    raw = bench_pairs.summarize(pairs, METRICS)["raw"]
    assert raw["round_wall_ms"]["parent"]["median"] == 101.5
    assert raw["round_wall_ms"]["change"]["runs"] == [90.0, 89.0, 88.0, 87.0]
    assert raw["ref_kernel_ms"]["change"]["q1"] == 2.25


def run_output(round_wall_s, ref_ms, setups, setup_refs, wall=10.0):
    """run.py's last two stdout lines: the reference figures, then the result."""
    figures = {"rounds": 20, "round_wall_s": round_wall_s, "round_cpu_s": round_wall_s,
               "ref_kernel_ms": ref_ms, "setup_samples_s": setups,
               "setup_ref_ms": setup_refs}
    return (f"route-sweep: a failure line\nreference figures: {json.dumps(figures)}\n"
            f"{json.dumps(line(wall, 5))}\n")


def test_run_output_keeps_setup_medians_under_raw():
    run = bench_pairs.parse_run(run_output(0.075, 1.2, [0.19, 0.18, 0.2, 0.17, 0.21],
                                           [1.1, 1.3, 1.2, 1.25, 1.0]))
    assert run["metrics"]["wall_ref"]["value"] == 10.0 and run["correct"]
    assert run["raw"] == {"round_wall_ms": 75.0, "ref_kernel_ms": 1.2,
                          "setup_samples_s": 0.19, "setup_ref_ms": 1.2}


def test_setup_medians_summarized_per_side():
    # equal time to READY and a faster kernel after the change's set-up:
    # setup_s, READY time over kernel time, reads higher for the change with
    # no more set-up work, and the raw medians show why
    pairs = [{"seed": k,
              "parent": bench_pairs.parse_run(run_output(0.075, 1.2, [0.18] * 7, [1.23] * 7)),
              "change": bench_pairs.parse_run(run_output(0.075, 1.2, [0.18] * 7, [1.1] * 7))}
             for k in (1, 2, 3)]
    raw = bench_pairs.summarize(pairs, METRICS)["raw"]
    assert raw["setup_samples_s"]["parent"]["median"] == raw["setup_samples_s"]["change"]["median"]
    assert raw["setup_ref_ms"]["parent"]["median"] == 1.23
    assert raw["setup_ref_ms"]["change"]["runs"] == [1.1, 1.1, 1.1]


def test_claim_needs_size_pairs_and_a_gap_beyond_noise():
    pairs = [{"seed": k, "parent": line(100.0 + k, 1), "change": line(70.0 + k, 1)}
             for k in range(1, 11)]
    workloads = {"w": bench_pairs.summarize(pairs, METRICS)}
    claim = bench_pairs.judge_claim(workloads, "w:wall_ref:25")
    assert claim["median_change_pct"] == pytest.approx(-28.44, abs=1e-12)
    assert claim["pairs_won_by_change"] == 10 and claim["met"]
    assert not bench_pairs.judge_claim(workloads, "w:wall_ref:30")["met"]
    # one pair lost of ten still passes; two do not
    pairs[0]["change"] = line(200.0, 1)
    assert bench_pairs.judge_claim({"w": bench_pairs.summarize(pairs, METRICS)},
                                   "w:wall_ref:25")["met"]
    pairs[1]["change"] = line(200.0, 1)
    assert not bench_pairs.judge_claim({"w": bench_pairs.summarize(pairs, METRICS)},
                                       "w:wall_ref:25")["met"]
