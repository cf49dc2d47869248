"""Tests of the benchmark's output checks.

    python3 -m pytest perfbench/selftest.py -q

Each workload's checks must pass on real program output and fail when a
single value is moved past its tolerance, or a flag or exit code is
wrong.  The file is not named test_*.py so that the repository's own
test run does not collect it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402
from berezinlab.operators import TruncatedOperator  # noqa: E402

SEED = 7


def run_round(workload):
    return [op() for _, op in workload.ops]


@pytest.fixture(scope="module")
def sweep():
    w = workloads.RouteSweep(SEED)
    return w, run_round(w)


@pytest.fixture(scope="module")
def ladder():
    w = workloads.ConjugationLadder(SEED)
    return w, run_round(w)


@pytest.fixture(scope="module")
def session():
    w = workloads.CliSession(SEED)
    return w, run_round(w)


def test_other_seeds_pass():
    for seed in (0, 1):
        for cls in (workloads.RouteSweep, workloads.ConjugationLadder):
            w = cls(seed)
            assert w.check(run_round(w)) == []


# -- route-sweep ----------------------------------------------------------

def test_route_sweep_passes(sweep):
    w, outputs = sweep
    assert w.check(outputs) == []
    assert sum(all(j == 0 or k == 0 for j, k in t) for t in w.terms) >= 3


@pytest.mark.parametrize("index, route, point, delta", [
    (5, "quadrature", 3, 2e-8),     # route agreement, quadrature vs series
    (5, "mean-value", 4, 2e-8),
    (5, "exact", 2, 2e-10),
    (5, "operator", 6, 2e-6),
    (5, "series", 7, 2e-10),        # series vs the benchmark's moment sum
    (0, "exact", 1, 2e-10),         # harmonic fixed point
    (4, "quadrature", 0, 2e-8),     # disk mean at z = 0
])
def test_route_sweep_catches(sweep, index, route, point, delta):
    w, outputs = sweep
    bad = copy.deepcopy(outputs)
    bad[index][route][point] += delta
    errors = w.check(bad)
    assert errors and all(route in e or "series" in e for e in errors)


def test_route_sweep_harmonic_check_is_independent(sweep):
    # every route moved together keeps agreement but leaves the fixed point
    w, outputs = sweep
    bad = copy.deepcopy(outputs)
    for route in workloads.ROUTES:
        bad[0][route][5] += 1e-6
    assert any("harmonic" in e for e in w.check(bad))


# -- conjugation-ladder ---------------------------------------------------

def _with_entry(op, q, p, delta):
    m = op.matrix.copy()
    m[q, p] += delta
    return TruncatedOperator(m)


def test_ladder_passes(ladder):
    w, outputs = ladder
    assert w.check(outputs) == []


def test_ladder_catches_corner(ladder):
    w, outputs = ladder
    bad = list(outputs)
    bad[5] = _with_entry(bad[5], 0, 0, 2e-10)
    assert any("corner" in e for e in w.check(bad))


def test_ladder_catches_sampled_entry(ladder):
    w, outputs = ladder
    p, q = w.covariant[4][3][0]
    bad = list(outputs)
    bad[4] = _with_entry(bad[4], q, p, 2e-9)
    assert any(f"entry ({q},{p})" in e for e in w.check(bad))


def test_ladder_catches_uz(ladder):
    w, outputs = ladder
    n_cov = len(w.covariant)
    bad = list(outputs)
    bad[n_cov] = _with_entry(bad[n_cov], 7, 0, 1e-11)
    assert any("column 0" in e for e in w.check(bad))
    bad = list(outputs)
    bad[n_cov + 2] = _with_entry(bad[n_cov + 2], 3, 5, 1e-11)
    assert any("self-adjoint" in e for e in w.check(bad))


def test_ladder_catches_product_and_field(ladder):
    w, outputs = ladder
    k = len(w.covariant) + len(w.uz)
    bad = list(outputs)
    bad[k] = dataclasses.replace(bad[k], residual=2e-6)
    assert any("berezin_of_product" in e for e in w.check(bad))
    bad = list(outputs)
    bad[-1] = dataclasses.replace(bad[-1], flag="truncation-unreliable")
    assert any("covariance_field_check" in e for e in w.check(bad))


def test_tracer_counts_values_handed_out(ladder):
    from tracer import Tracer
    w, _ = ladder
    op = dict(w.ops)["product-0"]
    tracer = Tracer()
    tracer.install()
    try:
        op()
    finally:
        tracer.uninstall()
    # berezin_of_product calls berezin_operator inside; only its own value counts
    assert tracer.calls["berezin"] > 1
    assert tracer.counts["berezin.values"] == 1


# -- cli-session ----------------------------------------------------------

def _edit(run, fn):
    report = json.loads(run.text)
    fn(report)
    return dataclasses.replace(run, text=json.dumps(report))


def _ops(w):
    return [label for label, _ in w.ops]


def test_session_passes(session):
    w, outputs = session
    assert w.check(outputs) == []
    assert [r.code for r in outputs] == [0] * len(outputs)


def _bump(pair, delta):
    pair[0] += delta


EDITS = {
    "identity-suite": lambda r: r["results"][3].update(passed=False),
    "toeplitz": lambda r: _bump(r["entries"][5][3], 1e-9),
    "uz": lambda r: _bump(r["entries"][9][0], 1e-9),
    "commutator": lambda r: _bump(r["zero_samples"][1]["value"],
                                  1e-6 * r["zero_samples"][1]["value"][0]),
    "decay-berezin-minus-symbol": lambda r: _bump(r["profiles"][0]["samples"][2]["value"], 1e-8),
    "decay-invariant-laplacian": lambda r: _bump(
        r["profiles"][0]["samples"][1]["value"],
        1e-4 * abs(complex(*r["profiles"][0]["samples"][1]["value"]))),
    "decay-localization": lambda r: _bump(r["profiles"][0]["samples"][1]["value"], 1e-6),
    "decay-factored-laplacian": lambda r: _bump(
        r["profiles"][0]["samples"][20]["value"],
        1e-6 * r["profiles"][0]["samples"][20]["value"][0]),
}


@pytest.mark.parametrize("label", sorted(EDITS))
def test_session_catches_value(session, label):
    w, outputs = session
    i = _ops(w).index(label)
    bad = list(outputs)
    bad[i] = _edit(bad[i], EDITS[label])
    assert w.check(bad)


def test_session_catches_negative_localization(session):
    w, outputs = session
    i = _ops(w).index("decay-localization")
    bad = list(outputs)
    bad[i] = _edit(bad[i], lambda r: r["profiles"][0]["samples"][30].update(value=[-1e-9, 0.0]))
    assert any("not a norm" in e for e in w.check(bad))


def test_session_catches_berezin_values_and_flags(session):
    w, outputs = session
    interior, rim = [i for i, label in enumerate(_ops(w)) if label == "berezin"]
    bad = list(outputs)
    bad[interior] = _edit(bad[interior],
                          lambda r: _bump(r["results"][1]["values"]["quadrature"], 2e-8))
    assert any("quadrature" in e for e in w.check(bad))
    bad = list(outputs)
    bad[rim] = _edit(bad[rim], lambda r: r["results"][0]["flags"].update(operator=""))
    assert any("flags" in e for e in w.check(bad))
    bad = list(outputs)
    bad[rim] = _edit(bad[rim], lambda r: _bump(r["results"][2]["values"]["series"], 1e-8))
    assert any("exact route" in e for e in w.check(bad))


def test_session_catches_exit_code_and_garbage(session):
    w, outputs = session
    bad = list(outputs)
    bad[0] = dataclasses.replace(bad[0], code=4)
    assert any("exit code 4" in e for e in w.check(bad))
    bad = list(outputs)
    bad[3] = dataclasses.replace(bad[3], text="Traceback (most recent call last)")
    assert any("not JSON" in e for e in w.check(bad))


def test_failed_operations_are_skipped_by_checks(session):
    w, outputs = session
    bad = list(outputs)
    bad[2] = RuntimeError("boom")
    assert w.check(bad) == []
