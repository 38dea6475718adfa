"""Self-checks of the benchmark: run with ``python3 -m pytest perfbench -q``.

They use the cheapest tiers of each workload so that they finish in about
twenty seconds.
"""

from __future__ import annotations

import signal
from collections import Counter

import pytest

import run
import spans
import workloads

CHEAP = {
    "integer": {"verify-narrow", "resolution", "magic"},
    "graded": {"small"},
    "delta": {"canonical-d20", "trace-d20", "rotated-d20"},
}

LAYERS = {
    "integer": ("exact_linalg", "ktheory", "resolution", "magic"),
    "graded": ("torsion", "cyclotomic"),
    "delta": ("findim",),
}


def cheap_ops(workload: str, seed: int, per_tier: int = 2) -> list[workloads.Op]:
    taken: Counter = Counter()
    ops = []
    for op in workloads.generate(workload, seed, 1):
        if op.tier in CHEAP[workload] and taken[(op.tier, op.command)] < per_tier:
            taken[(op.tier, op.command)] += 1
            ops.append(op)
    return ops


@pytest.fixture(scope="module")
def cli():
    previous = signal.signal(signal.SIGPROF, run._on_alarm)
    cli, _ = run.set_up("integer", 0, 1)
    yield cli
    signal.signal(signal.SIGPROF, previous)


@pytest.fixture(scope="module")
def traced_runs(cli):
    """workload -> (ops, untraced results, traced results, layer totals)."""
    out = {}
    for workload in run.WORKLOADS:
        ops = cheap_ops(workload, 7)
        plain = run.run_pass(cli, ops, run.DEADLINE_S[workload])
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run.run_pass(cli, ops, run.DEADLINE_S[workload], tracer)
        finally:
            tracer.uninstall()
        out[workload] = (ops, plain, traced, tracer.layer_totals())
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_op_list(workload):
    assert workloads.generate(workload, 3, 1) == workloads.generate(workload, 3, 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_other_seed_changes_inputs_not_tier_mix(workload):
    a, b = workloads.generate(workload, 3, 2), workloads.generate(workload, 4, 2)
    assert [op.key() for op in a] != [op.key() for op in b]
    assert Counter((op.tier, op.command) for op in a) == Counter((op.tier, op.command) for op in b)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_answers_agree(traced_runs, workload):
    ops, plain, traced, _ = traced_runs[workload]
    assert ops
    for op, p, t in zip(ops, plain, traced):
        assert p["failure"] is None, (op.reproducer(), p["failure"])
        assert t["failure"] is None, (op.reproducer(), t["failure"])
        assert p["answer"] == t["answer"], op.reproducer()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_separation(traced_runs, workload):
    """Layers a workload should not reach record no calls on it."""
    *_, totals = traced_runs[workload]
    reached = {name.split(".")[0] for name, rec in totals.items() if rec["calls"]}
    for other, layers in LAYERS.items():
        for layer in layers:
            if other == workload:
                assert layer in reached, layer
            else:
                assert layer not in reached, layer


def test_self_times_cover_traced_op_time(traced_runs):
    # the loop's own steps around cli.main are not covered, and on a busy
    # host the process may wait for a core during them
    for workload, (_, _, traced, totals) in traced_runs.items():
        busy = sum(r["wall"] for r in traced)
        covered = sum(rec["self_s"] for rec in totals.values())
        assert 0.75 * busy < covered <= busy, workload


def test_deadline_abandons_a_runaway_op(cli):
    # Smith coefficients on this input grow for minutes
    op = workloads._dims_op("verify-wide", [2962, 1501, 9029, 4183, 532, 1155])
    result = run.run_op(cli, op, 0.2)
    assert result["timed_out"] and result["failure"]
    assert 0.2 <= result["latency"] < 1.0


def test_wrappers_are_removed(cli):
    import qautk.ktheory as ktheory

    before = ktheory.kernel_basis
    tracer = spans.Tracer()
    tracer.install()
    assert ktheory.kernel_basis is not before
    tracer.uninstall()
    assert ktheory.kernel_basis is before


def test_oracle_rejects_wrong_answers():
    op = workloads._dims_op("t", [2, 4])
    expect = dict(op.expect)
    right = {"results": {"computed": {"K0": expect["K0"], "K1": expect["K1"]}}}
    wrong = {"results": {"computed": {"K0": {"free": 2, "torsion": [2, 2]}, "K1": expect["K1"]}}}
    assert run.oracles.check("verify", expect, 0, right) is None
    assert run.oracles.check("verify", expect, 0, wrong) is not None
    assert run.oracles.check("verify", expect, 1, right) is not None
    accept = {"accept": True, "delta_squared": "20"}
    assert run.oracles.check("delta-form", accept, 0, {"results": {"is_delta_form": True, "delta_squared": 20}}) is None
    assert run.oracles.check("delta-form", accept, 0, {"results": {"is_delta_form": True, "delta_squared": 20.0}})
