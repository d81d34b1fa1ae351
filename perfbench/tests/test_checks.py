"""Every output check of the benchmark can fail.

Each test feeds one corrupted output through a workload's check by way of the
benchmark's own op loop, and asserts that it is counted as a failed op (and so
in `fail_ratio`) instead of crashing the run or passing silently.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from gc2gnn import backend, formulas  # noqa: E402


def run_corrupted(workload, state, op, corrupt):
    """Run ``op`` through the benchmark's loop with its output corrupted,
    then the same op untouched; return the tally."""
    tally = bench.Tally()
    check = lambda o, out: workload.check(state, o, out)  # noqa: E731
    bench.run_op(lambda o: corrupt(workload.execute(state, o)), check, op, tally)
    bench.run_op(lambda o: workload.execute(state, o), check, op, tally)
    return tally


def find(state, label):
    return next(op for op in state.ops if op.label == label)


def prepared(workload, seed, workdir):
    """A workload's state with the checks' reference values filled in."""
    state = workload.setup(seed, workdir)
    workload.references(state)
    return state


class SmallLargeForward(wl.LargeForward):
    N = 3000


class SmallCorpus(wl.CheckExactCorpus):
    SIZES = (20,)
    RANDOM_FORMULAS = 2
    GRAPHS_PER_OP = 2


class ShallowFormula(wl.DeepFormula):
    LEVELS = (8, 12)
    N = 30


@pytest.fixture(scope="module")
def large(tmp_path_factory):
    workload = SmallLargeForward()
    return workload, prepared(workload, 5, tmp_path_factory.mktemp("large"))


def test_oracle_check_catches_one_wrong_vertex(large):
    workload, state = large

    def flip(out):
        out = out.copy()
        out[7] = 1.0 - out[7]
        return out

    for label in ("q1-sigma-star", "q2-crelu"):
        tally = run_corrupted(workload, state, find(state, label), flip)
        assert (tally.attempted, tally.failed) == (2, 1)
        assert "differ from the oracle" in tally.reasons[0]


def test_certified_bound_check(large):
    workload, state = large
    op = find(state, "q2-step-arctan")

    def shift(amount):
        def corrupt(out):
            out = out.copy()
            out[3] = state.oracle["q2"][3] + amount
            return out
        return corrupt

    assert run_corrupted(workload, state, op, shift(wl.CERTIFIED_ERROR * 1.001)).failed == 1
    assert run_corrupted(workload, state, op, shift(float("nan"))).failed == 1
    assert run_corrupted(workload, state, op, shift(wl.CERTIFIED_ERROR * 0.999)).failed == 0


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    workload = wl.TreeSweep()
    return workload, prepared(workload, 0, tmp_path_factory.mktemp("sweep"))


def golden_result(state, label):
    return wl.CliResult(0, state.golden[label].decode("ascii"))


def test_golden_csv_bytes_check(sweep):
    workload, state = sweep
    for label, _ in wl.SWEEPS:
        good = golden_result(state, label)
        assert workload.check(state, find(state, label), good) is None
        text = good.stdout
        i = text.index("0.000000")  # one byte of the first seconds column
        bad = wl.CliResult(0, text[:i] + "1" + text[i + 1:])
        tally = bench.Tally()
        bench.run_op(lambda o: bad, lambda o, out: workload.check(state, o, out), find(state, label), tally)
        assert tally.failed == 1 and "golden" in tally.reasons[0]


def test_oracle_root_gap_check(sweep):
    workload, state = sweep
    # A golden file and an output that agree byte for byte but put a wrong
    # exact value in a sigma-star row: only the oracle comparison catches it.
    wrong = state.golden["separation-step-arctan"].decode("ascii").replace(
        "separation,q1,sigma-star,1,5,27,6,1.0,", "separation,q1,sigma-star,1,5,27,6,0.0,")
    assert wrong.encode("ascii") != state.golden["separation-step-arctan"]
    corrupt_state = dataclasses.replace(
        state, golden={**state.golden, "separation-step-arctan": wrong.encode("ascii")})
    reason = workload.check(corrupt_state, find(corrupt_state, "separation-step-arctan"), wl.CliResult(0, wrong))
    assert reason is not None and "oracle root gap" in reason


def test_exit_code_check(tmp_path):
    workload = SmallCorpus()
    state = prepared(workload, 11, tmp_path)
    for op in [*state.ops, workload.warmup(state)]:
        tally = run_corrupted(workload, state, op, lambda out: wl.CliResult(1, out.stdout))
        assert (tally.attempted, tally.failed) == (2, 1)
        assert tally.reasons == [f"{op.label}: exit code 1"]
    verdict = wl.CliResult(0, "random:0 n=20 sigma-star: 3 mismatches\nexactness: FAIL (3 mismatches)\n")
    assert wl.check_exact_verdict(verdict) is not None


def test_deep_formula_ops_pass_and_can_fail(tmp_path):
    workload = ShallowFormula()
    state = prepared(workload, 2, tmp_path)
    for op in [*state.ops, workload.warmup(state), *workload.another_pass(state)]:
        tally = run_corrupted(workload, state, op, lambda out: wl.CliResult(2, ""))
        assert (tally.attempted, tally.failed) == (2, 1)


def test_raising_op_and_unreadable_output_are_counted():
    tally = bench.Tally()
    op = wl.Op("boom", ())

    def explode(o):
        raise RuntimeError("kernel gone")

    bench.run_op(explode, lambda o, out: None, op, tally)
    bench.run_op(lambda o: None, lambda o, out: out.code, op, tally)
    bench.run_op(lambda o: 1, lambda o, out: None, op, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.fail_ratio == pytest.approx(2 / 3)
    result = bench._result(tally, {})
    assert result["correct"] is False and result["failed"] == 2


def test_inputs_depend_only_on_seed(tmp_path):
    def inputs(cls, seed):
        return [op.args for op in cls().setup(seed, tmp_path).ops]

    assert inputs(wl.CheckExactCorpus, 4) == inputs(wl.CheckExactCorpus, 4)
    assert inputs(wl.CheckExactCorpus, 4) != inputs(wl.CheckExactCorpus, 5)
    assert bench.repeat_seed(4, 0) == bench.repeat_seed(4, 0)
    assert len({bench.repeat_seed(4, r) for r in range(15)} | {bench.repeat_seed(5, 0)}) == 16


def test_no_timed_op_repeats_an_input(tmp_path):
    for cls in (wl.CheckExactCorpus, wl.DeepFormula):
        workload = cls()
        state = workload.setup(7, tmp_path)
        ops = bench.timed_ops(workload, state, 3 * workload.pass_ref_cpu_s)
        args = [op.args for op in [workload.warmup(state), *ops]]
        assert len(ops) >= len(state.ops) and len(set(args)) == len(args)
    deep = wl.DeepFormula()
    state = deep.setup(7, tmp_path)
    levels = [op.label for op in bench.timed_ops(deep, state, 3 * deep.pass_ref_cpu_s)]
    assert levels == [op.label for op in state.ops] * 3
    rng = np.random.default_rng(0)
    for target in (2, 3, 4, 5, 6):
        text = wl.random_formula_text(rng, 3, target)
        assert formulas.depth(formulas.parse(text, 3)) == target
    a = wl.sparse_random_edges(np.random.default_rng(1), 1000, 5.0)
    b = wl.sparse_random_edges(np.random.default_rng(1), 1000, 5.0)
    assert np.array_equal(a, b) and (a[:, 0] < a[:, 1]).all()
    assert len(np.unique(a, axis=0)) == len(a)


def test_missing_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(backend, "run_forward")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert "backend.run_forward" in tracer.missing
    assert metrics["backend.self_s"]["value"] is None
    assert metrics["engine.forward_s"]["value"] == 0.0


def test_paused_tracer_records_nothing():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.paused():
            formulas.parse(wl.Q1_TEXT, 1)
        assert tracer.spans == []
        formulas.parse(wl.Q1_TEXT, 1)
    finally:
        tracer.uninstall()
    assert "formulas.parse" in [span[0] for span in tracer.spans]


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = list(tracing.Tracer().metrics()) + ["trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    e2e = bench.end_to_end([1.0], [0.5] * 11)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [v["unit"] for v in e2e.values()]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_corrupted_op_counts_through_the_timed_loop(tmp_path):
    class Corrupting(ShallowFormula):
        LEVELS = (6, 9, 12)
        N = 20

        def execute(self, state, op):
            out = super().execute(state, op)
            return wl.CliResult(1, out.stdout) if op is state.ops[0] else out

    workload = Corrupting()
    state = prepared(workload, 3, tmp_path)
    tally = bench.Tally()
    times, slowness = bench.run_phase(workload, state, state.ops * 2, tally, bench.Reference())
    assert len(times) == 6 and all(t > 0 for t in times) and len(slowness) >= 2
    assert (tally.attempted, tally.failed) == (6, 2)
