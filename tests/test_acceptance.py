"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; tolerances are frozen here, not configurable.
"""

import subprocess
import sys
import time

import numpy as np

from gc2gnn import (
    ActivationSpec,
    LabeledGraph,
    TreeParams,
    compile_formula,
    eval_oracle_all,
    forward_outputs,
    layer_errors,
    make_tree,
    parse,
    random_formula,
    random_graph,
)
from gc2gnn.activations import (
    apply_activation,
    certificate,
    convergence_bound,
    flat_tanh_constants,
    plateau_grid,
    required_composition_depth,
    verify_step_like,
)
from gc2gnn.experiments import run_saturation, run_separation

CERTIFIED = ("step-arctan", "step-tanh", "steplike-tanh-eta0", "steplike-sigmoid-eta0")


def _recolor(graph, palette):
    return LabeledGraph(graph.n, palette, graph.colors, graph.edges)


def test_criterion_1_exact_expressivity(q1, q2):
    started = time.perf_counter()
    rng = np.random.default_rng(20260808)
    formulas = [("q1", q1), ("q2", q2)]
    formulas += [(f"random-{i}", random_formula(rng, 3, max_depth=6)) for i in range(20)]

    graphs = [random_graph(20 + int(rng.integers(0, 181)), 5.0, 3, 50_000 + i) for i in range(200)]
    for x in (0, 1):
        for k in range(0, 11):
            for m in range(1, 11):
                graphs.append(_recolor(make_tree(TreeParams(x, k, m))[0], 3))

    mismatches = 0
    checked = 0
    for _, formula in formulas:
        spec = compile_formula(formula, 3)
        for graph in graphs:
            want = eval_oracle_all(formula, graph).astype(np.float64)
            for name in ("sigma-star", "crelu"):
                got = forward_outputs(spec, graph, ActivationSpec(name, 1))
                mismatches += int((got != want).sum())
                checked += graph.n
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 (exact expressivity): PASS - {len(formulas)} formulas x "
        f"{len(graphs)} graphs x 2 activations, {checked} vertex checks, "
        f"0 mismatches, {elapsed:.1f}s"
    )


def test_criterion_2_compact_weights_fixture(q1, q1_spec):
    from test_compiler import compact_q1_net

    compact = compact_q1_net()
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(200):
        params = TreeParams(int(rng.integers(0, 3)), int(rng.integers(0, 11)), int(rng.integers(1, 11)))
        tree, _ = make_tree(params)
        ours = forward_outputs(q1_spec, tree)
        theirs = forward_outputs(compact, tree)
        mismatches += int((ours != theirs).sum())
    assert mismatches == 0
    print("\nACCEPTANCE 2 (compact hand-built weights): PASS - 200 random trees, 0 mismatches")


def test_criterion_3_iterate_rates():
    worst_flat_m3 = None
    for name in CERTIFIED:
        params = certificate(name)
        grid = plateau_grid(params.eps, 100_000)
        target = apply_activation("sigma-star", 1, grid)
        values = grid
        for m in range(21):
            observed = float(np.abs(values - target).max())
            bound = convergence_bound(params, m)
            assert observed <= bound + 1e-12, (name, m, observed, bound)
            if name == "steplike-tanh-eta0" and m == 3:
                worst_flat_m3 = observed
            values = apply_activation(name, 1, values)
    assert worst_flat_m3 is not None and worst_flat_m3 <= 0.2 / 128
    print(
        f"\nACCEPTANCE 3 (iterate rates): PASS - 4 activations, m up to 20, "
        f"flat-shoulder m=3 worst error {worst_flat_m3:.3e} <= {0.2 / 128:.3e}"
    )


def test_criterion_4_certificates():
    for name in ("step-arctan", "step-tanh", "steplike-tanh-eta0"):
        report = verify_step_like(name, certificate(name))
        assert report.passed, report.describe()
    a, alpha = flat_tanh_constants()
    assert 0.45 < a < 0.46
    assert 3.14 < alpha < 3.15
    print(
        f"\nACCEPTANCE 4 (certificates): PASS - three certificates verified at tol 1e-9, "
        f"minimizer a={a:.6f}, alpha={alpha:.6f} inside the expected intervals"
    )


def test_criterion_5_end_to_end_depth(q1_spec):
    started = time.perf_counter()
    params = certificate("step-arctan")
    m = required_composition_depth(params, 64)
    assert m == 14

    approx = q1_spec.with_activation("step-arctan", m)
    exact = q1_spec.with_activation("sigma-star", 1)
    worst_eps = 0.0
    worst_margin = 0.5
    for i in range(50):
        graph = random_graph(100 + (i % 5) * 25, 5.0, 1, 9_000 + i)
        assert graph.max_degree <= 64
        final_eps = layer_errors(approx, graph)[-1]
        assert final_eps < 1 / 132
        worst_eps = max(worst_eps, final_eps)
        outputs = forward_outputs(approx, graph)
        labels = forward_outputs(exact, graph)
        gaps = np.where(labels == 1.0, outputs - 0.5, 0.5 - outputs)
        worst_margin = min(worst_margin, float(gaps.min()))
    assert worst_margin > 0.5 - 1 / 132
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 5 (end-to-end depth): PASS - m=14, 50 graphs, worst deviation "
        f"{worst_eps:.3e} < {1 / 132:.3e}, worst margin {worst_margin:.6f}, {elapsed:.1f}s"
    )


def test_criterion_6_saturation():
    rows = run_saturation("q1", "sigmoid", 1, range(2, 65))
    swept = {r.k: r.value for r in rows if r.activation == "sigmoid"}
    controls = [r.value for r in rows if r.activation == "crelu"]
    assert all(v == 1.0 for v in controls)
    assert swept[64] < swept[2]
    assert swept[64] < 1e-9  # frozen: first derived run gave ~2e-16
    print(
        f"\nACCEPTANCE 6 (saturation): PASS - sigmoid gap {swept[2]:.3e} at k=2 -> "
        f"{swept[64]:.3e} at k=64; clipped-relu control pinned at 1.0 for all 63 sweep points"
    )


def test_criterion_7_separation_regimes():
    rows = run_separation("q1", "arctan-4pi", (4, 8, 12), (39, 63))
    gaps = {(r.m, r.k): r.value for r in rows if r.activation == "arctan-4pi"}
    sizes = {r.k: r.n for r in rows}
    baselines = [r.value for r in rows if r.activation in ("sigma-star", "crelu")]
    assert all(v == 1.0 for v in baselines)

    assert sizes[39] >= 1500
    assert gaps[(4, 39)] < 0.5  # failure regime
    assert sizes[63] <= 4000
    assert gaps[(12, 63)] >= 0.8  # plateau regime
    assert gaps[(4, 63)] < gaps[(8, 63)] < gaps[(12, 63)]
    print(
        f"\nACCEPTANCE 7 (separation regimes): PASS - gap(m=4, n={sizes[39]}) = "
        f"{gaps[(4, 39)]:.4f} < 0.5; gap(m=12, n={sizes[63]}) = {gaps[(12, 63)]:.4f} >= 0.8; "
        f"ordering strict at n={sizes[63]}"
    )


def test_criterion_8_cli_determinism(tmp_path):
    runs = [
        ("separation", "--query", "q1", "--activation", "arctan-4pi", "--m", "2,4",
         "--k-range", "2:5"),
        ("saturation", "--query", "q1", "--k-range", "2:6"),
        ("convergence", "--activation", "step-arctan", "--m-range", "0:8"),
    ]
    for i, args in enumerate(runs):
        a, b = tmp_path / f"run{i}a.csv", tmp_path / f"run{i}b.csv"
        for out in (a, b):
            result = subprocess.run(
                [sys.executable, "-m", "gc2gnn.cli", *args, "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
        assert a.read_bytes() == b.read_bytes(), args[0]
    print("\nACCEPTANCE 8 (determinism): PASS - separation, saturation, convergence CSVs byte-identical across reruns")
