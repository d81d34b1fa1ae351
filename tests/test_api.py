import ast
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import numpy as np

import gc2gnn
from gc2gnn import (
    TreeParams,
    activations,
    backend,
    cli,
    compile_formula,
    engine,
    graphs,
    make_tree,
    parse,
    write_graph,
)

from conftest import forward_history


def test_public_names_resolve():
    # every exported name exists, and the package re-exports only public names
    for info in pkgutil.iter_modules(gc2gnn.__path__):
        module = importlib.import_module(f"gc2gnn.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"gc2gnn.{info.name}.__all__ names undefined {name}"
    for node in ast.parse(Path(gc2gnn.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"gc2gnn.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, f"gc2gnn imports {alias.name} outside {node.module}.__all__"


def test_traced_functions_keep_their_parameters():
    # perfbench/tracing.py wraps these functions by module and name, and its
    # counters read their arguments by position or by these names
    assert list(inspect.signature(engine.forward).parameters)[:3] == ["spec", "graph", "activation"]
    assert list(inspect.signature(activations.apply_activation).parameters)[:3] == ["name", "m", "values"]
    assert callable(getattr(backend, "run_forward", None))
    # its spec counters take np.count_nonzero of each layer's dense A, B and c
    spec = compile_formula(parse("not dia>=2 (C1 and not C2)", 2), 2)
    for layer in spec.layers:
        k = layer.rows.size
        assert layer.A.shape == layer.B.shape == (k, spec.d) and layer.c.shape == (k,)


def test_benchmark_trace_reads_every_metric(monkeypatch, tmp_path, capsys):
    # a per-layer metric is None when a traced function is gone or a counter
    # hook raises, and a non-finite one prints as NaN, which is not JSON; the
    # calls below reach every target perfbench/tracing.py wraps
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    tree, root = make_tree(TreeParams(1, 3, 4))
    write_graph(tmp_path / "tree.graph", tree, root=root)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        graphs.random_graph(30, 3.0, 2, 0)
        for argv in (
            ("check-exact", "--query", "q2", "--random-graphs", "1", "--n", "20"),
            ("eval", "--query", "q1", "--graph", str(tmp_path / "tree.graph")),
            ("separation", "--k-range", "2:3", "--m", "4"),
            ("saturation", "--query", "q1", "--k-range", "2:3"),
        ):
            assert cli.main(list(argv)) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert not tracer.missing and not tracer.broken
    values = {name: metric["value"] for name, metric in tracer.metrics().items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()), values


def test_forward_enters_the_executor_through_run_forward(monkeypatch, q1_spec, path3):
    # perfbench/tracing.py times backend.self_s by wrapping run_forward, so
    # each forward reaches the executor through it exactly once
    calls = []
    run_forward = backend.run_forward

    def counted(*args, **kw):
        calls.append(args)
        return run_forward(*args, **kw)

    monkeypatch.setattr(backend, "run_forward", counted)
    engine.forward(q1_spec, path3)
    engine.forward_outputs(q1_spec, path3)
    assert len(calls) == 2


def test_per_layer_runs_bypass_run_forward(monkeypatch, q1_spec, triangle):
    # layer_errors and the test history step through backend.layer_states,
    # never re-entering run_forward with a one-layer tuple
    def refuse(*args, **kw):
        raise AssertionError("run_forward called")

    monkeypatch.setattr(backend, "run_forward", refuse)
    assert np.array_equal(engine.layer_errors(q1_spec, triangle), np.zeros(q1_spec.iterations + 1))
    assert forward_history(q1_spec, triangle).shape == (q1_spec.iterations + 1, 3, q1_spec.d)
