import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gc2gnn
from gc2gnn import (
    TOP,
    ActivationSpec,
    Color,
    Diamond,
    GnnLayer,
    GnnSpec,
    LabeledGraph,
    TreeParams,
    activations,
    backend,
    cli,
    compile_formula,
    engine,
    graphs,
    make_tree,
    parse,
    random_formula,
    random_graph,
    random_graphs,
    write_graph,
)

from conftest import forward_history, sum_positions


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
        k = len(layer.rows)
        assert layer.A.shape == layer.B.shape == (k, spec.d) and np.asarray(layer.c).shape == (k,)


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


def test_traced_check_exact_counts_its_shared_forward(monkeypatch, capsys):
    # perfbench/tracing.py counts forwards by wrapping engine.forward: the
    # one forward that check-exact's sigma-star and crelu runs share enters
    # through it once, and its one formula walk is one subformulas span
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["check-exact", "--query", "q2", "--random-graphs", "3", "--n", "20"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.endswith("exactness: PASS\n")
    assert not tracer.missing and not tracer.broken
    assert tracer.counts["engine.forward_calls"] == 1
    assert [span[0] for span in tracer.spans].count("formulas.subformulas") == 1


def test_forward_enters_the_executor_through_run_forward(monkeypatch, q1_spec, path3):
    # perfbench/tracing.py counts forwards by wrapping engine.forward and
    # times backend.self_s by wrapping run_forward, so forward_outputs goes
    # through engine.forward once, and each forward reaches the executor
    # through run_forward exactly once
    calls = []

    def counted(key, fn):
        def wrapper(*args, **kw):
            calls.append(key)
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(engine, "forward", counted("forward", engine.forward))
    monkeypatch.setattr(backend, "run_forward", counted("run_forward", backend.run_forward))
    engine.forward(q1_spec, path3)
    engine.forward_outputs(q1_spec, path3)
    assert calls == ["forward", "run_forward"] * 2


def test_per_layer_runs_bypass_run_forward(monkeypatch, q1_spec, triangle):
    # layer_errors and the test history step through backend.layer_states,
    # never re-entering run_forward with a one-layer tuple
    def refuse(*args, **kw):
        raise AssertionError("run_forward called")

    monkeypatch.setattr(backend, "run_forward", refuse)
    assert np.array_equal(engine.layer_errors(q1_spec, triangle), np.zeros(q1_spec.iterations + 1))
    assert forward_history(q1_spec, triangle).shape == (q1_spec.iterations + 1, 3, q1_spec.d)


# the 4-vertex graph with edges 01, 02, 23
FOUR = LabeledGraph(4, 2, np.array([1, 1, 2, 2]), np.array([[0, 1], [0, 2], [2, 3]]))
FOUR_SPEC = compile_formula(parse("(C1 and dia>=1 C2)", 2), 2)
STEP_ARCTAN = activations.certificate("step-arctan")


def _written_with_root(root):
    write_graph("four.graph", FOUR, root=root)
    return Path("four.graph").read_bytes()


# integer argument -> (a call that passes it, a valid value)
INTEGER_ARGUMENTS = {
    "ActivationSpec.m": (lambda m: activations.ActivationSpec("sigmoid", m), 2),
    "apply_activation.m": (lambda m: activations.apply_activation("sigmoid", m, [0.3, 0.7]), 2),
    "convergence_bound.m": (lambda m: activations.convergence_bound(STEP_ARCTAN, m), 2),
    "required_composition_depth.max_degree": (
        lambda delta: activations.required_composition_depth(STEP_ARCTAN, delta), 3),
    "Color.index": (Color, 2),
    "Diamond.threshold": (lambda k: Diamond(k, TOP), 2),
    "parse.palette_size": (lambda palette: parse("C1", palette), 2),
    "compile_formula.palette": (lambda palette: compile_formula(parse("C1", 1), palette), 2),
    "random_formula.palette_size": (lambda palette: random_formula(np.random.default_rng(0), palette), 2),
    "random_formula.max_depth": (lambda depth: random_formula(np.random.default_rng(0), 2, max_depth=depth), 4),
    "random_formula.max_threshold": (
        lambda k: random_formula(np.random.default_rng(0), 2, max_threshold=k), 3),
    "GnnLayer.rows": (lambda j: GnnLayer([j], [0.0], [[(0, 1.0)]], 3), 2),
    "GnnLayer.terms.p": (lambda p: GnnLayer(np.array([0]), [0.0], [[(p, 1.0)]], 3), 2),
    "GnnLayer.d": (lambda d: GnnLayer([0], [0.0], [[(0, 1.0)]], d), 3),
    # a float width equal to the spec's passed both checks, and a forward
    # then failed with numpy's IndexError
    "GnnSpec.layers.d": (
        lambda d: GnnSpec(0, (GnnLayer([0], [0.0], [[(0, 1.0)]], d),), activations.ActivationSpec("crelu"), ("1", "0")), 2),
    "GnnSpec.output_index": (
        lambda i: engine.forward_outputs(dataclasses.replace(FOUR_SPEC, output_index=i), FOUR), 2),
    "forward.keep": (lambda j: engine.forward(FOUR_SPEC, FOUR, keep=(j,)), 2),
    "LabeledGraph.n": (lambda n: LabeledGraph(n, 1, np.ones(3, dtype=np.int64), np.empty((0, 2), int)), 3),
    "LabeledGraph.palette": (lambda palette: LabeledGraph(2, palette, np.array([1, 2]), np.array([[0, 1]])), 2),
    "LabeledGraph.neighbors.v": (FOUR.neighbors, 2),
    "write_graph.root": (_written_with_root, 2),
    "random_graph.n": (lambda n: random_graph(n, 2.0, 1, 0), 10),
    "random_graphs.palette": (lambda palette: random_graphs(10, 2.0, palette, [0, 1]), 2),
    "TreeParams.x": (lambda x: TreeParams(x, 2, 2), 2),
    "TreeParams.k": (lambda k: TreeParams(1, k, 2), 2),
    "TreeParams.m": (lambda m: TreeParams(1, 2, m), 2),
}


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_integer_arguments_follow_one_rule(argument, monkeypatch, tmp_path):
    # a Python or numpy integer, not a bool: True, 1.5 and a float64 holding
    # an integer each raise ValueError at the entry, and a numpy integer
    # gives what the Python int gives
    monkeypatch.chdir(tmp_path)
    call, valid = INTEGER_ARGUMENTS[argument]
    for bad in (True, 1.5, np.float64(2)):
        with pytest.raises(ValueError, match="integer"):
            call(bad)
    np.testing.assert_equal(call(np.int64(valid)), call(valid))


def test_composition_depth_is_stored_as_int():
    assert type(activations.ActivationSpec("sigmoid", np.int64(2)).m) is int


def test_one_integer_test_in_the_package():
    # np.integer and isinstance(..., bool) appear only in graphs._is_integer,
    # the one test of an integer argument, so no second copy can drift from it
    outside, inside = [], []
    for path in sorted(Path(gc2gnn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        rule = {id(n) for f in tree.body if getattr(f, "name", None) == "_is_integer" for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "integer":
                what = "np.integer"
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and any(
                getattr(k, "id", None) == "bool" for k in getattr(node.args[1], "elts", [node.args[1]])
            ):
                what = "isinstance bool"
            else:
                continue
            (inside if id(node) in rule else outside).append((path.name, node.lineno, what))
    assert outside == []
    assert sorted(what for *_, what in inside) == ["isinstance bool", "np.integer"]


def test_no_probe_decides_how_a_map_runs():
    # whether a run takes tables follows the depth it composes and n (the
    # table rule of the backend docstring), so the probe that once ran the
    # map to decide it is named nowhere in the package or the tests
    probe = "_takes" + "_table"
    paths = [*Path(gc2gnn.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    assert [path.name for path in paths if probe in path.read_text()] == []
    assert not hasattr(activations, probe)


def test_one_entry_runs_a_map(q2_spec):
    # activations._in_place is the one code that runs a map: no other module
    # reads an Activation's fn.  The table of a coded row is backend's, which
    # holds its names, and activations none.  backend.layer_states is the layer loop
    # alone, builds its state from the spec's initial kinds and holds a
    # layer's neighbour sums as computed: a warm q2 forward on 2**16
    # vertices peaks within its one (d, n) array, the state, the (k, n)
    # pre-activations, two scratch rows, one row per sum after layer 1, the
    # output and the (E,) edge buffer, where a (d, n) array of sums took d
    # rows more, and an (n, d) array of initial features copied into the
    # state d rows more again
    readers = {
        path.name
        for path in Path(gc2gnn.__file__).parent.glob("*.py")
        if any(isinstance(node, ast.Attribute) and node.attr == "fn" for node in ast.walk(ast.parse(path.read_text())))
    }
    assert readers == {"activations.py"}
    table = ("_CHUNK", "_TABLE_DEPTH")
    assert [name for name in ("_activator", "_look_up", *table) if hasattr(activations, name)] == []
    assert all(hasattr(backend, name) for name in table) and not hasattr(backend, "_activator")

    n, rng = 2**16, np.random.default_rng(3)
    pairs = rng.integers(0, n, size=(n, 2))
    graph = LabeledGraph(n, 2, rng.integers(1, 3, n), pairs[pairs[:, 0] != pairs[:, 1]])
    later = sum(len(sum_positions(layer)) for layer in q2_spec.layers[1:])
    rows = q2_spec.d + max(len(layer.c) for layer in q2_spec.layers) + 2 + later + 1
    allowed = 8 * (rows * n + len(graph.edge_src)) + 64 * 1024
    for act in (None, ActivationSpec("step-arctan", 14)):
        engine.forward_outputs(q2_spec, graph, act)  # warm: the graph keeps its adjacency and layer-1 sums
        tracemalloc.start()
        try:
            engine.forward_outputs(q2_spec, graph, act)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= allowed, (act, peak / (8 * n), allowed / (8 * n))
