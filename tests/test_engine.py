import gc
import hashlib
import tracemalloc
import weakref
from dataclasses import replace
from itertools import groupby, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gc2gnn import (
    ACTIVATION_NAMES,
    ActivationSpec,
    GnnLayer,
    GnnSpec,
    LabeledGraph,
    TOP,
    TreeParams,
    batch_graphs,
    compile_formula,
    eval_oracle_all,
    forward,
    forward_outputs,
    initial_features,
    layer_errors,
    make_tree,
    parse,
    random_formula,
    random_graph,
    tree_quotient,
)
from gc2gnn import activations, backend, cli
from gc2gnn.activations import apply_activation, certificate, get_activation, required_composition_depth
from gc2gnn.backend import run_forward
from gc2gnn.engine import forward_outputs_each
from gc2gnn.experiments import run_separation, tree_roots

from conftest import (
    activated_columns,
    forward_history,
    matrix_rows,
    pinned_graph,
    read_columns,
    simd_level,
    sum_positions,
    tree_classes,
    uses_tables,
)


def test_forward_triangle_all_true(q1_spec, triangle):
    final = forward(q1_spec, triangle)
    assert final.shape == (3, 5)
    assert np.array_equal(final[:, q1_spec.output_index], [1, 1, 1])
    assert forward_history(q1_spec, triangle).shape == (5, 3, 5)


def test_forward_outputs_own_their_data(q1_spec, triangle):
    # a view would keep the whole (n, d) last layer alive with the outputs
    assert forward_outputs(q1_spec, triangle).base is None


def test_forward_crelu_tree(q1_spec):
    tree, root = make_tree(TreeParams(0, 5, 5))
    out = forward_outputs(q1_spec, tree, ActivationSpec("crelu", 1))
    assert out[root] == 0.0


def test_zero_iteration_spec_returns_init(triangle):
    spec = compile_formula(TOP, 1)
    assert np.array_equal(forward(spec, triangle), np.ones((3, 1)))
    assert forward_history(spec, triangle).shape == (1, 3, 1)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 40),
    st.sampled_from(ACTIVATION_NAMES),
    st.sampled_from((0, 1, 3)),
)
def test_live_columns_keep_every_output_bit(seed, n, name, m):
    # forward_outputs activates only the columns the output depends on and
    # forward with keep only those some later layer or a kept column reads;
    # without keep, forward, like the layer_states run of forward_history,
    # activates every column at every layer
    rng = np.random.default_rng(seed)
    spec = compile_formula(random_formula(rng, 2, max_depth=8), 2)
    graph = random_graph(n, float(rng.uniform(0.0, min(6.0, n - 1))), 2, seed)
    act = ActivationSpec(name, m)
    last = forward_history(spec, graph, act)[-1]
    want = last[:, spec.output_index].tobytes()
    assert forward_outputs(spec, graph, act).tobytes() == want
    assert forward(spec, graph, act).tobytes() == last.tobytes()
    kept = [0, spec.output_index]
    assert forward(spec, graph, act, keep=tuple(kept))[:, kept].tobytes() == last[:, kept].tobytes()


@pytest.mark.parametrize("column", [-1, 5])
def test_keep_refuses_a_column_outside_the_state(q1_spec, column):
    # q1 has d = 5: -1 matches no rule row, so its activations were skipped,
    # and 5 indexed past the state
    graph = pinned_graph(150, 5.0, 1, 4)
    act = ActivationSpec("step-arctan", 3)
    with pytest.raises(ValueError, match=r"keep must list integer columns in \[0, 5\)"):
        forward(q1_spec, graph, act, keep=(column,))
    with pytest.raises(ValueError, match="keep"):
        next(backend.layer_states(q1_spec, graph, act.name, act.m, keep=(0, column)))


def reference_run_forward(init, graph, layers, name, m, keep=None):
    """The executor as it stood before the column-major state: an (n, d)
    state, ``reads`` taken from the dense rows, and each row folded term by
    term as the backend docstring defines it, ``(c + S_A) + S_B``, with the
    A terms and then the B terms summed left to right in ascending p."""
    def reads(layer):
        return np.flatnonzero(layer.A.any(axis=0) | layer.B.any(axis=0))

    def fold(row, cur, agg, d):  # one rule row's (n,) pre-activations
        s_a = s_b = None
        for p, v in row:
            if p < d:
                term = cur[:, p] * v
                s_a = term if s_a is None else s_a + term
            else:
                term = agg[:, p - d] * v
                s_b = term if s_b is None else s_b + term
        return [s for s in (s_a, s_b) if s is not None]

    d = np.shape(init)[1]
    live = np.zeros(d, dtype=bool)
    live[slice(None) if keep is None else np.asarray(keep, dtype=np.int64)] = True
    after = []
    for layer in reversed(layers):
        cols = np.flatnonzero(live)
        if cols.size and cols[-1] - cols[0] + 1 == cols.size:
            cols = slice(cols[0], cols[-1] + 1)
        after.append(cols)
        live[np.asarray(layer.rows, dtype=np.int64)] = False
        live[reads(layer)] = True

    cur = np.array(init, dtype=np.float64)
    n = cur.shape[0]
    agg = np.zeros((n, d))
    for layer, live in zip(layers, after[::-1]):
        if layer.rows:
            for j in np.flatnonzero(layer.B.any(axis=0)):
                agg[:, j] = np.bincount(graph.edge_dst, weights=cur[:, j].take(graph.edge_src), minlength=n)
            pre = []
            for c, row in zip(layer.c, layer.terms):
                value = np.full(n, c)
                for s in fold(row, cur, agg, d):
                    value = value + s
                pre.append(value)
            cur[:, np.asarray(layer.rows)] = np.stack(pre, axis=1)
        cur[:, live] = apply_activation(name, m, cur[:, live])
    return cur


def assert_matches_reference(spec, graph, name, m, keep):
    got = run_forward(spec, graph, name, m, keep)
    want = reference_run_forward(initial_features(spec, graph), graph, spec.layers, name, m, keep)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (name, m, keep)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 40),
    st.sampled_from(ACTIVATION_NAMES),
    st.sampled_from((0, 1, 3)),
    st.booleans(),
)
def test_run_forward_matches_reference_executor(seed, n, name, m, keep_output):
    # every bit of every column, the stale ones included
    rng = np.random.default_rng(seed)
    spec = compile_formula(random_formula(rng, 2, max_depth=8), 2)
    graph = random_graph(n, float(rng.uniform(0.0, min(6.0, n - 1))), 2, seed)
    keep = (spec.output_index,) if keep_output else None
    assert_matches_reference(spec, graph, name, m, keep)


def hand_built_layers():
    """Three layers over d = 5: the first mixes rows of at most two terms
    with a row of four nonzeros in A and three in B, whose sums round more
    than once; in the second, row 1 reads coordinate 3 and row 3 reads coordinate 1, each
    written by the other; the third has a bias-only row and a row that reads
    only neighbour sums."""
    def layer(rows, a, b, c):
        terms = [sorted({**ra, **{5 + j: v for j, v in rb.items()}}.items()) for ra, rb in zip(a, b)]
        return GnnLayer(np.array(rows), np.array(c, dtype=np.float64), terms, 5)

    return (
        layer([0, 2, 4], [{1: 1}, {0: 1, 1: -2, 3: 1, 4: 3}, {}], [{}, {4: 1, 1: -1, 2: 2}, {0: 1, 2: -1}], [0, 1, -1]),
        layer([1, 3], [{3: -1}, {1: 1, 0: 1}], [{}, {1: 1}], [1, -2]),
        layer([0, 2], [{}, {}], [{}, {3: 2, 4: -1}], [1, 0]),
    )


def hand_built_spec():
    """``hand_built_layers()`` twice over, from the initial kinds C1, 1, 0,
    C2 and 0, kept at coordinate 3.  The initial state holds only 0 and 1,
    so layer 1's sums are exact; layer 4 folds the long row again over the
    values of layer 3, non-integers under a smooth map, where it rounds."""
    return GnnSpec(3, hand_built_layers() * 2, ActivationSpec("sigmoid", 2), ("C1", "1", "0", "C2", "0"))


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
def test_hand_built_layers_match_reference_executor(name):
    # the longest A or B part of any row, per layer
    assert [max(sum((p < 5) == a for p, _ in row) for row in layer.terms for a in (True, False))
            for layer in hand_built_layers()] == [4, 2, 2]
    spec, graph = hand_built_spec(), random_graph(50, 4.0, 2, 3)
    # a layer with no rule rows writes nothing and activates as any other
    gap = replace(spec, layers=(*spec.layers[:3], GnnLayer((), (), (), 5), *spec.layers[3:]))
    for spec in (spec, gap):
        for m in (0, 1, 3):
            for keep in (None, (3,)):
                if keep and get_activation(name).idempotent:
                    # a settling run activates every column it writes, kept
                    # or not: the whole output is the keep=None reference's,
                    # and the kept column is also the keep reference's
                    init, got = initial_features(spec, graph), run_forward(spec, graph, name, m, keep)
                    want = reference_run_forward(init, graph, spec.layers, name, m, keep)
                    assert got[:, 3].tobytes() == want[:, 3].tobytes(), (name, m)
                    want = reference_run_forward(init, graph, spec.layers, name, m)
                    assert got.tobytes() == want.tobytes(), (name, m)
                else:
                    assert_matches_reference(spec, graph, name, m, keep)


def test_runs_cache_no_second_row_form():
    # the executor folds each row's terms as stored and derives the columns
    # a layer reads per run: running a network leaves on its layers only
    # their four fields
    from test_compiler import pinned_specs

    graph = pinned_graph(40, 3, 3, 5)
    specs = [*pinned_specs(), hand_built_spec()]
    for spec in specs:
        forward(spec, graph)
        layer_errors(spec, graph)
    assert {key for spec in specs for layer in spec.layers for key in vars(layer)} == {"rows", "c", "terms", "d"}


def test_overflowing_layer_raises_naming_it(isolated_vertex):
    # coordinate 0 grows as 9e18 ** t and leaves float64 in layer 17; the
    # run stops there and names it, though layer 19 does not read
    # coordinate 0 and the output, coordinate 2, would come out finite: an
    # overflow is bad input wherever it lands
    d = 20
    layers = [GnnLayer(np.array([0]), np.zeros(1), [[(0, 9e18)]], d)] * 18
    layers.append(GnnLayer(np.array([1, 2]), np.zeros(2), [[(2, 1.0), (3, 1.0)], [(1, 1.0)]], d))
    spec = GnnSpec(2, tuple(layers), ActivationSpec("relu", 1), ("1",) + ("0",) * (d - 1))
    for run in (lambda: forward(spec, isolated_vertex), lambda: layer_errors(spec, isolated_vertex)):
        with pytest.raises(ValueError, match="layer 17 has a pre-activation that is not finite"):
            run()


def run_on_values(x, layer):
    """The (2, d) features after ``layer`` runs at both ends of one edge on
    the state ``x``, so every neighbour sum is x too: from zero initial
    kinds a bias-only first layer writes x, and at m = 0 relu activates
    nothing."""
    d = len(x)
    first = GnnLayer(tuple(range(d)), tuple(x), [[]] * d, d)
    spec = GnnSpec(layer.rows[0], (first, layer), ActivationSpec("relu", 0), ("0",) * d)
    return run_forward(spec, LabeledGraph(2, 1, np.ones(2, dtype=np.int64), np.array([[0, 1]])), "relu", 0)


def test_rows_of_three_or_more_terms_fold_in_term_order():
    # a row's pre-activation is (c + S_A) + S_B, each sum taken left to right
    # in term order: at x = (1e16, 1, -1e16), 1e16 + 1 rounds back to 1e16,
    # so S_A is 0, where cancelling the large terms first would leave 1
    x = np.array([1e16, 1.0, -1e16, 0.0])
    a, b, c = [(0, 1.0), (1, 1.0), (2, 1.0)], [(0, 2.0), (1, 3.0), (2, 2.0)], 0.5
    layer = GnnLayer(np.array([3]), np.array([c]), [a + [(4 + j, v) for j, v in b]], 4)
    got = run_on_values(x, layer)[:, 3]

    def fold(terms):
        (col, coef), *rest = terms
        total = coef * x[col]
        for col, coef in rest:
            total = total + coef * x[col]
        return total

    want = (c + fold(a)) + fold(b)
    assert got.tobytes() == np.full(2, want).tobytes()
    # the order shows in both sums
    assert want != (c + fold([a[0], a[2], a[1]])) + fold(b)
    assert want != (c + fold(a)) + fold([b[0], b[2], b[1]])


def test_rows_of_b_terms_only_fold_s_b_then_add_c():
    # a row without A terms is c + S_B, S_B taken left to right in term
    # order: at y = (1e16, 1, 1, -1e16), 1e16 + 3 and (1e16 + 4) + 3 each
    # round, so S_B is 8 where the exact sum is 6, and adding c to the first
    # term instead, or folding the terms in another order, gives other bits
    x = np.array([1e16, 1.0, 1.0, -1e16, 0.0])
    b, c = [(0, 1.0), (1, 3.0), (2, 3.0), (3, 1.0)], 0.5
    layer = GnnLayer(np.array([4]), np.array([c]), [[(5 + j, v) for j, v in b]], 5)
    got = run_on_values(x, layer)[:, 4]

    def fold(terms, total=0.0):
        for col, coef in terms:
            total = total + coef * x[col]
        return total

    want = c + fold(b)
    assert got.tobytes() == np.full(2, want).tobytes()
    assert fold(b) == 8.0  # the exact sum is 6
    assert want != fold(b, c)
    assert want != c + fold([b[0], b[3], b[1], b[2]])


def _live_after(layers, d, keep):
    """Each layer's live set by the recurrence, as Python sets: every column
    with ``keep=None``, else ``live_after(t-1) = (live_after(t) - rows(t)) |
    reads(t)`` from ``live_after(T) = keep``."""
    live, after = set(range(d) if keep is None else keep), []
    for layer in reversed(layers):
        after.append(set(range(d)) if keep is None else live)
        live = (live - set(layer.rows)) | set(read_columns(layer))
    return after[::-1]


def _schedule_cases():
    rng = np.random.default_rng(11)
    specs = [compile_formula(random_formula(rng, 2, max_depth=8), 2) for _ in range(6)]
    cases = {f"random-{i}": (spec.layers, spec.d, spec.output_index) for i, spec in enumerate(specs)}
    cases["hand-built"] = (hand_built_layers(), 5, 3)
    return cases


SCHEDULE_CASES = _schedule_cases()


def _runs_by_the_block_rule(live, n):
    """The runs of consecutive columns of ``live`` that lie in place, and the
    columns gathered: a contiguous set lies in place, and so does each run
    of a set with gaps that holds ``activations._BLOCK`` elements of an
    n-vertex state."""
    cols = sorted(live)
    runs = [[j for _, j in run] for _, run in groupby(enumerate(cols), lambda ij: ij[1] - ij[0])]
    if len(runs) == 1:
        return runs, []
    short = [run for run in runs if len(run) * n < activations._BLOCK]
    return [run for run in runs if run not in short], [j for run in short for j in run]


@pytest.mark.parametrize("keep", ["none", "output", "empty", "every"])
@pytest.mark.parametrize("case", SCHEDULE_CASES)
def test_schedule_matches_the_liveness_recurrence(case, keep):
    # backend's one backward pass gives, per layer, the rows, the B
    # positions whose neighbour sums it reads as ints, the live index and
    # its columns as an ascending list, the recurrence's live set: the
    # index holds slices of the state activated where they lie, by the
    # block rule, and the columns gathered into one buffer; the index and
    # the list are each one object while the live set does not change
    layers, d, out = SCHEDULE_CASES[case]
    keep = {"none": None, "output": (out,), "empty": (), "every": range(d)}[keep]
    want = _live_after(layers, d, keep)
    columns = np.arange(d)
    for n in (1, 2**15, 2**16):  # every run gathered; runs of 2 or more in place; every run in place
        steps = backend._schedule(layers, keep, n)
        assert len(steps) == len(layers) == len(want)
        for layer, (rows, positions, index, cols), live in zip(layers, steps, want):
            assert columns[rows].tolist() == list(layer.rows)
            assert isinstance(rows, slice) or len(layer.rows) > 1
            assert positions == sum_positions(layer) and all(type(p) is int for p in positions)
            assert activated_columns(index, d) == list(cols) == sorted(live)
            views, gather = index
            if keep is None:
                assert views == (slice(None),) and gather is None
                continue
            in_place, gathered = _runs_by_the_block_rule(live, n)
            assert all(isinstance(view, slice) and view.step is None for view in views)
            assert [columns[view].tolist() for view in views] == in_place
            assert ([] if gather is None else gather.tolist()) == gathered
        for (*_, a, cols_a), (*_, b, cols_b), live_a, live_b in zip(steps, steps[1:], want, want[1:]):
            assert (a is b) == (cols_a is cols_b) == (live_a == live_b)


def _chain(levels):
    """A compiled chain of ``levels`` nested connectives over C1, C2 and top,
    a third each of `dia>=2`, `not` and `and`; layer 1 sums C1."""
    text = "C1"
    for i in range(levels):
        text = ("dia>=2 {}", "not {}", "({} and C2)")[i % 3].format(text)
    return compile_formula(parse(f"({text} and top)", 2), 2)


def record_kernels(monkeypatch, fn):
    """Replace every registered map's kernel by one that calls ``fn`` with
    the array it gets, then runs the map's own kernel on it."""
    def recording(kernel):
        def recorded(x):
            fn(x)
            kernel(x)
        return recorded

    for name, act in activations._REGISTRY.items():
        monkeypatch.setitem(activations._REGISTRY, name, replace(act, fn=recording(act.fn)))


def test_forward_work_per_layer(q2_spec, monkeypatch, capsys):
    # per-layer work cannot creep back: a forward builds one schedule,
    # resolves its map once, activates each in-place run and each gathered
    # buffer as one block, m kernel steps on it, never through
    # apply_activation's copy, and calls np.bincount once per neighbour sum
    # a layer reads; the graph keeps its layer-1 sums, so every later
    # forward on it calls np.bincount once per sum at layers >= 2 only
    spec = _chain(60)
    graph = random_graph(30, 3.0, 2, 0)
    # on 30 vertices every run is short: one view or one gathered buffer a layer
    steps = backend._schedule(spec.layers, (spec.output_index,), graph.n)
    assert [len(views) + (gather is not None) for *_, (views, gather), _ in steps] == [1] * spec.iterations
    calls = {"schedule": 0, "resolve": 0, "kernel": 0, "apply_activation": 0, "bincount": 0, "table": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(backend, "_schedule", counted("schedule", backend._schedule))
    monkeypatch.setattr(activations, "_in_place", counted("resolve", activations._in_place))
    record_kernels(monkeypatch, counted("kernel", lambda x: None))
    monkeypatch.setattr(activations, "apply_activation", counted("apply_activation", activations.apply_activation))
    monkeypatch.setattr(np, "bincount", counted("bincount", np.bincount))
    # below backend._CHUNK vertices no row is coded
    monkeypatch.setattr(backend, "_integer_table", counted("table", backend._integer_table))
    sums = sum(len(sum_positions(layer)) for layer in spec.layers)
    first = sum_positions(spec.layers[0])
    assert spec.iterations >= 60 and sums >= 20 and first == [spec.d]

    def run(m, kept):
        # one forward at depth m; layer 1 reads the graph's sums once it keeps them
        work = {"schedule": 1, "resolve": 1, "kernel": m * spec.iterations, "apply_activation": 0, "table": 0}
        return dict(work, bincount=sums - len(first) * kept)

    forward_outputs(spec, graph, ActivationSpec("crelu", 1))
    want = run(1, False)
    assert calls == want
    assert sorted(graph._first_sums) == ["C1"]
    assert spec.activation == ActivationSpec("sigma-star", 1)
    layer_errors(spec, graph)  # two runs, every column live: one view of the whole state a layer
    want = {key: want[key] + 2 * count for key, count in run(1, True).items()}
    assert calls == want
    forward_outputs(spec, graph, ActivationSpec("step-arctan", 14))  # a map that would take one
    assert calls == {key: want[key] + count for key, count in run(14, True).items()}

    # check-exact runs sigma-star and crelu as one shared run on one union:
    # one schedule, each map resolved once and its kernel once a layer, one
    # np.bincount per neighbour sum and one _combine per layer, for both
    work_by_run, states = [], backend.layer_states
    calls["combine"] = 0
    monkeypatch.setattr(backend, "_combine", counted("combine", backend._combine))

    def counted_states(spec, graph, name, m, keep=None, *, others=()):
        before = dict(calls)
        yield from states(spec, graph, name, m, keep, others=others)
        work_by_run.append((name, others, {key: calls[key] - before[key] for key in calls}))

    monkeypatch.setattr(backend, "layer_states", counted_states)
    assert cli.main(["check-exact", "--query", "q2", "--random-graphs", "4", "--n", "30", "--seed", "3"]) == 0
    assert capsys.readouterr().out.endswith("exactness: PASS\n")
    q2_sums = sum(len(sum_positions(layer)) for layer in q2_spec.layers)
    assert len(sum_positions(q2_spec.layers[0])) == 2
    layers = q2_spec.iterations
    shared = {"schedule": 1, "resolve": 2, "kernel": 2 * layers, "apply_activation": 0, "bincount": q2_sums,
              "table": 0, "combine": layers}
    assert work_by_run == [("sigma-star", [("crelu", 1)], shared)]


def record_layer_runs(monkeypatch):
    """The ``(name, m, others)`` of every ``backend.layer_states`` call, in
    call order, as a list the calls fill."""
    calls, states = [], backend.layer_states

    def recorded(spec, graph, name, m, keep=None, *, others=()):
        calls.append((name, m, list(others)))
        return states(spec, graph, name, m, keep, others=others)

    monkeypatch.setattr(backend, "layer_states", recorded)
    return calls


@st.composite
def sharing_cases(draw):
    """A spec and a graph to share runs on: the disjoint union of up to three
    random graphs, and a compiled random formula over two colors or a
    hand-built spec of up to four layers over d <= 4 coordinates, whose
    weights and biases include 2, -0.5 and 0.3, off the integers."""
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=3))
    graph = batch_graphs([random_graph(n, float(rng.uniform(0.0, min(5.0, n - 1))), 2, seed + i)
                          for i, n in enumerate(sizes)])[0]
    if draw(st.booleans()):
        return compile_formula(random_formula(rng, 2, max_depth=8), 2), graph
    d = draw(st.integers(1, 4))
    weight = st.sampled_from((1.0, -1.0, 2.0, -0.5))
    bias = st.sampled_from((0.0, 1.0, -1.0, 0.3, 0.5, -2.0))

    def layer():
        rows = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))
        positions = [sorted(draw(st.sets(st.integers(0, 2 * d - 1), max_size=3))) for _ in rows]
        return GnnLayer(tuple(rows), tuple(draw(bias) for _ in rows),
                        tuple(tuple((p, draw(weight)) for p in row) for row in positions), d)

    layers = tuple(layer() for _ in range(draw(st.integers(1, 4))))
    kinds = tuple(draw(st.lists(st.sampled_from(("0", "1", "C1", "C2")), min_size=d, max_size=d)))
    return GnnSpec(draw(st.integers(0, d - 1)), layers, ActivationSpec("sigma-star", 1), kinds), graph


@settings(max_examples=80, deadline=None)
@given(sharing_cases(), st.permutations(("sigma-star", "crelu", "relu")),
       st.lists(st.sampled_from((0, 1, 3)), min_size=3, max_size=3))
def test_shared_runs_give_each_runs_bits(case, names, depths):
    # the runs of maps that settle share one layer loop while their activated
    # rows agree: every output has the bits of its own forward_outputs call.
    # A map parts exactly when its history differs from the first map's, so
    # the last shared run holds the first map and those that agree with it,
    # and the others run alone; a compiled formula never parts sigma-star
    # from crelu at m >= 1
    spec, graph = case
    runs = [ActivationSpec(name, m) for name, m in zip(names, depths)]
    histories = {act: forward_history(spec, graph, act).tobytes() for act in runs}
    exact = [act for act in runs if act.name != "relu" and act.m]
    if spec.coordinate_formulas is not None and len(exact) == 2:
        assert histories[exact[0]] == histories[exact[1]]
    want = np.stack([forward_outputs(spec, graph, act) for act in runs])
    with pytest.MonkeyPatch.context() as patch:
        calls = record_layer_runs(patch)
        got = forward_outputs_each(spec, graph, runs)
    assert got.tobytes() == want.tobytes()
    head, *tail = runs
    assert calls[0] == (head.name, head.m, [(act.name, act.m) for act in tail])
    agree = [act for act in tail if histories[act] == histories[head]]
    shared = [call for call in calls if call[2]]
    if agree:
        assert shared[-1] == (head.name, head.m, [(act.name, act.m) for act in agree])
    alone = [act for act in runs if not agree or (act is not head and act not in agree)]
    assert [(name, m) for name, m, others in calls if not others] == [(act.name, act.m) for act in alone]


@pytest.mark.parametrize("leaves", [1, 2, 3])
def test_relu_parts_from_crelu_where_a_diamond_sees_two_true_neighbours(leaves, monkeypatch):
    # dia>=1 C1's pre-activation at a vertex is its number of C1 neighbours:
    # relu passes a 2 or more through where crelu clips it to 1, so on a
    # star of ``leaves`` leaves the two part at layer 1 when leaves >= 2 and
    # then each runs alone
    spec = compile_formula(parse("dia>=1 C1", 1), 1)
    star = LabeledGraph(leaves + 1, 1, np.ones(leaves + 1, dtype=np.int64),
                        np.array([[0, leaf] for leaf in range(1, leaves + 1)]))
    runs = [ActivationSpec("crelu", 1), ActivationSpec("relu", 1)]
    calls = record_layer_runs(monkeypatch)
    got = forward_outputs_each(spec, star, runs)
    assert got.tolist() == [[1.0] * (leaves + 1), [float(leaves)] + [1.0] * leaves]
    shared = [("crelu", 1, [("relu", 1)])]
    assert calls == (shared if leaves < 2 else shared + [("crelu", 1, []), ("relu", 1, [])])


def test_a_bias_off_the_integers_parts_sigma_star_from_crelu(monkeypatch):
    # a hand-built row x_C1 + 0.3 is 0.3 off C1: sigma-star sends it to 0,
    # crelu keeps 0.3, so the shared run parts at layer 1 and each map runs
    # alone with its own bits; a map that does not settle cannot share
    layer = GnnLayer((1,), (0.3,), (((0, 1.0),),), 2)
    spec = GnnSpec(1, (layer, layer), ActivationSpec("sigma-star", 1), ("C1", "0"))
    graph = random_graph(20, 2.0, 2, 1)
    runs = [ActivationSpec("sigma-star", 1), ActivationSpec("crelu", 1)]
    want = np.stack([forward_outputs(spec, graph, act) for act in runs])
    calls = record_layer_runs(monkeypatch)
    got = forward_outputs_each(spec, graph, runs)
    assert got.tobytes() == want.tobytes()
    assert set(got[0]) <= {0.0, 1.0} and 0.3 in got[1]
    assert calls == [("sigma-star", 1, [("crelu", 1)]), ("sigma-star", 1, []), ("crelu", 1, [])]
    with pytest.raises(ValueError, match="must settle"):
        next(backend.layer_states(spec, graph, "crelu", 1, others=[("sigmoid", 1)]))


def test_a_shared_run_on_a_large_graph_codes_no_rows(q2_spec, monkeypatch):
    # a shared run composes depth 1, so on 2^12 vertices and more it neither
    # codes rows nor checks a column for a table, and gives each map's bits
    graph = random_graph(backend._CHUNK + 5, 4.0, 2, 3)
    runs = [ActivationSpec("sigma-star", 1), ActivationSpec("crelu", 1), ActivationSpec("relu", 3)]
    want = np.stack([forward_outputs(q2_spec, graph, act) for act in runs])

    def refuse(*args, **kwargs):
        raise AssertionError("a shared run coded a row")

    monkeypatch.setattr(backend, "_coding", refuse)
    monkeypatch.setattr(backend, "_integer_table", refuse)
    calls = record_layer_runs(monkeypatch)
    assert forward_outputs_each(q2_spec, graph, runs).tobytes() == want.tobytes()
    assert calls[0] == ("sigma-star", 1, [("crelu", 1), ("relu", 3)])


def test_tree_roots_share_the_settling_runs_and_run_the_rest_alone(q2_spec, monkeypatch):
    # a sweep block passes all its runs: sigma-star, crelu and relu share,
    # relu parts at the first internal vertex's k >= 2 blue leaves, and the
    # smooth maps run alone, every root with the bits of its own run
    runs = [ActivationSpec(name, m) for name, m in
            (("sigmoid", 2), ("sigma-star", 1), ("arctan-4pi", 3), ("crelu", 1), ("relu", 1))]
    ks = (1, 2, 5, 9)
    want = np.concatenate([tree_roots(q2_spec, [act], ks, 2) for act in runs], axis=1)
    calls = record_layer_runs(monkeypatch)
    assert tree_roots(q2_spec, runs, ks, 2).tobytes() == want.tobytes()
    assert calls == [
        ("sigma-star", 1, [("crelu", 1), ("relu", 1)]),
        ("sigma-star", 1, [("crelu", 1)]),
        ("sigmoid", 2, []),
        ("arctan-4pi", 3, []),
        ("relu", 1, []),
    ]


def test_live_runs_in_place_and_gathered_give_the_reference_bits(monkeypatch):
    # kept at column 3, hand_built_spec() activates columns {0, 1, 3, 4}
    # after layer 1: on 2**15 + 1 vertices the runs [0, 1] and [3, 4] each
    # hold at least activations._BLOCK elements and are activated where they
    # lie in the state; on 50 vertices they are gathered into one buffer.
    # Under every map, the kept column, and with keep=None (one view of the
    # whole state) every column, has the reference executor's bits; a kept
    # column's are those of the run that keeps every column
    spec = hand_built_spec()
    keep = (spec.output_index,)
    seen = []
    record_kernels(monkeypatch, seen.append)
    for n, seed in ((2**15 + 1, 1), (50, 2)):
        graph = random_graph(n, 2.0, 2, seed)
        views, gather = backend._schedule(spec.layers, keep, n)[0][2]
        long_runs = n * 2 >= activations._BLOCK
        if long_runs:
            assert views == (slice(0, 2), slice(3, 5)) and gather is None
        else:
            assert views == () and gather.tolist() == [0, 1, 3, 4]
        # a settling run activates its rule rows through their index alone
        assert backend._schedule(spec.layers, keep, n, settles=True)[0][2] is None
        init = initial_features(spec, graph)
        for name in ACTIVATION_NAMES:
            for m in (0, 1, 3):
                want = reference_run_forward(init, graph, spec.layers, name, m)
                assert run_forward(spec, graph, name, m).tobytes() == want.tobytes(), (n, name, m)
                seen.clear()
                got = run_forward(spec, graph, name, m, keep)
                assert got[:, 3].tobytes() == want[:, 3].tobytes(), (n, name, m)
                # layer 1's kernel steps, none at m = 0: the kernel gets
                # each activated array one activations._BLOCK at a time, m
                # steps a block.  Layer 1's values are integers, so under a
                # map that takes a table the kernel sees a table first.  A
                # settling run activates layer 1's rule rows 0, 2 and 4
                # alone, gathered into one (3, n) buffer, composed once
                if get_activation(name).idempotent:
                    size, block = 3 * n, activations._BLOCK
                    blocks = [min(block, size - i) for i in range(0, size, block)] if m else []
                    first = seen[:len(blocks)]
                    assert [x.size for x in first] == blocks, (n, name, m)
                    assert not any(np.shares_memory(x, got) for x in first)
                elif uses_tables(name, m, n):
                    assert seen[0].size < backend._CHUNK and not np.shares_memory(seen[0], got), (name, m)
                elif long_runs:
                    blocks = [activations._BLOCK] * m + [2 * n - activations._BLOCK] * m
                    first = seen[:2 * len(blocks)]
                    assert [x.size for x in first] == blocks * 2, (name, m)
                    assert all(np.shares_memory(x, got) for x in first)
                else:
                    first = seen[:m]
                    assert [x.size for x in first] == [4 * n] * m, (name, m)
                    assert not any(np.shares_memory(x, got) for x in first)


SETTLING = [(name, m) for name in ("sigma-star", "crelu", "relu") for m in (0, 1, 3)]
# the other maps at m = 0, the identity: a run under one takes the liveness path
IDENTITY = [(name, 0) for name in ACTIVATION_NAMES if not get_activation(name).idempotent and name != "arctan-4pi"]


def test_settling_maps_are_the_idempotent_ones_and_the_identity():
    # a map settles when its record says idempotent, at every m; at m = 0
    # every other map but arctan-4pi is the identity, bit for bit
    assert {name for name, _ in SETTLING} == {name for name in ACTIVATION_NAMES if get_activation(name).idempotent}
    x = np.array([0.0, -0.0, 1.0, 0.5, -3.0, 1e300, np.inf])
    identity = [name for name in ACTIVATION_NAMES if apply_activation(name, 0, x).tobytes() == x.tobytes()]
    assert identity == [name for name, m in SETTLING + IDENTITY if m == 0]


@pytest.mark.parametrize("name,m", SETTLING + IDENTITY)
def test_settling_runs_activate_each_layers_rule_rows(name, m, q2_spec, monkeypatch):
    # under a map that settles, a layer activates the rows it writes and no
    # other column: every state layer_states yields has the bits of the
    # reference run that activates every column at every layer, keep gives
    # every column those bits too, and the kernel sees k n elements a layer
    # (one gathered or in-place array of a layer's k rule rows on a small
    # graph, composed once), with no live index made.  Under the identity
    # the bits are the same on the liveness path
    graph = random_graph(40, 3.0, 2, 6)
    for spec in (hand_built_spec(), q2_spec, _chain(60)):
        init = initial_features(spec, graph)
        states = [s.T.copy() for s in backend.layer_states(spec, graph, name, m)]
        for t, state in enumerate(states):
            want = reference_run_forward(init, graph, spec.layers[:t], name, m)
            assert state.tobytes() == want.tobytes(), (name, m, t)
        out = spec.output_index
        assert run_forward(spec, graph, name, m, (out,)).tobytes() == states[-1].tobytes()
        if (name, m) in IDENTITY:
            continue

        seen, indexed, live_index = [], [], backend._live_index
        with monkeypatch.context() as patch:
            record_kernels(patch, lambda x: seen.append(x.size))
            patch.setattr(backend, "_live_index", lambda cols, n: indexed.append(tuple(cols)) or live_index(cols, n))
            for keep in (None, (out,)):
                seen.clear()
                indexed.clear()
                run_forward(spec, graph, name, m, keep)
                assert seen == ([len(layer.rows) * graph.n for layer in spec.layers] if m else [])
                assert indexed == []


def test_unit_weights_fold_with_the_products_bits():
    # _combine folds a weight of 1 or -1 as a copy, a negation, an addition
    # or a subtraction, and other weights as products: over +0.0, -0.0 and
    # large values, each weight first and later in a row, in A and B parts,
    # every row has the bytes, signed zeros included, of the fold
    # (c + S_A) + S_B that multiplies every term
    values = [0.0, -0.0, 1e300, -1e300, 1e16, 1.0]
    grid = np.array(list(product(values, repeat=3))).T  # (3, 216)
    cur = np.vstack([grid, grid[::-1, ::-1]])
    values = np.vstack([cur, cur[::-1, ::-1]])  # row p: A column p, or the sum of B position p
    d, n = cur.shape
    layer = GnnLayer(
        (0, 1, 2, 3, 4, 5),
        (-0.0, 0.0, -0.0, 1.0, -0.0, -0.0),
        [
            [(0, 1.0), (1, -1.0), (2, 2.5), (3, -1.0)],          # A only
            [(6, -1.0), (7, 1.0), (8, -1.0)],                    # B only
            [(0, -1.0), (1, 1.0), (7, 2.5), (9, -1.0)],
            [(1, 2.5), (2, 1.0), (3, -1.0), (6, 1.0), (8, 2.5), (9, 1.0)],
            [(4, -1.0)],  # -0.0 + -x: -(+0.0) must be -0.0, not the +0.0 of 0.0 - x
            [(10, -1.0)],
        ],
        d,
    )

    def fold(terms):
        (p, v), *rest = terms
        total = values[p] * v
        for p, v in rest:
            total = total + values[p] * v
        return total

    want = []
    for c, row in zip(layer.c, layer.terms):
        a, b = [t for t in row if t[0] < d], [t for t in row if t[0] >= d]
        z = c + fold(a) if a else c + fold(b)
        want.append(z + fold(b) if a and b else z)
    want = np.array(want)
    got = backend._combine(d, layer.c, layer.terms, cur, values, np.empty((d + 1, n)), (np.empty(n), np.empty(n)))
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))
    zeros = want == 0.0
    assert np.signbit(want[zeros]).any() and not np.signbit(want[zeros]).all()


def test_a_vertex_without_neighbours_sums_a_float_zero():
    # on a graph with no edges np.bincount returns int64 zeros; a neighbour
    # sum is a float64 +0.0 all the same, computed or kept, so a weight of
    # -1 folds it to -0.0, the bits of +0.0 * -1.0, and c = -0.0 keeps it
    graph = LabeledGraph(3, 1, np.ones(3, dtype=np.int64), np.empty((0, 2), dtype=np.int64))
    layer = GnnLayer((1,), (-0.0,), [[(2, -1.0)]], 2)
    spec = GnnSpec(1, (layer,), ActivationSpec("relu", 0), ("1", "0"))
    # the first run computes the layer-1 sum and keeps it, the second reads it
    for run in (lambda: run_forward(spec, graph, "relu", 0), lambda: forward(spec, graph)):
        out = run()
        assert out.tobytes() == np.array([[1.0, -0.0]] * 3).tobytes()
    assert graph._first_sums["1"].dtype == np.float64


def test_layer_errors_identical_runs(q1_spec, triangle):
    assert np.array_equal(layer_errors(q1_spec, triangle), np.zeros(5))


def test_layer_errors_theorem_regime(q1_spec):
    # at the scanned composition depth for degree cap 64, the final deviation
    # stays below 1/(2*(64+2)) on every graph
    approx = q1_spec.with_activation("step-arctan", 14)
    for seed in range(10):
        graph = random_graph(150, 5.0, 1, seed)
        assert graph.max_degree <= 64
        assert layer_errors(approx, graph)[-1] < 1 / 132


def test_layer_errors_small_m_fails_visibly(q1_spec):
    # frozen from a direct run: a single composition leaves deviations around
    # 0.2, an order of magnitude past the usable threshold 1/(2*(41+2))
    tree, _ = make_tree(TreeParams(1, 40, 40))
    eps = layer_errors(q1_spec.with_activation("step-arctan", 1), tree)
    assert 0.19 < eps[-1] < 0.21
    assert eps[-1] > 10 * (1 / (2 * (tree.max_degree + 2)))
    assert eps[0] == 0.0


def test_collar_estimate_counterexample():
    # README "Activations": the scanned depth for step-arctan at max degree 4
    # is m = 1, and at m = 1 this query lands on the wrong side of 1/2 at two
    # vertices of a max-degree-4 graph, since its pre-activations leave the
    # collar the estimate assumes
    assert required_composition_depth(certificate("step-arctan"), 4) == 1
    graph = pinned_graph(40, 2.0, 2, 1)
    assert graph.max_degree == 4
    formula = parse("dia>=2 dia>=2 dia>=2 C1", 2)
    spec = compile_formula(formula, 2, ActivationSpec("step-arctan", 1))
    out = forward_outputs(spec, graph)
    want = eval_oracle_all(formula, graph)
    assert spec.iterations == 3
    assert np.flatnonzero((out > 0.5) != want).tolist() == [15, 27]
    assert round(out[15], 3) == round(out[27], 3) == 0.683
    assert np.round(layer_errors(spec, graph), 3).tolist() == [0.0, 0.295, 0.351, 0.683]
    # one composition more puts every vertex on the oracle's side
    deeper = spec.with_activation("step-arctan", 2)
    assert ((forward_outputs(deeper, graph) > 0.5) == want).all()


def root_margin(q1, spec, roots):
    """Smallest distance of the root outputs from the 1/2 decision line,
    signed so that positives must exceed 1/2 and negatives stay below it."""
    gaps = []
    for tree, root in roots:
        value = forward_outputs(spec, tree)[root]
        gaps.append(value - 0.5 if eval_oracle_all(q1, tree)[root] else 0.5 - value)
    return min(gaps)


def test_margin_exact_run_is_half(q1, q1_spec):
    roots = [make_tree(params) for params in (TreeParams(0, 4, 4), TreeParams(1, 4, 4))]
    assert root_margin(q1, q1_spec, roots) == 0.5


def test_margin_small_m_fails_to_express(q1, q1_spec):
    roots = [make_tree(TreeParams(x, 40, 40)) for x in (0, 1)]
    assert root_margin(q1, q1_spec.with_activation("step-arctan", 2), roots) <= 0.0
    assert root_margin(q1, q1_spec.with_activation("step-arctan", 14), roots) > 0.5 - 1 / 132


def chain_spec(levels):
    """A compiled chain of ``levels`` nested `not`, `dia>=K` and `and` over
    two colors: one layer per level and about one coordinate per level."""
    text = "C1"
    for i in range(levels):
        if i % 3 == 0:
            text = f"not {text}"
        elif i % 3 == 1:
            text = f"dia>={1 + i % 4} {text}"
        else:
            text = f"({text} and C{1 + i % 2})" if i % 2 else f"(C2 and {text})"
    return compile_formula(parse(text, 2), 2)


# sha256 of the layer_errors bytes. Any change to either run or to the
# per-layer reduction that moves one bit of one ε_t changes these.
LAYER_ERRORS_SHA256 = {
    "q1": "80c043497387184ba37cb00a0c53fcf07a85b2f4ba29c4a6bda346b8974ddc9b",
    "chain": "e8fc4fe3e1721b2acc8301bf329bd2dcbcb60eb8f09b95eecea71179a0c1bc20",
}


def test_layer_errors_bits_pinned(q1_spec):
    chain = chain_spec(60)
    cases = {
        "q1": (q1_spec.with_activation("step-arctan", 3), pinned_graph(150, 5.0, 1, 4)),
        "chain": (chain.with_activation("step-arctan", 14), pinned_graph(500, 5.0, 2, 7)),
    }
    got = {}
    for key, (spec, graph) in cases.items():
        eps = layer_errors(spec, graph)
        assert eps.shape == (spec.iterations + 1,)
        got[key] = hashlib.sha256(eps.tobytes()).hexdigest()
    assert got == LAYER_ERRORS_SHA256, f"numpy SIMD level {simd_level()}"


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_layer_errors_memory_stays_per_layer():
    # layer_errors holds two (n, d) runs, whatever the depth
    chain = chain_spec(60)
    approx = chain.with_activation("step-arctan", 14)
    graph = random_graph(500, 5.0, 2, 7)
    one_run = traced_peak(lambda: forward_outputs(approx, graph))
    both = traced_peak(lambda: layer_errors(approx, graph))
    assert both <= 3 * one_run, (both, one_run)


def test_layer_errors_takes_one_difference_buffer():
    # each layer's |approx - exact| goes into one (d, n) buffer made once per
    # call: layer_errors peaks at its two runs stepped side by side plus that
    # buffer, where a fresh difference and its absolute value per layer
    # took 1.87 (d, n) arrays more
    chain = chain_spec(60).with_activation("step-arctan", 3)
    graph = random_graph(2**12, 2.0, 2, 7)

    def two_runs():
        runs = [backend.layer_states(chain, graph, name, m) for name, m in (("step-arctan", 3), ("sigma-star", 1))]
        for _ in zip(*runs):
            pass

    layer_errors(chain, graph)  # the graph keeps its layer-1 sums
    unit = 8 * chain.d * graph.n
    runs = traced_peak(two_runs)
    errors = traced_peak(lambda: layer_errors(chain, graph))
    assert errors <= runs + 1.25 * unit, (errors - runs) / unit


def permute_graph(graph, perm):
    inverse = np.empty(graph.n, dtype=np.int64)
    inverse[perm] = np.arange(graph.n)
    colors = np.empty(graph.n, dtype=np.int64)
    colors[perm] = graph.colors
    edges = perm[graph.edges]
    return LabeledGraph(graph.n, graph.palette, colors, edges)


def test_permutation_equivariance(q2_spec):
    graph = random_graph(60, 5.0, 2, 9)
    rng = np.random.default_rng(1)
    perm = rng.permutation(graph.n)
    permuted = permute_graph(graph, perm)
    base = forward_history(q2_spec, graph)
    moved = forward_history(q2_spec, permuted)
    assert np.array_equal(moved[:, perm, :], base)
    smooth = ActivationSpec("sigmoid", 1)
    base_s = forward_history(q2_spec, graph, smooth)
    moved_s = forward_history(q2_spec, permuted, smooth)
    assert np.allclose(moved_s[:, perm, :], base_s, atol=1e-9)


def path_graph(n, extra_leaf_at=None):
    edges = [(i, i + 1) for i in range(n - 1)]
    total = n
    if extra_leaf_at is not None:
        edges.append((extra_leaf_at, n))
        total = n + 1
    return LabeledGraph(total, 1, np.ones(total, dtype=np.int64), np.array(edges))


def test_locality_embeddings_depend_on_t_hop_ball(q1_spec):
    # grafting a leaf at distance 6 cannot change any embedding of vertex 0
    # within 4 iterations
    plain = path_graph(12)
    grafted = path_graph(12, extra_leaf_at=6)
    for act in (ActivationSpec("sigma-star", 1), ActivationSpec("sigmoid", 1)):
        a = forward_history(q1_spec, plain, act)
        b = forward_history(q1_spec, grafted, act)
        assert np.array_equal(a[:, 0, :], b[:, 0, :])


def test_error_decay_in_composition_depth(q1_spec, capsys):
    # measured, not asserted: the paper's bound decays in m, the observed
    # deviation usually does too, but no theorem forces monotonicity
    tree, _ = make_tree(TreeParams(1, 8, 8))
    errors = [layer_errors(q1_spec.with_activation("step-arctan", m), tree)[-1] for m in range(0, 17)]
    violations = sum(1 for a, b in zip(errors, errors[1:]) if b > a + 1e-12)
    print(f"composition-depth decay: final errors {errors[0]:.3g} -> {errors[-1]:.3g}, "
          f"{violations} non-monotone steps")
    assert errors[-1] < errors[0]


def dense_integer_spec():
    """A hand-built spec whose rows all fire, each with up to 2d nonzero
    integer weights in A and B, summed in term order."""
    rng = np.random.default_rng(2024)
    d = 6

    def layer(a, b, c):
        return GnnLayer(np.arange(d), c, matrix_rows(a, b), d)

    layers = tuple(
        layer(rng.integers(-2, 3, (d, d)), rng.integers(-2, 3, (d, d)), rng.integers(-2, 3, d)) for _ in range(3)
    )
    return GnnSpec(
        output_index=d - 1,
        layers=layers,
        activation=ActivationSpec("sigma-star", 1),
        init_kinds=("C1", "C2", "1", "0", "C1", "0"),
    )


def test_reference_executor_folds_long_rows_in_term_order():
    # dense_integer_spec's rows hold 9-12 terms, and under sigmoid every
    # layer after the first sums non-integers, which round differently in
    # any other order: a full-width einsum missed 29 entries of layer 2 and
    # 39 of layer 3 here
    spec = dense_integer_spec()
    quotient, _ = tree_quotient([TreeParams(x, k, k) for k in (1, 2, 64) for x in (0, 1)], "leaves-blue")
    init = initial_features(spec, quotient)
    history = forward_history(spec, quotient, ActivationSpec("sigmoid", 1))
    for t in range(spec.iterations + 1):
        want = reference_run_forward(init, quotient, spec.layers[:t], "sigmoid", 1)
        assert history[t].tobytes() == want.tobytes(), t


# First 16 hex digits of sha256(forward_history(spec, graph, act).tobytes()),
# per activation at m = 1 and m = 3. Any change to the forward pass that
# moves one bit of any layer's embeddings changes these. The smooth maps'
# values come from numpy's float64 ufuncs, so the digests hold for a given
# numpy build and CPU family. The dense spec's rows hold up to six terms in A
# and in B; its smooth-map digests were recorded when every row came to be
# summed in the term order the backend docstring states (test
# ``test_rows_of_three_or_more_terms_fold_in_term_order``), and its exact
# maps' digests did not move.  q2's digests were recorded when the compiler
# came to emit one layer per level of the dependency height: its spec lost
# three empty trailing layers, so under the exact maps its history is the
# first five states of the earlier eight.
HISTORY_SHA256 = {
    ("q1", "random"): {
        "sigma-star": ("e73f1cd2f4a24eb2", "e73f1cd2f4a24eb2"),
        "crelu": ("e73f1cd2f4a24eb2", "e73f1cd2f4a24eb2"),
        "relu": ("66715bb009853c7b", "66715bb009853c7b"),
        "sigmoid": ("3e4ee8e681c0ac81", "0d16715094e36fe8"),
        "tanh": ("ef434d8ccbd092b1", "77eac822620d97eb"),
        "step-arctan": ("c465ee56b6844488", "463a0f7dabe063f0"),
        "step-tanh": ("1c5c14c7fd338fd9", "272d7234cdefbcf4"),
        "steplike-tanh-eta0": ("becd9a26f869fe1d", "47ded8de0fabe66c"),
        "steplike-sigmoid-eta0": ("b988a070328d8503", "f39de799b9f905b7"),
        "arctan-4pi": ("398ca2d1e90723c8", "fc68c500c7d3a38d"),
    },
    ("q1", "edgeless"): {
        "sigma-star": ("ffc27c2eb3288396", "ffc27c2eb3288396"),
        "crelu": ("ffc27c2eb3288396", "ffc27c2eb3288396"),
        "relu": ("ffc27c2eb3288396", "ffc27c2eb3288396"),
        "sigmoid": ("df4fda209d6c083b", "ed95a9ff6c48a928"),
        "tanh": ("3067e6c825e19dfc", "256e3b01bf12b418"),
        "step-arctan": ("6da0eddc3586c3cf", "d31fa6372167efb9"),
        "step-tanh": ("fdfe4c3885e41f63", "4acfd811f273d248"),
        "steplike-tanh-eta0": ("0b0b0cc990c0ece1", "4e4576ad8feecfdf"),
        "steplike-sigmoid-eta0": ("3a536a748de12208", "149d3be2727ad51d"),
        "arctan-4pi": ("a3e220810d2885b3", "d6c19b7499e7a038"),
    },
    ("q2", "random"): {
        "sigma-star": ("6ac42b8597f8a754", "6ac42b8597f8a754"),
        "crelu": ("6ac42b8597f8a754", "6ac42b8597f8a754"),
        "relu": ("bd904d6f302ca3da", "bd904d6f302ca3da"),
        "sigmoid": ("fa1bb029d9a05a78", "60c1542930cde18a"),
        "tanh": ("0c80630206b39f6d", "689a102dc3feb535"),
        "step-arctan": ("56b466ed8d7490ae", "d0ecb560c2f247bb"),
        "step-tanh": ("21f91a40957ffd59", "17f46a97095ce7b8"),
        "steplike-tanh-eta0": ("296ad9321b10b365", "90020eff0828c239"),
        "steplike-sigmoid-eta0": ("545889e395c20f4a", "928fed3584d4be0f"),
        "arctan-4pi": ("5d04cca3f4a9f5f0", "142d1ebfb67f35f7"),
    },
    ("q2", "edgeless"): {
        "sigma-star": ("c0649915931a78a7", "c0649915931a78a7"),
        "crelu": ("c0649915931a78a7", "c0649915931a78a7"),
        "relu": ("c0649915931a78a7", "c0649915931a78a7"),
        "sigmoid": ("f9d93570663638ac", "f4da06dfcf9be5f5"),
        "tanh": ("9b6d6a69489a5f73", "daeea3e8c406d946"),
        "step-arctan": ("3be712074c937318", "aba6578126a12840"),
        "step-tanh": ("b9b7e383c264977c", "a2a95d66b6eb9b01"),
        "steplike-tanh-eta0": ("891af42770a7972f", "eb8868e459c47f7f"),
        "steplike-sigmoid-eta0": ("c8967499646b60b8", "f2cd27e0903b7e2a"),
        "arctan-4pi": ("f85b820f66dc0bf1", "e6d18f73ba21af3f"),
    },
    ("compact", "random"): {
        "sigma-star": ("fac87d44b6b70503", "fac87d44b6b70503"),
        "crelu": ("fac87d44b6b70503", "fac87d44b6b70503"),
        "relu": ("5c14c6586b8d2fdc", "5c14c6586b8d2fdc"),
        "sigmoid": ("fcba033b71cad45b", "2f3b6ee716f9cc83"),
        "tanh": ("aca5e7ec915319e3", "c14c52cfe9340bad"),
        "step-arctan": ("4cab2ed8037f4ef3", "8c3b2b5db04020ef"),
        "step-tanh": ("c493caad9b125330", "441204147f7448cc"),
        "steplike-tanh-eta0": ("126690959b513f2a", "735e705012430271"),
        "steplike-sigmoid-eta0": ("d5f2bfa7e71c3494", "2849f203aa328023"),
        "arctan-4pi": ("f27f3a328088c46d", "4f84aa8bd05cf6a7"),
    },
    ("compact", "edgeless"): {
        "sigma-star": ("f6240af1e2863aa8", "f6240af1e2863aa8"),
        "crelu": ("f6240af1e2863aa8", "f6240af1e2863aa8"),
        "relu": ("f6240af1e2863aa8", "f6240af1e2863aa8"),
        "sigmoid": ("493cbb6e9b9f337a", "5f5cb628a6ae8928"),
        "tanh": ("9707f3595a95c737", "793a4a5f1a543560"),
        "step-arctan": ("fa65f7c11cfe561b", "a0d153162fb36778"),
        "step-tanh": ("d7cce9f4727fc228", "34059f33f2bba464"),
        "steplike-tanh-eta0": ("ea17f8ea7254f63f", "0dfc0a0549d201c4"),
        "steplike-sigmoid-eta0": ("af991c2580504275", "b789741533881a55"),
        "arctan-4pi": ("1e070a3ee353dc9e", "ef742d025d2a9082"),
    },
    ("dense", "random"): {
        "sigma-star": ("b4dfff16b2bdcb41", "b4dfff16b2bdcb41"),
        "crelu": ("b4dfff16b2bdcb41", "b4dfff16b2bdcb41"),
        "relu": ("d3c0d09309b99f8e", "d3c0d09309b99f8e"),
        "sigmoid": ("ca8414597aa693c3", "465e8997fc5a4d12"),
        "tanh": ("7e1ffe5bcca88c2f", "95db97ec70383c87"),
        "step-arctan": ("a63a07212fc24cfe", "a815f874165f30eb"),
        "step-tanh": ("ae56bb1143ce14db", "b262389f1974ebd8"),
        "steplike-tanh-eta0": ("e8cc29e68a77d120", "6ef22947fa6b1620"),
        "steplike-sigmoid-eta0": ("65ede502833b8d22", "86b945d2f0da2d47"),
        "arctan-4pi": ("eddd39e19a5f0b61", "2e4c799a2e992bf6"),
    },
    ("dense", "edgeless"): {
        "sigma-star": ("5e1302db03738781", "5e1302db03738781"),
        "crelu": ("5e1302db03738781", "5e1302db03738781"),
        "relu": ("ac1c9dcb4a7b2f16", "ac1c9dcb4a7b2f16"),
        "sigmoid": ("08b48c367afb4252", "ed97a8e2fc66b453"),
        "tanh": ("0d4dd6674506a5a1", "434992777f82af00"),
        "step-arctan": ("36296b9777b200aa", "3f61d0ef4fcea7b1"),
        "step-tanh": ("9cb837c6bb1a3526", "d11ec9acd1d32e07"),
        "steplike-tanh-eta0": ("6463ca72b9a264ed", "756ef08dc33a8eb1"),
        "steplike-sigmoid-eta0": ("79c24f1ce3d0782c", "cd60b8f589f7d0f7"),
        "arctan-4pi": ("ceb0d637f6d41d46", "f1dbeb637239f0d6"),
    },
}


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
def test_history_bits_pinned(name, q1_spec, q2_spec):
    from test_compiler import compact_q1_net

    specs = {"q1": q1_spec, "q2": q2_spec, "compact": compact_q1_net(), "dense": dense_integer_spec()}
    graphs = {
        "random": pinned_graph(60, 4.0, 2, 11),
        "edgeless": LabeledGraph(7, 2, np.array([1, 2, 1, 2, 2, 1, 1]), np.empty((0, 2), dtype=np.int64)),
    }
    got, want = {}, {}
    for (spec_key, graph_key), table in HISTORY_SHA256.items():
        spec, graph = specs[spec_key], graphs[graph_key]
        for m, digest in zip((1, 3), table[name]):
            act = ActivationSpec(name, m)
            history = forward_history(spec, graph, act)
            key = (spec_key, graph_key, m)
            got[key] = hashlib.sha256(history.tobytes()).hexdigest()[:16]
            want[key] = digest
            assert forward(spec, graph, act).tobytes() == history[-1].tobytes(), key
            out = forward_outputs(spec, graph, act)
            assert out.tobytes() == history[-1][:, spec.output_index].tobytes(), key
    assert got == want, f"numpy SIMD level {simd_level()}"


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
def test_batched_forward_bits_match_per_graph(name, q1_spec, q2_spec):
    # A disjoint union runs each graph's vertices through the same sums in
    # the same order, so its history sliced by offsets equals the per-graph
    # histories bit for bit, at any position in the batch.
    rng = np.random.default_rng(5)
    wide = compile_formula(random_formula(rng, 2, max_depth=6), 2)
    graphs = [
        random_graph(45, 4.0, 2, 3),
        LabeledGraph(7, 2, np.array([1, 2, 1, 2, 2, 1, 1]), np.empty((0, 2), dtype=np.int64)),
        LabeledGraph(1, 2, np.array([2]), np.empty((0, 2), dtype=np.int64)),
        make_tree(TreeParams(1, 6, 6), "leaves-blue")[0],
        random_graph(130, 9.0, 2, 4),
    ]
    union, offsets = batch_graphs(graphs)
    for spec in (q1_spec, q2_spec, wide):
        for m in (1, 3):
            act = ActivationSpec(name, m)
            batched = forward_history(spec, union, act)
            for graph, lo, hi in zip(graphs, offsets[:-1], offsets[1:]):
                alone = forward_history(spec, graph, act)
                assert batched[:, lo:hi].tobytes() == alone.tobytes(), (spec.d, m, graph.n)


# The sweep's k values that the quotient is checked at, vertex by vertex.
QUOTIENT_KS = (*range(1, 65), 128)


@pytest.mark.parametrize("query, palette", [("q1", 1), ("q2", 2)])
def test_tree_quotient_bits_match_the_explicit_pair(query, palette, q1_spec, q2_spec):
    # Every vertex of every sweep tree ends with its class's (d,) state bit
    # for bit, under every map: q2's root gap is 0 at every k, so its CSV
    # rows cannot show a wrong class.
    spec = {"q1": q1_spec, "q2": q2_spec}[query]
    coloring = "unicolor" if palette == 1 else "leaves-blue"
    params = [TreeParams(x, k, k) for k in QUOTIENT_KS for x in (0, 1)]
    union, offsets = batch_graphs([make_tree(p, coloring)[0] for p in params])
    quotient, roots = tree_quotient(params, coloring)
    classes = np.concatenate([tree_classes(p) + 5 * i for i, p in enumerate(params)])
    assert classes.size == union.n and np.array_equal(roots, classes[offsets[:-1]])  # make_tree's root is 0
    for name in ACTIVATION_NAMES:
        for m in (1, 3):
            act = ActivationSpec(name, m)
            explicit = forward(spec, union, act)
            assert explicit.tobytes() == forward(spec, quotient, act)[classes].tobytes(), (name, m)


@pytest.mark.parametrize("query, palette", [("q1", 1), ("q2", 2)])
def test_block_quotient_bits_match_each_pairs_own_quotient(query, palette, q1_spec, q2_spec):
    # A sweep block runs many pairs on one quotient.  Behind 0..7 leading
    # trees, each pair tree's root class 5i falls at every offset mod 8 (a
    # lane position of an 8-wide vector loop), and each tree's five class
    # states must still be those of its own pair's quotient bit for bit.
    spec = {"q1": q1_spec, "q2": q2_spec}[query]
    coloring = "unicolor" if palette == 1 else "leaves-blue"
    ks = (1, 2, 3, 7, 64, 1000)
    pairs = [tree_quotient([TreeParams(x, k, k) for x in (0, 1)], coloring)[0] for k in ks]
    trees = [TreeParams(x, k, k) for k in ks for x in (0, 1)]
    blocks = [tree_quotient([TreeParams(1, 2, 2)] * lead + trees, coloring) for lead in range(8)]
    offsets = np.array([roots[lead:] % 8 for lead, (_, roots) in enumerate(blocks)])
    assert all(set(column) == set(range(8)) for column in offsets.T)
    for name in ACTIVATION_NAMES:
        for m in (1, 3):
            act = ActivationSpec(name, m)
            own = np.concatenate([forward(spec, pair, act) for pair in pairs])
            for lead, (block, _) in enumerate(blocks):
                got = forward(spec, block, act)[5 * lead:]
                assert got.tobytes() == own.tobytes(), (name, m, lead)


def test_sweep_n_and_delta_are_the_explicit_pairs():
    rows = run_separation("q1", "sigmoid", (1,), QUOTIENT_KS)
    for k in QUOTIENT_KS:
        (t0, _), (t1, _) = (make_tree(TreeParams(x, k, k)) for x in (0, 1))
        delta = batch_graphs([t0, t1])[0].max_degree
        assert {(r.n, r.delta) for r in rows if r.k == k} == {(t1.n, delta)}, k


def test_batched_oracle_matches_per_graph(q2):
    graphs = [random_graph(n, 3.0, 2, n) for n in (1, 30, 90)] + [make_tree(TreeParams(1, 3, 3), "leaves-blue")[0]]
    union, offsets = batch_graphs(graphs)
    whole = eval_oracle_all(q2, union)
    for graph, lo, hi in zip(graphs, offsets[:-1], offsets[1:]):
        assert np.array_equal(whole[lo:hi], eval_oracle_all(q2, graph))


def sparse_random_graph(n, edges, palette, seed):
    """A seeded graph from ``edges`` uniform vertex pairs, self-loops dropped.
    The digests taken on it depend on this function alone, not on the
    sampler behind ``random_graph``."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(edges, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return LabeledGraph(n, palette, rng.integers(1, palette + 1, n), pairs)


# sha256 of forward_outputs for q2 under step-arctan m = 14 on a graph whose
# (n, d) features span more than two 2**16-element composition blocks.
MULTI_BLOCK_FORWARD_SHA256 = "b40882e308b189aa1f5d46787a9344410e4a237a5f7e6149ab20f0cc566bceac"


def test_multi_block_forward_bits_pinned(q2_spec):
    graph = sparse_random_graph(20_000, 50_000, 2, 17)
    assert graph.n * q2_spec.d > 2 * 2**16
    out = forward_outputs(q2_spec, graph, ActivationSpec("step-arctan", 14))
    assert hashlib.sha256(out.tobytes()).hexdigest() == MULTI_BLOCK_FORWARD_SHA256, f"numpy SIMD level {simd_level()}"


def test_integer_blocks_take_a_table_with_the_reference_bits(monkeypatch):
    # n = 1.25 activations._BLOCK, and the state rows are C1, C2, the
    # `dia>=2 C1` row (pre-activations -1..Δ-1), the `dia>=K C2` row with
    # K = Δ + 2 (every pre-activation negative) and the output, which reads
    # the two through A terms alone.  Under every map, every state has the
    # reference's bits, and so does the output of a run that keeps only it.
    # Under a map that codes rows, every column after layer 1 holds
    # integers and goes through backend's row table, the negative row
    # included, and the output row through the product table of rows 2 and
    # 3.  Layer 1 keys C1 and C2 for layer 2, which carries them, so under
    # a map that moves 0 or 1 they take from their tables again there: the
    # kernel sees tables alone.  A hand-built row of n values, keyed as the loop keys a
    # state row, has the bits of the kernel: 0, 1 and 2, a three-entry
    # table, and 1e300 alone, a one-entry table; with a -0.0 in its fourth
    # chunk (lo + i would give it +0.0's bits) it is refused
    block, chunk = activations._BLOCK, backend._CHUNK
    n = block + block // 4
    graph = sparse_random_graph(n, block, 2, 3)
    delta = graph.max_degree
    spec = compile_formula(parse(f"(dia>=2 C1 and dia>={delta + 2} C2)", 2), 2)
    assert spec.init_kinds == ("C1", "C2", "0", "0", "0") and spec.output_index == 4
    init = initial_features(spec, graph)
    outcomes, integer_table, sizes = [], backend._integer_table, []

    def recorded(values, *args):
        table = integer_table(values, *args)
        outcomes.append("kernel" if table is None else "negative" if table[-1] < 0 else "table")
        return table

    monkeypatch.setattr(backend, "_integer_table", recorded)
    record_kernels(monkeypatch, lambda x: sizes.append(x.size))
    for name in ACTIVATION_NAMES:
        for m in (0, 1, 3):
            takes = uses_tables(name, m, n)
            outcomes.clear()
            sizes.clear()
            states = [state.copy() for state in backend.layer_states(spec, graph, name, m)]
            assert outcomes[:5] == (["table", "table", "table", "negative", "table"] if takes else []), (name, m)
            assert set(outcomes[5:]) <= {"table", "kernel"}
            whole = sum(size for size in sizes if size >= chunk)
            assert whole <= 2 * m * n if takes else min(sizes, default=chunk) >= chunk, (name, m)
            for t, state in enumerate(states):
                want = reference_run_forward(init, graph, spec.layers[:t], name, m) if t else init
                assert state.T.tobytes() == want.tobytes(), (name, m, t)
            got = run_forward(spec, graph, name, m, keep=(4,))
            assert got[:, 4].tobytes() == want[:, 4].tobytes(), (name, m)

    buffers = np.empty(chunk, dtype=np.int64), np.empty(chunk)
    rows = np.resize([0.0, 1.0, 2.0], n), np.full(n, 1e300)
    for row, lo in zip(rows, (0.0, 1e300)):
        inputs = backend._integer_table(row, buffers)
        assert inputs.tolist() == sorted(set(row.tolist())) and inputs[0] == lo
        for name in ACTIVATION_NAMES:
            for m in (3, 14):
                table, got = inputs.copy(), row.copy()
                with np.errstate(over="ignore"):
                    activations._in_place(name, m)(table)
                    kernel = apply_activation(name, m, row)
                backend._take(table, [(got, inputs[0], len(table))], got, buffers)
                assert got.tobytes() == kernel.tobytes(), (name, m, f"numpy SIMD level {simd_level()}")
    signed = rows[0].copy()
    signed[3 * chunk + 7] = -0.0
    assert backend._integer_table(signed, buffers) is None


def coded_and_kernel_only(spec, graph, name, m, monkeypatch):
    """Every ``keep=None`` state and the kept output of ``spec`` on
    ``graph``, or the ValueError's words, from a run that codes rows as the
    table rule says and from one with ``backend._TABLE_DEPTH`` above m,
    whose kernel sees every element."""
    def run():
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                states = [state.tobytes() for state in backend.layer_states(spec, graph, name, m)]
                kept = run_forward(spec, graph, name, m, (spec.output_index,))[:, spec.output_index]
            return states + [kept.tobytes()]
        except ValueError as error:
            return str(error)

    coded = run()
    with monkeypatch.context() as kernel_only:
        kernel_only.setattr(backend, "_TABLE_DEPTH", m + 1)
        return coded, run()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_coded_runs_keep_every_bit(seed):
    # on 4096-9000 vertices at m >= 3 every map but the three that settle
    # codes rows; under each map at an m of 3-15, every state and the kept
    # output of a formula of depth 2-7 (palette 1-3, thresholds 1-4) have
    # the bits of the run whose kernel sees every element
    rng = np.random.default_rng(seed)
    palette, depth = int(rng.integers(1, 4)), int(rng.integers(2, 8))
    while (spec := compile_formula(random_formula(rng, palette, depth, int(rng.integers(1, 5))), palette)).iterations < depth - 1:
        pass  # a draw stops early at each level: redraw the shallow ones
    graph = random_graph(int(rng.integers(4096, 9001)), float(rng.uniform(2.0, 6.0)), palette, seed)
    for name, m in zip(ACTIVATION_NAMES, rng.integers(3, 16, len(ACTIVATION_NAMES)).tolist()):
        with pytest.MonkeyPatch.context() as monkeypatch:
            coded, kernel_only = coded_and_kernel_only(spec, graph, name, m, monkeypatch)
        assert coded == kernel_only, (seed, name, m)


def test_rows_the_table_refuses_take_the_ordinary_path(monkeypatch):
    # hand-built rows over C1, C2 and a ones column on 4096 vertices, each
    # refused by the table rule: layer 1 writes -x0 + -0.0, which holds
    # -0.0 (lo + i would give it +0.0's bits), and 5000 times C1's
    # neighbour sum, whose range is 5000 Δ; layer 2 copies the colors, and
    # layer 3 adds 1e308 times each of them, whose product table holds
    # 2e308 where a vertex would hold both colors, an infinity no vertex
    # reaches, or adds 1e308 times C1 and the ones column, which a vertex of
    # color 1 reaches, and raises in the layer's combine, before any product
    # table is built.  Each row takes the ordinary path, with the
    # kernel-only run's bits or its ValueError
    graph = random_graph(backend._CHUNK, 5.0, 2, 41)
    d = 7
    refused, integer_table, product = [], backend._integer_table, backend._product

    def recorded_table(*args):
        table = integer_table(*args)
        if table is None:
            refused.append("key")
        return table

    def recorded_product(*args):
        table = product(*args)
        if table is not None and not np.isfinite(table).all():
            refused.append("inf")
        return table

    monkeypatch.setattr(backend, "_integer_table", recorded_table)
    monkeypatch.setattr(backend, "_product", recorded_product)
    first = GnnLayer((3, 4), (-0.0, 0.0), [[(0, -1.0)], [(d + 0, 5000.0)]], d)
    copy = GnnLayer((5, 6), (0.0, 0.0), [[(0, 1.0)], [(1, 1.0)]], d)
    for pair, error in (((5, 6), None), ((2, 5), "layer 3 has a pre-activation that is not finite")):
        last = GnnLayer((3,), (0.0,), [[(pair[0], 1e308), (pair[1], 1e308)]], d)
        spec = GnnSpec(3, (first, copy, last), ActivationSpec("step-arctan", 3), ("C1", "C2", "1", "0", "0", "0", "0"))
        for name in ("step-arctan", "tanh", "arctan-4pi"):
            refused.clear()
            coded, kernel_only = coded_and_kernel_only(spec, graph, name, 3, monkeypatch)
            assert coded == kernel_only, (name, pair)
            if name == "step-arctan":  # it fixes 0 and 1, so the copies are 0/1 columns
                assert coded == error or error is None and isinstance(coded, list), pair
                assert refused[:2] == ["key", "key"] and ("inf" in refused) == (error is None), pair


def test_a_coded_runs_kernel_columns_keep_their_order():
    # kept at columns 0, 2, 3 and 5 of six on 2**15 vertices, the live set
    # after the last layer is the in-place run [2, 3] and the gathered
    # columns 0 and 5; their values, neighbour sums of activated tables,
    # are not integers, so each goes to the kernel, and every kept column
    # has the bits of the run that keeps every column (handed over in
    # schedule order, [2, 3, 0, 5] read as the contiguous run 2..5)
    d = 6
    first = GnnLayer(tuple(range(d)), (0.0,) * d, [[(d, 1.0)]] * d, d)
    second = GnnLayer(tuple(range(d)), (0.0,) * d, [[(d + j, 1.0)] for j in range(d)], d)
    spec = GnnSpec(5, (first, second), ActivationSpec("step-arctan", 3), ("C1", "C2", "1", "0", "0", "0"))
    graph, keep = random_graph(2**15, 3.0, 2, 5), (0, 2, 3, 5)
    assert uses_tables("step-arctan", 3, graph.n)
    views, gather = backend._schedule(spec.layers, keep, graph.n)[1][2]
    assert views == (slice(2, 4),) and gather.tolist() == [0, 5]
    got, every = run_forward(spec, graph, "step-arctan", 3, keep), run_forward(spec, graph, "step-arctan", 3)
    assert [got[:, j].tobytes() == every[:, j].tobytes() for j in keep] == [True] * 4


@pytest.fixture(scope="module")
def large_graph():
    """2^17 vertices of average degree 5: each state row is two
    activations._BLOCKs."""
    graph = sparse_random_graph(2**17, 5 * 2**16, 2, 23)
    graph.edge_src  # the adjacency is the graph's, built before any trace
    return graph


def test_maps_that_keep_integers_never_look_up(q2_spec, large_graph, monkeypatch):
    # sigma-star, crelu and relu compose once at every m, so they run the
    # kernel on every array and code no row, on a graph where every state
    # row holds two activations._BLOCKs; so does every map below depth 3,
    # where a lookup costs about as much as the kernel or more
    def refuse(*args):
        raise AssertionError("a map that keeps integers, or a shallow one, coded a row")

    n = large_graph.n
    assert backend._TABLE_DEPTH == 3 and n >= backend._CHUNK
    assert [name for name in ACTIVATION_NAMES if not uses_tables(name, 3, n)] == ["sigma-star", "crelu", "relu"]
    assert not any(uses_tables(name, m, n) for name in ACTIVATION_NAMES for m in (0, 1, 2))
    monkeypatch.setattr(backend, "_coding", refuse)
    for name, m in (("sigma-star", 3), ("crelu", 3), ("relu", 3), ("sigmoid", 1), ("step-arctan", 2)):
        forward(q2_spec, large_graph, ActivationSpec(name, m))
        forward_outputs(q2_spec, large_graph, ActivationSpec(name, m))


def test_step_arctan_kernel_sees_tables_for_integer_columns(q1_spec, q2_spec, large_graph, monkeypatch):
    # forward_outputs activates 8 (column, layer) pairs of q2: after layer 1
    # C1 and the two `dia>=1` rows, then C1 and row 4, C1 and row 5, and
    # row 6.  C1 and the two `dia>=1` rows hold integers (C1 stays 0/1:
    # step-arctan fixes 0 and 1 bit for bit) and go through their tables,
    # and row 4, which reads rows 2 and 3 through A terms alone, through
    # the product of their tables; the kernel sees only tables for them,
    # each of fewer than backend._CHUNK entries, and rows 5 and 6 n elements
    # a step.  q1 activates its rows 1-4 one a layer: row 1 (deg - 1)
    # through its table, row 2 (1 - x1) through the product table of row 1,
    # and rows 3 and 4 n elements a step
    kernel, sizes, m = activations._REGISTRY["step-arctan"], [], 3

    def recorded(x):
        sizes.append(x.size)
        kernel.fn(x)

    monkeypatch.setitem(activations._REGISTRY, "step-arctan", replace(kernel, fn=recorded))
    for spec in (q1_spec, q2_spec):
        sizes.clear()
        forward_outputs(spec, large_graph, ActivationSpec("step-arctan", m))
        tables = [size for size in sizes if size < backend._CHUNK]
        assert tables and max(tables) <= (large_graph.max_degree + 1) ** 2
        assert sum(sizes) - sum(tables) == m * 2 * large_graph.n


def test_step_arctan_kernel_work_per_layer_with_every_column_activated(q1_spec, q2_spec, large_graph, monkeypatch):
    # with keep=None every column is activated at every layer.  A column
    # that the next layer carries keeps its key, so it activates through its
    # table again: the kernel sees whole rows only for the row that sums
    # activated values at layer 3, q1's row 3 and q2's row 5, and at layer
    # 4 for that row, carried, and the output, which reads it: m n elements
    # at layer 3 and 2 m n at layer 4 for either query
    kernel, sizes, m, n = activations._REGISTRY["step-arctan"], [], 3, large_graph.n

    def recorded(x):
        sizes.append(x.size)
        kernel.fn(x)

    monkeypatch.setitem(activations._REGISTRY, "step-arctan", replace(kernel, fn=recorded))
    for spec in (q1_spec, q2_spec):
        per_layer = []
        for _ in backend.layer_states(spec, large_graph, "step-arctan", m):
            per_layer.append(sum(size for size in sizes if size >= backend._CHUNK))
            sizes.clear()
        assert per_layer[1:] == [0, 0, m * n, 2 * m * n], [size / (m * n) for size in per_layer]


def test_a_carried_column_takes_from_its_table(large_graph, monkeypatch):
    # kept at its output, ((dia>=1 C2) and dia>=1 dia>=1 C1) writes rows 2
    # and 3 at layer 1, row 4 (the sum of row 3) at layer 2 and the output,
    # x2 + x4 - 1, at layer 3.  Layer 2 carries row 2, an integer column,
    # for layer 3 to read: it activates through its table by the key layer
    # 1 made, so the kernel sees whole rows only for row 4 at layer 2 and
    # row 5 at layer 3, 2 m n elements, and the output has the bits of the
    # run whose kernel sees every element
    spec = compile_formula(parse("((dia>=1 C2) and dia>=1 dia>=1 C1)", 2), 2)
    assert [layer.rows for layer in spec.layers] == [(2, 3), (4,), (5,)] and spec.output_index == 5
    kernel, sizes, m, n = activations._REGISTRY["step-arctan"], [], 3, large_graph.n

    def recorded(x):
        sizes.append(x.size)
        kernel.fn(x)

    monkeypatch.setitem(activations._REGISTRY, "step-arctan", replace(kernel, fn=recorded))
    got = forward_outputs(spec, large_graph, ActivationSpec("step-arctan", m))
    assert sum(size for size in sizes if size >= backend._CHUNK) == 2 * m * n
    monkeypatch.setattr(backend, "_TABLE_DEPTH", m + 1)
    assert got.tobytes() == forward_outputs(spec, large_graph, ActivationSpec("step-arctan", m)).tobytes()


def test_lookup_buffers_stay_small(q2_spec, large_graph):
    # a coding run's index and round-trip buffers hold 2^12 elements each,
    # its tables a few, and its keys one byte a vertex, each for one layer
    # and only for a column that the next layer carries or reads through a
    # row of A terms alone, and none for C1, which is settled at lo + key:
    # the step-arctan peak stays within 100 KB of the sigma-star one, which
    # codes no row
    peaks = {
        name: traced_peak(lambda: forward_outputs(q2_spec, large_graph, ActivationSpec(name, m)))
        for name, m in (("sigma-star", 1), ("step-arctan", 14))
    }
    assert peaks["step-arctan"] <= peaks["sigma-star"] + 100 * 1024, peaks


def test_forward_memory_is_linear(q2_spec):
    # the (d, n) state, built in place from the initial kinds, the
    # neighbour-sum rows and one gather over the edges: the peak is 2.02
    # units of (n d + E) float64s, the graph's two kept layer-1 rows
    # included.  It was 3.28 at the commit before the column-major state,
    # 3.49 with a (d, n) array of sums and 2.75 with an (n, d) array of
    # initial features copied into the state, so one more (d, n) array
    # (0.74 units here) or any per-layer history fails
    graph = sparse_random_graph(200_000, 500_000, 2, 3)
    graph.edge_src  # the adjacency is the graph's, built before the trace
    unit = 8 * (graph.n * q2_spec.d + len(graph.edges))
    peak = traced_peak(lambda: forward_outputs(q2_spec, graph))
    assert peak <= 2.25 * unit, peak / unit


@pytest.mark.parametrize("name,m", [("crelu", 1), ("step-arctan", 14)])
def test_a_deep_chains_peak_follows_its_state(name, m):
    # a layer holds its own neighbour sums and frees them when the next
    # starts: a warm forward of a 200-level chain peaks at 1.04-1.07 units
    # of (d n + E) float64s, where sums kept to the end of the run took
    # 1.36-1.39
    spec, act = chain_spec(200), ActivationSpec(name, m)
    graph = random_graph(2**12, 5.0, 2, 7)
    forward_outputs(spec, graph, act)  # the graph keeps its adjacency and layer-1 sums
    unit = 8 * (spec.d * graph.n + len(graph.edges))
    peak = traced_peak(lambda: forward_outputs(spec, graph, act))
    assert peak <= 1.15 * unit, peak / unit


class _KeepsNothing(dict):
    """A graph's ``_first_sums`` that stores no row: layer 1 finds no kind
    and computes each sum it reads."""

    def __setitem__(self, kind, row):
        pass


def keeping_nothing(graph):
    """A copy of ``graph`` on which every run computes every neighbour sum.
    (The reference executor cannot stand in: its einsum folds a row of more
    than two terms in another order.)"""
    graph = replace(graph)
    graph.__dict__["_first_sums"] = _KeepsNothing()
    return graph


# Every map at m = 0, 1 and 3, and step-arctan at its certified depth.
CACHED_SUM_RUNS = [(name, m) for name in ACTIVATION_NAMES for m in (0, 1, 3)] + [("step-arctan", 14)]


@pytest.fixture(scope="module")
def cached_sum_graphs():
    """2^16 vertices, so each state row is an activations._BLOCK and the
    table path runs, and the quotient of six leaves-blue tree pairs."""
    quotient, _ = tree_quotient([TreeParams(x, k, k) for k in (1, 2, 64) for x in (0, 1)], "leaves-blue")
    return {"large": sparse_random_graph(2**16, 2**16, 2, 29), "quotient": quotient}


@pytest.mark.parametrize(
    "graph_key, query",
    [("large", "q1"), ("large", "q2"), ("large", "chain"), ("quotient", "q1"), ("quotient", "q2"), ("quotient", "chain"), ("quotient", "dense")],
)
def test_kept_first_sums_give_every_bit_cold_and_warm(graph_key, query, q1_spec, q2_spec, cached_sum_graphs):
    # Each call of each map runs on a new graph object equal to the
    # fixture's, with none of its layer-1 sums kept, which it fills, and on
    # one shared graph object, which every earlier call and map has run on
    # and which reads them.  Both have the bits of a run on a graph that
    # keeps no sum, so it computes every sum, two of one kind included.  The
    # dense spec sums every column at every layer, two columns of a kind
    # among them, so a sum after layer 1 served by kind shows on the quotient.
    spec = {"q1": q1_spec, "q2": q2_spec, "chain": _chain(60), "dense": dense_integer_spec()}[query]
    graph = cached_sum_graphs[graph_key]
    kinds = {spec.init_kinds[p - spec.d] for p in sum_positions(spec.layers[0])}
    assert kinds
    calls = {
        "outputs": lambda g, act: forward_outputs(spec, g, act),
        "forward": lambda g, act: forward(spec, g, act),
        "errors": lambda g, act: layer_errors(spec.with_activation(act.name, act.m), g),
    }
    runs = CACHED_SUM_RUNS
    if graph_key == "large":  # the maps that take a table, the path the graph is there for
        runs = [(name, m) for name, m in runs if uses_tables(name, m, graph.n)]
    if query == "chain" and graph_key == "large":
        # 60 layers of 2^16 vertices: a chain forward of every column takes
        # seconds, so the kept output under the certified step-arctan only
        del calls["forward"], calls["errors"]
        runs = [("step-arctan", 14)]
    keep = None if "forward" in calls else (spec.output_index,)
    shared = replace(graph)
    for name, m in runs:
        act = ActivationSpec(name, m)
        every_sum = run_forward(spec, keeping_nothing(graph), name, m, keep)
        assert not graph._first_sums
        for key, call in calls.items():
            fresh = replace(graph)
            cold = call(fresh, act)
            assert set(fresh._first_sums) == kinds
            assert call(shared, act).tobytes() == cold.tobytes(), (key, name, m)
            if key == "forward":
                assert cold.tobytes() == every_sum.tobytes(), (name, m)
            if key == "outputs":
                assert cold.tobytes() == every_sum[:, spec.output_index].tobytes(), (name, m)
    assert set(shared._first_sums) == kinds


def test_kept_first_sums_are_small_read_only_and_go_with_the_graph(q2_spec):
    # A graph keeps one read-only (n,) row per initial kind that layer 1
    # reads, whatever the maps run on it, and frees them with itself
    forward_outputs(q2_spec, sparse_random_graph(100, 200, 2, 1))  # fill the process's own caches
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        graph = sparse_random_graph(2**17, 2**17, 2, 31)
        for name, m in (("sigma-star", 1), ("crelu", 1), ("step-arctan", 14)):
            forward_outputs(q2_spec, graph, ActivationSpec(name, m))
        layer_errors(q2_spec, graph)
        kept = graph._first_sums
        assert sorted(kept) == ["C1", "C2"] == sorted({q2_spec.init_kinds[p - q2_spec.d] for p in sum_positions(q2_spec.layers[0])})
        for row in kept.values():
            assert row.shape == (graph.n,) and row.dtype == np.float64 and not row.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0
        held = tracemalloc.get_traced_memory()[0]
        assert held - baseline > 2 * 8 * graph.n  # the two rows, the colors, the edges and the adjacency
        alive = weakref.ref(graph)
        del graph, kept, row
        gc.collect()
        assert alive() is None
        assert tracemalloc.get_traced_memory()[0] <= baseline + 16 * 1024
    finally:
        tracemalloc.stop()
