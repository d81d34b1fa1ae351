import hashlib
import tracemalloc

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
)
from gc2gnn.activations import apply_activation, certificate, required_composition_depth
from gc2gnn.backend import run_forward
from gc2gnn.compiler import _pad
from gc2gnn.experiments import tree_pair

from conftest import forward_history, matrix_terms


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
    # forward only those some later layer or the result reads; the one-layer
    # steps of forward_history activate every column at every layer
    rng = np.random.default_rng(seed)
    spec = compile_formula(random_formula(rng, 2, max_depth=8), 2)
    graph = random_graph(n, float(rng.uniform(0.0, min(6.0, n - 1))), 2, seed)
    act = ActivationSpec(name, m)
    last = forward_history(spec, graph, act)[-1]
    want = last[:, spec.output_index].tobytes()
    assert forward_outputs(spec, graph, act).tobytes() == want
    assert forward(spec, graph, act)[:, spec.output_index].tobytes() == want
    kept = [0, spec.output_index]
    assert forward(spec, graph, act, keep=tuple(kept))[:, kept].tobytes() == last[:, kept].tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_run_forward_rejects_non_finite_init(q2_spec, bad):
    # a column no layer reads still meets a zero coefficient in the
    # full-width combine, and 0 * inf is NaN
    graph = random_graph(20, 3.0, 2, 1)
    read = set().union(*(layer.reads.tolist() for layer in q2_spec.layers))
    unread = min(set(range(q2_spec.d)) - read)
    init = initial_features(q2_spec, graph)
    init[:, unread] = bad
    with pytest.raises(ValueError, match="finite"):
        run_forward(init, graph, q2_spec.layers, "sigma-star", 1, keep=(q2_spec.output_index,))


def reference_run_forward(init, graph, layers, name, m, keep=None):
    """The executor as it stood before the column-major state: an (n, d)
    state, ``reads`` taken from the dense rows, and the full-width ``einsum``
    combine for every layer."""
    def reads(layer):
        return np.flatnonzero(layer.A.any(axis=0) | layer.B.any(axis=0))

    d = np.shape(init)[1]
    live = np.zeros(d, dtype=bool)
    live[slice(None) if keep is None else np.asarray(keep, dtype=np.int64)] = True
    after = []
    for layer in reversed(layers):
        cols = np.flatnonzero(live)
        if cols.size and cols[-1] - cols[0] + 1 == cols.size:
            cols = slice(cols[0], cols[-1] + 1)
        after.append(cols)
        live[layer.rows] = False
        live[reads(layer)] = True

    cur = np.array(init, dtype=np.float64)
    n = cur.shape[0]
    agg = np.zeros((n, d))
    for layer, live in zip(layers, after[::-1]):
        if layer.rows.size:
            for j in np.flatnonzero(layer.B.any(axis=0)):
                agg[:, j] = np.bincount(graph.edge_dst, weights=cur[:, j].take(graph.edge_src), minlength=n)
            zs = np.einsum("vj,ij->vi", cur, layer.A, optimize=False)
            za = np.einsum("vj,ij->vi", agg, layer.B, optimize=False)
            cur[:, layer.rows] = layer.c + zs + za
        cur[:, live] = apply_activation(name, m, cur[:, live])
    return cur


def assert_matches_reference(init, graph, layers, name, m, keep):
    got = run_forward(init, graph, layers, name, m, keep)
    want = reference_run_forward(init, graph, layers, name, m, keep)
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
    assert_matches_reference(initial_features(spec, graph), graph, spec.layers, name, m, keep)


def hand_built_layers():
    """Three layers over d = 5: the first mixes rows of at most two terms
    with a row of four nonzeros in A and three in B, whose sums round more
    than once; in the second, row 1 reads coordinate 3 and row 3 reads coordinate 1, each
    written by the other; the third has a bias-only row and a row that reads
    only neighbour sums."""
    def layer(rows, a, b, c):
        a_terms, b_terms = (_pad([sorted(terms.items()) for terms in rows_terms]) for rows_terms in (a, b))
        return GnnLayer(np.array(rows), np.array(c, dtype=np.float64), a_terms, b_terms, 5)

    return (
        layer([0, 2, 4], [{1: 1}, {0: 1, 1: -2, 3: 1, 4: 3}, {}], [{}, {4: 1, 1: -1, 2: 2}, {0: 1, 2: -1}], [0, 1, -1]),
        layer([1, 3], [{3: -1}, {1: 1, 0: 1}], [{}, {1: 1}], [1, -2]),
        layer([0, 2], [{}, {}], [{}, {3: 2, 4: -1}], [1, 0]),
    )


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
def test_hand_built_layers_match_reference_executor(name):
    layers = hand_built_layers()
    assert [max(len(layer.a_terms), len(layer.b_terms)) for layer in layers] == [4, 2, 2]
    graph = random_graph(50, 4.0, 2, 3)
    init = np.random.default_rng(3).uniform(-1.0, 2.0, (graph.n, 5))
    for m in (0, 1, 3):
        for keep in (None, (3,)):
            assert_matches_reference(init, graph, layers, name, m, keep)


def test_rows_of_three_or_more_terms_fold_in_term_order():
    # a row's pre-activation is (c + S_A) + S_B, each sum taken left to right
    # in term order: at x = (1e16, 1, -1e16), 1e16 + 1 rounds back to 1e16,
    # so S_A is 0, where cancelling the large terms first would leave 1
    x = np.array([1e16, 1.0, -1e16, 0.0])
    a, b, c = [(0, 1.0), (1, 1.0), (2, 1.0)], [(0, 2.0), (1, 3.0), (2, 2.0)], 0.5
    layer = GnnLayer(np.array([3]), np.array([c]), _pad([a]), _pad([b]), 4)
    graph = LabeledGraph(2, 1, np.ones(2, dtype=np.int64), np.array([[0, 1]]))  # y = x at both ends
    got = run_forward(np.tile(x, (2, 1)), graph, (layer,), "relu", 1)[:, 3]

    def fold(terms):
        (col, coef), *rest = terms
        total = coef * x[col]
        for col, coef in rest:
            total = total + coef * x[col]
        return total

    want = max(0.0, (c + fold(a)) + fold(b))
    assert got.tobytes() == np.full(2, want).tobytes()
    # the order shows in both sums
    assert want != max(0.0, (c + fold([a[0], a[2], a[1]])) + fold(b))
    assert want != max(0.0, (c + fold(a)) + fold([b[0], b[2], b[1]]))


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
    graph = random_graph(40, 2.0, 2, 1)
    assert graph.max_degree == 4
    formula = parse("dia>=2 dia>=2 dia>=2 C1", 2)
    spec = compile_formula(formula, 2, ActivationSpec("step-arctan", 1))
    out = forward_outputs(spec, graph)
    want = eval_oracle_all(formula, graph)
    assert np.flatnonzero((out > 0.5) != want).tolist() == [15, 27]
    assert round(out[15], 3) == round(out[27], 3) == 0.723
    assert np.round(layer_errors(spec, graph), 3).tolist() == [0.0, 0.295, 0.351, 0.683, 0.723]


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
    roots = tree_pair(40, 1)
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
    "chain": "b0f3626400cc69f40defbdd77b64e116c47299dce3a8a07550b57394e9fd4257",
}


def test_layer_errors_bits_pinned(q1_spec):
    chain = chain_spec(60)
    cases = {
        "q1": (q1_spec.with_activation("step-arctan", 3), random_graph(150, 5.0, 1, 4)),
        "chain": (chain.with_activation("step-arctan", 14), random_graph(500, 5.0, 2, 7)),
    }
    got = {}
    for key, (spec, graph) in cases.items():
        eps = layer_errors(spec, graph)
        assert eps.shape == (spec.iterations + 1,)
        got[key] = hashlib.sha256(eps.tobytes()).hexdigest()
    assert got == LAYER_ERRORS_SHA256


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
        return GnnLayer(np.arange(d), c, matrix_terms(a), matrix_terms(b), d)

    layers = tuple(
        layer(rng.integers(-2, 3, (d, d)), rng.integers(-2, 3, (d, d)), rng.integers(-2, 3, d)) for _ in range(3)
    )
    return GnnSpec(
        output_index=d - 1,
        layers=layers,
        activation=ActivationSpec("sigma-star", 1),
        init_kinds=("C1", "C2", "1", "0", "C1", "0"),
    )


# First 16 hex digits of sha256(forward_history(spec, graph, act).tobytes()),
# per activation at m = 1 and m = 3. Any change to the forward pass that
# moves one bit of any layer's embeddings changes these. The smooth maps'
# values come from numpy's float64 ufuncs, so the digests hold for a given
# numpy build and CPU family. The dense spec's rows hold up to six terms in A
# and in B; its smooth-map digests were recorded when every row came to be
# summed in the term order the backend docstring states (test
# ``test_rows_of_three_or_more_terms_fold_in_term_order``), and its exact
# maps' digests did not move.
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
        "sigma-star": ("10f0a346aaa0ca85", "10f0a346aaa0ca85"),
        "crelu": ("10f0a346aaa0ca85", "10f0a346aaa0ca85"),
        "relu": ("fbde62a3a898e3a9", "fbde62a3a898e3a9"),
        "sigmoid": ("86d9ba7dc23fa9c2", "b841cdf29b3f3b3b"),
        "tanh": ("b39331f0e78cb12e", "097b89c8675d8128"),
        "step-arctan": ("ed711bd00695576a", "31e3db43268dba08"),
        "step-tanh": ("84fb40092d0916e3", "02e410c2cb7a77eb"),
        "steplike-tanh-eta0": ("2715cfe3fc559c66", "11a4d6e8d7fdc0f3"),
        "steplike-sigmoid-eta0": ("9c40cc5b59604d11", "3e32dd288e3a2bae"),
        "arctan-4pi": ("2a3b89b04d682f9b", "3d7c4d7fe3e34c8a"),
    },
    ("q2", "edgeless"): {
        "sigma-star": ("6bd082e552643f86", "6bd082e552643f86"),
        "crelu": ("6bd082e552643f86", "6bd082e552643f86"),
        "relu": ("6bd082e552643f86", "6bd082e552643f86"),
        "sigmoid": ("a45c2ac5b623b84b", "add2ee2b50d7e4c2"),
        "tanh": ("74bb7929275d5fea", "ab8e1e2232354d64"),
        "step-arctan": ("6a4eb06909595344", "692035151b6a839a"),
        "step-tanh": ("521c5093830aefdb", "e7b03822061fbe7f"),
        "steplike-tanh-eta0": ("0e63d4fef8487a29", "1e416c58fadbbf83"),
        "steplike-sigmoid-eta0": ("9a995865b1456a70", "c566373732b638fc"),
        "arctan-4pi": ("cd5e808940913530", "e797716bd5c94e85"),
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
        "random": random_graph(60, 4.0, 2, 11),
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
    assert got == want


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


def test_batched_oracle_matches_per_graph(q2):
    graphs = [random_graph(n, 3.0, 2, n) for n in (1, 30, 90)] + [make_tree(TreeParams(1, 3, 3), "leaves-blue")[0]]
    union, offsets = batch_graphs(graphs)
    whole = eval_oracle_all(q2, union)
    for graph, lo, hi in zip(graphs, offsets[:-1], offsets[1:]):
        assert np.array_equal(whole[lo:hi], eval_oracle_all(q2, graph))


def sparse_random_graph(n, edges, palette, seed):
    """A seeded graph from ``edges`` uniform vertex pairs, self-loops dropped:
    O(n + E) to draw, unlike ``random_graph``'s O(n^2) pair scan."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(edges, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return LabeledGraph(n, palette, rng.integers(1, palette + 1, n), pairs)


# sha256 of forward_outputs for q2 under step-arctan m = 14 on a graph whose
# (n, d) features span more than two 2**16-element composition blocks.
MULTI_BLOCK_FORWARD_SHA256 = "4227b6eb9d188662db7049aee16f2bd3aef44fcd2410ed97b0886f86344cc520"


def test_multi_block_forward_bits_pinned(q2_spec):
    graph = sparse_random_graph(20_000, 50_000, 2, 17)
    assert graph.n * q2_spec.d > 2 * 2**16
    out = forward_outputs(q2_spec, graph, ActivationSpec("step-arctan", 14))
    assert hashlib.sha256(out.tobytes()).hexdigest() == MULTI_BLOCK_FORWARD_SHA256


def test_forward_memory_is_linear(q2_spec):
    # the (d, n) state, its neighbour sums, the (n, d) initial features and
    # one gather over the edges: at the commit before the column-major state
    # the peak was 3.28 units of (n d + E) float64s, and it is 2.86 now, so
    # one more (n, d) copy (0.74 units here) or any per-layer history fails
    graph = sparse_random_graph(200_000, 500_000, 2, 3)
    graph.edge_src  # the adjacency is the graph's, built before the trace
    unit = 8 * (graph.n * q2_spec.d + len(graph.edges))
    peak = traced_peak(lambda: forward_outputs(q2_spec, graph))
    assert peak <= 3.5 * unit, peak / unit
