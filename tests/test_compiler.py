import hashlib

import numpy as np
import pytest

from gc2gnn import (
    ActivationSpec,
    And,
    Color,
    Diamond,
    GnnLayer,
    GnnSpec,
    LabeledGraph,
    Not,
    TOP,
    Top,
    TreeParams,
    carry_forward_check,
    compile_formula,
    eval_oracle_all,
    forward,
    forward_outputs,
    initial_features,
    make_tree,
    parse,
    random_formula,
    random_graph,
    spec_from_text,
    spec_to_text,
)
from gc2gnn.compiler import SpecFormatError

from conftest import forward_history


def compact_q1_net():
    """The compact hand-built 4-dimensional network for the degree query:
    same matrices at every layer, input features e1, output coordinate 4."""
    A = np.array([[0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0]], dtype=float)
    B = np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=float)
    c = np.array([-1, 1, 0, 1], dtype=float)
    layer = GnnLayer.from_dense(A, B, c)
    return GnnSpec(
        output_index=3,
        layers=(layer,) * 4,
        activation=ActivationSpec("sigma-star", 1),
        init_kinds=("1", "0", "0", "0"),
    )


def chain_formula(levels, palette=2):
    """``levels`` nested connectives cycling through not, dia>=K and a
    conjunction with an atom: the shape of the deep-formula benchmark's
    chains, with ``levels + palette + 1`` coordinates."""
    atoms = [Color(i) for i in range(1, palette + 1)] + [TOP]
    f = atoms[0]
    for i in range(levels):
        if i % 3 == 0:
            f = Not(f)
        elif i % 3 == 1:
            f = Diamond(1 + (i // 3) % 3, f)
        else:
            f = And(f, atoms[(i // 3 + 1) % len(atoms)])
    return f


# -- structure -------------------------------------------------------------------


def test_compile_single_color():
    spec = compile_formula(Color(1), 2)
    assert spec.d == 1
    assert spec.iterations == 1
    assert spec.output_index == 0
    A, B, c = spec.layers[0].dense()
    assert np.array_equal(A, [[1.0]])
    assert not B.any()
    assert not c.any()
    assert spec.init_kinds == ("C1",)


def test_chain_stores_one_rule_row_per_connective():
    spec = compile_formula(chain_formula(140), 2)
    atoms = sum(isinstance(g, (Color, Top)) for g in spec.coordinate_formulas)
    assert (spec.d, spec.iterations, atoms) == (143, 142, 3)
    assert sum(layer.rows.size for layer in spec.layers) == spec.d - atoms
    for layer in spec.layers:
        assert layer.A.shape == layer.B.shape == (layer.rows.size, spec.d)
        assert GnnLayer.from_dense(*layer.dense()) == layer
    assert carry_forward_check(spec)


# sha256 of the concatenated spec texts of 400 seeded random formulas and a
# 60- and a 140-level chain, recorded before subformulas were numbered by
# position: any change to the coordinate order or the rule rows shows here.
SPEC_TEXT_SHA256 = "e66f3e80870bf1f64c238ef1d936f2d6327294f5463f6a9b0a7195f8f82e55f1"


def test_spec_text_bits_pinned():
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for _ in range(400):
        formula = random_formula(rng, 3, max_depth=8, max_threshold=4)
        digest.update(spec_to_text(compile_formula(formula, 3)).encode())
    for levels in (60, 140):
        digest.update(spec_to_text(compile_formula(chain_formula(levels), 2)).encode())
    assert digest.hexdigest() == SPEC_TEXT_SHA256


def test_deep_nesting_compiles_and_matches_oracle():
    # 750 nested connectives: deeper than a recursive walk over the formula
    # could go, but within what parse accepts
    formula = parse("dia>=1 (C1 and not " * 250 + "top" + ")" * 250, 2)
    spec = compile_formula(formula, 2)
    assert carry_forward_check(spec)
    for seed in range(3):
        graph = random_graph(40, 3.0, 2, seed)
        want = eval_oracle_all(formula, graph)
        assert np.array_equal(forward_outputs(spec, graph), want.astype(np.float64)), seed


@pytest.mark.parametrize(
    "rows,a_shape,b_shape,fragment",
    [
        ([0, 3], (2, 3), (2, 3), "ascending and distinct"),
        ([-1, 1], (2, 3), (2, 3), "ascending and distinct"),
        ([1, 1], (2, 3), (2, 3), "ascending and distinct"),
        ([2, 0], (2, 3), (2, 3), "ascending and distinct"),
        ([0.0, 1.0], (2, 3), (2, 3), "integer"),
        ([0, 1], (3, 3), (3, 3), "shapes disagree"),
        ([0, 1], (2, 3), (2, 2), "shapes disagree"),
    ],
)
def test_gnn_layer_rejects_bad_rows(rows, a_shape, b_shape, fragment):
    with pytest.raises(ValueError, match=fragment):
        GnnLayer(np.array(rows), np.zeros(a_shape), np.zeros(b_shape), np.zeros(len(rows)))


def test_compile_top_is_iteration_free():
    spec = compile_formula(TOP, 1)
    assert spec.iterations == 0 and spec.d == 1
    assert spec.init_kinds == ("1",)


def test_compile_q1_shape(q1_spec):
    assert q1_spec.d == 5
    assert q1_spec.iterations == 4
    assert q1_spec.output_index == q1_spec.d - 1


def test_compile_q2_shape(q2_spec):
    assert q2_spec.d == 7
    assert q2_spec.iterations == 7


def test_compile_rejects_color_beyond_palette():
    with pytest.raises(ValueError, match="beyond palette"):
        compile_formula(Color(3), 2)


def test_entry_and_sparsity_invariants():
    rng = np.random.default_rng(5)
    formulas = [random_formula(rng, 3, max_depth=6) for _ in range(30)]
    formulas += [parse("not (dia>=1 (not (dia>=2 top)))", 1)]
    for f in formulas:
        spec = compile_formula(f, 3)
        for layer in spec.layers:
            assert np.isin(layer.A, (-1.0, 0.0, 1.0)).all()
            assert np.isin(layer.B, (-1.0, 0.0, 1.0)).all()
            assert np.array_equal(layer.c, np.round(layer.c))
            assert ((layer.A != 0).sum(axis=1) <= 2).all()
            assert ((layer.B != 0).sum(axis=1) <= 1).all()


def test_compiled_biases_are_never_negative_zero():
    # run_forward adds the bias first, so a -0.0 bias could reach a
    # pre-activation's sign; dia>=1 rows have bias zero
    rng = np.random.default_rng(8)
    zeros = 0
    for _ in range(300):
        for layer in compile_formula(random_formula(rng, 2, max_depth=8), 2).layers:
            at_zero = layer.c[layer.c == 0.0]
            assert not np.signbit(at_zero).any()
            zeros += at_zero.size
    assert zeros > 0


def test_compiled_size_at_most_twice_query_size():
    rng = np.random.default_rng(6)
    for _ in range(20):
        f = random_formula(rng, 3, max_depth=6)
        spec = compile_formula(f, 3)
        assert spec.d <= 2 * len(spec.coordinate_formulas)


# -- exactness -------------------------------------------------------------------


def test_q1_forward_matches_oracle_on_named_graphs(q1, q1_spec, isolated_vertex, path3, triangle):
    graphs = [isolated_vertex, path3, triangle, make_tree(TreeParams(0, 3, 4))[0],
              make_tree(TreeParams(1, 3, 4))[0]]
    for graph in graphs:
        want = eval_oracle_all(q1, graph).astype(float)
        got = forward_outputs(q1_spec, graph)
        assert np.array_equal(got, want)


def test_exactness_random_formulas_both_activations():
    rng = np.random.default_rng(77)
    for _ in range(5):
        f = random_formula(rng, 3, max_depth=5)
        spec = compile_formula(f, 3)
        for seed in range(10):
            graph = random_graph(60, 5.0, 3, seed)
            want = eval_oracle_all(f, graph).astype(float)
            for name in ("sigma-star", "crelu"):
                got = forward_outputs(spec, graph, ActivationSpec(name, 1))
                assert np.array_equal(got, want), (f, name, seed)


def test_every_coordinate_tracks_its_subformula(q1_spec, q2_spec):
    for spec, palette in ((q1_spec, 1), (q2_spec, 2)):
        graph = random_graph(80, 5.0, palette, 3)
        final = forward(spec, graph)
        for j, sub in enumerate(spec.coordinate_formulas):
            want = eval_oracle_all(sub, graph).astype(float)
            assert np.array_equal(final[:, j], want), sub


def test_integer_preactivations_under_threshold(q2_spec):
    graph = random_graph(50, 5.0, 2, 21)
    history = forward_history(q2_spec, graph)
    for t, layer in enumerate(q2_spec.layers):
        prev = history[t]
        agg = np.zeros_like(prev)
        np.add.at(agg, graph.edge_dst, prev[graph.edge_src])
        A, B, c = layer.dense()
        pre = c + prev @ A.T + agg @ B.T
        assert np.array_equal(pre, np.round(pre))
        assert not (pre == 0.5).any()  # the tie branch is never exercised


def test_compact_net_matches_compiler_on_random_trees(q1, q1_spec):
    compact = compact_q1_net()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        params = TreeParams(int(rng.integers(0, 4)), int(rng.integers(0, 11)), int(rng.integers(1, 11)))
        tree, root = make_tree(params)
        ours = forward_outputs(q1_spec, tree)
        compact_out = forward_outputs(compact, tree)
        assert np.array_equal(ours, compact_out), params
        assert ours[root] == float(eval_oracle_all(q1, tree)[root])


# -- carry rows -------------------------------------------------------------------


def test_carry_forward_check_accepts_compiled(q1_spec, q2_spec):
    assert carry_forward_check(q1_spec)
    assert carry_forward_check(q2_spec)
    assert carry_forward_check(compile_formula(Color(1), 2))


def test_carry_forward_check_rejects_zeroed_row(q1_spec):
    layers = list(q1_spec.layers)
    A, B, c = layers[2].dense()
    A[0, 0] = 0.0  # kill the always-true coordinate's carry in layer 3
    layers[2] = GnnLayer.from_dense(A, B, c)
    broken = GnnSpec(
        output_index=q1_spec.output_index,
        layers=tuple(layers),
        activation=q1_spec.activation,
        init_kinds=q1_spec.init_kinds,
        coordinate_formulas=q1_spec.coordinate_formulas,
    )
    assert not carry_forward_check(broken)


def test_carry_forward_check_reads_specs_from_text(q2_spec):
    assert carry_forward_check(spec_from_text(spec_to_text(q2_spec)))


def test_carry_forward_check_rejects_rows_firing_every_layer():
    # the compact net recomputes all four coordinates in each of its layers
    assert not carry_forward_check(compact_q1_net())


# -- serialization ----------------------------------------------------------------


def test_spec_round_trip(q1_spec, q2_spec):
    for spec in (q1_spec, q2_spec, compact_q1_net(), compile_formula(chain_formula(60), 2)):
        assert spec_from_text(spec_to_text(spec)) == spec


def test_spec_text_is_integer_valued(q1_spec):
    text = spec_to_text(q1_spec)
    header, init, *rows = text.strip().splitlines()
    assert header == "5 4 4 sigma-star 1"
    assert init == "init 1 0 0 0 0"
    for row in rows:
        assert all(tok.lstrip("-").isdigit() for tok in row.split())


def test_spec_serializer_rejects_fractions():
    layer = GnnLayer.from_dense(np.array([[0.5]]), np.zeros((1, 1)), np.zeros(1))
    spec = GnnSpec(0, (layer,), ActivationSpec("sigma-star", 1), ("0",))
    with pytest.raises(ValueError, match="non-integer"):
        spec_to_text(spec)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda lines: [lines[0], "start 1 0 0 0 0"] + lines[2:], "init line"),
        (lambda lines: lines[:1], "too short"),
        (lambda lines: [lines[0].replace("sigma-star", "swish")] + lines[1:], "unknown activation"),
        (lambda lines: lines[:-1], "matrix rows"),
        (lambda lines: [lines[0] + " 9"] + lines[1:], "malformed header"),
    ],
)
def test_spec_parser_rejects_malformed(q1_spec, mutate, fragment):
    lines = spec_to_text(q1_spec).strip().splitlines()
    with pytest.raises(SpecFormatError, match=fragment):
        spec_from_text("\n".join(mutate(lines)))


@pytest.mark.parametrize("token", ["1.5", "x", "inf", "nan", "1e3"])
@pytest.mark.parametrize("row", [2, 7, -1])  # a row of A, of B, and c
def test_spec_parser_rejects_non_integer_entries(q1_spec, token, row):
    lines = spec_to_text(q1_spec).strip().splitlines()
    toks = lines[row].split()
    toks[1] = token
    lines[row] = " ".join(toks)
    with pytest.raises(SpecFormatError, match="non-integer entry in") as info:
        spec_from_text("\n".join(lines))
    assert repr(lines[row]) in str(info.value)


@pytest.mark.parametrize("row", [2, 7, -1])
@pytest.mark.parametrize("change", ["drop", "add"])
def test_spec_parser_checks_row_width(q1_spec, row, change):
    lines = spec_to_text(q1_spec).strip().splitlines()
    lines[row] = lines[row].rsplit(" ", 1)[0] if change == "drop" else lines[row] + " 0"
    with pytest.raises(SpecFormatError, match=f"expected 5 entries, got {lines[row]!r}"):
        spec_from_text("\n".join(lines))


def test_initial_features_layout(q2_spec):
    graph = LabeledGraph(3, 2, np.array([1, 2, 1]), np.array([[0, 1], [1, 2]]))
    feats = initial_features(q2_spec, graph)
    # first two coordinates are the color indicators, the rest start at zero
    assert np.array_equal(feats[:, 0], [1, 0, 1])
    assert np.array_equal(feats[:, 1], [0, 1, 0])
    assert not feats[:, 2:].any()


def test_initial_features_palette_guard(q2_spec):
    graph = LabeledGraph(2, 1, np.ones(2, int), np.array([[0, 1]]))
    with pytest.raises(ValueError, match="palette"):
        initial_features(q2_spec, graph)
