import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gc2gnn import (
    ACTIVATION_NAMES,
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
    read_spec,
    spec_from_text,
    spec_to_text,
)
from gc2gnn import compiler
from gc2gnn.compiler import SpecFormatError, _pad
from gc2gnn.experiments import Q1_TEXT

from conftest import forward_history, matrix_terms


def compact_q1_net():
    """The compact hand-built 4-dimensional network for the degree query:
    same matrices at every layer, input features e1, output coordinate 4."""
    A = np.array([[0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0]], dtype=float)
    B = np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=float)
    c = np.array([-1, 1, 0, 1], dtype=float)
    layer = GnnLayer(np.arange(4), c, matrix_terms(A), matrix_terms(B), 4)
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
    # the atom is correct from the start, so its one layer only carries it
    layer = spec.layers[0]
    assert layer.rows.size == 0
    assert layer.A.shape == layer.B.shape == (0, 1)
    assert spec.init_kinds == ("C1",)


def test_chain_stores_one_rule_row_per_connective():
    spec = compile_formula(chain_formula(140), 2)
    atoms = sum(isinstance(g, (Color, Top)) for g in spec.coordinate_formulas)
    assert (spec.d, spec.iterations, atoms) == (143, 142, 3)
    assert sum(layer.rows.size for layer in spec.layers) == spec.d - atoms
    for layer in spec.layers:
        assert layer.A.shape == layer.B.shape == (layer.rows.size, spec.d)
        carries = (layer.A == np.eye(spec.d)[layer.rows]).all(axis=1) & ~layer.B.any(axis=1)
        assert not (carries & (layer.c == 0.0)).any()  # no stored row is an identity carry
    assert carry_forward_check(spec)


def pinned_specs():
    """400 seeded random formulas and a 60- and a 140-level chain, compiled."""
    rng = np.random.default_rng(0)
    for _ in range(400):
        yield compile_formula(random_formula(rng, 3, max_depth=8, max_threshold=4), 3)
    for levels in (60, 140):
        yield compile_formula(chain_formula(levels), 2)


# sha256 of the concatenated spec texts of ``pinned_specs``, recorded when the
# text format became one line per nonzero weight: any change to the
# coordinate order, the rule rows or the file layout shows here.
SPEC_TEXT_SHA256 = "74720b40846346336c112909589db32f6240a621a37de525b58ef75faae19c66"

# sha256 of every layer's rows, A, B and c bytes over ``pinned_specs``,
# recorded while the text format still wrote dense d x d matrices: it pins the
# rule rows whatever the file layout, for compiled specs and for specs read
# back from their text alike.
LAYER_SHA256 = "c7c3a93b080120a2616d364813a98b419b1f8fb85e5fd82438b1abad62ef7855"


def test_spec_text_bits_pinned():
    digest = hashlib.sha256()
    for spec in pinned_specs():
        digest.update(spec_to_text(spec).encode())
    assert digest.hexdigest() == SPEC_TEXT_SHA256


@pytest.mark.parametrize("read_back", [False, True], ids=["compiled", "read-back"])
def test_layer_bits_pinned(read_back):
    digest = hashlib.sha256()
    for spec in pinned_specs():
        for layer in (spec_from_text(spec_to_text(spec)) if read_back else spec).layers:
            for part in (layer.rows, layer.A, layer.B, layer.c):
                digest.update(part.tobytes())
    assert digest.hexdigest() == LAYER_SHA256


def test_compile_memory_is_linear_in_a_chain():
    # a layer stores its rows' nonzeros only; (k, d) rows took about 17 L^2
    # bytes, a 13.8 MB tracemalloc peak at L = 900
    f = Color(1)
    for _ in range(900):
        f = Not(f)
    tracemalloc.start()
    try:
        spec = compile_formula(f, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000
    for layer in spec.layers:
        assert set(vars(layer)) == {"rows", "c", "a_terms", "b_terms", "d"}
        stored = [layer.rows, layer.c, *(part for pair in layer.a_terms + layer.b_terms for part in pair)]
        assert all(part.shape == (layer.rows.size,) for part in stored)


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
        ([0, 1], (2, 3), (3, 3), "shapes disagree"),
        ([0, 1], (2, 3), (2, 4), "term columns must be integers in"),
    ],
)
def test_gnn_layer_rejects_bad_rows(rows, a_shape, b_shape, fragment):
    # the terms are the nonzeros of all-ones matrices of these shapes, d = 3
    with pytest.raises(ValueError, match=fragment):
        GnnLayer(np.array(rows), np.zeros(len(rows)), matrix_terms(np.ones(a_shape)),
                 matrix_terms(np.ones(b_shape)), 3)


def test_spec_from_text_reports_bad_term_columns(q1_spec):
    # a position p outside [0, 2d) names a column outside [0, d): q1's first
    # term line, "1 1 -1 5 1", reads B column 0 at p = 5 = d
    text = spec_to_text(q1_spec)
    assert "\n1 1 -1 5 1\n" in text
    for p in (-1, 10, 99):
        with pytest.raises(SpecFormatError, match="term columns must be integers in"):
            spec_from_text(text.replace("\n1 1 -1 5 1\n", f"\n1 1 -1 {p} 1\n"))


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
        pre = layer.c + prev @ layer.A.T + agg @ layer.B.T
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
    # a zero rule row kills the always-true coordinate's carry in layer 3
    old = layers[2]
    assert old.rows[0] > 0
    zero = np.zeros((1, old.d))
    layers[2] = GnnLayer(np.r_[0, old.rows], np.r_[0.0, old.c], matrix_terms(np.vstack((zero, old.A))),
                         matrix_terms(np.vstack((zero, old.B))), old.d)
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


def term_bytes(layer):
    return tuple(tuple(part.tobytes() for pair in terms for part in pair) for terms in (layer.a_terms, layer.b_terms))


def test_spec_round_trip(q1_spec, q2_spec):
    for spec in (q1_spec, q2_spec, compact_q1_net(), compile_formula(chain_formula(60), 2)):
        assert spec_from_text(spec_to_text(spec)) == spec
    # the compiler writes each row's terms in the ascending column order the
    # reader finds them in
    for spec in pinned_specs():
        back = spec_from_text(spec_to_text(spec))
        assert [term_bytes(layer) for layer in back.layers] == [term_bytes(layer) for layer in spec.layers]


@st.composite
def hand_built_specs(draw):
    """Specs of up to d + 1 layers over d <= 5 coordinates: each layer has
    any set of rule rows, and each row up to 2d nonzero integer weights at
    ascending positions of its A then B entries, or none."""
    d = draw(st.integers(1, 5))
    weight = st.integers(-10**6, 10**6)

    def layer():
        rows = sorted(draw(st.sets(st.integers(0, d - 1))))
        a_rows, b_rows = [], []
        for _ in rows:
            positions = sorted(draw(st.sets(st.integers(0, 2 * d - 1))))
            terms = [(p, draw(weight.filter(bool))) for p in positions]
            a_rows.append([(p, v) for p, v in terms if p < d])
            b_rows.append([(p - d, v) for p, v in terms if p >= d])
        c = np.array([draw(weight) for _ in rows], dtype=np.float64)
        return GnnLayer(np.array(rows, dtype=np.int64), c, _pad(a_rows), _pad(b_rows), d)

    layers = tuple(layer() for _ in range(draw(st.integers(0, d + 1))))
    activation = ActivationSpec(draw(st.sampled_from(ACTIVATION_NAMES)), draw(st.integers(0, 3)))
    init_kinds = tuple(draw(st.lists(st.sampled_from(("0", "1", "C1", "C3")), min_size=d, max_size=d)))
    return GnnSpec(draw(st.integers(0, d - 1)), layers, activation, init_kinds)


@settings(max_examples=300, deadline=None)
@given(hand_built_specs())
def test_spec_text_round_trips_hand_built_specs(spec):
    if spec.iterations > spec.d:
        with pytest.raises(ValueError, match="exceed d"):
            spec_to_text(spec)
        return
    back = spec_from_text(spec_to_text(spec))
    assert back == spec
    for got, want in zip(back.layers, spec.layers):
        assert (got.rows.tobytes(), got.c.tobytes()) == (want.rows.tobytes(), want.c.tobytes())
        assert term_bytes(got) == term_bytes(want)


def test_spec_writer_refuses_rows_out_of_column_order():
    # the file fixes a row's order of summation as ascending p, so a row
    # whose terms run otherwise has no text
    layer = GnnLayer(np.array([0]), np.zeros(1), _pad([[(1, 1.0), (0, 1.0)]]), (), 2)
    spec = GnnSpec(0, (layer,), ActivationSpec("sigma-star", 1), ("0", "0"))
    with pytest.raises(ValueError, match="terms of rule row 0 in layer 1 are not in ascending column order"):
        spec_to_text(spec)


def test_no_package_path_builds_the_dense_form(q1, q2, monkeypatch):
    # GnnLayer.A and B exist for the benchmark's counters and for tests:
    # compiling, writing, reading and running a network never builds them
    from test_engine import dense_integer_spec

    def refuse(*args):
        raise AssertionError("a dense (k, d) form was built")

    monkeypatch.setattr(compiler, "_dense", refuse)
    graph = random_graph(30, 3.0, 2, 1)
    for spec in (compile_formula(q1, 1), compile_formula(q2, 2), dense_integer_spec()):
        back = spec_from_text(spec_to_text(spec))
        assert back == spec
        for net in (spec, back):
            forward(net, graph, ActivationSpec("sigmoid", 3))
    with pytest.raises(AssertionError, match="dense"):
        spec.layers[0].A


def test_deep_chain_text_is_small_and_round_trips():
    # one line per nonzero weight: a 2000-level not chain, deeper than parse
    # accepts, writes about 20 bytes a level, where rows of 2d + 3 integers
    # took some 16 MB; writing and reading stay within about 2 KB a level
    from test_engine import traced_peak

    levels = 2000
    f = Color(1)
    for _ in range(levels):
        f = Not(f)
    spec = compile_formula(f, 1)
    text = spec_to_text(spec)
    write_peak = traced_peak(lambda: spec_to_text(spec))
    read_peak = traced_peak(lambda: spec_from_text(text))
    back = spec_from_text(text)
    assert len(text) <= 50 * levels
    assert write_peak <= 2_000 * levels and read_peak <= 2_000 * levels, (write_peak, read_peak)
    assert back == spec
    assert [term_bytes(layer) for layer in back.layers] == [term_bytes(layer) for layer in spec.layers]


def test_readme_spec_example_is_q1():
    # README "File formats" shows q1's spec text; the format cannot drift from it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## File formats", 1)[1].split("```")[3]  # after the graph example
    assert example.lstrip("\n") == spec_to_text(compile_formula(parse(Q1_TEXT, 1), 1))


def test_spec_text_is_integer_valued(q1_spec):
    text = spec_to_text(q1_spec)
    header, init, *rows = text.strip().splitlines()
    assert header == "5 4 4 sigma-star 1 terms"
    assert init == "init 1 0 0 0 0"
    for row in rows:
        assert all(tok.lstrip("-").isdigit() for tok in row.split())


def test_spec_serializer_rejects_fractions():
    layer = GnnLayer(np.array([0]), np.zeros(1), matrix_terms(np.array([[0.5]])), (), 1)
    spec = GnnSpec(0, (layer,), ActivationSpec("sigma-star", 1), ("0",))
    with pytest.raises(ValueError, match="non-integer"):
        spec_to_text(spec)


def test_spec_serializer_rejects_more_layers_than_d():
    # the reader bounds the depth by d, so the writer writes nothing deeper
    net = compact_q1_net()
    spec = GnnSpec(net.output_index, net.layers * 2, net.activation, net.init_kinds)
    with pytest.raises(ValueError, match="8 layers exceed d = 4"):
        spec_to_text(spec)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda lines: [lines[0], "start 1 0 0 0 0"] + lines[2:], "init line"),
        (lambda lines: lines[:1], "too short"),
        (lambda lines: [lines[0].replace("sigma-star", "swish")] + lines[1:], "unknown activation"),
        # the init line backs d, and d bounds the depth a header may declare
        (lambda lines: ["5 -1 4 sigma-star 1 terms"] + lines[1:2], "iterations outside 0..5 in '5 -1 "),
        (lambda lines: ["5 6 4 sigma-star 1 terms"] + lines[1:], "iterations outside 0..5 in '5 6 "),
        (lambda lines: ["5 1000000000 4 sigma-star 1 terms"] + lines[1:2], "outside 0..5 in '5 1000000000 "),
        # rule rows: t in [1, iterations] and never decreasing, j in [0, d)
        (lambda lines: lines + ["5" + lines[-1][1:]], "layer out of order or outside 1..4"),
        (lambda lines: lines[:2] + ["0" + lines[2][1:]] + lines[2:], "outside 1..4 in '0 1 "),
        (lambda lines: lines[:2] + lines[:1:-1], "layer out of order"),
        (lambda lines: lines[:-1] + ["4 5" + lines[-1][3:]], "must be ascending and distinct in"),
        # coordinate 4 named twice in layer 4, around a row for coordinate 0
        (lambda lines: lines + ["4 0 1 0 0", lines[-1]], "rule rows must be ascending and distinct"),
        (lambda lines: [lines[0] + " 9"] + lines[1:], "malformed header"),
        (lambda lines: [lines[0].replace("terms", "dense")] + lines[1:],
         "malformed header '5 4 4 sigma-star 1 dense'"),
        # a rule row is a run of lines with one layer, coordinate and bias
        (lambda lines: lines + ["4 4 0 4 1"], "a second bias within a rule row in '4 4 0 4 1'"),
        (lambda lines: lines + ["4 4 1 3 1"], "p not ascending within a rule row in '4 4 1 3 1'"),
        (lambda lines: lines + ["4 4 1 2 1"], "p not ascending within a rule row in '4 4 1 2 1'"),
        # the header's activation is checked before the body is read
        (lambda lines: [lines[0].replace("sigma-star 1", "sigma-star -1"), lines[1], "junk"],
         "composition depth must be non-negative"),
        # color indices start at 1 and are ASCII digits
        (lambda lines: [lines[0], "init C0 0 0 0 0"] + lines[2:], "bad init kind 'C0'"),
        (lambda lines: [lines[0], "init C\u0661 0 0 0 0"] + lines[2:], "bad init kind 'C\u0661'"),
    ],
)
def test_spec_parser_rejects_malformed(q1_spec, mutate, fragment):
    lines = spec_to_text(q1_spec).strip().splitlines()
    with pytest.raises(SpecFormatError, match=fragment):
        spec_from_text("\n".join(mutate(lines)))


def non_ascii_spec(q1_spec, char):
    """q1's spec text with ``char`` in its first rule row, in place of the
    space after the bias (a no-break space) or of the digit after it."""
    text = spec_to_text(q1_spec)
    offset = text.index("\n1 1 -1 ") + 7 + (not char.isspace())
    return text[:offset] + char + text[offset + 1 :], offset


@pytest.mark.parametrize("char", ["\u00a0", "\u0661"], ids=["no-break-space", "arabic-indic-digit"])
def test_read_spec_rejects_non_ascii(tmp_path, q1_spec, char):
    text, offset = non_ascii_spec(q1_spec, char)
    path = tmp_path / "bad.spec"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SpecFormatError) as info:
        read_spec(path)
    assert str(info.value) == f"non-ASCII byte at offset {offset}"


def edit_body_token(spec, column, edit):
    """``spec``'s text lines, with the body line that holds body token
    ``column`` replaced by ``edit(tokens, i)``, and that line.  The body's
    ``t j c p v`` lines count as one stream of tokens, five a line: for q1,
    columns 0 and 1 are the first line's layer and coordinate, 2 its bias,
    7 the second line's bias and -1 the last line's weight."""
    header, init, *body = spec_to_text(spec).strip().splitlines()
    row, i = divmod(column % (5 * len(body)), 5)
    body[row] = " ".join(edit(body[row].split(), i))
    return [header, init, *body], body[row]


@pytest.mark.parametrize("token", ["1.5", "x", "inf", "nan", "1e3"])
@pytest.mark.parametrize("column", [0, 1, 2, 7, -1])
def test_spec_parser_rejects_non_integer_entries(q1_spec, token, column):
    lines, line = edit_body_token(q1_spec, column, lambda toks, i: toks[:i] + [token] + toks[i + 1 :])
    with pytest.raises(SpecFormatError, match="non-integer entry in") as info:
        spec_from_text("\n".join(lines))
    assert repr(line) in str(info.value)


@pytest.mark.parametrize("column", [2, 7, -1])
@pytest.mark.parametrize("change", ["drop", "add"])
def test_spec_parser_checks_row_width(q1_spec, column, change):
    if change == "drop":
        lines, line = edit_body_token(q1_spec, column, lambda toks, i: toks[:i] + toks[i + 1 :])
    else:
        lines, line = edit_body_token(q1_spec, column, lambda toks, i: toks[:i] + ["0"] + toks[i:])
    with pytest.raises(SpecFormatError, match=f"expected 5 entries, got {line!r}"):
        spec_from_text("\n".join(lines))


def test_read_spec_finds_a_bad_row_by_halving(tmp_path, q1_spec, monkeypatch):
    # 4096 weight lines, the last one bad: one np.loadtxt call for the whole
    # block and 12 for halving it
    lines = spec_to_text(q1_spec).strip().splitlines()
    bad = lines[2].replace(" 5", " x", 1)
    assert bad != lines[2]
    path = tmp_path / "bad.spec"
    path.write_text("\n".join(lines[:2] + [lines[2]] * 4095 + [bad]) + "\n")
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(1) or loadtxt(*args, **kwargs))
    with pytest.raises(SpecFormatError) as info:
        read_spec(path)
    assert str(info.value) == f"non-integer entry in {bad!r}"
    assert len(calls) <= 14


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
