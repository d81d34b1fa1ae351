from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gc2gnn import (
    TOP,
    And,
    Color,
    Diamond,
    compile_formula,
    FormulaSyntaxError,
    Not,
    Top,
    depth,
    eval_oracle_all,
    parse,
    random_formula,
    random_graph,
    subformulas,
    to_text,
)
from gc2gnn.experiments import Q1_TEXT, Q2_TEXT
from gc2gnn.formulas import check_palette


def formula_strategy(palette=3, max_leaves=10):
    base = st.one_of(st.builds(Color, st.integers(1, palette)), st.just(TOP))
    return st.recursive(
        base,
        lambda child: st.one_of(
            st.builds(Not, child),
            st.builds(And, child, child),
            st.builds(Diamond, st.integers(1, 3), child),
        ),
        max_leaves=max_leaves,
    )


def eval_recursive(f, graph, v):
    """Independent reference evaluator: plain structural recursion."""
    if isinstance(f, Color):
        return bool(graph.colors[v] == f.index)
    if isinstance(f, Top):
        return True
    if isinstance(f, Not):
        return not eval_recursive(f.child, graph, v)
    if isinstance(f, And):
        return eval_recursive(f.left, graph, v) and eval_recursive(f.right, graph, v)
    count = sum(eval_recursive(f.child, graph, int(w)) for w in graph.neighbors(v))
    return count >= f.threshold


# -- parsing ----------------------------------------------------------------


def test_parse_atoms():
    assert parse("C1", 2) == Color(1)
    assert parse("  C2 ", 2) == Color(2)
    assert parse("top", 1) == TOP


def test_parse_q1_structure():
    q1 = parse(Q1_TEXT, 1)
    assert q1 == Not(Diamond(1, Not(Diamond(2, TOP))))


def test_parse_q2_structure():
    q2 = parse(Q2_TEXT, 2)
    assert q2 == And(Color(1), Diamond(1, And(Diamond(1, Color(2)), Diamond(1, Color(1)))))


def test_parse_whitespace_insensitive():
    assert parse("dia>=2C1", 1) == parse("dia >= 2  C1", 1) == Diamond(2, Color(1))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("C0", "color index 0 out of range"),
        ("C3", "out of range"),
        ("dia>=0 top", "threshold must be >= 1"),
        ("(C1 and", "unexpected end of input"),
        ("(C1 or C2)", "expected 'and'"),
        ("not", "unexpected end of input"),
        ("top top", "trailing input"),
        ("&", "unexpected character"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text, 2)
    assert fragment in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("not &", 1)
    assert err.value.position == 4


def test_round_trip_seeded_corpus():
    rng = np.random.default_rng(20260808)
    for _ in range(1000):
        f = random_formula(rng, 3, max_depth=8)
        assert parse(to_text(f), 3) == f


@settings(max_examples=200, deadline=None)
@given(formula_strategy())
def test_round_trip_property(f):
    assert parse(to_text(f), 3) == f


# -- subformulas and depth ---------------------------------------------------


def test_subformulas_atomic():
    subs = subformulas(Color(1))
    assert subs.entries == (Color(1),)


def test_subformulas_q1():
    q1 = parse(Q1_TEXT, 1)
    subs = subformulas(q1)
    assert len(subs) == 5
    assert subs.entries[0] == TOP
    assert subs.entries[-1] == q1


def test_subformulas_dedup():
    f = And(Color(1), Color(1))
    subs = subformulas(f)
    assert subs.entries == (Color(1), f)


@settings(max_examples=150, deadline=None)
@given(formula_strategy())
def test_subformulas_topologically_sorted(f):
    subs = subformulas(f)
    assert subs.entries[-1] == f
    for j, node in enumerate(subs.entries):
        children = (
            (node.child,) if isinstance(node, (Not, Diamond))
            else (node.left, node.right) if isinstance(node, And)
            else ()
        )
        assert len(subs.children[j]) == len(children)
        for child, k in zip(children, subs.children[j]):
            assert k < j and subs.entries[k] == child


def subtrees(f):
    """Every subtree of ``f``, repeats included, by plain structural recursion."""
    kids = (f.child,) if isinstance(f, (Not, Diamond)) else (f.left, f.right) if isinstance(f, And) else ()
    return [f, *(g for k in kids for g in subtrees(k))]


@settings(max_examples=150, deadline=None)
@given(formula_strategy())
def test_subformulas_lists_each_distinct_subtree_once(f):
    texts = [to_text(g) for g in subformulas(f).entries]
    assert len(set(texts)) == len(texts)
    assert set(texts) == {to_text(g) for g in subtrees(f)}


@settings(max_examples=100, deadline=None)
@given(formula_strategy(max_leaves=6), st.integers(1, 3), st.integers(0, 10_000))
def test_readers_take_a_formula_or_its_subformulas(f, palette, seed):
    # compile_formula, eval_oracle_all and check_palette read a formula's
    # SubformulaList as they read the formula: the same spec, coordinate
    # formulas included, the same truth table bit for bit, the same error
    subs = subformulas(f)
    graph = random_graph(12, 3.0, palette, seed)
    for reader in (lambda g: compile_formula(g, palette), lambda g: eval_oracle_all(g, graph),
                   lambda g: check_palette(g, palette)):
        results = []
        for g in (f, subs):
            try:
                results.append(reader(g))
            except ValueError as error:
                results.append(str(error))
        if hasattr(results[0], "coordinate_formulas"):
            assert results[0].coordinate_formulas == results[1].coordinate_formulas
        if isinstance(results[0], np.ndarray):
            assert results[0].tobytes() == results[1].tobytes()
        else:
            assert results[0] == results[1]


def test_depth_values():
    assert depth(Color(1)) == 1
    assert depth(TOP) == 0
    assert depth(parse(Q1_TEXT, 1)) == 4
    assert depth(parse(Q2_TEXT, 2)) == 7


# -- the evaluator -----------------------------------------------------------


def test_q1_isolated_vertex(q1, isolated_vertex):
    assert bool(eval_oracle_all(q1, isolated_vertex)[0]) is True


def test_q1_single_edge(q1, single_edge):
    assert bool(eval_oracle_all(q1, single_edge)[0]) is False
    assert bool(eval_oracle_all(q1, single_edge)[1]) is False


def test_q1_triangle(q1, triangle):
    assert eval_oracle_all(q1, triangle).all()


def test_eval_palette_mismatch(triangle):
    with pytest.raises(ValueError, match="palette"):
        eval_oracle_all(Color(2), triangle)


def test_q1_matches_direct_degree_computation(q1):
    # independent check: Q1 says every neighbor has degree at least two
    for seed in range(200):
        graph = random_graph(40, 4.0, 1, seed)
        got = eval_oracle_all(q1, graph)
        degrees = graph.degrees
        for v in range(graph.n):
            want = all(degrees[int(w)] >= 2 for w in graph.neighbors(v))
            assert got[v] == want


@settings(max_examples=100, deadline=None)
@given(formula_strategy(max_leaves=6), st.integers(0, 10_000))
def test_table_evaluator_matches_recursion(f, seed):
    graph = random_graph(12, 3.0, 3, seed)
    table = eval_oracle_all(f, graph)
    for v in range(graph.n):
        assert table[v] == eval_recursive(f, graph, v)


@settings(max_examples=100, deadline=None)
@given(formula_strategy(max_leaves=5), st.integers(1, 4), st.integers(0, 10_000))
def test_diamond_monotone_in_threshold(f, kk, seed):
    graph = random_graph(15, 4.0, 3, seed)
    stronger = eval_oracle_all(Diamond(kk, f), graph)
    for weaker_k in range(1, kk + 1):
        weaker = eval_oracle_all(Diamond(weaker_k, f), graph)
        assert (weaker | ~stronger).all()


@settings(max_examples=100, deadline=None)
@given(formula_strategy(max_leaves=4), formula_strategy(max_leaves=4), st.integers(0, 10_000))
def test_de_morgan(a, b, seed):
    graph = random_graph(12, 3.0, 3, seed)
    lhs = eval_oracle_all(Not(And(a, b)), graph)
    rhs = ~(eval_oracle_all(a, graph) & eval_oracle_all(b, graph))
    assert (lhs == rhs).all()


def test_random_formula_respects_depth_budget():
    rng = np.random.default_rng(99)
    for _ in range(200):
        assert depth(random_formula(rng, 3, max_depth=6)) <= 6


def test_random_formula_refuses_a_budget_no_formula_meets():
    # every formula has depth >= 0, so a negative budget would be drawn
    # against forever; a zero budget leaves only top
    with pytest.raises(ValueError, match="max_depth must be an integer >= 0"):
        random_formula(np.random.default_rng(0), 2, max_depth=-1)
    assert random_formula(np.random.default_rng(0), 2, max_depth=0) == TOP
    for size in ("palette_size", "max_threshold"):
        with pytest.raises(ValueError, match=f"{size} must be an integer >= 1"):
            random_formula(np.random.default_rng(0), **{"palette_size": 2, size: 0})


def test_node_invariants():
    with pytest.raises(ValueError):
        Color(0)
    with pytest.raises(ValueError):
        Diamond(0, TOP)


@pytest.mark.parametrize("payload", [1.5, 1.0, True, np.float64(2.0), np.bool_(True), "2", None],
                         ids=["1.5", "1.0", "True", "np-float", "np-bool", "str", "None"])
def test_node_payload_must_be_an_integer(payload):
    # a float or bool payload would print as text that parse cannot read back
    with pytest.raises(ValueError, match="color index must be an integer >= 1"):
        Color(payload)
    with pytest.raises(ValueError, match="diamond threshold must be an integer >= 1"):
        Diamond(payload, TOP)


def test_node_payload_accepts_numpy_integers():
    assert Color(np.int64(2)) == Color(2) and hash(Color(np.int64(2))) == hash(Color(2))
    assert to_text(Diamond(np.int32(3), Color(np.int64(2)))) == "dia>=3 C2"


def test_node_payload_is_stored_as_a_python_int():
    # a node holds the integers its text writes, so equal formulas print alike
    assert repr(Color(np.int64(2))) == "Color(index=2)"
    assert type(Diamond(np.int32(3), TOP).threshold) is int


@pytest.mark.parametrize("node", [Color(1), TOP, Not(TOP), And(Color(1), TOP), Diamond(2, TOP)],
                         ids=lambda node: type(node).__name__)
def test_node_holds_only_its_fields(node):
    # a formula is its text, so a node caches nothing beside its fields
    assert set(vars(node)) == {f.name for f in fields(node)}


@given(formula_strategy(palette=2, max_leaves=3), formula_strategy(palette=2, max_leaves=3))
def test_equality_and_hash_follow_text(a, b):
    assert (a == b) == (to_text(a) == to_text(b)) == (b == a)
    if a == b:
        assert hash(a) == hash(b)
    copy = parse(to_text(a), 2)
    assert copy == a and hash(copy) == hash(a)


def test_deep_formula_equality_and_hash():
    # 900 nested connectives: deeper than recursive __eq__/__hash__ could go
    text = "dia>=1 (C1 and not " * 300 + "top" + ")" * 300
    a, b = parse(text, 2), parse(text, 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    c = parse(text.replace("C1", "C2", 1), 2)
    assert a != c and c != a
    assert Not(a) != a and And(a, c) != And(c, a)
    assert Diamond(1, TOP) != Diamond(2, TOP) and Color(1) != Color(2)
    assert Color(1) != TOP and Color(1) != 1
    assert {Color(1): 0}[Color(1)] == 0


def test_deep_formula_printing():
    # 5000 nested negations: str and repr walk the tree with a stack, and
    # parse reads the text back with one loop
    f = Color(1)
    for _ in range(5000):
        f = Not(f)
    assert str(f) == to_text(f) == "not " * 5000 + "C1"
    assert parse(str(f), 1) == f
    assert repr(f) == "Not(child=" * 5000 + "Color(index=1)" + ")" * 5000
    deep = parse("dia>=1 (C1 and not " * 300 + "top" + ")" * 300, 2)
    assert parse(str(deep), 2) == deep
    assert repr(And(Color(2), Diamond(3, TOP))) == "And(left=Color(index=2), right=Diamond(threshold=3, child=Top()))"
