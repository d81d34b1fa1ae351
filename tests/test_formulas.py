import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gc2gnn import (
    TOP,
    And,
    Color,
    Diamond,
    FormulaSyntaxError,
    Not,
    Top,
    depth,
    eval_oracle,
    eval_oracle_all,
    parse,
    random_formula,
    random_graph,
    subformulas,
    to_text,
)
from gc2gnn.experiments import Q1_TEXT, Q2_TEXT


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


def test_depth_values():
    assert depth(Color(1)) == 1
    assert depth(TOP) == 0
    assert depth(parse(Q1_TEXT, 1)) == 4
    assert depth(parse(Q2_TEXT, 2)) == 7


# -- the evaluator -----------------------------------------------------------


def test_q1_isolated_vertex(q1, isolated_vertex):
    assert eval_oracle(q1, isolated_vertex, 0) is True


def test_q1_single_edge(q1, single_edge):
    assert eval_oracle(q1, single_edge, 0) is False
    assert eval_oracle(q1, single_edge, 1) is False


def test_q1_triangle(q1, triangle):
    assert eval_oracle_all(q1, triangle).all()


def test_eval_vertex_out_of_range(q1, triangle):
    with pytest.raises(ValueError, match="out of range"):
        eval_oracle(q1, triangle, 5)


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


def test_node_invariants():
    with pytest.raises(ValueError):
        Color(0)
    with pytest.raises(ValueError):
        Diamond(0, TOP)
