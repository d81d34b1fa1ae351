import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gc2gnn import (
    GraphFormatError,
    LabeledGraph,
    TreeParams,
    batch_graphs,
    make_tree,
    random_graph,
    random_graphs,
    read_graph,
    tree_quotient,
    write_graph,
)
from gc2gnn import graphs
from gc2gnn.graphs import _batch

from conftest import pinned_graph, tree_classes


def bfs_reachable(graph, start=0):
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in graph.neighbors(v):
                w = int(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


# -- trees --------------------------------------------------------------------


def test_tree_counts_and_degrees_full_range():
    for x in range(0, 4):
        for k in range(0, 21):
            for m in range(1, 21):
                tree, root = make_tree(TreeParams(x, k, m))
                n = 1 + m + x + (m - 1) * k
                assert tree.n == n
                assert len(tree.edges) == n - 1
                assert len(bfs_reachable(tree, root)) == n  # connected + acyclic
                degrees = tree.degrees
                assert degrees[root] == m
                assert degrees[1] == x + 1
                for i in range(2, m + 1):
                    assert degrees[i] == k + 1
                assert (degrees[m + 1 :] == 1).all()


def test_tree_example_size():
    tree, root = make_tree(TreeParams(1, 3, 4))
    assert tree.n == 15
    assert tree.degrees[root] == 4


def test_tree_leaf_coloring():
    tree, _ = make_tree(TreeParams(2, 3, 4), coloring="leaves-blue")
    assert tree.palette == 2
    assert (tree.colors[: 5] == 1).all()  # root + internal
    assert (tree.colors[5:] == 2).all()  # all leaves
    with pytest.raises(ValueError, match="coloring"):
        make_tree(TreeParams(1, 1, 1), coloring="rainbow")


@pytest.mark.parametrize("x,k,m", [(0, 0, 1), (3, 0, 1), (0, 2, 2), (1, 5, 5), (4, 3, 7), (1, 64, 64)])
@pytest.mark.parametrize("coloring", ["unicolor", "leaves-blue"])
def test_tree_quotient_lists_each_members_neighbour_classes(x, k, m, coloring):
    # a class's in-edges are every member's ascending neighbours, mapped to
    # their classes, and its color is every member's: here for the second
    # tree of a pair, so the offset of tree 1 counts too
    params = TreeParams(x, k, m)
    tree, _ = make_tree(params, coloring)
    quotient, roots = tree_quotient([params, params], coloring)
    classes = tree_classes(params) + 5
    assert roots.tolist() == [0, 5] and quotient.n == 10
    assert (np.diff(quotient.edge_dst) >= 0).all()
    for v in range(tree.n):
        listed = quotient.edge_src[quotient.edge_dst == classes[v]]
        assert classes[tree.neighbors(v)].tolist() == listed.tolist(), v
    assert quotient.palette == tree.palette
    assert np.array_equal(quotient.colors[classes], tree.colors)


def test_tree_quotient_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one tree"):
        tree_quotient([])
    with pytest.raises(ValueError, match="coloring"):
        tree_quotient([TreeParams(1, 1, 1)], "rainbow")


def loop_tree_edges(x, k, m):
    """The tree's edges as the original per-edge Python loop built them."""
    edges = [(0, i) for i in range(1, m + 1)]
    nxt = m + 1
    for _ in range(x):
        edges.append((1, nxt))
        nxt += 1
    for i in range(2, m + 1):
        for _ in range(k):
            edges.append((i, nxt))
            nxt += 1
    return sorted(set(edges))


@pytest.mark.parametrize("x,k,m", [(0, 0, 1), (3, 0, 1), (0, 2, 2), (1, 5, 5), (4, 3, 7), (1, 64, 64)])
@pytest.mark.parametrize("coloring", ["unicolor", "leaves-blue"])
def test_tree_matches_loop_construction(x, k, m, coloring):
    tree, root = make_tree(TreeParams(x, k, m), coloring)
    n = 1 + m + x + (m - 1) * k
    assert root == 0 and tree.n == n
    assert tree.edges.dtype == np.int64 and tree.edges.shape == (n - 1, 2)
    assert tree.edges.tolist() == [list(e) for e in loop_tree_edges(x, k, m)]
    want = np.ones(n, dtype=np.int64)
    if coloring == "leaves-blue":
        want[m + 1 :] = 2
    assert np.array_equal(tree.colors, want)
    assert tree.palette == (1 if coloring == "unicolor" else 2)


def test_tree_params_validation():
    with pytest.raises(ValueError):
        TreeParams(-1, 0, 1)
    with pytest.raises(ValueError):
        TreeParams(0, 0, 0)


# tree_quotient used to truncate (1.5, 2.7, 2) to the quotient of (1, 2, 2)
@pytest.mark.parametrize("sizes", [(1.5, 2.7, 2), (1, 2, 2.0), (True, 2, 2), (0, np.float64(3), 3), (0, 1, "2")],
                         ids=["float-x-k", "float-m", "bool-x", "numpy-float-k", "str-m"])
def test_tree_params_refuse_non_integer_sizes(sizes):
    with pytest.raises(ValueError, match="tree sizes must be integers"):
        TreeParams(*sizes)


def test_tree_params_take_numpy_integers():
    quotient, _ = tree_quotient([TreeParams(np.int64(1), np.int32(2), np.uint8(2))])
    want, _ = tree_quotient([TreeParams(1, 2, 2)])
    assert np.array_equal(quotient.edge_src, want.edge_src)
    assert np.array_equal(quotient.edge_dst, want.edge_dst)


INTEGER_TYPES = (int, np.int64, np.int32, np.uint8)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(1, 40), st.sampled_from(INTEGER_TYPES)),
    min_size=1, max_size=6,
), st.sampled_from(["unicolor", "leaves-blue"]))
def test_tree_quotient_is_the_array_builder_on_its_sizes(trees, coloring):
    # tree_quotient reads its TreeParams, of any integer type, into the one
    # builder that tree_roots calls with arrays of k values
    params = [TreeParams(kind(x), kind(k), kind(m)) for x, k, m, kind in trees]
    x, k, m = (np.array(column, dtype=np.int64) for column in zip(*[t[:3] for t in trees]))
    got, got_roots = tree_quotient(params, coloring)
    want, want_roots = graphs._trees_quotient(x, k, m, coloring)
    assert (got.n, got.palette) == (want.n, want.palette) == (5 * len(trees), 1 if coloring == "unicolor" else 2)
    for field in ("colors", "edge_src", "edge_dst"):
        assert getattr(got, field).dtype == np.int64
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert np.array_equal(got_roots, want_roots)


# -- random graphs -------------------------------------------------------------


def test_random_graph_deterministic():
    a = random_graph(200, 5.0, 2, 123)
    b = random_graph(200, 5.0, 2, 123)
    assert a == b
    c = random_graph(200, 5.0, 2, 124)
    assert not (a == c)


def test_random_graph_bits_pinned():
    # any change to the gap draw, the batch sizes or the color draw moves these
    g = random_graph(1500, 4.0, 2, 7)
    assert g.edges.shape == (2983, 2)
    assert hashlib.sha256(g.edges.tobytes()).hexdigest() == (
        "5c65d2e732844b9655de2decf9c06b8a13397fe52cf6604c19ef89390ae0ca70"
    )
    assert hashlib.sha256(g.colors.tobytes()).hexdigest() == (
        "4c980ba718e9cc2aa047d2978cddea2d716753733b2319d3f152061a2baf09fc"
    )


def test_random_graph_single_vertex():
    g = random_graph(1, 0.0, 1, 5)
    assert g.n == 1 and len(g.edges) == 0


def test_random_graph_mean_degree():
    means = []
    for seed in range(20):
        g = random_graph(2000, 5.0, 1, seed)
        means.append(2 * len(g.edges) / g.n)
    mean = float(np.mean(means))
    assert abs(mean - 5.0) <= 0.5


@pytest.mark.parametrize("palette", [1, 2, 3])
def test_random_graph_colors_partition(palette):
    g = random_graph(500, 4.0, palette, 7)
    assert g.colors.min() >= 1 and g.colors.max() <= palette


@pytest.mark.parametrize("n,avg_degree,edges", [
    (1, 3.0, 0),  # one vertex has no pair, whatever the degree asked for
    (30, 0.0, 0),
    (30, 1e-300, 0),  # the skip quotient exceeds any int64 and is clamped
    (30, 29.0, 435),  # p = 1: the complete graph
])
def test_random_graph_edge_cases(n, avg_degree, edges):
    g = random_graph(n, avg_degree, 2, 5)
    assert g.n == n and len(g.edges) == edges
    if edges:
        i, j = np.triu_indices(n, 1)
        assert np.array_equal(g.edges, np.stack([i, j], axis=1))


def test_random_graph_edge_count_is_binomial():
    # Over 1000 seeds at n = 50, avg_degree 4 the edge count is
    # Binomial(1225, 4/49): mean 100, variance 91.8.  The sample mean's
    # standard error is 0.30 and the sample variance's about 4.1; the
    # tolerances are five of each.
    n, seeds = 50, 1000
    union, _ = random_graphs(n, 4.0, 1, range(seeds))
    counts = np.bincount(union.edges[:, 0] // n, minlength=seeds)
    p = 4.0 / 49
    assert abs(counts.mean() - 1225 * p) <= 1.5
    assert abs(counts.var(ddof=1) - 1225 * p * (1 - p)) <= 20.0


def test_random_graph_hits_spread_evenly_over_pairs():
    # Row i of the pair index holds the n - 1 - i pairs (i, j > i); over 1000
    # seeds at n = 50, p = 4/49 its count has mean 1000 p (n - 1 - i).  The
    # chi-square of the 49 rows has mean about 49 and deviation about 10.
    # The first and the last pair, which an off-by-one in the skip would
    # never keep, are each kept Binomial(1000, p) times: mean 81.6, deviation
    # 8.7.  Every bound is five deviations.
    n, seeds = 50, 1000
    union, _ = random_graphs(n, 4.0, 1, range(seeds))
    u, v = union.edges[:, 0] % n, union.edges[:, 1] % n
    p = 4.0 / 49
    want = seeds * p * np.arange(n - 1, 0, -1)
    rows = np.bincount(u, minlength=n - 1)  # u < v, so u < n - 1
    assert ((rows - want) ** 2 / want).sum() <= 49 + 5 * 10
    for pair in ((0, 1), (n - 2, n - 1)):
        kept = int(((u == pair[0]) & (v == pair[1])).sum())
        assert abs(kept - seeds * p) <= 5 * 8.7, (pair, kept)


class ZeroUniforms:
    """A seeded generator whose uniforms are all 0."""

    default_rng = np.random.default_rng  # numpy's, before a test patches it

    def __init__(self, seed):
        self.rng = ZeroUniforms.default_rng(seed)

    def random(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


def test_random_graph_refill_continues_after_the_last_hit(monkeypatch):
    # a uniform of 0 makes its gap 1, so every pair is kept: each batch of
    # gaps falls short, and each refill must start right after the last pair
    # the batch before it kept, or a pair is skipped or kept twice
    monkeypatch.setattr(np.random, "default_rng", ZeroUniforms)
    union, _ = random_graphs(60, 1.0, 2, [1, 2])
    i, j = np.triu_indices(60, 1)
    whole = np.stack([i, j], axis=1)
    assert np.array_equal(union.edges, np.concatenate([whole, whole + 60]))


def test_random_graph_refill_seed_falls_short():
    # A seed's first batch holds _batch(p * total) gaps and falls short
    # exactly when the graph keeps that many pairs or more: so seeds 745 and
    # 1813 at n = 1500, avg_degree 4 draw a second batch, and seed 8 does not.
    first = _batch(4.0 / 1499 * (1500 * 1499 // 2))
    kept = {s: len(random_graph(1500, 4.0, 3, s).edges) for s in (745, 1813, 8)}
    assert kept[745] >= first and kept[1813] >= first and kept[8] < first


@pytest.mark.parametrize("n,avg_degree,seeds", [
    (1, 0.0, [3, 4]),
    (2, 1.0, [0]),
    (12, 3.0, [5, 6, 7, 8]),
    (40, 5.0, [11, 2, 11]),
    (1500, 4.0, [745, 8, 1813]),  # seeds 745 and 1813 refill their batch of gaps
])
def test_random_graphs_is_the_batch_of_random_graph(n, avg_degree, seeds):
    union, offsets = random_graphs(n, avg_degree, 3, seeds)
    want, want_offsets = batch_graphs([random_graph(n, avg_degree, 3, s) for s in seeds])
    assert union == want
    assert offsets.tolist() == want_offsets.tolist()


def test_random_graph_memory_is_linear():
    # 10^6 vertices and about 2.5 * 10^6 edges are sampled in O(n + E)
    # memory, where one byte per vertex pair would be 5 * 10^11 bytes
    n = 10**6
    tracemalloc.start()
    try:
        g = random_graph(n, 5.0, 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(2 * len(g.edges) / n - 5.0) <= 0.05
    assert peak <= 128 * (n + len(g.edges)), peak / (n + len(g.edges))


def test_random_graphs_needs_a_seed():
    with pytest.raises(ValueError, match="at least one graph"):
        random_graphs(10, 2.0, 1, [])


def test_random_graph_invalid_probability():
    with pytest.raises(ValueError, match="invalid edge probability"):
        random_graph(10, 20.0, 1, 0)


@pytest.mark.parametrize(
    "n,palette,message",
    [
        (0, 1, "n must be an integer >= 1, got 0"),
        (10, 0, "palette must be an integer >= 1, got 0"),
        (10, -2, "palette must be an integer >= 1, got -2"),
    ],
)
def test_random_graphs_check_sizes_before_drawing(monkeypatch, n, palette, message):
    # a palette below 1 reached rng.integers, which raised numpy's "low >= high"
    def refuse(seed):
        raise AssertionError("drew before checking the sizes")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match=message):
        random_graphs(n, 2.0, palette, [0])


# -- construction validation -----------------------------------------------


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        LabeledGraph(2, 1, np.ones(2, int), np.array([[0, 0]]))


def test_graph_rejects_bad_color():
    with pytest.raises(ValueError, match="color out of range"):
        LabeledGraph(2, 1, np.array([1, 2]), np.empty((0, 2), int))


# these were truncated: colors 1.7, 2.2, 1.0 to 1, 2, 1 and the edge (0, 1.9) to (0, 1)
@pytest.mark.parametrize(
    "n,palette,colors,edges,message",
    [
        pytest.param(3, 2, [1.7, 2.2, 1.0], [[0, 1.9]], "colors must be integers, got dtype float64",
                     id="float-colors"),
        pytest.param(3, 2, [1, 2, 1], [[0, 1.9]], "edges must be integers, got dtype float64", id="float-edges"),
        pytest.param(2, 1, [True, True], [[0, 1]], "colors must be integers, got dtype bool", id="bool-colors"),
        pytest.param(2, 1.5, [1, 1], [[0, 1]], "n and palette must be integers", id="palette-1.5"),
        pytest.param(2, True, [1, 1], [[0, 1]], "n and palette must be integers", id="palette-true"),
        pytest.param(2.0, 1, [1, 1], [[0, 1]], "n and palette must be integers", id="n-2.0"),
    ],
)
def test_graph_refuses_non_integer_input(n, palette, colors, edges, message):
    with pytest.raises(ValueError, match=message):
        LabeledGraph(n, palette, np.array(colors), np.array(edges))


def test_graph_takes_numpy_integers_and_empty_float_edges():
    g = LabeledGraph(np.int64(2), np.int32(2), np.array([1, 2], dtype=np.uint8), np.empty((0, 2)))
    assert g.colors.dtype == np.int64 and g.colors.tolist() == [1, 2]
    assert g.edges.dtype == np.int64 and g.edges.shape == (0, 2)


def test_graph_canonicalizes_edges():
    g = LabeledGraph(3, 1, np.ones(3, int), np.array([[2, 0], [0, 1], [1, 0]]))
    assert np.array_equal(g.edges, [[0, 1], [0, 2]])
    assert list(g.neighbors(0)) == [1, 2]


@pytest.mark.parametrize(
    "edges,want",
    [
        ([[0, 1], [0, 1]], [[0, 1]]),  # sorted, with a duplicate
        ([[0, 2], [0, 1]], [[0, 1], [0, 2]]),  # canonical pairs out of order
        ([[1, 0], [2, 1]], [[0, 1], [1, 2]]),  # ascending, but u > v
        ([[1, 2], [0, 2], [2, 0]], [[0, 2], [1, 2]]),
        ([[0, 1], [0, 2], [1, 2]], [[0, 1], [0, 2], [1, 2]]),  # already canonical
    ],
)
def test_graph_canonical_check(edges, want):
    g = LabeledGraph(3, 1, np.ones(3, int), np.array(edges))
    assert g.edges.tolist() == want
    assert g.edges.dtype == np.int64 and g.edges.flags.c_contiguous


# Each message names the first edge, in input order, that fails its check.
@pytest.mark.parametrize(
    "edges,message",
    [
        # canonical apart from the loop
        pytest.param([[0, 1], [1, 1]], "self-loop 1 1", id="edges0-self-loop"),
        pytest.param([[0, 1], [1, 3]], "edge 1 3 out of range for n=3", id="edges1-out of range"),
        pytest.param([[-1, 2]], "edge -1 2 out of range for n=3", id="edges2-out of range"),
        pytest.param([[2, 5], [0, 1]], "edge 2 5 out of range for n=3", id="edges3-out of range"),
        pytest.param([[0, 1], [2, 7], [1, 9]], "edge 2 7 out of range for n=3", id="first-of-two"),
        # loops are checked before ranges
        pytest.param([[0, 5], [2, 2]], "self-loop 2 2", id="loop-before-range"),
    ],
)
def test_graph_rejects_bad_edges(edges, message):
    with pytest.raises(ValueError) as info:
        LabeledGraph(3, 1, np.ones(3, int), np.array(edges))
    assert str(info.value) == message


def test_batch_graphs_layout(triangle, isolated_vertex):
    tree, _ = make_tree(TreeParams(1, 2, 2), "leaves-blue")
    union, offsets = batch_graphs([triangle, tree, isolated_vertex])
    assert offsets.tolist() == [0, 3, 3 + tree.n, 4 + tree.n]
    assert union.n == 4 + tree.n and union.palette == 2
    assert np.array_equal(union.colors, np.concatenate([triangle.colors, tree.colors, [1]]))
    want = np.concatenate([triangle.edges, tree.edges + 3])
    assert np.array_equal(union.edges, want)
    for graph, off in zip((triangle, tree, isolated_vertex), offsets):
        for v in range(graph.n):
            assert np.array_equal(union.neighbors(off + v), graph.neighbors(v) + off)


def test_batch_graphs_single_and_empty(path3):
    union, offsets = batch_graphs([path3])
    assert union is path3 and offsets.tolist() == [0, 3]
    with pytest.raises(ValueError, match="at least one graph"):
        batch_graphs([])


@st.composite
def canonical_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return n, np.array(sorted(chosen), dtype=np.int64).reshape(-1, 2)


def assert_adjacency_sorted(g):
    """The directed edge arrays are both directions of every edge, ordered by
    (dst, src) as ``np.lexsort`` orders them."""
    src = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    dst = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    order = np.lexsort((src, dst))
    assert g.edge_src.tolist() == src[order].tolist()
    assert g.edge_dst.tolist() == dst[order].tolist()


@settings(max_examples=60, deadline=None)
@given(canonical_graphs())
def test_adjacency_is_sorted_by_dst_then_src(graph):
    n, edges = graph
    assert_adjacency_sorted(LabeledGraph(n, 1, np.ones(n, dtype=np.int64), edges))


def test_adjacency_of_large_graphs_is_sorted_by_dst_then_src():
    # the keys dst*n + src are unique, so the default sort kind gives the
    # lexsort order on a 4000-vertex union of random graphs and on a tree,
    # whose keys come in long sorted runs, alike
    union, _ = random_graphs(200, 5.0, 3, range(20))
    tree, _ = make_tree(TreeParams(64, 64, 64))
    for g in (union, tree):
        assert g.edges.shape[0] > 4000
        assert_adjacency_sorted(g)


def test_max_degree(triangle):
    assert triangle.max_degree == 2


# -- text format ----------------------------------------------------------------


def test_io_round_trip_triangle(tmp_path, triangle):
    path = tmp_path / "tri.graph"
    write_graph(path, triangle)
    back, root = read_graph(path)
    assert back == triangle and root is None


def test_io_round_trip_tree_with_root(tmp_path):
    tree, root = make_tree(TreeParams(1, 3, 4))
    path = tmp_path / "tree.graph"
    write_graph(path, tree, root=root)
    back, back_root = read_graph(path)
    assert back == tree and back_root == root


def test_io_round_trip_colored(tmp_path):
    g = random_graph(50, 4.0, 3, 11)
    path = tmp_path / "g.graph"
    write_graph(path, g)
    back, _ = read_graph(path)
    assert back == g


# sha256 of the file write_graph writes for the pinned random_graph(40,
# 3.0, 3, 5), without a root and with root 7.
WRITE_GRAPH_SHA256 = {
    None: "37df57dddfecc30a2bcd955480a5ae5600be21cab1334e19e0fb86cab59e8117",
    7: "f350d48e1cbba6883c045f2b2c21bd777b2ebb861a4fc5f47132f18c212a3c77",
}


@pytest.mark.parametrize("root", [None, 7])
def test_write_graph_bytes_pinned(tmp_path, root):
    path = tmp_path / "g.graph"
    write_graph(path, pinned_graph(40, 3.0, 3, 5), root=root)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITE_GRAPH_SHA256[root]


@pytest.mark.parametrize("root", [-1, 3])
def test_write_graph_rejects_bad_root_before_writing(tmp_path, triangle, root):
    path = tmp_path / "tri.graph"
    with pytest.raises(ValueError, match=f"root {root} out of range"):
        write_graph(path, triangle, root=root)
    assert not path.exists()


def _bad_graph(content, label, message):
    return pytest.param(content, message, id=f"{content}-{label}")


# Every message read_graph raises, pinned in full.
@pytest.mark.parametrize(
    "content,message",
    [
        _bad_graph("junk\n", "file too short", "file too short: need a header line and a color line"),
        _bad_graph("3\n1 1 1\n", "one-token header", "malformed header '3': expected 'n palette'"),
        _bad_graph("a b\n1\n", "malformed header", "malformed header 'a b'"),
        _bad_graph("3 1\n1 1\n", "expected 3 colors", "expected 3 colors, found 2"),
        _bad_graph("3 2\n1 x 1\n", "non-integer color", "non-integer entry in 'x'"),
        _bad_graph("3 1\n1 1 2\n", "color out of range", "color out of range [1, 1]: vertex 2 has color 2"),
        _bad_graph("3 1\n1 99999999999999999999999 1\n", "color beyond int64",
                   "non-integer entry in '99999999999999999999999'"),
        _bad_graph("3 1\n1 1 1\nroot x\n", "root x", "malformed root line 'root x'"),
        _bad_graph("3 1\n1 1 1\nroot\n", "bare root", "malformed root line 'root'"),
        _bad_graph("3 1\n1 1 1\nroot 0\nroot 1\n", "two roots", "non-integer entry in 'root 0'"),
        _bad_graph("3 1\n1 1 1\nroot 0\n0 1\n", "edge after root", "non-integer entry in 'root 0'"),
        _bad_graph("3 1\n1 1 1\n0 1 2\n", "three tokens", "expected 2 entries, got '0 1 2'"),
        _bad_graph("3 1\n1 1 1\n0 x\n", "non-integer endpoint", "non-integer entry in '0 x'"),
        _bad_graph("3 1\n1 1 1\n0 1_0\n", "digit group", "non-integer entry in '0 1_0'"),
        _bad_graph("3 1\n1 1 1\n0 1.0\n", "decimal point", "non-integer entry in '0 1.0'"),
        _bad_graph("3 1\n1 1 1\n0 99999999999999999999\n", "endpoint beyond int64",
                   "non-integer entry in '0 99999999999999999999'"),
        _bad_graph("3 1\n1 1 1\n0 0\n", "self-loop", "self-loop 0 0"),
        _bad_graph("3 1\n1 1 1\n1 0\n", "must satisfy u < v", "edge 1 0 must satisfy u < v"),
        _bad_graph("3 1\n1 1 1\n0 5\n", "out of range", "edge 0 5 out of range for n=3"),
        _bad_graph("3 1\n1 1 1\nroot 7\n", "root 7 out of range", "root 7 out of range for n=3"),
        _bad_graph("3 1\n1\u00a01 1\n0 1\n", "no-break space", "non-ASCII byte at offset 5"),
        _bad_graph("3 1\n1 1 1\n0 \u0661\n", "Arabic-Indic digit", "non-ASCII byte at offset 12"),
    ],
)
def test_io_rejects_malformed(tmp_path, content, message):
    path = tmp_path / "bad.graph"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(GraphFormatError) as info:
        read_graph(path)
    assert str(info.value) == message


def test_read_graph_finds_a_bad_row_by_halving(tmp_path, monkeypatch):
    # 4096 edge rows, the last one bad: the colors and the whole block take
    # one np.loadtxt call each, and halving 4096 rows takes 12 more
    lines = ["4097 1", " ".join(["1"] * 4097)] + [f"{i} {i + 1}" for i in range(4095)] + ["0 x"]
    path = tmp_path / "bad.graph"
    path.write_text("\n".join(lines) + "\n")
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(1) or loadtxt(*args, **kwargs))
    with pytest.raises(GraphFormatError, match="non-integer entry in '0 x'"):
        read_graph(path)
    assert len(calls) <= 14


def test_readme_graph_example_is_a_tree(tmp_path):
    # README "File formats" shows a graph file, the smallest sweep tree with blue leaves
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## File formats", 1)[1].split("```")[1].lstrip("\n")
    path = tmp_path / "tree.graph"
    path.write_text(example)
    tree, root = make_tree(TreeParams(1, 1, 2), "leaves-blue")
    assert read_graph(path) == (tree, root)
    write_graph(path, tree, root=root)
    assert path.read_text() == example


def test_read_graph_memory_is_linear(tmp_path):
    # 3 * 10^5 edges (i, i + 1), (i, i + 2), (i, i + 3) and a root line: the
    # edges are parsed as one block, so the peak is a small multiple of the file
    n = 100_000
    u = np.repeat(np.arange(n, dtype=np.int64), 3)
    v = u + np.tile([1, 2, 3], n)
    keep = v < n
    graph = LabeledGraph(n, 3, np.arange(n) % 3 + 1, np.stack([u[keep], v[keep]], axis=1))
    path = tmp_path / "big.graph"
    write_graph(path, graph, root=7)
    tracemalloc.start()
    try:
        back, root = read_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == graph and root == 7
    assert peak <= 12 * path.stat().st_size
