import hashlib

import numpy as np
import pytest

from gc2gnn import (
    GraphFormatError,
    LabeledGraph,
    TreeParams,
    batch_graphs,
    make_tree,
    random_graph,
    read_graph,
    write_graph,
)


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


# -- random graphs -------------------------------------------------------------


def test_random_graph_deterministic():
    a = random_graph(200, 5.0, 2, 123)
    b = random_graph(200, 5.0, 2, 123)
    assert a == b
    c = random_graph(200, 5.0, 2, 124)
    assert not (a == c)


def test_random_graph_bits_pinned():
    # 1500 vertices give 1124250 vertex pairs, more than one chunk of draws;
    # the digests were recorded when all pairs were drawn in one call.
    g = random_graph(1500, 4.0, 2, 7)
    assert g.edges.shape == (2924, 2)
    assert hashlib.sha256(g.edges.tobytes()).hexdigest() == (
        "44792eeb8022c45ed8cdd8d15b1d282c3f9906d250442f43efda124a4ae2b5b0"
    )
    assert hashlib.sha256(g.colors.tobytes()).hexdigest() == (
        "fed53d3da28f8eb7102e47a176a38e574afd90220dcee9f4ed5cea84bb082ab5"
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


def test_random_graph_invalid_probability():
    with pytest.raises(ValueError, match="invalid edge probability"):
        random_graph(10, 20.0, 1, 0)


# -- construction validation -----------------------------------------------


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        LabeledGraph(2, 1, np.ones(2, int), np.array([[0, 0]]))


def test_graph_rejects_bad_color():
    with pytest.raises(ValueError, match="color out of range"):
        LabeledGraph(2, 1, np.array([1, 2]), np.empty((0, 2), int))


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


@pytest.mark.parametrize(
    "edges,fragment",
    [
        ([[0, 1], [1, 1]], "self-loop"),  # canonical apart from the loop
        ([[0, 1], [1, 3]], "out of range"),
        ([[-1, 2]], "out of range"),
        ([[2, 5], [0, 1]], "out of range"),
    ],
)
def test_graph_rejects_bad_edges(edges, fragment):
    with pytest.raises(ValueError, match=fragment):
        LabeledGraph(3, 1, np.ones(3, int), np.array(edges))


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
        _bad_graph("3 2\n1 x 1\n", "non-integer color", "non-integer color entry"),
        _bad_graph("3 1\n1 1 2\n", "color out of range", "color out of range [1, palette]"),
        _bad_graph("3 1\n1 1 1\nroot x\n", "root x", "malformed root line 'root x'"),
        _bad_graph("3 1\n1 1 1\nroot\n", "bare root", "malformed root line 'root'"),
        _bad_graph("3 1\n1 1 1\nroot 0\nroot 1\n", "two roots", "malformed root line 'root 1'"),
        _bad_graph("3 1\n1 1 1\nroot 0\n0 1\n", "edge after root", "edge line after root line"),
        _bad_graph("3 1\n1 1 1\n0 1 2\n", "three tokens", "malformed edge line '0 1 2'"),
        _bad_graph("3 1\n1 1 1\n0 x\n", "non-integer endpoint", "malformed edge line '0 x'"),
        _bad_graph("3 1\n1 1 1\n0 0\n", "self-loop", "self-loop 0 0"),
        _bad_graph("3 1\n1 1 1\n1 0\n", "must satisfy u < v", "edge 1 0 must satisfy u < v"),
        _bad_graph("3 1\n1 1 1\n0 5\n", "out of range", "edge 0 5 out of range for n=3"),
        _bad_graph("3 1\n1 1 1\nroot 7\n", "root 7 out of range", "root 7 out of range for n=3"),
    ],
)
def test_io_rejects_malformed(tmp_path, content, message):
    path = tmp_path / "bad.graph"
    path.write_text(content)
    with pytest.raises(GraphFormatError) as info:
        read_graph(path)
    assert str(info.value) == message
