"""Vertex-colored simple graphs, the two-level tree family, random corpora, text I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "LabeledGraph",
    "TreeParams",
    "GraphFormatError",
    "OrderedQuotient",
    "batch_graphs",
    "make_tree",
    "random_graph",
    "random_graphs",
    "read_graph",
    "tree_quotient",
    "write_graph",
]


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed into a valid graph."""


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool: the one test of an integer
    argument, such as a size, an index, a node payload or a composition depth."""
    return type(value) is int or (isinstance(value, (int, np.integer)) and not isinstance(value, bool))


def _int_array(values, what: str) -> np.ndarray:
    """``values`` as a contiguous int64 array, not copied if it is one; a
    non-empty ``values`` of another dtype than an integer one raises."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {array.dtype}")
    return np.ascontiguousarray(array, dtype=np.int64)


def _first_sums(graph) -> dict:
    """The layer-1 neighbour sums that forward passes on ``graph`` have read,
    by initial kind: ``"0"``, ``"1"`` (the degree) and ``"C<c>"`` (the
    number of neighbours colored c), each a read-only (n,) float64 row.
    ``backend.layer_states`` fills it on first use of a kind; it lives in
    the graph's own ``__dict__``, so it goes when the graph does."""
    return {}


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Finite simple undirected graph with exactly one color per vertex.

    ``edges`` stores each undirected edge once as ``(u, v)`` with ``u < v``,
    lexicographically sorted and deduplicated; ``colors`` takes values in
    ``[1, palette]``.  Contiguous int64 input that already has this form is
    kept, not copied, so callers must not modify it afterwards.  ``n`` and
    ``palette`` must be Python or numpy integers and non-empty ``colors``
    and ``edges`` integer arrays: a float or a bool raises instead of being
    truncated.
    """

    n: int
    palette: int
    colors: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        if not (_is_integer(self.n) and _is_integer(self.palette)):
            raise ValueError(f"n and palette must be integers, got n={self.n!r}, palette={self.palette!r}")
        if self.n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={self.n}")
        if self.palette < 1:
            raise ValueError(f"palette size must be >= 1, got {self.palette}")
        colors = _int_array(self.colors, "colors")
        if colors.shape != (self.n,):
            raise ValueError(f"expected {self.n} colors, got shape {colors.shape}")
        if colors.min() < 1 or colors.max() > self.palette:
            v = int(np.argmax((colors < 1) | (colors > self.palette)))
            raise ValueError(f"color out of range [1, {self.palette}]: vertex {v} has color {colors[v]}")
        edges = _int_array(self.edges, "edges").reshape(-1, 2)
        if edges.size:
            u, v = edges[:, 0], edges[:, 1]
            # each check names the first edge it rejects
            loop = u == v
            if loop.any():
                raise ValueError("self-loop {} {}".format(*edges[np.argmax(loop)]))
            out = (np.minimum(u, v) < 0) | (np.maximum(u, v) >= self.n)
            if out.any():
                raise ValueError("edge {} {} out of range for n={}".format(*edges[np.argmax(out)], self.n))
            # Edges that are already canonical (u < v, strictly ascending
            # u*n + v) are kept as they are: an O(E) check instead of a sort.
            if not ((u < v).all() and (np.diff(u * self.n + v) > 0).all()):
                lo = np.minimum(u, v)
                hi = np.maximum(u, v)
                edges = np.unique(np.stack([lo, hi], axis=1), axis=0)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other):
        return (
            isinstance(other, LabeledGraph)
            and self.n == other.n
            and self.palette == other.palette
            and np.array_equal(self.colors, other.colors)
            and np.array_equal(self.edges, other.edges)
        )

    @cached_property
    def _adjacency(self):
        # Directed edge arrays sorted by (dst, src): per-vertex neighbor lists
        # come out in ascending order, which fixes the accumulation order of
        # neighbor sums and keeps forward passes bit-reproducible.  The keys
        # dst*n + src are unique, so sorting them alone, in place, gives that
        # order with less memory than sorting indices on two keys, and any
        # sort kind gives the same array.
        u, v = self.edges[:, 0], self.edges[:, 1]
        key = np.concatenate([v * self.n + u, u * self.n + v])
        key.sort()
        dst, src = np.divmod(key, self.n)
        return src, dst

    _first_sums = cached_property(_first_sums)

    @property
    def edge_src(self) -> np.ndarray:
        return self._adjacency[0]

    @property
    def edge_dst(self) -> np.ndarray:
        return self._adjacency[1]

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_dst, minlength=self.n)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max())

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of ``v``, ascending."""
        if not _is_integer(v):
            raise ValueError(f"vertex must be an integer, got {v!r}")
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        lo, hi = np.searchsorted(self.edge_dst, [v, v + 1])
        return self.edge_src[lo:hi]


def _check_tree_sizes(x, k, m) -> None:
    """The checks of ``TreeParams(x, k, m)``, with its messages, made
    without building one."""
    # the plain-int test first: a sweep checks a hundred of these
    if not type(x) is type(k) is type(m) is int and not all(map(_is_integer, (x, k, m))):
        raise ValueError(f"tree sizes must be integers, got TreeParams(x={x!r}, k={k!r}, m={m!r})")
    if x < 0 or k < 0:
        raise ValueError("leaf counts must be non-negative")
    if m < 1:
        raise ValueError("need at least one internal vertex (m >= 1)")


@dataclass(frozen=True)
class TreeParams:
    """Knobs of the rooted tree family: ``x`` leaves under the first internal
    vertex, ``k`` leaves under each of the remaining ``m - 1``; each a
    Python or numpy integer, not a bool."""

    x: int
    k: int
    m: int

    def __post_init__(self):
        _check_tree_sizes(self.x, self.k, self.m)


def _leaf_color(coloring: str) -> int:
    """The leaves' color, and the palette, of a tree under ``coloring``; the
    root and the internal vertices have color 1."""
    if coloring not in ("unicolor", "leaves-blue"):
        raise ValueError(f"unknown coloring {coloring!r}")
    return 1 if coloring == "unicolor" else 2


def make_tree(params: TreeParams, coloring: str = "unicolor") -> tuple[LabeledGraph, int]:
    """Build the two-level tree for ``params`` and return it with its root id.

    Vertex layout: 0 is the root, 1..m are the internal vertices, then the
    x leaves under vertex 1 followed by the k leaves under each of 2..m.
    ``coloring`` is ``"unicolor"`` (palette 1) or ``"leaves-blue"`` (root and
    internal vertices colored 1, every leaf colored 2).
    """
    x, k, m = params.x, params.k, params.m
    leaf = _leaf_color(coloring)
    n = 1 + m + x + (m - 1) * k
    # Vertex i > 0 hangs under parents[i - 1]; parents never decrease, so
    # the edges come out canonical and sorted.
    parents = np.concatenate([
        np.zeros(m, dtype=np.int64),
        np.ones(x, dtype=np.int64),
        np.repeat(np.arange(2, m + 1, dtype=np.int64), k),
    ])
    edge_arr = np.stack([parents, np.arange(1, n, dtype=np.int64)], axis=1)
    colors = np.ones(n, dtype=np.int64)
    colors[m + 1 :] = leaf
    return LabeledGraph(n, leaf, colors, edge_arr), 0


@dataclass(frozen=True, eq=False)
class OrderedQuotient:
    """A directed multigraph that a forward pass runs in place of a larger
    simple graph: one vertex per class of vertices whose neighbours, in
    ascending order, fall in the same sequence of classes.

    A class's in-edges list the classes of one member's neighbours in that
    member's ascending order, and the edges are grouped by ``edge_dst``,
    ascending.  ``np.bincount`` over them adds a class's neighbour values in
    the order it adds a member's in the graph itself, and every other step
    of a forward pass is elementwise, so each member gets its class's value
    bit for bit.
    """

    n: int
    palette: int
    colors: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray

    _first_sums = cached_property(_first_sums)

    @property
    def edges(self) -> np.ndarray:
        """The in-edges as ``(src, dst)`` rows, each directed edge once."""
        return np.stack([self.edge_src, self.edge_dst], axis=1)


# The in-edges of a tree's five classes, 0 the root, 1 vertex 1, 2 the
# internal vertices 2..m, 3 the leaves under vertex 1 and 4 the other
# leaves: (source, destination) runs, grouped by destination and each in
# the ascending neighbour order of make_tree's layout.
_TREE_RUNS = np.array([(1, 0), (2, 0), (0, 1), (3, 1), (0, 2), (4, 2), (1, 3), (2, 4)], dtype=np.int64)


def tree_quotient(trees, coloring: str = "unicolor") -> tuple[OrderedQuotient, np.ndarray]:
    """The ordered quotient of ``batch_graphs([make_tree(p, coloring)[0] for p
    in trees])``, and the class of each tree's root.

    Tree i takes classes 5i..5i+4: its root, vertex 1, the other internal
    vertices, the leaves under vertex 1 and the other leaves.  A class with
    no member (the other internal vertices when m = 1, the leaves under
    vertex 1 when x = 0) keeps its vertex, which no class with members
    reads.  A tree has m + x + k + 4 in-edges, so building and running the
    quotient takes O(m + x + k), not the tree's O(m k).  The sizes come from
    the ``TreeParams``, which checked them, and ``_trees_quotient`` builds
    the quotient.
    """
    trees = list(trees)
    if not trees:
        raise ValueError("need at least one tree")
    x, k, m = np.array([(p.x, p.k, p.m) for p in trees], dtype=np.int64).T
    return _trees_quotient(x, k, m, coloring)


def _trees_quotient(x, k, m, coloring: str) -> tuple[OrderedQuotient, np.ndarray]:
    """``tree_quotient`` of the trees ``TreeParams(x[i], k[i], m[i])``, from
    three int64 arrays of one length whose sizes meet ``TreeParams``'s
    checks: the one builder of a tree quotient, which makes no ``TreeParams``."""
    leaf = _leaf_color(coloring)
    count = len(x)
    # each tree's runs hold one edge, or m - 1, x or k
    counts = np.ones((count, 8), dtype=np.int64)
    counts[:, 1] = m - 1
    counts[:, 3] = x
    counts[:, 5] = k
    roots = 5 * np.arange(count, dtype=np.int64)
    runs = (_TREE_RUNS + roots[:, None, None]).reshape(-1, 2)
    quotient = OrderedQuotient(
        5 * count,
        leaf,
        np.tile(np.array([1, 1, 1, leaf, leaf], dtype=np.int64), count),
        np.repeat(runs[:, 0], counts.ravel()),
        np.repeat(runs[:, 1], counts.ravel()),
    )
    return quotient, roots


def batch_graphs(graphs) -> tuple[LabeledGraph, np.ndarray]:
    """Disjoint union of ``graphs`` and its vertex offsets.

    Graph i's vertex v is vertex ``offsets[i] + v`` of the union, whose
    palette is the largest of the graphs'.  Message passing and the oracle
    see only a vertex's component, so every vertex gets the same values in
    the union as in its own graph; offsetting keeps neighbour lists
    ascending, so forward passes agree bit for bit.  One graph is returned
    as it is, with offsets ``[0, n]``.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph to batch")
    offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    np.cumsum([g.n for g in graphs], out=offsets[1:])
    if len(graphs) == 1:
        return graphs[0], offsets
    union = LabeledGraph(
        int(offsets[-1]),
        max(g.palette for g in graphs),
        np.concatenate([g.colors for g in graphs]),
        # canonical and ascending, so the union skips the sort
        np.concatenate([g.edges + off for g, off in zip(graphs, offsets)]),
    )
    return union, offsets


def random_graph(n: int, avg_degree: float, palette: int, seed: int) -> LabeledGraph:
    """Erdos-Renyi G(n, p) with p = avg_degree/(n-1) and uniform colors.

    Deterministic per seed: edges are drawn first, by geometric skipping in
    O(n + E) time and memory, colors second (see ``random_graphs``).
    """
    return random_graphs(n, avg_degree, palette, [seed])[0]


def _batch(mean: float) -> int:
    """Gaps to draw at once where ``mean`` pairs are expected to be kept:
    three standard deviations more, so that a batch rarely falls short."""
    return int(mean + 3.0 * mean**0.5) + 1


def _skip(start, u: np.ndarray, p: float, total: int) -> np.ndarray:
    """The pair indices after ``start`` that uniforms ``u`` keep, along the
    last axis: the gaps between them are Geometric(p), drawn by inversion.
    Each gap is clamped at ``total`` before the int64 cast, since at tiny p
    the quotient exceeds any int64."""
    gaps = np.minimum(np.floor(np.log1p(-u) / math.log1p(-p)), total).astype(np.int64) + 1
    return start + np.cumsum(gaps, axis=-1)


def random_graphs(n: int, avg_degree: float, palette: int, seeds) -> tuple[LabeledGraph, np.ndarray]:
    """``batch_graphs([random_graph(n, avg_degree, palette, s) for s in seeds])``,
    sampled in one pass that builds and checks only the union.

    Each seed draws from its own generator exactly as ``random_graph`` does,
    so graph i of the union has the bits of ``random_graph(..., seeds[i])``.
    The edges come from geometric skipping (Batagelj & Brandes 2005): a seed
    draws the Geometric(p) gaps between its kept vertex pairs, O(E) uniforms
    in batches until the running pair index passes n(n-1)/2, and then its n
    colors. Nothing is allocated per vertex pair.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one graph to batch")
    if not _is_integer(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not _is_integer(palette) or palette < 1:
        raise ValueError(f"palette must be an integer >= 1, got {palette!r}")
    p = 0.0 if n == 1 else avg_degree / (n - 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"invalid edge probability {p} (avg_degree={avg_degree}, n={n})")
    # Pairs (i, j), i < j, are numbered row by row, so row i ends before
    # row_end[i] and pair L of row i has j = L - row_end[i] + n.
    row_end = np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))
    total = n * (n - 1) // 2
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if 0.0 < p < 1.0:
        # Every seed's first batch has the same size, so the first gaps of
        # all seeds are skipped in one (seeds, batch) array: on a corpus of
        # small graphs that beats skipping each seed's gaps on its own.
        u = np.empty((len(seeds), _batch(p * total)))
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        hits = []
        for rng, first in zip(rngs, _skip(-1, u, p, total)):
            parts = [first]
            while parts[-1][-1] < total:  # the batch fell short of the last pair
                last = int(parts[-1][-1])
                parts.append(_skip(last, rng.random(_batch(p * (total - 1 - last))), p, total))
            hit = np.concatenate(parts)
            hits.append(hit[hit < total])
    else:  # no gap to draw: no pair is kept, or every one
        hits = [np.arange(total if p else 0, dtype=np.int64)] * len(seeds)
    colors = [rng.integers(1, palette + 1, size=n) for rng in rngs]
    hit = np.concatenate(hits)
    # the first vertex of each hit's graph
    off = np.repeat(np.arange(len(seeds), dtype=np.int64) * n, [len(h) for h in hits])
    i = np.searchsorted(row_end, hit, side="right")
    # graph after graph, each canonical and ascending, so the union skips the sort
    edges = np.stack([i + off, hit - row_end[i] + n + off], axis=1)
    union = LabeledGraph(n * len(seeds), palette, np.concatenate(colors), edges)
    return union, np.arange(len(seeds) + 1, dtype=np.int64) * n


def write_graph(path, graph: LabeledGraph, root: int | None = None) -> None:
    """Write the line-oriented text format (header, colors, edges, optional root)."""
    if root is not None and not _is_integer(root):
        raise ValueError(f"root must be an integer, got {root!r}")
    if root is not None and not 0 <= root < graph.n:
        raise ValueError(f"root {root} out of range")
    lines = [f"{graph.n} {graph.palette}", " ".join(map(str, graph.colors.tolist()))]
    lines.extend(f"{u} {v}" for u, v in graph.edges.tolist())
    if root is not None:
        lines.append(f"root {root}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_ascii(path, error) -> str:
    """The text of the file at ``path``; a non-ASCII byte raises ``error``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise error(f"non-ASCII byte at offset {exc.start}") from exc


def _parse_block(rows, width, error) -> np.ndarray:
    """Rows of ``width`` decimal integers each, as one int64 array; the
    first bad row raises ``error`` naming it."""

    def parse(part):  # the int64 block, or None if any row is bad
        try:
            # one C-level conversion for the block; it rejects 1.5, 1_0, inf and nan
            block = np.loadtxt(part, dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            return None
        return block if block.shape == (len(part), width) else None

    block = parse(rows) if rows else np.zeros((0, width), dtype=np.int64)
    if block is not None:
        return block
    # rows[lo:hi] holds the first bad row and rows[:lo] are good: halving
    # finds it for about one more block parse
    lo, hi = 0, len(rows)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if parse(rows[lo:mid]) is None else (mid, hi)
    row = rows[lo]
    if len(row.split()) != width:
        raise error(f"expected {width} entries, got {row!r}")
    raise error(f"non-integer entry in {row!r}")


def read_graph(path) -> tuple[LabeledGraph, int | None]:
    """Parse the text format; returns the graph and the optional root annotation."""
    lines = [ln.strip() for ln in _read_ascii(path, GraphFormatError).splitlines() if ln.strip()]
    if len(lines) < 2:
        raise GraphFormatError("file too short: need a header line and a color line")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"malformed header {lines[0]!r}: expected 'n palette'")
    try:
        n, palette = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"malformed header {lines[0]!r}") from exc
    color_toks = lines[1].split()
    if len(color_toks) != n:
        raise GraphFormatError(f"expected {n} colors, found {len(color_toks)}")
    colors = _parse_block(color_toks, 1, GraphFormatError)[:, 0]
    body = lines[2:]
    root = None
    if body and body[-1].split()[0] == "root":  # the root line comes last
        line = body.pop()
        try:
            (root,) = map(int, line.split()[1:])
        except ValueError as exc:
            raise GraphFormatError(f"malformed root line {line!r}") from exc
        if not 0 <= root < n:
            raise GraphFormatError(f"root {root} out of range for n={n}")
    edges = _parse_block(body, 2, GraphFormatError)
    flipped = edges[:, 0] > edges[:, 1]
    if flipped.any():
        raise GraphFormatError("edge {} {} must satisfy u < v".format(*edges[np.argmax(flipped)]))
    try:
        graph = LabeledGraph(n, palette, colors, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc
    return graph, root
