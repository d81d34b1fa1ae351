"""Vertex-colored simple graphs, the two-level tree family, random corpora, text I/O."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "LabeledGraph",
    "TreeParams",
    "GraphFormatError",
    "batch_graphs",
    "make_tree",
    "random_graph",
    "read_graph",
    "write_graph",
]


# Pairs drawn per call of the generator in ``random_graph``: bounds its memory.
_PAIR_CHUNK = 1 << 20


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed into a valid graph."""


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Finite simple undirected graph with exactly one color per vertex.

    ``edges`` stores each undirected edge once as ``(u, v)`` with ``u < v``,
    lexicographically sorted and deduplicated; ``colors`` takes values in
    ``[1, palette]``.  Contiguous int64 input that already has this form is
    kept, not copied, so callers must not modify it afterwards.
    """

    n: int
    palette: int
    colors: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={self.n}")
        if self.palette < 1:
            raise ValueError(f"palette size must be >= 1, got {self.palette}")
        colors = np.ascontiguousarray(np.asarray(self.colors, dtype=np.int64))
        if colors.shape != (self.n,):
            raise ValueError(f"expected {self.n} colors, got shape {colors.shape}")
        if colors.min() < 1 or colors.max() > self.palette:
            raise ValueError("vertex color out of range [1, palette]")
        edges = np.ascontiguousarray(np.asarray(self.edges, dtype=np.int64).reshape(-1, 2))
        if edges.size:
            u, v = edges[:, 0], edges[:, 1]
            if (u == v).any():
                raise ValueError("self-loops are not allowed")
            if u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= self.n:
                raise ValueError("edge endpoint out of range")
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
        # neighbor sums and keeps forward passes bit-reproducible.
        src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        order = np.lexsort((src, dst))
        return src[order], dst[order]

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
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        lo, hi = np.searchsorted(self.edge_dst, [v, v + 1])
        return self.edge_src[lo:hi]


@dataclass(frozen=True)
class TreeParams:
    """Knobs of the rooted tree family: ``x`` leaves under the first internal
    vertex, ``k`` leaves under each of the remaining ``m - 1``."""

    x: int
    k: int
    m: int

    def __post_init__(self):
        if self.x < 0 or self.k < 0:
            raise ValueError("leaf counts must be non-negative")
        if self.m < 1:
            raise ValueError("need at least one internal vertex (m >= 1)")


def make_tree(params: TreeParams, coloring: str = "unicolor") -> tuple[LabeledGraph, int]:
    """Build the two-level tree for ``params`` and return it with its root id.

    Vertex layout: 0 is the root, 1..m are the internal vertices, then the
    x leaves under vertex 1 followed by the k leaves under each of 2..m.
    ``coloring`` is ``"unicolor"`` (palette 1) or ``"leaves-blue"`` (root and
    internal vertices colored 1, every leaf colored 2).
    """
    x, k, m = params.x, params.k, params.m
    n = 1 + m + x + (m - 1) * k
    # Vertex i > 0 hangs under parents[i - 1]; parents never decrease, so
    # the edges come out canonical and sorted.
    parents = np.concatenate([
        np.zeros(m, dtype=np.int64),
        np.ones(x, dtype=np.int64),
        np.repeat(np.arange(2, m + 1, dtype=np.int64), k),
    ])
    edge_arr = np.stack([parents, np.arange(1, n, dtype=np.int64)], axis=1)
    if coloring == "unicolor":
        graph = LabeledGraph(n, 1, np.ones(n, dtype=np.int64), edge_arr)
    elif coloring == "leaves-blue":
        colors = np.ones(n, dtype=np.int64)
        colors[m + 1 :] = 2
        graph = LabeledGraph(n, 2, colors, edge_arr)
    else:
        raise ValueError(f"unknown coloring {coloring!r}")
    return graph, 0


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

    Deterministic per seed: edges are drawn first, colors second.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = 0.0 if n == 1 else avg_degree / (n - 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"invalid edge probability {p} (avg_degree={avg_degree}, n={n})")
    rng = np.random.default_rng(seed)
    # Pairs (i, j), i < j, are numbered row by row, so row i ends before
    # row_end[i] and pair L of row i has j = L - row_end[i] + n.  The generator
    # yields the same stream in chunks as in one call, so seeded graphs do not
    # depend on the chunk size.
    row_end = np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))
    total = n * (n - 1) // 2
    parts = [np.empty((0, 2), dtype=np.int64)]
    for lo in range(0, total, _PAIR_CHUNK):
        hit = np.flatnonzero(rng.random(min(_PAIR_CHUNK, total - lo)) < p) + lo
        i = np.searchsorted(row_end, hit, side="right")
        parts.append(np.stack([i, hit - row_end[i] + n], axis=1))
    colors = rng.integers(1, palette + 1, size=n)
    return LabeledGraph(n, palette, colors, np.concatenate(parts))


def write_graph(path, graph: LabeledGraph, root: int | None = None) -> None:
    """Write the line-oriented text format (header, colors, edges, optional root)."""
    lines = [f"{graph.n} {graph.palette}"]
    lines.append(" ".join(str(c) for c in graph.colors))
    for u, v in graph.edges:
        lines.append(f"{u} {v}")
    if root is not None:
        if not 0 <= root < graph.n:
            raise ValueError(f"root {root} out of range")
        lines.append(f"root {root}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_graph(path) -> tuple[LabeledGraph, int | None]:
    """Parse the text format; returns the graph and the optional root annotation."""
    with open(path, "r", encoding="ascii") as fh:
        raw = [ln.strip() for ln in fh]
    lines = [ln for ln in raw if ln]
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
    try:
        colors = np.array([int(t) for t in color_toks], dtype=np.int64)
    except ValueError as exc:
        raise GraphFormatError("non-integer color entry") from exc
    if colors.size and (colors.min() < 1 or colors.max() > palette):
        raise GraphFormatError("color out of range [1, palette]")
    edges = []
    root = None
    for ln in lines[2:]:
        toks = ln.split()
        if toks[0] == "root":
            if len(toks) != 2 or root is not None:
                raise GraphFormatError(f"malformed root line {ln!r}")
            try:
                root = int(toks[1])
            except ValueError as exc:
                raise GraphFormatError(f"malformed root line {ln!r}") from exc
            continue
        if root is not None:
            raise GraphFormatError("edge line after root line")
        if len(toks) != 2:
            raise GraphFormatError(f"malformed edge line {ln!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise GraphFormatError(f"malformed edge line {ln!r}") from exc
        if u == v:
            raise GraphFormatError(f"self-loop {u} {v}")
        if not u < v:
            raise GraphFormatError(f"edge {u} {v} must satisfy u < v")
        if v >= n or u < 0:
            raise GraphFormatError(f"edge {u} {v} out of range for n={n}")
        edges.append((u, v))
    if root is not None and not 0 <= root < n:
        raise GraphFormatError(f"root {root} out of range for n={n}")
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    try:
        graph = LabeledGraph(n, palette, colors, edge_arr)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc
    return graph, root
