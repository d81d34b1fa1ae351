from pathlib import Path

import numpy as np
import pytest

from gc2gnn import LabeledGraph, TreeParams, activations, backend, compile_formula, make_tree, parse, read_graph
from gc2gnn.backend import layer_states
from gc2gnn.experiments import Q1_TEXT, Q2_TEXT


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def pinned_graph(n, avg_degree, palette, seed):
    """The seeded G(n, p) graph that the pair-scan sampler, which drew one
    uniform per vertex pair, gave for ``random_graph(n, avg_degree, palette,
    seed)``, read back from the file it was written to.  Digests computed on
    it pin the forward pass and the oracle, not the sampler."""
    graph, _ = read_graph(GOLDEN_DIR / f"random-n{n}-d{avg_degree:g}-p{palette}-s{seed}.graph")
    return graph


def simd_targets():
    """numpy's build dispatch targets that this CPU, less any
    ``NPY_DISABLE_CPU_FEATURES``, enables, lowest first."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def simd_level():
    """numpy's active SIMD level: the last of ``simd_targets()``, such as
    ``AVX512_SPR`` or ``X86_V3``, or ``"baseline"``.  The smooth maps' bit
    pins hold for one level, so their failure messages name it."""
    enabled = simd_targets()
    return enabled[-1] if enabled else "baseline"


def pytest_report_header():
    return f"numpy SIMD level: {simd_level()}"


def forward_history(spec, graph, activation=None):
    """The (T+1, n, d) stack of every layer's features, entry 0 the initial
    ones: a copy of each state ``layer_states`` yields, with every column
    live at every layer."""
    act = activation or spec.activation
    states = layer_states(spec, graph, act.name, act.m)
    return np.stack([s.T.copy() for s in states])


def tree_classes(params):
    """Each vertex's class in ``tree_quotient``'s numbering, read off
    ``make_tree``'s layout: the root, vertex 1, the internal vertices
    2..m, the x leaves under vertex 1, then the other leaves."""
    x, k, m = params.x, params.k, params.m
    return np.repeat(np.arange(5), [1, 1, m - 1, x, (m - 1) * k])


def uses_tables(name, m, n):
    """Whether a run of ``name`` composed ``m`` times on ``n`` vertices codes
    rows, by the table rule of the ``backend`` docstring: the depth it
    composes, m or 1 for an idempotent map, is at least
    ``backend._TABLE_DEPTH``, and n is at least ``backend._CHUNK``."""
    depth = min(m, 1) if activations.get_activation(name).idempotent else m
    return depth >= backend._TABLE_DEPTH and n >= backend._CHUNK


def matrix_rows(a, b):
    """Each row's ``(p, v)`` terms from the (k, d) matrices ``a`` and ``b``:
    A column j at p = j, B column j at p = d + j.  Hand-built layers written as
    matrices; ``GnnLayer`` drops the zero weights."""
    return [list(enumerate(row)) for row in np.hstack((a, b)).tolist()]


def read_columns(layer):
    """The ascending columns with a nonzero coefficient in ``layer``'s A or
    B, from its term positions: ``p % d``."""
    return sorted({p % layer.d for row in layer.terms for p, _ in row})


def sum_positions(layer):
    """The ascending B positions ``p >= d`` of ``layer``'s terms, one per
    neighbour sum it reads, the sum of column ``p - d``."""
    return sorted({p for row in layer.terms for p, _ in row if p >= layer.d})


def activated_columns(live, d):
    """The ascending columns of a (d, n) state that ``backend._schedule``'s
    live index ``live``, a pair (slices activated in place, a gathered index
    array or None), activates."""
    views, gather = live
    columns = np.arange(d)
    gathered = [] if gather is None else gather.tolist()
    return sorted([j for view in views for j in columns[view].tolist()] + gathered)


@pytest.fixture(scope="session")
def q1():
    return parse(Q1_TEXT, 1)


@pytest.fixture(scope="session")
def q2():
    return parse(Q2_TEXT, 2)


@pytest.fixture(scope="session")
def q1_spec(q1):
    return compile_formula(q1, 1)


@pytest.fixture(scope="session")
def q2_spec(q2):
    return compile_formula(q2, 2)


@pytest.fixture(scope="session")
def triangle():
    return LabeledGraph(3, 1, np.ones(3, dtype=np.int64), np.array([[0, 1], [0, 2], [1, 2]]))


@pytest.fixture(scope="session")
def path3():
    return LabeledGraph(3, 1, np.ones(3, dtype=np.int64), np.array([[0, 1], [1, 2]]))


@pytest.fixture(scope="session")
def isolated_vertex():
    return LabeledGraph(1, 1, np.ones(1, dtype=np.int64), np.empty((0, 2), dtype=np.int64))


@pytest.fixture(scope="session")
def single_edge():
    return LabeledGraph(2, 1, np.ones(2, dtype=np.int64), np.array([[0, 1]]))


def make_unicolor_tree(x, k, m):
    return make_tree(TreeParams(x, k, m))
