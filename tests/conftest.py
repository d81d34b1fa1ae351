import numpy as np
import pytest

from gc2gnn import LabeledGraph, TreeParams, compile_formula, initial_features, make_tree, parse
from gc2gnn.backend import run_forward
from gc2gnn.compiler import _pad
from gc2gnn.experiments import Q1_TEXT, Q2_TEXT


def forward_history(spec, graph, activation=None):
    """The (T+1, n, d) stack of every layer's features, entry 0 the initial
    ones, built from one-layer ``run_forward`` steps."""
    act = activation or spec.activation
    feats = [initial_features(spec, graph)]
    for layer in spec.layers:
        feats.append(run_forward(feats[-1], graph, (layer,), act.name, act.m))
    return np.stack(feats)


def matrix_terms(matrix):
    """The nonzeros of each row of the (k, d) ``matrix`` in ascending column
    order, as ``GnnLayer`` term lists: hand-built layers written as matrices."""
    rows = [[] for _ in range(matrix.shape[0])]
    r, j = matrix.nonzero()
    for row, col, coef in zip(r.tolist(), j.tolist(), matrix[r, j].tolist()):
        rows[row].append((col, coef))
    return _pad(rows)


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
