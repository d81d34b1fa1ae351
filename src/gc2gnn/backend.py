"""Forward pass: a sparse rule-row executor over the spec's dense layers.

A compiled layer has one rule row per subformula that fires at that layer
and an identity carry for every other coordinate; a rule row reads at most
two coordinates.  Per layer the executor copies the carries, sums neighbour
values only for the columns that B reads, and computes only the rows that
fire.  Rows are read from the matrices themselves, so hand-built and parsed
specs run through the same path.

Runs are bit-reproducible: neighbour sums accumulate in ascending neighbour
order (``np.bincount`` over the (dst, src)-sorted edge list), and the fired
rows keep the full-width ``einsum`` reduction of the dense update, which
uses no BLAS and a fixed order.
"""

from __future__ import annotations

import numpy as np

from . import activations


def _fired_rows(layer) -> np.ndarray:
    """Rows other than identity carries (``A[i] = e_i``, ``B[i] = 0``, ``c[i] = 0``)."""
    carry = (layer.A == np.eye(layer.c.size)).all(axis=1) & ~layer.B.any(axis=1) & (layer.c == 0.0)
    return np.flatnonzero(~carry)


def run_forward(init, graph, layers, name, m, history=True):
    """Evaluate the layered update rule from the (n, d) features ``init``.

    Returns the (T+1, n, d) history, or with ``history=False`` a (1, n, d)
    array holding only the last layer.
    """
    cur = np.asarray(init, dtype=np.float64)
    n, d = cur.shape
    if history:
        kept = np.empty((len(layers) + 1, n, d))
        kept[0] = cur
    for t, layer in enumerate(layers, start=1):
        pre = cur.copy()
        rows = _fired_rows(layer)
        if rows.size:
            b_rows = layer.B[rows]
            agg = np.zeros((n, d))
            for j in np.flatnonzero(b_rows.any(axis=0)):
                agg[:, j] = np.bincount(graph.edge_dst, weights=cur[graph.edge_src, j], minlength=n)
            # einsum without optimize keeps the reduction order fixed (no BLAS)
            zs = np.einsum("vj,ij->vi", cur, layer.A[rows], optimize=False)
            za = np.einsum("vj,ij->vi", agg, b_rows, optimize=False)
            pre[:, rows] = layer.c[rows] + zs + za
        cur = activations.apply_activation(name, m, pre)
        if history:
            kept[t] = cur
    return kept if history else cur[np.newaxis]
