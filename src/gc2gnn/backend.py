"""Forward pass: a sparse rule-row executor over the spec's layers.

A layer stores one rule row per coordinate it computes (a compiled rule row
reads at most two coordinates); every other coordinate carries over
unchanged.  Per layer the executor copies the carries, sums neighbour values
only for the columns that B reads, gathering each column's values with one
``take`` over the edge sources, and computes only the stored rows.  The
activation then runs over the (n, d) result one cache-sized block at a time
(``activations._compose``), taking each block through all m compositions
before it moves on.

Runs are bit-reproducible: neighbour sums accumulate in ascending neighbour
order (``np.bincount`` over the (dst, src)-sorted edge list), and the rule
rows use the full-width ``einsum`` reduction of the dense update, which uses
no BLAS and a fixed order.
"""

from __future__ import annotations

import numpy as np

from . import activations


def run_forward(init, graph, layers, name, m):
    """Evaluate the layered update rule from the (n, d) features ``init`` and
    return the (n, d) features after the last layer."""
    cur = np.asarray(init, dtype=np.float64)
    n, d = cur.shape
    for layer in layers:
        pre = cur.copy()
        if layer.rows.size:
            agg = np.zeros((n, d))
            for j in np.flatnonzero(layer.B.any(axis=0)):
                # a take from one column beats a 2-d fancy index about twofold
                agg[:, j] = np.bincount(graph.edge_dst, weights=cur[:, j].take(graph.edge_src), minlength=n)
            # einsum without optimize keeps the reduction order fixed (no BLAS)
            zs = np.einsum("vj,ij->vi", cur, layer.A, optimize=False)
            za = np.einsum("vj,ij->vi", agg, layer.B, optimize=False)
            pre[:, layer.rows] = layer.c + zs + za
        cur = activations.apply_activation(name, m, pre)
    return cur
