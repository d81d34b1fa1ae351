"""Forward pass: a sparse rule-row executor over the spec's layers.

A layer stores one rule row per coordinate it computes (a compiled rule row
reads at most two coordinates); every other coordinate carries over
unchanged.  Per layer the executor copies the carries, sums neighbour values
only for the columns that B reads, and computes only the stored rows.

Runs are bit-reproducible: neighbour sums accumulate in ascending neighbour
order (``np.bincount`` over the (dst, src)-sorted edge list), and the rule
rows use the full-width ``einsum`` reduction of the dense update, which uses
no BLAS and a fixed order.
"""

from __future__ import annotations

import numpy as np

from . import activations


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
        if layer.rows.size:
            agg = np.zeros((n, d))
            for j in np.flatnonzero(layer.B.any(axis=0)):
                agg[:, j] = np.bincount(graph.edge_dst, weights=cur[graph.edge_src, j], minlength=n)
            # einsum without optimize keeps the reduction order fixed (no BLAS)
            zs = np.einsum("vj,ij->vi", cur, layer.A, optimize=False)
            za = np.einsum("vj,ij->vi", agg, layer.B, optimize=False)
            pre[:, layer.rows] = layer.c + zs + za
        cur = activations.apply_activation(name, m, pre)
        if history:
            kept[t] = cur
    return kept if history else cur[np.newaxis]
