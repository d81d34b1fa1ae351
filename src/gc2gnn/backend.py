"""Forward pass: a sparse rule-row executor over the spec's layers.

A layer stores one rule row per coordinate it computes (a compiled rule row
reads at most two coordinates); every other coordinate carries over
unchanged.  The executor owns one (n, d) feature array, updated in place,
and one (n, d) neighbour-sum array per run.  Per layer it sums neighbour
values only for the columns that B reads, gathering each column's values
with one ``take`` over the edge sources, and overwrites only the stored
rows.  The activation then runs one cache-sized block at a time
(``activations._compose``), taking each block through all m compositions
before it moves on.

Only live columns are activated.  Column j is live after layer t when the
caller keeps it or a later layer reads it before it fires again.  One
backward pass over the layers finds them, starting from the kept columns:
``live_after(t-1) = (live_after(t) - rows(t)) | reads(t)``, where
``reads(t)`` are the columns with a nonzero coefficient in layer t's A or B.
A kept column therefore sees the same activations, layer by layer, as it
would if every column were activated; a column that is not live keeps a
stale value.

Runs are bit-reproducible: neighbour sums accumulate in ascending neighbour
order (``np.bincount`` over the (dst, src)-sorted edge list), and the rule
rows use the full-width ``einsum`` reduction of the dense update, which uses
no BLAS and a fixed order.  Stale values leave these bits unchanged: a stale
column of the features or of the neighbour sums enters a rule row only
through a zero coefficient, and a zero product changes a sum at most in the
sign of a zero.  The bias is added first, and the integer biases of
compiled and file-read networks are never -0.0, so that sign never reaches a
pre-activation.  This holds while every value is finite (``0 * inf`` is
NaN), so a non-finite ``init`` is rejected.
"""

from __future__ import annotations

import numpy as np

from . import activations


def _live_columns(layers, d, keep):
    """For each layer, an index of the columns whose activated value a later
    layer or the result reads; ``keep=None`` keeps all ``d`` columns.

    A contiguous run of columns is a slice: read and written back as a view,
    it costs a fraction of a fancy index's gather and scatter."""
    live = np.zeros(d, dtype=bool)
    live[slice(None) if keep is None else np.asarray(keep, dtype=np.int64)] = True
    after = []
    for layer in reversed(layers):
        cols = np.flatnonzero(live)
        if cols.size and cols[-1] - cols[0] + 1 == cols.size:
            cols = slice(cols[0], cols[-1] + 1)
        after.append(cols)
        live[layer.rows] = False
        live[layer.reads] = True
    return after[::-1]


def run_forward(init, graph, layers, name, m, keep=None):
    """Evaluate the layered update rule from the (n, d) features ``init`` and
    return the (n, d) features after the last layer.

    Only the columns in ``keep`` (default: all) are guaranteed to hold their
    values; the others may be stale.  ``init`` is not modified."""
    cur = np.array(init, dtype=np.float64)
    if not np.isfinite(cur).all():
        raise ValueError("initial features must be finite")
    n, d = cur.shape
    agg = np.zeros((n, d))
    for layer, live in zip(layers, _live_columns(layers, d, keep)):
        if layer.rows.size:
            for j in layer.agg_reads:
                # a take from one column beats a 2-d fancy index about twofold
                agg[:, j] = np.bincount(graph.edge_dst, weights=cur[:, j].take(graph.edge_src), minlength=n)
            # einsum without optimize keeps the reduction order fixed (no BLAS)
            zs = np.einsum("vj,ij->vi", cur, layer.A, optimize=False)
            za = np.einsum("vj,ij->vi", agg, layer.B, optimize=False)
            cur[:, layer.rows] = layer.c + zs + za
        cur[:, live] = activations.apply_activation(name, m, cur[:, live])
    return cur
