"""Forward pass: a sparse rule-row executor over the spec's layers.

A layer stores one rule row per coordinate it computes, as the row's
nonzeros (``GnnLayer.a_terms`` and ``b_terms``); every other coordinate
carries over unchanged.  The state is column-major: one (d, n) feature
array, updated in place, and one (d, n) neighbour-sum array per run, each
coordinate a contiguous row; ``init`` is transposed once on entry and the
(n, d) view of the last layer returned.  Per layer the executor sums
neighbour values only for the coordinates B reads, with one ``take`` over
the edge sources each, and overwrites only the stored rows.  The activation
then takes one cache-sized block at a time through all m compositions
(``activations._compose``).

Per term position, a layer's rows take one (k, n) gather of whole
coordinate rows and one multiply by their coefficients, so a row costs its
nonzeros, not d.  Every row is computed before any is written, since a row
may read a coordinate that another row of the same layer writes.

Only live coordinates are activated.  Coordinate j is live after layer t
when the caller keeps it or a later layer reads it before it fires again.
One backward pass over the layers finds them, starting from the kept
coordinates: ``live_after(t-1) = (live_after(t) - rows(t)) | reads(t)``,
where ``reads(t)`` are the coordinates with a nonzero coefficient in layer
t's A or B.  A kept coordinate therefore sees the same activations, layer
by layer, as it would if every coordinate were activated; one that is not
live keeps a stale value.

Runs are bit-reproducible: neighbour sums accumulate in ascending neighbour
order (``np.bincount`` over the (dst, src)-sorted edge list), and a row is
the fold ``(c + S_A) + S_B`` (``c + S_B`` without A terms), where ``S_A =
(a1 x1 + a2 x2) + a3 x3 ...`` sums its A terms left to right in term order,
the ascending column order the spec fixes, and ``S_B`` its B terms likewise.
A padded term or a stale value enters only through a zero coefficient, which
changes a sum at most in the sign of a zero, and that sign never passes the
bias, an integer and never -0.0.  All of this holds while every value is
finite (``0 * inf`` is NaN), so a non-finite ``init`` is rejected.
"""

from __future__ import annotations

import numpy as np

from . import activations


def _live_columns(layers, d, keep):
    """For each layer, an index of the coordinates whose activated value a
    later layer or the result reads; ``keep=None`` keeps all ``d``.

    A contiguous run of coordinates is a slice: read and written back as a
    view, it costs a fraction of a fancy index's gather and scatter."""
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


def _products(terms, values):
    """The (k, n) sums ``sum_p coefficients_p * values[columns_p]`` over the
    term positions ``terms``, in position order."""
    (cols, coefs), *rest = terms
    total = values[cols]
    total *= coefs[:, None]
    for cols, coefs in rest:
        term = values[cols]
        term *= coefs[:, None]
        total += term
    return total


def _combine(layer, cur, agg):
    """The (k, n) pre-activations of ``layer``'s rule rows from the (d, n)
    features ``cur`` and neighbour sums ``agg``."""
    if layer.a_terms:
        z = _products(layer.a_terms, cur)
        z += layer.c[:, None]
    else:
        z = np.repeat(layer.c[:, None], cur.shape[1], axis=1)
    if layer.b_terms:
        z += _products(layer.b_terms, agg)
    return z


def run_forward(init, graph, layers, name, m, keep=None):
    """Evaluate the layered update rule from the (n, d) features ``init`` and
    return the (n, d) features after the last layer, a transposed view of
    the executor's (d, n) state.

    Only the columns in ``keep`` (default: all) are guaranteed to hold their
    values; the others may be stale.  ``init`` is not modified."""
    cur = np.array(np.asarray(init, dtype=np.float64).T, order="C")
    if not np.isfinite(cur).all():
        raise ValueError("initial features must be finite")
    d, n = cur.shape
    agg = np.zeros((d, n))
    for layer, live in zip(layers, _live_columns(layers, d, keep)):
        if layer.rows.size:
            for j in layer.agg_reads:
                agg[j] = np.bincount(graph.edge_dst, weights=cur[j].take(graph.edge_src), minlength=n)
            cur[layer.rows] = _combine(layer, cur, agg)
        cur[live] = activations.apply_activation(name, m, cur[live])
    return cur.T
