"""Forward pass: a sparse rule-row executor over the spec's layers.

A layer stores one rule row per coordinate it computes, as the row's
nonzero ``(p, v)`` terms (``GnnLayer.terms``); every other coordinate
carries over unchanged.  The executor folds the terms as stored.  The
state is column-major: one (d, n) feature array, updated in place, and one
(d, n) neighbour-sum array per run, each coordinate a contiguous row.
``layer_states``, the one loop over the layers, transposes ``init`` once
and yields the state before and after each layer; ``run_forward`` returns
the (n, d) view of the last.  Per layer the loop sums neighbour values only
for the coordinates B reads, with one ``take`` over the edge sources each,
and overwrites only the stored rows.  The activation then takes one
cache-sized block at a time through all m compositions
(``activations._compose``).

A row costs one product of a whole coordinate row per nonzero, not d.
Every row is computed before any is written, since a row may read a
coordinate that another row of the same layer writes.

Given ``keep``, only live coordinates are activated: j is live after layer
t when the caller keeps it or a later layer reads it before it fires
again.  One backward pass over the layers finds them, starting from the
kept coordinates: ``live_after(t-1) = (live_after(t) - rows(t)) |
reads(t)``, where ``reads(t)`` are the coordinates with a nonzero
coefficient in layer t's A or B.  A kept coordinate therefore sees the
same activations, layer by layer, as it would if every coordinate were
activated; one that is not live keeps a stale value, which no row reads.

Runs are bit-reproducible: neighbour sums accumulate in ascending neighbour
order (``np.bincount`` over the (dst, src)-sorted edge list), and a row is
the fold ``(c + S_A) + S_B`` (``c + S_B`` without A terms), where ``S_A =
(x1 a1 + x2 a2) + x3 a3 ...`` sums its A terms left to right in term order,
the ascending p order that ``GnnLayer`` enforces, and ``S_B`` its B terms
likewise.  A non-finite ``init`` and a layer whose pre-activations overflow
are bad input, and raise.
"""

from __future__ import annotations

import numpy as np

from . import activations


def _live_columns(layers, d, keep):
    """For each layer, an index of the coordinates whose activated value a
    later layer or the result reads.

    A contiguous run of coordinates is a slice: read and written back as a
    view, it costs a fraction of a fancy index's gather and scatter."""
    live = np.zeros(d, dtype=bool)
    live[np.asarray(keep, dtype=np.int64)] = True
    after = []
    for layer in reversed(layers):
        cols = np.flatnonzero(live)
        if cols.size and cols[-1] - cols[0] + 1 == cols.size:
            cols = slice(cols[0], cols[-1] + 1)
        after.append(cols)
        live[layer.rows] = False
        live[layer.reads] = True
    return after[::-1]


def _fold(terms, values, low, out=None):
    """``values[p1 - low] * v1 + values[p2 - low] * v2 + ...``, left to right."""
    (p, v), *rest = terms
    total = np.multiply(values[p - low], v, out=out)
    for p, v in rest:
        total += values[p - low] * v
    return total


def _combine(layer, cur, agg):
    """The (k, n) pre-activations of ``layer``'s rule rows from the (d, n)
    features ``cur`` and neighbour sums ``agg``."""
    d = layer.d
    z = np.empty((layer.rows.size, cur.shape[1]))
    for zr, c, row in zip(z, layer.c.tolist(), layer.terms):
        split = sum(p < d for p, _ in row)  # the terms ascend: A first, then B
        if split:
            _fold(row[:split], cur, 0, out=zr)
            zr += c
        else:
            zr.fill(c)
        if split < len(row):
            zr += _fold(row[split:], agg, d)
    return z


def layer_states(init, graph, layers, name, m, keep=None):
    """Yield the (d, n) state of a run from the (n, d) features ``init``, one
    array updated in place: once before the first layer, then after each
    layer has activated every column, or only the live ones given ``keep``.
    A layer whose pre-activations are not all finite raises ValueError."""
    cur = np.array(np.asarray(init, dtype=np.float64).T, order="C")
    if not np.isfinite(cur).all():
        raise ValueError("initial features must be finite")
    d, n = cur.shape
    agg = np.zeros((d, n))
    live = [slice(None)] * len(layers) if keep is None else _live_columns(layers, d, keep)
    yield cur
    for t, (layer, cols) in enumerate(zip(layers, live), start=1):
        if layer.rows.size:
            for j in layer.agg_reads:
                agg[j] = np.bincount(graph.edge_dst, weights=cur[j].take(graph.edge_src), minlength=n)
            with np.errstate(over="ignore", invalid="ignore"):
                z = _combine(layer, cur, agg)
            if not np.isfinite(z).all():
                raise ValueError(f"layer {t} has a pre-activation that is not finite")
            cur[layer.rows] = z
        cur[cols] = activations.apply_activation(name, m, cur[cols])
        yield cur


def run_forward(init, graph, layers, name, m, keep=None):
    """The (n, d) features after the last layer, a transposed view of the
    final state of ``layer_states``.  Only the columns in ``keep`` (default:
    all) are guaranteed to hold their values; the others may be stale.
    Keeping all still skips a column that its next layer overwrites unread."""
    *_, cur = layer_states(init, graph, layers, name, m, range(np.shape(init)[1]) if keep is None else keep)
    return cur.T
