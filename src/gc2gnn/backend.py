"""Forward pass: a sparse rule-row executor over the spec's layers.

A layer stores one rule row per coordinate it computes, as the row's
nonzero ``(p, v)`` terms (``GnnLayer.terms``); every other coordinate
carries over unchanged.  The executor folds the terms as stored.  The
state is column-major: one (d, n) feature array, updated in place, and one
(d, n) neighbour-sum array per run, each coordinate a contiguous row.
``layer_states``, the one loop over the layers, copies ``init`` once into
that layout (``engine.initial_features`` builds it as the transpose of a
(d, n) array, so the copy moves no element across rows) and yields the
state before and after each layer; ``run_forward`` returns the (n, d) view
of the last.  Per layer the loop sums neighbour values only for the
coordinates B reads, with one ``take`` over the edge sources each, and
overwrites only the stored rows.  The activation then takes one cache-sized
block at a time through all m compositions (``activations._compose``).

A row costs one product of a whole coordinate row per nonzero, not d.
Every row is computed before any is written, since a row may read a
coordinate that another row of the same layer writes.

Before the loop, one backward pass over the layers (``_schedule``) reads
each layer's ``rows`` and term positions, plain Python ints as the layer
stores them, once per run and gives the loop, per layer, three things: the
index of its rows, a slice when they are contiguous, as every one-row
layer's are; the neighbour sums it reads (``p - d`` for each B position
p >= d), as a list of ints; and the columns to activate after it.  The loop
itself iterates no numpy array.  ``keep`` means the same in ``run_forward``,
which passes it through, and in ``layer_states``, which checks it once:
integer columns in ``[0, d)``.  With ``keep=None`` every column is
activated at every layer.  Given ``keep``, only live coordinates are: j is
live after layer t when the caller keeps it or a later layer reads it
before it fires again, so, from the kept coordinates,
``live_after(t-1) = (live_after(t) - rows(t)) | reads(t)``, where
``reads(t)`` are the coordinates with a nonzero coefficient in layer t's A
or B, ``p % d`` over its term positions p.  The live index is a slice when
the live set is contiguous, and one object for as long as the set does not
change.  A kept coordinate therefore sees the same activations, layer by
layer, as it would if every coordinate were activated; one that is not
live keeps a stale value, which no row reads.

Runs are bit-reproducible: neighbour sums accumulate in ascending neighbour
order (``np.bincount`` over the (dst, src)-sorted edge list), and a row is
the fold ``(c + S_A) + S_B``, where ``S_A = (x1 a1 + x2 a2) + x3 a3 ...``
sums its A terms left to right in term order, the ascending p order that
``GnnLayer`` enforces, and ``S_B`` its B terms likewise.  A row without A
terms folds ``S_B`` straight into its output row and then adds ``c``:
addition commutes, so ``S_B + c`` has the bits of ``c + S_B``.  A
non-finite ``init`` and a layer whose pre-activations overflow are bad
input, and raise.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from . import activations
from .graphs import _is_integer


def _index(cols):
    """An index of the ascending, distinct columns ``cols``: a slice when they
    are contiguous (read and written back as a view, it costs a fraction of
    a fancy index's gather and scatter), else an index array."""
    if not cols:
        return slice(0, 0)
    if cols[-1] - cols[0] + 1 == len(cols):
        return slice(cols[0], cols[-1] + 1)
    return np.array(cols)


def _schedule(layers, keep):
    """For each layer, in order: the index of its rule rows, the columns whose
    neighbour sums it reads (a list of ``int``), and the index of the
    columns to activate after it, all columns when ``keep`` is None.

    One backward pass over plain ints; the live index is rebuilt only where
    the live set changes, and is the same object until then."""
    live = None if keep is None else {int(j) for j in keep}
    cols = slice(None) if keep is None else _index(sorted(live))
    steps = []
    for layer in reversed(layers):
        rows, d = layer.rows, layer.d
        ps = {p for row in layer.terms for p, _ in row}
        steps.append((_index(rows), sorted(p - d for p in ps if p >= d), cols))
        if live is not None:
            before = live.difference(rows).union(p % d for p in ps)
            if before != live:
                live, cols = before, _index(sorted(before))
    steps.reverse()
    return steps


def _fold(terms, values, low, out):
    """``out = values[p1 - low] * v1 + values[p2 - low] * v2 + ...``, left to
    right; returns ``out``."""
    (p, v), *rest = terms
    np.multiply(values[p - low], v, out=out)
    for p, v in rest:
        out += values[p - low] * v
    return out


@np.errstate(over="ignore", invalid="ignore")  # the caller checks that the result is finite
def _combine(layer, cur, agg):
    """The (k, n) pre-activations of ``layer``'s rule rows from the (d, n)
    features ``cur`` and neighbour sums ``agg``."""
    d = layer.d
    z = np.empty((len(layer.terms), cur.shape[1]))
    for zr, c, row in zip(z, layer.c, layer.terms):
        split = bisect_left(row, (d,))  # the terms ascend: A first, then B
        if split:
            _fold(row[:split], cur, 0, zr)
            zr += c
            if split < len(row):
                zr += _fold(row[split:], agg, d, np.empty_like(zr))
        elif row:  # S_B + c has the bits of c + S_B
            _fold(row, agg, d, zr)
            zr += c
        else:
            zr.fill(c)
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
    if keep is not None and not all(_is_integer(j) and 0 <= j < d for j in keep):
        raise ValueError(f"keep must list integer columns in [0, {d}), got {keep!r}")
    agg = np.zeros((d, n))
    src, dst = graph.edge_src, graph.edge_dst
    steps = _schedule(layers, keep)
    yield cur
    for t, (layer, (rows, agg_cols, cols)) in enumerate(zip(layers, steps), start=1):
        if layer.terms:
            for j in agg_cols:
                agg[j] = np.bincount(dst, weights=cur[j].take(src), minlength=n)
            z = _combine(layer, cur, agg)
            if not np.isfinite(z).all():
                raise ValueError(f"layer {t} has a pre-activation that is not finite")
            cur[rows] = z
        live = cur[cols] if isinstance(cols, slice) else cur.take(cols, axis=0)  # take: half a fancy gather
        cur[cols] = activations.apply_activation(name, m, live)
        yield cur


def run_forward(init, graph, layers, name, m, keep=None):
    """The (n, d) features after the last layer, a transposed view of the
    final state of ``layer_states`` with the same ``keep``."""
    *_, cur = layer_states(init, graph, layers, name, m, keep)
    return cur.T
