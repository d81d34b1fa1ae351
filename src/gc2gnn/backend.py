"""Forward pass: a sparse rule-row executor over the spec's layers.

A layer stores one rule row per coordinate it computes, as the row's
nonzero ``(p, v)`` terms (``GnnLayer.terms``); every other coordinate
carries over unchanged.  The executor folds the terms as stored.  The
state is column-major: one (d, n) feature array, updated in place, each
coordinate a contiguous row.  ``layer_states``, the one loop over the
layers, builds that array from the spec's ``init_kinds``
(``_initial_state``): a zero row for ``"0"``, a one row for ``"1"`` and
the indicator of color c for ``"C<c>"``, which ``engine.initial_features``
returns as its (n, d) transpose.  It yields the state before and after
each layer; ``run_forward`` returns the (n, d) view of the last.  Per
layer the loop sums neighbour values only for the coordinates B reads,
with one ``take`` over the edge sources each into an (E,) buffer made
once per run (a fresh 4 MB array per sum cost page faults that took
longer than the gather on a 10^5-vertex graph), and overwrites only the
stored rows.  A sum is held as computed, by its layer alone: each layer
maps each B position p it reads to its (n,) row, the array ``np.bincount``
returned or a row the graph keeps, and ``_combine`` only reads them, so no
(d, n) array of sums is filled or copied into, and a layer's sums are
freed when the next layer starts.

A graph keeps its layer-1 sums.  Layer 1 sums initial columns, each
built from its kind alone, so their sums depend on the graph only, not on
the weights, the map or m.  Layer 1 reads the sum of each kind from the
graph's ``_first_sums`` and, for a kind not there yet, keeps the
``bincount`` the loop computes, read-only.  A graph thus holds one more
(n,) float64 row per kind that layer 1 has read (two rows, 1.6 MB, for q2
on 10^5 vertices), freed with it.  Every later forward on the graph skips
those sums.

A row costs one pass over a whole coordinate row per nonzero, not d: a
weight of 1 or -1, the only weights a compiled layer has, folds as a copy,
a negation, an addition or a subtraction, and any other weight multiplies
into a scratch row.  The layer's pre-activations go into a (k, n) buffer,
and that scratch row and the one for ``S_B`` are (n,) buffers, all made
once per run.  Every row is computed before any is written, since a row
may read a coordinate that another row of the same layer writes.

The activation runs where the state lies, through the map resolved once
per run by ``activations._in_place``, the one code that runs a map, table
lookup of integer-valued blocks included.  A contiguous set of columns to
activate is one view of consecutive state rows, activated in place; of a
set with gaps, so is each run of consecutive columns that holds at least
``activations._BLOCK`` (2^16) elements, and the shorter runs are gathered
into one buffer, activated there and scattered back, one call for them all.

Before the loop, one pass over the layers (``_schedule``) reads each
layer's ``rows`` and term positions, plain Python ints, once per run and
gives the loop, per layer, the index of its rows (a slice when they are
contiguous, as every one-row layer's are), the B positions p >= d whose
neighbour sums it reads as a list of ints, and the live index of the
columns to activate after it; the loop iterates no numpy array.  ``keep``
means the same in ``run_forward`` and ``layer_states``, which checks it
once: integer columns in ``[0, d)``.  Under a map that settles (its
record's ``idempotent``; the rule is stated in ``activations``), a layer
activates its rule rows alone, with or without ``keep``, and no liveness
pass runs: every other column holds an initial 0 or 1 or a value the map
gave, which it leaves bit for bit, so every column holds what it would if
all were activated at every layer.  Under any other map,
``keep=None`` activates every column at every layer; given ``keep``, only
the live ones: j is live after layer t when the caller keeps it or a later
layer reads it before it fires again, so, backward, ``live_after(t-1) =
(live_after(t) - rows(t)) | reads(t)`` from the kept coordinates, with
``reads(t) = {p % d}`` over layer t's term positions p.  A kept column sees
the activations of the run that activates every column; only here can a
column be stale: one not live, which no row reads.

Runs are bit-reproducible: neighbour sums accumulate in ascending neighbour
order (``np.bincount`` over the (dst, src)-sorted edge list), and a row is
the fold ``(c + S_A) + S_B``, where ``S_A = (x1 a1 + x2 a2) + x3 a3 ...``
sums its A terms left to right in term order, the ascending p order that
``GnnLayer`` enforces, and ``S_B`` its B terms likewise.  A row without A
terms folds ``S_B`` straight into its output row and then adds ``c``:
addition commutes, so ``S_B + c`` has the bits of ``c + S_B``.  A
weight of 1 or -1 folds with the bits of its product: in IEEE 754
``x * 1.0`` is x and ``x * -1.0`` is -x, signed zeros included, and
``a + (-x)`` is ``a - x``.  Each map runs elementwise, so an element
activated in place gets the bits it would get in a gathered buffer.  A
kept layer-1 sum has the bits the loop would compute: layer 1 sums the
initial columns before any activation, and a sum of 0.0 and 1.0 weights in
any order is an exact integer, +0.0 where it is zero, whatever the map.
The initial state holds only 0.0 and 1.0, so it is finite; a layer whose
pre-activations overflow is bad input, and raises.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from . import activations
from .formulas import _check_color
from .graphs import _is_integer


def _index(cols):
    """An index of the ascending, distinct rule rows ``cols``: a slice when
    they are contiguous (written as a view, it costs a fraction of a fancy
    index's scatter), else an index array."""
    if not cols:
        return slice(0, 0)
    if cols[-1] - cols[0] + 1 == len(cols):
        return slice(cols[0], cols[-1] + 1)
    return np.array(cols)


def _live_index(cols, n):
    """How to activate the ascending, distinct columns ``cols`` of a (d, n)
    state: a tuple of slices activated where they lie, and the index array
    of the columns gathered into one buffer, or None.  A contiguous set is
    one slice.  Of a set with gaps, each run of consecutive columns that
    holds at least ``activations._BLOCK`` elements is a slice, and the
    shorter runs are gathered, so the kernel runs once for them all."""
    if not cols:
        return (), None
    if cols[-1] - cols[0] + 1 == len(cols):
        return (slice(cols[0], cols[-1] + 1),), None
    if len(cols) * n < activations._BLOCK:  # every run is short
        return (), np.array(cols)
    runs, start = [], 0
    for i, j in enumerate(cols):
        if i + 1 == len(cols) or cols[i + 1] != j + 1:
            runs.append(cols[start:i + 1])
            start = i + 1
    views = tuple(slice(run[0], run[-1] + 1) for run in runs if len(run) * n >= activations._BLOCK)
    short = [j for run in runs if len(run) * n < activations._BLOCK for j in run]
    return views, np.array(short) if short else None


def _schedule(layers, keep, n, settles=False):
    """For each layer, in order: the index of its rule rows, the B positions
    whose neighbour sums it reads (a list of ``int``), and the
    ``_live_index`` of the columns to activate after it: its rule rows if
    the map ``settles``, else all if ``keep`` is None, else the live ones,
    one object until they change."""
    live = None if keep is None or settles else {int(j) for j in keep}
    cols = ((slice(None),), None) if live is None else _live_index(sorted(live), n)
    steps = []
    for layer in reversed(layers):
        rows, d = layer.rows, layer.d
        ps = {p for row in layer.terms for p, _ in row}
        cols = _live_index(rows, n) if settles else cols
        steps.append((_index(rows), sorted(p for p in ps if p >= d), cols))
        if live is not None:
            before = live.difference(rows).union(p % d for p in ps)
            if before != live:
                live, cols = before, _live_index(sorted(before), n)
    steps.reverse()
    return steps


def _fold(terms, values, out, prod):
    """``out = values[p1] * v1 + values[p2] * v2 + ...``, left to right;
    returns ``out``.  A weight of 1 or -1 folds as a copy, a negation,
    an addition or a subtraction, with the product's bits (``x * 1.0`` is x
    and ``x * -1.0`` is -x in IEEE 754, signed zeros included); any other
    weight multiplies into ``prod`` first."""
    (p, v), *rest = terms
    if v == 1.0:
        out[...] = values[p]
    elif v == -1.0:
        np.negative(values[p], out=out)
    else:
        np.multiply(values[p], v, out=out)
    for p, v in rest:
        if v == 1.0:
            out += values[p]
        elif v == -1.0:
            out -= values[p]
        else:
            out += np.multiply(values[p], v, out=prod)
    return out


@np.errstate(over="ignore", invalid="ignore")  # the caller checks that the result is finite
def _combine(layer, cur, sums, z, scratch):
    """The (k, n) pre-activations of ``layer``'s k rule rows, written into the
    first k rows of ``z``, from the (d, n) features ``cur`` and the (n,)
    neighbour-sum rows ``sums[p]`` of the B positions p, which it only
    reads; ``scratch`` is two (n,) buffers, for ``S_B`` and a product."""
    d = layer.d
    s_b, prod = scratch
    z = z[:len(layer.terms)]
    for zr, c, row in zip(z, layer.c, layer.terms):
        split = bisect_left(row, (d,))  # the terms ascend: A first, then B
        if split:
            _fold(row[:split], cur, zr, prod)
            zr += c
            if split < len(row):
                zr += _fold(row[split:], sums, s_b, prod)
        elif row:  # S_B + c has the bits of c + S_B
            _fold(row, sums, zr, prod)
            zr += c
        else:
            zr.fill(c)
    return z


def _initial_state(spec, graph):
    """The C-ordered (d, n) iteration-0 state of ``spec`` on ``graph``: a
    zero row for kind ``"0"``, a one row for ``"1"`` and the indicator of
    color c for ``"C<c>"``, which must lie in the graph's palette."""
    state = np.zeros((spec.d, graph.n))
    for j, kind in enumerate(spec.init_kinds):
        if kind == "1":
            state[j] = 1.0
        elif kind != "0":
            index = int(kind[1:])
            _check_color(index, graph.palette)
            state[j] = graph.colors == index
    return state


def layer_states(spec, graph, name, m, keep=None):
    """Yield the (d, n) state of ``spec``'s layers run on ``graph`` under
    ``name`` composed ``m`` times, one array updated in place: once before
    the first layer, the initial state built from ``spec.init_kinds``, then
    after each layer has activated the columns ``_schedule`` gives it.
    Layer 1 reads the neighbour sum of each kind from the graph's
    ``_first_sums``, and fills it where a kind is missing.  A layer whose
    pre-activations are not all finite raises ValueError."""
    cur = _initial_state(spec, graph)
    d, n = cur.shape
    if keep is not None and not all(_is_integer(j) and 0 <= j < d for j in keep):
        raise ValueError(f"keep must list integer columns in [0, {d}), got {keep!r}")
    layers, kinds, kept = spec.layers, spec.init_kinds, graph._first_sums
    activate = activations._in_place(name, m)
    z = np.empty((max((len(layer.c) for layer in layers), default=0), n))
    scratch = (np.empty(n), np.empty(n))
    src, dst = graph.edge_src, graph.edge_dst
    # each edge's source value; take writes into out only when mode is not
    # "raise", and every source index is in range, so "clip" clips nothing
    sent = np.empty(len(src))
    steps = _schedule(layers, keep, n, activations.get_activation(name).idempotent)
    yield cur
    for t, (layer, (rows, positions, (views, gather))) in enumerate(zip(layers, steps), start=1):
        sums = {}  # this layer's alone: the last layer's go here
        for p in positions:
            row = kept.get(kinds[p - d]) if t == 1 else None
            if row is None:
                # bincount gives int64 zeros on a graph with no edges
                row = np.bincount(dst, weights=cur[p - d].take(src, out=sent, mode="clip"), minlength=n)
                row = row.astype(np.float64, copy=False)
                if t == 1:
                    row.flags.writeable = False
                    kept[kinds[p - d]] = row
            sums[p] = row
        pre = _combine(layer, cur, sums, z, scratch)
        if not np.isfinite(pre).all():
            raise ValueError(f"layer {t} has a pre-activation that is not finite")
        cur[rows] = pre
        for view in views:
            activate(cur[view])
        if gather is not None:
            live = cur.take(gather, axis=0)  # take: half a fancy gather
            activate(live)
            cur[gather] = live
        yield cur


def run_forward(spec, graph, name, m, keep=None):
    """The (n, d) features after the last layer, a transposed view of the
    final state of ``layer_states`` with the same ``keep``."""
    *_, cur = layer_states(spec, graph, name, m, keep)
    return cur.T
