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
coordinates B reads, with one ``take`` over the edge sources each into an
(E,) buffer made once per run (a fresh 4 MB array per sum cost page faults
that took longer than the gather on a 10^5-vertex graph), and overwrites
only the stored rows.

A graph keeps its layer-1 sums.  Layer 1 sums initial columns, and
``engine.initial_features`` builds each from its kind alone: zeros for
``"0"``, ones for ``"1"`` and the indicator of color c for ``"C<c>"``.  So
their sums depend on the graph only, not on the weights, the map or m.
Given ``init_kinds``, the caller's statement that ``init`` is built so
(``engine.forward`` and ``layer_errors`` give the spec's), layer 1 reads
the sum of each kind from the graph's ``_first_sums`` and, for a kind not
there yet, keeps the ``bincount`` the loop computes, read-only.  A graph
thus holds one more (n,) float64 row per kind that layer 1 has read (two
rows, 1.6 MB, for q2 on 10^5 vertices), freed with it.  Every later
forward on the graph skips those sums; a run given ``init`` alone computes
them all.

A row costs one pass over a whole coordinate row per nonzero, not d: a
weight of 1 or -1, the only weights a compiled layer has, folds as a copy,
a negation, an addition or a subtraction, and any other weight multiplies
into a scratch row.  The layer's pre-activations go into a (k, n) buffer,
and that scratch row and the one for ``S_B`` are (n,) buffers, all made
once per run.  Every row is computed before any is written, since a row
may read a coordinate that another row of the same layer writes.

The activation runs where the state lies.  ``layer_states`` resolves the
map once per run (``activations._in_place``, the entry that
``apply_activation`` runs on a copy), and the kernel takes one cache-sized
block at a time through all m compositions (``activations._compose``).
A contiguous live set, every column included, is one view of (d, n) state
rows, activated in place.  Of a live set with gaps, each run of
consecutive columns that holds at least ``activations._BLOCK`` (2^16)
elements is activated in place too, and the shorter runs are gathered
into one buffer, activated there and scattered back, so the short runs
of a set, as on a small graph, cost one kernel call and not one per run.

An activated array of at least ``_BLOCK`` elements, under a map composed
at least ``_TABLE_DEPTH`` (3) times that sends some integer of -2..2 to a
non-integer (``_takes_table``, decided once per ``(name, m)`` when a run
first meets such an array), goes one ``_BLOCK`` at a time through a table
of its distinct integers (``_look_up``).  A compiled network reads 0/1
indicators through integer weights, so a fresh pre-activation is an
integer in [-(K-1), Δ], and a carried indicator stays 0/1 under a map that
fixes 0 and 1; such a block holds a few distinct values, and the m
compositions run on those few, not on every vertex.  A lookup costs about
as much as two or three steps of the cheapest kernels, so below depth 3
the kernel runs on every element as before.  A block whose first element
is an integer and whose minimum lo and maximum hi are integers less than
``_CHUNK`` (2^12) apart is read one ``_CHUNK`` at a time: each element x
gets ``i = int(x - lo)``, and the chunk takes ``table[i]``, the kernel's
value at ``lo + i``, only if ``lo + i`` has the bits of x at every
element.  ``lo + i`` is +0.0 where it is zero, so a -0.0 never round-trips,
and the kernel takes it.  At the first chunk that does not round-trip, the
kernel takes the rest of the block; any other block goes to the kernel
whole; and a table that equals its inputs bit for bit (0 and 1 under
``step-arctan``) writes nothing.  The index and round-trip buffers, 2^12
elements each, are made on a run's first lookup, and a run keeps its
tables by range.  ``sigma-star``, ``crelu`` and ``relu`` keep integers
integer with kernels cheaper than a lookup, and never take a table.

The lookup is exact under a stronger condition than the blocking of
``activations._compose``.  Blocking keeps each element on the vector and
remainder path it takes in the whole array; a table puts the value of x at
another position, in an array of 1 to 2^12 entries, and a table shorter
than a SIMD vector runs only the remainder path.  So the lookup gives x
the kernel's bits only because each kernel gives a value the same bits
whatever its position and the length of its array.
``tests/test_engine.py::test_integer_blocks_take_a_table_with_the_reference_bits``
checks this against the reference executor at numpy's active SIMD level.

Before the loop, one backward pass over the layers (``_schedule``) reads
each layer's ``rows`` and term positions, plain Python ints as the layer
stores them, once per run and gives the loop, per layer, three things: the
index of its rows, a slice when they are contiguous, as every one-row
layer's are; the neighbour sums it reads (``p - d`` for each B position
p >= d), as a list of ints; and the live index of the columns to activate
after it: a tuple of slices activated in place and a gathered index array
or None.  The loop itself iterates no numpy array.  ``keep`` means the
same in ``run_forward``, which passes it through, and in ``layer_states``,
which checks it once: integer columns in ``[0, d)``.  With ``keep=None``
every column is activated at every layer.  Given ``keep``, only live
coordinates are: j is live after layer t when the caller keeps it or a
later layer reads it before it fires again, so, from the kept coordinates,
``live_after(t-1) = (live_after(t) - rows(t)) | reads(t)``, where
``reads(t)`` are the coordinates with a nonzero coefficient in layer t's A
or B, ``p % d`` over its term positions p.  The live index is one object
for as long as the set does not change.  A kept coordinate therefore sees
the same activations, layer by layer, as it would if every coordinate were
activated; one that is not live keeps a stale value, which no row reads.

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
any order is an exact integer, +0.0 where it is zero, whatever the map.  A
non-finite ``init`` and a layer whose pre-activations overflow are bad
input, and raise.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

import numpy as np

from . import activations
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


def _schedule(layers, keep, n):
    """For each layer, in order: the index of its rule rows, the columns whose
    neighbour sums it reads (a list of ``int``), and the ``_live_index`` of
    the columns to activate after it, all columns when ``keep`` is None.

    One backward pass over plain ints; the live index is rebuilt only where
    the live set changes, and is the same object until then."""
    live = None if keep is None else {int(j) for j in keep}
    cols = ((slice(None),), None) if keep is None else _live_index(sorted(live), n)
    steps = []
    for layer in reversed(layers):
        rows, d = layer.rows, layer.d
        ps = {p for row in layer.terms for p, _ in row}
        steps.append((_index(rows), sorted(p - d for p in ps if p >= d), cols))
        if live is not None:
            before = live.difference(rows).union(p % d for p in ps)
            if before != live:
                live, cols = before, _live_index(sorted(before), n)
    steps.reverse()
    return steps


def _fold(terms, values, low, out, prod):
    """``out = values[p1 - low] * v1 + values[p2 - low] * v2 + ...``, left to
    right; returns ``out``.  A weight of 1 or -1 folds as a copy, a negation,
    an addition or a subtraction, with the product's bits (``x * 1.0`` is x
    and ``x * -1.0`` is -x in IEEE 754, signed zeros included); any other
    weight multiplies into ``prod`` first."""
    (p, v), *rest = terms
    if v == 1.0:
        out[...] = values[p - low]
    elif v == -1.0:
        np.negative(values[p - low], out=out)
    else:
        np.multiply(values[p - low], v, out=out)
    for p, v in rest:
        if v == 1.0:
            out += values[p - low]
        elif v == -1.0:
            out -= values[p - low]
        else:
            out += np.multiply(values[p - low], v, out=prod)
    return out


@np.errstate(over="ignore", invalid="ignore")  # the caller checks that the result is finite
def _combine(layer, cur, agg, z, scratch):
    """The (k, n) pre-activations of ``layer``'s k rule rows, written into the
    first k rows of ``z``, from the (d, n) features ``cur`` and neighbour
    sums ``agg``; ``scratch`` is two (n,) buffers, for ``S_B`` and a product."""
    d = layer.d
    s_b, prod = scratch
    z = z[:len(layer.terms)]
    for zr, c, row in zip(z, layer.c, layer.terms):
        split = bisect_left(row, (d,))  # the terms ascend: A first, then B
        if split:
            _fold(row[:split], cur, 0, zr, prod)
            zr += c
            if split < len(row):
                zr += _fold(row[split:], agg, d, s_b, prod)
        elif row:  # S_B + c has the bits of c + S_B
            _fold(row, agg, d, zr, prod)
            zr += c
        else:
            zr.fill(c)
    return z


# Elements of the lookup's index and round-trip buffers (32 KB each), and the
# bound on the number of distinct integers a table holds.
_CHUNK = 1 << 12

# The least composition depth at which a map takes a table.  A lookup of a
# 2^16-element integer block costs about 300 us on a 2-core Xeon VM (numpy
# 2.4, AVX-512 loops), and one step of the cheapest table-taking kernels
# (tanh, sigmoid, step-arctan) 115-180 us on it: at m = 1 the lookup took
# about twice the kernel's time, at m = 2 about as long, at m = 3 less.
_TABLE_DEPTH = 3


@lru_cache(maxsize=None)
def _takes_table(name, m):
    """Whether ``name`` composed ``m`` times takes a table: m is at least
    ``_TABLE_DEPTH``, and the map sends some integer in -2..2 to a
    non-integer.  ``sigma-star``, ``crelu`` and ``relu`` keep an integer
    column integer with kernels cheaper than a lookup, and below
    ``_TABLE_DEPTH`` a lookup costs as much as the kernel or more."""
    if m < _TABLE_DEPTH:
        return False
    probe = activations.apply_activation(name, m, np.arange(-2.0, 3.0))
    return not all(v.is_integer() for v in probe.tolist())


def _look_up(block, activate, tables, index, trip):
    """Activate the leading chunks of ``block`` that hold only integers of
    its range ``[lo, hi]``, when its first element is an integer and lo and
    hi are integers less than ``_CHUNK`` apart, through ``activate``'s
    table of ``lo + i``; return how many leading elements are done.
    ``tables`` keeps a run's tables by range, and ``index`` and ``trip``
    are the run's two ``_CHUNK``-element buffers.

    An element x takes ``table[i]`` with ``i = int(x - lo)`` only if
    ``lo + i`` has x's bits, so the element gets the value the kernel gives
    ``lo + i``, which is x: -0.0 comes back as +0.0 and is never looked up.
    A table that equals its inputs bit for bit writes nothing.  A block of
    activated, non-integer values is refused on its first element, before
    the passes for its bounds."""
    if not float(block[0]).is_integer():
        return 0
    lo, hi = float(block.min()), float(block.max())
    if not (hi - lo < _CHUNK and lo.is_integer() and hi.is_integer()):
        return 0
    if (lo, hi) not in tables:
        table = lo + np.arange(hi - lo + 1)
        inputs = table.tobytes()
        activate(table)
        tables[lo, hi] = table, table.tobytes() == inputs
    table, fixed = tables[lo, hi]
    for start in range(0, block.size, _CHUNK):
        part = block[start:start + _CHUNK]
        i, t = index[:part.size], trip[:part.size]
        np.subtract(part, lo, out=i, casting="unsafe")  # in [0, hi - lo]: part lies in [lo, hi]
        np.add(i, lo, out=t)
        if not (t.view(np.int64) == part.view(np.int64)).all():
            return start
        if not fixed:
            table.take(i, out=part, mode="clip")
    return block.size


def _activator(name, m):
    """``name`` composed ``m`` times as a run's in-place map of dense arrays,
    resolved once (``activations._in_place``).  An array of fewer than
    ``activations._BLOCK`` elements, or any array under a map that
    ``_takes_table`` refuses, goes to the kernel whole.  Any other goes one
    ``_BLOCK`` at a time: a block's leading integer chunks through
    ``_look_up``, and the rest of it to the kernel."""
    activate = activations._in_place(name, m)
    tables, buffers = {}, []

    def run(out):
        if out.size < activations._BLOCK or not _takes_table(name, m):
            activate(out)
            return
        if not buffers:
            buffers.extend((np.empty(_CHUNK, dtype=np.int64), np.empty(_CHUNK)))
        flat = out.ravel(order="K")
        for start in range(0, flat.size, activations._BLOCK):
            block = flat[start:start + activations._BLOCK]
            done = _look_up(block, activate, tables, *buffers)
            if done < block.size:
                activate(block[done:])

    return run


def layer_states(init, graph, layers, name, m, keep=None, init_kinds=None):
    """Yield the (d, n) state of a run from the (n, d) features ``init``, one
    array updated in place: once before the first layer, then after each
    layer has activated every column, or only the live ones given ``keep``.
    A layer whose pre-activations are not all finite raises ValueError.

    ``init_kinds`` states that ``init`` is ``engine.initial_features`` of a
    spec with these ``init_kinds``; layer 1 then reads the neighbour sum of
    each kind from the graph's ``_first_sums``, and fills it where a kind
    is missing.  Without it, every sum is computed."""
    cur = np.array(np.asarray(init, dtype=np.float64).T, order="C")
    if not np.isfinite(cur).all():
        raise ValueError("initial features must be finite")
    d, n = cur.shape
    if keep is not None and not all(_is_integer(j) and 0 <= j < d for j in keep):
        raise ValueError(f"keep must list integer columns in [0, {d}), got {keep!r}")
    # the layer-1 sums of the initial kinds; a run without kinds keeps none
    kept = {} if init_kinds is None else graph._first_sums
    activate = _activator(name, m)
    agg = np.zeros((d, n))
    z = np.empty((max((len(layer.c) for layer in layers), default=0), n))
    scratch = (np.empty(n), np.empty(n))
    src, dst = graph.edge_src, graph.edge_dst
    # each edge's source value; take writes into out only when mode is not
    # "raise", and every source index is in range, so "clip" clips nothing
    sent = np.empty(len(src))
    steps = _schedule(layers, keep, n)
    yield cur
    for t, (layer, (rows, agg_cols, (views, gather))) in enumerate(zip(layers, steps), start=1):
        if layer.terms:
            for j in agg_cols:
                kind = init_kinds[j] if t == 1 and init_kinds is not None else None
                row = kept.get(kind)
                if row is None:
                    row = np.bincount(dst, weights=cur[j].take(src, out=sent, mode="clip"), minlength=n)
                    if kind is not None:
                        row.flags.writeable = False
                        kept[kind] = row
                agg[j] = row
            pre = _combine(layer, cur, agg, z, scratch)
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


def run_forward(init, graph, layers, name, m, keep=None, init_kinds=None):
    """The (n, d) features after the last layer, a transposed view of the
    final state of ``layer_states`` with the same ``keep`` and ``init_kinds``."""
    *_, cur = layer_states(init, graph, layers, name, m, keep, init_kinds)
    return cur.T
