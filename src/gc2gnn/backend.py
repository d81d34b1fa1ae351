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
per run by ``activations._in_place``, the one code that runs a map, which
composes its kernel on every element it is given.  Under a map that
settles the rule rows are the columns to activate: contiguous rows, as
every one-row layer's are, are one view, activated in place, and rows
with gaps are gathered into one buffer, activated there and scattered
back.  Under any other map a contiguous set of columns to activate is one
view of consecutive state rows, activated in place; of a set with gaps, so
is each run of consecutive columns that holds at least
``activations._BLOCK`` (2^16) elements, and the shorter runs are gathered
into one buffer, activated there and scattered back, one call for them
all.

A deep run on a large graph codes rows: it activates a column through a
table of the values it holds, and keeps each vertex's key into that table
for the next layer.  A compiled network reads 0/1 indicators through integer
weights, so a fresh pre-activation of layer 1 is an integer in
[-(K-1), Delta], and a row that reads only such columns through A terms
takes at most a few hundred distinct values.  The table rule (``_coding``,
one step run after each layer writes its rows):

- When.  A run codes rows when the depth it composes, m or 1 for an
  idempotent map, is at least ``_TABLE_DEPTH`` (3) and n is at least
  ``_CHUNK`` (2^12).  A table has at most ``_CHUNK`` entries, so it is
  never longer than the row it serves.  Below that depth a table costs
  about as much as the steps it saves, so exact maps (depth 1) never code,
  and neither do small graphs such as the sweeps' tree quotients.  The
  columns that no table serves go to the kernel together, as above.
- Integer rows.  An activated column that is not coded, whose first
  element is an integer and whose minimum lo and maximum hi are integers
  less than ``_CHUNK`` apart, activates the table ``lo, lo + 1, ..., hi``
  (once per range in a run) and takes its entry ``x - lo``, its key, if
  ``lo + (x - lo)`` has the bits of x at every element, checked one
  ``_CHUNK`` piece at a time: ``lo + i`` is +0.0 where it is zero, so a
  -0.0 never passes.  Any other column goes to the kernel whole.
- Coded rows.  Every rule row is computed on the vertices and written.
  Then a rule row that is activated after its layer, whose terms are all A
  terms over columns that hold a key from the layer before or are settled,
  and whose product of table lengths is at most ``_CHUNK``, is overwritten
  from a table: ``_fold`` runs over the columns' tables, each broadcast
  along its own axis in term order, then ``+= c``, and the map activates
  that product table.  Each vertex takes its entry by the mixed-radix key
  of its columns' keys, the first most significant, which is the row's
  key.  A product table with an entry that is not finite, which no vertex
  may reach, leaves its row to the integer rows' path, as every other row
  goes.
- Settled columns.  A column whose integer table writes nothing, a table
  equal to its inputs bit for bit, holds ``lo + key``: it is settled until
  a layer writes it, and is neither checked nor activated again.  A coded
  row reads its digit off its values, unless its layer writes the column.
- Carried columns.  An activated column that the layer does not write and
  that holds a key from the layer before activates its table again and
  takes from it by that key, which it keeps.
- Memory.  A key lasts one layer: layer t keys a column only when layer
  t + 1 carries it (activates it without writing it) or reads it through a
  row of A terms alone, and the run's keys are rebuilt every layer, each
  as the smallest unsigned dtype that holds its table's length.  A settled
  column holds no key.  Casts, round trips and takes go ``_CHUNK``
  elements at a time through the run's two buffers, an int64 index and a
  float64 round trip (32 KB each); larger buffers cost ``peak_rss_mb`` on
  ``large-forward``.
- Bits.  Every element gets the kernel's value of the float64 it holds
  once its layer has written, which a product table's entry computes by
  the same operations in the same order.  That the kernel gives a value
  the same bits at another position, in an array of 1 to 2^12 entries,
  where a table shorter than a SIMD vector runs only the remainder path,
  is a property of numpy's loops at each SIMD level;
  ``tests/test_activations.py`` checks it for every map at the active
  level and, in child processes, under numpy's AVX2 and baseline loops.
  No value is sorted or deduplicated: a table holds a range of integers or
  the product of such tables.

Runs under maps that settle share one layer loop while their activated
rows agree bit for bit.  The sharing rule (``layer_states``' ``others``,
which ``engine.forward`` passes on and ``engine.forward_outputs_each``
fills):

- When.  Runs share when every map of the call settles (its record's
  ``idempotent``: ``sigma-star``, ``crelu`` and ``relu``), as the run reads
  off the records when it starts, with no flag and no list of map names.
  Each layer's neighbour sums, ``_combine`` and finiteness check then run
  once for them all.
- How.  The loop writes the layer's pre-activations into the state, as a
  run of its own does.  The first map activates the rule rows in the
  state, the second in the pre-activation buffer, and each further map in
  a copy, a (k, n) buffer of its own made once per run.
- Tables.  A shared run composes depth 1, below ``_TABLE_DEPTH``, so it
  never codes rows.
- Bits.  While the maps agree through layer t, the rows they activated hold
  the same bytes, and a map that settles changes no other column, so their
  states are identical, and layer t + 1's sums and pre-activations are one
  computation.  Each map runs elementwise, so a row activated in a buffer
  has the bits it gets in the state.
- Parting.  After each layer the run compares each other map's rows with
  the first map's, byte for byte.  A map whose rows differ by even one
  byte parts: the run raises ``_Parted`` at the first such map, and
  ``forward_outputs_each`` runs the others shared again and the map that
  parted alone, from the start.  A
  compiled formula never parts ``sigma-star`` from ``crelu``: its
  pre-activations are integers, and both send z <= 0 to +0.0 and z >= 1 to
  1.0.  ``relu`` parts from them once a row reaches 2, and a hand-built
  bias off the integers can part any two (0.3 gives 0 under ``sigma-star``
  and 0.3 under ``crelu``).

Before the loop, one pass over the layers (``_schedule``) reads each
layer's ``rows`` and term positions, plain Python ints, once per run and
gives the loop, per layer, the index of its rows (a slice when they are
contiguous, as every one-row layer's are), the B positions p >= d whose
neighbour sums it reads as a list of ints, the live index of the columns
to activate after it and those columns as a list, which a coding run
reads (None for both under a map that settles); the loop iterates no
numpy array.  ``keep`` means the same in
``run_forward`` and ``layer_states``, which checks it once: integer
columns in ``[0, d)``.  Under a map that settles (its record's
``idempotent``; the rule is stated in ``activations``), a layer activates
its rule rows alone, with or without ``keep``, and no liveness pass runs:
every other column holds an initial 0 or 1 or a value the map gave, which
it leaves bit for bit, so every column holds what it would if all were
activated at every layer.  Under any other map, ``keep=None`` activates
every column at every layer; given ``keep``, only the live ones: j is live
after layer t when the caller keeps it or a later layer reads it before it
fires again, so, backward, ``live_after(t-1) = (live_after(t) - rows(t)) |
reads(t)`` from the kept coordinates, with ``reads(t) = {p % d}`` over
layer t's term positions p.  A kept column sees the activations of the run
that activates every column; only here can a column be stale: one not
live, which no row reads.

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
from math import prod

import numpy as np

from . import activations
from .formulas import _check_color
from .graphs import _is_integer

# Elements of a coding run's index and round-trip buffers (32 KB each), and
# the bound on a table's entries.
_CHUNK = 1 << 12

# The least composed depth at which a run codes rows (the table rule of the
# module docstring).  A lookup of 2^16 integers costs about 300 us on a
# 2-core Xeon VM (numpy 2.4, AVX-512 loops), and one step of the cheapest
# table-taking kernels (tanh, sigmoid, step-arctan) 115-180 us on it: at
# m = 1 the lookup took about twice the kernel's time, at m = 2 about as
# long, at m = 3 less.
_TABLE_DEPTH = 3


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
    whose neighbour sums it reads (a list of ``int``), the ``_live_index``
    of the columns to activate after it and those columns, ascending: all
    if ``keep`` is None, else the live ones, one index and one list until
    they change.  Under a map that ``settles`` a layer activates its rule
    rows through their index, so its step holds None for both."""
    live = None if keep is None or settles else {int(j) for j in keep}
    cols = list(range(layers[0].d if layers else 0)) if live is None else sorted(live)
    index = ((slice(None),), None) if live is None else _live_index(cols, n)
    if settles:
        cols = index = None
    steps = []
    for layer in reversed(layers):
        rows, d = layer.rows, layer.d
        ps = {p for row in layer.terms for p, _ in row}
        steps.append((_index(rows), sorted(p for p in ps if p >= d), index, cols))
        if live is not None:
            before = live.difference(rows).union(p % d for p in ps)
            if before != live:
                live, cols = before, sorted(before)
                index = _live_index(cols, n)
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
def _combine(d, cs, terms, cur, sums, z, scratch):
    """The (k, n) pre-activations of k rule rows, biases ``cs`` and terms
    ``terms`` over d columns, written into the first k rows of ``z``, from
    the (d, n) features ``cur`` and the (n,) neighbour-sum rows ``sums[p]``
    of the B positions p, which it only reads; ``scratch`` is two (n,)
    buffers, for ``S_B`` and a product."""
    s_b, prod = scratch
    z = z[:len(terms)]
    for zr, c, row in zip(z, cs, terms):
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


def _take(table, keys, row, buffers, key=None):
    """``row[v] = table[k]`` at every vertex v, where k is the mixed-radix
    key of ``keys``, ``(source, lo, length)`` triples with the first most
    significant, each digit ``source[v] - lo``, one ``_CHUNK`` piece at a
    time through ``buffers``, the run's int64 index and float64 round-trip
    buffers; ``key``, if given, receives k.  Each digit is an integer below
    ``_CHUNK`` and k is below ``_CHUNK`` too, so every step is exact."""
    index, trip = buffers
    (first, first_lo, _), *rest = keys
    for start in range(0, row.size, _CHUNK):
        stop = min(start + _CHUNK, row.size)
        i, t = index[:stop - start], trip[:stop - start]
        np.subtract(first[start:stop], first_lo, out=i, casting="unsafe")
        for source, lo, length in rest:
            i *= length
            np.add(i, np.subtract(source[start:stop], lo, out=t), out=i, casting="unsafe")
        table.take(i, out=row[start:stop], mode="clip")  # every k is in range
        if key is not None:
            key[start:stop] = i


def _integer_table(row, buffers):
    """The table ``lo, lo + 1, ..., hi`` of the (n,) ``row``, when its first
    element is an integer, lo and hi are integers less than ``_CHUNK``
    apart, and ``lo + (x - lo)`` has the bits of x at every element x,
    checked one ``_CHUNK`` piece at a time through ``buffers``, the run's
    int64 index and float64 round-trip buffers; else None.  A -0.0 never passes: ``lo + i`` is +0.0 where
    it is zero."""
    if not float(row[0]).is_integer():  # refuses activated values at once
        return None
    lo, hi = float(row.min()), float(row.max())
    if not (hi - lo < _CHUNK and lo.is_integer() and hi.is_integer()):
        return None
    index, trip = buffers
    for start in range(0, row.size, _CHUNK):
        part = row[start:start + _CHUNK]
        i, t = index[:part.size], trip[:part.size]
        np.subtract(part, lo, out=i, casting="unsafe")  # in [0, hi - lo]: part lies in [lo, hi]
        np.add(i, lo, out=t)
        if not (t.view(np.int64) == part.view(np.int64)).all():
            return None
    return lo + np.arange(hi - lo + 1)


@np.errstate(over="ignore", invalid="ignore")  # the caller checks that the result is finite
def _product(row, c, tables):
    """The flat pre-activation table of the rule row of A terms ``row`` and
    bias ``c`` over columns whose values ``tables[p]`` lists: ``_fold`` over
    the tables, each broadcast along its own axis in term order, then
    ``+= c``; None if it would have more than ``_CHUNK`` entries."""
    shape = [len(tables[p]) for p, _ in row]
    if prod(shape) > _CHUNK:
        return None
    values = {
        p: tables[p].reshape([size if axis == i else 1 for axis in range(len(shape))])
        for i, ((p, _), size) in enumerate(zip(row, shape))
    }
    table = _fold(row, values, np.empty(shape), np.empty(shape))
    table += c
    return table.reshape(-1)


def _coding(layers, steps, activate):
    """The step of a run of ``layers`` under ``activate`` that codes rows, by
    the table rule of the module docstring; ``steps`` is the run's
    ``_schedule``.  After layer t writes its rows, ``code(t, layer, cur)``
    overwrites its coded rows from their product tables, activates the
    other columns that ``steps`` activates after it through their tables
    where it can, and returns the rest, ascending, for the kernel.

    ``codes`` maps each column that layer t keys to its digit of a key,
    ``(key, 0, length)``, and its activated table; a new map is built every
    layer.  ``settled`` maps each settled column to its digit, ``(values,
    lo, length)``, and its table, until a layer writes it.  ``tables`` keeps
    the run's activated integer tables by range, and ``buffers`` are its
    two ``_CHUNK``-element buffers."""
    codes, settled, tables = {}, {}, {}
    buffers = np.empty(_CHUNK, dtype=np.int64), np.empty(_CHUNK)

    def code(t, layer, cur):
        nonlocal codes
        d, written, cols = layer.d, set(layer.rows), steps[t - 1][3]
        keyed = set()  # the columns the next layer carries, or reads through A terms alone
        if t < len(layers):
            after = layers[t]
            keyed = set(steps[t][3]).difference(after.rows)
            keyed.update(p for row in after.terms if row and row[-1][0] < d for p, _ in row)
        held, codes, active, coded, kernel = codes, {}, set(cols), set(), []
        for j in written:
            settled.pop(j, None)

        def take(j, table, digits):
            key = np.empty(cur.shape[1], np.min_scalar_type(len(table))) if j in keyed else None
            _take(table, digits, cur[j], buffers, key)
            if key is not None:
                codes[j] = (key, 0, len(table)), table

        for j, c, row in zip(layer.rows, layer.c, layer.terms):
            if j not in active or not row or row[-1][0] >= d:
                continue
            inputs = [held.get(p) or settled.get(p) for p, _ in row]
            if not all(inputs):
                continue
            table = _product(row, c, {p: values for (p, _), (_, values) in zip(row, inputs)})
            if table is not None and np.isfinite(table).all():
                activate(table)
                take(j, table, [digit for digit, _ in inputs])
                coded.add(j)
        for j in cols:
            if j in coded or j in settled:  # a settled column's table writes nothing
                continue
            if j in held and j not in written:  # carried: its table again, by the same key
                digit, inputs = held[j]
                table = inputs.copy()
                activate(table)
                if table.tobytes() != inputs.tobytes():
                    _take(table, [digit], cur[j], buffers)
                if j in keyed:
                    codes[j] = digit, table
                continue
            inputs = _integer_table(cur[j], buffers)
            if inputs is None:
                kernel.append(j)
                continue
            bounds = inputs[0], len(inputs)
            if bounds not in tables:
                tables[bounds] = inputs.copy()
                activate(tables[bounds])
            table, digit = tables[bounds], (cur[j], inputs[0], len(inputs))
            if table.tobytes() == inputs.tobytes():
                settled[j] = digit, table
            else:
                take(j, table, [digit])
        return kernel

    return code


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


class _Parted(Exception):
    """Raised by a shared run at the first layer whose rule rows one of its
    ``others`` activates to other bits than its first map; ``position`` is
    that map's position in ``others``."""

    def __init__(self, position):
        super().__init__(position)
        self.position = position


def layer_states(spec, graph, name, m, keep=None, *, others=()):
    """Yield the (d, n) state of ``spec``'s layers run on ``graph`` under
    ``name`` composed ``m`` times, one array updated in place: once before
    the first layer, the initial state built from ``spec.init_kinds``, then
    after each layer has activated its rule rows under a map that settles,
    else the columns ``_schedule`` gives it, through tables where the table
    rule of the module docstring says.
    Layer 1 reads the neighbour sum of each kind from the graph's
    ``_first_sums``, and fills it where a kind is missing.  A layer whose
    pre-activations are not all finite raises ValueError.

    ``others`` lists further ``(name, m)`` maps that share the run (the
    sharing rule of the module docstring): the run and each of them must
    settle, and a layer whose rule rows one of them activates to other bits
    than ``name`` does raises ``_Parted`` with the position in ``others``
    of the first such map."""
    cur = _initial_state(spec, graph)
    d, n = cur.shape
    if keep is not None and not all(_is_integer(j) and 0 <= j < d for j in keep):
        raise ValueError(f"keep must list integer columns in [0, {d}), got {keep!r}")
    layers, kinds, kept = spec.layers, spec.init_kinds, graph._first_sums
    maps = [(name, m), *others]
    settles = all(activations.get_activation(each).idempotent for each, _ in maps)
    if others and not settles:
        raise ValueError(f"maps that share a run must settle, got {maps!r}")
    activate, *shared = [activations._in_place(*each) for each in maps]
    k = max((len(layer.c) for layer in layers), default=0)
    z = np.empty((k, n))
    copies = [np.empty((k, n)) for _ in shared[1:]]  # the third and later maps' pre-activations
    scratch = (np.empty(n), np.empty(n))
    src, dst = graph.edge_src, graph.edge_dst
    # each edge's source value; take writes into out only when mode is not
    # "raise", and every source index is in range, so "clip" clips nothing
    sent = np.empty(len(src))
    steps = _schedule(layers, keep, n, settles)
    coding = not settles and m >= _TABLE_DEPTH and n >= _CHUNK  # the table rule
    if coding:
        code = _coding(layers, steps, activate)
    yield cur
    for t, (layer, (rows, positions, live, _)) in enumerate(zip(layers, steps), start=1):
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
        pre = _combine(d, layer.c, layer.terms, cur, sums, z, scratch)
        if not np.isfinite(pre).all():
            raise ValueError(f"layer {t} has a pre-activation that is not finite")
        cur[rows] = pre
        if settles:  # the sharing rule of the module docstring
            state = cur[rows]  # a view when the rows are contiguous, else a gathered copy
            outs = [pre]
            for copy in copies:
                outs.append(copy[:len(pre)])
                np.copyto(outs[-1], pre)
            activate(state)
            if type(rows) is not slice:
                cur[rows] = state
            for i, (run, out) in enumerate(zip(shared, outs)):
                run(out)
                if out.tobytes() != state.tobytes():
                    raise _Parted(i)
        else:
            views, gather = _live_index(code(t, layer, cur), n) if coding else live
            for view in views:
                activate(cur[view])
            if gather is not None:
                block = cur.take(gather, axis=0)  # take: half a fancy gather
                activate(block)
                cur[gather] = block
        yield cur


def run_forward(spec, graph, name, m, keep=None, *, others=()):
    """The (n, d) features after the last layer, a transposed view of the
    final state of ``layer_states`` with the same ``keep`` and ``others``."""
    *_, cur = layer_states(spec, graph, name, m, keep, others=others)
    return cur.T
