"""Experiment harnesses: separation and saturation sweeps over the tree
family, convergence-rate sweeps, and the shared CSV schema
(experiment,query,activation,m,k,n,delta,value,seconds).

A sweep packs consecutive k values into blocks of at most ``_BLOCK_EDGES``
in-edges and runs each block's tree pairs on one ordered quotient, ten
vertices and 4k + 9 in-edges per k in place of the pair's O(k^2) vertices,
with one forward pass per ``(name, m)`` per block, the runs of maps that
settle shared (``tree_roots``).  The quotient comes from the one
tree-quotient builder,
``graphs._trees_quotient``, which ``tree_roots`` calls with a block's k
values as arrays, so a sweep builds no ``TreeParams``.  Every vertex of a
tree gets its class's value bit for bit, whatever trees share its
quotient, so the CSV bytes are those of the explicit pair of
``graphs.make_tree`` trees.

Around the forwards a sweep keeps its bookkeeping small: all gaps are one
numpy subtraction and ``abs``, a row is a named tuple built in one
comprehension, and its CSV line one f-string.  In the ``arctan-4pi`` m = 4,
8, 12 sweep over k = 2..64 (315 rows; best of 7 in process on a 2-core
Xeon VM), the five forwards take about 0.76 ms of a 1.65 ms ``separation``
call, building the rows about 0.17 ms and their CSV text about 0.32 ms."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .activations import (
    EXACT_NAMES,
    ActivationSpec,
    apply_activation,
    certificate,
    convergence_bound,
    plateau_grid,
)
from .compiler import GnnSpec, compile_formula
from .engine import forward_outputs_each
from .formulas import Formula, parse
from .graphs import _check_tree_sizes, _trees_quotient

__all__ = [
    "CSV_HEADER",
    "ResultRow",
    "BoundViolation",
    "rows_to_csv",
    "load_query",
    "Q1_TEXT",
    "Q2_TEXT",
    "tree_roots",
    "run_separation",
    "run_saturation",
    "check_saturation_decay",
    "run_convergence",
    "check_convergence_rows",
]

CSV_HEADER = "experiment,query,activation,m,k,n,delta,value,seconds"

Q1_TEXT = "not (dia>=1 (not (dia>=2 top)))"
Q2_TEXT = "(C1 and dia>=1 ((dia>=1 C2) and (dia>=1 C1)))"
_PRESETS = {"q1": (Q1_TEXT, 1), "q2": (Q2_TEXT, 2)}  # name: (text, own palette)

# Collar samples of a convergence sweep (not the certificate check's collar,
# ``activations._COLLAR_POINTS``), and the slack an observed row may take
# over its bound.
_CONVERGENCE_POINTS = 100_001
_BOUND_TOL = 1e-12

# The in-edge cap of one sweep block's quotient (a k's pair has 4k + 9), so
# a sweep's memory is O(max k) whatever its number of k values.
_BLOCK_EDGES = 2**16


class BoundViolation(AssertionError):
    """A sweep row broke the bound that governs it."""


class ResultRow(NamedTuple):
    experiment: str
    query: str
    activation: str
    m: int
    k: int
    n: int
    delta: int
    value: float

    def to_csv(self) -> str:
        # The seconds column is kept for the schema and always reads zero, so
        # reruns of one configuration give the same bytes.
        experiment, query, activation, m, k, n, delta, value = self
        return f"{experiment},{query},{activation},{m},{k},{n},{delta},{float(value)!r},0.000000"


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER, *map(ResultRow.to_csv, rows)]) + "\n"


def load_query(name_or_text: str, palette: int | None = None) -> tuple[str, Formula, int]:
    """Resolve a query: the presets ``q1``/``q2`` or raw formula text.

    Returns (label, formula, palette).  The text is parsed against
    ``palette`` when one is given, else against the preset's own palette
    (1 for raw text).
    """
    label = name_or_text.lower()
    text, own = _PRESETS.get(label, (None, 1))
    if text is None:
        label = text = name_or_text
    palette = own if palette is None else palette
    return label, parse(text, palette), palette


def _blocks(k_values):
    """Consecutive runs of ``k_values`` whose pairs hold at most
    ``_BLOCK_EDGES`` in-edges together; a k over the cap alone is a block."""
    block, edges = [], 0
    for k in k_values:
        pair = 4 * k + 9
        if block and edges + pair > _BLOCK_EDGES:
            yield block
            block, edges = [], 0
        block.append(k)
        edges += pair
    if block:
        yield block


def tree_roots(spec: GnnSpec, runs, k_values, palette: int) -> np.ndarray:
    """The output of ``spec`` at both roots of each k's tree pair, under
    each ``ActivationSpec`` of ``runs``, as a (len(k_values), len(runs), 2)
    array: entry [i, j] holds the x = 0 root, then the x = 1 root.

    k's pair is ``make_tree(TreeParams(x, k, k), coloring)`` for x = 0 and
    1: the k-ary tree with zero and with one leaf under the first internal
    vertex, one color for palette 1, else with blue leaves, so a spec color
    beyond C2 raises as the forward builds its initial state.  A k that is
    not an integer >= 1 raises ``TreeParams``'s ``ValueError``.  Consecutive
    k values share a block (``_blocks``): one ordered quotient of their
    pairs, built from their k values alone (``graphs._trees_quotient``), and
    one ``forward_outputs_each`` call for all runs, where the runs of maps
    that settle share one forward pass (``separation``'s two baselines) and
    every other run has its own."""
    k_values = list(k_values)
    for k in k_values:
        _check_tree_sizes(0, k, k)
    roots = np.empty((len(k_values), len(runs), 2))
    coloring = "unicolor" if palette == 1 else "leaves-blue"
    start = 0
    for block in _blocks(k_values):
        k = np.repeat(np.array(block, dtype=np.int64), 2)  # each k twice, for x = 0 and 1
        quotient, classes = _trees_quotient(np.tile(np.array([0, 1]), len(block)), k, k, coloring)
        stop = start + len(block)
        outputs = forward_outputs_each(spec, quotient, runs)[:, classes]
        roots[start:stop] = outputs.reshape(len(runs), -1, 2).transpose(1, 0, 2)
        start = stop
    return roots


def _sweep(experiment: str, query: str, palette: int | None, k_values, runs) -> list[ResultRow]:
    """For each k, one row per ``(name, m)`` of ``runs``: the gap between the
    two roots of k's tree pair, run in blocks of k by ``tree_roots``.

    Its ``n`` is the second tree's vertex count, 1 + k + 1 + (k-1)k, and its
    ``delta`` the pair's largest degree, k + 1 (vertex 1 of the second tree
    when k = 1, else an internal vertex's root and k leaves).  The gaps come
    from one numpy subtraction and ``abs``, with the bits of Python's
    ``abs(high - low)``."""
    specs = [ActivationSpec(name, m) for name, m in runs]  # an unknown name or a negative m raises
    if not specs or not k_values:
        raise ValueError("sweeps must be non-empty")
    if min(k_values) < 1:
        raise ValueError(f"k must be >= 1, got k = {min(k_values)}")
    label, formula, palette = load_query(query, palette)
    roots = tree_roots(compile_formula(formula, palette), specs, k_values, palette)
    gaps = np.abs(roots[:, :, 1] - roots[:, :, 0]).tolist()
    heads = [(act.name, act.m) for act in specs]
    return [
        ResultRow(experiment, label, name, m, k, 1 + k + 1 + (k - 1) * k, k + 1, gap)
        for k, row in zip(k_values, gaps)
        for (name, m), gap in zip(heads, row)
    ]


def run_separation(query: str, activation: str, m_values, k_values,
                   palette: int | None = None) -> list[ResultRow]:
    """Gap between the two tree roots per (m, k), for ``activation``, with
    exact-threshold and clipped-relu baselines; no m to sweep is an empty sweep."""
    swept = [(activation, m) for m in m_values]
    baselines = [(name, 1) for name in EXACT_NAMES] if swept else []
    return _sweep("separation", query, palette, k_values, baselines + swept)


def run_saturation(query: str, activation: str, m: int, k_values,
                   palette: int | None = None) -> list[ResultRow]:
    """Gap decay of a fixed bounded-activation network as the trees grow,
    with the clipped-relu control pinned at its exact value."""
    return _sweep("saturation", query, palette, k_values, [(activation, m), ("crelu", 1)])


def check_saturation_decay(rows) -> tuple[float, float]:
    """Assert the configured activation's gap shrinks from the smallest to
    the largest tree, in whatever order the rows list k; returns the gaps at
    the smallest and the largest k."""
    swept = [r for r in rows if r.activation not in EXACT_NAMES]
    if len(swept) < 2:
        raise ValueError("need at least two sweep points")
    first, last = min(swept, key=lambda r: r.k), max(swept, key=lambda r: r.k)
    if not last.value < first.value:
        raise BoundViolation(
            f"no saturation decay: gap(k={last.k}) = {last.value} "
            f">= gap(k={first.k}) = {first.value}"
        )
    return first.value, last.value


def run_convergence(name: str, m_lo: int = 0, m_hi: int = 20) -> list[ResultRow]:
    """Worst observed |sigma^m - threshold| over the plateau collar next to
    the certified bound, one observed row and one bound row per m."""
    params = certificate(name)
    grid = plateau_grid(params.eps, _CONVERGENCE_POINTS)
    target = apply_activation("sigma-star", 1, grid)
    rows: list[ResultRow] = []
    values = apply_activation(name, m_lo, grid)
    for m in range(m_lo, m_hi + 1):
        observed = float(np.abs(values - target).max())
        bound = convergence_bound(params, m)
        rows.append(ResultRow("convergence", "-", name, m, 0, grid.size, 0, observed))
        rows.append(ResultRow("convergence-bound", "-", name, m, 0, grid.size, 0, bound))
        values = apply_activation(name, 1, values)
    return rows


def check_convergence_rows(rows) -> None:
    """Assert every observed row stays within its paired bound row."""
    bounds = {
        (r.activation, r.m): r.value for r in rows if r.experiment == "convergence-bound"
    }
    for r in rows:
        if r.experiment != "convergence":
            continue
        bound = bounds.get((r.activation, r.m))
        if bound is None:
            raise ValueError(f"no bound row for {r.activation} at m={r.m}")
        if r.value > bound + _BOUND_TOL:
            raise BoundViolation(
                f"{r.activation} at m={r.m}: observed {r.value} exceeds bound {bound}"
            )
