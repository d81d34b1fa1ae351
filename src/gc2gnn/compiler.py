"""Translate GC2 formulas into explicit per-layer integer weight matrices.

Each distinct subformula owns one embedding coordinate.  Color atoms start
as their indicator and ``top`` starts at 1, so atoms are correct before the
first layer; a connective's rule row fires exactly at its dependency level,
and every other coordinate carries forward unchanged.  Running the result
under the hard threshold (or clipped relu: pre-activations are integers)
reproduces the brute-force evaluator at every coordinate.

A layer stores only its rule rows, in memory and in the text format alike;
the identity carries are never written out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .activations import ActivationSpec
from .formulas import And, Color, Diamond, Formula, Not, Top, subformulas
from .graphs import _parse_block, _read_ascii

__all__ = [
    "GnnLayer",
    "GnnSpec",
    "compile_formula",
    "carry_forward_check",
    "spec_to_text",
    "spec_from_text",
    "read_spec",
    "SpecFormatError",
]


class SpecFormatError(ValueError):
    """Raised when a serialized network cannot be parsed."""


def _terms(matrix):
    """The nonzeros of each row of the (k, d) ``matrix`` by term position:
    one ``(columns, coefficients)`` pair of (k,) arrays per position, as many
    positions as the densest row has nonzeros.  Position p holds each row's
    p-th nonzero in ascending column order; a row with fewer nonzeros has a
    zero coefficient on column 0 there."""
    rows = [[] for _ in range(matrix.shape[0])]
    r, j = matrix.nonzero()
    for row, col, coef in zip(r.tolist(), j.tolist(), matrix[r, j].tolist()):
        rows[row].append((col, coef))
    width = max(map(len, rows), default=0)
    padded = [terms + [(0, 0.0)] * (width - len(terms)) for terms in rows]
    return tuple(
        (np.array([terms[p][0] for terms in padded], dtype=np.int64), np.array([terms[p][1] for terms in padded]))
        for p in range(width)
    )


def _columns(terms):
    """The ascending distinct columns with a nonzero coefficient in ``terms``."""
    read = {col for cols, coefs in terms for col, coef in zip(cols.tolist(), coefs.tolist()) if coef != 0.0}
    return np.array(sorted(read), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class GnnLayer:
    """One iteration's rule rows; every other coordinate carries over unchanged.

    Row ``r`` computes coordinate ``rows[r]`` as ``c[r] + A[r] . x + B[r] . agg``
    from the previous layer's features ``x`` and their neighbour sum ``agg``.
    ``rows`` is ascending and distinct in ``[0, d)``; ``A`` and ``B`` are
    ``(k, d)`` and ``c`` is ``(k,)`` for ``k`` rule rows.  ``a_terms`` and
    ``b_terms`` list the rows' nonzeros by term position, built once from
    ``A`` and ``B``; the forward pass combines the rows from them.
    """

    rows: np.ndarray
    A: np.ndarray
    B: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.size == 0:
            rows = rows.astype(np.int64)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ValueError("rows must be a 1-D integer array")
        a = np.ascontiguousarray(np.asarray(self.A, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.B, dtype=np.float64))
        c = np.ascontiguousarray(np.asarray(self.c, dtype=np.float64))
        if a.ndim != 2 or a.shape[0] != rows.size or b.shape != a.shape or c.shape != rows.shape:
            raise ValueError("A, B, c shapes disagree with the rule rows")
        if rows.size and (rows[0] < 0 or rows[-1] >= a.shape[1] or (np.diff(rows) <= 0).any()):
            raise ValueError(f"rule rows must be ascending and distinct in [0, {a.shape[1]})")
        object.__setattr__(self, "rows", rows.astype(np.int64))
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "c", c)

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @cached_property
    def a_terms(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``A``'s nonzeros by term position: see ``_terms``."""
        return _terms(self.A)

    @cached_property
    def b_terms(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``B``'s nonzeros by term position: see ``_terms``."""
        return _terms(self.B)

    @cached_property
    def reads(self) -> np.ndarray:
        """The ascending columns with a nonzero coefficient in ``A`` or ``B``."""
        return _columns(self.a_terms + self.b_terms)

    @cached_property
    def agg_reads(self) -> np.ndarray:
        """The ascending columns with a nonzero coefficient in ``B``: the
        neighbour sums the layer needs."""
        return _columns(self.b_terms)

    def __eq__(self, other):
        return (
            isinstance(other, GnnLayer)
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.A, other.A)
            and np.array_equal(self.B, other.B)
            and np.array_equal(self.c, other.c)
        )


@dataclass(frozen=True, eq=False)
class GnnSpec:
    """A compiled network: rule-row layers over one coordinate per subformula.

    ``init_kinds`` describes the iteration-0 features per coordinate:
    ``"0"``, ``"1"``, or ``"C<i>"`` (indicator of color i >= 1).  The width ``d``
    is its length and ``iterations`` the number of layers; the layers' rule
    rows say where each coordinate fires.  Compiled specs also name each
    coordinate's subformula in ``coordinate_formulas``.
    """

    output_index: int
    layers: tuple[GnnLayer, ...]
    activation: ActivationSpec
    init_kinds: tuple[str, ...]
    coordinate_formulas: tuple[Formula, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if not 0 <= self.output_index < self.d:
            raise ValueError("output index out of range")
        for kind in self.init_kinds:
            index = kind[1:]
            if kind not in ("0", "1") and not (
                kind.startswith("C") and index.isascii() and index.isdigit() and int(index) >= 1
            ):
                raise ValueError(f"bad init kind {kind!r}")
        if any(layer.d != self.d for layer in self.layers):
            raise ValueError("layer dimension disagrees with d")

    @property
    def d(self) -> int:
        return len(self.init_kinds)

    @property
    def iterations(self) -> int:
        return len(self.layers)

    def __eq__(self, other):
        return (
            isinstance(other, GnnSpec)
            and self.output_index == other.output_index
            and self.activation == other.activation
            and self.init_kinds == other.init_kinds
            and self.layers == other.layers
        )

    def with_activation(self, name: str, m: int = 1) -> "GnnSpec":
        return replace(self, activation=ActivationSpec(name, m))


def compile_formula(
    formula: Formula,
    palette: int,
    activation: ActivationSpec | None = None,
) -> GnnSpec:
    """Compile ``formula`` over a palette of ``palette`` colors.

    Rule rows per connective: negation reads its child with weight -1 and
    bias +1; conjunction adds its two children with bias -1 (or collapses to
    an identity read when both children coincide); the graded quantifier
    reads the neighbor aggregate of its child with bias -(K-1).
    """
    if palette < 1:
        raise ValueError("palette must be >= 1")
    activation = activation or ActivationSpec("sigma-star", 1)
    subs = subformulas(formula)
    entries, children = subs.entries, subs.children

    # coordinates: color atoms by index, then top, then the rest in entry order
    colors = sorted(
        (i for i, g in enumerate(entries) if isinstance(g, Color)), key=lambda i: entries[i].index
    )
    for i in colors:
        if entries[i].index > palette:
            raise ValueError(f"formula uses color C{entries[i].index} beyond palette {palette}")
    tops = [i for i, g in enumerate(entries) if isinstance(g, Top)]
    rest = [i for i, g in enumerate(entries) if not isinstance(g, (Color, Top))]
    order = [*colors, *tops, *rest]
    coord = np.argsort(order).tolist()  # entry position -> coordinate

    # a connective fires one layer after the latest of its children
    level: list[int] = []
    for kids in children:
        level.append(1 + max(level[k] for k in kids) if kids else 0)

    d = len(order)
    iterations = len(entries) - len(tops)  # the iteration budget of ``depth``
    assert iterations >= level[-1], "iteration budget below dependency height"
    # coordinates in ascending order per level; atoms sit at level 0 and never fire
    firing: list[list[int]] = [[] for _ in range(iterations + 1)]
    for j, i in enumerate(order):
        firing[level[i]].append(j)

    layers = []
    for rows in firing[1:]:
        a_t = np.zeros((len(rows), d))
        b_t = np.zeros((len(rows), d))
        c_t = np.zeros(len(rows))
        for r, j in enumerate(rows):
            i = order[j]
            g, kids = entries[i], [coord[k] for k in children[i]]
            if isinstance(g, Not):
                a_t[r, kids[0]] = -1.0
                c_t[r] = 1.0
            elif isinstance(g, And):
                i1, i2 = kids
                a_t[r, i1] = 1.0
                if i1 != i2:
                    a_t[r, i2] = 1.0
                    c_t[r] = -1.0
            else:
                b_t[r, kids[0]] = 1.0
                c_t[r] = 1.0 - g.threshold
        layers.append(GnnLayer(rows, a_t, b_t, c_t))

    coords = tuple(entries[i] for i in order)
    init_kinds = tuple(
        f"C{g.index}" if isinstance(g, Color) else ("1" if isinstance(g, Top) else "0")
        for g in coords
    )
    return GnnSpec(
        output_index=coord[-1],
        layers=tuple(layers),
        activation=activation,
        init_kinds=init_kinds,
        coordinate_formulas=coords,
    )


def carry_forward_check(spec: GnnSpec) -> bool:
    """True iff every coordinate fires at its dependency level: in at most one
    layer's rule rows (every other layer carries it), and there exactly one
    layer after the latest-firing coordinate its row reads, where a coordinate
    that never fires counts as layer 0.  Only the rule rows are read, so a
    spec read back from text is checked as a compiled one is."""
    fired = np.zeros(spec.d, dtype=np.int64)
    for t, layer in enumerate(spec.layers, start=1):
        if fired[layer.rows].any():
            return False
        fired[layer.rows] = t
    return all(
        (np.where((layer.A != 0.0) | (layer.B != 0.0), fired, 0).max(axis=1) == t - 1).all()
        for t, layer in enumerate(spec.layers, start=1)
    )


# --------------------------------------------------------------------------
# text serialization
#
#   line 1: d iterations output_index activation_name m, 0 <= iterations <= d
#   line 2: init <d tokens: 0 | 1 | C<i>>
#   per rule row: t j c A[r] B[r], decimal integers: layer t in
#   [1, iterations] (never decreasing), coordinate j, then the row's 2d + 1
#   coefficients; a layer without rule rows has no line


def spec_to_text(spec: GnnSpec) -> str:
    if spec.iterations > spec.d:
        raise ValueError(f"{spec.iterations} layers exceed d = {spec.d}: the text format holds at most d")
    lines = [
        f"{spec.d} {spec.iterations} {spec.output_index} "
        f"{spec.activation.name} {spec.activation.m}"
    ]
    lines.append("init " + " ".join(spec.init_kinds))
    for t, layer in enumerate(spec.layers, start=1):
        block = np.column_stack((np.full(layer.rows.size, t), layer.rows, layer.c, layer.A, layer.B))
        bad = ~np.isfinite(block) | (block != np.round(block))
        if bad.any():
            raise ValueError(f"non-integer entry {block[bad][0]!r} cannot be serialized")
        lines.extend(" ".join(str(int(value)) for value in row) for row in block.tolist())
    return "\n".join(lines) + "\n"


def spec_from_text(text: str) -> GnnSpec:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise SpecFormatError("spec text too short")
    head = lines[0].split()
    if len(head) != 5:
        raise SpecFormatError(f"malformed header {lines[0]!r}")
    try:
        d, iterations, output_index, m = int(head[0]), int(head[1]), int(head[2]), int(head[4])
    except ValueError as exc:
        raise SpecFormatError(f"malformed header {lines[0]!r}") from exc
    if not 0 <= iterations <= d:  # compiled specs meet it; the file backs d, not a bigger depth
        raise SpecFormatError(f"iterations outside 0..{d} in {lines[0]!r}")
    try:
        activation = ActivationSpec(head[3], m)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc
    init_toks = lines[1].split()
    if len(init_toks) != d + 1 or init_toks[0] != "init":
        raise SpecFormatError("expected an init line with one token per coordinate")
    init_kinds = tuple(init_toks[1:])
    body = lines[2:]
    block = _parse_block(body, 2 * d + 3, SpecFormatError)
    t = block[:, 0]
    bad = (t < 1) | (t > iterations) | np.r_[False, t[1:] < t[:-1]]
    if bad.any():
        raise SpecFormatError(f"layer out of order or outside 1..{iterations} in {body[np.argmax(bad)]!r}")
    bounds = np.searchsorted(t, np.arange(1, iterations + 2)).tolist()
    try:
        def layer(rule):
            return GnnLayer(rule[:, 1], rule[:, 3 : d + 3], rule[:, d + 3 :], rule[:, 2])
        layers = tuple(layer(block[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        return GnnSpec(
            output_index=output_index,
            layers=layers,
            activation=activation,
            init_kinds=init_kinds,
        )
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc


def read_spec(path) -> GnnSpec:
    return spec_from_text(_read_ascii(path, SpecFormatError))
