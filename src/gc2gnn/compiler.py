"""Translate GC2 formulas into explicit per-layer integer weight matrices.

Each distinct subformula owns one embedding coordinate.  Color atoms start
as their indicator and ``top`` starts at 1, so atoms are correct before the
first layer; a connective's rule row fires exactly at its dependency level,
and every other coordinate carries forward unchanged.  Running the result
under the hard threshold (or clipped relu: pre-activations are integers)
reproduces the brute-force evaluator at every coordinate.

A layer stores only its rule rows; the square matrices with the identity
carries written out exist only in the text format.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .activations import ActivationSpec, ACTIVATION_NAMES
from .formulas import And, Color, Diamond, Formula, Not, Top, subformulas

__all__ = [
    "GnnLayer",
    "GnnSpec",
    "compile_formula",
    "carry_forward_check",
    "spec_to_text",
    "spec_from_text",
    "write_spec",
    "read_spec",
    "SpecFormatError",
]


class SpecFormatError(ValueError):
    """Raised when a serialized network cannot be parsed."""


@dataclass(frozen=True, eq=False)
class GnnLayer:
    """One iteration's rule rows; every other coordinate carries over unchanged.

    Row ``r`` computes coordinate ``rows[r]`` as ``c[r] + A[r] . x + B[r] . agg``
    from the previous layer's features ``x`` and their neighbour sum ``agg``.
    ``rows`` is ascending and distinct in ``[0, d)``; ``A`` and ``B`` are
    ``(k, d)`` and ``c`` is ``(k,)`` for ``k`` rule rows.
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
    def reads(self) -> np.ndarray:
        """The ascending columns with a nonzero coefficient in ``A`` or ``B``."""
        return np.flatnonzero(self.A.any(axis=0) | self.B.any(axis=0))

    @cached_property
    def agg_reads(self) -> np.ndarray:
        """The ascending columns with a nonzero coefficient in ``B``: the
        neighbour sums the layer needs."""
        return np.flatnonzero(self.B.any(axis=0))

    @classmethod
    def from_dense(cls, A, B, c) -> "GnnLayer":
        """The layer of the square update ``c + A x + B agg``: its rule rows are
        all rows except identity carries (``A[i] = e_i``, ``B[i] = 0``, ``c[i] = 0``)."""
        a, b, c = (np.asarray(x, dtype=np.float64) for x in (A, B, c))
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != a.shape or c.shape != (a.shape[0],):
            raise ValueError("dense layer needs square A and B and one bias per row")
        carry = (a == np.eye(c.size)).all(axis=1) & ~b.any(axis=1) & (c == 0.0)
        rows = np.flatnonzero(~carry)
        return cls(rows, a[rows], b[rows], c[rows])

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The square ``(A, B, c)`` with identity carries written out."""
        a, b, c = np.eye(self.d), np.zeros((self.d, self.d)), np.zeros(self.d)
        a[self.rows], b[self.rows], c[self.rows] = self.A, self.B, self.c
        return a, b, c

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
    ``"0"``, ``"1"``, or ``"C<i>"`` (indicator of color i).  The width ``d``
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
            if kind not in ("0", "1") and not (kind.startswith("C") and kind[1:].isdigit()):
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
#   line 1: d iterations output_index activation_name m
#   line 2: init <d tokens: 0 | 1 | C<i>>
#   per layer: d rows of A, d rows of B, one row c (decimal integers), the
#   dense form of ``GnnLayer.dense``


def _format_row(row) -> str:
    row = np.asarray(row, dtype=np.float64).ravel()
    bad = ~np.isfinite(row) | (row != np.round(row))
    if bad.any():
        raise ValueError(f"non-integer entry {row[bad][0]!r} cannot be serialized")
    return " ".join(str(int(value)) for value in row.tolist())


def spec_to_text(spec: GnnSpec) -> str:
    lines = [
        f"{spec.d} {spec.iterations} {spec.output_index} "
        f"{spec.activation.name} {spec.activation.m}"
    ]
    lines.append("init " + " ".join(spec.init_kinds))
    for layer in spec.layers:
        a_t, b_t, c_t = layer.dense()
        lines.extend(_format_row(row) for row in a_t)
        lines.extend(_format_row(row) for row in b_t)
        lines.append(_format_row(c_t))
    return "\n".join(lines) + "\n"


def _parse_block(rows, width) -> np.ndarray:
    """Rows of ``width`` decimal integers each, as one float array."""
    try:
        # one C-level conversion per block; it rejects 1.5, inf and nan
        block = np.loadtxt(rows, dtype=np.int64, ndmin=2, comments=None)
        if block.shape == (len(rows), width):
            return block.astype(np.float64)
    except ValueError:
        pass
    for row in rows:  # name the first bad row
        if len(row.split()) != width:
            raise SpecFormatError(f"expected {width} entries, got {row!r}")
        try:
            np.loadtxt([row], dtype=np.int64, comments=None)
        except ValueError as exc:
            raise SpecFormatError(f"non-integer entry in {row!r}") from exc
    raise SpecFormatError("malformed matrix rows")


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
    name = head[3]
    if name not in ACTIVATION_NAMES:
        raise SpecFormatError(f"unknown activation {name!r}")
    init_toks = lines[1].split()
    if len(init_toks) != d + 1 or init_toks[0] != "init":
        raise SpecFormatError("expected an init line with one token per coordinate")
    init_kinds = tuple(init_toks[1:])
    body = lines[2:]
    per_layer = 2 * d + 1
    if len(body) != iterations * per_layer:
        raise SpecFormatError(
            f"expected {iterations * per_layer} matrix rows, found {len(body)}"
        )

    layers = []
    for t in range(iterations):
        block = _parse_block(body[t * per_layer : (t + 1) * per_layer], d)
        layers.append(GnnLayer.from_dense(block[:d], block[d : 2 * d], block[2 * d]))
    try:
        return GnnSpec(
            output_index=output_index,
            layers=tuple(layers),
            activation=ActivationSpec(name, m),
            init_kinds=init_kinds,
        )
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc


def write_spec(path, spec: GnnSpec) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(spec_to_text(spec))


def read_spec(path) -> GnnSpec:
    with open(path, "r", encoding="ascii") as fh:
        return spec_from_text(fh.read())
