"""Translate GC2 formulas into explicit per-layer integer weight matrices.

Each distinct subformula owns one embedding coordinate.  Color atoms start
as their indicator and ``top`` starts at 1, so atoms are correct before the
first layer; a connective's rule row fires exactly at its dependency level,
and every other coordinate carries forward unchanged.  Running the result
under the hard threshold (or clipped relu: pre-activations are integers)
reproduces the brute-force evaluator at every coordinate.

A layer stores only its rule rows, in memory and in the text format alike;
the identity carries are never written out.  A row is its nonzeros alone,
so a network holds and writes O(1) numbers per connective.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby
from operator import itemgetter

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


def _pad(rows):
    """The k rows' lists of ``(column, coefficient)`` terms by term position:
    one ``(columns, coefficients)`` pair of (k,) arrays per position, as many
    as the longest list has terms.  A row with fewer terms has a zero
    coefficient on column 0 at the positions it lacks."""
    width = max(map(len, rows), default=0)
    padded = [terms + [(0, 0.0)] * (width - len(terms)) for terms in rows]
    return tuple(
        (np.array([t[p][0] for t in padded], dtype=np.int64), np.array([t[p][1] for t in padded]))
        for p in range(width)
    )


def _dense(terms, k, d):
    """The (k, d) matrix whose rows hold the term lists ``terms``."""
    matrix = np.zeros((k, d))
    for cols, coefs in terms:
        matrix[np.arange(k), cols] += coefs
    return matrix


def _columns(terms):
    """The ascending distinct columns with a nonzero coefficient in ``terms``."""
    read = {col for cols, coefs in terms for col, coef in zip(cols.tolist(), coefs.tolist()) if coef != 0.0}
    return np.array(sorted(read), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class GnnLayer:
    """One iteration's rule rows; every other coordinate carries over unchanged.

    Row ``r`` computes coordinate ``rows[r]`` as ``c[r] + A[r] . x + B[r] . agg``
    from the previous layer's ``d`` features ``x`` and their neighbour sum
    ``agg``; ``rows`` is ascending and distinct in ``[0, d)``.  The layer
    stores only the rows' nonzeros, by term position in ``a_terms`` and
    ``b_terms`` (see ``_pad``), which every package path reads.
    """

    rows: np.ndarray
    c: np.ndarray
    a_terms: tuple[tuple[np.ndarray, np.ndarray], ...]
    b_terms: tuple[tuple[np.ndarray, np.ndarray], ...]
    d: int

    def __post_init__(self):
        rows, c = np.asarray(self.rows), np.ascontiguousarray(self.c, dtype=np.float64)
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
            raise ValueError("rows must be a 1-D integer array")
        a_terms, b_terms = (
            tuple((np.asarray(j), np.ascontiguousarray(v, dtype=np.float64)) for j, v in terms)
            for terms in (self.a_terms, self.b_terms)
        )
        terms = a_terms + b_terms
        if any(part.shape != rows.shape for part in (c, *(x for term in terms for x in term))):
            raise ValueError("c and term shapes disagree with the rule rows")
        if rows.size and (rows[0] < 0 or rows[-1] >= self.d or (np.diff(rows) <= 0).any()):
            raise ValueError(f"rule rows must be ascending and distinct in [0, {self.d})")
        if any(j.dtype.kind not in "iu" or j.size and (j.min() < 0 or j.max() >= self.d) for j, _ in terms):
            raise ValueError(f"term columns must be integers in [0, {self.d})")
        object.__setattr__(self, "rows", rows.astype(np.int64))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_terms", a_terms)
        object.__setattr__(self, "b_terms", b_terms)

    @property
    def A(self) -> np.ndarray:
        """The (k, d) self matrix, for ``perfbench/tracing.py``'s counters and for tests."""
        return _dense(self.a_terms, self.rows.size, self.d)

    @property
    def B(self) -> np.ndarray:
        """The (k, d) aggregate matrix, for the same readers."""
        return _dense(self.b_terms, self.rows.size, self.d)

    def nonzeros(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Each rule row's nonzero ``(p, coefficient)`` terms in term order: A's
        at ``p = column``, then B's at ``p = d + column``."""
        parts = ((0, self.a_terms), (self.d, self.b_terms))
        terms = [(offset, cols.tolist(), coefs.tolist()) for offset, part in parts for cols, coefs in part]
        return tuple(tuple((offset + cols[r], coefs[r]) for offset, cols, coefs in terms if coefs[r])
                     for r in range(self.rows.size))

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
        def key(layer):
            return layer.d, layer.rows.tolist(), layer.c.tolist(), layer.nonzeros()
        return isinstance(other, GnnLayer) and key(self) == key(other)


@dataclass(frozen=True)
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

    def with_activation(self, name: str, m: int = 1) -> "GnnSpec":
        return replace(self, activation=ActivationSpec(name, m))


def compile_formula(
    formula: Formula,
    palette: int,
    activation: ActivationSpec | None = None,
) -> GnnSpec:
    """Compile ``formula`` over a palette of ``palette`` colors.

    Each rule row is written as its terms, columns ascending: negation reads
    its child with weight -1 and bias +1; conjunction adds its two children
    with bias -1 (one child and bias 0 when both coincide); the graded
    quantifier reads its child's neighbor aggregate with bias -(K-1).
    """
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
        a_rows, b_rows, c = [], [], []
        for j in rows:
            i = order[j]
            g, kids = entries[i], sorted({coord[k] for k in children[i]})
            if isinstance(g, Not):
                a, b, bias = [(kids[0], -1.0)], [], 1.0
            elif isinstance(g, And):
                a, b, bias = [(k, 1.0) for k in kids], [], 1.0 - len(kids)
            else:
                a, b, bias = [], [(kids[0], 1.0)], 1.0 - g.threshold
            a_rows.append(a)
            b_rows.append(b)
            c.append(bias)
        layers.append(GnnLayer(rows, c, _pad(a_rows), _pad(b_rows), d))

    coords = tuple(entries[i] for i in order)
    init_kinds = tuple(
        f"C{g.index}" if isinstance(g, Color) else ("1" if isinstance(g, Top) else "0") for g in coords
    )
    return GnnSpec(coord[-1], tuple(layers), activation, init_kinds, coordinate_formulas=coords)


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
    for t, layer in enumerate(spec.layers, start=1):
        if any(max((fired[p % spec.d] for p, _ in row), default=0) != t - 1 for row in layer.nonzeros()):
            return False
    return True


# --------------------------------------------------------------------------
# text serialization
#
#   line 1: d iterations output_index activation_name m terms, 0 <= iterations <= d
#   line 2: init <d tokens: 0 | 1 | C<i>>
#   per nonzero weight, p ascending in its row: t j c p v, decimal integers: layer t
#   (never decreasing), row j, bias c, weight v at p = A column or d + B column;
#   a row without one is t j c 0 0


def spec_to_text(spec: GnnSpec) -> str:
    if spec.iterations > spec.d:
        raise ValueError(f"{spec.iterations} layers exceed d = {spec.d}: the text format holds at most d")
    head = f"{spec.d} {spec.iterations} {spec.output_index} {spec.activation.name} {spec.activation.m} terms"
    lines = [head, "init " + " ".join(spec.init_kinds)]
    for t, layer in enumerate(spec.layers, start=1):
        for j, c, terms in zip(layer.rows.tolist(), layer.c.tolist(), layer.nonzeros()):
            terms = terms or ((0, 0.0),)
            bad = [value for value in (c, *(v for _, v in terms)) if not value.is_integer()]
            if bad:
                raise ValueError(f"non-integer entry {bad[0]!r} cannot be serialized")
            if any(p >= q for (p, _), (q, _) in zip(terms, terms[1:])):
                raise ValueError(f"terms of rule row {j} in layer {t} are not in ascending column order")
            lines.extend(f"{t} {j} {int(c)} {p} {int(v)}" for p, v in terms)
    return "\n".join(lines) + "\n"


def spec_from_text(text: str) -> GnnSpec:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise SpecFormatError("spec text too short")
    head = lines[0].split()
    if len(head) == 5:  # one 't j c A[r] B[r]' line per rule row, in any width
        raise SpecFormatError(f"header {lines[0]!r} is the old dense-row format: compile the network again")
    if len(head) != 6 or head[5] != "terms":
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
    block = _parse_block(body, 5, SpecFormatError)
    t, j, c, p = block[:, :4].T
    same = np.r_[False, (t[1:] == t[:-1]) & (j[1:] == j[:-1])]  # a rule row is a run of one (t, j)
    for bad, what in (
        ((t < 1) | (t > iterations) | np.r_[False, t[1:] < t[:-1]],
         f"layer out of order or outside 1..{iterations}"),
        (same & np.r_[False, c[1:] != c[:-1]], "a second bias within a rule row"),
        (same & np.r_[False, p[1:] <= p[:-1]], "p not ascending within a rule row"),
    ):
        if bad.any():
            raise SpecFormatError(f"{what} in {body[np.argmax(bad)]!r}")
    bounds = np.searchsorted(t, np.arange(1, iterations + 2)).tolist()

    def layer(rule):  # one layer's lines, whose rule rows are runs of one (j, c)
        rows = [(key, [(p, v) for *_, p, v in run if v]) for key, run in groupby(rule, itemgetter(1, 2))]
        a_rows = [[(p, v) for p, v in terms if p < d] for _, terms in rows]
        b_rows = [[(p - d, v) for p, v in terms if p >= d] for _, terms in rows]
        return GnnLayer([j for (j, _), _ in rows], [c for (_, c), _ in rows], _pad(a_rows), _pad(b_rows), d)

    try:
        layers = tuple(layer(block[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:]))
        return GnnSpec(output_index, layers, activation, init_kinds)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc


def read_spec(path) -> GnnSpec:
    return spec_from_text(_read_ascii(path, SpecFormatError))
