"""Translate GC2 formulas into layers of sparse integer rule rows.

Each distinct subformula owns one embedding coordinate.  Color atoms start
as their indicator and ``top`` starts at 1, so atoms are correct before the
first layer; a connective's rule row fires exactly at its dependency level,
and every other coordinate carries forward unchanged.  There is one layer
per level up to the root's, so the last layer fires the output and a query
of atoms alone compiles to no layer.  Running the result under the hard
threshold (or clipped relu: pre-activations are integers) reproduces the
brute-force evaluator at every coordinate.

A layer stores only its rule rows, in memory and in the text format alike,
and a row only its nonzero ``(p, v)`` terms (``GnnLayer.terms``), one text
line each, so a network holds and writes O(1) numbers per connective.  The
layer holds them as tuples of Python numbers, so a spec is a hashable value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import itemgetter

import numpy as np

from .activations import ActivationSpec
from .formulas import And, Color, Diamond, Formula, Not, SubformulaList, Top, _positive_int, _walked
from .graphs import _is_integer, _parse_block, _read_ascii

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


def _is_vector(values) -> bool:
    """``np.ndim(values) == 1``, read off a list or tuple of Python ints and
    floats without numpy's conversion of it to an array."""
    if type(values) in (list, tuple) and {*map(type, values)} <= {int, float}:
        return True
    return np.ndim(values) == 1


def _is_stored(rows, c, terms, d) -> bool:
    """Whether ``GnnLayer`` would store its fields as given: an ``int`` d
    >= 1, and tuples of as many rows, biases and rule rows, the rows
    ``int``s ascending in ``[0, d)``, the biases ``float``s, each rule row
    a tuple of ``(p, v)`` tuples of an ``int`` p strictly ascending in
    ``[0, 2d)`` and a nonzero ``float`` v."""
    if not (type(d) is int and d >= 1 and type(rows) is type(c) is type(terms) is tuple
            and len(rows) == len(c) == len(terms)):
        return False
    width, last = 2 * d, -1
    for j, bias, row in zip(rows, c, terms):
        if type(j) is not int or type(bias) is not float or type(row) is not tuple or not last < j < d:
            return False
        last, before = j, -1
        for term in row:
            if type(term) is not tuple or len(term) != 2:
                return False
            p, v = term
            if type(p) is not int or type(v) is not float or not v or not before < p < width:
                return False
            before = p
    return True


def _dense(terms, d, low):
    """The (k, d) matrix of the rows' weights at positions p in ``[low, low + d)``."""
    matrix = np.zeros((len(terms), d))
    for r, row in enumerate(terms):
        for p, v in row:
            if low <= p < low + d:
                matrix[r, p - low] = v
    return matrix


@dataclass(frozen=True)
class GnnLayer:
    """One iteration's rule rows; every other coordinate carries over unchanged.

    Row ``r`` computes coordinate ``rows[r]`` as ``c[r] + A[r] . x + B[r] . agg``
    from the previous layer's ``d`` features ``x`` and their neighbour sum
    ``agg``; ``rows`` is ascending and distinct in ``[0, d)``.  ``terms[r]``
    holds the row's nonzero weights as ``(p, v)`` pairs, p strictly ascending
    in ``[0, 2d)``: A column p for p < d, else B column p - d, in the order
    of the text format's lines and the executor's fold.  Zeros are dropped.
    Like ``terms``, ``rows`` and ``c`` are tuples, of ``int`` and ``float``,
    and the width ``d`` is an ``int`` >= 1, so equality and hash are the
    dataclass's own.
    """

    rows: tuple[int, ...]
    c: tuple[float, ...]
    terms: tuple[tuple[tuple[int, float], ...], ...]
    d: int

    def __post_init__(self):
        if _is_stored(self.rows, self.c, self.terms, self.d):  # nothing to convert, every check passes
            return
        if not (_is_integer(self.d) and self.d >= 1):
            raise ValueError(f"d must be an integer >= 1, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))
        if not _is_vector(self.rows) or not all(map(_is_integer, self.rows)):
            raise ValueError("rows must be a 1-D integer array")
        rows = tuple(map(int, self.rows))
        if not _is_vector(self.c) or not len(self.c) == len(self.terms) == len(rows):
            raise ValueError("c and term shapes disagree with the rule rows")
        width, terms = 2 * self.d, []
        if rows and (rows[0] < 0 or rows[-1] >= self.d or any(i >= j for i, j in zip(rows, rows[1:]))):
            raise ValueError(f"rule rows must be ascending and distinct in [0, {self.d})")
        for j, row in zip(rows, self.terms):
            # one pass, a plain int tested without a call; a position out of
            # range is reported before any disorder
            kept, last, ordered = [], -1, True
            for p, v in row:
                if not ((type(p) is int or _is_integer(p)) and 0 <= p < width):
                    ps = [p for p, _ in row]
                    raise ValueError(f"term positions must be integers in [0, {width}): rule row {j} has p = {ps}")
                if p <= last:
                    ordered = False
                last = p
                if v:
                    kept.append((int(p), float(v)))
            if not ordered:
                ps = [p for p, _ in row]
                raise ValueError(f"terms of rule row {j} are not in ascending column order: p = {ps}")
            terms.append(tuple(kept))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "c", tuple(map(float, self.c)))
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def A(self) -> np.ndarray:
        """The (k, d) self matrix, for ``perfbench/tracing.py``'s counters and for tests."""
        return _dense(self.terms, self.d, 0)

    @property
    def B(self) -> np.ndarray:
        """The (k, d) aggregate matrix, for the same readers."""
        return _dense(self.terms, self.d, self.d)


@dataclass(frozen=True)
class GnnSpec:
    """A compiled network: rule-row layers over one coordinate per subformula.

    ``init_kinds`` describes the iteration-0 features per coordinate:
    ``"0"``, ``"1"``, or ``"C<i>"`` (indicator of color i >= 1).  The width ``d``
    is its length and ``iterations`` the number of layers, for a compiled
    spec the output's dependency height; the layers' rule rows say where
    each coordinate fires.  Compiled specs also name each coordinate's
    subformula in ``coordinate_formulas``.
    """

    output_index: int
    layers: tuple[GnnLayer, ...]
    activation: ActivationSpec
    init_kinds: tuple[str, ...]
    coordinate_formulas: tuple[Formula, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (_is_integer(self.output_index) and 0 <= self.output_index < self.d):
            raise ValueError(f"output index must be an integer in [0, {self.d}), got {self.output_index!r}")
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
    formula: Formula | SubformulaList,
    palette: int,
    activation: ActivationSpec | None = None,
) -> GnnSpec:
    """Compile ``formula``, a formula or its ``subformulas``, over a palette
    of ``palette`` colors, an integer >= 1 (not a bool).

    Each rule row is written as its ``(p, v)`` terms, p ascending: negation
    reads its child with weight -1 and bias +1; conjunction adds its two
    children with bias -1 (one child and bias 0 when both coincide); the
    graded quantifier reads its child's neighbor sum, p = d + child, with
    bias -(K-1).
    """
    palette = _positive_int(palette, "palette")
    activation = activation or ActivationSpec("sigma-star", 1)
    subs = _walked(formula)
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
    # one layer per level up to the root's, which no subformula's exceeds;
    # coordinates in ascending order per level; atoms sit at level 0 and never fire
    firing: list[list[int]] = [[] for _ in range(level[-1] + 1)]
    for j, i in enumerate(order):
        firing[level[i]].append(j)

    layers = []
    for rows in firing[1:]:
        terms, c = [], []
        for j in rows:
            i = order[j]
            g, kids = entries[i], sorted({coord[k] for k in children[i]})
            if isinstance(g, Not):
                row, bias = ((kids[0], -1.0),), 1.0
            elif isinstance(g, And):
                row, bias = tuple((k, 1.0) for k in kids), 1.0 - len(kids)
            else:
                row, bias = ((d + kids[0], 1.0),), 1.0 - g.threshold
            terms.append(row)
            c.append(bias)
        layers.append(GnnLayer(tuple(rows), tuple(c), tuple(terms), d))

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
    fired = [0] * spec.d
    for t, layer in enumerate(spec.layers, start=1):
        for j in layer.rows:
            if fired[j]:
                return False
            fired[j] = t
    for t, layer in enumerate(spec.layers, start=1):
        if any(max((fired[p % spec.d] for p, _ in row), default=0) != t - 1 for row in layer.terms):
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
        for j, c, terms in zip(layer.rows, layer.c, layer.terms):
            terms = terms or ((0, 0.0),)
            for value in (c, *(v for _, v in terms)):
                if not value.is_integer():
                    raise ValueError(f"non-integer entry {value!r} cannot be serialized")
                if not -(2.0**63) <= value < 2.0**63:  # the reader parses int64
                    raise ValueError(f"entry {value!r} outside the int64 range cannot be serialized")
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
        rows = [(j, c, [(p, v) for *_, p, v in run]) for (j, c), run in groupby(rule, itemgetter(1, 2))]
        return GnnLayer([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], d)

    try:
        layers = tuple(layer(block[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:]))
        return GnnSpec(output_index, layers, activation, init_kinds)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc


def read_spec(path) -> GnnSpec:
    return spec_from_text(_read_ascii(path, SpecFormatError))
