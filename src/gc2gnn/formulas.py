"""GC2 formulas: syntax tree, concrete-syntax parser, and brute-force semantics.

The logic has color atoms ``C1 .. Cl``, the always-true atom ``top``,
negation, conjunction, and the graded neighborhood quantifier
``dia>=K phi`` ("at least K neighbors satisfy phi").  Nodes are frozen
dataclasses, and a formula is its text: ``==`` and ``hash`` compare and
hash ``to_text``, which renders with a stack, and ``parse`` reads text with
one loop, so ``parse``, ``==``, ``hash``, ``str`` and ``repr`` work at any
depth.  Deduplication happens once, in ``subformulas``: it numbers the
distinct subformulas by their dataclass fields, each child replaced by its
position, so downstream code indexes by position and never hashes or
compares a whole subtree.

Concrete grammar (whitespace-insensitive)::

    formula := "C" INT | "top" | "not" formula
             | "(" formula ")" | "(" formula "and" formula ")"
             | "dia>=" INT formula
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import partial
from string import Formatter

import numpy as np

from .graphs import LabeledGraph, _is_integer

__all__ = [
    "Formula",
    "Color",
    "Top",
    "Not",
    "And",
    "Diamond",
    "TOP",
    "FormulaSyntaxError",
    "parse",
    "to_text",
    "SubformulaList",
    "subformulas",
    "depth",
    "check_palette",
    "eval_oracle_all",
    "random_formula",
]


class Formula:
    """Base of the node classes.  A formula is its text: two formulas are
    equal, and hash alike, when ``to_text`` writes them the same, which the
    unambiguous grammar makes structural equality."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(to_text(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or to_text(self) == to_text(other)

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        """The dataclass layout, ``Name(field=value, ...)``."""
        def template(f):
            return f"{type(f).__name__}(" + ", ".join(f"{x.name}={{{x.name}!r}}" for x in fields(f)) + ")"
        return _render(self, template)


@dataclass(frozen=True, eq=False, repr=False)
class Color(Formula):
    _text = "C{index}"
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", _positive_int(self.index, "color index"))


@dataclass(frozen=True, eq=False, repr=False)
class Top(Formula):
    _text = "top"


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    _text = "not {child}"
    child: Formula


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    _text = "({left} and {right})"
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Diamond(Formula):
    """At least ``threshold`` neighbors satisfy ``child``."""

    _text = "dia>={threshold} {child}"
    threshold: int
    child: Formula

    def __post_init__(self):
        object.__setattr__(self, "threshold", _positive_int(self.threshold, "diamond threshold"))


def _positive_int(value, what: str) -> int:
    """``value`` as an ``int`` if it is a Python or numpy integer >= 1, not a
    bool: a node payload, stored as the ``int`` whose digits ``to_text``
    writes and ``parse`` reads back, or a size such as a palette's."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


TOP = Top()


def _render(f: Formula, template) -> str:
    """Fill ``template(node)``, a format string over a node's fields, depth first
    from ``f`` with a stack in place of recursion; a child fills its own."""
    out, stack = [], [f]
    while stack:
        node = stack.pop()
        if not isinstance(node, Formula):
            out.append(node)
            continue
        pieces = []
        for literal, name, _, conv in Formatter().parse(template(node)):
            value = getattr(node, name) if name else ""
            pieces += [literal, value if isinstance(value, Formula) else repr(value) if conv else str(value)]
        stack.extend(reversed(pieces))
    return "".join(out)


def to_text(f: Formula) -> str:
    """Emit the concrete grammar; ``parse`` round-trips its output."""
    return _render(f, lambda node: node._text)


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# One alternative per token kind; ``bad`` takes any other non-space
# character, so finditer skips only whitespace.
_TOKEN_RE = re.compile(r"(?P<sym>[()]|>=)|(?P<color>C\d+)|(?P<int>\d+)|(?P<word>[a-z]+)|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {value!r}", m.start())
        tokens.append((value if kind == "sym" else kind, value, m.start()))
    return tokens


def parse(text: str, palette_size: int) -> Formula:
    """Parse the concrete grammar against a palette of ``palette_size`` colors.
    Malformed text raises ``FormulaSyntaxError``; a formula of any depth parses."""
    _positive_int(palette_size, "palette_size")
    tokens = _tokenize(text) + [("end", "", len(text))]
    # Operators waiting for an operand: Not, a Diamond partial, "(" or the left
    # operand of an And; the None at the bottom waits for the whole formula.
    pending, i = [None], 0
    while True:
        (kind, value, pos), i = tokens[i], i + 1
        if kind == "color":
            index = int(value[1:])
            if not 1 <= index <= palette_size:
                raise FormulaSyntaxError(f"color index {index} out of range [1, {palette_size}]", pos)
            formula = Color(index)
        elif (kind, value) == ("word", "top"):
            formula = TOP
        elif (kind, value) == ("word", "not") or kind == "(":
            pending.append(Not if kind == "word" else "(")
            continue
        elif (kind, value) == ("word", "dia"):
            if tokens[i][0] != ">=":
                raise FormulaSyntaxError("expected '>=' after 'dia'", pos)
            if tokens[i + 1][0] != "int":
                raise FormulaSyntaxError("expected an integer threshold after 'dia>='", pos)
            threshold = int(tokens[i + 1][1])
            if threshold < 1:
                raise FormulaSyntaxError("diamond threshold must be >= 1", tokens[i + 1][2])
            pending.append(partial(Diamond, threshold))
            i += 2
            continue
        else:
            raise FormulaSyntaxError("unexpected end of input" if kind == "end" else f"unexpected token {value!r}", pos)
        while True:  # close every operator that ``formula`` completes
            op, (kind, value, pos) = pending.pop(), tokens[i]
            if callable(op):
                formula = op(formula)
            elif op is None:
                if kind != "end":
                    raise FormulaSyntaxError("unexpected trailing input", pos)
                return formula
            elif kind == ")":  # ends a group, or an And whose left operand is ``op``
                formula, i = formula if op == "(" else And(op, formula), i + 1
            elif op == "(" and (kind, value) == ("word", "and"):
                pending.append(formula)
                i += 1
                break
            else:
                raise FormulaSyntaxError("expected 'and' or ')'" if op == "(" else "expected ')'", pos)


@dataclass(frozen=True)
class SubformulaList:
    """Distinct subformulas in dependency order: children precede parents,
    the root formula is the last entry.  ``children[i]`` holds the positions
    of ``entries[i]``'s children."""

    entries: tuple[Formula, ...]
    children: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.entries)


def subformulas(f: Formula) -> SubformulaList:
    """Number the distinct subformulas of ``f`` by an iterative post-order
    walk.  A node is keyed by its type and its fields, each child replaced by
    its position, so equal subtrees share a position and no subtree is hashed."""
    entries: list[Formula] = []
    children: list[tuple[int, ...]] = []
    position: dict[tuple, int] = {}
    done: dict[int, int] = {}  # id(node) -> position; revisited objects are skipped
    stack: list[tuple[Formula, list | None]] = [(f, None)]
    while stack:
        node, values = stack.pop()
        if id(node) in done:
            continue
        if values is None:  # first visit: read the fields, come back after the children
            values = [getattr(node, name) for name in node.__match_args__]
            stack.append((node, values))
            stack.extend([(v, None) for v in reversed(values) if isinstance(v, Formula)])
            continue
        key = (type(node), *[done[id(v)] if isinstance(v, Formula) else v for v in values])
        if key not in position:
            position[key] = len(entries)
            entries.append(node)
            children.append(tuple([done[id(v)] for v in values if isinstance(v, Formula)]))
        done[id(node)] = position[key]
    return SubformulaList(tuple(entries), tuple(children))


def _walked(f: Formula | SubformulaList) -> SubformulaList:
    """``f`` itself if it is a ``SubformulaList``, else ``subformulas(f)``:
    a caller that walks a formula once hands every reader the result."""
    return f if isinstance(f, SubformulaList) else subformulas(f)


def depth(f: Formula) -> int:
    """The size budget of ``random_formula``: the distinct subformulas
    excluding ``top``, so connectives, quantifiers and color atoms count.

    It bounds a compiled network's layers but is not their number, which is
    the root's dependency height (``compile_formula``).
    """
    return sum(1 for g in subformulas(f).entries if not isinstance(g, Top))


def check_palette(f: Formula | SubformulaList, palette: int) -> None:
    """Raise ValueError, as ``eval_oracle_all`` does, if ``f``, a formula or
    its ``subformulas``, names a color outside a graph palette of
    ``palette`` colors."""
    for node in _walked(f).entries:
        if isinstance(node, Color):
            _check_color(node.index, palette)


def _check_color(index: int, palette: int) -> None:
    if index > palette:
        raise ValueError(f"color C{index} outside the graph palette [1, {palette}]")


def eval_oracle_all(f: Formula | SubformulaList, graph: LabeledGraph) -> np.ndarray:
    """Truth table of ``f``, a formula or its ``subformulas``, at every
    vertex, by bottom-up evaluation."""
    subs = _walked(f)
    tables: list[np.ndarray] = []
    for node, kids in zip(subs.entries, subs.children):
        if isinstance(node, Color):
            _check_color(node.index, graph.palette)
            tables.append(graph.colors == node.index)
        elif isinstance(node, Top):
            tables.append(np.ones(graph.n, dtype=bool))
        elif isinstance(node, Not):
            tables.append(~tables[kids[0]])
        elif isinstance(node, And):
            tables.append(tables[kids[0]] & tables[kids[1]])
        elif isinstance(node, Diamond):
            child = tables[kids[0]].astype(np.float64)
            counts = np.bincount(graph.edge_dst, weights=child[graph.edge_src], minlength=graph.n)
            tables.append(counts >= node.threshold)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return tables[-1]


def random_formula(
    rng: np.random.Generator,
    palette_size: int,
    max_depth: int = 6,
    max_threshold: int = 3,
) -> Formula:
    """Sample a formula with ``depth(f) <= max_depth`` (seeded, deterministic).
    The sizes are integers, not bools: ``palette_size`` and ``max_threshold``
    at least 1, ``max_depth`` at least 0."""
    _positive_int(palette_size, "palette_size")
    _positive_int(max_threshold, "max_threshold")
    if not _is_integer(max_depth) or max_depth < 0:
        raise ValueError(f"max_depth must be an integer >= 0, got {max_depth!r}")

    def gen(budget: int) -> Formula:
        if budget <= 1 or rng.random() < 0.3:
            if rng.random() < 0.2:
                return TOP
            return Color(int(rng.integers(1, palette_size + 1)))
        kind = rng.integers(0, 3)
        if kind == 0:
            return Not(gen(budget - 1))
        if kind == 1:
            split = int(rng.integers(1, budget))
            return And(gen(split), gen(budget - split))
        return Diamond(int(rng.integers(1, max_threshold + 1)), gen(budget - 1))

    while True:
        candidate = gen(max_depth)
        if depth(candidate) <= max_depth:
            return candidate
