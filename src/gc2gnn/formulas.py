"""GC2 formulas: syntax tree, concrete-syntax parser, and brute-force semantics.

The logic has color atoms ``C1 .. Cl``, the always-true atom ``top``,
negation, conjunction, and the graded neighborhood quantifier
``dia>=K phi`` ("at least K neighbors satisfy phi").  Nodes are frozen
dataclasses that compare and hash structurally without recursion, so ``==``
and ``hash`` work at any depth ``parse`` accepts.  Deduplication happens
once, in ``subformulas``: it numbers the distinct subformulas by (kind,
payload, child positions), so downstream code indexes by position and never
hashes or compares a whole subtree.

Concrete grammar (whitespace-insensitive)::

    formula := "C" INT | "top" | "not" formula
             | "(" formula "and" formula ")" | "dia>=" INT formula
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .graphs import LabeledGraph

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
    "eval_oracle",
    "eval_oracle_all",
    "random_formula",
]


class Formula:
    """Base of the node classes.  Equality and hashing are structural but
    never recurse: each node caches its hash at construction from its
    children's cached hashes, and ``==`` walks both trees with a stack."""

    __slots__ = ()

    def __post_init__(self):
        key = (_KINDS.index(type(self)), _payload(self), *(c._hash for c in _children(self)))
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash or _payload(a) != _payload(b):
                return False
            stack.extend(zip(_children(a), _children(b)))
        return True

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True, eq=False)
class Color(Formula):
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"color index must be >= 1, got {self.index}")
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class Top(Formula):
    pass


@dataclass(frozen=True, eq=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Diamond(Formula):
    """At least ``threshold`` neighbors satisfy ``child``."""

    threshold: int
    child: Formula

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError(f"diamond threshold must be >= 1, got {self.threshold}")
        super().__post_init__()


# The node kinds, in the order whose positions tag a node's hash.
_KINDS = (Color, Top, Not, And, Diamond)


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Not):
        return (f.child,)
    if isinstance(f, And):
        return (f.left, f.right)
    if isinstance(f, Diamond):
        return (f.child,)
    return ()


def _payload(f: Formula) -> int | None:
    if isinstance(f, Color):
        return f.index
    return f.threshold if isinstance(f, Diamond) else None


TOP = Top()


def to_text(f: Formula) -> str:
    """Emit the concrete grammar; ``parse`` round-trips its output."""
    if isinstance(f, Color):
        return f"C{f.index}"
    if isinstance(f, Top):
        return "top"
    if isinstance(f, Not):
        return f"not {to_text(f.child)}"
    if isinstance(f, And):
        return f"({to_text(f.left)} and {to_text(f.right)})"
    if isinstance(f, Diamond):
        return f"dia>={f.threshold} {to_text(f.child)}"
    raise TypeError(f"not a formula node: {f!r}")


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"(\()|(\))|(C\d+)|(>=)|(\d+)|([a-z]+)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        lparen, rparen, color, ge, integer, word = m.groups()
        if lparen:
            tokens.append(("(", "(", pos))
        elif rparen:
            tokens.append((")", ")", pos))
        elif color:
            tokens.append(("color", color, pos))
        elif ge:
            tokens.append((">=", ">=", pos))
        elif integer:
            tokens.append(("int", integer, pos))
        else:
            tokens.append(("word", word, pos))
        pos = m.end()
    return tokens


def parse(text: str, palette_size: int) -> Formula:
    """Parse the concrete grammar against a palette of ``palette_size`` colors.

    Malformed text, including nesting deeper than the parser's recursion can
    reach, raises ``FormulaSyntaxError``."""
    if palette_size < 1:
        raise ValueError("palette_size must be >= 1")
    tokens = _tokenize(text)
    try:
        formula, nxt = _parse_formula(tokens, 0, palette_size, len(text))
    except RecursionError:
        raise FormulaSyntaxError("formula nested too deeply", 0) from None
    if nxt != len(tokens):
        raise FormulaSyntaxError("unexpected trailing input", tokens[nxt][2])
    return formula


def _parse_formula(tokens, i, palette_size, end_pos) -> tuple[Formula, int]:
    if i >= len(tokens):
        raise FormulaSyntaxError("unexpected end of input", end_pos)
    kind, value, pos = tokens[i]
    if kind == "color":
        index = int(value[1:])
        if not 1 <= index <= palette_size:
            raise FormulaSyntaxError(
                f"color index {index} out of range [1, {palette_size}]", pos
            )
        return Color(index), i + 1
    if kind == "word" and value == "top":
        return TOP, i + 1
    if kind == "word" and value == "not":
        child, nxt = _parse_formula(tokens, i + 1, palette_size, end_pos)
        return Not(child), nxt
    if kind == "word" and value == "dia":
        if i + 1 >= len(tokens) or tokens[i + 1][0] != ">=":
            raise FormulaSyntaxError("expected '>=' after 'dia'", pos)
        if i + 2 >= len(tokens) or tokens[i + 2][0] != "int":
            raise FormulaSyntaxError("expected an integer threshold after 'dia>='", pos)
        threshold = int(tokens[i + 2][1])
        if threshold < 1:
            raise FormulaSyntaxError("diamond threshold must be >= 1", tokens[i + 2][2])
        child, nxt = _parse_formula(tokens, i + 3, palette_size, end_pos)
        return Diamond(threshold, child), nxt
    if kind == "(":
        left, nxt = _parse_formula(tokens, i + 1, palette_size, end_pos)
        if nxt < len(tokens) and tokens[nxt][0] == ")":
            return left, nxt + 1  # grouping parentheses
        if nxt >= len(tokens) or tokens[nxt][:2] != ("word", "and"):
            raise FormulaSyntaxError(
                "expected 'and' or ')'", tokens[nxt][2] if nxt < len(tokens) else end_pos
            )
        right, nxt = _parse_formula(tokens, nxt + 1, palette_size, end_pos)
        if nxt >= len(tokens) or tokens[nxt][0] != ")":
            raise FormulaSyntaxError("expected ')'", tokens[nxt][2] if nxt < len(tokens) else end_pos)
        return And(left, right), nxt + 1
    raise FormulaSyntaxError(f"unexpected token {value!r}", pos)


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
    walk.  A node is keyed by its kind, payload and child positions, so equal
    subtrees share a position without a whole subtree ever being hashed."""
    entries: list[Formula] = []
    children: list[tuple[int, ...]] = []
    position: dict[tuple, int] = {}
    done: dict[int, int] = {}  # id(node) -> position; revisited objects are skipped
    stack = [f]
    while stack:
        kids = _children(stack[-1])
        todo = [k for k in reversed(kids) if id(k) not in done]
        if todo:
            stack.extend(todo)
            continue
        node = stack.pop()
        if id(node) in done:
            continue
        kid_pos = tuple(done[id(k)] for k in kids)
        key = (type(node), _payload(node), kid_pos)
        if key not in position:
            position[key] = len(entries)
            entries.append(node)
            children.append(kid_pos)
        done[id(node)] = position[key]
    return SubformulaList(tuple(entries), tuple(children))


def depth(f: Formula) -> int:
    """Iteration budget for the compiled network.

    Counts the distinct subformulas excluding ``top``: connectives and
    quantifiers always count, color atoms count, ``top`` contributes zero.
    """
    return sum(1 for g in subformulas(f).entries if not isinstance(g, Top))


def check_palette(f: Formula, palette: int) -> None:
    """Raise ValueError, as ``eval_oracle_all`` does, if ``f`` names a color
    outside a graph palette of ``palette`` colors."""
    for node in subformulas(f).entries:
        if isinstance(node, Color):
            _check_color(node, palette)


def _check_color(node: Color, palette: int) -> None:
    if node.index > palette:
        raise ValueError(f"color C{node.index} outside the graph palette [1, {palette}]")


def eval_oracle_all(f: Formula, graph: LabeledGraph) -> np.ndarray:
    """Truth table of ``f`` at every vertex, by bottom-up evaluation."""
    subs = subformulas(f)
    tables: list[np.ndarray] = []
    for node, kids in zip(subs.entries, subs.children):
        if isinstance(node, Color):
            _check_color(node, graph.palette)
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


def eval_oracle(f: Formula, graph: LabeledGraph, v: int) -> bool:
    """Exact truth value of ``f`` at vertex ``v``."""
    if not 0 <= v < graph.n:
        raise ValueError(f"vertex {v} out of range [0, {graph.n})")
    return bool(eval_oracle_all(f, graph)[v])


def random_formula(
    rng: np.random.Generator,
    palette_size: int,
    max_depth: int = 6,
    max_threshold: int = 3,
) -> Formula:
    """Sample a formula with ``depth(f) <= max_depth`` (seeded, deterministic)."""

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
