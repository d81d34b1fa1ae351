"""Forward evaluation of compiled networks, per-layer error tracking against
the exact threshold run, and the expressivity-margin check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import backend as backend_mod
from .activations import ActivationSpec
from .compiler import GnnSpec
from .graphs import LabeledGraph

__all__ = [
    "EmbeddingTable",
    "LayerErrorReport",
    "initial_features",
    "forward",
    "forward_outputs",
    "layer_errors",
    "expressivity_margin",
]


@dataclass(frozen=True)
class EmbeddingTable:
    """Per-iteration, per-vertex embeddings: ``history[t, v]`` after t layers,
    or only the last layer (``history`` of length 1) from
    ``forward(..., history=False)``."""

    history: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.history[-1]

    def at(self, t: int) -> np.ndarray:
        return self.history[t]


@dataclass(frozen=True)
class LayerErrorReport:
    """Worst per-vertex infinity-norm deviation per iteration; entry 0 is 0."""

    eps: np.ndarray

    @property
    def final(self) -> float:
        return float(self.eps[-1])


def initial_features(spec: GnnSpec, graph: LabeledGraph) -> np.ndarray:
    """Iteration-0 features: color indicators on color coordinates, ones on
    always-true coordinates, zeros elsewhere."""
    feats = np.zeros((graph.n, spec.d))
    for j, kind in enumerate(spec.init_kinds):
        if kind == "0":
            continue
        if kind == "1":
            feats[:, j] = 1.0
        else:
            index = int(kind[1:])
            if index > graph.palette:
                raise ValueError(
                    f"spec expects color C{index} but the graph palette is {graph.palette}"
                )
            feats[:, j] = graph.colors == index
    return feats


def forward(
    spec: GnnSpec,
    graph: LabeledGraph,
    activation: ActivationSpec | None = None,
    history: bool = True,
) -> EmbeddingTable:
    """Run the compiled network on ``graph``; activation defaults to the
    spec's own.  With ``history=False`` the table keeps only the last layer,
    so ``history`` has shape (1, n, d) and ``final`` is unchanged."""
    act = activation or spec.activation
    init = initial_features(spec, graph)
    return EmbeddingTable(
        backend_mod.run_forward(init, graph, spec.layers, act.name, act.m, history=history)
    )


def forward_outputs(
    spec: GnnSpec,
    graph: LabeledGraph,
    activation: ActivationSpec | None = None,
) -> np.ndarray:
    """Final value of the output coordinate at every vertex."""
    return forward(spec, graph, activation, history=False).final[:, spec.output_index]


def layer_errors(
    spec_approx: GnnSpec,
    spec_exact: GnnSpec,
    graph: LabeledGraph,
) -> LayerErrorReport:
    """Per-iteration worst deviation between two runs of the same layers
    under different activations."""
    if spec_approx.d != spec_exact.d or spec_approx.iterations != spec_exact.iterations:
        raise ValueError("spec mismatch: dimensions or iteration counts differ")
    if spec_approx.init_kinds != spec_exact.init_kinds:
        raise ValueError("spec mismatch: initial features differ")
    for la, le in zip(spec_approx.layers, spec_exact.layers):
        if la != le:
            raise ValueError("spec mismatch: layer matrices differ")
    approx = forward(spec_approx, graph).history
    exact = forward(spec_exact, graph).history
    eps = np.abs(approx - exact).max(axis=(1, 2)) if graph.n else np.zeros(0)
    return LayerErrorReport(eps)


def expressivity_margin(
    spec: GnnSpec,
    corpus: Iterable[tuple[LabeledGraph, int, bool]],
    activation: ActivationSpec | None = None,
) -> float:
    """Smallest distance of the output from the 1/2 decision line, signed so
    that positives must exceed 1/2 and negatives stay below it.

    The network expresses the query over the corpus iff the margin is
    positive (margin > 1/6 gives the comfortable one-third separation band).
    """
    margin = None
    for graph, vertex, expected in corpus:
        out = forward_outputs(spec, graph, activation)
        if not 0 <= vertex < graph.n:
            raise ValueError(f"vertex {vertex} out of range")
        value = float(out[vertex])
        gap = value - 0.5 if expected else 0.5 - value
        margin = gap if margin is None else min(margin, gap)
    if margin is None:
        raise ValueError("empty corpus")
    return margin
