"""Forward evaluation of compiled networks and per-layer error tracking
against the exact threshold run."""

from __future__ import annotations

import numpy as np

from . import backend as backend_mod
from .activations import ActivationSpec
from .compiler import GnnSpec
from .graphs import LabeledGraph

__all__ = [
    "initial_features",
    "forward",
    "forward_outputs",
    "layer_errors",
]


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
    *,
    keep=None,
) -> np.ndarray:
    """Run the compiled network on ``graph`` and return the (n, d) features
    after the last layer; activation defaults to the spec's own.

    With ``keep``, a sequence of coordinates, only those columns hold their
    final values; the others may be stale, and are not activated where no
    kept value depends on them."""
    act = activation or spec.activation
    init = initial_features(spec, graph)
    return backend_mod.run_forward(init, graph, spec.layers, act.name, act.m, keep)


def forward_outputs(
    spec: GnnSpec,
    graph: LabeledGraph,
    activation: ActivationSpec | None = None,
) -> np.ndarray:
    """Final value of the output coordinate at every vertex, as an array of
    its own (not a view that would keep the whole last layer alive)."""
    out = spec.output_index
    return forward(spec, graph, activation, keep=(out,))[:, out].copy()


def layer_errors(spec: GnnSpec, graph: LabeledGraph) -> np.ndarray:
    """Per-iteration worst per-vertex deviation of the run under the spec's
    activation from the exact run, the same layers under ``sigma-star`` at
    m = 1, as a (T+1,) array whose entry 0 is 0.

    The two runs advance side by side one layer at a time, so only their
    current (n, d) features are held."""
    act = spec.activation
    approx = exact = initial_features(spec, graph)
    eps = np.zeros(spec.iterations + 1)
    for t, layer in enumerate(spec.layers, start=1):
        approx = backend_mod.run_forward(approx, graph, (layer,), act.name, act.m)
        exact = backend_mod.run_forward(exact, graph, (layer,), "sigma-star", 1)
        eps[t] = np.abs(approx - exact).max()
    return eps
