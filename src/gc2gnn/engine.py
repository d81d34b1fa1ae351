"""Forward evaluation of compiled networks and per-layer error tracking
against the exact threshold run."""

from __future__ import annotations

import numpy as np

from . import backend as backend_mod
from .activations import ActivationSpec, get_activation
from .compiler import GnnSpec
from .graphs import LabeledGraph, OrderedQuotient

__all__ = [
    "initial_features",
    "forward",
    "forward_outputs",
    "forward_outputs_each",
    "layer_errors",
]


def initial_features(spec: GnnSpec, graph: LabeledGraph | OrderedQuotient) -> np.ndarray:
    """Iteration-0 features: color indicators on color coordinates, ones on
    always-true coordinates, zeros elsewhere.  Reads ``graph.n``,
    ``palette`` and ``colors`` only; a color beyond the palette raises.

    The (n, d) array is the transpose of the C-ordered (d, n) state that
    every run starts from (``backend.layer_states`` builds its own)."""
    return backend_mod._initial_state(spec, graph).T


def forward(
    spec: GnnSpec,
    graph: LabeledGraph | OrderedQuotient,
    activation: ActivationSpec | None = None,
    *,
    keep=None,
    others=(),
) -> np.ndarray:
    """Run the compiled network on ``graph`` and return the (n, d) features
    after the last layer; activation defaults to the spec's own.  Without
    ``keep`` every column holds its final value.  With ``keep``, a sequence
    of coordinates, those columns do; under a map that settles (the rule
    is in ``activations``) so does every other column, and under another
    map the others may be stale (see ``backend``).  ``others``, further
    ``ActivationSpec``s of maps that settle, share the run by the sharing
    rule of ``backend``: the features are then every map's, and a map that
    parts raises ``backend._Parted``, which ``forward_outputs_each``
    catches."""
    act = activation or spec.activation
    return backend_mod.run_forward(spec, graph, act.name, act.m, keep, others=[(o.name, o.m) for o in others])


def forward_outputs(
    spec: GnnSpec,
    graph: LabeledGraph | OrderedQuotient,
    activation: ActivationSpec | None = None,
) -> np.ndarray:
    """Final value of the output coordinate at every vertex, as an array of
    its own (not a view that would keep the whole last layer alive)."""
    out = spec.output_index
    return forward(spec, graph, activation, keep=(out,))[:, out].copy()


def forward_outputs_each(spec: GnnSpec, graph: LabeledGraph | OrderedQuotient, runs) -> np.ndarray:
    """The outputs of ``forward_outputs`` under each ``ActivationSpec`` of
    ``runs``, as a (len(runs), n) array with their bits.  The runs of maps
    that settle share one ``forward`` by the sharing rule of ``backend``; a
    run that parts from the first of them, and every run of a map that does
    not settle, goes through ``forward_outputs`` alone."""
    out = spec.output_index
    outputs = np.empty((len(runs), graph.n))
    shared = [i for i, act in enumerate(runs) if get_activation(act.name).idempotent]
    while len(shared) > 1:
        head, *tail = (runs[i] for i in shared)
        try:
            outputs[shared] = forward(spec, graph, head, keep=(out,), others=tail)[:, out]
            break
        except backend_mod._Parted as parted:  # run again without the map that parted
            del shared[1 + parted.position]
    else:
        shared = []
    for i, act in enumerate(runs):
        if i not in shared:
            outputs[i] = forward_outputs(spec, graph, act)
    return outputs


def layer_errors(spec: GnnSpec, graph: LabeledGraph | OrderedQuotient) -> np.ndarray:
    """Per-iteration worst per-vertex deviation of the run under the spec's
    activation from the exact run, the same layers under ``sigma-star`` at
    m = 1, as a (T+1,) array whose entry 0 is 0.

    The two runs advance side by side one layer at a time, so only their
    current (d, n) states are held, with one (d, n) buffer for their
    difference; the second reads the layer-1 sums the first keeps in the
    graph."""
    act = spec.activation
    approx = backend_mod.layer_states(spec, graph, act.name, act.m)
    exact = backend_mod.layer_states(spec, graph, "sigma-star", 1)
    diff = np.empty((spec.d, graph.n))
    return np.array([np.abs(np.subtract(a, e, out=diff), out=diff).max() for a, e in zip(approx, exact)])
