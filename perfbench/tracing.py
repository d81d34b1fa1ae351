"""Per-layer trace taken from outside the program.

`Tracer.install` wraps the public functions of each gc2gnn module and
replaces every binding of each one across the loaded ``gc2gnn.*`` modules,
because `cli` and `experiments` import functions by name. Each call records
one span (name, start, end, parent span, op id) in memory; `write_jsonl`
writes them out when the run ends. Spans and busy times use process CPU time,
the clock the end-to-end metrics use.

A target that no longer exists is reported as missing instead of failing the
run, so the benchmark keeps working when later changes rename or delete
program internals. Counts marked "computed" are derived from array shapes
and spec nonzeros at the call boundary, not counted inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """A program function to wrap: ``qualname`` is ``func``, ``Class.method``
    or ``Class.cached_property``."""

    layer: str
    module: str
    qualname: str

    @property
    def span(self) -> str:
        return f"{self.layer}.{self.qualname}"


TARGETS = (
    Target("graphs", "gc2gnn.graphs", "read_graph"),
    Target("graphs", "gc2gnn.graphs", "LabeledGraph.__post_init__"),
    Target("graphs", "gc2gnn.graphs", "LabeledGraph._adjacency"),
    Target("graphs", "gc2gnn.graphs", "make_tree"),
    Target("graphs", "gc2gnn.graphs", "random_graph"),
    Target("formulas", "gc2gnn.formulas", "parse"),
    Target("formulas", "gc2gnn.formulas", "subformulas"),
    Target("formulas", "gc2gnn.formulas", "eval_oracle_all"),
    Target("compiler", "gc2gnn.compiler", "compile_formula"),
    Target("engine", "gc2gnn.engine", "forward"),
    Target("backend", "gc2gnn.backend", "run_forward"),
    Target("activations", "gc2gnn.activations", "apply_activation"),
    Target("experiments", "gc2gnn.experiments", "run_separation"),
    Target("experiments", "gc2gnn.experiments", "run_saturation"),
    Target("cli", "gc2gnn.cli", "main"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _spec_entries(spec) -> tuple[int, int, int]:
    """(dense entries of all layers, nonzeros of all layers, nonzeros of A and B)."""
    dense = spec.iterations * (2 * spec.d * spec.d + spec.d)
    nnz_ab = sum(int(np.count_nonzero(layer.A)) + int(np.count_nonzero(layer.B)) for layer in spec.layers)
    nnz_c = sum(int(np.count_nonzero(layer.c)) for layer in spec.layers)
    return dense, nnz_ab + nnz_c, nnz_ab


class Tracer:
    """Spans and counts for one traced run; `install` wraps, `uninstall`
    restores, `metrics` and `write_jsonl` report."""

    def __init__(self):
        self.op = "setup"
        self._paused = False
        self.spans: list = []
        self._stack: list = []  # [span index, CPU ns spent in child spans]
        self._depth = defaultdict(int)
        self.busy_ns = defaultdict(int)
        self.self_ns = defaultdict(int)  # per layer
        self.counts = defaultdict(int)
        self.missing: set[str] = set()  # span names whose target is absent
        self.broken: set[str] = set()  # counters whose hook failed
        self._spec_cache: dict = {}
        self._restore: list = []

    # -- counters taken at span exit -------------------------------------

    def _spec_stats(self, spec):
        hit = self._spec_cache.get(id(spec))
        if hit is None or hit[0] is not spec:
            hit = (spec, _spec_entries(spec))
            self._spec_cache[id(spec)] = hit
        return hit[1]

    def _count_build(self, args, kwargs, result):
        self.counts["graphs.edges"] += len(args[0].edges)

    def _count_oracle(self, args, kwargs, result):
        self.counts["formulas.oracle_vertices"] += _arg(args, kwargs, 1, "graph").n

    def _count_compile(self, args, kwargs, spec):
        dense, nnz, _ = self._spec_stats(spec)
        self.counts["compiler.dense_entries"] += dense
        self.counts["compiler.nnz_entries"] += nnz

    def _count_forward(self, args, kwargs, result):
        spec, graph = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "graph")
        _, _, nnz_ab = self._spec_stats(spec)
        n, d, t = graph.n, spec.d, spec.iterations
        self.counts["engine.forward_calls"] += 1
        self.counts["engine.vertex_layers"] += n * t
        self.counts["backend.agg_entries"] += t * 2 * len(graph.edges) * d
        self.counts["backend.dense_macs"] += 2 * t * n * d * d
        self.counts["backend.useful_macs"] += n * nnz_ab
        self.counts["backend.history_bytes_max"] = max(
            self.counts["backend.history_bytes_max"], (t + 1) * n * d * 8
        )

    def _count_activation(self, args, kwargs, result):
        m = _arg(args, kwargs, 1, "m")
        self.counts["activations.calls"] += 1
        self.counts["activations.elem_evals"] += int(np.size(_arg(args, kwargs, 2, "values"))) * m

    _HOOKS = {
        "graphs.LabeledGraph.__post_init__": ("_count_build", ("graphs.edges",)),
        "formulas.eval_oracle_all": ("_count_oracle", ("formulas.oracle_vertices",)),
        "compiler.compile_formula": ("_count_compile", ("compiler.dense_entries", "compiler.nnz_entries")),
        "engine.forward": ("_count_forward", (
            "engine.forward_calls", "engine.vertex_layers", "backend.agg_entries",
            "backend.dense_macs", "backend.useful_macs", "backend.history_bytes_max",
        )),
        "activations.apply_activation": ("_count_activation", ("activations.calls", "activations.elem_evals")),
    }

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, target: Target, fn):
        name, layer = target.span, target.layer
        hook_name, hook_counters = self._HOOKS.get(name, (None, ()))
        hook = getattr(self, hook_name) if hook_name else None
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.process_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                spent = end - start
                spans[index] = (name, start, end, parent, self.op)
                self.self_ns[layer] += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
                if depth[name] == 0:
                    self.busy_ns[name] += spent
            if hook is not None and not self.broken.issuperset(hook_counters):
                try:
                    hook(args, kwargs, result)
                except Exception:  # a refactored signature must not stop the run
                    self.broken.update(hook_counters)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the others as missing."""
        modules = [m for key, m in list(sys.modules.items()) if key == "gc2gnn" or key.startswith("gc2gnn.")]
        for target in TARGETS:
            try:
                owner = importlib.import_module(target.module)
            except ImportError:
                self.missing.add(target.span)
                continue
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if isinstance(raw, functools.cached_property):
                original = raw.func
                raw.func = self._wrap(target, original)
                self._restore.append((raw, "func", original))
            elif callable(raw) and isinstance(owner, type):
                setattr(owner, attr, self._wrap(target, raw))
                self._restore.append((owner, attr, raw))
            elif callable(raw):
                traced = self._wrap(target, raw)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, traced)
                            self._restore.append((module, key, raw))
            else:
                self.missing.add(target.span)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls inside record nothing: for the benchmark's own check work."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric by name; a value is None when a target it
        needs is missing or a counter could not be taken."""
        sec = 1e-9
        busy = lambda *spans: sum(self.busy_ns[s] for s in spans) * sec  # noqa: E731
        self_s = lambda layer: self.self_ns[layer] * sec  # noqa: E731
        count = lambda key: self.counts[key]  # noqa: E731

        def ratio(num, den):
            return self.counts[num] / self.counts[den] if self.counts[den] else 0.0

        table = [
            # name, unit, value, spans it needs, counters it needs
            ("graphs.read_s", "s", lambda: busy("graphs.read_graph"), ("graphs.read_graph",), ()),
            ("graphs.build_s", "s", lambda: busy("graphs.LabeledGraph.__post_init__"),
             ("graphs.LabeledGraph.__post_init__",), ()),
            ("graphs.adjacency_s", "s", lambda: busy("graphs.LabeledGraph._adjacency"),
             ("graphs.LabeledGraph._adjacency",), ()),
            ("graphs.edges", "count", lambda: count("graphs.edges"),
             ("graphs.LabeledGraph.__post_init__",), ("graphs.edges",)),
            ("graphs.make_tree_s", "s", lambda: busy("graphs.make_tree"), ("graphs.make_tree",), ()),
            ("graphs.random_graph_s", "s", lambda: busy("graphs.random_graph"), ("graphs.random_graph",), ()),
            ("formulas.parse_s", "s", lambda: busy("formulas.parse"), ("formulas.parse",), ()),
            ("formulas.subformulas_s", "s", lambda: busy("formulas.subformulas"), ("formulas.subformulas",), ()),
            ("formulas.oracle_s", "s", lambda: busy("formulas.eval_oracle_all"), ("formulas.eval_oracle_all",), ()),
            ("formulas.oracle_vertices", "count", lambda: count("formulas.oracle_vertices"),
             ("formulas.eval_oracle_all",), ("formulas.oracle_vertices",)),
            ("compiler.compile_s", "s", lambda: busy("compiler.compile_formula"), ("compiler.compile_formula",), ()),
            ("compiler.dense_entries", "count", lambda: count("compiler.dense_entries"),
             ("compiler.compile_formula",), ("compiler.dense_entries",)),
            ("compiler.nnz_ratio", "ratio", lambda: ratio("compiler.nnz_entries", "compiler.dense_entries"),
             ("compiler.compile_formula",), ("compiler.dense_entries", "compiler.nnz_entries")),
            ("engine.forward_s", "s", lambda: busy("engine.forward"), ("engine.forward",), ()),
            ("engine.self_s", "s", lambda: self_s("engine"), ("engine.forward",), ()),
            ("engine.forward_calls", "count", lambda: count("engine.forward_calls"),
             ("engine.forward",), ("engine.forward_calls",)),
            ("engine.vertex_layers", "count", lambda: count("engine.vertex_layers"),
             ("engine.forward",), ("engine.vertex_layers",)),
            ("backend.self_s", "s", lambda: self_s("backend"), ("backend.run_forward",), ()),
            ("backend.agg_entries", "count", lambda: count("backend.agg_entries"),
             ("engine.forward",), ("backend.agg_entries",)),
            ("backend.dense_macs", "count", lambda: count("backend.dense_macs"),
             ("engine.forward",), ("backend.dense_macs",)),
            ("backend.useful_mac_ratio", "ratio", lambda: ratio("backend.useful_macs", "backend.dense_macs"),
             ("engine.forward",), ("backend.useful_macs", "backend.dense_macs")),
            ("backend.history_bytes_max", "B", lambda: count("backend.history_bytes_max"),
             ("engine.forward",), ("backend.history_bytes_max",)),
            ("activations.apply_s", "s", lambda: busy("activations.apply_activation"),
             ("activations.apply_activation",), ()),
            ("activations.calls", "count", lambda: count("activations.calls"),
             ("activations.apply_activation",), ("activations.calls",)),
            ("activations.elem_evals", "count", lambda: count("activations.elem_evals"),
             ("activations.apply_activation",), ("activations.elem_evals",)),
            ("experiments.sweep_s", "s", lambda: busy("experiments.run_separation", "experiments.run_saturation"),
             ("experiments.run_separation", "experiments.run_saturation"), ()),
            ("experiments.self_s", "s", lambda: self_s("experiments"),
             ("experiments.run_separation", "experiments.run_saturation"), ()),
            ("cli.self_s", "s", lambda: self_s("cli"), ("cli.main",), ()),
        ]
        out = {}
        for name, unit, value, spans, counters in table:
            absent = self.missing.intersection(spans) or self.broken.intersection(counters)
            out[name] = {"value": None if absent else value(), "unit": unit}
        return out

    def write_jsonl(self, path, header: dict) -> None:
        """One header line, then one line per span in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


# Metrics derived from shapes and spec nonzeros rather than counted in the program.
COMPUTED = (
    "compiler.dense_entries", "compiler.nnz_ratio", "engine.vertex_layers", "backend.agg_entries",
    "backend.dense_macs", "backend.useful_mac_ratio", "backend.history_bytes_max",
    "activations.elem_evals",
)
