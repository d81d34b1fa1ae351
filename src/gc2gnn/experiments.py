"""Experiment harnesses: separation and saturation sweeps over the tree
family, convergence-rate sweeps, and the shared CSV schema
(experiment,query,activation,m,k,n,delta,value,seconds)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import (
    EXACT_NAMES,
    ActivationSpec,
    certificate,
    convergence_bound,
    get_activation,
    iterate,
    plateau_grid,
    sigma_star,
)
from .compiler import compile_formula
from .engine import forward_outputs
from .formulas import Formula, parse
from .graphs import TreeParams, batch_graphs, make_tree

__all__ = [
    "CSV_HEADER",
    "ResultRow",
    "ExperimentConfig",
    "BoundViolation",
    "rows_to_csv",
    "load_query",
    "Q1_TEXT",
    "Q2_TEXT",
    "tree_pair",
    "run_separation",
    "run_saturation",
    "check_saturation_decay",
    "run_convergence",
    "check_convergence_rows",
]

CSV_HEADER = "experiment,query,activation,m,k,n,delta,value,seconds"

Q1_TEXT = "not (dia>=1 (not (dia>=2 top)))"
Q2_TEXT = "(C1 and dia>=1 ((dia>=1 C2) and (dia>=1 C1)))"

# Collar samples of a convergence sweep (not the certificate check's collar,
# ``activations._COLLAR_POINTS``), and the slack an observed row may take
# over its bound.
_CONVERGENCE_POINTS = 100_001
_BOUND_TOL = 1e-12


class BoundViolation(AssertionError):
    """A sweep row broke the bound that governs it."""


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    query: str
    activation: str
    m: int
    k: int
    n: int
    delta: int
    value: float

    def to_csv(self) -> str:
        # The seconds column is kept for the schema and always reads zero, so
        # reruns of one configuration give the same bytes.
        return (
            f"{self.experiment},{self.query},{self.activation},{self.m},"
            f"{self.k},{self.n},{self.delta},{float(self.value)!r},0.000000"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    query: str = "q1"
    activation: str = "arctan-4pi"
    m_values: tuple[int, ...] = (4, 8, 12)
    k_values: tuple[int, ...] = tuple(range(2, 65))
    palette: int | None = None
    delta_cap: int | None = None

    def __post_init__(self):
        if not self.m_values or not self.k_values:
            raise ValueError("sweeps must be non-empty")
        params = get_activation(self.activation).certificate  # raises for an unknown name
        if params is not None and min(self.m_values) < params.burn_in:
            raise ValueError("composition depths below the activation's burn-in")


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"


def load_query(name_or_text: str, palette: int | None = None) -> tuple[str, Formula, int, str]:
    """Resolve a query: the presets ``q1``/``q2`` or raw formula text.

    Returns (label, formula, palette, tree coloring).
    """
    if name_or_text.lower() == "q1":
        return "q1", parse(Q1_TEXT, 1), 1, "unicolor"
    if name_or_text.lower() == "q2":
        return "q2", parse(Q2_TEXT, 2), 2, "leaves-blue"
    palette = 1 if palette is None else palette
    formula = parse(name_or_text, palette)
    coloring = "unicolor" if palette == 1 else "leaves-blue"
    return name_or_text, formula, palette, coloring


def tree_pair(k: int, coloring: str):
    """The sweep's input pair: the k-ary tree with zero and with one leaf
    under the first internal vertex (both with m = k internal vertices)."""
    t0, r0 = make_tree(TreeParams(0, k, k), coloring)
    t1, r1 = make_tree(TreeParams(1, k, k), coloring)
    return (t0, r0), (t1, r1)


def _sweep(cfg: ExperimentConfig, experiment: str, runs) -> list[ResultRow]:
    """For each k, one row per ``(name, m)`` of ``runs``: the gap between the
    two roots of k's tree pair, both run as one disjoint union."""
    label, formula, palette, coloring = load_query(cfg.query, cfg.palette)
    spec = compile_formula(formula, palette)
    rows: list[ResultRow] = []
    for k in cfg.k_values:
        (t0, r0), (t1, r1) = tree_pair(k, coloring)
        union, offsets = batch_graphs([t0, t1])
        roots = [r0, int(offsets[1]) + r1]
        delta = union.max_degree
        if cfg.delta_cap is not None and delta > cfg.delta_cap:
            continue
        for name, m in runs:
            low, high = forward_outputs(spec, union, ActivationSpec(name, m))[roots]
            gap = abs(float(high) - float(low))
            rows.append(ResultRow(experiment, label, name, m, k, t1.n, delta, gap))
    return rows


def run_separation(cfg: ExperimentConfig) -> list[ResultRow]:
    """Gap between the two tree roots per (m, k), for the configured
    activation, with exact-threshold and clipped-relu baselines."""
    runs = [(name, 1) for name in EXACT_NAMES] + [(cfg.activation, m) for m in cfg.m_values]
    return _sweep(cfg, "separation", runs)


def run_saturation(cfg: ExperimentConfig) -> list[ResultRow]:
    """Gap decay of a fixed bounded-activation network as the trees grow,
    with the clipped-relu control pinned at its exact value."""
    return _sweep(cfg, "saturation", [(cfg.activation, cfg.m_values[0]), ("crelu", 1)])


def check_saturation_decay(rows) -> tuple[float, float]:
    """Assert the configured activation's gap shrinks from the smallest to
    the largest tree; returns (first gap, last gap)."""
    swept = [r for r in rows if r.activation not in EXACT_NAMES]
    if len(swept) < 2:
        raise ValueError("need at least two sweep points")
    first, last = swept[0], swept[-1]
    if not last.value < first.value:
        raise BoundViolation(
            f"no saturation decay: gap(k={last.k}) = {last.value} "
            f">= gap(k={first.k}) = {first.value}"
        )
    return first.value, last.value


def run_convergence(name: str, m_lo: int | None = None, m_hi: int | None = None) -> list[ResultRow]:
    """Worst observed |sigma^m - threshold| over the plateau collar next to
    the certified bound, one observed row and one bound row per m."""
    params = certificate(name)
    act = get_activation(name)
    m_lo = params.burn_in if m_lo is None else m_lo
    m_hi = params.burn_in + 20 if m_hi is None else m_hi
    if m_lo < params.burn_in:
        raise ValueError("m range starts below the burn-in count")
    grid = plateau_grid(params.eps, _CONVERGENCE_POINTS)
    target = sigma_star(grid)
    rows: list[ResultRow] = []
    values = iterate(act, m_lo, grid)
    for m in range(m_lo, m_hi + 1):
        observed = float(np.abs(values - target).max())
        bound = convergence_bound(params, m)
        rows.append(ResultRow("convergence", "-", name, m, 0, grid.size, 0, observed))
        rows.append(ResultRow("convergence-bound", "-", name, m, 0, grid.size, 0, bound))
        values = act.fn(values)
    return rows


def check_convergence_rows(rows) -> None:
    """Assert every observed row stays within its paired bound row."""
    bounds = {
        (r.activation, r.m): r.value for r in rows if r.experiment == "convergence-bound"
    }
    for r in rows:
        if r.experiment != "convergence":
            continue
        bound = bounds.get((r.activation, r.m))
        if bound is None:
            raise ValueError(f"no bound row for {r.activation} at m={r.m}")
        if r.value > bound + _BOUND_TOL:
            raise BoundViolation(
                f"{r.activation} at m={r.m}: observed {r.value} exceeds bound {bound}"
            )
