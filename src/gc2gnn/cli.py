"""Command-line front end: compile queries, evaluate them on graphs, check
exactness against the brute-force evaluator, and run the experiment sweeps.

Note on activations: exact 0/1 agreement with the evaluator is guaranteed
for sigma-star and crelu only.  Plain relu is accepted but unclipped, so
graded-quantifier pre-activations above 1 leak through on high-degree
vertices.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .activations import (
    ACTIVATION_NAMES,
    CERTIFIED_NAMES,
    EXACT_NAMES,
    FLAT_NAMES,
    ActivationSpec,
    certificate,
    flat_tanh_constants,
    get_activation,
    required_composition_depth,
    size_closed_forms,
    verify_step_like,
)
from .compiler import compile_formula, read_spec, write_spec, spec_to_text
from .engine import forward_outputs
from .experiments import (
    BoundViolation,
    ExperimentConfig,
    check_convergence_rows,
    check_saturation_decay,
    load_query,
    rows_to_csv,
    run_convergence,
    run_saturation,
    run_separation,
)
from .formulas import check_palette, eval_oracle_all
from .graphs import batch_graphs, random_graph, read_graph

__all__ = ["main"]


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Accept '2:64' (inclusive range) or '2,4,8'."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(",") if tok)


def _write_out(path: str | None, content: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(content)


def _resolve_query(args) -> tuple[str, object, int, str]:
    if not (args.query or args.formula):
        raise ValueError("need --query or --formula")
    return load_query(args.query or args.formula, args.palette)


def _cmd_compile(args) -> int:
    _, formula, palette, _ = _resolve_query(args)
    spec = compile_formula(formula, palette, ActivationSpec(args.activation, args.m))
    if args.out:
        write_spec(args.out, spec)
    else:
        sys.stdout.write(spec_to_text(spec))
    return 0


def _cmd_eval(args) -> int:
    graph, root = read_graph(args.graph)
    if args.spec:
        spec = read_spec(args.spec)
    else:
        _, formula, palette, _ = _resolve_query(args)
        if palette < graph.palette:
            palette = graph.palette
        spec = compile_formula(formula, palette)
    if args.vertex is not None and not 0 <= args.vertex < graph.n:
        raise ValueError(f"--vertex {args.vertex} out of range [0, {graph.n})")
    # A named map other than the spec's starts from m = 1.
    name = args.activation or spec.activation.name
    m = args.m if args.m is not None else (spec.activation.m if name == spec.activation.name else 1)
    outputs = [float(v) for v in forward_outputs(spec, graph, ActivationSpec(name, m))]
    lines = []
    if args.vertex is not None:
        lines.append(f"{args.vertex} {outputs[args.vertex]!r}")
    else:
        lines.extend(f"{v} {outputs[v]!r}" for v in range(graph.n))
        if root is not None:
            lines.append(f"root {root} {outputs[root]!r}")
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_check_exact(args) -> int:
    _, formula, palette, _ = _resolve_query(args)
    graphs = []
    if args.graph:
        loaded, _ = read_graph(args.graph)
        if loaded.palette > palette:
            palette = loaded.palette
        graphs.append(("file:" + args.graph, loaded))
    for i in range(args.random_graphs):
        g = random_graph(args.n, args.avg_degree, palette, args.seed + i)
        graphs.append((f"random:{args.seed + i}", g))
    if not graphs:
        raise ValueError("need --graph and/or --random-graphs")
    spec = compile_formula(formula, palette)
    # The union takes the largest palette, so the file's own is checked here.
    if args.graph:
        check_palette(formula, loaded.palette)
    # One oracle call and one forward per activation over the disjoint union;
    # vertex offsets split the mismatches per graph.
    union, offsets = batch_graphs(graph for _, graph in graphs)
    want = eval_oracle_all(formula, union).astype(np.float64)
    bad = {}
    for name in EXACT_NAMES:
        got = forward_outputs(spec, union, ActivationSpec(name, 1))
        bad[name] = np.add.reduceat(got != want, offsets[:-1])
    mismatches = 0
    for i, (label, graph) in enumerate(graphs):
        for name in EXACT_NAMES:
            count = int(bad[name][i])
            mismatches += count
            status = "ok" if count == 0 else f"{count} mismatches"
            print(f"{label} n={graph.n} {name}: {status}")
    print("exactness:", "PASS" if mismatches == 0 else f"FAIL ({mismatches} mismatches)")
    return 0 if mismatches == 0 else 1


def _cmd_separation(args) -> int:
    cfg = ExperimentConfig(
        query=args.query or args.formula or "q1",
        activation=args.activation,
        m_values=_parse_int_list(args.m_list),
        k_values=_parse_int_list(args.k_range),
        palette=args.palette,
        delta_cap=args.delta,
    )
    rows = run_separation(cfg)
    _write_out(args.out, rows_to_csv(rows))
    return 0


def _cmd_saturation(args) -> int:
    cfg = ExperimentConfig(
        query=args.query or args.formula or "q1",
        activation=args.activation,
        m_values=(args.m,),
        k_values=_parse_int_list(args.k_range),
        palette=args.palette,
    )
    rows = run_saturation(cfg)
    _write_out(args.out, rows_to_csv(rows))
    first, last = check_saturation_decay(rows)
    print(f"saturation: gap {first!r} -> {last!r} over k={cfg.k_values[0]}..{cfg.k_values[-1]}", file=sys.stderr)
    return 0


def _cmd_steplike_verify(args) -> int:
    names = args.names or CERTIFIED_NAMES
    certs = [certificate(name) for name in names]  # a bad name fails before any output
    failed = False
    for name, params in zip(names, certs):
        report = verify_step_like(get_activation(name), params)
        print(report.describe())
        if name in FLAT_NAMES:
            a, alpha = flat_tanh_constants()
            in_range = 0.45 < a < 0.46 and 3.14 < alpha < 3.15
            print(f"  recomputed constants a={a:.12f}, alpha={alpha:.12f} "
                  f"({'in' if in_range else 'OUT OF'} the expected intervals)")
            failed = failed or not in_range
        failed = failed or not report.passed
    return 1 if failed else 0


def _cmd_convergence(args) -> int:
    m_lo, m_hi = None, None
    if args.m_range:
        values = _parse_int_list(args.m_range)
        if not values:
            raise ValueError(f"empty --m-range {args.m_range!r}")
        m_lo, m_hi = min(values), max(values)
    rows = run_convergence(args.activation, m_lo, m_hi)
    _write_out(args.out, rows_to_csv(rows))
    check_convergence_rows(rows)
    return 0


def _cmd_required_m(args) -> int:
    params = certificate(args.activation)
    m = required_composition_depth(params, args.delta)  # a bad --delta fails before any output
    print(f"activation {args.activation}: eta={params.eta} eps={params.eps} "
          f"burn_in={params.burn_in} curvature={params.curvature}")
    print(f"max degree {args.delta}: scanned composition depth m = {m}")
    for label, value in size_closed_forms(params, args.delta).items():
        print(f"  closed form ({label}): {value:.4f}")
    if args.activation in FLAT_NAMES:
        a, alpha = flat_tanh_constants()
        print(f"  flat-shoulder constants: a={a:.12f} alpha={alpha:.12f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gc2gnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query_args(p, palette_default=None):
        p.add_argument("--query", help="preset query name: q1 or q2")
        p.add_argument("--formula", help="formula text in the concrete grammar")
        p.add_argument("--palette", type=int, default=palette_default)

    p = sub.add_parser("compile", help="compile a query to the text weight format")
    add_query_args(p)
    p.add_argument("--activation", default="sigma-star", choices=ACTIVATION_NAMES)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("eval", help="run a compiled or freshly compiled query on a graph")
    add_query_args(p)
    p.add_argument("--spec", help="path to a serialized network")
    p.add_argument("--graph", required=True)
    p.add_argument("--activation", choices=ACTIVATION_NAMES,
                   help="default: the spec's own (sigma-star when compiling a query)")
    p.add_argument("--m", type=int, help="default: the spec's m for its own activation, else 1")
    p.add_argument("--vertex", type=int, help="report one vertex, in [0, n)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("check-exact", help="compare threshold/clipped-relu runs to the evaluator")
    add_query_args(p)
    p.add_argument("--graph", help="graph file to check")
    p.add_argument("--random-graphs", type=int, default=0)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--avg-degree", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_check_exact)

    p = sub.add_parser("separation", help="gap sweep over the tree pairs per (m, k)")
    add_query_args(p)
    p.add_argument("--activation", default="arctan-4pi", choices=ACTIVATION_NAMES)
    p.add_argument("--m", dest="m_list", default="4,8,12", help="list or lo:hi")
    p.add_argument("--k-range", default="2:64", help="list or lo:hi")
    p.add_argument("--delta", type=int, help="skip sweep points above this max degree")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_separation)

    p = sub.add_parser("saturation", help="gap decay of a bounded activation as trees grow")
    add_query_args(p)
    p.add_argument("--activation", default="sigmoid", choices=ACTIVATION_NAMES)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k-range", default="2:64", help="list or lo:hi")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_saturation)

    p = sub.add_parser("steplike-verify", help="verify the shipped step-like certificates")
    p.add_argument("names", nargs="*", help="activation names (default: all certified)")
    p.set_defaults(fn=_cmd_steplike_verify)

    p = sub.add_parser("convergence", help="iterate error vs certified bound per m")
    p.add_argument("--activation", required=True, choices=ACTIVATION_NAMES)
    p.add_argument("--m-range", help="list or lo:hi (default: burn-in .. burn-in+20)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_convergence)

    p = sub.add_parser("required-m", help="composition depth needed for a degree bound")
    p.add_argument("--activation", required=True, choices=ACTIVATION_NAMES)
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(fn=_cmd_required_m)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Bad values, malformed files and unreadable paths are usage errors
    # (exit code 2); the format errors of graphs, specs and formulas are
    # ValueErrors too.  A sweep that breaks its bound is a failed verdict
    # (exit code 1), reported after its CSV.
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    except BoundViolation as exc:
        print(f"{parser.prog} {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
