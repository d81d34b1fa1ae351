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
    required_composition_depth,
    verify_step_like,
)
from .compiler import compile_formula, read_spec, spec_to_text
from .engine import forward_outputs
from .experiments import (
    BoundViolation,
    check_convergence_rows,
    check_saturation_decay,
    load_query,
    rows_to_csv,
    run_convergence,
    run_saturation,
    run_separation,
)
from .formulas import check_palette, eval_oracle_all
from .graphs import batch_graphs, random_graphs, read_graph

__all__ = ["main"]


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Accept '2:64' (inclusive range) or '2,4,8', each value once."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return tuple(range(int(lo), int(hi) + 1))
    values = tuple(int(tok) for tok in text.split(",") if tok)
    if len(set(values)) < len(values):
        raise ValueError(f"repeated value in {text!r}")
    return values


def _write_out(path: str | None, content: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(content)


def _query_text(args, default: str | None = None) -> str:
    """The one query of ``--query`` or ``--formula``, else ``default``."""
    if args.query is not None and args.formula is not None:
        raise ValueError("give --query or --formula, not both")
    text = args.query or args.formula or default
    if not text:
        raise ValueError("need --query or --formula")
    return text


def _cmd_compile(args) -> int:
    _, formula, palette = load_query(_query_text(args), args.palette)
    spec = compile_formula(formula, palette, ActivationSpec(args.activation, args.m))
    _write_out(args.out, spec_to_text(spec))
    return 0


def _cmd_eval(args) -> int:
    graph, root = read_graph(args.graph)
    if args.spec:
        if (args.query, args.formula) != (None, None):
            raise ValueError("--spec takes no --query or --formula")
        spec = read_spec(args.spec)
    else:
        # a compiled network does not depend on the palette, so the graph's serves
        _, formula, palette = load_query(_query_text(args), graph.palette)
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
    _, formula, palette = load_query(_query_text(args), args.palette)
    labels, parts = [], []  # (label, n) per graph; the graphs to batch
    if args.graph:
        loaded, _ = read_graph(args.graph)
        if loaded.palette > palette:
            palette = loaded.palette
        labels.append(("file:" + args.graph, loaded.n))
        parts.append(loaded)
    if args.random_graphs:
        seeds = range(args.seed, args.seed + args.random_graphs)
        parts.append(random_graphs(args.n, args.avg_degree, palette, seeds)[0])
        labels.extend((f"random:{seed}", args.n) for seed in seeds)
    if not parts:
        raise ValueError("need --graph and/or --random-graphs")
    spec = compile_formula(formula, palette)
    # The union takes the largest palette, so the file's own is checked here.
    if args.graph:
        check_palette(formula, loaded.palette)
    # One oracle call and one forward per activation over the disjoint union;
    # vertex offsets split the mismatches per graph.
    union, _ = batch_graphs(parts)
    offsets = np.cumsum([0] + [n for _, n in labels])
    want = eval_oracle_all(formula, union).astype(np.float64)
    bad = {}
    for name in EXACT_NAMES:
        got = forward_outputs(spec, union, ActivationSpec(name, 1))
        bad[name] = np.add.reduceat(got != want, offsets[:-1])
    mismatches = 0
    for i, (label, n) in enumerate(labels):
        for name in EXACT_NAMES:
            count = int(bad[name][i])
            mismatches += count
            status = "ok" if count == 0 else f"{count} mismatches"
            print(f"{label} n={n} {name}: {status}")
    print("exactness:", "PASS" if mismatches == 0 else f"FAIL ({mismatches} mismatches)")
    return 0 if mismatches == 0 else 1


def _cmd_separation(args) -> int:
    rows = run_separation(_query_text(args, "q1"), args.activation, _parse_int_list(args.m_list),
                          _parse_int_list(args.k_range), args.palette)
    _write_out(args.out, rows_to_csv(rows))
    return 0


def _cmd_saturation(args) -> int:
    query = _query_text(args, "q1")
    k_values = _parse_int_list(args.k_range)
    # the decay check needs two swept rows, so it fails before any output
    if len(k_values) < 2:
        raise ValueError(f"--k-range {args.k_range!r} needs at least two k values")
    if args.activation in EXACT_NAMES:
        raise ValueError(f"--activation {args.activation} is exact, so its gap cannot decay")
    rows = run_saturation(query, args.activation, args.m, k_values, args.palette)
    _write_out(args.out, rows_to_csv(rows))
    first, last = check_saturation_decay(rows)
    print(f"saturation: gap {first!r} -> {last!r} over k={k_values[0]}..{k_values[-1]}", file=sys.stderr)
    return 0


def _cmd_steplike_verify(args) -> int:
    names = args.names or CERTIFIED_NAMES
    certs = [certificate(name) for name in names]  # a bad name fails before any output
    failed = False
    for name, params in zip(names, certs):
        report = verify_step_like(name, params)
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
    values = _parse_int_list(args.m_range)
    if not values:
        raise ValueError(f"empty --m-range {args.m_range!r}")
    if values != tuple(range(values[0], values[-1] + 1)):
        raise ValueError(f"--m-range {args.m_range!r} must list consecutive depths in ascending order")
    rows = run_convergence(args.activation, values[0], values[-1])
    _write_out(args.out, rows_to_csv(rows))
    check_convergence_rows(rows)
    return 0


def _cmd_required_m(args) -> int:
    params = certificate(args.activation)
    m = required_composition_depth(params, args.delta)  # a bad --delta fails before any output
    print(f"activation {args.activation}: eta={params.eta} eps={params.eps} "
          f"curvature={params.curvature}")
    print(f"max degree {args.delta}: scanned composition depth m = {m}")
    if args.activation in FLAT_NAMES:
        a, alpha = flat_tanh_constants()
        print(f"  flat-shoulder constants: a={a:.12f} alpha={alpha:.12f}")
    return 0


_QUERY_ARGS = (
    ("--query", dict(help="preset query name: q1 or q2")),
    ("--formula", dict(help="formula text in the concrete grammar")),
)

# verb -> (handler, help, its arguments as (flag, add_argument keywords))
_VERBS = {
    "compile": (_cmd_compile, "compile a query to the text weight format", (
        *_QUERY_ARGS,
        ("--palette", dict(type=int)),
        ("--activation", dict(default="sigma-star", choices=ACTIVATION_NAMES)),
        ("--m", dict(type=int, default=1)),
        ("--out", {}),
    )),
    "eval": (_cmd_eval, "run a compiled or freshly compiled query on a graph", (
        *_QUERY_ARGS,
        ("--spec", dict(help="path to a serialized network")),
        ("--graph", dict(required=True)),
        ("--activation", dict(choices=ACTIVATION_NAMES,
                              help="default: the spec's own (sigma-star when compiling a query)")),
        ("--m", dict(type=int, help="default: the spec's m for its own activation, else 1")),
        ("--vertex", dict(type=int, help="report one vertex, in [0, n)")),
        ("--out", {}),
    )),
    "check-exact": (_cmd_check_exact, "compare threshold/clipped-relu runs to the evaluator", (
        *_QUERY_ARGS,
        ("--palette", dict(type=int)),
        ("--graph", dict(help="graph file to check")),
        ("--random-graphs", dict(type=int, default=0)),
        ("--n", dict(type=int, default=100)),
        ("--avg-degree", dict(type=float, default=5.0)),
        ("--seed", dict(type=int, default=0)),
    )),
    "separation": (_cmd_separation, "gap sweep over the tree pairs per (m, k)", (
        *_QUERY_ARGS,
        ("--palette", dict(type=int)),
        ("--activation", dict(default="arctan-4pi", choices=ACTIVATION_NAMES)),
        ("--m", dict(dest="m_list", default="4,8,12", help="list or lo:hi")),
        ("--k-range", dict(default="2:64", help="list or lo:hi")),
        ("--out", {}),
    )),
    "saturation": (_cmd_saturation, "gap decay of a bounded activation as trees grow", (
        *_QUERY_ARGS,
        ("--palette", dict(type=int)),
        ("--activation", dict(default="sigmoid", choices=ACTIVATION_NAMES)),
        ("--m", dict(type=int, default=1)),
        ("--k-range", dict(default="2:64", help="list or lo:hi")),
        ("--out", {}),
    )),
    "steplike-verify": (_cmd_steplike_verify, "verify the shipped step-like certificates", (
        ("names", dict(nargs="*", help="activation names (default: all certified)")),
    )),
    "convergence": (_cmd_convergence, "iterate error vs certified bound per m", (
        ("--activation", dict(required=True, choices=ACTIVATION_NAMES)),
        ("--m-range", dict(default="0:20", help="list or lo:hi (default: %(default)s)")),
        ("--out", {}),
    )),
    "required-m": (_cmd_required_m, "composition depth needed for a degree bound", (
        ("--activation", dict(required=True, choices=ACTIVATION_NAMES)),
        ("--delta", dict(type=int, required=True)),
    )),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of ``verb`` alone: building one verb's
    subparser costs a fraction of building all of them."""
    parser = argparse.ArgumentParser(prog="gc2gnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _VERBS.items():
        if verb is None or name == verb:
            p = sub.add_parser(name, help=help_text)
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A named verb's arguments are parsed by its own parser; every message of
    # the top-level parser (no verb, an unknown one, -h, arguments left over,
    # a handler's usage error) comes from the full one, which lists all verbs.
    if argv and argv[0] in _VERBS:
        args, extras = build_parser(argv[0]).parse_known_args(argv)
        if extras:
            build_parser().parse_args(argv)  # exits with "unrecognized arguments"
    else:
        args = build_parser().parse_args(argv)
    # A flag with a lower bound is checked here, where it enters, so its message names it.
    for dest, low in (("palette", 1), ("random_graphs", 0), ("seed", 0)):
        value = getattr(args, dest, None)
        if value is not None and value < low:
            build_parser().error(f"--{dest.replace('_', '-')} {value} must be >= {low}")
    # Bad values, malformed files and unreadable paths are usage errors
    # (exit code 2); the format errors of graphs, specs and formulas are
    # ValueErrors too, and an integer too large for a float is an
    # OverflowError.  A sweep that breaks its bound is a failed verdict
    # (exit code 1), reported after its CSV.
    try:
        return args.handler(args)
    except (ValueError, OverflowError, OSError) as exc:
        build_parser().error(str(exc))
    except BoundViolation as exc:
        print(f"gc2gnn {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
