"""The benchmark's four workloads.

Each workload owns its seeded input generators, the fixed list of ops that
makes one pass, how an op calls into gc2gnn, and the check its output must
pass. The program only ever sees the generated inputs or argv. The values a
check compares with are computed in `references`, which the benchmark runs
outside every timing and trace.

Program calls go through module attributes (``engine.forward_outputs``, not a
name imported at load time) so that the tracer in ``tracing.py`` sees them.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gc2gnn import activations, cli, compiler, engine, formulas, graphs

# The preset queries, written out here so that the inputs stay fixed when the
# program's own constants move.
Q1_TEXT = "not (dia>=1 (not (dia>=2 top)))"
Q2_TEXT = "(C1 and dia>=1 ((dia>=1 C2) and (dia>=1 C1)))"

# Certified output error of step-arctan at m=14 for max degree <= 64: the
# condition 2 (delta + 2) * bound(m) < 1 behind `gc2gnn required-m`.
STEP_ARCTAN_M = 14
CERTIFIED_DEGREE = 64
CERTIFIED_ERROR = 1.0 / (2 * (CERTIFIED_DEGREE + 2))

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Op:
    """One timed operation: a label for reports and the arguments it runs."""

    label: str
    args: tuple


@dataclass(frozen=True)
class CliResult:
    """What one in-process CLI invocation returned and printed to stdout."""

    code: int
    stdout: str


def run_cli(argv) -> CliResult:
    """Run ``gc2gnn.cli.main`` in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse errors and "need --query" exit this way
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue())


def check_exact_verdict(result: CliResult) -> str | None:
    """A `check-exact` op passes on exit code 0 with a PASS verdict; the verb
    itself compares sigma-star and crelu with `eval_oracle_all` at every vertex."""
    if result.code != 0:
        return f"exit code {result.code}"
    lines = result.stdout.strip().splitlines()
    if not lines or lines[-1] != "exactness: PASS":
        return "no 'exactness: PASS' verdict"
    return None


# --------------------------------------------------------------------------
# input generators


def _node_text(node) -> str:
    kind = node[0]
    if kind == "C":
        return f"C{node[1]}"
    if kind == "top":
        return "top"
    if kind == "not":
        return f"not {_node_text(node[1])}"
    if kind == "and":
        return f"({_node_text(node[1])} and {_node_text(node[2])})"
    return f"dia>={node[1]} {_node_text(node[2])}"


def _distinct_non_top(node, seen: set) -> None:
    if node in seen:
        return
    seen.add(node)
    kind = node[0]
    if kind in ("not", "dia"):
        _distinct_non_top(node[-1], seen)
    elif kind == "and":
        _distinct_non_top(node[1], seen)
        _distinct_non_top(node[2], seen)


def formula_depth(node) -> int:
    """Distinct subformulas other than ``top``: the compiled iteration count."""
    seen: set = set()
    _distinct_non_top(node, seen)
    return len(seen - {("top",)})


def random_formula_text(rng: np.random.Generator, palette: int, depth: int, max_threshold: int = 3) -> str:
    """A seeded random formula whose depth is exactly ``depth``.

    Fixing the depth of every formula, rather than drawing it, keeps the cost
    of a pass the same from seed to seed while the formulas themselves change.
    """

    def gen(budget: int):
        if budget <= 1 or rng.random() < 0.3:
            if rng.random() < 0.2:
                return ("top",)
            return ("C", int(rng.integers(1, palette + 1)))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            return ("not", gen(budget - 1))
        if kind == 1:
            split = int(rng.integers(1, budget))
            return ("and", gen(split), gen(budget - split))
        return ("dia", int(rng.integers(1, max_threshold + 1)), gen(budget - 1))

    while True:
        node = gen(depth)
        if formula_depth(node) == depth:
            return _node_text(node)


def chain_formula_text(rng: np.random.Generator, levels: int, palette: int, max_threshold: int = 3) -> str:
    """A seeded chain of ``levels`` nested `not`, `dia>=K` and `and`, a third
    of each in seeded order, over the atoms ``C1 .. C<palette>`` and ``top``.

    Every atom occurs (for ``levels >= 3 * (palette + 1)``), so the compiled
    network has exactly ``levels + palette + 1`` coordinates whatever the
    seed, and the cost of an op depends on ``levels`` alone.
    """
    atoms = [f"C{c}" for c in range(1, palette + 1)] + ["top"]
    kinds = [i % 3 for i in range(levels)]
    rng.shuffle(kinds)
    order = list(rng.permutation(len(atoms)))
    text = atoms[order[0]]
    ands = 0
    for kind in kinds:
        if kind == 0:
            text = f"not {text}"
        elif kind == 1:
            text = f"dia>={int(rng.integers(1, max_threshold + 1))} {text}"
        else:
            ands += 1
            atom = atoms[order[ands % len(atoms)]]
            text = f"({text} and {atom})" if rng.random() < 0.5 else f"({atom} and {text})"
    return text


def sparse_random_edges(rng: np.random.Generator, n: int, avg_degree: float) -> np.ndarray:
    """About ``n * avg_degree / 2`` uniform edges in O(n + E) time and memory,
    canonical (u < v), deduplicated and sorted; `graphs.random_graph` is
    O(n^2) and would allocate 5e9 index pairs at n = 1e5."""
    count = int(round(n * avg_degree / 2))
    u = rng.integers(0, n, size=count)
    v = rng.integers(0, n, size=count)
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    keys = np.unique(lo * n + hi)
    return np.stack([keys // n, keys % n], axis=1)


def write_graph_text(path: Path, n: int, palette: int, colors: np.ndarray, edges: np.ndarray) -> None:
    """The graph text format: `n palette`, the colors, then one `u v` per edge."""
    lines = [f"{n} {palette}", " ".join(map(str, colors.tolist()))]
    lines.extend(f"{u} {v}" for u, v in edges.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


# --------------------------------------------------------------------------
# workloads


class Workload:
    """One workload: ``setup`` returns a state whose ``ops`` is the fixed list
    of one pass, ``references`` adds to it what the checks compare with,
    ``execute`` runs one op against the program and ``check`` returns None
    for a correct output or the reason it is wrong."""

    name = ""
    why = ""
    # CPU seconds of one pass at the commit that defined the benchmark, on a
    # 2-core x86-64 VM; `--seconds` becomes a fixed whole number of passes
    # with it, so the op list never depends on how busy the machine is.
    pass_ref_cpu_s = 1.0
    setup_repeats = 3

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def references(self, state) -> None:
        """Compute the checks' reference values into ``state``; not timed."""

    def warmup(self, state) -> Op:
        """The op set-up runs once, checked."""
        return state.ops[0]

    def another_pass(self, state) -> list[Op]:
        """The ops of the next timed pass after ``state.ops``."""
        return state.ops

    def execute(self, state, op: Op):
        raise NotImplementedError

    def check(self, state, op: Op, output) -> str | None:
        raise NotImplementedError


@dataclass
class CliState:
    ops: list[Op]
    warm: Op  # an op of its own, so that no timed op repeats the warm-up's input
    rng: np.random.Generator


class CheckExactCorpus(Workload):
    name = "check-exact-corpus"
    why = ("Thousands of tiny forwards, so per-call overhead in engine, backend "
           "and graph construction counts; batching shows here, activations do little.")
    pass_ref_cpu_s = 11.4
    setup_repeats = 15
    SIZES = tuple(range(20, 201, 20))
    RANDOM_FORMULAS = 20
    GRAPHS_PER_OP = 20
    PALETTE = 3

    def _op(self, rng, label, query, n) -> Op:
        argv = ("check-exact", *query, "--random-graphs", str(self.GRAPHS_PER_OP),
                "--n", str(n), "--seed", str(int(rng.integers(0, 2**31))))
        return Op(label, argv)

    def _pass(self, rng) -> list[Op]:
        queries = [("--query", "q1"), ("--query", "q2")]
        depths = [2 + i % 5 for i in range(self.RANDOM_FORMULAS)]
        queries += [
            ("--formula", random_formula_text(rng, self.PALETTE, d), "--palette", str(self.PALETTE))
            for d in depths
        ]
        return [self._op(rng, f"query{qi}-n{n}", query, n) for qi, query in enumerate(queries) for n in self.SIZES]

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        ops = self._pass(rng)
        warm = self._op(rng, "warmup", ("--query", "q1"), self.SIZES[0])
        return CliState(ops, warm, rng)

    def warmup(self, state):
        return state.warm

    def another_pass(self, state):
        # Fresh formulas of the same depths and fresh graphs.
        return self._pass(state.rng)

    def execute(self, state, op):
        return run_cli(op.args)

    def check(self, state, op, output):
        return check_exact_verdict(output)


class DeepFormula(Workload):
    name = "deep-formula"
    why = ("Chains of 60-140 nested connectives: the only workload where "
           "formulas/compiler work and the dense d x d combine dominates backend.")
    pass_ref_cpu_s = 6.9
    setup_repeats = 3
    LEVELS = (60, 80, 100, 120, 140)
    N = 200
    PALETTE = 2

    def _op(self, rng, levels) -> Op:
        text = chain_formula_text(rng, levels, self.PALETTE)
        argv = ("check-exact", "--formula", text, "--palette", str(self.PALETTE),
                "--random-graphs", "1", "--n", str(self.N),
                "--seed", str(int(rng.integers(0, 2**31))))
        return Op(f"levels{levels}", argv)

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        ops = [self._op(rng, levels) for levels in self.LEVELS]
        # A chain of the deepest level allocates the largest arrays, so no
        # timed op is the first to grow the heap to its size.
        warm = self._op(rng, self.LEVELS[-1])
        return CliState(ops, warm, rng)

    def warmup(self, state):
        return state.warm

    def another_pass(self, state):
        # Fresh chains of the same levels: the same cost, but no formula text
        # the program has compiled before in this process.
        return [self._op(state.rng, levels) for levels in self.LEVELS]

    def execute(self, state, op):
        return run_cli(op.args)

    def check(self, state, op, output):
        return check_exact_verdict(output)


@dataclass
class LargeState:
    graph: object
    parsed: dict
    specs: dict
    ops: list[Op]
    oracle: dict = field(default_factory=dict)  # filled by `references`


class LargeForward(Workload):
    name = "large-forward"
    why = ("One n=1e5 graph of average degree 5: backend aggregation is most of "
           "the time and the (T+1) n d history sets peak memory; call overhead is nil.")
    pass_ref_cpu_s = 3.0
    setup_repeats = 3
    N = 100_000
    AVG_DEGREE = 5.0
    PALETTE = 2

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        edges = sparse_random_edges(rng, self.N, self.AVG_DEGREE)
        colors = rng.integers(1, self.PALETTE + 1, size=self.N)
        max_degree = int(np.bincount(edges.ravel(), minlength=self.N).max())
        if max_degree > CERTIFIED_DEGREE:
            raise RuntimeError(f"max degree {max_degree} exceeds the certified {CERTIFIED_DEGREE}")
        path = workdir / f"large-forward-{os.getpid()}.graph"
        write_graph_text(path, self.N, self.PALETTE, colors, edges)
        try:
            graph, _ = graphs.read_graph(path)
        finally:
            path.unlink()
        graph.edge_src  # build the adjacency in set-up, not in the first op
        parsed, specs = {}, {}
        for name, text in (("q1", Q1_TEXT), ("q2", Q2_TEXT)):
            parsed[name] = formulas.parse(text, self.PALETTE)
            specs[name] = compiler.compile_formula(parsed[name], self.PALETTE)
        # Five kinds of op, cheapest first. q2 under sigma-star is left out:
        # it costs and checks what q2 under crelu does, and with both in,
        # the median fell near the edge of their shared cluster of CPU
        # times. Without it the median is q1 under step-arctan and the tail
        # q2 under crelu, each inside its own kind's cluster.
        ops = [
            Op(f"{q}-{act}", (q, act, m))
            for q, act, m in (
                ("q1", "sigma-star", 1),
                ("q1", "crelu", 1),
                ("q1", "step-arctan", STEP_ARCTAN_M),
                ("q2", "crelu", 1),
                ("q2", "step-arctan", STEP_ARCTAN_M),
            )
        ]
        return LargeState(graph, parsed, specs, ops)

    def references(self, state):
        for name, formula in state.parsed.items():
            state.oracle[name] = formulas.eval_oracle_all(formula, state.graph).astype(np.float64)

    def warmup(self, state):
        # The op with the largest arrays, so no timed op is the first to
        # grow the heap to its size.
        return state.ops[-1]

    def execute(self, state, op):
        query, name, m = op.args
        return engine.forward_outputs(state.specs[query], state.graph, activations.ActivationSpec(name, m))

    def check(self, state, op, output):
        query, name, _ = op.args
        want = state.oracle[query]
        got = np.asarray(output, dtype=np.float64)
        if got.shape != want.shape:
            return f"output shape {got.shape}, expected {want.shape}"
        if name == "step-arctan":
            err = np.abs(got - want)
            if not (err <= CERTIFIED_ERROR).all():  # NaN fails too
                return f"error {np.nanmax(err)!r} above the certified 1/132"
            return None
        bad = int((got != want).sum())
        return None if bad == 0 else f"{bad} vertices differ from the oracle"


SWEEPS = (
    ("saturation-sigmoid",
     ("saturation", "--query", "q1", "--activation", "sigmoid", "--k-range", "2:64")),
    ("separation-arctan-4pi",
     ("separation", "--query", "q1", "--activation", "arctan-4pi", "--m", "4,8,12", "--k-range", "2:64")),
    ("separation-step-arctan",
     ("separation", "--query", "q1", "--activation", "step-arctan", "--m", "14", "--k-range", "2:64")),
)


# The sweeps' --k-range 2:64, for the oracle's root gaps.
SWEEP_K_VALUES = range(2, 65)


@dataclass
class SweepState:
    ops: list[Op]
    golden: dict = field(default_factory=dict)  # filled by `references`
    root_gap: dict = field(default_factory=dict)


class TreeSweep(Workload):
    name = "tree-sweep"
    why = ("Full CLI sweeps over trees of up to ~4000 vertices under iterated "
           "transcendental activations: activations, make_tree and experiments peak here.")
    pass_ref_cpu_s = 4.7
    setup_repeats = 3

    def setup(self, seed, workdir):
        # The sweep is deterministic: the seed changes nothing here.
        return SweepState([Op(label, argv) for label, argv in SWEEPS])

    def references(self, state):
        state.golden = {label: (GOLDEN_DIR / f"{label}.csv").read_bytes() for label, _ in SWEEPS}
        formula = formulas.parse(Q1_TEXT, 1)
        for k in SWEEP_K_VALUES:
            values = []
            for x in (0, 1):
                tree, root = graphs.make_tree(graphs.TreeParams(x, k, k), "unicolor")
                values.append(float(formulas.eval_oracle_all(formula, tree)[root]))
            state.root_gap[k] = abs(values[1] - values[0])

    def execute(self, state, op):
        return run_cli(op.args)

    def check(self, state, op, output):
        if output.code != 0:
            return f"exit code {output.code}"
        got = output.stdout.encode("ascii")
        want = state.golden[op.label]
        if got != want:
            line = next(
                (i for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), 1) if a != b),
                min(len(got.splitlines()), len(want.splitlines())) + 1,
            )
            return f"CSV differs from the golden file at line {line}"
        for row in output.stdout.splitlines()[1:]:
            _, _, activation, _, k, _, _, value, _ = row.split(",")
            if activation in ("sigma-star", "crelu") and float(value) != state.root_gap[int(k)]:
                return f"{activation} row at k={k} is {value}, oracle root gap {state.root_gap[int(k)]!r}"
        return None


WORKLOADS = {w.name: w for w in (CheckExactCorpus, LargeForward, TreeSweep, DeepFormula)}
