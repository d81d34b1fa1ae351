import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gc2gnn import (
    ActivationSpec,
    LabeledGraph,
    TreeParams,
    compile_formula,
    eval_oracle_all,
    forward_outputs,
    make_tree,
    parse,
    random_graph,
    read_spec,
    spec_to_text,
    write_graph,
)
from gc2gnn import cli, experiments
from gc2gnn.experiments import (
    BoundViolation,
    ResultRow,
    check_convergence_rows,
    check_saturation_decay,
    rows_to_csv,
    run_convergence,
    run_separation,
    run_saturation,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gc2gnn.cli", *args], capture_output=True, text=True
    )


# -- harness functions -------------------------------------------------------


def test_separation_rows_and_baselines():
    rows = run_separation("q1", "arctan-4pi", (2, 4), (2, 3))
    baselines = [r for r in rows if r.activation in ("sigma-star", "crelu")]
    assert len(baselines) == 4
    assert all(r.value == 1.0 for r in baselines)
    swept = [r for r in rows if r.activation == "arctan-4pi"]
    assert {(r.m, r.k) for r in swept} == {(2, 2), (2, 3), (4, 2), (4, 3)}


def test_separation_q2_runs():
    rows = run_separation("q2", "arctan-4pi", (2,), (3,))
    assert any(r.activation == "arctan-4pi" for r in rows)


def test_load_query_parses_a_preset_against_the_given_palette():
    label, formula, palette = experiments.load_query("q2", 3)
    assert (label, palette) == ("q2", 3)
    assert formula == experiments.load_query("q2")[1]


def test_saturation_decay_check():
    rows = run_saturation("q1", "sigmoid", 1, (2, 4, 8, 16))
    first, last = check_saturation_decay(rows)
    assert last < first
    controls = [r for r in rows if r.activation == "crelu"]
    assert all(r.value == 1.0 for r in controls)


def test_saturation_decay_check_rejects_flat_rows():
    rows = [
        ResultRow("saturation", "q1", "sigmoid", 1, 2, 6, 3, 0.5),
        ResultRow("saturation", "q1", "sigmoid", 1, 64, 4098, 65, 0.7),
    ]
    with pytest.raises(BoundViolation, match="no saturation decay"):
        check_saturation_decay(rows)


def test_convergence_rows_within_bounds():
    rows = run_convergence("step-arctan", 0, 12)
    check_convergence_rows(rows)
    observed = [r for r in rows if r.experiment == "convergence"]
    assert len(observed) == 13


def test_convergence_check_rejects_injected_violation():
    rows = run_convergence("steplike-tanh-eta0", 0, 3)
    bad = ResultRow("convergence", "-", "steplike-tanh-eta0", 3, 0, 100_001, 0, 0.5)
    with pytest.raises(BoundViolation, match="exceeds bound"):
        check_convergence_rows(rows + [bad])


def test_config_validation():
    with pytest.raises(ValueError, match="non-empty"):
        run_separation("q1", "arctan-4pi", (), (2,))
    with pytest.raises(ValueError, match="unknown activation"):
        run_separation("q1", "swish", (4,), (2,))


def test_csv_header_and_shape():
    text = rows_to_csv(run_saturation("q1", "sigmoid", 1, (2,)))
    lines = text.strip().splitlines()
    assert lines[0] == "experiment,query,activation,m,k,n,delta,value,seconds"
    assert all(len(line.split(",")) == 9 for line in lines)


# -- the command line ----------------------------------------------------------


def test_cli_compile_round_trip(tmp_path, q2):
    out = tmp_path / "q2.spec"
    result = run_cli("compile", "--query", "q2", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert read_spec(out) == compile_formula(q2, 2)


def test_cli_compile_out_dash_is_stdout(tmp_path, q1, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["compile", "--query", "q1", "--out", "-"]) == 0
    assert capsys.readouterr().out == spec_to_text(compile_formula(q1, 1))
    assert not (tmp_path / "-").exists()


def test_cli_compile_formula_text(tmp_path):
    out = tmp_path / "f.spec"
    result = run_cli("compile", "--formula", "dia>=2 C1", "--palette", "2", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert read_spec(out) == compile_formula(parse("dia>=2 C1", 2), 2)


def test_cli_eval_on_tree(tmp_path):
    tree, root = make_tree(TreeParams(1, 3, 4))
    graph_path = tmp_path / "tree.graph"
    write_graph(graph_path, tree, root=root)
    result = run_cli("eval", "--query", "q1", "--graph", str(graph_path), "--vertex", "0")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0 1.0"


def test_cli_eval_parses_with_the_graph_palette(tmp_path):
    graph = random_graph(30, 3.0, 2, 4)
    graph_path = tmp_path / "two-color.graph"
    write_graph(graph_path, graph)
    result = run_cli("eval", "--formula", "dia>=1 C2", "--graph", str(graph_path))
    assert result.returncode == 0, result.stderr
    want = eval_oracle_all(parse("dia>=1 C2", 2), graph)
    assert result.stdout == "".join(f"{v} {float(x)!r}\n" for v, x in enumerate(want))


def test_cli_eval_spec_uses_its_activation(tmp_path, q1):
    tree, _ = make_tree(TreeParams(1, 3, 4))
    graph_path, spec_path = tmp_path / "tree.graph", tmp_path / "q1.spec"
    write_graph(graph_path, tree)
    result = run_cli("compile", "--query", "q1", "--activation", "step-arctan", "--m", "14",
                     "--out", str(spec_path))
    assert result.returncode == 0, result.stderr
    result = run_cli("eval", "--spec", str(spec_path), "--graph", str(graph_path))
    assert result.returncode == 0, result.stderr
    smooth = forward_outputs(compile_formula(q1, 1), tree, ActivationSpec("step-arctan", 14))
    assert result.stdout == "".join(f"{v} {float(x)!r}\n" for v, x in enumerate(smooth))
    assert not set(smooth) <= {0.0, 1.0}  # differs from the sigma-star run
    # another map named on the command line runs at m = 1, not the spec's 14
    result = run_cli("eval", "--spec", str(spec_path), "--graph", str(graph_path),
                     "--activation", "sigmoid")
    assert result.returncode == 0, result.stderr
    once = forward_outputs(compile_formula(q1, 1), tree, ActivationSpec("sigmoid", 1))
    assert result.stdout == "".join(f"{v} {float(x)!r}\n" for v, x in enumerate(once))


# Out-of-range values and unreadable inputs end with a usage message and
# exit code 2, not a traceback.
@pytest.mark.parametrize(
    "args,message",
    [
        pytest.param(("eval", "--query", "q1", "--graph", "{graph}", "--vertex", "-1"),
                     "--vertex -1 out of range [0, 5)", id="-1"),
        pytest.param(("eval", "--query", "q1", "--graph", "{graph}", "--vertex", "99"),
                     "--vertex 99 out of range [0, 5)", id="99"),
        pytest.param(("eval", "--query", "q1", "--graph", "{missing}"), "No such file", id="missing-graph"),
        pytest.param(("separation", "--k-range", "x"), "invalid literal", id="k-range-x"),
        pytest.param(("separation", "--k-range", "5:2"), "sweeps must be non-empty", id="k-range-5:2"),
        pytest.param(("compile", "--query", "q1", "--m", "-1"), "composition depth", id="compile-m-1"),
        pytest.param(("check-exact", "--query", "q1", "--random-graphs", "1", "--n", "0"),
                     "n must be >= 1", id="check-exact-n0"),
        pytest.param(("compile",), "need --query or --formula", id="compile-no-query"),
        pytest.param(("check-exact", "--query", "q1", "--random-graphs", "0"),
                     "need --graph and/or --random-graphs", id="check-exact-no-graphs"),
        pytest.param(("separation", "--formula", "dia>=1 C1", "--palette", "0"),
                     "--palette 0 must be >= 1", id="palette-0"),
        pytest.param(("convergence", "--activation", "step-arctan", "--m-range", "5:2"),
                     "empty --m-range '5:2'", id="m-range-5:2"),
        pytest.param(("separation", "--activation", "step-arctan", "--m=-1"), "composition depth",
                     id="separation-step-arctan-m-1"),
        pytest.param(("separation", "--activation", "sigmoid", "--m=-1"), "composition depth",
                     id="separation-sigmoid-m-1"),
        pytest.param(("convergence", "--activation", "step-arctan", "--m-range=-1:2"),
                     "non-negative", id="m-range-1:2"),
        pytest.param(("required-m", "--activation", "step-arctan", "--delta", "1" + "0" * 400),
                     "int too large to convert to float", id="required-m-huge-delta"),
        pytest.param(("steplike-verify", "foo"), "unknown activation 'foo'", id="steplike-verify-foo"),
        pytest.param(("steplike-verify", "relu"), "'relu' carries no step-like certificate",
                     id="steplike-verify-relu"),
        pytest.param(("compile", "--formula", "not " * 1200 + "top"),
                     "formula nested too deeply (at position 0)", id="deep-formula"),
        pytest.param(("compile", "--query", "q1", "--palette", "0"), "--palette 0 must be >= 1",
                     id="preset-palette-0"),
        pytest.param(("compile", "--query", "q1", "--palette", "-3"), "--palette -3 must be >= 1",
                     id="preset-palette-3"),
        # --palette is checked as it enters, by every verb that takes it
        *(pytest.param((verb, "--query", "q1", "--palette", "0", *extra), "--palette 0 must be >= 1",
                       id=f"{verb}-palette-0")
          for verb, extra in (("check-exact", ("--random-graphs", "1")), ("saturation", ()))),
        pytest.param(("check-exact", "--query", "q1", "--random-graphs", "1", "--seed", "-1"),
                     "--seed -1 must be >= 0", id="check-exact-seed-1"),
        # a preset is parsed against the palette it is given
        pytest.param(("compile", "--query", "q2", "--palette", "1"), "color index 2 out of range [1, 1]",
                     id="preset-q2-palette-1"),
        pytest.param(("check-exact", "--graph", "{graph}", "--query", "q1", "--random-graphs", "-2"),
                     "--random-graphs -2 must be >= 0", id="random-graphs-2"),
        pytest.param(("saturation", "--query", "q1", "--k-range", "5"),
                     "--k-range '5' needs at least two k values", id="saturation-one-k"),
        pytest.param(("saturation", "--query", "q1", "--activation", "crelu"),
                     "--activation crelu is exact", id="saturation-crelu"),
        pytest.param(("separation", "--k-range", "0:2"), "k must be >= 1, got k = 0",
                     id="separation-k0"),
        pytest.param(("separation", "--k-range", "2:3", "--delta", "1"),
                     "unrecognized arguments: --delta 1", id="separation-delta"),
        # a spec file is already compiled, so a query beside it would be ignored
        *(pytest.param(("eval", "--spec", "{spec}", "--graph", "{graph}", *extra),
                       "--spec takes no --query or --formula", id=f"eval-spec-{flag}")
          for flag, extra in (("query", ("--query", "q1")), ("formula", ("--formula", "C1")))),
        # eval takes its palette from the graph
        pytest.param(("eval", "--spec", "{spec}", "--graph", "{graph}", "--palette", "7"),
                     "unrecognized arguments: --palette 7", id="eval-spec-palette"),
        # a header may not declare more layers than its init line has coordinates
        pytest.param(("eval", "--spec", "{deep}", "--graph", "{graph}"), "iterations outside 0..5",
                     id="eval-spec-too-deep"),
        # a file of the old dense-row format is refused by its header, also
        # at d = 1, where a dense row has the five entries of a weight line
        *(pytest.param(("eval", "--spec", "{" + key + "}", "--graph", "{graph}"), "old dense-row format",
                       id=f"eval-spec-{key.replace('_', '-')}") for key in ("dense_q1", "dense_d1")),
        # a repeated value would run its sweep rows twice
        pytest.param(("separation", "--k-range", "2,2", "--m", "4,4"), "repeated value in '4,4'",
                     id="separation-repeated-m"),
        pytest.param(("separation", "--k-range", "2,3,2"), "repeated value in '2,3,2'",
                     id="separation-repeated-k"),
        pytest.param(("saturation", "--query", "q1", "--k-range", "4,2,4"),
                     "repeated value in '4,2,4'", id="saturation-repeated-k"),
        # convergence sweeps every depth from the first to the last
        pytest.param(("convergence", "--activation", "step-arctan", "--m-range", "3,7"),
                     "--m-range '3,7' must list consecutive depths in ascending order", id="m-range-3,7"),
        pytest.param(("convergence", "--activation", "step-arctan", "--m-range", "4,3"),
                     "--m-range '4,3' must list consecutive depths in ascending order", id="m-range-4,3"),
        *(pytest.param((verb, "--query", "q1", "--formula", "C1", *extra),
                       "give --query or --formula, not both", id=f"{verb}-query-and-formula")
          for verb, extra in (("compile", ()), ("eval", ("--graph", "{graph}")),
                              ("check-exact", ("--graph", "{graph}")), ("separation", ()),
                              ("saturation", ()))),
    ],
)
def test_cli_eval_vertex_out_of_range(tmp_path, q1_spec, args, message):
    path = LabeledGraph(5, 1, np.ones(5, dtype=np.int64), np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
    graph_path, spec_path = tmp_path / "path.graph", tmp_path / "q1.spec"
    write_graph(graph_path, path)
    spec_path.write_text(spec_to_text(q1_spec))
    spec_texts = {
        "deep": "5 1000000000 4 sigma-star 1 terms\ninit 1 0 0 0 0\n",
        # q1 and a d = 1 network in the old dense-row format
        "dense_q1": "5 4 4 sigma-star 1\ninit 1 0 0 0 0\n1 1 -1 0 0 0 0 0 1 0 0 0 0\n2 2 1 0 -1 0 0 0 0 0 0 0 0\n"
                    "3 3 0 0 0 0 0 0 0 0 1 0 0\n4 4 1 0 0 0 -1 0 0 0 0 0 0\n",
        "dense_d1": "1 1 0 sigma-star 1\ninit C1\n1 0 1 0 1\n",
    }
    paths = {"graph": str(graph_path), "missing": str(tmp_path / "missing.graph"), "spec": str(spec_path)}
    for key, text in spec_texts.items():
        paths[key] = str(tmp_path / f"{key}.spec")
        Path(paths[key]).write_text(text)
    result = run_cli(*(arg.format(**paths) for arg in args))
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""  # the error comes before any output


def test_cli_check_exact_passes(tmp_path):
    result = run_cli(
        "check-exact", "--query", "q1", "--random-graphs", "3", "--n", "50", "--seed", "5"
    )
    assert result.returncode == 0, result.stderr
    assert "exactness: PASS" in result.stdout


def test_cli_steplike_verify_exit_code():
    result = run_cli("steplike-verify", "step-arctan", "steplike-tanh-eta0")
    assert result.returncode == 0, result.stderr
    assert "pass" in result.stdout


def test_cli_required_m():
    result = run_cli("required-m", "--activation", "step-arctan", "--delta", "64")
    assert result.returncode == 0, result.stderr
    assert "m = 14" in result.stdout


def test_cli_separation_deterministic(tmp_path):
    args = ("separation", "--query", "q1", "--activation", "arctan-4pi",
            "--m", "2,4", "--k-range", "2:4")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = run_cli(*args, "--out", str(out1))
    r2 = run_cli(*args, "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_convergence_and_saturation(tmp_path):
    out = tmp_path / "conv.csv"
    result = run_cli("convergence", "--activation", "steplike-tanh-eta0",
                     "--m-range", "0:6", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_text().startswith("experiment,query,activation")

    out2 = tmp_path / "sat.csv"
    result = run_cli("saturation", "--query", "q1", "--k-range", "2,4,8", "--out", str(out2))
    assert result.returncode == 0, result.stderr
    assert "saturation: gap" in result.stderr


def test_cli_check_exact_keeps_file_palette_error(tmp_path):
    # The union of the file's graph with palette-3 random graphs has palette
    # 3, but the file's own palette of 2 still fails the formula's C3.
    graph_path = tmp_path / "two.graph"
    write_graph(graph_path, LabeledGraph(3, 2, np.array([1, 2, 1]), np.array([[0, 1], [1, 2]])))
    for extra in ((), ("--random-graphs", "2", "--n", "20")):
        result = run_cli("check-exact", "--graph", str(graph_path), "--formula", "(C3 and top)",
                         "--palette", "3", *extra)
        assert result.returncode == 2, extra
        assert "color C3 outside the graph palette [1, 2]" in result.stderr
        assert result.stdout == "" and "Traceback" not in result.stderr


# A non-ASCII byte in either input file is a format error naming its offset.
@pytest.mark.parametrize("char", ["\u00a0", "\u0661"], ids=["no-break-space", "arabic-indic-digit"])
@pytest.mark.parametrize("bad", ["graph", "spec"])
def test_cli_eval_rejects_non_ascii(tmp_path, q1_spec, bad, char):
    paths = {"graph": tmp_path / "path.graph", "spec": tmp_path / "q1.spec"}
    write_graph(paths["graph"], LabeledGraph(3, 1, np.ones(3, dtype=np.int64), np.array([[0, 1], [1, 2]])))
    paths["spec"].write_text(spec_to_text(q1_spec))
    text = paths[bad].read_text()
    offset = text.index(" ", text.index("\n"))  # the first space of the second line
    paths[bad].write_text(text[:offset] + char + text[offset + 1 :], encoding="utf-8")
    result = run_cli("eval", "--spec", str(paths["spec"]), "--graph", str(paths["graph"]))
    assert result.returncode == 2
    assert f"non-ASCII byte at offset {offset}" in result.stderr
    assert result.stdout == "" and "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv,fragment",
    [
        pytest.param(("saturation", "--query", "q1", "--activation", "tanh", "--k-range", "2:40"),
                     "no saturation decay: gap(k=40)", id="saturation"),
        pytest.param(("convergence", "--activation", "step-arctan", "--m-range", "14:16"),
                     "step-arctan at m=14: observed", id="convergence"),
    ],
)
def test_cli_bound_violation_is_a_verdict(argv, fragment, capsys, monkeypatch):
    # The certificates hold, so the convergence sweep is made to fail by
    # certifying a bound of zero.
    monkeypatch.setattr(experiments, "convergence_bound", lambda params, m: 0.0)
    assert cli.main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out.startswith(experiments.CSV_HEADER + "\n") and out.count("\n") > 2
    assert err.count("\n") == 1 and err.startswith(f"gc2gnn {argv[0]}: ")
    assert fragment in err


GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


@pytest.mark.parametrize(
    "label,argv",
    [
        ("saturation-sigmoid",
         ("saturation", "--query", "q1", "--activation", "sigmoid", "--k-range", "2:64")),
        ("separation-arctan-4pi",
         ("separation", "--query", "q1", "--activation", "arctan-4pi", "--m", "4,8,12", "--k-range", "2:64")),
        ("separation-step-arctan",
         ("separation", "--query", "q1", "--activation", "step-arctan", "--m", "14", "--k-range", "2:64")),
    ],
)
def test_sweep_csv_matches_golden(label, argv, capsys):
    assert cli.main(list(argv)) == 0
    out, _ = capsys.readouterr()
    assert out.encode("ascii") == (GOLDEN_DIR / f"{label}.csv").read_bytes()


TEXT_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
VERBS = ("compile", "eval", "check-exact", "separation", "saturation", "steplike-verify",
         "convergence", "required-m")


@pytest.mark.parametrize(
    "label,argv",
    [
        ("steplike-verify", ("steplike-verify",)),
        ("required-m-steplike-tanh-eta0", ("required-m", "--activation", "steplike-tanh-eta0", "--delta", "64")),
        ("required-m-step-arctan", ("required-m", "--activation", "step-arctan", "--delta", "64")),
        ("required-m-step-tanh", ("required-m", "--activation", "step-tanh", "--delta", "64")),
        ("required-m-steplike-sigmoid-eta0",
         ("required-m", "--activation", "steplike-sigmoid-eta0", "--delta", "64")),
        ("convergence-step-arctan", ("convergence", "--activation", "step-arctan")),
        ("convergence-steplike-sigmoid-eta0", ("convergence", "--activation", "steplike-sigmoid-eta0")),
        ("help-gc2gnn", ("--help",)),
        *((f"help-{verb}", (verb, "--help")) for verb in VERBS),
    ],
)
def test_cli_text_matches_golden(label, argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # --help exits from inside the parser
        code = exc.code
    assert code == 0
    out, _ = capsys.readouterr()
    (golden,) = TEXT_GOLDEN_DIR.glob(f"{label}.*")  # .txt, or .csv for a CSV
    assert out.encode("ascii") == golden.read_bytes()


def test_readme_command_lines_parse():
    # a renamed verb or flag breaks the README's "Command line" block
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    parser = cli.build_parser()
    verbs = set()
    for line in block.splitlines():
        if line.startswith("gc2gnn "):
            argv = shlex.split(line, comments=True)[1:]
            verbs.add(parser.parse_args(argv).command)  # exits on an unknown flag
    assert verbs == set(VERBS)


# Every usage error prints the full usage line of the parser that rejects the
# argument: the top-level one lists all verbs, a verb's own lists its flags.
@pytest.mark.parametrize(
    "label,argv",
    [
        ("usage-unknown-verb", ("chek",)),
        ("usage-no-verb", ()),
        ("usage-unrecognized-argument", ("check-exact", "--query", "q1", "--bogus", "1")),
        ("usage-handler-value-error", ("check-exact", "--query", "q1", "--random-graphs", "1", "--n", "0")),
        ("usage-invalid-int", ("check-exact", "--query", "q1", "--n", "x")),
    ],
)
def test_cli_usage_error_matches_golden(label, argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.encode("ascii") == (TEXT_GOLDEN_DIR / f"{label}.txt").read_bytes()


def test_cli_check_exact_stdout_matches_golden(tmp_path, capsys, monkeypatch):
    # the file graph is reported first, under the path as given, then the random ones
    monkeypatch.chdir(tmp_path)
    edges = np.array([[0, 1], [0, 2], [1, 2], [2, 3], [3, 4], [3, 5], [4, 5]])
    write_graph("six.graph", LabeledGraph(6, 2, np.array([1, 2, 2, 1, 2, 1]), edges))
    argv = ["check-exact", "--graph", "six.graph", "--query", "q2", "--random-graphs", "3",
            "--n", "30", "--seed", "7"]
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    assert out.encode("ascii") == (TEXT_GOLDEN_DIR / "check-exact-file-and-random.txt").read_bytes()
