#!/usr/bin/env python3
"""The gc2gnn benchmark.

    python3 perfbench/run.py --workload large-forward --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, each in its own process

One workload runs per process as a closed loop: one client, one op at a time,
no threads. Every op's output is checked. Timings are process CPU time
divided by the machine's measured slowness (see `Reference`). The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

# Ops needed beyond a percentile before it may be reported as the tail.
TAIL_MIN_BEYOND = 10


def _import_program():
    """Import gc2gnn from this checkout's sources and nowhere else."""
    if not (SRC / "gc2gnn" / "__init__.py").is_file():
        sys.exit(f"error: no gc2gnn sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gc2gnn

    if Path(gc2gnn.__file__).resolve().parent != SRC / "gc2gnn":
        sys.exit(f"error: imported gc2gnn from {gc2gnn.__file__}, not from {SRC}")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    """The machine and backend every result is tied to."""
    import numpy as np
    from gc2gnn import backend

    try:
        chosen = backend.default_backend()
    except AttributeError:
        chosen = "missing"
    except (ValueError, RuntimeError) as exc:
        chosen = f"error: {exc}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "default_backend": chosen,
        "GC2GNN_BACKEND": os.environ.get("GC2GNN_BACKEND"),
    }


# --------------------------------------------------------------------------
# machine speed


class Reference:
    """Fixed kernels of the benchmark's own, run between ops to measure how
    fast the shared machine is at that moment.

    On the 2-core VM this benchmark was defined on, the same op's CPU time
    drifted by +-20% within minutes as neighbours loaded the host. Two
    kernels follow that drift: a Python loop (interpreter speed) and a
    gather-add over a table larger than the caches (memory speed). Dividing
    each op's CPU time by their slowness on either side of the op cut the
    seed-to-seed spread of every timing about threefold, to 2-4% for
    throughput, more than the other mixes tried. They are timed with the
    calling thread's clock, so threads the program leaves running cannot
    slow them. A reading allocates nothing: its arrays are made once, so
    neither page faults nor the heap state the program leaves behind enter
    it, and it leaves the program's heap as it found it.
    """

    # Typical CPU seconds of each kernel between ops on the defining machine.
    NOMINAL_S = (0.0030, 0.0143)
    EVERY_S = 0.3  # op CPU seconds between two measurements
    # The program's CPU time moves more with the machine's state than the
    # kernels' do: over 20 to 40 runs of each workload, times divided by the
    # plain slowness still rose with the run's mean slowness (log-log slope
    # 0.1 to 0.8 on every workload). Dividing by slowness ** 1.3 takes part
    # of that out.
    EXPONENT = 1.3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._table = rng.random((1 << 19, 4))
        self._index = rng.integers(0, 1 << 19, size=1 << 15)
        self._gathered = np.empty((len(self._index), 4))
        self._out = np.zeros_like(self._table)

    def _once(self) -> float:
        np = self._np
        start = time.thread_time()
        acc = 0
        for i in range(30_000):
            acc += i * i
        middle = time.thread_time()
        self._out.fill(0.0)
        np.take(self._table, self._index, axis=0, out=self._gathered)
        np.add.at(self._out, self._index, self._gathered)
        end = time.thread_time()
        interp, memory = self.NOMINAL_S
        return ((middle - start) / interp + (end - middle) / memory) / 2

    def measure(self) -> list[float]:
        """Two readings of the machine's slowness now; 1.0 is typical for the
        defining machine."""
        return [self._once(), self._once()]

    @staticmethod
    def slowness(before: list[float], after: list[float]) -> float:
        """What to divide a CPU time over an interval by: the median of the
        readings on both sides, which resists one disturbed reading, to the
        power `EXPONENT`."""
        return statistics.median(before + after) ** Reference.EXPONENT


# --------------------------------------------------------------------------
# the closed loop


@dataclass
class Tally:
    """Ops attempted and failed; a failed op is a wrong output or a raise."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_op(execute, check, op, tally: Tally) -> float:
    """Run one op, check its output and return the CPU seconds of the run
    alone; the check is not timed."""
    tally.attempted += 1
    start = time.process_time()
    try:
        output = execute(op)
    except Exception as exc:  # the op failed; the loop goes on
        spent = time.process_time() - start
        reason = f"raised {type(exc).__name__}: {exc}"
    else:
        spent = time.process_time() - start
        try:
            reason = check(op, output)
        except Exception as exc:  # an output the check cannot read is wrong
            reason = f"check raised {type(exc).__name__}: {exc}"
    if reason is not None:
        tally.failed += 1
        tally.reasons.append(f"{op.label}: {reason}")
    return spent


def repeat_seed(seed: int, repeat: int) -> int:
    """The input seed of one set-up, so that no set-up feeds the program
    inputs an earlier one in the same process already did."""
    import numpy as np

    return int(np.random.SeedSequence([seed, repeat]).generate_state(1)[0])


def set_up(workload, seed: int, tally: Tally, reference: Reference, tracer=None):
    """Set-up as timed by `setup_s`: inputs, program-side preparation and one
    warm-up op, in CPU seconds divided by the machine's slowness around it.
    The checks' reference values and the warm-up's check are neither timed
    nor traced. Returns (state, seconds)."""
    gc.collect()
    before = reference.measure()
    start = time.process_time()
    state = workload.setup(seed, OUT_DIR)
    spent = time.process_time() - start
    with tracer.paused() if tracer is not None else contextlib.nullcontext():
        workload.references(state)
    spent += run_op(lambda op: workload.execute(state, op), lambda op, out: workload.check(state, op, out),
                    workload.warmup(state), tally)
    return state, spent / reference.slowness(before, reference.measure())


def timed_ops(workload, state, seconds: float) -> list:
    """The fixed op list of the timed phase: whole passes, as many as take
    about ``seconds`` CPU seconds at the reference cost of a pass, and at
    least enough for a tail percentile with ten ops beyond it."""
    passes = max(round(seconds / workload.pass_ref_cpu_s),
                 math.ceil((TAIL_MIN_BEYOND + 1) / len(state.ops)), 1)
    ops = list(state.ops)
    for _ in range(passes - 1):
        ops += workload.another_pass(state)
    return ops


def run_phase(workload, state, ops, tally: Tally, reference: Reference, on_op=None):
    """Run ``ops`` in order with a reference measurement before the first op,
    after the last and every `Reference.EVERY_S` op CPU seconds in between.
    Each op's CPU seconds are divided by the slowness measured just before
    and just after it. Returns (op seconds, reference readings)."""
    execute = lambda op: workload.execute(state, op)  # noqa: E731
    check = lambda op, out: workload.check(state, op, out)  # noqa: E731
    slowness = [reference.measure()]
    raw, segment, since = [], [], 0.0
    for i, op in enumerate(ops):
        if on_op is not None:
            on_op(i)
        raw.append(run_op(execute, check, op, tally))
        segment.append(len(slowness) - 1)
        since += raw[-1]
        if since >= Reference.EVERY_S or i == len(ops) - 1:
            slowness.append(reference.measure())
            since = 0.0
    times = [t / reference.slowness(slowness[j], slowness[j + 1]) for t, j in zip(raw, segment)]
    return times, [reading for pair in slowness for reading in pair]


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it: the value
    with exactly ten larger ones, and its percentile rank."""
    ordered = sorted(times)
    index = len(ordered) - TAIL_MIN_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(setup_times, op_times) -> dict:
    tail_s, _ = tail(op_times)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_cpu_s": {"value": len(op_times) / sum(op_times), "unit": "1/s"},
        "op_cpu_p50_ms": {"value": statistics.median(op_times) * 1e3, "unit": "ms"},
        "op_cpu_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def run_workload(workload, seed: int, seconds: float) -> dict:
    tally = Tally()
    reference = Reference()
    setup_times = []
    for repeat in range(workload.setup_repeats):
        state = None  # so that peak_rss_mb never holds two set-ups
        state, spent = set_up(workload, repeat_seed(seed, repeat), tally, reference)
        setup_times.append(spent)
    ops = timed_ops(workload, state, seconds)
    gc.collect()
    op_times, slowness = run_phase(workload, state, ops, tally, reference)
    metrics = end_to_end(setup_times, op_times)
    _, rank = tail(op_times)
    print(f"{workload.name} seed={seed}: {len(ops)} timed ops, {len(state.ops)} per pass; "
          f"set-up is the median of {len(setup_times)}; machine slowness {statistics.fmean(slowness):.3f} "
          f"(min {min(slowness):.3f}, max {max(slowness):.3f} over {len(slowness)} reference readings)")
    for key, entry in metrics.items():
        note = f"  (p{rank:.1f} of {len(op_times)} ops)" if key == "op_cpu_tail_ms" else ""
        print(f"  {key:16s} {entry['value']:12.4f} {entry['unit']}{note}")
    print(f"  {'fail_ratio':16s} {tally.fail_ratio:12.4f} ({tally.failed}/{tally.attempted})")
    return _result(tally, metrics)


def run_traced(workload, seed: int) -> dict:
    """Set-up and one untraced pass, then a second set-up and its pass
    traced, on inputs of their own; per-layer metrics cover the traced
    set-up and pass."""
    from tracing import COMPUTED, Tracer

    name = workload.name
    tally = Tally()
    reference = Reference()
    state, _ = set_up(workload, repeat_seed(seed, 0), tally, reference)
    untraced = sum(run_phase(workload, state, state.ops, tally, reference)[0])
    state = None
    tracer = Tracer()
    tracer.install()
    try:
        state, _ = set_up(workload, repeat_seed(seed, 1), tally, reference, tracer)
        traced = sum(run_phase(workload, state, state.ops, tally, reference,
                               on_op=lambda i: setattr(tracer, "op", i))[0])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
    path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    tracer.write_jsonl(path, {"workload": name, "seed": seed, "clock": "process CPU ns",
                              "machine": machine_info(), "metrics": metrics, "computed": list(COMPUTED),
                              "missing": sorted(tracer.missing | tracer.broken)})
    print(f"{name} seed={seed}: traced {len(state.ops)} ops; {len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    for key, entry in metrics.items():
        value = "missing" if entry["value"] is None else f"{entry['value']:.6g}"
        note = "  (computed)" if key in COMPUTED else ""
        print(f"  {key:28s} {value:>14s} {entry['unit']}{note}")
    return _result(tally, metrics)


def _result(tally: Tally, metrics: dict) -> dict:
    for reason in tally.reasons[:20]:
        print(f"  FAILED {reason}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(names, seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="a workload name, or all (the default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="CPU seconds of timed ops to aim for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    OUT_DIR.mkdir(exist_ok=True)
    print("machine: " + json.dumps(machine_info()))
    workload = WORKLOADS[args.workload]()
    if args.trace:
        result = run_traced(workload, args.seed)
    else:
        result = run_workload(workload, args.seed, args.seconds)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
