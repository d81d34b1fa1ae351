import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gc2gnn import LabeledGraph, activations, backend, cli
from gc2gnn.activations import (
    ACTIVATION_NAMES,
    CERTIFIED_NAMES,
    EXACT_NAMES,
    FLAT_NAMES,
    ActivationSpec,
    StepLikeParams,
    apply_activation,
    certificate,
    convergence_bound,
    flat_tanh_constants,
    get_activation,
    golden_section_min,
    plateau_grid,
    required_composition_depth,
    verify_step_like,
)

from conftest import simd_level, simd_targets

CERTIFIED = ("step-arctan", "step-tanh", "steplike-tanh-eta0", "steplike-sigmoid-eta0")


# -- basic maps ----------------------------------------------------------------


def sigma_star(x):
    return apply_activation("sigma-star", 1, x)


def test_sigma_star_branches():
    assert sigma_star(0.4) == 0.0
    assert sigma_star(0.5) == 0.5
    assert sigma_star(0.7) == 1.0
    assert np.array_equal(sigma_star(np.array([-3.0, 0.5, 12.0])), [0.0, 0.5, 1.0])


def test_step_arctan_values():
    act, params = get_activation("step-arctan"), certificate("step-arctan")
    assert apply_activation("step-arctan", 1, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert apply_activation("step-arctan", 1, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert apply_activation("step-arctan", 1, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert act.d1(0.0) == pytest.approx((4 / math.pi) / 2, abs=1e-12)
    assert abs(act.d1(0.0)) <= params.eta
    assert params == StepLikeParams(0.64, 0.10, 1.52)


def test_step_tanh_values():
    params = certificate("step-tanh")
    assert apply_activation("step-tanh", 1, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert apply_activation("step-tanh", 1, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert params == StepLikeParams(0.86, 0.16, 0.84)


def test_fixed_points_exact_for_all_certified():
    for name in CERTIFIED:
        assert abs(apply_activation(name, 1, 0.0)) <= 1e-12, name
        assert abs(apply_activation(name, 1, 1.0) - 1.0) <= 1e-12, name


# -- the flat-shoulder construction --------------------------------------------


def test_golden_section_finds_flat_constants():
    a, alpha = flat_tanh_constants()
    assert 0.45 < a < 0.46
    assert 3.14 < alpha < 3.15


def test_golden_section_rejects_monotone_objective():
    with pytest.raises(RuntimeError, match="no interior minimum"):
        golden_section_min(lambda v: v, 0.0, 1.0)


def test_flat_construction_certificates():
    act, params = get_activation("steplike-tanh-eta0"), certificate("steplike-tanh-eta0")
    assert params == StepLikeParams(0.0, 0.2, 2.2)
    assert act.d1(0.0) == pytest.approx(0.0, abs=1e-10)
    assert act.d1(1.0) == pytest.approx(0.0, abs=1e-10)


def test_sigmoid_realization_agrees_pointwise():
    xs = np.linspace(-5.0, 6.0, 10_000)
    tanh_out = apply_activation("steplike-tanh-eta0", 1, xs)
    sig_out = apply_activation("steplike-sigmoid-eta0", 1, xs)
    assert np.abs(tanh_out - sig_out).max() <= 1e-12
    assert apply_activation("steplike-sigmoid-eta0", 1, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert apply_activation("steplike-sigmoid-eta0", 1, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_tanh_via_sigmoid_bits_match_written_out_formula():
    # the kernel folds both exact x2 scalings of 2 sigmoid(2z) - 1 into one
    # multiply by -2 and a numerator of 2: five elementwise passes, not seven,
    # with the same bits out to exp's overflow and beyond; only a NaN's sign
    # bit, which no map reads, may differ
    z = np.concatenate([np.linspace(-800.0, 800.0, 2**20 + 1), multi_block_input()])
    with np.errstate(over="ignore", invalid="ignore"):
        want = 2.0 * (1.0 / (1.0 + np.exp(-(2.0 * z)))) - 1.0
        got = z.copy()
        activations._tanh_via_sigmoid(got)
    nan = np.isnan(z)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


# -- iteration -----------------------------------------------------------------


def test_iterate_zero_is_identity():
    assert apply_activation("step-arctan", 0, 0.37) == 0.37


def test_iterate_arctan_from_middle():
    value = apply_activation("step-arctan", 5, -0.5)
    assert abs(value - 0.0) <= 0.1 * ((1 + 0.64) / 2) ** 5


def test_iterate_flat_from_collar_edge():
    value = apply_activation("steplike-tanh-eta0", 3, 1.2)
    assert abs(value - 1.0) <= 0.2 / 128


@pytest.mark.parametrize("m", [0, 3])
def test_iterate_leaves_input_unchanged(m):
    x = np.linspace(-1.0, 2.0, 7)
    before = x.copy()
    out = apply_activation("steplike-tanh-eta0", m, x)
    assert np.array_equal(x, before)
    assert not np.shares_memory(out, x)


def test_apply_activation_arctan_composite():
    # one composition: 1/2 + (2/pi) arctan(z - 1/2)
    z = 1.7
    want = 0.5 + 0.5 * (4 / math.pi) * math.atan(z - 0.5)
    assert apply_activation("arctan-4pi", 1, z) == pytest.approx(want, abs=1e-15)
    assert apply_activation("arctan-4pi", 0, z) == pytest.approx(0.5 + 0.5 * (z - 0.5))


def test_activation_names_complete():
    assert set(ACTIVATION_NAMES) == {
        "relu", "crelu", "sigma-star", "sigmoid", "tanh", "step-arctan",
        "step-tanh", "steplike-tanh-eta0", "steplike-sigmoid-eta0", "arctan-4pi",
    }
    assert CERTIFIED_NAMES == CERTIFIED
    assert FLAT_NAMES == ("steplike-tanh-eta0", "steplike-sigmoid-eta0")
    assert EXACT_NAMES == ("sigma-star", "crelu")


def test_activation_spec_validation():
    with pytest.raises(ValueError):
        ActivationSpec("swish", 1)
    with pytest.raises(ValueError):
        ActivationSpec("relu", -1)


@pytest.mark.parametrize("m", [2.5, 2.0, True, "2"], ids=["2.5", "2.0", "True", "str"])
def test_activation_spec_depth_must_be_an_integer(m):
    # range(m) could not compose it, and a spec header could not carry it
    with pytest.raises(ValueError, match="composition depth must be an integer"):
        ActivationSpec("sigmoid", m)


def test_activation_spec_accepts_numpy_integer_depth():
    assert ActivationSpec("sigmoid", np.int64(2)).m == 2


def test_no_overflow_on_large_inputs():
    for name in ACTIVATION_NAMES:
        out = apply_activation(name, 2, np.array([-1e6, 1e6]))
        assert np.isfinite(out).all(), name


# -- certificates ---------------------------------------------------------------


@pytest.mark.parametrize("name", CERTIFIED)
def test_verify_step_like_passes(name):
    report = verify_step_like(name, certificate(name))
    assert report.passed, report.describe()


def test_verify_needs_closed_form_derivatives():
    with pytest.raises(ValueError, match="no closed-form derivatives"):
        verify_step_like("sigmoid", StepLikeParams(0.5, 0.1, 1.0))


def test_verify_rejects_tightened_eta():
    report = verify_step_like("step-arctan", StepLikeParams(0.5, 0.10, 1.52))
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert "derivative at the fixed points" in failing
    worst = next(c for c in report.checks if c.name == "derivative at the fixed points")
    assert worst.location in (0.0, 1.0)


def test_verify_rejects_tightened_curvature():
    report = verify_step_like("step-arctan", StepLikeParams(0.64, 0.10, 0.5))
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == {"one-step contraction outside (eps, 1-eps)"}


def test_verify_rejects_a_decreasing_map(monkeypatch, capsys):
    # d1 shifted down by 1e-3 dips below 0 on the wide grid, where its
    # smallest value is 1.25e-4, but stays below eta at the fixed points
    act = get_activation("step-arctan")
    shifted = dataclasses.replace(act, d1=lambda x: act.d1(x) - 1e-3)
    monkeypatch.setitem(activations._REGISTRY, "step-arctan", shifted)
    report = verify_step_like("step-arctan", certificate("step-arctan"))
    assert {c.name for c in report.checks if not c.passed} == {"non-decreasing on the wide grid (-d1)"}
    assert cli.main(["steplike-verify", "step-arctan"]) == 1
    assert "non-decreasing on the wide grid (-d1): FAIL" in capsys.readouterr().out


def test_steplike_params_validation():
    with pytest.raises(ValueError):
        StepLikeParams(1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        StepLikeParams(0.5, 0.6, 1.0)
    with pytest.raises(ValueError):
        StepLikeParams(0.5, 0.1, 0.0)
    # a collar wider than (1-eta)/curvature = 0.072 would not contract
    with pytest.raises(ValueError, match="exceeds"):
        StepLikeParams(0.64, 0.10, 5.0)


# -- convergence rates -----------------------------------------------------------


def test_convergence_bound_values():
    arctan = certificate("step-arctan")
    flat = certificate("steplike-tanh-eta0")
    assert convergence_bound(arctan, 0) == 0.1
    assert convergence_bound(flat, 3) == pytest.approx(0.2 / 128)
    assert convergence_bound(arctan, 14) == pytest.approx(0.1 * 0.82**14)
    with pytest.raises(ValueError, match="non-negative"):
        convergence_bound(StepLikeParams(0.5, 0.1, 1.0), -1)


def test_flat_convergence_bound_underflows_to_zero():
    # eps * 2 ** (1 - 2 ** m) is far below the least float here, where a
    # float power 2.0 ** m would overflow
    flat = certificate("steplike-tanh-eta0")
    for m in (1024, 10**4):
        assert convergence_bound(flat, m) == 0.0


def test_required_depth_scan_values():
    arctan = certificate("step-arctan")
    flat = certificate("steplike-tanh-eta0")
    assert required_composition_depth(arctan, 64) == 14
    assert required_composition_depth(flat, 64) == 3
    assert required_composition_depth(flat, 0) == 0


@pytest.mark.parametrize("name", CERTIFIED)
def test_required_depth_rejects_a_degree_past_float64(name):
    # 2 (max_degree + 2) overflows to inf, and inf * bound(m) never drops below 1
    params = certificate(name)
    assert required_composition_depth(params, 10**307) > 0
    with pytest.raises(ValueError, match="overflows float64"):
        required_composition_depth(params, 10**308)
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        required_composition_depth(params, 10**400)


def test_readme_activation_table_matches_registry():
    # a certificate edit fails here until README's "Activations" section follows it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Activations", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([a-z0-9-]+)` +\| ([0-9., ]+?)(?: \(|  *\|)", section, re.M))
    for name in CERTIFIED_NAMES:
        params = certificate(name)
        listed = tuple(float(tok) for tok in rows[name].split(","))
        assert listed == (params.eta, params.eps, params.curvature), name
    for name in ACTIVATION_NAMES:
        assert f"`{name}`" in section, name


def test_required_depth_monotone_and_self_consistent():
    params = certificate("step-arctan")
    previous = 0
    for delta in range(0, 201, 10):
        m = required_composition_depth(params, delta)
        assert m >= previous
        previous = m
        assert 2 * (delta + 2) * convergence_bound(params, m) < 1.0


def test_iterate_error_within_bound_for_all_certified():
    # the geometric/doubly-exponential rate over the collar, m up to 20
    for name in CERTIFIED:
        params = certificate(name)
        grid = plateau_grid(params.eps, 20_001)
        target = sigma_star(grid)
        values = grid
        for m in range(21):
            observed = float(np.abs(values - target).max())
            assert observed <= convergence_bound(params, m) + 1e-12, (name, m)
            values = apply_activation(name, 1, values)



# -- bits and memory across composition blocks ----------------------------------

# Elements in the pinned input: three whole 2**16-element blocks and a ragged
# tail, so every boundary between blocks is crossed.
_MULTI_BLOCK_SIZE = 3 * 2**16 + 7
# Fixed positions of the special values, some on either side of a boundary.
_SPECIALS = {
    0: np.nan, 1: np.inf, 2: -np.inf, 3: 0.0, 4: -0.0, 5: 0.5,
    2**16 - 1: np.nan, 2**16: -0.0, 2 * 2**16 - 1: 0.5, 2 * 2**16: np.inf,
    3 * 2**16: -np.inf, _MULTI_BLOCK_SIZE - 1: np.nan,
}


def multi_block_input() -> np.ndarray:
    rng = np.random.default_rng(2024)
    x = rng.uniform(-1.5, 2.5, _MULTI_BLOCK_SIZE)
    ints = rng.random(_MULTI_BLOCK_SIZE) < 0.3
    x[ints] = rng.integers(-4, 6, int(ints.sum()))
    for i, value in _SPECIALS.items():
        x[i] = value
    return x


# First 16 hex digits of sha256(apply_activation(name, m, x).tobytes()) on
# multi_block_input(), at m = 1 and m = 3. As for the forward digests, the
# smooth maps' bits hold for a given numpy build and CPU family.
MULTI_BLOCK_SHA256 = {
    "sigma-star": ("a78fc4804547a010", "a78fc4804547a010"),
    "crelu": ("06f9314e864e604b", "06f9314e864e604b"),
    "relu": ("6dd9c704bbf6e0e0", "6dd9c704bbf6e0e0"),
    "sigmoid": ("41f66bd8f4f0cd99", "8cfd56a4dd68ecc5"),
    "tanh": ("8d6920d2c8a44809", "3e5c67df538b80e1"),
    "step-arctan": ("fe9db3a02a1f1b70", "555aa6e630210286"),
    "step-tanh": ("9c69d60b69b4f263", "695166e0225db4f3"),
    "steplike-tanh-eta0": ("7964f29798f2d434", "3932e29f65736f8e"),
    "steplike-sigmoid-eta0": ("ebee0f50074a2b31", "939afa94bd19f20c"),
    "arctan-4pi": ("5e2f5fd8d3719d4c", "42a1db42eabc1f53"),
}


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
def test_multi_block_bits_pinned(name):
    x = multi_block_input()
    wide = np.zeros(2 * x.size)
    wide[::2] = x
    for m, digest in zip((1, 3), MULTI_BLOCK_SHA256[name]):
        for label, values in (("contiguous", x), ("strided", wide[::2])):
            with np.errstate(over="ignore", invalid="ignore"):
                out = apply_activation(name, m, values)
            level = f"numpy SIMD level {simd_level()}"
            assert hashlib.sha256(out.tobytes()).hexdigest()[:16] == digest, (m, label, level)


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
def test_kernel_overwrites_in_place(name):
    # fn overwrites a float64 array in place and returns None, on a 1-d
    # array, a strided view and a 0-d array alike; apply_activation at m = 1
    # writes the same bytes into its copy, except for arctan-4pi, whose
    # kernel is f = (4/pi) arctan and whose composite shifts around it
    def by_hand(x):
        if name != "arctan-4pi":
            return apply_activation(name, 1, x)
        return (4.0 / np.pi) * np.arctan(x)

    x = multi_block_input()[:4099]
    wide = np.zeros(2 * x.size)
    wide[::2] = x
    bufs = [x.copy(), wide[::2]] + [np.array(v) for v in x[:8]]
    fn = get_activation(name).fn
    with np.errstate(over="ignore", invalid="ignore"):
        for buf in bufs:
            before = buf.copy()
            assert fn(buf) is None
            assert buf.tobytes() == np.asarray(by_hand(before)).tobytes(), buf.ndim
        if name == "arctan-4pi":
            composite = 0.5 + 0.5 * by_hand(x - 0.5)
            assert apply_activation(name, 1, x).tobytes() == composite.tobytes()
    assert not wide[1::2].any()  # the view's kernel wrote only its own elements


def test_sigma_star_special_values():
    x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, -np.nan])
    out = sigma_star(x)
    assert out.tobytes() == np.array([0.5, 1.0, 0.0, 0.0, 0.0, 0.5, 0.5]).tobytes()
    assert not np.signbit(out).any()
    assert sigma_star(float("nan")) == 0.5
    assert math.copysign(1.0, sigma_star(-0.0)) == 1.0
    # in place, as the composition runs it
    buf = x.copy()
    assert get_activation("sigma-star").fn(buf) is None
    assert buf.tobytes() == out.tobytes()


# -- the forward's table of an integer-valued row -----------------------------------


def integer_blocks() -> np.ndarray:
    """Integers of -3..8 in three whole 2**16-element blocks and a 5-element
    tail, with a -0.0 in the fourth 2**12-element chunk of the second block."""
    x = np.random.default_rng(7).integers(-3, 9, 3 * 2**16 + 5).astype(np.float64)
    x[2**16 + 3 * 2**12 + 7] = -0.0
    return x


def test_table_gives_the_kernels_bits():
    # a row of integers taken from its activated table (backend's row
    # table) has the bits of apply_activation, which runs the kernel on
    # every element: under every map at m = 3 and 14, arctan-4pi's shifted
    # composite included.  The table puts the value of each of -3..8 at
    # another position, in an array of 12 entries, shorter than a SIMD
    # vector's remainder path at every level, so the bits rest on the
    # kernel giving a value the same bits at any position.  The row with
    # its -0.0 is refused whole, since lo + i would give it +0.0's bits
    x = integer_blocks()
    buffers = np.empty(backend._CHUNK, dtype=np.int64), np.empty(backend._CHUNK)
    assert backend._integer_table(x, buffers) is None
    x[x == 0] = 0.0
    inputs = backend._integer_table(x, buffers)
    assert inputs.tolist() == list(range(-3, 9))
    for name in ACTIVATION_NAMES:
        for m in (3, 14):
            table, got = inputs.copy(), x.copy()
            activations._in_place(name, m)(table)
            backend._take(table, [(got, -3.0, len(table))], got, buffers)
            kernel = apply_activation(name, m, x)
            assert got.tobytes() == kernel.tobytes(), (name, m, f"numpy SIMD level {simd_level()}")


# numpy's dispatch targets switched off, by NPY_DISABLE_CPU_FEATURES, for
# its AVX2 loops and for its baseline ones
LOWER_SIMD_LEVELS = {
    "X86_V3": ("AVX512_SPR", "AVX512_ICL", "X86_V4"),
    "baseline": ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3"),
}


def run_at_lower_simd_level(level, test):
    """Run this file's ``test`` again in a child process, the only one whose
    environment switches numpy's higher loops off.  The child switches off
    what this process does and the level's higher targets that this
    process runs, since numpy refuses to switch off others, so a level this
    process already runs at or below is skipped: the test itself covers it."""
    targets = simd_targets()
    higher = [t for t in LOWER_SIMD_LEVELS[level] if t in targets]
    if not higher:
        pytest.skip(f"numpy runs at {simd_level()} here, at or below {level}: the test above covers it")
    if level != "baseline" and level not in targets:
        pytest.skip(f"this CPU does not run numpy's {level} loops")
    parent = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
    off = " ".join(dict.fromkeys(parent + higher))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", f"{__file__}::{test}"],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": off},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"numpy SIMD level: {level}\n" in result.stdout
    assert "1 passed" in result.stdout


@pytest.mark.parametrize("level", LOWER_SIMD_LEVELS)
def test_table_gives_the_kernels_bits_at_lower_simd_levels(level):
    # the table's bits rest on a property of numpy's loops at each SIMD
    # level: test_table_gives_the_kernels_bits runs again under the level's loops
    run_at_lower_simd_level(level, "test_table_gives_the_kernels_bits")


@pytest.mark.parametrize("m", [1, 3, 14])
def test_no_probe_runs_a_map(m, q2_spec, monkeypatch):
    # whether a run codes rows follows the depth it composes and n:
    # resolving a map, activating a multi-block integer array with it, and
    # a forward on 2**12 vertices, which codes rows at m >= 3, run no map
    # through apply_activation
    calls = []
    apply = activations.apply_activation
    monkeypatch.setattr(activations, "apply_activation", lambda *args: calls.append(args) or apply(*args))
    x = integer_blocks()[:3 * 2**16]
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, backend._CHUNK, size=(3 * backend._CHUNK, 2))
    graph = LabeledGraph(backend._CHUNK, 2, rng.integers(1, 3, backend._CHUNK), pairs[pairs[:, 0] != pairs[:, 1]])
    for name in ACTIVATION_NAMES:
        activations._in_place(name, m)(x.copy())
        backend.run_forward(q2_spec, graph, name, m)
    assert calls == []


# -- idempotent maps -------------------------------------------------------------


def settling_sample() -> np.ndarray:
    """Signed zeros, then +-5e-324 (the least subnormal), +-2.2e-308 (next to
    the least normal), +-1e308 and +-inf, a NaN with a payload, 0.5 and its
    two neighbours, the integers -3..3 and 10^4 draws of N(0.5, 3)."""
    tiny = [5e-324, 2.2e-308, 1e308, np.inf]
    payload = np.array([0x7FF8_0000_0000_0123], dtype=np.uint64).view(np.float64)
    half = [np.nextafter(0.5, -1.0), 0.5, np.nextafter(0.5, 2.0)]
    draws = np.random.default_rng(48).normal(0.5, 3.0, 10**4)
    return np.concatenate([[0.0, -0.0], tiny, np.negative(tiny), payload, half, np.arange(-3.0, 4.0), draws])


def test_idempotent_is_the_maps_own_fact():
    # a map declares idempotent exactly when, on the sample, its kernel run
    # twice gives the bytes of one run, and it sends +0.0 and 1.0 to
    # themselves bit for bit; the NaN payload included, only the three
    # exact maps do
    x = settling_sample()
    assert np.isnan(x).sum() == 1 and np.signbit(x[:2]).tolist() == [False, True]

    def kernel(fn, values):
        out = values.copy()
        fn(out)
        return out

    settled = []
    with np.errstate(all="ignore"):
        for name in ACTIVATION_NAMES:
            fn = get_activation(name).fn
            once = kernel(fn, x)
            fixed = kernel(fn, np.array([0.0, 1.0])).tobytes() == np.array([0.0, 1.0]).tobytes()
            if kernel(fn, once).tobytes() == once.tobytes() and fixed:
                settled.append(name)
    assert settled == [name for name in ACTIVATION_NAMES if get_activation(name).idempotent]
    assert settled == ["sigma-star", "crelu", "relu"], f"numpy SIMD level {simd_level()}"


@pytest.mark.parametrize("level", LOWER_SIMD_LEVELS)
def test_idempotent_is_the_maps_own_fact_at_lower_simd_levels(level):
    run_at_lower_simd_level(level, "test_idempotent_is_the_maps_own_fact")


@pytest.mark.parametrize("name", ["sigma-star", "crelu", "relu"])
def test_idempotent_maps_compose_once(name, monkeypatch):
    # sigma^m = sigma: at m = 2..5 apply_activation gives the m = 1 bytes
    # with one kernel call per block, on the sample (one block) and on a
    # multi-block array (whose blocks a map that keeps integers integer
    # never looks up)
    values = (settling_sample(), multi_block_input())
    act = get_activation(name)
    seen = []

    def recorded(x):
        seen.append(x.size)
        act.fn(x)

    monkeypatch.setitem(activations._REGISTRY, name, dataclasses.replace(act, fn=recorded))
    with np.errstate(invalid="ignore"):
        for x in values:
            blocks = [min(activations._BLOCK, x.size - start) for start in range(0, x.size, activations._BLOCK)]
            seen.clear()
            once = apply_activation(name, 1, x).tobytes()
            assert seen == blocks
            for m in range(2, 6):
                seen.clear()
                assert apply_activation(name, m, x).tobytes() == once, m
                assert seen == blocks, m


def test_composition_memory_stays_per_block():
    # the output plus one block's temporaries, not full-size ones
    x = np.linspace(-2.0, 3.0, 10**6)
    tracemalloc.start()
    try:
        apply_activation("steplike-tanh-eta0", 3, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * x.nbytes, (peak, x.nbytes)


@pytest.mark.parametrize("name", ["step-arctan", "sigma-star", "arctan-4pi"])
def test_composition_keeps_memory_order(name):
    # F-ordered and axis-permuted inputs are composed in their own layout,
    # with the bits of the C-ordered input and the input left unchanged
    x = multi_block_input()[: 6 * 2**15].reshape(4, 3, 2**14)
    with np.errstate(invalid="ignore"):
        want = apply_activation(name, 3, x)
        cases = [(np.asfortranarray(x), want)]
        cases += [(x.transpose(axes), want.transpose(axes)) for axes in ((1, 0, 2), (2, 1, 0))]
        for values, expected in cases:
            before = values.copy()
            out = apply_activation(name, 3, values)
            assert np.array_equal(values, before, equal_nan=True)
            assert np.ascontiguousarray(out).tobytes() == np.ascontiguousarray(expected).tobytes()
