import hashlib
import math
import tracemalloc

import numpy as np
import pytest

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
    iterate,
    plateau_grid,
    required_composition_depth,
    sigma_star,
    size_closed_forms,
    verify_step_like,
)

CERTIFIED = ("step-arctan", "step-tanh", "steplike-tanh-eta0", "steplike-sigmoid-eta0")


# -- basic maps ----------------------------------------------------------------


def test_sigma_star_branches():
    assert sigma_star(0.4) == 0.0
    assert sigma_star(0.5) == 0.5
    assert sigma_star(0.7) == 1.0
    assert np.array_equal(sigma_star(np.array([-3.0, 0.5, 12.0])), [0.0, 0.5, 1.0])


def test_step_arctan_values():
    act, params = get_activation("step-arctan"), certificate("step-arctan")
    assert act.fn(0.0) == pytest.approx(0.0, abs=1e-12)
    assert act.fn(1.0) == pytest.approx(1.0, abs=1e-12)
    assert act.fn(0.5) == pytest.approx(0.5, abs=1e-12)
    assert act.d1(0.0) == pytest.approx((4 / math.pi) / 2, abs=1e-12)
    assert abs(act.d1(0.0)) <= params.eta
    assert params == StepLikeParams(0.64, 0.10, 0, 1.52)


def test_step_tanh_values():
    act, params = get_activation("step-tanh"), certificate("step-tanh")
    assert act.fn(0.0) == pytest.approx(0.0, abs=1e-12)
    assert act.fn(1.0) == pytest.approx(1.0, abs=1e-12)
    assert params == StepLikeParams(0.86, 0.16, 0, 0.84)


def test_fixed_points_exact_for_all_certified():
    for name in CERTIFIED:
        fn = get_activation(name).fn
        assert abs(fn(0.0)) <= 1e-12, name
        assert abs(fn(1.0) - 1.0) <= 1e-12, name


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
    assert params == StepLikeParams(0.0, 0.2, 0, 2.2)
    assert act.d1(0.0) == pytest.approx(0.0, abs=1e-10)
    assert act.d1(1.0) == pytest.approx(0.0, abs=1e-10)


def test_sigmoid_realization_agrees_pointwise():
    tanh_fn = get_activation("steplike-tanh-eta0").fn
    sig_fn = get_activation("steplike-sigmoid-eta0").fn
    xs = np.linspace(-5.0, 6.0, 10_000)
    assert np.abs(tanh_fn(xs) - sig_fn(xs)).max() <= 1e-12
    assert sig_fn(0.0) == pytest.approx(0.0, abs=1e-12)
    assert sig_fn(1.0) == pytest.approx(1.0, abs=1e-12)


# -- iteration -----------------------------------------------------------------


def test_iterate_zero_is_identity():
    act = get_activation("step-arctan")
    assert iterate(act, 0, 0.37) == 0.37


def test_iterate_arctan_from_middle():
    act = get_activation("step-arctan")
    value = iterate(act, 5, -0.5)
    assert abs(value - 0.0) <= 0.1 * ((1 + 0.64) / 2) ** 5


def test_iterate_flat_from_collar_edge():
    act = get_activation("steplike-tanh-eta0")
    value = iterate(act, 3, 1.2)
    assert abs(value - 1.0) <= 0.2 / 128


@pytest.mark.parametrize("m", [0, 3])
def test_iterate_leaves_input_unchanged(m):
    x = np.linspace(-1.0, 2.0, 7)
    before = x.copy()
    out = iterate(get_activation("steplike-tanh-eta0"), m, x)
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


def test_no_overflow_on_large_inputs():
    for name in ACTIVATION_NAMES:
        out = apply_activation(name, 2, np.array([-1e6, 1e6]))
        assert np.isfinite(out).all(), name


# -- certificates ---------------------------------------------------------------


@pytest.mark.parametrize("name", CERTIFIED)
def test_verify_step_like_passes(name):
    report = verify_step_like(get_activation(name), certificate(name))
    assert report.passed, report.describe()


def test_verify_needs_closed_form_derivatives():
    with pytest.raises(ValueError, match="no closed-form derivatives"):
        verify_step_like(get_activation("sigmoid"), StepLikeParams(0.5, 0.1, 0, 1.0))


def test_verify_rejects_tightened_eta():
    report = verify_step_like(get_activation("step-arctan"), StepLikeParams(0.5, 0.10, 0, 1.52))
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert "derivative at the fixed points" in failing
    worst = next(c for c in report.checks if c.name == "derivative at the fixed points")
    assert worst.location in (0.0, 1.0)


def test_verify_rejects_tightened_curvature():
    report = verify_step_like(get_activation("step-arctan"), StepLikeParams(0.64, 0.10, 0, 0.5))
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == {"one-step contraction on the burn-in image"}


def test_steplike_params_validation():
    with pytest.raises(ValueError):
        StepLikeParams(1.0, 0.1, 0, 1.0)
    with pytest.raises(ValueError):
        StepLikeParams(0.5, 0.6, 0, 1.0)
    with pytest.raises(ValueError):
        StepLikeParams(0.5, 0.1, -1, 1.0)
    with pytest.raises(ValueError):
        StepLikeParams(0.5, 0.1, 0, 0.0)


# -- convergence rates -----------------------------------------------------------


def test_convergence_bound_values():
    arctan = certificate("step-arctan")
    flat = certificate("steplike-tanh-eta0")
    assert convergence_bound(arctan, 0) == 0.1
    assert convergence_bound(flat, 3) == pytest.approx(0.2 / 128)
    assert convergence_bound(arctan, 14) == pytest.approx(0.1 * 0.82**14)
    with pytest.raises(ValueError, match="burn-in"):
        convergence_bound(StepLikeParams(0.5, 0.1, 3, 1.0), 2)


def test_required_depth_scan_values():
    arctan = certificate("step-arctan")
    flat = certificate("steplike-tanh-eta0")
    assert required_composition_depth(arctan, 64) == 14
    assert required_composition_depth(flat, 64) == 3
    assert required_composition_depth(flat, 0) == 0


def test_required_depth_monotone_and_self_consistent():
    params = certificate("step-arctan")
    previous = 0
    for delta in range(0, 201, 10):
        m = required_composition_depth(params, delta)
        assert m >= previous
        previous = m
        assert 2 * (delta + 2) * convergence_bound(params, m) < 1.0


def test_size_closed_forms_bracket_the_scan():
    params = certificate("step-arctan")
    forms = size_closed_forms(params, 64)
    # the sign-fixed closed form is an upper bound for the scanned depth
    assert required_composition_depth(params, 64) <= math.ceil(forms["log2(1+eta)"])


def test_iterate_error_within_bound_for_all_certified():
    # the geometric/doubly-exponential rate over the collar, m up to burn-in + 20
    for name in CERTIFIED:
        act, params = get_activation(name), certificate(name)
        grid = plateau_grid(params.eps, 20_001)
        target = sigma_star(grid)
        values = iterate(act, params.burn_in, grid)
        for m in range(params.burn_in, params.burn_in + 21):
            observed = float(np.abs(values - target).max())
            assert observed <= convergence_bound(params, m) + 1e-12, (name, m)
            values = act.fn(values)



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
            assert hashlib.sha256(out.tobytes()).hexdigest()[:16] == digest, (m, label)


def test_sigma_star_special_values():
    x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, -np.nan])
    out = sigma_star(x)
    assert out.tobytes() == np.array([0.5, 1.0, 0.0, 0.0, 0.0, 0.5, 0.5]).tobytes()
    assert not np.signbit(out).any()
    assert sigma_star(float("nan")) == 0.5
    assert math.copysign(1.0, sigma_star(-0.0)) == 1.0
    # in place, as the composition runs it
    buf = x.copy()
    sigma_star(buf, out=buf)
    assert buf.tobytes() == out.tobytes()


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
