import math

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
    convergence_bound,
    flat_tanh_constants,
    get_activation,
    get_step_params,
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
    act, params = get_activation("step-arctan"), get_step_params("step-arctan")
    assert act.fn(0.0) == pytest.approx(0.0, abs=1e-12)
    assert act.fn(1.0) == pytest.approx(1.0, abs=1e-12)
    assert act.fn(0.5) == pytest.approx(0.5, abs=1e-12)
    assert act.d1(0.0) == pytest.approx((4 / math.pi) / 2, abs=1e-12)
    assert abs(act.d1(0.0)) <= params.eta
    assert params == StepLikeParams(0.64, 0.10, 0, 1.52)


def test_step_tanh_values():
    act, params = get_activation("step-tanh"), get_step_params("step-tanh")
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
    act, params = get_activation("steplike-tanh-eta0"), get_step_params("steplike-tanh-eta0")
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
    report = verify_step_like(get_activation(name), get_step_params(name), tol=1e-9)
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
    arctan = get_step_params("step-arctan")
    flat = get_step_params("steplike-tanh-eta0")
    assert convergence_bound(arctan, 0) == 0.1
    assert convergence_bound(flat, 3) == pytest.approx(0.2 / 128)
    assert convergence_bound(arctan, 14) == pytest.approx(0.1 * 0.82**14)
    with pytest.raises(ValueError, match="burn-in"):
        convergence_bound(StepLikeParams(0.5, 0.1, 3, 1.0), 2)


def test_required_depth_scan_values():
    arctan = get_step_params("step-arctan")
    flat = get_step_params("steplike-tanh-eta0")
    assert required_composition_depth(arctan, 64) == 14
    assert required_composition_depth(flat, 64) == 3
    assert required_composition_depth(flat, 0) == 0


def test_required_depth_monotone_and_self_consistent():
    params = get_step_params("step-arctan")
    previous = 0
    for delta in range(0, 201, 10):
        m = required_composition_depth(params, delta)
        assert m >= previous
        previous = m
        assert 2 * (delta + 2) * convergence_bound(params, m) < 1.0


def test_size_closed_forms_bracket_the_scan():
    params = get_step_params("step-arctan")
    forms = size_closed_forms(params, 64)
    # the sign-fixed closed form is an upper bound for the scanned depth
    assert required_composition_depth(params, 64) <= math.ceil(forms["log2(1+eta)"])


def test_iterate_error_within_bound_for_all_certified():
    # the geometric/doubly-exponential rate over the collar, m up to burn-in + 20
    for name in CERTIFIED:
        act, params = get_activation(name), get_step_params(name)
        grid = plateau_grid(params.eps, 20_001)
        target = sigma_star(grid)
        values = iterate(act, params.burn_in, grid)
        for m in range(params.burn_in, params.burn_in + 21):
            observed = float(np.abs(values - target).max())
            assert observed <= convergence_bound(params, m) + 1e-12, (name, m)
            values = act.fn(values)

