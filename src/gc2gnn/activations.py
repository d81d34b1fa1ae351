"""Scalar activation library: the hard threshold, classical maps, step-like
constructions with their (eta, eps, burn-in, curvature) certificates, iterated
composition, certificate verification, and convergence-rate tooling.

A step-like activation fixes 0 and 1, has derivative at most ``eta`` there,
and after ``burn_in`` applications maps every point of the plateau collar
(within ``eps`` of 0 or 1) to within ``min(eps, (1-eta)/curvature)`` of the
plateau value.  Iterating it then converges to the hard threshold at a
geometric rate ``(1+eta)/2`` per application, or doubly exponentially when
``eta = 0``.  All certificate checks below quantify over the collar; the
conditions are unsatisfiable on an unbounded domain (the identity burn-in
case would have to move far-away points onto the plateaus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "Activation",
    "StepLikeParams",
    "ActivationSpec",
    "ACTIVATION_NAMES",
    "CERTIFIED_NAMES",
    "FLAT_NAMES",
    "EXACT_NAMES",
    "get_activation",
    "certificate",
    "apply_activation",
    "sigma_star",
    "flat_tanh_constants",
    "golden_section_min",
    "iterate",
    "plateau_grid",
    "convergence_bound",
    "required_composition_depth",
    "size_closed_forms",
    "CheckResult",
    "StepLikeReport",
    "verify_step_like",
]


@dataclass(frozen=True)
class StepLikeParams:
    """Certificate of a step-like activation."""

    eta: float        # bound on |sigma'| at the fixed points 0 and 1
    eps: float        # collar half-width around the plateaus
    burn_in: int      # applications before the contraction regime starts
    curvature: float  # bound on |sigma''| over the reachable region

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must lie in [0, 1), got {self.eta}")
        if not 0.0 < self.eps < 0.5:
            raise ValueError(f"eps must lie in (0, 1/2), got {self.eps}")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.curvature <= 0.0:
            raise ValueError("curvature bound must be positive")


@dataclass(frozen=True)
class Activation:
    """Named scalar map with optional closed-form derivatives and its
    step-like certificate, if it carries one.

    ``fn``/``d1``/``d2`` accept scalars or numpy arrays.  The registered
    maps' ``fn`` also takes ``out=``, an array (possibly the input itself)
    that receives the result and every intermediate step.
    """

    name: str
    fn: Callable
    d1: Callable | None = None
    d2: Callable | None = None
    certificate: StepLikeParams | None = None


@dataclass(frozen=True)
class ActivationSpec:
    """Activation selection for a compiled network: name plus composition
    depth ``m`` (``m = 0`` means the identity, by explicit request)."""

    name: str
    m: int = 1

    def __post_init__(self):
        if self.name not in ACTIVATION_NAMES:
            raise ValueError(f"unknown activation {self.name!r}")
        if self.m < 0:
            raise ValueError("composition depth must be non-negative")


# --------------------------------------------------------------------------
# base maps


def _maybe_scalar(out, template):
    if np.isscalar(template) or (isinstance(template, np.ndarray) and template.ndim == 0):
        return float(out)
    return out


def _buffer(x, out):
    """``x`` as float64 and the buffer a base map writes into: ``out`` when
    given (it may be ``x`` itself), else one new array shaped like ``x``."""
    arr = np.asarray(x, dtype=np.float64)
    return arr, (np.empty_like(arr) if out is None else out)


def sigma_star(x, out=None):
    """Hard threshold at 1/2: 0 below, 1 above, 1/2 at the tie and at NaN.

    Computed as ``((x > 1/2) - (x < 1/2)) / 2 + 1/2`` with no masks: both
    comparisons are false at NaN, so it maps to 1/2, and the zero it returns
    is always +0.0 (``-0.5 + 0.5``).
    """
    arr, buf = _buffer(x, out)
    np.subtract(arr > 0.5, arr < 0.5, out=buf, dtype=np.float64)
    np.multiply(buf, 0.5, out=buf)
    return _maybe_scalar(np.add(buf, 0.5, out=buf), x)


def _relu(x, out=None):
    arr, buf = _buffer(x, out)
    return _maybe_scalar(np.maximum(arr, 0.0, out=buf), x)


def _crelu(x, out=None):
    arr, buf = _buffer(x, out)
    np.maximum(arr, 0.0, out=buf)
    return _maybe_scalar(np.minimum(buf, 1.0, out=buf), x)


def _sigmoid(x, out=None):
    arr, buf = _buffer(x, out)
    np.negative(arr, out=buf)
    with np.errstate(over="ignore"):
        np.exp(buf, out=buf)
    np.add(1.0, buf, out=buf)
    return _maybe_scalar(np.divide(1.0, buf, out=buf), x)


def _tanh(x, out=None):
    arr, buf = _buffer(x, out)
    return _maybe_scalar(np.tanh(arr, out=buf), x)


def _arctan_4pi(x, out=None):
    arr, buf = _buffer(x, out)
    np.arctan(arr, out=buf)
    return _maybe_scalar(np.multiply(4.0 / np.pi, buf, out=buf), x)


def _step_arctan(x, out=None):
    arr, buf = _buffer(x, out)
    np.multiply(2.0, arr, out=buf)
    np.subtract(buf, 1.0, out=buf)
    np.arctan(buf, out=buf)
    np.multiply(2.0 / np.pi, buf, out=buf)
    return _maybe_scalar(np.add(0.5, buf, out=buf), x)


def _step_arctan_d1(x):
    u = 2.0 * np.asarray(x, dtype=np.float64) - 1.0
    return _maybe_scalar((4.0 / np.pi) / (1.0 + u * u), x)


def _step_arctan_d2(x):
    u = 2.0 * np.asarray(x, dtype=np.float64) - 1.0
    return _maybe_scalar(-(16.0 / np.pi) * u / (1.0 + u * u) ** 2, x)


_TANH_HALF = math.tanh(0.5)


def _tanh_step(x, out, tanh, t_half):
    """``1/2 + tanh(x - 1/2) / (2 t_half)`` for a realization
    ``tanh(z, out=...)`` of tanh and its value ``t_half`` at 1/2."""
    arr, buf = _buffer(x, out)
    np.subtract(arr, 0.5, out=buf)
    tanh(buf, out=buf)
    np.divide(buf, 2.0 * t_half, out=buf)
    return np.add(0.5, buf, out=buf)


def _step_tanh(x, out=None):
    return _maybe_scalar(_tanh_step(x, out, np.tanh, _TANH_HALF), x)


def _step_tanh_d1(x):
    y = np.asarray(x, dtype=np.float64) - 0.5
    return _maybe_scalar(1.0 / (np.cosh(y) ** 2 * 2.0 * _TANH_HALF), x)


def _step_tanh_d2(x):
    y = np.asarray(x, dtype=np.float64) - 0.5
    return _maybe_scalar(-np.tanh(y) / (np.cosh(y) ** 2 * _TANH_HALF), x)


# --------------------------------------------------------------------------
# flat-shoulder construction (zero derivative at both fixed points)


def golden_section_min(fn, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [lo, hi] to within ``tol``.

    Raises if the minimum sits at an endpoint (no interior bracket), which
    would signal a transcription bug in the objective.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = float(lo), float(hi)
    h = b - a
    c = a + invphi2 * h
    d = a + invphi * h
    yc, yd = fn(c), fn(d)
    while h > tol:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + invphi2 * h
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + invphi * h
            yd = fn(d)
    xmin = (a + b) / 2.0
    fmin = fn(xmin)
    if not (fn(lo) > fmin < fn(hi)):
        raise RuntimeError(
            f"no interior minimum bracketed on [{lo}, {hi}]; objective looks wrong"
        )
    return xmin, fmin


def _sharpness_objective(v):
    s1 = 1.0 / np.cosh(v) ** 2
    s2 = 1.0 / np.cosh(2.0 * v) ** 2
    s3 = 1.0 / np.cosh(3.0 * v) ** 2
    return (s1 + 3.0 * s3) / s2


@lru_cache(maxsize=1)
def flat_tanh_constants() -> tuple[float, float]:
    """Inflection parameter ``a`` and objective minimum ``alpha`` of the
    flat-shoulder tanh construction, by golden-section search on [0.3, 0.6]."""
    return golden_section_min(_sharpness_objective, 0.3, 0.6, tol=1e-10)


@lru_cache(maxsize=2)
def _flat_coeffs(tanh) -> tuple[float, float, float]:
    """``(a, alpha/2, den)`` with tanh evaluated by ``tanh``, a
    module-level realization (the cache is keyed on it).

    alpha/2 is the coefficient that zeroes the inner map's derivative at the
    fixed points; den normalizes the inner map to fix 0 and 1.  The tanh
    variant's constants are ``math.tanh``'s, whose values can differ from
    ``np.tanh``'s in the last bit.
    """
    a, alpha = flat_tanh_constants()
    half_alpha = alpha / 2.0
    den = 2.0 * (float(tanh(a)) - half_alpha * float(tanh(2.0 * a)) + float(tanh(3.0 * a)))
    return a, half_alpha, den


def _flat_shoulder(x, out, tanh, coeffs):
    """``(tanh(a u) - (alpha/2) tanh(2 a u) + tanh(3 a u)) / den + 1/2`` with
    ``u = 2x - 1``, for a realization ``tanh(z, out=...)`` of tanh and its
    ``_flat_coeffs``."""
    a, half_alpha, den = coeffs
    arr, buf = _buffer(x, out)
    u = np.multiply(2.0, arr, out=buf)
    np.subtract(u, 1.0, out=u)
    num, term = np.empty_like(u), np.empty_like(u)
    tanh(np.multiply(a, u, out=num), out=num)
    tanh(np.multiply(2.0 * a, u, out=term), out=term)
    np.subtract(num, np.multiply(half_alpha, term, out=term), out=num)
    # the last term reads u for the last time, so it may overwrite it
    tanh(np.multiply(3.0 * a, u, out=buf), out=buf)
    np.add(num, buf, out=buf)
    np.divide(buf, den, out=buf)
    return np.add(buf, 0.5, out=buf)


def _flat_inner(x, out=None):
    return _flat_shoulder(x, out, np.tanh, _flat_coeffs(math.tanh))


def _flat_inner_d1(x):
    a, half_alpha, den = _flat_coeffs(math.tanh)
    u = 2.0 * np.asarray(x, dtype=np.float64) - 1.0
    s1 = 1.0 / np.cosh(a * u) ** 2
    s2 = 1.0 / np.cosh(2.0 * a * u) ** 2
    s3 = 1.0 / np.cosh(3.0 * a * u) ** 2
    return 2.0 * a * (s1 - 2.0 * half_alpha * s2 + 3.0 * s3) / den


def _flat_inner_d2(x):
    a, half_alpha, den = _flat_coeffs(math.tanh)
    u = 2.0 * np.asarray(x, dtype=np.float64) - 1.0

    def st(w):
        return np.tanh(w) / np.cosh(w) ** 2

    return -8.0 * a * a * (st(a * u) - 4.0 * half_alpha * st(2.0 * a * u) + 9.0 * st(3.0 * a * u)) / den


def _flat_tanh(x, out=None):
    buf = _flat_inner(x, out)
    return _maybe_scalar(_step_tanh(buf, out=buf), x)


def _flat_tanh_d1(x):
    t = _flat_inner(np.asarray(x, dtype=np.float64))
    return _maybe_scalar(_step_tanh_d1(t) * _flat_inner_d1(x), x)


def _flat_tanh_d2(x):
    t = _flat_inner(np.asarray(x, dtype=np.float64))
    d1 = _flat_inner_d1(x)
    return _maybe_scalar(_step_tanh_d2(t) * d1 * d1 + _step_tanh_d1(t) * _flat_inner_d2(x), x)


def _tanh_via_sigmoid(z, out=None):
    arr, buf = _buffer(z, out)
    np.multiply(-2.0, arr, out=buf)
    with np.errstate(over="ignore"):
        np.exp(buf, out=buf)
    np.add(1.0, buf, out=buf)
    np.divide(2.0, buf, out=buf)
    return np.subtract(buf, 1.0, out=buf)


_SIGMOID_TANH_HALF = float(_tanh_via_sigmoid(0.5))


def _flat_sigmoid(x, out=None):
    """Pointwise the same map as the flat tanh variant, realized with sigmoid
    evaluations only (tanh z == 2*sigmoid(2z) - 1)."""
    buf = _flat_shoulder(x, out, _tanh_via_sigmoid, _flat_coeffs(_tanh_via_sigmoid))
    return _maybe_scalar(_tanh_step(buf, buf, _tanh_via_sigmoid, _SIGMOID_TANH_HALF), x)


# --------------------------------------------------------------------------
# registry

_STEP_ARCTAN_CERT = StepLikeParams(eta=0.64, eps=0.10, burn_in=0, curvature=1.52)
_STEP_TANH_CERT = StepLikeParams(eta=0.86, eps=0.16, burn_in=0, curvature=0.84)
_FLAT_CERT = StepLikeParams(eta=0.0, eps=0.20, burn_in=0, curvature=2.2)

# name -> map; the order is the order of ACTIVATION_NAMES
_REGISTRY = {
    act.name: act
    for act in (
        Activation("sigma-star", sigma_star),
        Activation("crelu", _crelu),
        Activation("relu", _relu),
        Activation("sigmoid", _sigmoid),
        Activation("tanh", _tanh),
        Activation("step-arctan", _step_arctan, _step_arctan_d1, _step_arctan_d2, _STEP_ARCTAN_CERT),
        Activation("step-tanh", _step_tanh, _step_tanh_d1, _step_tanh_d2, _STEP_TANH_CERT),
        Activation("steplike-tanh-eta0", _flat_tanh, _flat_tanh_d1, _flat_tanh_d2, _FLAT_CERT),
        # pointwise identical to the tanh realization, so it shares derivatives
        Activation("steplike-sigmoid-eta0", _flat_sigmoid, _flat_tanh_d1, _flat_tanh_d2, _FLAT_CERT),
        Activation("arctan-4pi", _arctan_4pi),
    )
}

ACTIVATION_NAMES = tuple(_REGISTRY)
# The maps that carry a step-like certificate, and among them the
# flat-shoulder (eta = 0) ones, the only ones whose composition depth grows
# like log log of the degree.
CERTIFIED_NAMES = tuple(name for name, act in _REGISTRY.items() if act.certificate is not None)
FLAT_NAMES = tuple(name for name, act in _REGISTRY.items() if act.certificate is _FLAT_CERT)
# The maps under which a compiled network agrees exactly with the oracle.
EXACT_NAMES = ("sigma-star", "crelu")


def get_activation(name: str) -> Activation:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


def certificate(name: str) -> StepLikeParams:
    """The step-like certificate of ``name``; ValueError if ``name`` is not
    a registered map or carries no certificate."""
    params = get_activation(name).certificate
    if params is None:
        raise ValueError(f"{name!r} carries no step-like certificate")
    return params


# --------------------------------------------------------------------------
# iteration and application


# Elements of the flat buffer that _compose takes through all m steps before
# it moves on: 512 KB of float64, which stays in L2 across the steps.
_BLOCK = 1 << 16


def _compose(fn, m: int, out: np.ndarray) -> None:
    """Apply ``fn`` ``m`` times in place to ``out``, a dense array such as
    ``np.array`` makes, one ``_BLOCK``-element block at a time in memory order.

    Each step is elementwise, so blocking changes no bits: the block size is
    a power of two, so every block but the last starts at the same alignment
    as ``out`` and is a whole number of SIMD vectors, and numpy's loops take
    the same vector and remainder paths for each element as on the whole
    array.  A map's temporaries are one block in size.
    """
    # a view in memory order for C-, F- and axis-permuted dense layouts,
    # where reshape(-1) would copy all but the first
    flat = out.ravel(order="K")
    for start in range(0, flat.size, _BLOCK):
        block = flat[start:start + _BLOCK]
        for _ in range(m):
            fn(block, out=block)


def iterate(activation: Activation, m: int, x):
    """Apply ``activation`` ``m`` times (``m = 0`` is the identity).

    All steps run in place in one float64 copy of ``x``; ``x`` is left
    unchanged.
    """
    if m < 0:
        raise ValueError("iteration count must be non-negative")
    out = np.array(x, dtype=np.float64, ndmin=1)
    _compose(activation.fn, m, out)
    return _maybe_scalar(out.reshape(np.shape(x)), x)


def apply_activation(name: str, m: int, values):
    """Elementwise activation used by the forward pass.

    Every named map is iterated ``m`` times, except ``arctan-4pi`` which is
    the sign-amplifying composite ``z -> 1/2 + f^m(z - 1/2)/2`` with
    ``f = (4/pi) arctan``.  ``values`` is left unchanged.
    """
    if m < 0:
        raise ValueError("composition depth must be non-negative")
    activation = get_activation(name)
    if name != "arctan-4pi":
        return iterate(activation, m, values)
    # The shift and its inverse run in the buffer the steps write into, so
    # the composite allocates one array, as iterate does.
    out = np.array(values, dtype=np.float64, ndmin=1)
    np.subtract(out, 0.5, out=out)
    _compose(activation.fn, m, out)
    np.multiply(0.5, out, out=out)
    np.add(0.5, out, out=out)
    return _maybe_scalar(out.reshape(np.shape(values)), values)


# --------------------------------------------------------------------------
# grids, rates, and certificate verification


def plateau_grid(eps: float, points: int = 20001) -> np.ndarray:
    """Sample the collar: every point within ``eps`` of 0 or of 1."""
    half = points // 2
    left = np.linspace(-eps, eps, half)
    right = np.linspace(1.0 - eps, 1.0 + eps, points - half)
    return np.concatenate([left, right])


def convergence_bound(params: StepLikeParams, m: int) -> float:
    """Worst-case distance of the m-fold composite from the hard threshold,
    over the collar."""
    if m < params.burn_in:
        raise ValueError(f"m={m} below the burn-in count {params.burn_in}")
    steps = m - params.burn_in
    if params.eta > 0.0:
        return params.eps * ((1.0 + params.eta) / 2.0) ** steps
    return params.eps * 2.0 ** -(2.0**steps - 1.0)


def required_composition_depth(params: StepLikeParams, max_degree: int) -> int:
    """Smallest ``m >= burn_in`` with ``2 (max_degree + 2) * bound(m) < 1``.

    This is the condition that lets the per-layer error survive the inductive
    argument across all iterations of the compiled network.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    m = params.burn_in
    while not 2.0 * (max_degree + 2) * convergence_bound(params, m) < 1.0:
        m += 1
        if m > params.burn_in + 100_000:
            raise RuntimeError("rate too slow; no feasible composition depth found")
    return m


def size_closed_forms(params: StepLikeParams, max_degree: int) -> dict[str, float]:
    """Closed-form size estimates reported next to the scanned depth.

    Two variants because the sign under the log is ambiguous in circulation:
    one divides by ``1 - log2(1 - eta)``, the other by ``1 - log2(1 + eta)``
    (the latter matches the geometric rate ``(1 + eta)/2``).  The scan is
    authoritative; these are informational.
    """
    num = 2.0 + math.log2(max_degree + 2)
    out: dict[str, float] = {}
    if params.eta > 0.0:
        out["log2(1-eta)"] = params.burn_in + num / (1.0 - math.log2(1.0 - params.eta))
        out["log2(1+eta)"] = params.burn_in + num / (1.0 - math.log2(1.0 + params.eta))
    else:
        out["log2(1-eta)"] = params.burn_in + math.log2(num)
        out["log2(1+eta)"] = out["log2(1-eta)"]
    return out


# The samples verify_step_like checks: a wide grid for the one-step
# contraction and the plateau collar; and the slack of its verdicts.
_WIDE_LO, _WIDE_HI, _WIDE_POINTS = -50.0, 51.0, 100_000
_COLLAR_POINTS = 20_001
_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    threshold: float
    location: float

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: {status} (worst {self.worst:.6g} vs threshold "
            f"{self.threshold:.6g} at x={self.location:.6g})"
        )


@dataclass(frozen=True)
class StepLikeReport:
    activation: str
    passed: bool
    checks: tuple[CheckResult, ...]
    grid_note: str

    def describe(self) -> str:
        head = f"{self.activation}: {'pass' if self.passed else 'FAIL'} [{self.grid_note}]"
        return "\n".join([head] + ["  " + c.describe() for c in self.checks])


def verify_step_like(activation: Activation, params: StepLikeParams) -> StepLikeReport:
    """Check the step-like conditions against a certificate.

    (a) fixes 0 and 1; (b) derivative at 0 and 1 at most eta; (c) the burn-in
    composite stays within min(eps, (1-eta)/curvature) of the threshold on
    the collar; (d) the one-step contraction
    ``|sigma(y) - p| <= eta |y - p| + (curvature/2) |y - p|^2`` (p the nearby
    plateau) holds at every burn-in image point of the sampled domain outside
    (eps, 1-eps).  Each verdict allows a slack of ``_TOL``.  Condition (d) is
    the inequality the fixed-point iteration consumes; a raw second-derivative
    bound is stronger than the certified constants support at the collar
    edge, so the report carries the curvature sup over the once-contracted
    collar as information only.

    Needs the closed-form ``d1``/``d2``, which every certified map has.
    """
    d1, d2 = activation.d1, activation.d2
    if d1 is None or d2 is None:
        raise ValueError(f"{activation.name!r} has no closed-form derivatives")
    checks = []

    fixed_worst = max(abs(float(activation.fn(0.0))), abs(float(activation.fn(1.0)) - 1.0))
    fixed_loc = 0.0 if abs(float(activation.fn(0.0))) >= abs(float(activation.fn(1.0)) - 1.0) else 1.0
    checks.append(CheckResult("fixes 0 and 1", fixed_worst <= _TOL, fixed_worst, _TOL, fixed_loc))

    s0, s1 = abs(float(d1(0.0))), abs(float(d1(1.0)))
    slope_worst = max(s0, s1)
    checks.append(
        CheckResult(
            "derivative at the fixed points",
            slope_worst <= params.eta + _TOL,
            slope_worst,
            params.eta,
            0.0 if s0 >= s1 else 1.0,
        )
    )

    collar = plateau_grid(params.eps, _COLLAR_POINTS)
    target = sigma_star(collar)
    reached = iterate(activation, params.burn_in, collar)
    radius = min(params.eps, (1.0 - params.eta) / params.curvature)
    dev = np.abs(reached - target)
    i = int(np.argmax(dev))
    checks.append(
        CheckResult(
            "burn-in lands on the plateaus (collar)",
            float(dev[i]) <= radius + _TOL,
            float(dev[i]),
            radius,
            float(collar[i]),
        )
    )

    wide = np.linspace(_WIDE_LO, _WIDE_HI, _WIDE_POINTS)
    outside = wide[(wide <= params.eps) | (wide >= 1.0 - params.eps)]
    points = np.concatenate([np.asarray(iterate(activation, params.burn_in, outside)), reached])
    plateau = np.concatenate([sigma_star(outside), target])
    dist = np.abs(points - plateau)
    allowed = params.eta * dist + 0.5 * params.curvature * dist * dist
    stepped = np.abs(np.asarray(activation.fn(points)) - plateau)
    excess = stepped - allowed
    j = int(np.argmax(excess))
    checks.append(
        CheckResult(
            "one-step contraction on the burn-in image",
            float(excess[j]) <= _TOL,
            float(stepped[j]),
            float(allowed[j]),
            float(points[j]),
        )
    )

    curv_info = float(np.abs(np.asarray(d2(activation.fn(collar)))).max())
    note = (
        f"wide grid [{_WIDE_LO}, {_WIDE_HI}] x{_WIDE_POINTS}, "
        f"collar +-{params.eps} around 0 and 1 x{_COLLAR_POINTS}, tol={_TOL:g}; "
        f"curvature sup over the once-contracted collar: {curv_info:.6g}"
    )
    return StepLikeReport(
        activation=activation.name,
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
        grid_note=note,
    )
