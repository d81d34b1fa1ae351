"""Scalar activation library: the hard threshold, classical maps, step-like
constructions with their (eta, eps, curvature) certificates, iterated
composition, certificate verification, and convergence-rate tooling.

A step-like activation fixes 0 and 1, has derivative at most ``eta`` there,
and steps every point ``y`` outside ``(eps, 1-eps)`` toward its plateau
``p``: ``|sigma(y) - p| <= eta |y - p| + (curvature/2) |y - p|^2``.  A
certificate has ``eps <= (1-eta)/curvature``, so on the collar (within
``eps`` of 0 or 1) one step shrinks the distance by ``(1+eta)/2`` at least.
Iterating the map then converges to the hard threshold at that geometric
rate, or doubly exponentially when ``eta = 0``.  The rate holds on the
collar only; the conditions are unsatisfiable on an unbounded domain.

One entry runs a map: ``_in_place(name, m)`` composes the map's in-place
kernel ``m`` times on a dense float64 array, one ``_BLOCK`` (2^16 elements,
512 KB, which stays in L2 across the steps) at a time in memory order; an
array of fewer elements is one block, composed where it lies as it is.
Each step is elementwise, so blocking changes no bits: the block size is a
power of two, so every block but the last starts at the same alignment as
the array and is a whole number of SIMD vectors, and numpy's loops take
the same vector and remainder paths for each element as on the whole
array.  Where the array itself starts moves no bit either: rows activated
where they lie in a forward's state read the same as a gathered copy.

Some maps settle in one step.  A record declares ``idempotent`` when its
kernel run twice gives the bits of one run at every float64 and sends +0.0
and 1.0 to themselves bit for bit (``sigma-star``, ``crelu`` and
``relu``), and ``_in_place`` composes such a map once for every ``m >=
1``, since sigma^m = sigma.  The settling rule: an idempotent map settles
at every m; run again on a value it gave, or on a forward's initial 0 or
1, it changes no bit, so a forward under it activates only the columns
each layer writes (see ``backend``).  At m = 0 every other map except
``arctan-4pi`` (``z -> 1/4 + z/2``) is the identity, with the same bits
on the forward's liveness path.

The kernel runs on every element it is given: a table of the distinct
values of a column is the forward's, which codes rows where it pays (the
table rule of ``backend``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .graphs import _is_integer

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
    "flat_tanh_constants",
    "golden_section_min",
    "plateau_grid",
    "convergence_bound",
    "required_composition_depth",
    "CheckResult",
    "StepLikeReport",
    "verify_step_like",
]


@dataclass(frozen=True)
class StepLikeParams:
    """Certificate of a step-like activation."""

    eta: float        # bound on |sigma'| at the fixed points 0 and 1
    eps: float        # collar half-width around the plateaus
    curvature: float  # quadratic coefficient of the one-step contraction

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must lie in [0, 1), got {self.eta}")
        if not 0.0 < self.eps < 0.5:
            raise ValueError(f"eps must lie in (0, 1/2), got {self.eps}")
        if self.curvature <= 0.0:
            raise ValueError("curvature bound must be positive")
        # the collar must lie where one step contracts by (1+eta)/2
        radius = (1.0 - self.eta) / self.curvature
        if self.eps > radius:
            raise ValueError(f"eps={self.eps} exceeds (1-eta)/curvature = {radius:.6g}")


@dataclass(frozen=True)
class Activation:
    """Named scalar map with its optional closed-form derivative and its
    step-like certificate, if it carries one.

    ``fn`` is an in-place kernel: ``fn(x)`` overwrites ``x``, a float64
    array (possibly 0-d or a strided view), with the map's values and
    returns None.  ``apply_activation`` runs a map on any other values.
    ``d1`` is a pure function of scalars or arrays.

    ``idempotent`` declares that the map settles in one step: ``fn`` applied
    twice gives the bits of ``fn`` applied once, at every float64, and
    sends +0.0 and 1.0 to themselves bit for bit.  So ``_in_place``
    composes it once for every ``m >= 1``, and the map settles at every m;
    at m = 0 every other map except ``arctan-4pi`` is the identity.
    """

    name: str
    fn: Callable
    d1: Callable | None = None
    certificate: StepLikeParams | None = None
    idempotent: bool = False


def _composition_depth(m) -> int:
    """``m`` as an ``int`` if it is a non-negative integer, not a bool."""
    if not _is_integer(m):
        raise ValueError(f"composition depth must be an integer, got {m!r}")
    if m < 0:
        raise ValueError("composition depth must be non-negative")
    return int(m)


@dataclass(frozen=True)
class ActivationSpec:
    """Activation selection for a compiled network: name plus composition
    depth ``m``, a non-negative Python or numpy integer (a bool raises),
    stored as an ``int``.  ``m = 0`` is asked for explicitly and means the
    identity, except for ``arctan-4pi``, where it is ``y -> 1/4 + y/2`` (see
    ``apply_activation``)."""

    name: str
    m: int = 1

    def __post_init__(self):
        if self.name not in ACTIVATION_NAMES:
            raise ValueError(f"unknown activation {self.name!r}")
        object.__setattr__(self, "m", _composition_depth(self.m))


# --------------------------------------------------------------------------
# base maps: in-place kernels on float64 arrays


def _sigma_star(x):
    """Hard threshold at 1/2: 0 below, 1 above, 1/2 at the tie and at NaN.

    Computed as ``((x > 1/2) - (x < 1/2)) / 2 + 1/2`` with no masks: both
    comparisons are false at NaN, so it maps to 1/2, and the zero it returns
    is always +0.0 (``-0.5 + 0.5``).
    """
    np.subtract(x > 0.5, x < 0.5, out=x, dtype=np.float64)
    np.multiply(x, 0.5, out=x)
    np.add(x, 0.5, out=x)


def _relu(x):
    np.maximum(x, 0.0, out=x)


def _crelu(x):
    np.maximum(x, 0.0, out=x)
    np.minimum(x, 1.0, out=x)


def _logistic(x, num):
    """``x <- num / (1 + exp(x))``, the one logistic formula: ``sigmoid(v)``
    at ``x = -v`` with ``num = 1``, and ``2 sigmoid(2z)`` at ``x = -2z`` with
    ``num = 2``, since scaling by a power of two is exact."""
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    np.add(1.0, x, out=x)
    np.divide(num, x, out=x)


def _sigmoid(x):
    np.negative(x, out=x)
    _logistic(x, 1.0)


def _tanh(x):
    np.tanh(x, out=x)


def _arctan_4pi(x):
    np.arctan(x, out=x)
    np.multiply(4.0 / np.pi, x, out=x)


def _step_arctan(x):
    np.multiply(2.0, x, out=x)
    np.subtract(x, 1.0, out=x)
    np.arctan(x, out=x)
    np.multiply(2.0 / np.pi, x, out=x)
    np.add(0.5, x, out=x)


def _step_arctan_d1(x):
    u = 2.0 * np.asarray(x, dtype=np.float64) - 1.0
    return (4.0 / np.pi) / (1.0 + u * u)


_TANH_HALF = math.tanh(0.5)


def _tanh_step(x, tanh, t_half):
    """``x <- 1/2 + tanh(x - 1/2) / (2 t_half)`` for an in-place kernel
    ``tanh`` realizing tanh and its value ``t_half`` at 1/2."""
    np.subtract(x, 0.5, out=x)
    tanh(x)
    np.divide(x, 2.0 * t_half, out=x)
    np.add(0.5, x, out=x)


def _step_tanh(x):
    _tanh_step(x, _tanh, _TANH_HALF)


def _step_tanh_d1(x):
    y = np.asarray(x, dtype=np.float64) - 0.5
    return 1.0 / (np.cosh(y) ** 2 * 2.0 * _TANH_HALF)


# --------------------------------------------------------------------------
# flat-shoulder construction (zero derivative at both fixed points)


# Bracket width at which golden_section_min stops.
_GOLDEN_TOL = 1e-10


def golden_section_min(fn, lo: float, hi: float) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [lo, hi] to a bracket of
    width ``_GOLDEN_TOL``.

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
    while h > _GOLDEN_TOL:
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
    return golden_section_min(_sharpness_objective, 0.3, 0.6)


@lru_cache(maxsize=2)
def _flat_coeffs(tanh) -> tuple[float, float, float]:
    """``(a, alpha/2, den)`` with tanh evaluated by ``tanh``, a
    module-level scalar realization (the cache is keyed on it).

    alpha/2 is the coefficient that zeroes the inner map's derivative at the
    fixed points; den normalizes the inner map to fix 0 and 1.  The tanh
    variant's constants are ``math.tanh``'s, whose values can differ from
    ``np.tanh``'s in the last bit.
    """
    a, alpha = flat_tanh_constants()
    half_alpha = alpha / 2.0
    den = 2.0 * (tanh(a) - half_alpha * tanh(2.0 * a) + tanh(3.0 * a))
    return a, half_alpha, den


def _flat_shoulder(x, tanh, coeffs):
    """``x <- (tanh(a u) - (alpha/2) tanh(2 a u) + tanh(3 a u)) / den + 1/2``
    with ``u = 2x - 1``, for an in-place kernel ``tanh`` realizing tanh and
    its ``_flat_coeffs``."""
    a, half_alpha, den = coeffs
    np.multiply(2.0, x, out=x)
    np.subtract(x, 1.0, out=x)  # x holds u until the last term reads it
    num, term = np.empty_like(x), np.empty_like(x)
    np.multiply(a, x, out=num)
    tanh(num)
    np.multiply(2.0 * a, x, out=term)
    tanh(term)
    np.subtract(num, np.multiply(half_alpha, term, out=term), out=num)
    np.multiply(3.0 * a, x, out=x)
    tanh(x)
    np.add(num, x, out=x)
    np.divide(x, den, out=x)
    np.add(x, 0.5, out=x)


def _flat_inner(x):
    _flat_shoulder(x, _tanh, _flat_coeffs(math.tanh))


def _flat_inner_d1(x):
    a, half_alpha, den = _flat_coeffs(math.tanh)
    u = 2.0 * np.asarray(x, dtype=np.float64) - 1.0
    s1 = 1.0 / np.cosh(a * u) ** 2
    s2 = 1.0 / np.cosh(2.0 * a * u) ** 2
    s3 = 1.0 / np.cosh(3.0 * a * u) ** 2
    return 2.0 * a * (s1 - 2.0 * half_alpha * s2 + 3.0 * s3) / den


def _flat_tanh(x):
    _flat_inner(x)
    _step_tanh(x)


def _flat_tanh_d1(x):
    t = np.array(x, dtype=np.float64)
    _flat_inner(t)
    return _step_tanh_d1(t) * _flat_inner_d1(x)


def _tanh_via_sigmoid(z):
    """``z <- 2 sigmoid(2z) - 1``, which is tanh z, by the logistic formula."""
    np.multiply(-2.0, z, out=z)
    _logistic(z, 2.0)
    np.subtract(z, 1.0, out=z)


def _sigmoid_tanh_at(z: float) -> float:
    """``_tanh_via_sigmoid`` at the scalar ``z``, run on a 0-d array."""
    buf = np.array(z, dtype=np.float64)
    _tanh_via_sigmoid(buf)
    return float(buf)


_SIGMOID_TANH_HALF = _sigmoid_tanh_at(0.5)


def _flat_sigmoid(x):
    """Pointwise the same map as the flat tanh variant, realized with sigmoid
    evaluations only (tanh z == 2*sigmoid(2z) - 1)."""
    _flat_shoulder(x, _tanh_via_sigmoid, _flat_coeffs(_sigmoid_tanh_at))
    _tanh_step(x, _tanh_via_sigmoid, _SIGMOID_TANH_HALF)


# --------------------------------------------------------------------------
# registry

_STEP_ARCTAN_CERT = StepLikeParams(eta=0.64, eps=0.10, curvature=1.52)
_STEP_TANH_CERT = StepLikeParams(eta=0.86, eps=0.16, curvature=0.84)
_FLAT_CERT = StepLikeParams(eta=0.0, eps=0.20, curvature=2.2)

# name -> map; the order is the order of ACTIVATION_NAMES
_REGISTRY = {
    act.name: act
    for act in (
        Activation("sigma-star", _sigma_star, idempotent=True),
        Activation("crelu", _crelu, idempotent=True),
        Activation("relu", _relu, idempotent=True),
        Activation("sigmoid", _sigmoid),
        Activation("tanh", _tanh),
        Activation("step-arctan", _step_arctan, _step_arctan_d1, _STEP_ARCTAN_CERT),
        Activation("step-tanh", _step_tanh, _step_tanh_d1, _STEP_TANH_CERT),
        Activation("steplike-tanh-eta0", _flat_tanh, _flat_tanh_d1, _FLAT_CERT),
        # pointwise identical to the tanh realization, so it shares its derivative
        Activation("steplike-sigmoid-eta0", _flat_sigmoid, _flat_tanh_d1, _FLAT_CERT),
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
# application


# Elements of the flat buffer that _in_place takes through all m steps before
# it moves on: 512 KB of float64, which stays in L2 across the steps.
_BLOCK = 1 << 16

def _in_place(name: str, m: int) -> Callable:
    """``name`` composed ``m`` times as an in-place map: a function that
    overwrites a dense float64 array, such as ``np.array`` makes or a slice
    of consecutive rows of a C-ordered array, and returns None.  The one
    code that runs a map (see the module docstring): it composes the kernel
    on every element, and ``backend`` decides where a table stands in for
    the elements.  ``m`` is checked and the map looked up once, here, so a
    forward resolves it once and calls it once per activated array.

    Every named map is composed directly, so ``m = 0`` is the identity,
    except ``arctan-4pi`` which is the sign-amplifying composite
    ``z -> 1/2 + f^m(z - 1/2)/2`` with ``f = (4/pi) arctan``, the map its
    kernel holds.  At ``m = 0`` that composite is ``z -> 1/4 + z/2``.  Its
    shift and unshift run on each block with the steps, so a table holds
    the composite's values.  An idempotent map is composed once for every
    ``m >= 1``: its further steps would change no bit.
    """
    m = _composition_depth(m)
    act = get_activation(name)
    fn, shift = act.fn, name == "arctan-4pi"
    if act.idempotent:
        m = min(m, 1)  # sigma^m = sigma

    def activate(block):
        if shift:
            np.subtract(block, 0.5, out=block)
        for _ in range(m):
            fn(block)
        if shift:
            np.multiply(0.5, block, out=block)
            np.add(0.5, block, out=block)

    if m == 1 and not shift:  # one step: the kernel itself
        activate = fn

    def run(out):
        if out.size < _BLOCK:  # one block, the whole array
            activate(out)
            return
        # a view in memory order for C-, F- and axis-permuted dense layouts,
        # where reshape(-1) would copy all but the first
        flat = out.ravel(order="K")
        for start in range(0, flat.size, _BLOCK):
            activate(flat[start:start + _BLOCK])

    return run


def apply_activation(name: str, m: int, values):
    """``name`` composed ``m`` times (see ``_in_place``), the kernel on every
    element, on a float64 copy of ``values``, which is left unchanged: an
    array in the layout of ``values``, or a float64 scalar for a scalar.
    ``apply_activation("arctan-4pi", 0, [0, 1])`` is ``[0.25, 0.75]``.
    ``m`` is a non-negative Python or numpy integer; a bool raises.
    """
    run = _in_place(name, m)
    out = np.array(values, dtype=np.float64)
    run(out)
    return out[()]


# --------------------------------------------------------------------------
# grids, rates, and certificate verification


def plateau_grid(eps: float, points: int) -> np.ndarray:
    """Sample the collar: every point within ``eps`` of 0 or of 1."""
    half = points // 2
    left = np.linspace(-eps, eps, half)
    right = np.linspace(1.0 - eps, 1.0 + eps, points - half)
    return np.concatenate([left, right])


def convergence_bound(params: StepLikeParams, m: int) -> float:
    """Worst-case distance of the m-fold composite from the hard threshold,
    over the collar; ``m`` is a non-negative Python or numpy integer, and a
    bool raises."""
    m = _composition_depth(m)
    if params.eta > 0.0:
        return params.eps * ((1.0 + params.eta) / 2.0) ** m
    return math.ldexp(params.eps, 1 - 2**m)


def required_composition_depth(params: StepLikeParams, max_degree: int) -> int:
    """Smallest ``m >= 0`` with ``2 (max_degree + 2) * bound(m) < 1``.

    This is the paper's collar estimate, not a guarantee: ``bound(m)`` holds
    only for inputs on the collar (within ``eps`` of 0 or 1), and a compiled
    network's pre-activations can leave it, so the scanned depth can be too
    small (ROADMAP.md, item 1 "Sound composition depth").
    """
    if not _is_integer(max_degree) or max_degree < 0:
        raise ValueError(f"max_degree must be a non-negative integer, got {max_degree!r}")
    scale = 2.0 * (max_degree + 2)
    if not math.isfinite(scale):  # inf * bound(m) never drops below 1
        raise ValueError("max_degree too large: 2 (max_degree + 2) overflows float64")
    m = 0
    while not scale * convergence_bound(params, m) < 1.0:
        m += 1
        if m > 100_000:
            raise RuntimeError("rate too slow; no feasible composition depth found")
    return m


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


def _check(name: str, points, value, allowed) -> CheckResult:
    """The verdict of ``value <= allowed`` (arrays over ``points``, or an
    ``allowed`` scalar), reported where ``value - allowed`` is largest: it
    passes when that excess is at most ``_TOL``."""
    allowed = np.broadcast_to(allowed, value.shape)
    excess = value - allowed
    j = int(np.argmax(excess))
    return CheckResult(name, bool(excess[j] <= _TOL), float(value[j]), float(allowed[j]), float(points[j]))


def verify_step_like(name: str, params: StepLikeParams) -> StepLikeReport:
    """Check the registered map ``name`` against a certificate.

    (a) fixes 0 and 1; (b) derivative at 0 and 1 at most eta; (c) the
    one-step contraction
    ``|sigma(y) - p| <= eta |y - p| + (curvature/2) |y - p|^2`` (p the nearby
    plateau) holds at every sampled point outside (eps, 1-eps), on the wide
    grid and on the collar; (d) the map is non-decreasing: ``d1 >= 0`` on
    the wide grid.  Each verdict allows a slack of ``_TOL``.
    Condition (c) is the inequality the fixed-point iteration consumes;
    ``StepLikeParams`` itself holds ``eps <= (1-eta)/curvature``, which
    makes it contract on the collar.  Condition (d) makes every composite
    monotone, so its worst error over an interval sits at the endpoints.

    Needs the closed-form ``d1``, which every certified map has.
    """
    d1 = get_activation(name).d1
    if d1 is None:
        raise ValueError(f"{name!r} has no closed-form derivatives")
    fixed = np.array([0.0, 1.0])
    wide = np.linspace(_WIDE_LO, _WIDE_HI, _WIDE_POINTS)
    outside = wide[(wide <= params.eps) | (wide >= 1.0 - params.eps)]
    points = np.concatenate([outside, plateau_grid(params.eps, _COLLAR_POINTS)])
    plateau = apply_activation("sigma-star", 1, points)
    dist = np.abs(points - plateau)
    checks = (
        _check("fixes 0 and 1", fixed, np.abs(apply_activation(name, 1, fixed) - fixed), 0.0),
        _check("derivative at the fixed points", fixed, np.abs(d1(fixed)), params.eta),
        _check(
            "one-step contraction outside (eps, 1-eps)",
            points,
            np.abs(apply_activation(name, 1, points) - plateau),
            params.eta * dist + 0.5 * params.curvature * dist * dist,
        ),
        _check("non-decreasing on the wide grid (-d1)", wide, -d1(wide), 0.0),
    )
    note = (
        f"wide grid [{_WIDE_LO}, {_WIDE_HI}] x{_WIDE_POINTS}, "
        f"collar +-{params.eps} around 0 and 1 x{_COLLAR_POINTS}, tol={_TOL:g}"
    )
    return StepLikeReport(
        activation=name,
        passed=all(c.passed for c in checks),
        checks=checks,
        grid_note=note,
    )
