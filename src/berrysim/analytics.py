"""Closed-form phase statistics and an independent quadrature oracle.

First-order response of the cyclic phases to weak field noise
--------------------------------------------------------------
Over one schedule the upper adiabatic branch accumulates a geometric
phase ``pi*cos(theta0)`` per turn (folded to a single turn, see
:mod:`berrysim.evolve`) and the field-modulus integral ``b0*t_total``.
Weak noise K(t) perturbs both.  To first order the deviations are
linear functionals

    d_gamma = integral w_gamma(t) . K(t) dt
    d_delta = integral w_delta(t) . K(t) dt

and every such weight has the form

    w(t) = (x_T*cos(omega t), x_T*sin(omega t), x_L),

so a :class:`Weight` is its two amplitudes (s = sin(theta0),
c = cos(theta0), B = b0, T = t_total, n = n_cycles):

    functional   x_T               x_L
    gamma        -pi*n*c*s/(T*B)   pi*n*s**2/(T*B)
    delta        s                 c
    alpha        sum of the two rows above

``delta`` here is the accumulated field-modulus integral, which equals
the relative dynamical phase between the two adiabatic branches;
``alpha = gamma + delta`` is the combined phase whose variance controls
dephasing through ``exp(-2*var(alpha))``.

For stationary OU noise every second moment of these Gaussian
functionals is one quadratic form in the amplitudes, valid when the
drive closes (omega*T = 2*pi*n_cycles):

    Cov(x, y) = 2*sigma_T**2 * J * x_T*y_T + 2*sigma_L**2 * L * x_L*y_L

with the brackets (u = gamma*T)

    J(gamma, omega, T) = gamma*T/(gamma**2 + omega**2)
                         + expm1(-gamma*T) * (gamma**2 - omega**2)
                           / (gamma**2 + omega**2)**2
    L(gamma, T)        = (gamma*T + expm1(-gamma*T)) / gamma**2

The slow-noise (narrowband) and fast-noise (broadband) limits of
var(gamma) are the same form with the limits of the brackets:

    narrowband   J = 2*gamma12*T/omega**2    L = T**2*(1/2 - gamma3*T/6)
    broadband    J = T/gamma12               L = T/gamma3

Each limit is published only where its brackets can be those of a
variance.  The narrowband L is negative once gamma3*T > 3.  The exact
brackets satisfy |J| <= L <= T**2/2, so the broadband brackets are
impossible once T/gamma > T**2/2, that is gamma*T < 2 for either
bandwidth.  There the limit is None rather than a wrong number.

The quadrature routines integrate the same double integrals directly
from cos(omega t), sin(omega t), 1 and the OU kernel, with no reference
to J or L, and serve as an independent cross-check.  A trapezoid pass
T(n) over n intervals filters each of the three bases once, whatever the
weights; the weights only scale the results.  It filters only one of
the g = gcd(n, n_cycles) drive periods on the grid and carries the AR(1)
state across the rest, the same sum in another order: within rounding
of the full-grid sum at g > 1 (even n_cycles, or more than 64 on the
CLI's grids); at g = 1 the carry is zero and skipped, and the sum is
bitwise the full-grid one.  The error of T(n) is a series in
h**2, because the inner integral is exact for piecewise-linear weights,
so the oracle doubles n and extrapolates twice (Richardson; Romberg):

    R2(n) = T(n) + (T(n) - T(n/2))/3
    R3(n) = R2(n) + (R2(n) - R2(n/2))/15

At each doubling it accepts R2 if |T(n) - T(n/2)|/3 <= rtol*|R2|, and
otherwise R3 if |R2(n) - R2(n/2)|/15 <= rtol*|R3|: the first
rule met wins, and its left side is the reported error.  That error is
an estimate from successive differences, not a bound.  Near the
roundoff floor (gamma*T ~ 1e-6 with sigma3 = 0, or gamma ~ 1e6) roundoff
can meet a rule early or keep both from ever being met.

The oracle's policy is fixed, not a set of defaults: it starts at
max(4096, 64*n_cycles) nodes, enough to resolve the fastest weight
oscillation, with rtol = 1e-8, far below the 1e-6 agreement gate of the
cross-checks without stalling near the roundoff floor, and gives up
beyond 2**21 nodes, so it refuses n_cycles > 16384.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError
from .field import Grid, PrecessionSpec, _node_array, control_field
from .noise import NoiseModel, _ar1

__all__ = [
    "Weight",
    "geometric_weight",
    "dynamical_weight",
    "noiseless_berry_phase",
    "phase_covariance",
    "second_moments",
    "berry_phase_variance_narrowband",
    "berry_phase_variance_broadband",
    "QuadratureEstimate",
    "covariance_by_quadrature",
    "dephasing_factor",
    "phase_moments",
    "noncyclic_connection_term",
]


# --------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class Weight:
    """A response weight w(t) = (x_T*cos(omega t), x_T*sin(omega t), x_L).

    Only the two amplitudes are stored; the spec supplies omega and the
    window.  The closed forms, the quadrature oracle and the Monte Carlo
    pipeline all consume this one value.
    """

    transverse: float
    longitudinal: float

    def __add__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        return Weight(
            self.transverse + other.transverse, self.longitudinal + other.longitudinal
        )

    def on_grid(self, spec: PrecessionSpec, t: np.ndarray) -> np.ndarray:
        """w evaluated at the times ``t``, shape ``t.shape + (3,)``."""
        phase = spec.omega * np.asarray(t, dtype=float)
        return np.stack(
            [
                self.transverse * np.cos(phase),
                self.transverse * np.sin(phase),
                np.full_like(phase, self.longitudinal),
            ],
            axis=-1,
        )


def geometric_weight(spec: PrecessionSpec) -> Weight:
    """First-order response weight of the geometric phase.

    The phase accrues once per turn, so the amplitude pi*n_cycles/(T*b0)
    is omega/(2*b0): a static K_z shifts gamma by pi*n_cycles*s**2*K_z/b0.
    """
    s = math.sin(spec.theta0)
    c = math.cos(spec.theta0)
    t_b0 = spec.t_total * spec.b0
    if t_b0 == 0.0:
        raise ValueError(
            f"the geometric weight is not finite at b0={spec.b0:g}, t_total={spec.t_total:g}: "
            "t_total*b0 underflows to zero in float64"
        )
    amp = math.pi * spec.n_cycles / t_b0
    return Weight(-amp * c * s, amp * s * s)


def dynamical_weight(spec: PrecessionSpec) -> Weight:
    """First-order response weight of the field-modulus integral.

    This is the unit direction of the control field, since
    d|B + K| = B_hat . dK at K = 0.
    """
    return Weight(math.sin(spec.theta0), math.cos(spec.theta0))


# --------------------------------------------------------------------------
# noiseless geometry


def noiseless_berry_phase(theta0: float) -> float:
    """Geometric phase per turn of the upper branch, pi*cos(theta0)."""
    if not (math.isfinite(theta0) and 0.0 <= theta0 <= math.pi):
        raise ValueError(f"theta0 must lie in [0, pi], got {theta0}")
    return math.pi * math.cos(theta0)


# --------------------------------------------------------------------------
# closed-form variances


def _transverse_bracket(gamma: float, omega: float, t_total: float) -> float:
    """J bracket of the transverse pair; exact when omega*t_total = 2*pi*n.

    nan where the denominator's square underflows to zero or overflows.
    """
    denom = gamma * gamma + omega * omega
    if not 0.0 < denom * denom < math.inf:
        return math.nan
    return (
        gamma * t_total / denom
        + math.expm1(-gamma * t_total) * (gamma * gamma - omega * omega) / denom**2
    )


def _longitudinal_bracket(gamma: float, t_total: float) -> float:
    """L bracket of the longitudinal component, (u + expm1(-u))/gamma**2.

    nan where gamma**2 underflows to zero.
    """
    u = gamma * t_total
    if u < 1e-4:
        # Series of (u + expm1(-u))/u**2; the direct form cancels badly here.
        poly = 0.5 - u / 6.0 + u * u / 24.0 - u**3 / 120.0
        return t_total * t_total * poly
    if gamma * gamma == 0.0:
        return math.nan
    return (u + math.expm1(-u)) / (gamma * gamma)


def _form(spec: PrecessionSpec, model: NoiseModel, x: Weight, y: Weight,
          j: float, ell: float) -> dict:
    """The quadratic form of the module docstring at the brackets j and ell.

    Returns its ``transverse`` and ``longitudinal`` noise parts and their
    ``total``, in that order.  Raises ValueError when a part is not
    finite in float64, naming the first factor that is not: a bracket,
    an amplitude product of the weights, or else the noise.
    """
    try:
        terms = (
            2.0 * model.transverse.sigma**2 * j * x.transverse * y.transverse,
            2.0 * model.longitudinal.sigma**2 * ell * x.longitudinal * y.longitudinal,
        )
    except OverflowError:
        terms = (math.inf,)
    if all(map(math.isfinite, terms)):
        return {"transverse": terms[0], "longitudinal": terms[1], "total": terms[0] + terms[1]}
    transverse, longitudinal = model.transverse, model.longitudinal
    if not math.isfinite(j):
        at = f"gamma12={transverse.gamma:g}, omega={spec.omega:g}, t_total={spec.t_total:g}"
        why = f"the J bracket is {j:g} in float64"
    elif not math.isfinite(ell):
        at = f"gamma3={longitudinal.gamma:g}, t_total={spec.t_total:g}"
        why = f"the L bracket is {ell:g} in float64"
    elif not all(map(math.isfinite, (x.transverse * y.transverse,
                                     x.longitudinal * y.longitudinal))):
        at = f"b0={spec.b0:g}, t_total={spec.t_total:g}, n_cycles={spec.n_cycles}"
        why = "the product of the weight amplitudes overflows float64"
    else:
        at = f"sigma12={transverse.sigma:g}, sigma3={longitudinal.sigma:g}"
        why = "the noise is too strong for float64"
    raise ValueError(f"closed-form moments are not finite at {at}: {why}")


def phase_covariance(
    spec: PrecessionSpec, model: NoiseModel, x: Weight, y: Weight
) -> dict:
    """Closed-form covariance of the first-order functionals with weights x and y.

    A dict of the ``transverse`` and ``longitudinal`` noise parts and
    their ``total``.  With ``x == y`` this is a variance.  For the
    geometric and dynamical weights the transverse part is negative
    whenever cos(theta0) > 0: a noise kick that raises the field modulus
    tilts the cone so as to lower the subtended solid angle.
    """
    j = _transverse_bracket(model.transverse.gamma, spec.omega, spec.t_total)
    ell = _longitudinal_bracket(model.longitudinal.gamma, spec.t_total)
    return _form(spec, model, x, y, j, ell)


def _moment_weights(spec: PrecessionSpec) -> dict:
    """The weight pair of each of :func:`second_moments`, under its key and in its order."""
    gamma, delta = geometric_weight(spec), dynamical_weight(spec)
    alpha = gamma + delta
    return {"var_gamma": (gamma, gamma), "var_delta": (delta, delta),
            "cov_gamma_delta": (gamma, delta), "var_alpha": (alpha, alpha)}


def second_moments(spec: PrecessionSpec, model: NoiseModel) -> dict:
    """The four closed-form second moments of gamma, delta and alpha = gamma + delta.

    Keys, in this order: ``var_gamma``, ``var_delta``, ``cov_gamma_delta``
    and ``var_alpha``; each value is a :func:`phase_covariance` dict.
    """
    pairs = _moment_weights(spec).items()
    return {key: phase_covariance(spec, model, x, y) for key, (x, y) in pairs}


def berry_phase_variance_narrowband(
    spec: PrecessionSpec, model: NoiseModel
) -> float | None:
    """Slow-noise limit of the geometric-phase variance.

    Valid when both bandwidths are small against the drive,
    gamma12 << omega and gamma3*t_total << 1.  The transverse part grows
    linearly with gamma12*t_total; the longitudinal part saturates at
    half the squared weight amplitude.  Returns None once
    gamma3*t_total > 3, where the longitudinal bracket turns negative;
    a bracket that is not finite in float64 (omega**2 underflows, or
    t_total**2 overflows) raises ValueError, as the exact forms do.
    """
    t_total = spec.t_total
    omega2 = spec.omega**2
    j = 2.0 * model.transverse.gamma * t_total / omega2 if omega2 > 0.0 else math.nan
    ell = t_total * t_total * (0.5 - model.longitudinal.gamma * t_total / 6.0)
    if -math.inf < ell < 0.0:
        return None
    w = geometric_weight(spec)
    return _form(spec, model, w, w, j, ell)["total"]


def berry_phase_variance_broadband(
    spec: PrecessionSpec, model: NoiseModel
) -> float | None:
    """Fast-noise limit of the geometric-phase variance.

    Valid when both bandwidths dominate, gamma12 >> omega and
    gamma*t_total >> 1.  Both contributions fall off as
    1/(gamma*t_total): rapid fluctuations self-average over the loop.
    Returns None once either bracket t_total/gamma exceeds t_total**2/2,
    the bound of the exact brackets, that is once gamma*t_total < 2.
    """
    j = spec.t_total / model.transverse.gamma
    ell = spec.t_total / model.longitudinal.gamma
    if max(j, ell) > 0.5 * spec.t_total * spec.t_total:
        return None
    w = geometric_weight(spec)
    return _form(spec, model, w, w, j, ell)["total"]


# --------------------------------------------------------------------------
# quadrature oracle


class QuadratureEstimate(NamedTuple):
    """Converged quadrature value with an error estimate and node count."""

    value: float
    error: float
    nodes: int


def _filtered_kernel(w: np.ndarray, gamma: float, h: float) -> np.ndarray:
    """y[k] = integral_0^{t_k} w(t') exp(-gamma*(t_k - t')) dt'.

    Exact for piecewise-linear w, so the only discretization error in the
    outer integral is the O(h**2) trapezoid remainder.
    """
    u = gamma * h
    i0 = -math.expm1(-u) / gamma
    if u < 1e-4:
        i1 = h * (0.5 - u / 6.0 + u * u / 24.0 - u**3 / 120.0)
    else:
        i1 = (u + math.expm1(-u)) / (u * gamma)
    x = np.zeros_like(w)
    x[1:] = i1 * w[1:] + (i0 - i1) * w[:-1]
    return _ar1(x, math.exp(-u))


# The oracle's fixed policy (module docstring): the tolerance and the largest grid.
_QUAD_RTOL = 1e-8
_QUAD_MAX_NODES = 2**21

# The bases each noise part filters: cos(omega t) and sin(omega t) for the
# transverse pair, the constant 1 for the longitudinal component.
_BASES = ((np.cos, np.sin), (np.ones_like,))


def _quadrature_pass(
    spec: PrecessionSpec, model: NoiseModel, n_nodes: int, parts: tuple
) -> tuple:
    """The filtered-basis integrals of one trapezoid pass over ``n_nodes`` intervals.

    For each basis b of a noise part flagged in ``parts`` (transverse,
    longitudinal) this is the trapezoid sum of b times b filtered by
    that part's kernel; an unflagged part gives None.  The weights enter
    a pass only through their amplitude products, so one pass serves
    every pair of weights at this grid (see :func:`_pass_value`).

    The bases repeat every m = n_nodes/g nodes, g = gcd(n_nodes, n_cycles),
    so only the first period is filtered, to s with s[0] = 0.  Period c
    responds as y[c*m + j] = d**j * Y[c] + s[j] (d = exp(-gamma*h)), and
    its start is Y[c] = s[m] * G[c], where G[c+1] = d**m * G[c] + 1 is an
    AR(1) recursion from G[0] = 0 that every basis shares.  The full-grid
    sum is then g * T1 + h * s[m] * (p * sum(G[:g]) + b[m] * (G[g] - g)/2),
    with T1 the trapezoid sum over one period and p = sum_{j<m} b[j]*d**j.
    At g = 1 the second term is exactly zero, so it is skipped.
    """
    g = math.gcd(n_nodes, spec.n_cycles)
    m = n_nodes // g
    t = np.linspace(0.0, spec.t_total / g, m + 1)
    h = spec.t_total / n_nodes
    phase = spec.omega * t
    integrals = []
    for params, bases, needed in zip((model.transverse, model.longitudinal), _BASES, parts):
        if not needed:
            integrals.append(None)
            continue
        if g > 1:
            decay = np.exp(-params.gamma * h * np.arange(m + 1))
            starts = _ar1(np.r_[0.0, np.ones(g - 1)], decay[m])
            last = decay[m] * starts[-1] + 1.0 - g  # G[g] - g
            starts_sum = starts.sum()
        values = []
        for basis in bases:
            b = basis(phase)
            s = _filtered_kernel(b, params.gamma, h)
            value = np.trapezoid(b * s, dx=h)
            if g > 1:
                carried = np.dot(b[:-1], decay[:-1]) * starts_sum + 0.5 * b[-1] * last
                value = g * value + h * s[-1] * carried
            values.append(value)
        integrals.append(values)
    return tuple(integrals)


def _pass_value(coeffs: tuple, integrals: tuple) -> float:
    """One pass of Cov(x, y): each part's coefficient times its basis integrals."""
    total = 0.0
    for coeff, values in zip(coeffs, integrals):
        if coeff == 0.0:
            continue
        for value in values:
            total += coeff * float(value)  # Python floats: an inf or nan pass warns nowhere
    return total


def _covariances_by_quadrature(spec: PrecessionSpec, pairs: list, model: NoiseModel) -> tuple:
    """:func:`covariance_by_quadrature` for each ``(weight_a, weight_b)`` in ``pairs``.

    The pairs share their passes: each grid size is filtered once in this
    call, whichever pairs need it.  The passes are not kept after it.
    """
    n_nodes = max(4096, 64 * spec.n_cycles)
    if 2 * n_nodes > _QUAD_MAX_NODES:
        raise ValueError(
            f"the quadrature oracle takes n_cycles <= {_QUAD_MAX_NODES // 128}, got "
            f"{spec.n_cycles}: its start grid of 64*n_cycles nodes must double within "
            f"its {_QUAD_MAX_NODES}-node limit"
        )
    coeffs = [
        (
            2.0 * model.transverse.sigma**2 * (x.transverse * y.transverse),
            2.0 * model.longitudinal.sigma**2 * (x.longitudinal * y.longitudinal),
        )
        for x, y in pairs
    ]
    parts = tuple(any(c[i] != 0.0 for c in coeffs) for i in range(2))
    passes = {}

    def integrals(n: int) -> tuple:
        if n not in passes:
            passes[n] = _quadrature_pass(spec, model, n, parts)
        return passes[n]

    rule = (n_nodes, _QUAD_RTOL, _QUAD_MAX_NODES)
    return tuple(_extrapolate(lambda n, c=c: _pass_value(c, integrals(n)), *rule) for c in coeffs)


def _extrapolate(pass_value, n: int, rtol: float, max_nodes: int) -> QuadratureEstimate:
    """Double the grid from ``n`` nodes until R2 or R3 meets the tolerance (module docstring)."""

    def finite_pass(n: int) -> float:
        value = pass_value(n)
        if not math.isfinite(value):
            raise AccuracyError(f"the quadrature pass over {n} nodes is {value}, not finite")
        return value

    prev = finite_pass(n)
    prev_r2 = None
    while 2 * n <= max_nodes:
        n *= 2
        cur = finite_pass(n)
        err = abs(cur - prev) / 3.0
        r2 = cur + (cur - prev) / 3.0
        if err <= rtol * abs(r2):
            return QuadratureEstimate(value=r2, error=err, nodes=n)
        if prev_r2 is not None:
            err = abs(r2 - prev_r2) / 15.0
            r3 = r2 + (r2 - prev_r2) / 15.0
            if err <= rtol * abs(r3):
                return QuadratureEstimate(value=r3, error=err, nodes=n)
        prev, prev_r2 = cur, r2
    raise AccuracyError(
        f"quadrature did not reach rtol={rtol} within {max_nodes} nodes "
        f"(last error estimate {err:.3e})"
    )


def covariance_by_quadrature(
    spec: PrecessionSpec, weight_a: Weight, weight_b: Weight, model: NoiseModel
) -> QuadratureEstimate:
    """Covariance of two first-order functionals by direct quadrature.

    Evaluates the OU double integral with the exact exponential kernel
    between nodes and doubles the grid on the oracle's fixed policy
    (module docstring).  At each doubling it returns the once-extrapolated
    value if its step-doubling estimate meets rtol, else the
    twice-extrapolated value if that one's estimate does; the first rule
    met wins.  ``error`` is that estimate, not a bound.  Raises
    :class:`AccuracyError` when neither rule is met within the policy's
    grids, and ValueError past n_cycles = 16384.
    """
    (estimate,) = _covariances_by_quadrature(spec, [(weight_a, weight_b)], model)
    return estimate


# --------------------------------------------------------------------------
# dephasing


def dephasing_factor(var_alpha: float) -> float:
    """Ensemble coherence magnitude exp(-2*var(alpha)) for Gaussian alpha."""
    if not (math.isfinite(var_alpha) and var_alpha >= 0.0):
        raise ValueError(f"var_alpha must be finite and nonnegative, got {var_alpha}")
    return math.exp(-2.0 * var_alpha)


def phase_moments(spec: PrecessionSpec, model: NoiseModel) -> dict:
    """First and second moments of the three phase-like quantities.

    Keys, in this order (the ``analytic`` CSV rows keep it):
    ``mean_gamma``, ``var_gamma``, ``mean_delta``, ``var_delta``,
    ``cov_gamma_delta``, ``mean_alpha``, ``var_alpha``.
    Means are the noiseless values: ``pi*cos(theta0)`` for the geometric
    phase, ``b0*t_total`` for the field-modulus integral, and their sum
    for alpha.  Variances and the covariance are the closed-form totals
    and satisfy var_alpha = var_gamma + var_delta + 2*cov to rounding.
    Raises ValueError where b0*t_total overflows float64.
    """
    moments = second_moments(spec, model)
    mean_gamma = noiseless_berry_phase(spec.theta0)
    mean_delta = spec.b0 * spec.t_total
    if mean_delta == math.inf:
        raise ValueError(
            f"the noiseless moments are not finite at b0={spec.b0:g}, t_total={spec.t_total:g}: "
            "b0*t_total overflows float64"
        )
    return {
        "mean_gamma": mean_gamma,
        "var_gamma": moments["var_gamma"]["total"],
        "mean_delta": mean_delta,
        "var_delta": moments["var_delta"]["total"],
        "cov_gamma_delta": moments["cov_gamma_delta"]["total"],
        "mean_alpha": mean_gamma + mean_delta,
        "var_alpha": moments["var_alpha"]["total"],
    }


# --------------------------------------------------------------------------
# diagnostics


def noncyclic_connection_term(spec: PrecessionSpec, noise: np.ndarray) -> float | None:
    """Size of the boundary term dropped by the cyclic approximation.

    The first-order result treats the noisy loop as closed.  The actual
    total field ends at an azimuth shifted by the final noise sample, and
    the neglected connection contribution is A_phi(theta0) times the
    difference of the azimuth deviations at the two endpoints.  ``noise``
    is K at the n + 1 nodes of a :class:`~berrysim.field.Grid` of n
    steps, a finite array of shape ``(n + 1, 3)`` with n >= 1, or
    ValueError; only its first and last rows enter.  Returns None at the
    cone poles (sin(theta0) < 1e-12), where the control field has no
    reference azimuth.
    """
    noise = _node_array(noise, "noise")
    if math.sin(spec.theta0) < 1e-12:
        return None
    deviations = []
    for t, k in zip(Grid(spec, len(noise) - 1).times[[0, -1]], noise[[0, -1]]):
        b = control_field(spec, t)
        total = b + k
        d = math.atan2(total[1], total[0]) - math.atan2(b[1], b[0])
        deviations.append(math.remainder(d, 2.0 * math.pi))
    # numpy's cos, not math.cos: the two may differ in the last ulp
    return float(0.5 * np.cos(spec.theta0)) * (deviations[1] - deviations[0])
