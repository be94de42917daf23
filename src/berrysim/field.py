"""Rotating control field, polar decomposition and adiabaticity checks.

The control field traces a cone of half-angle ``theta0`` about the z
axis at constant modulus ``b0``:

    B(t) = b0 * (sin(theta0) cos(omega t), sin(theta0) sin(omega t), cos(theta0))

with ``omega = 2*pi*n_cycles / t_total`` so that the path closes after
``n_cycles`` full turns on ``[0, t_total]``.  The total field seen by
the spin is B(t) + K(t) with K a noise path from :mod:`berrysim.noise`.
Its polar angles at the first and last grid node fix the evolution's
start state and end reference; a :class:`Grid` places the nodes.  The
adiabaticity report checks the perturbative scale separations against
fixed thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneracyError, ResolutionError, _count
from .noise import NoiseModel

__all__ = [
    "PrecessionSpec",
    "control_field",
    "Grid",
    "polar_angles",
    "adiabaticity_report",
]


@dataclass(frozen=True)
class PrecessionSpec:
    """Geometry and schedule of the rotating control field.

    Parameters
    ----------
    b0:
        Field modulus, strictly positive.
    theta0:
        Cone half-angle in radians, within [0, pi].
    t_total:
        Duration of the schedule, strictly positive.
    n_cycles:
        Number of full turns completed over ``t_total``; positive integer.

    ``omega`` must be finite: a ``t_total`` so short that it overflows
    float64 is a ``ValueError``.
    """

    b0: float
    theta0: float
    t_total: float
    n_cycles: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.b0) and self.b0 > 0.0):
            raise ValueError(f"b0 must be finite and positive, got {self.b0}")
        if not (math.isfinite(self.theta0) and 0.0 <= self.theta0 <= math.pi):
            raise ValueError(f"theta0 must lie in [0, pi], got {self.theta0}")
        if not (math.isfinite(self.t_total) and self.t_total > 0.0):
            raise ValueError(f"t_total must be finite and positive, got {self.t_total}")
        object.__setattr__(self, "n_cycles", _count("n_cycles", self.n_cycles, 1))
        if not math.isfinite(self.omega):
            raise ValueError(f"omega = 2*pi*n_cycles/t_total is not finite at "
                             f"n_cycles={self.n_cycles}, t_total={self.t_total:g}")

    @property
    def omega(self) -> float:
        """Angular drive frequency 2*pi*n_cycles / t_total."""
        return 2.0 * math.pi * self.n_cycles / self.t_total


def _check_times(t: np.ndarray, t_total: float) -> None:
    tol = 1e-9 * max(1.0, t_total)
    if np.any(t < -tol) or np.any(t > t_total + tol):
        raise ValueError(f"t must lie within [0, {t_total}]")


def control_field(spec: PrecessionSpec, t: float | np.ndarray) -> np.ndarray:
    """Control field at time(s) ``t``; shape ``(3,)`` or ``t.shape + (3,)``.

    Raises ``ValueError`` when any time lies outside ``[0, t_total]``.
    """
    t = np.asarray(t, dtype=float)
    _check_times(t, spec.t_total)
    phase = spec.omega * t
    s = math.sin(spec.theta0)
    c = math.cos(spec.theta0)
    return spec.b0 * np.stack(
        [s * np.cos(phase), s * np.sin(phase), np.full_like(phase, c)], axis=-1
    )


@dataclass(frozen=True)
class Grid:
    """The integration grid of every route: ``n_steps`` steps of dt = t_total / n_steps.

    Node k sits at k*dt (``times``), within an ulp of t_total at the last,
    and midpoint k at (k + 1/2)*dt.  ``control``, built on first read and
    kept, is the control field at the nodes and at the midpoints, as
    contiguous rows of shapes (3, n_steps + 1) and (3, n_steps); it raises
    :class:`ResolutionError` where a step turns the field by b0*dt >= pi/4.
    Raises ``ValueError`` unless ``n_steps`` is a positive integer.
    """

    spec: PrecessionSpec
    n_steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_steps", _count("n_steps", self.n_steps, 1))

    @property
    def dt(self) -> float:
        return self.spec.t_total / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @cached_property
    def control(self) -> tuple[np.ndarray, np.ndarray]:
        if self.spec.b0 * self.dt >= 0.25 * math.pi:
            raise ResolutionError(f"b0*dt = {self.spec.b0 * self.dt:.3g} exceeds pi/4; "
                                  "increase steps_per_cycle")
        mid = (np.arange(self.n_steps) + 0.5) * self.dt
        return control_field(self.spec, self.times).T.copy(), control_field(self.spec, mid).T.copy()


def _node_array(values, name: str) -> np.ndarray:
    """``values`` as a finite float (n + 1, 3) array, n >= 1, or a named ValueError.

    The array keeps the layout of ``values``, so a caller that needs one makes it.
    """
    nodes = np.asarray(values, dtype=float)
    if nodes.ndim != 2 or nodes.shape[0] < 2 or nodes.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n + 1, 3) with n >= 1, got {nodes.shape}")
    if not np.all(np.isfinite(nodes)):
        raise ValueError(f"{name} must be finite, got a NaN or infinite entry")
    return nodes


def polar_angles(vector: np.ndarray) -> tuple[float, float]:
    """Polar angles ``(theta, phi)`` of a single nonzero 3-vector.

    ``theta`` is the polar angle in [0, pi], ``phi`` the azimuth in
    (-pi, pi]; vectors on the z axis carry ``phi = 0`` by convention.
    Raises ``ValueError`` for a vector whose norm is not finite (a NaN or
    infinite component) and :class:`DegeneracyError` for the zero vector,
    whose direction is undefined.
    """
    v = np.asarray(vector, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(v))
    if not math.isfinite(r):
        raise ValueError(f"field vector must have a finite norm, got {v.tolist()}")
    if r == 0.0:
        raise DegeneracyError("zero field vector has no polar decomposition")
    theta = math.acos(min(1.0, max(-1.0, v[2] / r)))
    # atan2(0, 0) = 0 realizes the phi = 0 convention on the z axis; adding
    # 0.0 squashes negative zeros, for which atan2 would report +/-pi.
    phi = math.atan2(v[1] + 0.0, v[0] + 0.0)
    return theta, phi


# Calibrated so the reference working point (omega/b0 = 0.063,
# gamma/b0 = 0.1, sigma/b0 = 0.05), where the first-order statistics are
# verified against exact evolution, sits inside the passing region.
_THRESHOLDS = {
    "omega_over_b0": 0.1,
    "gamma12_over_b0": 0.2,
    "gamma3_over_b0": 0.2,
    "sigma12_over_b0": 0.2,
    "sigma3_over_b0": 0.2,
}


def adiabaticity_report(spec: PrecessionSpec, model: NoiseModel) -> dict:
    """Check the scale separations the perturbative results rely on.

    The drive must be slow (omega/b0 at most 0.1), the noise slow
    (gamma/b0 at most 0.2) and weak (sigma/b0 at most 0.2).  Returns a
    dict with, in this order, ``ratios`` (each ratio), ``flags`` (True
    where the ratio is at or below its threshold), ``thresholds`` and
    ``passed`` (the conjunction of all flags).  Raises ``ValueError``
    where a ratio overflows float64, so no report publishes an infinity.
    """
    b0 = spec.b0
    ratios = {
        "omega_over_b0": spec.omega / b0,
        "gamma12_over_b0": model.transverse.gamma / b0,
        "gamma3_over_b0": model.longitudinal.gamma / b0,
        "sigma12_over_b0": model.transverse.sigma / b0,
        "sigma3_over_b0": model.longitudinal.sigma / b0,
    }
    for key, ratio in ratios.items():
        if not math.isfinite(ratio):
            raise ValueError(f"the adiabaticity ratio {key} is not finite; it overflows float64")
    flags = {key: ratios[key] <= _THRESHOLDS[key] for key in ratios}
    return {
        "ratios": ratios,
        "flags": flags,
        "thresholds": dict(_THRESHOLDS),
        "passed": all(flags.values()),
    }
