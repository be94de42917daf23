"""Stationary Ornstein-Uhlenbeck noise for the three field components.

The fluctuating part of the magnetic field is modelled as a zero-mean
vector process K(t) whose components are independent OU processes.  The
two transverse components K1, K2 share one parameter set and the
longitudinal component K3 has its own, so the noise may be anisotropic.

Each component is parametrized by its stationary standard deviation
``sigma`` and bandwidth ``gamma`` (the inverse correlation time), with
autocovariance

    <K(t) K(t + tau)> = sigma**2 * exp(-gamma * |tau|).

Paths are sampled with the exact one-step transition kernel

    K[n+1] = K[n] * exp(-gamma*dt) + sigma * sqrt(1 - exp(-2*gamma*dt)) * xi[n]

with ``xi`` i.i.d. standard normal, so the discrete marginals are exact
for any step size and the process is stationary from the first sample.
The path is linear in the innovations, K = L xi; the same filter also
applies the transpose L^T, which turns a weighted path integral w.K
into the inner product (L^T w).xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

__all__ = [
    "OuParams",
    "NoiseModel",
    "NoisePath",
    "sample_path",
    "autocovariance",
    "estimate_autocovariance",
]


@dataclass(frozen=True)
class OuParams:
    """Stationary OU parameters for one noise component.

    Parameters
    ----------
    sigma:
        Stationary standard deviation, in the same units as the field.
        ``sigma = 0`` gives an identically zero component.
    gamma:
        Bandwidth (inverse correlation time), strictly positive.
    """

    sigma: float
    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")


@dataclass(frozen=True)
class NoiseModel:
    """Anisotropic three-component OU model.

    ``transverse`` applies to components 0 and 1, ``longitudinal`` to
    component 2.  The longitudinal axis is the one about which the
    control field precesses.
    """

    transverse: OuParams
    longitudinal: OuParams

    @classmethod
    def from_scalars(
        cls, sigma12: float, gamma12: float, sigma3: float, gamma3: float
    ) -> "NoiseModel":
        return cls(OuParams(sigma12, gamma12), OuParams(sigma3, gamma3))

    def params_for(self, component: int) -> OuParams:
        """Parameter set governing ``component`` (0, 1 transverse; 2 longitudinal)."""
        if component in (0, 1):
            return self.transverse
        if component == 2:
            return self.longitudinal
        raise ValueError(f"component must be 0, 1 or 2, got {component}")


@dataclass(frozen=True)
class NoisePath:
    """A sampled noise realization on a uniform time grid.

    Attributes
    ----------
    times:
        Grid of shape ``(n_steps + 1,)``, uniformly spaced, ascending.
    samples:
        Component samples of shape ``(n_steps + 1, 3)``; column i is K_i
        evaluated on ``times``.
    """

    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        samples = np.asarray(self.samples, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("times must be a 1-d array with at least two entries")
        if samples.shape != (times.size, 3):
            raise ValueError(
                f"samples must have shape {(times.size, 3)}, got {samples.shape}"
            )
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(samples))):
            raise ValueError("times and samples must be finite")
        steps = np.diff(times)
        if steps[0] <= 0.0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("times must be uniformly spaced and ascending")
        times.setflags(write=False)
        samples.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "samples", samples)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def component(self, index: int) -> np.ndarray:
        """Samples of one component as a read-only 1-d view."""
        if index not in (0, 1, 2):
            raise ValueError(f"component index must be 0, 1 or 2, got {index}")
        return self.samples[:, index]


def _draw_innovations(n_steps: int, seed: int) -> np.ndarray:
    """Standard-normal innovations xi of shape (n_steps + 1, 3) for one seed.

    One draw per node and component regardless of the amplitudes, so
    realizations at different sigma share innovations when seeded
    identically and scale exactly linearly in sigma.
    """
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    return rng.standard_normal((int(n_steps) + 1, 3))


def _ou_filter(
    model: NoiseModel, dt: float, values: np.ndarray, *, adjoint: bool = False
) -> np.ndarray:
    """Apply the exact OU transition L, or its transpose, down the node axis.

    ``values`` has shape (n_steps + 1, 3), one column per component.  The
    forward map K = L xi is the recursion in the module docstring with
    K[0] = sigma*xi[0]: an AR(1) pass with the decay over the innovations
    scaled by s = (sigma, innov, innov, ...).  The adjoint u = L^T w is
    the same AR(1) pass run backwards over w, then scaled by s, so that
    ``(w * K).sum() == (u * xi).sum()`` up to rounding.  Components with
    sigma = 0 come out exactly zero in both directions.
    """
    out = np.zeros_like(values)
    for columns, params in (([0, 1], model.transverse), ([2], model.longitudinal)):
        if params.sigma == 0.0:
            continue
        decay = math.exp(-params.gamma * dt)
        innov = params.sigma * math.sqrt(-math.expm1(-2.0 * params.gamma * dt))
        scale = np.full((values.shape[0], 1), innov)
        scale[0] = params.sigma
        if adjoint:
            reverse = lfilter([1.0], [1.0, -decay], values[::-1, columns], axis=0)
            out[:, columns] = scale * reverse[::-1]
        else:
            out[:, columns] = lfilter([1.0], [1.0, -decay], scale * values[:, columns], axis=0)
    return out


def sample_path(
    model: NoiseModel, n_steps: int, dt: float, seed: int
) -> NoisePath:
    """Sample one three-component noise realization.

    Parameters
    ----------
    model:
        Component parameters.
    n_steps:
        Number of steps; the path carries ``n_steps + 1`` samples on the
        grid ``0, dt, ..., n_steps*dt``.
    dt:
        Step size, strictly positive.
    seed:
        Nonnegative integer seed.  Identical arguments give bit-identical
        paths; the three components are mutually independent.

    Notes
    -----
    For a fixed seed the sampled path is exactly linear in ``sigma``:
    scaling ``sigma`` by c scales every sample by c, because the
    underlying standard-normal innovations are reused.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    samples = _ou_filter(model, float(dt), _draw_innovations(int(n_steps), int(seed)))
    times = np.arange(int(n_steps) + 1) * float(dt)
    return NoisePath(times=times, samples=samples)


def autocovariance(params: OuParams, tau: float | np.ndarray) -> float | np.ndarray:
    """Stationary autocovariance sigma**2 * exp(-gamma*|tau|)."""
    tau = np.asarray(tau, dtype=float)
    out = params.sigma**2 * np.exp(-params.gamma * np.abs(tau))
    return float(out) if out.ndim == 0 else out


def estimate_autocovariance(path: NoisePath, component: int, lag_steps: int) -> float:
    """Empirical lag autocovariance of one component of a sampled path.

    Uses the mean of the full component and the unbiased-style divisor
    ``n - lag_steps - 1``, so at lag 0 this is the usual sample variance.
    """
    x = path.component(component)
    n = x.size
    if not isinstance(lag_steps, (int, np.integer)) or lag_steps < 0:
        raise ValueError(f"lag_steps must be a nonnegative integer, got {lag_steps}")
    if n - lag_steps < 2:
        raise ValueError(
            f"lag_steps = {lag_steps} leaves fewer than two sample pairs (n = {n})"
        )
    dx = x - x.mean()
    lag = int(lag_steps)
    products = dx[: n - lag] * dx[lag:]
    return float(products.sum() / (n - lag - 1))
