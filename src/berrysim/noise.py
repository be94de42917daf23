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
into the inner product (L^T w).xi.  Both directions, and the kernel of
the quadrature oracle in :mod:`berrysim.analytics`, run one numpy AR(1)
scan, y[k] = d*y[k-1] + x[k], in column layout: one pass per parameter
set, so one for all three components when their parameters are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OuParams",
    "NoiseModel",
    "sample_path",
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


def _draw_innovations(n_steps: int, seed: int) -> np.ndarray:
    """Standard-normal innovations xi of shape (n_steps + 1, 3) for one seed.

    One draw per node and component regardless of the amplitudes, so
    realizations at different sigma share innovations when seeded
    identically and scale exactly linearly in sigma.
    """
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    return rng.standard_normal((int(n_steps) + 1, 3))


# Rows per block of the AR(1) scan, and the largest exponent j*ln(1/d) that
# its in-block scaling d**-j may reach, so that scaled values stay finite.
_AR1_BLOCK = 4096
_AR1_SPAN = 200.0


def _ar1_block(d: float) -> int:
    """Block length of the AR(1) scan at decay d, at most ``_AR1_BLOCK``."""
    u = -math.log(d) if d > 0.0 else math.inf
    return min(_AR1_BLOCK, 1 + int(_AR1_SPAN / u)) if u > 0.0 else _AR1_BLOCK


def _ar1(x: np.ndarray, d: float) -> np.ndarray:
    """y[k] = d*y[k-1] + x[k] down axis 0, with y[0] = x[0] and 0 <= d <= 1.

    Within a block of B rows, y[j] = d**j * (cumsum(x / d**j) + d*c), where
    c is the value the previous block ends on.  B keeps d**-j below
    exp(_AR1_SPAN), and B = 1 when d underflows to 0.  The block end values
    c come from a doubling scan over blocks with decay d**B (Hillis &
    Steele, CACM 29(12), 1986), which stops once that decay underflows to
    zero.  The work is O(len(x)), and all-zero columns come out exactly zero.
    Each column is scanned over contiguous memory; the result is a view.
    """
    n = x.shape[0]
    rest = x.shape[1:][::-1]
    n_blocks = -(-n // _ar1_block(d))
    block = -(-n // n_blocks)
    y = np.zeros(rest + (n_blocks * block,))
    y[..., :n] = x.T
    y = y.reshape(rest + (n_blocks, block))
    powers = d ** np.arange(block)
    y /= powers
    np.cumsum(y, axis=-1, out=y)
    carry = powers[-1] * y[..., -1]
    step, decay = 1, d**block
    while step < n_blocks and decay > 0.0:
        carry[..., step:] += decay * carry[..., :-step]
        step, decay = 2 * step, decay * decay
    y[..., 1:, :] += d * carry[..., :-1, None]
    y *= powers
    return y.reshape(rest + (n_blocks * block,))[..., :n].T


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
    equal parameters share a pass, and those with sigma = 0 come out
    exactly zero in both directions.
    """
    out = np.zeros_like(values)
    parts = (([0, 1], model.transverse), ([2], model.longitudinal))
    if model.transverse == model.longitudinal:
        parts = (([0, 1, 2], model.transverse),)
    for columns, params in parts:
        if params.sigma == 0.0:
            continue
        decay = math.exp(-params.gamma * dt)
        innov = params.sigma * math.sqrt(-math.expm1(-2.0 * params.gamma * dt))
        scale = np.full((values.shape[0], 1), innov)
        scale[0] = params.sigma
        if adjoint:
            out[:, columns] = scale * _ar1(values[::-1, columns], decay)[::-1]
        else:
            out[:, columns] = _ar1(scale * values[:, columns], decay)
    return out


def sample_path(model: NoiseModel, n_steps: int, dt: float, seed: int) -> np.ndarray:
    """Sample one three-component noise realization K at the grid nodes.

    Returns a read-only array of shape ``(n_steps + 1, 3)``: row k is K at
    time ``k*dt`` and column i is the component K_i.

    Parameters
    ----------
    model:
        Component parameters.
    n_steps:
        Number of steps, a positive integer.
    dt:
        Step size, strictly positive.
    seed:
        Nonnegative integer seed.  Identical arguments give bit-identical
        paths; the three components are mutually independent.

    Notes
    -----
    For a fixed seed the sampled path is exactly linear in ``sigma``:
    scaling ``sigma`` by c scales every sample by c, because the
    underlying standard-normal innovations are reused.  A sigma large
    enough to overflow a sample, near 1e308, raises ValueError.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    with np.errstate(over="ignore", invalid="ignore"):
        samples = _ou_filter(model, float(dt), _draw_innovations(int(n_steps), int(seed)))
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"noise samples overflow float64 at sigma12={model.transverse.sigma:g}, "
                         f"sigma3={model.longitudinal.sigma:g}")
    samples.setflags(write=False)
    return samples
