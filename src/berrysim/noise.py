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
into the inner product (L^T w).xi.  Both directions run one numpy AR(1)
scan, y[k] = d*y[k-1] + x[k], along contiguous rows: one pass per
parameter set, so one for all three components when their parameters
are equal.  The filter works component-major, one row of nodes per
component, and computes its per-grid constants once per grid
(``_filter_plan``), so an ensemble's trials share them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import _count

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


# Values per block of the AR(1) scan, and the largest exponent j*ln(1/d) that
# its in-block scaling d**-j may reach, so that scaled values stay finite.
_AR1_BLOCK = 4096
_AR1_SPAN = 200.0


def _ar1_block(d: float) -> int:
    """Block length of the AR(1) scan at decay d, at most ``_AR1_BLOCK``."""
    u = -math.log(d) if d > 0.0 else math.inf
    return min(_AR1_BLOCK, 1 + int(_AR1_SPAN / u)) if u > 0.0 else _AR1_BLOCK


def _ar1_plan(d: float, n: int) -> tuple[int, int, np.ndarray]:
    """(width, block, d**arange(block)) of the AR(1) scan of n values; width >= n
    is the whole number of blocks the scan pads them to."""
    n_blocks = -(-n // _ar1_block(d))
    block = -(-n // n_blocks)
    powers = d ** np.arange(block)
    powers.setflags(write=False)  # cached plans share it
    return n_blocks * block, block, powers


def _ar1_scan(y: np.ndarray, d: float, plan: tuple) -> None:
    """y[k] = d*y[k-1] + y[k] in place along rows of ``width`` contiguous values, zero-padded.

    0 <= d <= 1.  Within a block of B values, y[j] = d**j * (cumsum(y / d**j) + d*c),
    where c is the value the previous block ends on.  B keeps d**-j below
    exp(_AR1_SPAN), and B = 1 when d underflows to 0.  The block end values
    c come from a doubling scan over blocks with decay d**B (Hillis &
    Steele, CACM 29(12), 1986), which stops once that decay underflows to
    zero.  The work is O(width), and all-zero rows stay exactly zero.
    """
    _, block, powers = plan
    y = y.reshape(y.shape[:-1] + (-1, block), copy=False)
    y /= powers
    np.cumsum(y, axis=-1, out=y)
    carry = powers[-1] * y[..., -1]
    step, decay = 1, d**block
    while step < y.shape[-2] and decay > 0.0:
        carry[..., step:] += decay * carry[..., :-step]
        step, decay = 2 * step, decay * decay
    y[..., 1:, :] += d * carry[..., :-1, None]
    y *= powers


@functools.lru_cache(maxsize=8)
def _filter_plan(model: NoiseModel, dt: float, n: int) -> tuple[int, tuple]:
    """(width, parts): the constants of :func:`_ou_filter` over n nodes, once per grid.

    A part is (rows, sigma, innov, decay, AR(1) plan) for the components
    that share a parameter set; a part with sigma = 0 is left out.  width
    is the widest part's padded scan.
    """
    parts = ((slice(0, 2), model.transverse), (slice(2, 3), model.longitudinal))
    if model.transverse == model.longitudinal:
        parts = ((slice(0, 3), model.transverse),)
    planned = []
    for rows, params in parts:
        if params.sigma == 0.0:
            continue
        decay = math.exp(-params.gamma * dt)
        innov = params.sigma * math.sqrt(-math.expm1(-2.0 * params.gamma * dt))
        planned.append((rows, params.sigma, innov, decay, _ar1_plan(decay, n)))
    return max((part[-1][0] for part in planned), default=n), tuple(planned)


def _ou_filter(
    model: NoiseModel, dt: float, values: np.ndarray, *, adjoint: bool = False
) -> np.ndarray:
    """Apply the exact OU transition L, or its transpose, along the node axis.

    ``values`` has shape (3, n_steps + 1), one row per component, and so
    has the result, whose rows are contiguous.  The forward map K = L xi
    is the recursion in the module docstring with K[0] = sigma*xi[0]: an
    AR(1) pass with the decay over the innovations scaled by
    s = (sigma, innov, innov, ...).  The adjoint u = L^T w is the same
    AR(1) pass run backwards over w, then scaled by s, so that
    ``(w * K).sum() == (u * xi).sum()`` up to rounding.  Components with
    equal parameters share a pass, in place in their rows of one padded
    buffer, and those with sigma = 0 come out exactly zero in both
    directions.
    """
    n = values.shape[-1]
    width, parts = _filter_plan(model, dt, n)
    out = np.zeros((3, width))
    for rows, sigma, innov, decay, plan in parts:
        y = out[rows, :plan[0]]
        y[:, :n] = values[rows, ::-1] if adjoint else values[rows]
        if adjoint:
            _ar1_scan(y, decay, plan)
            y[:, :n] = y[:, n - 1::-1]
        y[:, 0] *= sigma
        y[:, 1:n] *= innov
        if not adjoint:
            _ar1_scan(y, decay, plan)
    return out[:, :n]


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
    n_steps = _count("n_steps", n_steps, 1)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    seed = _count("seed", seed, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = _ou_filter(model, float(dt), _draw_innovations(n_steps, seed).T).T
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"noise samples overflow float64 at sigma12={model.transverse.sigma:g}, "
                         f"sigma3={model.longitudinal.sigma:g}")
    samples.setflags(write=False)
    return samples
