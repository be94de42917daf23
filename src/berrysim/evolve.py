"""Exact two-level evolution and geometric-phase extraction.

The spin evolves under H(t) = (1/2) B_T(t) . sigma with B_T the sum of
the control field and a sampled noise path.  Each step applies the exact
propagator of the field frozen at the step midpoint,

    U = cos(|b| dt / 2) I - i sin(|b| dt / 2) (b_hat . sigma),

so the only discretization error is the O(dt**2) commutator remainder.
One kernel (``_evolve``) takes the total field at the grid nodes and
step midpoints; the states at all nodes come from one blocked prefix
product of the SU(2) steps (``_node_states``), and the phases and
diagnostics are array reductions over them, with no per-step Python
loop.  ``evolve_and_extract`` builds both field grids from a spec and a
noise path and adds the mean energy and the trace; Monte Carlo
ensembles compute the control field once and call the kernel per trial.

Phase conventions
-----------------
``total_phase`` is the accumulated (unwrapped) phase of the overlap with
the initial state.  ``dynamical_phase`` integrates the adiabatic branch
eigenvalue, -/+ (1/2) integral |B_T| dt for the upper/lower branch.
Their difference still carries the half-turn of the spinor per winding
of the field azimuth, so the reported ``geometric_phase`` is

    wrap(total_phase - dynamical_phase + pi * winding)

folded to (-pi, pi], where ``winding`` counts full turns of the
transverse total field.  For a clean loop at cone angle theta0 this
reproduces pi*cos(theta0) per turn, and 0 when the field sits on the z
axis and never winds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ResolutionError
from .field import PrecessionSpec, SphericalAngles, control_field, polar_angles
from .noise import NoisePath

__all__ = [
    "SpinState",
    "IntegratorConfig",
    "PhaseExtraction",
    "TrajectoryTrace",
    "eigenstate_up",
    "eigenstate_down",
    "evolve_and_extract",
    "connection_phase_discrete",
]

_TINY_FIELD = 1e-300


def _wrap_pm_pi(x: float) -> float:
    """Fold an angle to (-pi, pi]."""
    w = math.remainder(x, math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


@dataclass(frozen=True)
class SpinState:
    """A pure spin-1/2 state with amplitudes on the z basis."""

    amp_up: complex
    amp_down: complex

    @property
    def norm(self) -> float:
        return math.sqrt(abs(self.amp_up) ** 2 + abs(self.amp_down) ** 2)

    def normalized(self) -> "SpinState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return SpinState(self.amp_up / n, self.amp_down / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.amp_up, self.amp_down], dtype=complex)


def eigenstate_up(angles: SphericalAngles) -> SpinState:
    """Upper eigenstate of b_hat . sigma in the half-angle gauge."""
    half = 0.5 * angles.theta
    return SpinState(
        cmath.exp(-0.5j * angles.phi) * math.cos(half),
        cmath.exp(0.5j * angles.phi) * math.sin(half),
    )


def eigenstate_down(angles: SphericalAngles) -> SpinState:
    """Lower eigenstate, orthogonal to :func:`eigenstate_up`."""
    half = 0.5 * angles.theta
    return SpinState(
        cmath.exp(-0.5j * angles.phi) * math.sin(half),
        -cmath.exp(0.5j * angles.phi) * math.cos(half),
    )


def _eigenvector_chain(theta: np.ndarray, phi: np.ndarray, branch: str) -> np.ndarray:
    """Stack of branch eigenvectors for arrays of angles, shape (n, 2).

    ``phi`` may be unwrapped; the half-angle gauge is continuous in it.
    """
    half = 0.5 * np.asarray(theta, dtype=float)
    ephi = np.exp(-0.5j * np.asarray(phi, dtype=float))
    if branch == "up":
        return np.stack([ephi * np.cos(half), np.conj(ephi) * np.sin(half)], axis=-1)
    return np.stack([ephi * np.sin(half), -np.conj(ephi) * np.cos(half)], axis=-1)


def _step_coefficients(
    b: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cayley-Klein pair of the exact step propagators, and the field modulus.

    A field ``b`` (shape ``(..., 3)``) frozen over ``dt`` propagates by
    ``U = [[a, b], [-conj(b), conj(a)]]`` with

        a = cos(|b| dt / 2) - i s b_z,   b = -s b_y - i s b_x,
        s = sin(|b| dt / 2) / |b|,

    and s = 0 on degenerate steps (|b| below ``_TINY_FIELD``), where U is
    the identity.  Returns ``(a, b, |b|)``.
    """
    nb = np.linalg.norm(b, axis=-1)
    half = 0.5 * nb * dt
    s = np.where(nb >= _TINY_FIELD, np.sin(half) / np.maximum(nb, _TINY_FIELD), 0.0)
    a = np.cos(half) - 1j * (s * b[..., 2])
    off = -(s * b[..., 1]) - 1j * (s * b[..., 0])
    return a, off, nb


def _node_states(
    a: np.ndarray, b: np.ndarray, u0: complex, d0: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Spinor amplitudes at every node, psi_k = U_{k-1} ... U_0 psi_0.

    A two-level blocked prefix product of the step propagators given by
    their Cayley-Klein pairs ``(a, b)``.  The n steps are cut into blocks
    of m (the last one padded with identities):

    1. within blocks, the running products of each block, one row of m
       at a time, vectorised across blocks;
    2. across blocks, a scalar pass carries the state from block to block
       with each block's full product;
    3. apply, each running product acts on the state entering its block.

    The work is O(n); the Python-level iterations are m + n/m.  A row of
    the first pass costs about eight numpy calls against one scalar
    update per block in the second, so m ~ sqrt(n / 8) balances them.
    """
    n = a.size
    m = max(1, math.isqrt(n // 8))
    n_blocks = -(-n // m)
    # Row i, column j holds step j*m + i.
    pa = np.ones(n_blocks * m, dtype=complex)
    pb = np.zeros(n_blocks * m, dtype=complex)
    pa[:n] = a
    pb[:n] = b
    pa = pa.reshape(n_blocks, m).T.copy()
    pb = pb.reshape(n_blocks, m).T.copy()
    for i in range(1, m):
        # (U_i) @ (running product): a = a_i a - b_i conj(b), b = a_i b + b_i conj(a)
        prev_a = pa[i - 1]
        prev_b = pb[i - 1]
        next_a = pa[i] * prev_a - pb[i] * prev_b.conj()
        pb[i] = pa[i] * prev_b + pb[i] * prev_a.conj()
        pa[i] = next_a

    entry_u = []
    entry_d = []
    u = u0
    d = d0
    for ta, tb in zip(pa[-1].tolist(), pb[-1].tolist()):
        entry_u.append(u)
        entry_d.append(d)
        u, d = ta * u + tb * d, ta.conjugate() * d - tb.conjugate() * u
    su = np.array(entry_u)
    sd = np.array(entry_d)

    amp_up = np.empty(n + 1, dtype=complex)
    amp_down = np.empty(n + 1, dtype=complex)
    amp_up[0] = u0
    amp_down[0] = d0
    amp_up[1:] = (pa * su + pb * sd).T.reshape(-1)[:n]
    amp_down[1:] = (pa.conj() * sd - pb.conj() * su).T.reshape(-1)[:n]
    return amp_up, amp_down


@dataclass(frozen=True)
class IntegratorConfig:
    """Resolution and diagnostics thresholds for the evolution loop."""

    steps_per_cycle: int = 4096
    leakage_warn_threshold: float = 1e-3

    def __post_init__(self) -> None:
        if not isinstance(self.steps_per_cycle, (int, np.integer)) or self.steps_per_cycle < 16:
            raise ValueError(
                f"steps_per_cycle must be an integer >= 16, got {self.steps_per_cycle}"
            )
        if not (
            math.isfinite(self.leakage_warn_threshold)
            and self.leakage_warn_threshold > 0.0
        ):
            raise ValueError("leakage_warn_threshold must be finite and positive")
        object.__setattr__(self, "steps_per_cycle", int(self.steps_per_cycle))


@dataclass(frozen=True)
class PhaseExtraction:
    """Phases and diagnostics extracted from one evolution.

    ``geometric_phase`` is folded to (-pi, pi] as described in the module
    docstring; ``geometric_phase_raw`` is the unfolded difference
    ``total_phase - dynamical_phase``.  ``mean_energy_integral`` is the
    integral of <psi|H|psi>, kept as a diagnostic; it differs from the
    eigenvalue integral at second order in the non-adiabaticity.
    """

    total_phase: float
    dynamical_phase: float
    geometric_phase: float
    leakage: float
    field_modulus_integral: float
    mean_energy_integral: float
    winding: int
    degenerate_steps: int
    non_adiabatic: bool
    branch: str

    @property
    def geometric_phase_raw(self) -> float:
        return self.total_phase - self.dynamical_phase


@dataclass(frozen=True)
class TrajectoryTrace:
    """Per-node amplitudes, instantaneous energy and accumulated phases."""

    times: np.ndarray
    amp_up: np.ndarray
    amp_down: np.ndarray
    energy: np.ndarray
    total_phase: np.ndarray
    dynamical_phase: np.ndarray


def _winding_number(b_nodes: np.ndarray) -> tuple[int, np.ndarray]:
    """Turns of the transverse field, from the unwrapped node azimuths.

    Adding 0.0 squashes IEEE negative zeros, which would otherwise make
    atan2 report +/-pi on an identically zero transverse component.
    """
    azimuth = np.unwrap(np.arctan2(b_nodes[:, 1] + 0.0, b_nodes[:, 0] + 0.0))
    return int(round((azimuth[-1] - azimuth[0]) / math.tau)), azimuth


def _check_path_grid(path: NoisePath, spec: PrecessionSpec, n_steps: int) -> None:
    if path.n_steps != n_steps:
        raise ValueError(
            f"path has {path.n_steps} steps but the integrator needs {n_steps}; "
            "sample the path on the integration grid"
        )
    tol = 1e-9 * max(1.0, spec.t_total)
    if abs(path.times[0]) > tol or abs(path.times[-1] - spec.t_total) > tol:
        raise ValueError("path grid must span [0, t_total]")


def _control_grids(
    spec: PrecessionSpec, n_steps: int, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Control field at the grid nodes and at the step midpoints.

    Raises :class:`ResolutionError` when one step turns the field by
    pi/4 or more.
    """
    if spec.b0 * dt >= 0.25 * math.pi:
        raise ResolutionError(
            f"b0*dt = {spec.b0 * dt:.3g} exceeds pi/4; increase steps_per_cycle"
        )
    nodes = control_field(spec, np.minimum(np.arange(n_steps + 1) * dt, spec.t_total))
    return nodes, control_field(spec, (np.arange(n_steps) + 0.5) * dt)


@dataclass(frozen=True)
class _Evolution:
    """Node amplitudes, phases and diagnostics of one evolution."""

    amp_up: np.ndarray
    amp_down: np.ndarray
    total_phase: np.ndarray
    field_modulus: np.ndarray
    field_modulus_integral: float
    dynamical_phase: float
    geometric_phase: float
    winding: int
    degenerate_steps: int
    leakage: float


def _evolve(b_nodes: np.ndarray, b_mid: np.ndarray, dt: float, branch: str) -> _Evolution:
    """The evolution kernel, from the total field at the n + 1 nodes and n midpoints.

    The state starts in the branch eigenstate of ``b_nodes[0]``; step k
    applies the exact propagator of ``b_mid[k]`` over ``dt``.
    """
    winding, _ = _winding_number(b_nodes)
    step_a, step_b, nb = _step_coefficients(b_mid, dt)
    field_modulus_integral = float(nb.sum() * dt)

    start = polar_angles(b_nodes[0])
    state0 = eigenstate_up(start) if branch == "up" else eigenstate_down(start)
    u0 = complex(state0.amp_up)
    d0 = complex(state0.amp_down)
    amp_up, amp_down = _node_states(step_a, step_b, u0, d0)

    # Total phase: the overlap with the initial state, unwrapped step by step.
    overlap0 = u0.conjugate() * amp_up + d0.conjugate() * amp_down
    overlap0[0] = 1.0
    total_prefix = np.zeros(nb.size + 1)
    np.cumsum(np.angle(overlap0[1:] * overlap0[:-1].conj()), out=total_prefix[1:])
    total = float(total_prefix[-1])

    end = polar_angles(b_nodes[-1])
    ref = eigenstate_up(end) if branch == "up" else eigenstate_down(end)
    overlap = ref.amp_up.conjugate() * amp_up[-1] + ref.amp_down.conjugate() * amp_down[-1]

    sign = 1.0 if branch == "up" else -1.0
    dynamical = -sign * 0.5 * field_modulus_integral
    return _Evolution(
        amp_up=amp_up,
        amp_down=amp_down,
        total_phase=total_prefix,
        field_modulus=nb,
        field_modulus_integral=field_modulus_integral,
        dynamical_phase=dynamical,
        geometric_phase=_wrap_pm_pi(total - dynamical + math.pi * winding),
        winding=winding,
        degenerate_steps=int(np.count_nonzero(nb < _TINY_FIELD)),
        leakage=max(0.0, 1.0 - abs(complex(overlap)) ** 2),
    )


def evolve_and_extract(
    spec: PrecessionSpec,
    path: NoisePath | None = None,
    config: IntegratorConfig | None = None,
    *,
    branch: str = "up",
    return_trace: bool = False,
) -> PhaseExtraction | tuple[PhaseExtraction, TrajectoryTrace]:
    """Evolve from the initial branch eigenstate and extract the phases.

    The state starts in the chosen eigenstate of the total field at t=0
    (control plus the first noise sample).  ``path``, when given, must be
    sampled on the integration grid: ``steps_per_cycle * n_cycles`` steps
    spanning ``[0, t_total]``.  Noise is averaged over step endpoints,
    the control field is evaluated at step midpoints.
    """
    if branch not in ("up", "down"):
        raise ValueError(f"branch must be 'up' or 'down', got {branch!r}")
    config = config if config is not None else IntegratorConfig()
    n_steps = config.steps_per_cycle * spec.n_cycles
    dt = spec.t_total / n_steps
    control_nodes, control_mid = _control_grids(spec, n_steps, dt)
    if path is None:
        k_nodes = np.zeros((n_steps + 1, 3))
    else:
        _check_path_grid(path, spec, n_steps)
        k_nodes = path.samples
    b_nodes = control_nodes + k_nodes
    b_mid = control_mid + 0.5 * (k_nodes[:-1] + k_nodes[1:])
    run = _evolve(b_nodes, b_mid, dt, branch)

    cross = np.conj(run.amp_up) * run.amp_down
    pz = np.abs(run.amp_up) ** 2 - np.abs(run.amp_down) ** 2
    bloch = np.stack([2.0 * cross.real, 2.0 * cross.imag, pz], axis=1)
    extraction = PhaseExtraction(
        total_phase=float(run.total_phase[-1]),
        dynamical_phase=run.dynamical_phase,
        geometric_phase=run.geometric_phase,
        leakage=run.leakage,
        field_modulus_integral=run.field_modulus_integral,
        mean_energy_integral=0.5 * dt * float(np.sum(b_mid * bloch[:-1])),
        winding=run.winding,
        degenerate_steps=run.degenerate_steps,
        non_adiabatic=run.leakage > config.leakage_warn_threshold,
        branch=branch,
    )
    if not return_trace:
        return extraction
    sign = 1.0 if branch == "up" else -1.0
    trace = TrajectoryTrace(
        times=np.arange(n_steps + 1) * dt,
        amp_up=run.amp_up,
        amp_down=run.amp_down,
        energy=0.5 * np.sum(b_nodes * bloch, axis=1),
        total_phase=run.total_phase,
        dynamical_phase=np.concatenate([[0.0], -sign * 0.5 * np.cumsum(run.field_modulus * dt)]),
    )
    return extraction, trace


def connection_phase_discrete(
    spec: PrecessionSpec,
    path: NoisePath | None = None,
    n_points: int | None = None,
    *,
    branch: str = "up",
) -> float:
    """Geometric phase from a discrete eigenstate chain.

    Builds branch eigenstates along the (noisy) field direction, forms
    the Pancharatnam product of successive overlaps and closes the chain
    onto the starting eigenstate continued through the field's winding.
    This never integrates the dynamical phase, so it cross-checks the
    evolution-based extraction through an independent route.  The result
    is folded into (-pi, pi], matching :func:`evolve_and_extract`.

    ``n_points`` defaults to the path resolution (or 64 per cycle for the
    noiseless chain) and must divide the path step count.  Raises
    :class:`ResolutionError` when a chain link or the closing overlap is
    too small to resolve the phase.
    """
    if branch not in ("up", "down"):
        raise ValueError(f"branch must be 'up' or 'down', got {branch!r}")
    if path is None:
        if n_points is None:
            n_points = max(256, 64 * spec.n_cycles)
        _check_n_points(n_points)
        full_times = np.linspace(0.0, spec.t_total, int(n_points) + 1)
        b_full = control_field(spec, full_times)
        idx = np.arange(int(n_points) + 1)
    else:
        if n_points is None:
            n_points = path.n_steps
        _check_n_points(n_points)
        if path.n_steps % int(n_points):
            raise ValueError(
                f"n_points = {n_points} must divide the path step count {path.n_steps}"
            )
        _check_path_grid(path, spec, path.n_steps)
        b_full = control_field(spec, np.minimum(path.times, spec.t_total)) + path.samples
        idx = np.arange(0, path.n_steps + 1, path.n_steps // int(n_points))

    r_full = np.linalg.norm(b_full, axis=1)
    if np.any(r_full < _TINY_FIELD):
        raise DegeneracyError("total field vanishes along the path")
    winding, azimuth = _winding_number(b_full)

    b_chain = b_full[idx]
    r_chain = r_full[idx]
    theta = np.arccos(np.clip(b_chain[:, 2] / r_chain, -1.0, 1.0))
    phi = azimuth[idx]
    vecs = _eigenvector_chain(theta, phi, branch)
    links = np.sum(np.conj(vecs[:-1]) * vecs[1:], axis=1)
    if np.min(np.abs(links)) < 0.5:
        raise ResolutionError(
            "chain link overlap below 0.5; increase n_points to resolve the path"
        )
    closing_ref = _eigenvector_chain(
        theta[:1], phi[:1] + math.tau * winding, branch
    )[0]
    closing = np.sum(np.conj(vecs[-1]) * closing_ref)
    if abs(closing) < 0.5:
        raise ResolutionError(
            "closing overlap below 0.5; endpoint strays too far from the start"
        )
    return _wrap_pm_pi(float(-(np.sum(np.angle(links)) + np.angle(closing))))


def _check_n_points(n_points) -> None:
    if not isinstance(n_points, (int, np.integer)) or n_points < 64:
        raise ValueError(f"n_points must be an integer >= 64, got {n_points}")
