"""Exact two-level evolution and geometric-phase extraction.

The spin evolves under H(t) = (1/2) B_T(t) . sigma with B_T the sum of
the control field and a sampled noise path.  Each step applies the exact
propagator of the field frozen at the step midpoint,

    U = cos(|b| dt / 2) I - i sin(|b| dt / 2) (b_hat . sigma),

so the only discretization error is the O(dt**2) commutator remainder.
One kernel (``_evolve``) takes the control field at the grid nodes and
step midpoints and the noise K at the nodes; K enters the midpoint field
as the mean of the step's two end-node values.  One tree of products
serves both of its outputs (``_product_tree``).  Its up-sweep multiplies
the steps' Cayley-Klein pairs pairwise in log2(n) vectorised levels up
to the whole propagator, and the kernel applies that root to the start
state; the phases and the leakage follow from the final state alone.
Its value, a :class:`PhaseExtraction`, is the one evolution result: it
holds those scalars, the field at every node and the tree's levels, and
builds the trajectory only when it is read.  The down-sweep of the same
tree gives the states at every node, then come the unwrapped total
phase, the Bloch vector, the energy and its integral.  Neither sweep
has a per-step Python loop.
A noise realization is the array of K at the grid nodes, and the grid is
fixed by the spec and the config alone: ``steps_per_cycle * n_cycles``
steps over ``[0, t_total]``.  ``evolve_and_extract`` builds the control
grids from a spec and runs the kernel on such an array; Monte Carlo
ensembles build the control grids once and run the kernel per trial.
The discrete connection chain runs on a node field, such as the
kernel's ``b_nodes``.  Branch eigenstates, for the kernel's start state
and end reference and for the chain, come from one array builder
(``_eigenvector_chain``) in the half-angle gauge.

Phase conventions
-----------------
``total_phase`` is the accumulated (unwrapped) phase of the overlap with
the initial state.  ``dynamical_phase`` integrates the adiabatic branch
eigenvalue, -/+ (1/2) integral |B_T| dt for the upper/lower branch.
Their difference still carries the half-turn of the spinor per winding
of the field azimuth, so the reported ``geometric_phase`` is

    wrap(total_phase - dynamical_phase + pi * winding)

folded to (-pi, pi], where ``winding`` counts full turns of the
transverse total field.  The per-step increments of the total phase
telescope, so the kernel takes it mod 2 pi as arg<psi_0|psi(T)>, and
the winding from the branch-cut crossings of the node azimuths.  For a
clean loop at cone angle theta0 this reproduces pi*cos(theta0) per
turn, and 0 when the field sits on the z axis and never winds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneracyError, ResolutionError
from .field import PrecessionSpec, control_field, polar_angles

__all__ = [
    "IntegratorConfig",
    "PhaseExtraction",
    "evolve_and_extract",
    "connection_phase_discrete",
]

_TINY_FIELD = 1e-300
# Leakage above this marks an evolution as non-adiabatic.
_LEAKAGE_WARN_THRESHOLD = 1e-3


def _wrap_pm_pi(x: float) -> float:
    """Fold an angle to (-pi, pi]."""
    w = math.remainder(x, math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


def _eigenvector_chain(theta: np.ndarray, phi: np.ndarray, branch: str) -> np.ndarray:
    """Stack of branch eigenvectors for arrays of angles, shape (n, 2).

    The upper branch is (exp(-i phi/2) cos(theta/2), exp(i phi/2) sin(theta/2)),
    the eigenvector of b_hat . sigma with eigenvalue +1 in the half-angle
    gauge; the lower branch (exp(-i phi/2) sin(theta/2),
    -exp(i phi/2) cos(theta/2)) is orthogonal to it.  ``phi`` may be
    unwrapped; the gauge is continuous in it.
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
    the identity.  Returns ``(a, b, |b|)``.  Raises ``ValueError`` when
    |b| is not finite, as when the noise is strong enough to overflow it.
    """
    x, y, z = b[..., 0], b[..., 1], b[..., 2]
    with np.errstate(over="ignore"):
        nb = np.sqrt(x * x + y * y + z * z)  # bitwise np.linalg.norm(b, axis=-1)
    if not np.all(np.isfinite(nb)):
        raise ValueError("total field modulus is not finite; the noise overflows it")
    half = 0.5 * nb * dt
    s = np.where(nb >= _TINY_FIELD, np.sin(half) / np.maximum(nb, _TINY_FIELD), 0.0)
    a = np.cos(half) - 1j * (s * z)
    off = -(s * y) - 1j * (s * x)
    return a, off, nb


def _apply(a, b, u, d):
    """The propagator of Cayley-Klein pair ``(a, b)`` applied to the state ``(u, d)``."""
    return a * u + b * d, a.conjugate() * d - b.conjugate() * u


def _product_tree(
    a: np.ndarray, b: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Levels of the pairwise (tree) product of the step pairs ``(a, b)``.

    Level 0 is the step pairs.  Each level multiplies every pair by the
    one after it, the later one on the left, vectorised over the level,
    and pads a level of odd length with the identity first; levels are
    kept as padded.  The last level holds one pair, the whole propagator
    U_{n-1} ... U_0, after ceil(log2(n)) products, twelve for 4,096 steps.
    This is the up-sweep of a work-efficient scan (Blelloch 1990);
    ``PhaseExtraction`` runs the down-sweep for the node states.
    """
    levels = []
    while a.size > 1:
        if a.size % 2:
            a = np.append(a, 1.0)
            b = np.append(b, 0.0)
        levels.append((a, b))
        early_a, late_a = a[0::2], a[1::2]
        early_b, late_b = b[0::2], b[1::2]
        a, b = (late_a * early_a - late_b * early_b.conj(),
                late_a * early_b + late_b * early_a.conj())
    levels.append((a, b))
    return levels


@dataclass(frozen=True)
class IntegratorConfig:
    """Evolution grid resolution."""

    steps_per_cycle: int = 4096

    def __post_init__(self) -> None:
        if not isinstance(self.steps_per_cycle, (int, np.integer)) or self.steps_per_cycle < 16:
            raise ValueError(
                f"steps_per_cycle must be an integer >= 16, got {self.steps_per_cycle}"
            )
        object.__setattr__(self, "steps_per_cycle", int(self.steps_per_cycle))


@dataclass(frozen=True, eq=False)
class PhaseExtraction:
    """One evolution: the phases and diagnostics, with the field and the steps.

    The kernel computes the scalars from the final state alone.  Arrays
    run over the n + 1 grid nodes (``b_nodes``) or the n steps
    (``b_mid``, ``field_modulus``); ``b_nodes`` and ``b_mid`` are the
    total field, and ``start`` is the state at t=0.  ``levels`` are the
    levels of the product tree of the step propagators' Cayley-Klein
    pairs, from the steps to the whole propagator (``_product_tree``).
    ``geometric_phase`` is folded to (-pi, pi] as described in the
    module docstring.  ``non_adiabatic`` flags leakage above
    ``_LEAKAGE_WARN_THRESHOLD``.

    The trajectory is built from the tree's down-sweep when it is first
    read: the states at every node (``amp_up``, ``amp_down``), the
    last one bitwise the kernel's final state, the unwrapped
    ``total_phase_nodes``, their last entry ``total_phase``, and
    ``geometric_phase_raw``, the unfolded difference
    ``total_phase - dynamical_phase``.  ``energy`` (<psi|H|psi> at each
    node) and ``mean_energy_integral`` (its integral over the midpoint
    field, a diagnostic that differs from the eigenvalue integral at
    second order in the non-adiabaticity) share one Bloch vector, built
    when either is first read.
    """

    branch: str
    dt: float
    b_nodes: np.ndarray
    b_mid: np.ndarray
    levels: list[tuple[np.ndarray, np.ndarray]]
    start: tuple[complex, complex]
    field_modulus: np.ndarray
    dynamical_phase: float
    geometric_phase: float
    leakage: float
    field_modulus_integral: float
    winding: int
    degenerate_steps: int
    non_adiabatic: bool

    @cached_property
    def _amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        # The down-sweep, from the root to level 0: the state entering a
        # left child is its parent's, and the state entering a right child
        # is the left child's product applied to it.  At level 0 these are
        # the states at nodes 0 .. n-1; the last node is the root applied
        # to the start, as the kernel forms its final state.
        u0, d0 = self.start
        u, d = np.array([u0]), np.array([d0])
        for a, b in reversed(self.levels[:-1]):
            parents = a.size // 2
            enter_u = np.empty(a.size, dtype=complex)
            enter_d = np.empty(a.size, dtype=complex)
            enter_u[0::2], enter_d[0::2] = u[:parents], d[:parents]
            enter_u[1::2], enter_d[1::2] = _apply(a[0::2], b[0::2], u[:parents], d[:parents])
            u, d = enter_u, enter_d
        root_a, root_b = self.levels[-1]
        last_u, last_d = _apply(complex(root_a[0]), complex(root_b[0]), u0, d0)
        n = self.field_modulus.size
        return np.append(u[:n], last_u), np.append(d[:n], last_d)

    @property
    def amp_up(self) -> np.ndarray:
        return self._amplitudes[0]

    @property
    def amp_down(self) -> np.ndarray:
        return self._amplitudes[1]

    @cached_property
    def total_phase_nodes(self) -> np.ndarray:
        """The overlap with the initial state, its phase unwrapped step by step."""
        u0, d0 = self.start
        overlap0 = u0.conjugate() * self.amp_up + d0.conjugate() * self.amp_down
        overlap0[0] = 1.0
        total = np.zeros(overlap0.size)
        np.cumsum(np.angle(overlap0[1:] * overlap0[:-1].conj()), out=total[1:])
        return total

    @property
    def total_phase(self) -> float:
        return float(self.total_phase_nodes[-1])

    @property
    def geometric_phase_raw(self) -> float:
        return self.total_phase - self.dynamical_phase

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.b_nodes.shape[0]) * self.dt

    @property
    def dynamical_phase_nodes(self) -> np.ndarray:
        """The dynamical phase accumulated up to each node."""
        sign = 1.0 if self.branch == "up" else -1.0
        return np.concatenate([[0.0], -sign * 0.5 * np.cumsum(self.field_modulus * self.dt)])

    @cached_property
    def _bloch(self) -> np.ndarray:
        cross = np.conj(self.amp_up) * self.amp_down
        pz = np.abs(self.amp_up) ** 2 - np.abs(self.amp_down) ** 2
        return np.stack([2.0 * cross.real, 2.0 * cross.imag, pz], axis=1)

    @property
    def energy(self) -> np.ndarray:
        return 0.5 * np.sum(self.b_nodes * self._bloch, axis=1)

    @property
    def mean_energy_integral(self) -> float:
        return 0.5 * self.dt * float(np.sum(self.b_mid * self._bloch[:-1]))


def _winding_number(b_nodes: np.ndarray) -> tuple[int, np.ndarray]:
    """Turns of the transverse field, and its node azimuths in [-pi, pi].

    np.unwrap's count without its float mod at every node: only the steps
    of pi or more, across the branch cut, take its correction (Python's
    float % is numpy's mod), summed in node order as its cumsum does.
    Adding 0.0 squashes IEEE negative zeros, which would otherwise make
    atan2 report +/-pi on an identically zero transverse component.
    """
    azimuth = np.arctan2(b_nodes[:, 1] + 0.0, b_nodes[:, 0] + 0.0)
    jumps = np.diff(azimuth)
    shift = 0.0
    # "not < pi" rather than ">= pi": a NaN step is corrected too, as np.unwrap does
    for jump in jumps[~(np.abs(jumps) < math.pi)].tolist():
        wrapped = (jump + math.pi) % math.tau - math.pi
        shift += (math.pi if wrapped == -math.pi and jump > 0.0 else wrapped) - jump
    return int(round((azimuth[-1] + shift - azimuth[0]) / math.tau)), azimuth


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


def _evolve(
    control_nodes: np.ndarray,
    control_mid: np.ndarray,
    k_nodes: np.ndarray,
    dt: float,
    branch: str,
) -> PhaseExtraction:
    """The evolution kernel, from the control grids and the noise K at the n + 1 nodes.

    The total field is control plus K at the nodes, and control plus the
    mean of the two end-node K values at each step midpoint; K and the
    field modulus must be finite.  The state starts in the branch
    eigenstate of the first node field; step k applies the exact
    propagator of the k-th midpoint field over ``dt``, and the final
    state is the product of all steps applied to it.  Leakage is
    measured against the branch eigenstate of the last node field; both
    eigenstates come from one :func:`_eigenvector_chain` call.
    """
    if not np.all(np.isfinite(k_nodes)):
        raise ValueError("noise samples must be finite")
    b_nodes = control_nodes + k_nodes
    b_mid = control_mid + 0.5 * (k_nodes[:-1] + k_nodes[1:])
    step_a, step_b, nb = _step_coefficients(b_mid, dt)
    winding = _winding_number(b_nodes)[0]
    field_modulus_integral = float(nb.sum() * dt)

    thetas, phis = zip(polar_angles(b_nodes[0]), polar_angles(b_nodes[-1]))
    (u0, d0), (ref_u, ref_d) = _eigenvector_chain(thetas, phis, branch).tolist()
    levels = _product_tree(step_a, step_b)
    root_a, root_b = levels[-1]
    u, d = _apply(complex(root_a[0]), complex(root_b[0]), u0, d0)
    # The per-step increments of the overlap's phase telescope to its final
    # argument, so this is the total phase mod 2 pi.
    total = cmath.phase(u0.conjugate() * u + d0.conjugate() * d)
    leakage = max(0.0, 1.0 - abs(ref_u.conjugate() * u + ref_d.conjugate() * d) ** 2)

    sign = 1.0 if branch == "up" else -1.0
    dynamical = -sign * 0.5 * field_modulus_integral
    return PhaseExtraction(
        branch=branch,
        dt=dt,
        b_nodes=b_nodes,
        b_mid=b_mid,
        levels=levels,
        start=(u0, d0),
        field_modulus=nb,
        dynamical_phase=dynamical,
        # "+ 0.0": a phase that folds to an exact zero is +0.0
        geometric_phase=_wrap_pm_pi(total - dynamical + math.pi * winding) + 0.0,
        leakage=leakage,
        field_modulus_integral=field_modulus_integral,
        winding=winding,
        degenerate_steps=int(np.count_nonzero(nb < _TINY_FIELD)),
        non_adiabatic=leakage > _LEAKAGE_WARN_THRESHOLD,
    )


def evolve_and_extract(
    spec: PrecessionSpec,
    noise: np.ndarray | None = None,
    config: IntegratorConfig | None = None,
    *,
    branch: str = "up",
) -> PhaseExtraction:
    """Evolve from the initial branch eigenstate and extract the phases.

    The grid has ``n = steps_per_cycle * n_cycles`` steps over
    ``[0, t_total]``.  ``noise``, when given, is K at its n + 1 nodes, an
    array of shape ``(n + 1, 3)`` such as :func:`berrysim.noise.sample_path`
    returns for ``dt = t_total / n``; None means no noise.  The state
    starts in the chosen eigenstate of the total field at t=0 (control
    plus the first noise row).  The control field is evaluated at the
    step midpoints, and the kernel averages the noise over the step
    endpoints.
    """
    if branch not in ("up", "down"):
        raise ValueError(f"branch must be 'up' or 'down', got {branch!r}")
    config = config if config is not None else IntegratorConfig()
    n_steps = config.steps_per_cycle * spec.n_cycles
    dt = spec.t_total / n_steps
    control_nodes, control_mid = _control_grids(spec, n_steps, dt)
    noise = np.zeros((n_steps + 1, 3)) if noise is None else np.asarray(noise, dtype=float)
    if noise.shape != (n_steps + 1, 3):
        raise ValueError(
            f"noise has shape {noise.shape} but the grid of steps_per_cycle * n_cycles "
            f"= {n_steps} steps needs {(n_steps + 1, 3)}"
        )
    return _evolve(control_nodes, control_mid, noise, dt, branch)


def connection_phase_discrete(b_nodes: np.ndarray, *, branch: str = "up") -> float:
    """Geometric phase from a discrete eigenstate chain along a node field.

    ``b_nodes`` is the total field at the n + 1 nodes of a path, shape
    ``(n + 1, 3)``, such as :attr:`PhaseExtraction.b_nodes`.  Builds
    branch eigenstates along its direction, forms the Pancharatnam
    product of successive overlaps and closes the chain onto the starting
    eigenstate continued through the field's winding.  This never
    integrates the dynamical phase, so it cross-checks the evolution-based
    extraction through an independent route.  The result is folded into
    (-pi, pi], matching :func:`evolve_and_extract`.

    Raises :class:`ResolutionError` when a chain link or the closing
    overlap is too small to resolve the phase.
    """
    if branch not in ("up", "down"):
        raise ValueError(f"branch must be 'up' or 'down', got {branch!r}")
    b_nodes = np.asarray(b_nodes, dtype=float)
    if b_nodes.ndim != 2 or b_nodes.shape[0] < 2 or b_nodes.shape[1] != 3:
        raise ValueError(f"b_nodes must have shape (n + 1, 3) with n >= 1, got {b_nodes.shape}")
    r = np.linalg.norm(b_nodes, axis=1)
    if np.any(r < _TINY_FIELD):
        raise DegeneracyError("total field vanishes along the path")
    winding, azimuth = _winding_number(b_nodes)
    phi = np.unwrap(azimuth)
    theta = np.arccos(np.clip(b_nodes[:, 2] / r, -1.0, 1.0))
    vecs = _eigenvector_chain(theta, phi, branch)
    links = np.sum(np.conj(vecs[:-1]) * vecs[1:], axis=1)
    if np.min(np.abs(links)) < 0.5:
        raise ResolutionError(
            "chain link overlap below 0.5; increase steps_per_cycle to resolve the path"
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
