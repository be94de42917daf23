"""Exact two-level evolution and geometric-phase extraction.

The spin evolves under H(t) = (1/2) B_T(t) . sigma with B_T the sum of
the control field and a sampled noise path.  Each step applies the exact
propagator of the field frozen at the step midpoint,

    U = cos(|b| dt / 2) I - i sin(|b| dt / 2) (b_hat . sigma),

so the only discretization error is the O(dt**2) commutator remainder.
One kernel (``_evolve``) takes a :class:`~berrysim.field.Grid`, with
its control field at the nodes and step midpoints, and the noise K at
the nodes; K enters the midpoint field as the mean of its step's ends.  One tree of products
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
The grid is ``IntegratorConfig.grid(spec)``; Monte Carlo ensembles
run the kernel on it per trial, as ``evolve_and_extract`` runs it once.
The kernel works component-major, on one row of node values per
component, so every per-step operation reads contiguous memory; the
(n + 1, 3) arrays of the public API are transposed views of such rows.
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

from .errors import DegeneracyError, ResolutionError, _count
from .field import Grid, PrecessionSpec, _node_array, polar_angles

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

    A field ``b`` (shape ``(3, ...)``, a row per component) frozen over
    ``dt`` propagates by ``U = [[a, b], [-conj(b), conj(a)]]`` with

        a = cos(|b| dt / 2) - i s b_z,   b = -s b_y - i s b_x,
        s = sin(|b| dt / 2) / |b|,

    and s = 0 on degenerate steps (|b| below ``_TINY_FIELD``), where U is
    the identity.  Returns ``(a, b, |b|)``.  Raises ``ValueError`` when
    |b| dt / 2 is not finite: when |b| is not, as when the noise is strong
    enough to overflow it, or when the step phase alone overflows.
    """
    x, y, z = b
    with np.errstate(over="ignore"):
        nb = np.sqrt(x * x + y * y + z * z)  # bitwise np.linalg.norm(b, axis=0)
        half = 0.5 * nb * dt
    # half is not finite wherever nb is not, so one reduction covers both
    if not np.all(np.isfinite(half)):
        if not np.all(np.isfinite(nb)):
            raise ValueError("total field modulus is not finite; the noise overflows it")
        raise ValueError(f"the step phase |b| dt / 2 overflows float64 at dt = {dt:g}")
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
    """Evolution grid resolution; ``grid(spec)`` is the grid it gives a schedule."""

    steps_per_cycle: int = 4096

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "steps_per_cycle", _count("steps_per_cycle", self.steps_per_cycle, 16)
        )

    def grid(self, spec: PrecessionSpec) -> Grid:
        """The :class:`~berrysim.field.Grid` of ``steps_per_cycle * n_cycles`` steps."""
        return Grid(spec, self.steps_per_cycle * spec.n_cycles)


@dataclass(frozen=True, eq=False)
class PhaseExtraction:
    """One evolution: the phases and diagnostics, with the field and the steps.

    The kernel computes the scalars from the final state alone.  Arrays
    run over the n + 1 nodes of its :class:`~berrysim.field.Grid` ``grid``
    (``control_nodes``, the control field the run used, and ``b_nodes``)
    or its n steps (``b_mid``, ``field_modulus``); ``b_nodes`` and
    ``b_mid`` are the total field, and ``start`` is the state at t=0.
    The three field arrays have shape (nodes or steps, 3) as transposed
    views of the kernel's component rows.  ``levels`` are the levels of
    the product tree of the step propagators' Cayley-Klein pairs, from
    the steps to the whole propagator (``_product_tree``).
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
    grid: Grid
    control_nodes: np.ndarray
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
        return self.grid.times

    @property
    def dynamical_phase_nodes(self) -> np.ndarray:
        """The dynamical phase accumulated up to each node; the last is ``dynamical_phase``."""
        sign = 1.0 if self.branch == "up" else -1.0
        steps = self.field_modulus * self.grid.dt
        nodes = np.concatenate([[0.0], -sign * 0.5 * np.cumsum(steps)])
        nodes[-1] = self.dynamical_phase  # the kernel's pairwise sum, not the cumsum's
        return nodes

    @cached_property
    def _bloch(self) -> np.ndarray:
        cross = np.conj(self.amp_up) * self.amp_down
        pz = np.abs(self.amp_up) ** 2 - np.abs(self.amp_down) ** 2
        return np.stack([2.0 * cross.real, 2.0 * cross.imag, pz], axis=1)

    # The products are C-ordered, so the sums add in node-major order, whatever
    # the layout of the field arrays.
    @property
    def energy(self) -> np.ndarray:
        return 0.5 * np.sum(np.multiply(self.b_nodes, self._bloch, order="C"), axis=1)

    @property
    def mean_energy_integral(self) -> float:
        product = np.multiply(self.b_mid, self._bloch[:-1], order="C")
        return 0.5 * self.grid.dt * float(np.sum(product))


def _winding_number(x: np.ndarray, y: np.ndarray) -> int:
    """Turns of the transverse field (x, y) over its nodes: np.unwrap's count.

    The azimuth atan2(y + 0.0, x + 0.0) lies in [0, pi] where y >= 0 and
    in (-pi, 0) where y < 0 (adding 0.0 squashes IEEE negative zeros), so
    a step that stays on one side moves it by at most pi, and by exactly
    pi only between two y = 0 nodes, where np.unwrap's correction is 0.
    So atan2 runs only at the ends of the steps where y < 0 flips, and at
    the path's two ends; the corrections of those steps of pi or more are
    summed in node order, as np.unwrap's cumsum does (Python's float % is
    numpy's mod).  The nodes must not be NaN.
    """
    below = y < 0.0
    flips = np.flatnonzero(below[1:] != below[:-1])
    ends = np.concatenate([flips, flips + 1, [0, y.size - 1]])
    azimuth = np.arctan2(y[ends] + 0.0, x[ends] + 0.0)
    jumps = azimuth[flips.size:2 * flips.size] - azimuth[:flips.size]
    shift = 0.0
    for jump in jumps[np.abs(jumps) >= math.pi].tolist():
        wrapped = (jump + math.pi) % math.tau - math.pi
        shift += (math.pi if wrapped == -math.pi and jump > 0.0 else wrapped) - jump
    return int(round((azimuth[-1] + shift - azimuth[-2]) / math.tau))


def _evolve(grid: Grid, k_nodes: np.ndarray, branch: str) -> PhaseExtraction:
    """The evolution kernel, on the grid's control field and the noise K at its n + 1 nodes.

    K is component-major, shape (3, n + 1), as the grid's ``control``
    rows are, so each per-step operation reads a row.  The total field
    is control plus K at the nodes, and control plus the mean of the two
    end-node K values at each step midpoint; K and the field modulus
    must be finite.  The state starts in the branch eigenstate of the
    first node field; step k applies the exact propagator of the k-th
    midpoint field over dt, and the final state is the product of all
    steps applied to it.  Leakage is measured against the branch
    eigenstate of the last node field; both eigenstates come from one
    :func:`_eigenvector_chain` call.
    """
    if not np.all(np.isfinite(k_nodes)):
        raise ValueError("noise samples must be finite")
    control_nodes, control_mid = grid.control
    with np.errstate(over="ignore"):  # _step_coefficients refuses an infinite midpoint field
        b_nodes = control_nodes + k_nodes
        b_mid = control_mid + 0.5 * (k_nodes[:, :-1] + k_nodes[:, 1:])
    step_a, step_b, nb = _step_coefficients(b_mid, grid.dt)
    winding = _winding_number(b_nodes[0], b_nodes[1])
    field_modulus_integral = float(nb.sum() * grid.dt)

    thetas, phis = zip(polar_angles(b_nodes[:, 0]), polar_angles(b_nodes[:, -1]))
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
        grid=grid,
        control_nodes=control_nodes.T,
        b_nodes=b_nodes.T,
        b_mid=b_mid.T,
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

    The run is on ``config.grid(spec)``, of n steps.  ``noise``, when
    given, is K at its n + 1 nodes, a finite array of shape ``(n + 1, 3)``
    such as :func:`berrysim.noise.sample_path` returns for the grid's dt;
    None means no noise.  The state starts in the chosen eigenstate of
    the total field at t=0, and each step evolves under the midpoint
    field, K averaged over the step's ends.
    """
    if branch not in ("up", "down"):
        raise ValueError(f"branch must be 'up' or 'down', got {branch!r}")
    grid = (config if config is not None else IntegratorConfig()).grid(spec)
    noise = np.zeros((grid.n_steps + 1, 3)) if noise is None else _node_array(noise, "noise")
    if len(noise) != grid.n_steps + 1:
        raise ValueError(f"noise has shape {noise.shape} but the grid of {grid.n_steps} steps "
                         f"needs {(grid.n_steps + 1, 3)}")
    return _evolve(grid, noise.T, branch)


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

    Raises ``ValueError`` unless ``b_nodes`` is a finite ``(n + 1, 3)``
    array whose node moduli are finite, and :class:`ResolutionError` when
    a chain link or the closing overlap is too small to resolve the phase.
    """
    if branch not in ("up", "down"):
        raise ValueError(f"branch must be 'up' or 'down', got {branch!r}")
    # C order, so the reductions below add in the same order for every layout
    b_nodes = _node_array(b_nodes, "b_nodes")
    with np.errstate(over="ignore"):
        r = np.linalg.norm(b_nodes, axis=1)
    if not np.all(np.isfinite(r)):
        raise ValueError("the field modulus along b_nodes is not finite; it overflows float64")
    if np.any(r < _TINY_FIELD):
        raise DegeneracyError("total field vanishes along the path")
    phi = np.unwrap(np.arctan2(b_nodes[:, 1] + 0.0, b_nodes[:, 0] + 0.0))
    winding = int(round((phi[-1] - phi[0]) / math.tau))
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
