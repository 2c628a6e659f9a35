"""Inverse design: construct the monitored state that steers a target.

Given a prescribed unit trajectory ``psi(t)``, the monitored state that
produces it under dark evolution is parallel to ``H psi - i psidot``; it
exists only when the trajectory obeys the dark-compatibility constraint

    i <psi|psidot> = <psi|H|psi>,

which for ``H = 0`` is the parallel-transport condition ``<psi|psidot> = 0``.
The designed state is normalized exactly (``<f|f> = 1``, real positive
prefactor).  For mode targets ``psi(t) = sum_j sqrt(p_j) exp(-i nu_j t) |j>``
everything is closed form.

Phase diagnostics use the discrete geometric-phase sum over consecutive
state overlaps, closing the loop when the endpoints match up to a global
phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CompatibilityError,
    DegenerateTargetError,
    InputError,
    ParallelTransportError,
    UndefinedPhaseError,
)
from .linalg import as_state, require_hermitian, row_norms_and_overlaps
from .paths import DesignedPath
from .stencil import differentiate_series, fd_weights
from .tolerances import DEFAULT, ToleranceProfile

__all__ = [
    "PrescribedTrajectory",
    "ModeTrajectory",
    "DesignResult",
    "validate_dark_compatibility",
    "design_monitored_state",
    "mode_design",
    "parallel_transport_residual",
    "pancharatnam_phase",
]


class PrescribedTrajectory:
    """Target trajectory given as callables of time.

    ``derivative_fn`` may be omitted; operations then differentiate the
    sampled states with fourth-order stencils on their evaluation grid.
    """

    def __init__(self, dim: int, state_fn, derivative_fn=None):
        self.dim = int(dim)
        self._state_fn = state_fn
        self._derivative_fn = derivative_fn

    @property
    def has_derivative(self) -> bool:
        return self._derivative_fn is not None

    def state_at(self, t: float) -> np.ndarray:
        return as_state(self._state_fn(t), self.dim)

    def derivative_at(self, t: float) -> np.ndarray:
        if self._derivative_fn is None:
            raise InputError("trajectory has no analytic derivative")
        return as_state(self._derivative_fn(t), self.dim)

    def states_on(self, grid: np.ndarray) -> np.ndarray:
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        out = np.empty((grid.size, self.dim), dtype=np.complex128)
        for i, t in enumerate(grid):
            out[i] = self.state_at(float(t))
        return out

    def derivatives_on(self, grid: np.ndarray) -> np.ndarray:
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        if self.has_derivative:
            out = np.empty((grid.size, self.dim), dtype=np.complex128)
            for i, t in enumerate(grid):
                out[i] = self.derivative_at(float(t))
            return out
        return differentiate_series(self.states_on(grid), grid)


class ModeTrajectory(PrescribedTrajectory):
    """Target populating fixed basis modes with stationary probabilities.

    ``psi(t) = sum_j sqrt(p_j) exp(-i nu_j t) |j>``.  The local phase rate
    ``i <psi|psidot>`` equals ``sum_j p_j nu_j`` at all times; the
    constructor accepts any frequencies and leaves constraint checking to
    the design operations, so off-constraint targets can be diagnosed.
    """

    def __init__(self, probabilities, frequencies, tol: ToleranceProfile = DEFAULT):
        p = np.asarray(probabilities, dtype=float)
        nu = np.asarray(frequencies, dtype=float)
        if p.ndim != 1 or p.shape != nu.shape:
            raise InputError("probabilities and frequencies must be 1-D, equal length")
        if np.any(p < -1e-15):
            raise InputError("probabilities must be nonnegative")
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > tol.unit_state:
            raise InputError(f"probabilities must sum to 1, got {p.sum():.12g}")
        self.probabilities = p
        self.frequencies = nu
        self._roots = np.sqrt(p)
        super().__init__(p.size, self._state, self._derivative)

    @property
    def phase_rate(self) -> float:
        """The constant ``i <psi|psidot> = sum_j p_j nu_j``."""
        return float(self.probabilities @ self.frequencies)

    def _state(self, t: float) -> np.ndarray:
        return self._roots * np.exp(-1j * self.frequencies * t)

    def _derivative(self, t: float) -> np.ndarray:
        return -1j * self.frequencies * self._roots * np.exp(-1j * self.frequencies * t)

    def states_on(self, grid: np.ndarray) -> np.ndarray:
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        return np.exp(-1j * np.outer(grid, self.frequencies)) * self._roots

    def derivatives_on(self, grid: np.ndarray) -> np.ndarray:
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        phases = np.exp(-1j * np.outer(grid, self.frequencies))
        return -1j * self.frequencies * self._roots * phases


@dataclass(frozen=True)
class DesignResult:
    """Designed monitored state together with its diagnostics.

    ``normalization_samples`` are the positive prefactors that make the
    designed state unit on ``grid``; ``compatibility_residual`` is the worst
    violation of the dark-compatibility constraint on the design grid, and
    ``orthogonality_residual`` the worst ``|<psi(t)|f(t)>|``.
    """

    path: DesignedPath
    compatibility_residual: float
    orthogonality_residual: float
    grid: np.ndarray
    normalization_samples: np.ndarray


def validate_dark_compatibility(
    traj: PrescribedTrajectory, H, grid, tol: ToleranceProfile = DEFAULT
) -> float:
    """Worst violation of ``i <psi|psidot> = <psi|H|psi>`` on the grid."""
    H = require_hermitian(H, tol, name="hamiltonian")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    states = traj.states_on(grid)
    norms = np.linalg.norm(states, axis=1)
    worst = float(np.abs(norms - 1.0).max())
    if worst > tol.unit_state:
        raise InputError(f"prescribed states must be unit-norm, worst {worst:.3e}")
    derivs = traj.derivatives_on(grid)
    phase_rate = 1j * np.einsum("ij,ij->i", states.conj(), derivs)
    energy = np.einsum("ij,ij->i", states.conj(), states @ H.T)
    return float(np.abs(phase_rate - energy).max())


def _stencil_derivative(states_on, spacing: float):
    # centered 5-point first derivative of a vector-valued function on a grid
    offsets = spacing * np.arange(-2.0, 3.0)
    weights = fd_weights(offsets, 0.0, 1)

    def derivatives_on(ts: np.ndarray) -> np.ndarray:
        window = np.stack([states_on(ts + o) for o in offsets])
        return np.tensordot(weights, window, axes=(0, 0))

    return derivatives_on


def design_monitored_state(
    traj: PrescribedTrajectory, H, grid, tol: ToleranceProfile = DEFAULT
) -> DesignResult:
    """Construct ``f(t)`` proportional to ``H psi(t) - i psidot(t)``.

    The prefactor is fixed real positive by exact normalization.  For a
    stationary target with ``H = 0`` there is nothing to monitor and the
    construction is rejected.

    Raises
    ------
    CompatibilityError
        If the dark-compatibility residual exceeds ``tol.compatibility``.
    DegenerateTargetError
        If ``||H psi - i psidot||^2`` falls below ``tol.degenerate_norm_sq``.
    """
    H = require_hermitian(H, tol, name="hamiltonian")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    residual = validate_dark_compatibility(traj, H, grid, tol)
    if residual > tol.compatibility:
        raise CompatibilityError(
            f"trajectory violates dark compatibility: residual {residual:.3e} "
            f"exceeds {tol.compatibility:.3e}"
        )

    spacing = float(np.median(np.diff(grid))) if grid.size > 1 else 1e-5
    if traj.has_derivative:
        target_derivatives = traj.derivatives_on
    else:
        target_derivatives = _stencil_derivative(traj.states_on, spacing)

    def designed(ts: np.ndarray):
        # unit designed states, their prefactors and |<psi|f>| on a grid
        states = traj.states_on(ts)
        g = states @ H.T - 1j * target_derivatives(ts)
        norms, overlaps = row_norms_and_overlaps(states, g)
        nsq = norms**2
        if np.any(nsq < tol.degenerate_norm_sq):
            raise DegenerateTargetError(
                "target is stationary: nothing to monitor, designed state undefined"
            )
        prefactors = nsq**-0.5
        return g * prefactors[:, None], prefactors, overlaps * prefactors

    _, samples, overlaps = designed(grid)
    orth = float(overlaps.max())
    if orth > 10.0 * tol.compatibility:
        raise CompatibilityError(
            f"designed state fails orthogonality to the target: {orth:.3e}"
        )

    def states_on(ts: np.ndarray) -> np.ndarray:
        return designed(ts)[0]

    derivatives_on = _stencil_derivative(states_on, spacing)
    path = DesignedPath(traj.dim, lambda ts: (states_on(ts), derivatives_on(ts)), tol=tol)
    return DesignResult(
        path=path,
        compatibility_residual=residual,
        orthogonality_residual=orth,
        grid=grid,
        normalization_samples=samples,
    )


def mode_design(
    p, nu, tol: ToleranceProfile = DEFAULT
) -> tuple[ModeTrajectory, DesignedPath]:
    """Closed-form design for a mode target with ``H = 0``.

    Returns the target trajectory and the monitored path
    ``f(t) = N sum_j sqrt(p_j) nu_j exp(-i nu_j t) |j>`` with
    ``N = (sum_j p_j nu_j^2)^(-1/2)``.

    Raises
    ------
    ParallelTransportError
        If ``sum_j p_j nu_j`` is nonzero.
    DegenerateTargetError
        If fewer than two distinct frequencies carry probability.
    """
    traj = ModeTrajectory(p, nu, tol=tol)
    rate = traj.phase_rate
    if abs(rate) > tol.parallel_transport:
        raise ParallelTransportError(
            f"mode target violates parallel transport: sum p_j nu_j = {rate:.3e}"
        )
    active = traj.frequencies[traj.probabilities > 0.0]
    scale = max(1.0, float(np.abs(traj.frequencies).max(initial=0.0)))
    if active.size == 0 or np.ptp(active) <= 1e-12 * scale:
        raise DegenerateTargetError(
            "mode target needs at least two distinct populated frequencies"
        )

    norm_inv_sq = float(traj.probabilities @ (traj.frequencies**2))
    prefactor = norm_inv_sq ** -0.5
    amplitudes = prefactor * np.sqrt(traj.probabilities) * traj.frequencies
    freqs = traj.frequencies

    def sample(ts: np.ndarray):
        phased = np.exp(-1j * np.outer(ts, freqs)) * amplitudes
        return phased, phased * (-1j * freqs)

    path = DesignedPath(traj.dim, sample, tol=tol)
    return traj, path


def _times_states(traj):
    if hasattr(traj, "times") and hasattr(traj, "states"):
        return np.asarray(traj.times), np.asarray(traj.states)
    times, states = traj
    return np.asarray(times, dtype=float), np.asarray(states)


def parallel_transport_residual(traj) -> float:
    """Discrete proxy for ``|<psi|psidot>|`` along a trajectory.

    ``max_i |Im <psi_i|psi_{i+1}>| / (||psi_i|| ||psi_{i+1}|| dt_i)``; the
    real part of the overlap, which carries the ``O(dt ||psidot||^2)``
    shrinkage of any moving state, is left out, so the estimate vanishes as
    ``O(dt^2)`` for parallel-transported motion and approximates the energy
    expectation for free evolution.
    """
    times, states = _times_states(traj)
    if states.shape[0] < 2:
        return 0.0
    overlaps = np.einsum("ij,ij->i", states[:-1].conj(), states[1:])
    norms = np.linalg.norm(states, axis=1)
    steps = np.diff(times)
    return float((np.abs(overlaps.imag) / (norms[:-1] * norms[1:] * steps)).max())


def pancharatnam_phase(traj, tol: ToleranceProfile = DEFAULT) -> float:
    """Geometric phase of a trajectory from consecutive state overlaps.

    Sums ``Arg <psi_i|psi_{i+1}>`` along the trajectory and adds the closing
    overlap ``Arg <psi_last|psi_0>`` when the endpoints coincide up to a
    global phase.  The closed-loop value is gauge invariant.  Result is
    reduced to ``(-pi, pi]``.

    Raises
    ------
    UndefinedPhaseError
        If any consecutive overlap magnitude falls below the phase floor.
    """
    _, states = _times_states(traj)
    if states.shape[0] < 2:
        return 0.0
    overlaps = np.einsum("ij,ij->i", states[:-1].conj(), states[1:])
    smallest = float(np.abs(overlaps).min())
    if smallest < tol.overlap_phase_floor:
        raise UndefinedPhaseError(
            f"consecutive overlap magnitude {smallest:.3e} too small for a phase"
        )
    total = float(np.angle(overlaps).sum())

    closing = np.vdot(states[-1], states[0])
    gap_sq = (
        float(np.linalg.norm(states[-1]) ** 2 + np.linalg.norm(states[0]) ** 2)
        - 2.0 * float(abs(closing))
    )
    if math.sqrt(max(gap_sq, 0.0)) <= tol.closed_path:
        total += float(np.angle(closing))
    return float(np.angle(np.exp(1j * total)))
