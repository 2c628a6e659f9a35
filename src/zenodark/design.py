"""Inverse design: construct the monitored state that steers a target.

Given a prescribed unit trajectory ``psi(t)``, the monitored state that
produces it under dark evolution is parallel to ``g = H psi - i psidot``; it
exists only when the trajectory obeys the dark-compatibility constraint

    i <psi|psidot> = <psi|H|psi>,

which for ``H = 0`` is the parallel-transport condition ``<psi|psidot> = 0``.
The designed state ``f = g/||g||`` is normalized exactly (``<f|f> = 1``, real
positive prefactor), and its derivative is closed form,

    fdot = (gdot - f Re<f|gdot>)/||g||,    gdot = H psidot - i psiddot.

Targets are grid callables: ``states_on`` (and optionally
``derivatives_on``) map a ``(k,)`` time grid to ``(k, N)`` rows.  One
centered 5-point window at the design spacing (Fornberg weights, fourth
order) of ``derivatives_on`` if given, else of ``states_on``, supplies the
derivatives, so a design and each grid its path evaluates take five calls
of the windowed callable, whatever the grid's length.  For mode targets
``psi(t) = sum_j sqrt(p_j) exp(-i nu_j t) |j>`` everything is closed form.

Phase diagnostics use the discrete geometric-phase sum over consecutive
state overlaps, closing the loop when the endpoints match up to a global
phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import windows
from .errors import (
    CompatibilityError,
    DegenerateTargetError,
    InputError,
    ParallelTransportError,
    UndefinedPhaseError,
)
from .linalg import require_hermitian, row_norms_and_overlaps, row_products
from .paths import DesignedPath, ModePath
from .stencil import fd_weights
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
    "phase_diagnostics",
]


class PrescribedTrajectory:
    """Target trajectory given as grid callables.

    ``states_on`` maps a ``(k,)`` float grid to the ``(k, dim)`` rows of
    ``psi``; the optional ``derivatives_on`` does the same for ``psidot``.
    Design operations differentiate the highest of the two they are given
    with fourth-order stencils.
    """

    def __init__(self, dim: int, states_on, derivatives_on=None):
        self.dim = int(dim)
        self._states_on = states_on
        self._derivatives_on = derivatives_on

    @property
    def has_derivative(self) -> bool:
        return self._derivatives_on is not None

    def state_at(self, t: float) -> np.ndarray:
        return self.states_on([t])[0]

    def states_on(self, grid) -> np.ndarray:
        return self._rows(self._states_on, grid)

    def derivatives_on(self, grid) -> np.ndarray:
        if self._derivatives_on is None:
            raise InputError("trajectory has no analytic derivative")
        return self._rows(self._derivatives_on, grid)

    def _rows(self, fn, grid) -> np.ndarray:
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        rows = np.asarray(fn(grid), dtype=np.complex128)
        if rows.shape != (grid.size, self.dim):
            raise InputError(
                f"target grid callable returned shape {rows.shape}, "
                f"expected {(grid.size, self.dim)}"
            )
        if not np.isfinite(rows).all():
            raise InputError("target grid callable returned non-finite entries")
        return rows


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
        if not (np.isfinite(p).all() and np.isfinite(nu).all()):
            raise InputError("probabilities and frequencies must be finite")
        if np.any(p < -1e-15):
            raise InputError("probabilities must be nonnegative")
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > tol.unit_state:
            raise InputError(f"probabilities must sum to 1, got {p.sum():.12g}")
        self.probabilities = p
        self.frequencies = nu
        self._roots = np.sqrt(p)
        super().__init__(p.size, self._mode_states, self._mode_derivatives)

    @property
    def phase_rate(self) -> float:
        """The constant ``i <psi|psidot> = sum_j p_j nu_j``."""
        return float(self.probabilities @ self.frequencies)

    def _mode_states(self, grid: np.ndarray) -> np.ndarray:
        return np.exp(-1j * np.outer(grid, self.frequencies)) * self._roots

    def _mode_derivatives(self, grid: np.ndarray) -> np.ndarray:
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


def _spacing(grid: np.ndarray) -> float:
    # the design spacing: the grid's median step.  A one-point grid has none;
    # 2e-3 ~ eps**(1/6) balances the h**4 truncation and eps/h**2 rounding
    # of the fourth-order psiddot stencil of states for frequencies of order one
    return float(np.median(np.diff(grid))) if grid.size > 1 else 2e-3


def _weighted_sum(weights, window):
    # sum_i w_i window[i], elementwise: unlike a matrix-vector product, each
    # row rounds alike whatever grid it is part of
    total = weights[0] * window[0]
    for w, rows in zip(weights[1:], window[1:]):
        total += w * rows
    return total


def _jet(traj: PrescribedTrajectory, ts: np.ndarray, spacing: float):
    # (psi, psidot, psiddot) on ts from one centered 5-point window: of the
    # analytic derivative when the target has one, else of its states
    offsets = spacing * np.arange(-2.0, 3.0)
    weights = [fd_weights(offsets, 0.0, order) for order in (1, 2)]
    if traj.has_derivative:
        window = [traj.derivatives_on(ts + o) for o in offsets]
        return traj.states_on(ts), window[2], _weighted_sum(weights[0], window)
    window = [traj.states_on(ts + o) for o in offsets]
    return window[2], _weighted_sum(weights[0], window), _weighted_sum(weights[1], window)


def _compatibility_residual(H: np.ndarray, states, derivs, tol: ToleranceProfile) -> float:
    norms = np.linalg.norm(states, axis=1)
    worst = float(np.abs(norms - 1.0).max())
    if worst > tol.unit_state:
        raise InputError(f"prescribed states must be unit-norm, worst {worst:.3e}")
    phase_rate = 1j * np.einsum("ij,ij->i", states.conj(), derivs)
    energy = np.einsum("ij,ij->i", states.conj(), states @ H.T)
    return float(np.abs(phase_rate - energy).max())


def validate_dark_compatibility(
    traj: PrescribedTrajectory, H, grid, tol: ToleranceProfile = DEFAULT
) -> float:
    """Worst violation of ``i <psi|psidot> = <psi|H|psi>`` on the grid."""
    H = require_hermitian(H, tol, name="hamiltonian")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    states, derivs, _ = _jet(traj, grid, _spacing(grid))
    return _compatibility_residual(H, states, derivs, tol)


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
    spacing = _spacing(grid)
    # one jet on the design grid serves the compatibility check and the samples
    jet = _jet(traj, grid, spacing)
    residual = _compatibility_residual(H, jet[0], jet[1], tol)
    if residual > tol.compatibility:
        raise CompatibilityError(
            f"trajectory violates dark compatibility: residual {residual:.3e} "
            f"exceeds {tol.compatibility:.3e}"
        )

    def designed(psi, velocity, acceleration):
        # f = g/||g|| and fdot = (gdot - f Re<f|gdot>)/||g|| with
        # g = H psi - i psidot, plus the prefactors 1/||g|| and |<psi|f>|
        g = row_products(psi, H.T) - 1j * velocity
        norms, overlaps = row_norms_and_overlaps(psi, g)
        nsq = norms**2
        if np.any(nsq < tol.degenerate_norm_sq):
            raise DegenerateTargetError(
                "target is stationary: nothing to monitor, designed state undefined"
            )
        prefactors = nsq**-0.5
        f = g * prefactors[:, None]
        gdot = row_products(velocity, H.T) - 1j * acceleration
        radial = np.real(np.sum(f.conj() * gdot, axis=1))
        fdot = (gdot - f * radial[:, None]) * prefactors[:, None]
        return f, fdot, prefactors, overlaps * prefactors

    _, _, samples, overlaps = designed(*jet)
    orth = float(overlaps.max())
    if orth > 10.0 * tol.compatibility:
        raise CompatibilityError(
            f"designed state fails orthogonality to the target: {orth:.3e}"
        )

    path = DesignedPath(traj.dim, lambda ts: designed(*_jet(traj, ts, spacing))[:2], tol=tol)
    return DesignResult(
        path=path,
        compatibility_residual=residual,
        orthogonality_residual=orth,
        grid=grid,
        normalization_samples=samples,
    )


def mode_design(
    p, nu, tol: ToleranceProfile = DEFAULT
) -> tuple[ModeTrajectory, ModePath]:
    """Closed-form design for a mode target with ``H = 0``.

    Returns the target trajectory and the monitored path
    ``f(t) = N sum_j sqrt(p_j) nu_j exp(-i nu_j t) |j>`` with
    ``N = (sum_j p_j nu_j^2)^(-1/2)``: a mode path over the standard basis,
    so ``f(t) = exp(-i diag(nu) t) f(0)``.

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
    amplitudes = norm_inv_sq**-0.5 * np.sqrt(traj.probabilities) * traj.frequencies
    return traj, ModePath(amplitudes, traj.frequencies, tol=tol)


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
    # defined whatever the overlaps, so read with no phase floor
    return phase_diagnostics(traj, replace(DEFAULT, overlap_phase_floor=0.0))[0]


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
    return phase_diagnostics(traj, tol)[1]


def phase_diagnostics(traj, tol: ToleranceProfile = DEFAULT) -> tuple[float, float]:
    """Parallel-transport residual and Pancharatnam phase from one overlap pass.

    Returns ``(parallel_transport_residual(traj), pancharatnam_phase(traj,
    tol))``, reading every consecutive overlap once, a window at a time.
    """
    times, states = _times_states(traj)
    if states.shape[0] < 2:
        return 0.0, 0.0
    transport, smallest, angles = 0.0, np.inf, np.empty(states.shape[0] - 1)
    for a, b in windows(angles.size, states.shape[1]):
        overlaps = np.einsum("ij,ij->i", states[a:b].conj(), states[a + 1 : b + 1])
        norms = np.linalg.norm(states[a : b + 1], axis=1)
        ratios = np.abs(overlaps.imag) / (norms[:-1] * norms[1:] * np.diff(times[a : b + 1]))
        transport = max(transport, float(ratios.max()))
        smallest = min(smallest, float(np.abs(overlaps).min()))
        angles[a:b] = np.angle(overlaps)
    if smallest < tol.overlap_phase_floor:
        raise UndefinedPhaseError(
            f"consecutive overlap magnitude {smallest:.3e} too small for a phase"
        )
    total = float(angles.sum())  # once over the whole run: the sum is pairwise

    closing = np.vdot(states[-1], states[0])
    gap_sq = (
        float(np.linalg.norm(states[-1]) ** 2 + np.linalg.norm(states[0]) ** 2)
        - 2.0 * float(abs(closing))
    )
    if math.sqrt(max(gap_sq, 0.0)) <= tol.closed_path:
        total += float(np.angle(closing))
    return transport, float(np.angle(np.exp(1j * total)))
