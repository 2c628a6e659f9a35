"""Dark evolution without measurements: a rank-1 energy-shift Hamiltonian.

Shifting the energy of the monitored state by a large amount E forbids the
system from reaching it, so an initial state orthogonal to ``f(0)`` follows
the measurement-driven dark dynamics up to corrections of order 1/E.  The
model Hamiltonian ``E |f(t)><f(t)|`` is rank one, so the midpoint propagator
has the exact closed form
``exp(-i E dt |f><f|) = 1 + (exp(-i E dt) - 1)|f><f|`` and every step is
exactly unitary.

The amplitude ``alpha(t) = <f(t)|psi_s(t)>`` on the monitored state follows
the quasi-static value ``i <f|psidot>/E`` once its fast oscillation at
frequency about E is averaged out.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import kernels
from .dynamics import require_orthogonal, run_windows, step_count, window_rows, windows
from .errors import InputError, RegimeWarning, ResolutionError
from .linalg import require_unit
from .paths import MonitoredPath
from .stencil import moving_average
from .tolerances import DEFAULT, ToleranceProfile
from .trajectory import EmbeddedTrajectory

__all__ = ["embedded_run", "adiabatic_alpha_check"]

# Largest fast phase E * dt of one step, about 63 steps per period 2 pi / E
MAX_PHASE_STEP = 0.1


def _embedded_windows(
    psi0, path: MonitoredPath, energy: float, T: float, dt: float, tol: ToleranceProfile
):
    """Checks, then ``(steps, windows)``: the run's :func:`window_rows`, rows
    ``[full, dark, alpha]``."""
    psi0 = require_unit(psi0, tol, name="initial state")
    if not 0.0 <= energy < np.inf:
        raise InputError("energy shift must be finite and nonnegative")
    steps = step_count(T, dt, psi0.size)
    if energy > 0.0 and dt > MAX_PHASE_STEP / energy * (1.0 + 1e-9):
        raise ResolutionError(
            f"dt = {dt:g} too coarse for energy {energy:g}: need dt <= "
            f"{MAX_PHASE_STEP / energy:g} to resolve the fast phase"
        )
    require_orthogonal(path.evaluate(0.0)[0], psi0, tol)

    def advance(a, b, psi):
        f_grid = path.evaluate_many(dt * np.arange(a, b + 1))[0]
        f_mid = path.evaluate_many(dt * (np.arange(a, b) + 0.5))[0]
        full = kernels.embedded_loop(f_mid, psi, float(energy), float(dt))
        alpha = np.einsum("ij,ij->i", f_grid.conj(), full)
        return full, full - alpha[:, None] * f_grid, alpha

    return steps, window_rows(psi0, steps, dt, advance)


def embedded_run(
    psi0,
    path: MonitoredPath,
    energy: float,
    T: float,
    dt: float,
    tol: ToleranceProfile = DEFAULT,
) -> EmbeddedTrajectory:
    """Propagate under ``energy * |f(t)><f(t)|`` with midpoint steps.

    ``dt`` must resolve the fast scale: ``dt <= MAX_PHASE_STEP / energy``.
    The run records the full state and its decomposition into the dark
    component (orthogonal to ``f(t)``) and the monitored amplitude
    ``alpha(t)``.

    Raises
    ------
    ResolutionError
        If ``dt`` is too coarse for the requested energy.
    OrthogonalityError
        If the initial state is not orthogonal to ``f(0)``.
    """
    steps, produced = _embedded_windows(psi0, path, energy, T, dt, tol)
    full, dark, alpha = run_windows(steps, produced)
    return EmbeddedTrajectory(
        times=dt * np.arange(steps + 1),
        full_states=full,
        dark_states=dark,
        alpha=alpha,
        energy=float(energy),
        step=float(dt),
    )


class _QuasiStatic:
    """:func:`adiabatic_alpha_check` fed a run of ``rows`` rows a few at a time:
    :meth:`add` keeps the offsets ``alpha - i <f|psidot>/E`` of the rows from
    ``start`` (16 B a row) and the largest speed, :meth:`result` averages them."""

    def __init__(self, path: MonitoredPath, energy: float, step: float, rows: int):
        if energy <= 0.0:
            raise InputError("adiabatic comparison needs a positive energy shift")
        self.path, self.energy, self.step = path, energy, step
        self.offsets, self.speed = np.empty(rows, np.complex128), 0.0

    def add(self, start: int, times, dark, alpha) -> None:
        # <f|psi_dark> = 0 at every t, so <f|psidot_dark> = -<fdot|psi_dark>
        f_grid, fdot_grid = self.path.evaluate_many(times)
        coupling = -np.einsum("ij,ij->i", fdot_grid.conj(), dark)
        self.offsets[start : start + times.size] = alpha - 1j * coupling / self.energy
        rate = np.einsum("ij,ij->i", f_grid.conj(), fdot_grid)
        self.speed = max(self.speed, float(np.abs(coupling).max()), float(np.abs(rate).max()))

    def result(self) -> float:
        window = max(1, int(round(8.0 * np.pi / self.energy / self.step))) | 1
        if window > self.offsets.size:
            raise ResolutionError(
                f"{self.offsets.size} rows are fewer than one averaging window of {window} "
                f"points (8 pi / E = {8.0 * np.pi / self.energy:.3g}); run for longer"
            )
        if self.speed > 0.0 and self.energy / self.speed < 10.0:
            warnings.warn(
                f"scale separation E / speed = {self.energy / self.speed:.2f} below 10; "
                "the quasi-static comparison may be unreliable",
                RegimeWarning,
                stacklevel=3,
            )
        smooth, interior = moving_average(self.offsets, window)
        return float(np.abs(smooth[interior]).max())


def adiabatic_alpha_check(traj: EmbeddedTrajectory, path: MonitoredPath) -> float:
    """Residual of the quasi-static solution ``alpha = i <f|psidot>/E``.

    The difference ``alpha(t) - i <f(t)|psidot(t)>/E`` is averaged over
    centered windows of four fast periods (width ``8 pi / E``) to remove the
    oscillation the quasi-static solution neglects; the maximum over fully
    covered windows is returned.  Here ``psi`` is the dark component, which
    is orthogonal to ``f`` at every t, so the coupling is taken from the
    exact identity ``<f|psidot> = -<fdot|psi>`` with the path's own ``fdot``:
    no numerical derivative of the sampled states enters.  A warning is
    issued when the scale separation ``E / max(|<f|psidot>|, |<f|fdot>|)``
    is below ten, and :class:`ResolutionError` raised when the run has fewer
    rows than one window, so that no window is fully covered.
    """
    check = _QuasiStatic(path, traj.energy, traj.step, traj.times.size)
    for a, b in windows(traj.times.size, traj.dim):
        check.add(a, traj.times[a:b], traj.dark_states[a:b], traj.alpha[a:b])
    return check.result()
