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
from .dynamics import require_orthogonal, step_count
from .errors import InputError, RegimeWarning, ResolutionError
from .linalg import require_unit
from .paths import MonitoredPath
from .stencil import differentiate_series, moving_average
from .tolerances import DEFAULT, ToleranceProfile
from .trajectory import EmbeddedTrajectory

__all__ = ["embedded_run", "adiabatic_alpha_check"]

# Largest fast phase E * dt of one step, about 63 steps per period 2 pi / E
MAX_PHASE_STEP = 0.1


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
    psi0 = require_unit(psi0, tol, name="initial state")
    if energy < 0.0:
        raise InputError("energy shift must be nonnegative")
    steps = step_count(T, dt, psi0.size)
    if energy > 0.0 and dt > MAX_PHASE_STEP / energy * (1.0 + 1e-9):
        raise ResolutionError(
            f"dt = {dt:g} too coarse for energy {energy:g}: need dt <= "
            f"{MAX_PHASE_STEP / energy:g} to resolve the fast phase"
        )

    times = dt * np.arange(steps + 1)
    midpoints = dt * (np.arange(steps) + 0.5)
    f_grid, _ = path.evaluate_many(times)
    f_mid, _ = path.evaluate_many(midpoints)
    require_orthogonal(f_grid[0], psi0, tol)

    full = kernels.embedded_loop(
        np.ascontiguousarray(f_mid), psi0, float(energy), float(dt)
    )
    alpha = np.einsum("ij,ij->i", f_grid.conj(), full)
    dark = full - alpha[:, None] * f_grid
    return EmbeddedTrajectory(
        times=times,
        full_states=full,
        dark_states=dark,
        alpha=alpha,
        energy=float(energy),
        step=float(dt),
    )


def adiabatic_alpha_check(
    traj: EmbeddedTrajectory, path: MonitoredPath, tol: ToleranceProfile = DEFAULT
) -> float:
    """Residual of the quasi-static solution ``alpha = i <f|psidot>/E``.

    The difference ``alpha(t) - i <f(t)|psidot(t)>/E`` is averaged over
    centered windows of four fast periods (width ``8 pi / E``) to remove the
    oscillation the quasi-static solution neglects; the maximum over fully
    covered windows is returned.  A warning is issued when the scale
    separation ``E / max(|<f|psidot>|, |<f|fdot>|)`` is below ten.
    """
    if traj.energy <= 0.0:
        raise InputError("adiabatic comparison needs a positive energy shift")
    f_grid, fdot_grid = path.evaluate_many(traj.times)
    dark_dot = differentiate_series(traj.dark_states, traj.times)
    coupling = np.einsum("ij,ij->i", f_grid.conj(), dark_dot)
    target = 1j * coupling / traj.energy

    speed = max(
        float(np.abs(coupling).max()),
        float(np.abs(np.einsum("ij,ij->i", f_grid.conj(), fdot_grid)).max()),
    )
    if speed > 0.0 and traj.energy / speed < 10.0:
        warnings.warn(
            f"scale separation E / speed = {traj.energy / speed:.2f} below 10; "
            "the quasi-static comparison may be unreliable",
            RegimeWarning,
            stacklevel=2,
        )

    window = int(round(8.0 * np.pi / traj.energy / traj.step))
    smooth, interior = moving_average(traj.alpha - target, window)
    body = smooth[interior]
    if body.size == 0:
        body = smooth
    return float(np.abs(body).max())
