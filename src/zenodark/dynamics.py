"""Dark evolution under sequential negative-result measurements.

Discrete runs apply the map ``psi -> (1 - |f_n><f_n|) exp(-i H tau) psi`` at
times ``n tau`` and keep the raw sub-normalized state, whose squared norm is
the probability that every measurement so far answered "No".  In the
frequent-measurement limit the dynamics becomes a Schroedinger equation with
the Hermitian effective Hamiltonian

    H_D(t) = P H P + i (|fdot><f| - |f><fdot|),    P = 1 - |f><f|,

which preserves both the norm and the orthogonality ``<f(t)|psi(t)> = 0``.
Continuous runs integrate it with the exponential-midpoint scheme
``psi(t+dt) = exp(-i H_D(t+dt/2) dt) psi(t)``: exactly unitary per step,
second order in ``dt``.  With ``H = 0`` each step is an exact rotation on
span{f, fdot}, computed in closed form; otherwise it is a Taylor polynomial
of ``-i dt H_D`` with scaling and squaring, its degree chosen per step so the
first dropped term is at most 2^-53.  Neither runs an eigendecomposition.
Runs sample the path and call a kernel one window of steps at a time
(:func:`window_rows`); a run function collects the windows into arrays
(:func:`run_windows`), and the CLI reads them as they are made.  When the
monitored state is rotated by a generator K that commutes with H, the
co-moving effective Hamiltonian is time independent and the run has a
closed-form spectral solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    CommutatorError,
    InputError,
    OrthogonalityError,
    UnsupportedVariantError,
)
from .linalg import (
    as_state,
    fix_phases,
    hermitian_eigendecomposition,
    require_hermitian,
    require_unit,
    row_norms_and_overlaps,
    row_products,
    unitary_exp,
)
from .paths import MonitoredPath, require_generator
from .tolerances import DEFAULT, ToleranceProfile
from .trajectory import DarkTrajectory

__all__ = [
    "ZenoSpectrum",
    "discrete_dark_run",
    "effective_hamiltonian",
    "continuous_dark_run",
    "zeno_spectrum",
    "closed_form_solution",
    "closed_form_run",
    "cyclic_return_fidelity",
]


# Longest run accepted: a library run keeps its state and four floats per
# step (80 B at N = 3), about 0.9 GB for 10^7 steps.  The CLI keeps no rows
# of a dark run, 8 B per step of a design run and 16 B per step of an
# embedded run, besides its dark reference.  The same budget bounds steps x
# N, so a larger N allows proportionally fewer steps.
MAX_STEPS = 10_000_000
MAX_STEP_ROWS = 3 * MAX_STEPS

# Windows start at step 0 and span whole kernel chunks, so every chunk and
# block starts where one kernel call for the whole run would start it, and
# the rows are bitwise that call's; no sampled path spans the whole run.
# Eight chunks (3,640 steps at N = 3) hold half the sampled path of sixteen
# and run as fast.
_WINDOW_CHUNKS = 8


def windows(count: int, dim: int) -> list[tuple[int, int]]:
    """Ranges ``(a, b)`` that cover ``0 .. count`` in windows of whole kernel chunks."""
    width = _WINDOW_CHUNKS * kernels._chunk_steps(dim)
    return [(a, min(a + width, count)) for a in range(0, count, width)]


def window_rows(psi0: np.ndarray, steps: int, step: float, advance):
    """Rows ``0 .. steps`` of a run, sampled and propagated window by window.

    ``advance(a, b, psi)`` samples the path for steps ``a .. b`` and runs a
    kernel from ``psi``, the state at step ``a``: arrays of rows ``a .. b``,
    the states first.  Yields ``(start, times, rows)`` for each window: the
    rows not yielded before (all of the first window's, rows 1.. of each
    later one), their index ``start`` in the run and their times
    ``step * index``.  The generator holds no rows of a window while it
    makes the next.
    """
    psi = psi0
    for a, b in windows(steps, psi0.size):
        rows = advance(a, b, psi)
        psi = rows[0][-1].copy()
        start = a + 1 if a else 0
        rows = [r[start - a :] for r in rows]
        yield start, step * np.arange(start, b + 1), rows
        del rows


def run_windows(steps: int, produced) -> list[np.ndarray]:
    """The ``rows`` that :func:`window_rows` yields, as arrays of ``steps + 1`` rows."""
    out: list[np.ndarray] = []
    for start, _, rows in produced:
        if not out:
            out = [np.empty((steps + 1, *r.shape[1:]), r.dtype) for r in rows]
        for o, r in zip(out, rows):
            o[start : start + r.shape[0]] = r
    return out


def _dark_trajectory(steps: int, produced, mode: str, step: float) -> DarkTrajectory:
    """The windows of a run, rows ``[states, norms, orth]``, collected into a trajectory."""
    states, norms, orth = run_windows(steps, produced)
    return DarkTrajectory(
        times=step * np.arange(steps + 1),
        states=states,
        norms=norms,
        survival_probability=norms**2,
        orthogonality_residual=orth,
        mode=mode,
        step=float(step),
    )


def require_step_count(count: float, T: float, dt: float, dim: int) -> int:
    """``count``, a whole number of steps of ``dt`` covering ``T``, as an int.

    Raises :class:`InputError` unless ``count`` is at least 1, at most
    :data:`MAX_STEPS`, and ``count * dim`` at most :data:`MAX_STEP_ROWS`.
    The bounds are checked on the float, so an infinite or huge count is
    reported rather than converted.
    """
    if count > 1e308:  # an int too large for a float is reported as inf
        count = np.inf
    if count > MAX_STEPS:
        raise InputError(f"{count:.3g} steps of {dt} exceed the limit of {MAX_STEPS} steps")
    if count * dim > MAX_STEP_ROWS:
        raise InputError(
            f"{count:.3g} steps of {dt} at dimension {dim} exceed the limit of "
            f"{MAX_STEP_ROWS} steps x dimension"
        )
    if not count >= 1:  # NaN too
        raise InputError(f"duration {T} shorter than one step {dt}")
    return int(count)


def step_count(T: float, dt: float, dim: int) -> int:
    """Number of uniform steps of size ``dt`` covering the duration ``T``.

    Raises :class:`InputError` unless ``T`` and ``dt`` are finite and positive
    and ``T`` spans a step count that :func:`require_step_count` accepts for
    states of dimension ``dim``.
    """
    if not (0.0 < dt < np.inf and 0.0 < T < np.inf):
        raise InputError("duration and step must be finite and positive")
    return require_step_count(np.rint(T / dt), T, dt, dim)


def require_orthogonal(f, psi0, tol: ToleranceProfile = DEFAULT, drift: float = 0.0) -> None:
    """Dark-evolution setup check ``|<f|psi0>| <= tol.setup_orthogonality + drift``.

    Raises :class:`OrthogonalityError` otherwise.  ``drift`` widens the bound
    for runs whose first monitored state lies one step after the start.
    """
    overlap = abs(np.vdot(f, psi0))
    bound = tol.setup_orthogonality + drift
    if overlap > bound:
        raise OrthogonalityError(
            f"initial state must be orthogonal to the monitored state: "
            f"|<f|psi0>| = {overlap:.3e} exceeds {bound:.3e}"
        )


def _discrete_windows(psi0, path: MonitoredPath, H, tau: float, M: int, tol: ToleranceProfile):
    """Checks, then ``(M, windows)``: the step count and the run's
    :func:`window_rows`, rows ``[states, norms, orth]`` (row 0's overlap 0)."""
    psi0 = require_unit(psi0, tol, name="initial state")
    H = require_hermitian(H, tol, name="hamiltonian")
    if not 0.0 < tau < np.inf:
        raise InputError("measurement interval must be finite and positive")
    # M * tau overflows for an int beyond the float range; require_step_count
    # reports a count that large before it reads the duration
    duration = M * tau if abs(M) <= MAX_STEPS else np.nan
    M = require_step_count(M, duration, tau, psi0.size)
    U = unitary_exp(H, tau, tol)
    f, fdot = path.evaluate(tau)
    require_orthogonal(f, psi0, tol, drift=2.0 * tau * float(np.linalg.norm(fdot)))

    def advance(a, b, psi):
        # f of each row; the window's first row is not measured: overlap 0
        f = np.zeros((b - a + 1, psi.size), np.complex128)
        f[1:] = path.evaluate_many(tau * np.arange(a + 1, b + 1))[0]
        states = kernels.discrete_loop(U, f[1:], psi)
        return [states, *row_norms_and_overlaps(f, states)]

    return M, window_rows(psi0, M, tau, advance)


def discrete_dark_run(
    psi0,
    path: MonitoredPath,
    H,
    tau: float,
    M: int,
    tol: ToleranceProfile = DEFAULT,
) -> DarkTrajectory:
    """Run ``M`` measurement steps with the monitored state sampled at ``n tau``.

    The initial state has to be orthogonal to the first measured state
    ``f(tau)``; states orthogonal to ``f(0)`` pass as well, up to the drift
    the path accumulates over a single step.

    Raises
    ------
    OrthogonalityError
        If the initial state has a component on ``f(tau)`` beyond the setup
        tolerance plus the one-step drift allowance.
    """
    return _dark_trajectory(*_discrete_windows(psi0, path, H, tau, M, tol), "discrete", tau)


def effective_hamiltonian(H, f, fdot, tol: ToleranceProfile = DEFAULT) -> np.ndarray:
    """Hermitian generator of dark evolution for monitored state ``f``.

    ``H_D = P H P + i(|fdot><f| - |f><fdot|)`` with ``P = 1 - |f><f|``.
    The derivative must not drift the norm: ``Re <f|fdot>`` has to vanish
    within ``tol.path_norm_rate``.  The matrix is built by
    ``kernels.effective_hamiltonians``, the stack the continuous kernel uses.
    """
    H = require_hermitian(H, tol, name="hamiltonian")
    f = require_unit(f, tol, name="monitored state")
    fdot = as_state(fdot, f.shape[0])
    rate = float(np.real(np.vdot(f, fdot)))
    if abs(rate) > tol.path_norm_rate:
        raise InputError(
            f"monitored-state derivative drifts the norm: Re<f|fdot> = {rate:.3e}"
        )
    return kernels.effective_hamiltonians(H, f[None], fdot[None])[0]


def _continuous_windows(
    psi0, path: MonitoredPath, H, T: float, dt: float, tol: ToleranceProfile, grid: bool
):
    """Checks, then ``(steps, windows)``: the exponential-midpoint run's
    :func:`window_rows`.

    Checks ``psi0`` (unit), ``H`` (Hermitian), the step count and
    ``<f(0)|psi0>`` when called.  Each window samples ``f`` and ``fdot`` at
    its midpoints for the continuous kernel.  Rows are ``[states]``; with
    ``grid``, the path is also sampled on the grid and ``[states, norms,
    orth]`` holds the norms and the overlaps ``|<f(t)|psi(t)>|``.
    """
    psi0 = require_unit(psi0, tol, name="initial state")
    H = np.ascontiguousarray(require_hermitian(H, tol, name="hamiltonian"))
    steps = step_count(T, dt, psi0.size)
    require_orthogonal(path.evaluate(0.0)[0], psi0, tol)

    def advance(a, b, psi):
        f_mid, fdot_mid = path.evaluate_many(dt * (np.arange(a, b) + 0.5))
        states = kernels.continuous_loop(H, f_mid, fdot_mid, psi, float(dt))
        if not grid:
            return [states]
        del f_mid, fdot_mid  # not held while the grid is sampled
        f_grid = path.evaluate_many(dt * np.arange(a, b + 1))[0]
        return [states, *row_norms_and_overlaps(f_grid, states)]

    return steps, window_rows(psi0, steps, dt, advance)


def _continuous_rows(
    psi0, path: MonitoredPath, H, T: float, dt: float, tol: ToleranceProfile, grid: bool
) -> list[np.ndarray]:
    """The rows of :func:`_continuous_windows`, each as one array of the whole run."""
    return run_windows(*_continuous_windows(psi0, path, H, T, dt, tol, grid))


def continuous_dark_run(
    psi0,
    path: MonitoredPath,
    H,
    T: float,
    dt: float,
    tol: ToleranceProfile = DEFAULT,
) -> DarkTrajectory:
    """Integrate the effective Schroedinger equation on a uniform grid.

    Exponential-midpoint propagation: each step applies ``exp(-i H_D dt)``
    with ``H_D`` evaluated at the interval midpoint, in closed form for
    ``H = 0`` and otherwise as a Taylor series with scaling and squaring
    accurate to rounding, so the norm is preserved to machine precision
    regardless of ``dt``.  The
    orthogonality residual ``|<f(t)|psi(t)>|`` is recorded as a diagnostic;
    it converges to zero as ``O(dt^2)``.

    Raises
    ------
    OrthogonalityError
        If ``<f(0)|psi0>`` exceeds the setup tolerance.
    """
    produced = _continuous_windows(psi0, path, H, T, dt, tol, grid=True)
    return _dark_trajectory(*produced, "continuous", dt)


def _commuting_setup(psi0, H, K, f0, tol: ToleranceProfile):
    # validated (psi0, H, K, f0) of a static co-moving problem: [K, H] = 0, psi0 _|_ f0
    psi0 = require_unit(psi0, tol, name="initial state")
    H = require_hermitian(H, tol, name="hamiltonian")
    K = require_hermitian(K, tol, name="path generator")
    f0 = require_unit(f0, tol, name="monitored state")
    comm = np.linalg.norm(K @ H - H @ K)
    bound = tol.commutator_rel * np.linalg.norm(K) * np.linalg.norm(H)
    if comm > bound:
        raise CommutatorError(
            f"generator and hamiltonian do not commute (||[K,H]|| = {comm:.3e}); "
            "no closed form exists, use continuous_dark_run for time-ordered "
            "integration"
        )
    require_orthogonal(f0, psi0, tol)
    return psi0, H, K, f0


def _complement_basis(f0: np.ndarray) -> np.ndarray:
    n = f0.shape[0]
    q, _ = np.linalg.qr(np.column_stack([f0, np.eye(n, dtype=np.complex128)]))
    return q[:, 1:n]


@dataclass(frozen=True)
class ZenoSpectrum:
    """Eigensystem of the co-moving effective Hamiltonian on the complement.

    ``modes[:, k]`` spans the complement of the initial monitored state,
    ``frequencies[k]`` are the emergent eigenfrequencies (in general neither
    eigenvalues of H nor of K), and ``coefficients[k]`` expand the initial
    state over the modes.
    """

    frequencies: np.ndarray
    modes: np.ndarray
    coefficients: np.ndarray
    monitored_state: np.ndarray


def zeno_spectrum(
    H, K, f0, psi0, tol: ToleranceProfile = DEFAULT
) -> ZenoSpectrum:
    """Diagonalize ``P(0)(H - K)P(0)`` restricted to the complement of ``f0``.

    Requires ``[K, H] = 0`` (otherwise the co-moving Hamiltonian is time
    dependent and there is no static spectrum) and an initial state
    orthogonal to ``f0`` so that the expansion coefficients are complete.
    """
    psi0, H, K, f0 = _commuting_setup(psi0, H, K, f0, tol)
    B = _complement_basis(f0)
    restricted = B.conj().T @ (H - K) @ B
    restricted = 0.5 * (restricted + restricted.conj().T)
    dec = hermitian_eigendecomposition(restricted, tol)
    # reapply the phase convention in the full space
    modes = fix_phases(B @ dec.eigenvectors, tol.eigenvector_phase_floor)
    coefficients = modes.conj().T @ psi0
    return ZenoSpectrum(
        frequencies=dec.eigenvalues,
        modes=modes,
        coefficients=coefficients,
        monitored_state=f0,
    )


def closed_form_states(psi0, H, K, f0, tol: ToleranceProfile = DEFAULT):
    """``states(times)``, rows ``exp(-i K t) exp(-i Htilde t) psi0`` for ``[K,H] = 0``.

    Checks and diagonalizes once; a row is rounded alike in any grid, so a
    run's windows are rows of the whole.  ``Htilde = P(0)(H - K)P(0)``.
    """
    psi0, H, K, f0 = _commuting_setup(psi0, H, K, f0, tol)
    P0 = np.eye(f0.shape[0], dtype=np.complex128) - np.outer(f0, f0.conj())
    Ht = P0 @ (H - K) @ P0
    decH = hermitian_eigendecomposition(0.5 * (Ht + Ht.conj().T), tol)
    decK = hermitian_eigendecomposition(K, tol)
    coefficients = decH.eigenvectors.conj().T @ psi0

    def states(times: np.ndarray) -> np.ndarray:
        inner = np.exp(-1j * np.outer(times, decH.eigenvalues)) * coefficients
        comoving = row_products(inner, decH.eigenvectors.T)
        rotated = np.exp(-1j * np.outer(times, decK.eigenvalues)) * row_products(
            comoving, decK.eigenvectors.conj()
        )
        return row_products(rotated, decK.eigenvectors.T)

    return states


def closed_form_solution(
    psi0, H, K, f0, t: float, tol: ToleranceProfile = DEFAULT
) -> np.ndarray:
    """Spectral solution ``exp(-i K t) exp(-i Htilde t) psi0`` for ``[K,H] = 0``.

    ``Htilde = P(0)(H - K)P(0)``.  Equals the mode expansion
    ``sum_k c_k exp(-i w_k t) exp(-i K t) u_k`` over the complement spectrum.
    """
    return closed_form_states(psi0, H, K, f0, tol)(np.array([float(t)]))[0]


def _closed_form_windows(psi0, path: MonitoredPath, H, T: float, dt: float, tol: ToleranceProfile):
    """Checks, then ``(steps, windows)``: the closed form's :func:`window_rows`,
    rows ``[states, norms, orth]``."""
    gen = require_generator(path)
    steps = step_count(T, dt, np.size(psi0))
    states_at = closed_form_states(psi0, H, gen.generator, gen.initial_state, tol)

    def advance(a, b, psi):
        times = dt * np.arange(a, b + 1)
        states = states_at(times)
        f_grid = path.evaluate_many(times)[0]
        orth = np.abs(np.einsum("ij,ij->i", f_grid.conj(), states))
        return states, np.linalg.norm(states, axis=1), orth

    return steps, window_rows(np.asarray(psi0), steps, dt, advance)


def closed_form_run(
    psi0, path: MonitoredPath, H, T: float, dt: float, tol: ToleranceProfile = DEFAULT
) -> DarkTrajectory:
    """Sample the closed-form solution on a uniform grid, one window at a time.

    The path must carry a generator (a generator or mode path) commuting
    with ``H``.
    """
    return _dark_trajectory(*_closed_form_windows(psi0, path, H, T, dt, tol), "continuous", dt)


def cyclic_return_fidelity(spectrum: ZenoSpectrum, T: float | None) -> float:
    """Return fidelity ``|<psi(0)|psi(T)>|`` after one path period.

    Over a period the moving modes come back, so the overlap reduces to
    ``|sum_k |c_k|^2 exp(-i w_k T)|``: generically below one, because the
    emergent frequencies are not the path's own.
    """
    if T is None:
        raise UnsupportedVariantError("return fidelity needs a periodic path")
    weights = np.abs(spectrum.coefficients) ** 2
    value = np.abs(np.sum(weights * np.exp(-1j * spectrum.frequencies * float(T))))
    return float(min(value, 1.0))
