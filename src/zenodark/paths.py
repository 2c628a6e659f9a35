"""Time-varying monitored states ``f(t)`` and their derivatives.

Every representation is a grid sampler: it implements ``_sample(ts)``,
returning the raw ``(f, fdot)`` rows on a time grid, and
``MonitoredPath.evaluate_many`` is the one evaluator on top of it.  It
renormalizes rows whose norm drifts beyond the profile threshold;
``evaluate(t)`` is its single-point case.

``ModePath``
    ``f(t) = sum_j a_j exp(-i W_j t) |k_j>`` over orthonormal modes, that is
    ``exp(-i K t) f(0)``: it carries ``generator`` K and ``initial_state``.
    ``mode_design`` returns one.
``GeneratorPath``
    the mode path of a given Hermitian generator K, over K's eigenbasis.
``SampledPath``
    discrete unit samples on an ascending time grid, interpolated on the
    unit sphere and differentiated with fourth-order stencils.
``DesignedPath``
    the grid sampler ``design_monitored_state`` builds; no generator.

``require_generator`` checks that a path carries a generator, as closed
forms, spectra and ``period_of`` need; ``period_of`` detects commensurate
frequency content by continued-fraction approximation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DomainError, InputError, UnsupportedVariantError
from .linalg import hermitian_eigendecomposition, require_hermitian, require_unit, row_products
from .stencil import differentiate_series
from .tolerances import DEFAULT, ToleranceProfile

__all__ = [
    "MonitoredPath",
    "GeneratorPath",
    "ModePath",
    "SampledPath",
    "DesignedPath",
    "require_generator",
    "period_of",
]

_AMPLITUDE_FLOOR = 1e-12


class MonitoredPath:
    """Common interface of all monitored-state representations.

    Subclasses implement ``_sample(ts)``, the raw ``(f, fdot)`` rows on a
    float grid; ``evaluate_many`` is the one evaluator built on it.
    """

    dim: int

    def _sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def evaluate_many(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(f, fdot)`` on a whole grid, rows following ``ts``, C-ordered.

        Rows of ``f`` whose norm drifts from one by more than
        ``tol.path_renormalize_drift`` are renormalized.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        f, fdot = self._sample(ts)
        norms = np.linalg.norm(f, axis=1)
        drift = np.abs(norms - 1.0) > self._tol.path_renormalize_drift
        if drift.any():
            f = f.copy()
            f[drift] /= norms[drift, None]
        return np.ascontiguousarray(f), np.ascontiguousarray(fdot)

    def evaluate(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(f(t), fdot(t))`` with ``f`` unit-norm."""
        f, fdot = self.evaluate_many([t])
        return f[0], fdot[0]


class ModePath(MonitoredPath):
    """Coherent superposition of orthonormal modes with fixed frequencies.

    ``modes`` holds one mode per column; the default is the standard basis.
    """

    def __init__(self, amplitudes, frequencies, modes=None, tol: ToleranceProfile = DEFAULT):
        self.amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        self.frequencies = np.asarray(frequencies, dtype=float)
        if self.amplitudes.ndim != 1 or self.amplitudes.shape != self.frequencies.shape:
            raise InputError("amplitudes and frequencies must be 1-D and of equal length")
        if not (np.isfinite(self.amplitudes).all() and np.isfinite(self.frequencies).all()):
            raise InputError("amplitudes and frequencies must be finite")
        total = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(total - 1.0) > tol.path_norm:
            raise InputError(
                f"mode amplitudes must satisfy sum |a_j|^2 = 1, got {total:.12g}"
            )
        if modes is None:
            self.modes = np.eye(self.amplitudes.size, dtype=np.complex128)
        else:
            self.modes = np.asarray(modes, dtype=np.complex128)
            if self.modes.shape[1:] != self.amplitudes.shape or not np.isfinite(self.modes).all():
                raise InputError("modes must be a finite matrix with one column per amplitude")
            gram = self.modes.conj().T @ self.modes
            if np.abs(gram - np.eye(gram.shape[0])).max() > tol.unit_state:
                raise InputError("mode vectors must be orthonormal")
        self.dim = self.modes.shape[0]
        self._standard_basis = modes is None
        self._tol = tol

    def _sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phased = np.exp(-1j * np.outer(ts, self.frequencies)) * self.amplitudes
        fdot = phased * (-1j * self.frequencies)
        if self._standard_basis:  # the identity product would only flip signed zeros
            return phased, fdot
        return row_products(phased, self.modes.T), row_products(fdot, self.modes.T)

    # the generator form, built when first read (a GeneratorPath sets both to
    # its validated inputs); directions outside the modes get frequency zero
    @cached_property
    def generator(self) -> np.ndarray:
        """Hermitian ``K = sum_j W_j |k_j><k_j|``, so ``f(t) = exp(-i K t) f(0)``."""
        K = (self.modes * self.frequencies) @ self.modes.conj().T
        return require_hermitian(0.5 * (K + K.conj().T), self._tol, name="path generator")

    @cached_property
    def initial_state(self) -> np.ndarray:
        """Unit ``f(0) = sum_j a_j |k_j>``."""
        return require_unit(self.modes @ self.amplitudes, self._tol, name="initial monitored state")


class GeneratorPath(ModePath):
    """Monitored state rotated by a constant Hermitian generator.

    A mode path over the generator's eigenbasis: the eigenvalues are the
    frequencies and the amplitudes are the initial state's components.
    """

    def __init__(self, generator, initial_state, tol: ToleranceProfile = DEFAULT):
        self.generator = require_hermitian(generator, tol, name="path generator")
        self.initial_state = require_unit(initial_state, tol, name="initial monitored state")
        if self.generator.shape[0] != self.initial_state.shape[0]:
            raise InputError("generator and initial monitored state dimensions differ")
        dec = hermitian_eigendecomposition(self.generator, tol)
        modes = dec.eigenvectors
        super().__init__(modes.conj().T @ self.initial_state, dec.eigenvalues, modes, tol=tol)


class SampledPath(MonitoredPath):
    """Monitored state known only at discrete sample times.

    Between samples the state is interpolated along the great circle of the
    unit sphere after aligning the relative phase of the bracketing samples,
    with the removed phase restored linearly, so interpolation is exact at
    the nodes and unit-norm everywhere.  Node derivatives use fourth-order
    stencils; between nodes the derivative is interpolated linearly and its
    norm-violating radial part is projected out.
    """

    def __init__(self, times, samples, tol: ToleranceProfile = DEFAULT):
        self.times = np.asarray(times, dtype=float)
        self.samples = np.asarray(samples, dtype=np.complex128)
        if self.times.ndim != 1 or self.samples.ndim != 2:
            raise InputError("need 1-D times and a matrix of samples")
        if self.samples.shape[0] != self.times.size:
            raise InputError("one sample per time required")
        if not (np.isfinite(self.times).all() and np.isfinite(self.samples).all()):
            raise InputError("sample times and samples must be finite")
        if self.times.size < 5:
            raise InputError("need at least 5 samples")
        if np.any(np.diff(self.times) <= 0):
            raise InputError("sample times must be strictly ascending")
        norms = np.linalg.norm(self.samples, axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if worst > tol.path_norm:
            raise InputError(
                f"samples must be unit-norm, worst deviation {worst:.3e}"
            )
        self.samples = self.samples / norms[:, None]
        self.dim = self.samples.shape[1]
        self._tol = tol
        self._derivatives = differentiate_series(self.samples, self.times)

    def _sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t0, t1 = self.times[0], self.times[-1]
        slack = 1e-12 * max(1.0, abs(t0), abs(t1))
        inside = (ts >= t0 - slack) & (ts <= t1 + slack)
        if not inside.all():
            t = ts[~inside][0]
            raise DomainError(
                f"t = {t:.12g} outside sampled range [{t0:.12g}, {t1:.12g}]"
            )
        ts = np.clip(ts, t0, t1)
        i = np.searchsorted(self.times, ts, side="right") - 1
        i = np.clip(i, 0, self.times.size - 2)
        ta, tb = self.times[i], self.times[i + 1]
        u = ((ts - ta) / (tb - ta))[:, None]
        a, b = self.samples[i], self.samples[i + 1]
        overlap = np.sum(a.conj() * b, axis=1)[:, None]
        theta = np.angle(overlap)
        b_aligned = b * np.exp(-1j * theta)
        omega = np.arccos(np.minimum(np.abs(overlap), 1.0))
        linear = omega < 1e-9
        chord = (1.0 - u) * a + u * b_aligned
        chord /= np.linalg.norm(chord, axis=1, keepdims=True)
        arc = (np.sin((1.0 - u) * omega) * a + np.sin(u * omega) * b_aligned) / np.sin(
            np.where(linear, 1.0, omega)
        )
        f = np.where(linear, chord, arc) * np.exp(1j * theta * u)

        fdot = (1.0 - u) * self._derivatives[i] + u * self._derivatives[i + 1]
        fdot = fdot - np.real(np.sum(f.conj() * fdot, axis=1))[:, None] * f
        return f, fdot


class DesignedPath(MonitoredPath):
    """Monitored state that ``design_monitored_state`` builds for a target.

    ``sample(ts)`` maps a float grid to the ``(f, fdot)`` rows.  It carries
    no generator.
    """

    def __init__(self, dim: int, sample, tol: ToleranceProfile = DEFAULT):
        self.dim = int(dim)
        self._sampler = sample
        self._tol = tol

    def _sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._sampler(ts)


def require_generator(path: MonitoredPath) -> ModePath:
    """The path itself, checked to be a mode path, which carries a generator.

    Raises
    ------
    UnsupportedVariantError
        For a ``SampledPath`` or ``DesignedPath``, which carries no generator.
    """
    if not isinstance(path, ModePath):
        raise UnsupportedVariantError("this operation needs a generator or mode path")
    return path


def period_of(path: MonitoredPath, tol: ToleranceProfile = DEFAULT) -> float | None:
    """Smallest period of ``f(t)`` up to a global phase, or None if aperiodic.

    The path is cyclic when all pairwise frequency differences share a
    common measure; the global phase ``exp(-i W_ref T)`` of the reference
    frequency is quotiented out.  Differences are compared by
    continued-fraction approximation with denominators capped at
    ``tol.rational_denominator_cap`` and acceptance ``tol.rational_tolerance``;
    the candidate period is then verified against the evaluated path.

    Returns 0.0 for a path that is stationary up to a global phase (every
    positive time is a period).
    """
    path = require_generator(path)
    freqs = path.frequencies[np.abs(path.amplitudes) > _AMPLITUDE_FLOOR]
    ref = freqs[0]
    scale = max(1.0, float(np.abs(freqs).max()))
    diffs = np.array([w - ref for w in freqs[1:] if abs(w - ref) > tol.rational_tolerance * scale])
    if diffs.size == 0:
        return 0.0

    d_star = diffs[np.argmin(np.abs(diffs))]
    approximants: list[Fraction] = []
    denominator_lcm = 1
    for d in diffs:
        frac = Fraction(float(d / d_star)).limit_denominator(tol.rational_denominator_cap)
        if abs(float(frac) - d / d_star) > tol.rational_tolerance:
            return None
        denominator_lcm = math.lcm(denominator_lcm, frac.denominator)
        approximants.append(frac)
    common = 0
    for frac in approximants:
        common = math.gcd(common, abs(frac.numerator) * (denominator_lcm // frac.denominator))
    period = 2.0 * math.pi * denominator_lcm / (abs(d_star) * common)

    (f_start, f_end), _ = path.evaluate_many([0.0, period])
    mismatch = np.linalg.norm(f_end * np.exp(1j * ref * period) - f_start)
    if mismatch > tol.period_return:
        return None
    return float(period)
