"""Trajectory containers and their CSV serialization.

CSV files are deterministic: 17 significant digits, '.' decimal separator,
'\\n' line endings, and a versioned header comment beginning ``#schema=1``
that lists the column order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError

__all__ = ["DarkTrajectory", "EmbeddedTrajectory", "format_float"]


def format_float(x: float) -> str:
    """Format one float with 17 significant digits."""
    return f"{x:.17g}"


def _freeze(traj) -> None:
    for f in fields(traj):
        value = getattr(traj, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


def _state_columns(n: int) -> list[str]:
    return [f"re_psi_{j}" for j in range(n)] + [f"im_psi_{j}" for j in range(n)]


# Rows turned into Python floats at a time: a whole 50,000-row trajectory
# at once would hold about 20 MB of them.
_CSV_BLOCK_ROWS = 256


def _write_rows(stream, columns: list[str], rows: np.ndarray) -> None:
    stream.write("#schema=1 " + ",".join(columns) + "\n")
    # "%.17g" writes every value exactly as format_float does
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], _CSV_BLOCK_ROWS):
        block = rows[start : start + _CSV_BLOCK_ROWS].tolist()
        stream.writelines(line % tuple(row) for row in block)


@dataclass(frozen=True)
class DarkTrajectory:
    """Time-indexed record of a dark-evolution run.

    ``states`` holds the raw propagated states: sub-normalized for discrete
    runs (each measurement removes amplitude), unit-norm up to integrator
    accuracy for continuous runs.  ``survival_probability`` is the squared
    norm: the probability that every measurement so far answered "No".
    ``orthogonality_residual`` records ``|<f(t)|psi(t)>|`` as a monitored
    diagnostic; it is never enforced by projection.
    """

    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    survival_probability: np.ndarray
    orthogonality_residual: np.ndarray
    mode: str
    step: float

    def __post_init__(self):
        m = self.times.shape[0]
        if not (
            self.states.shape[0] == m
            and self.norms.shape[0] == m
            and self.survival_probability.shape[0] == m
            and self.orthogonality_residual.shape[0] == m
        ):
            raise InputError("trajectory arrays must share one length")
        if self.mode not in ("discrete", "continuous"):
            raise InputError(f"unknown trajectory mode {self.mode!r}")
        _freeze(self)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def csv_columns(self) -> list[str]:
        return ["t"] + _state_columns(self.dim) + ["norm", "survival_prob", "orth_residual"]

    def write_csv(self, stream) -> None:
        rows = np.column_stack(
            [
                self.times,
                self.states.real,
                self.states.imag,
                self.norms,
                self.survival_probability,
                self.orthogonality_residual,
            ]
        )
        _write_rows(stream, self.csv_columns(), rows)


@dataclass(frozen=True)
class EmbeddedTrajectory:
    """Record of a run under the rank-1 energy-shift Hamiltonian.

    ``full_states`` is the exactly propagated system state.  At each time it
    decomposes as ``full = dark + alpha * f(t)`` with ``dark_states``
    orthogonal to the monitored state and ``alpha = <f(t)|full>``.
    """

    times: np.ndarray
    full_states: np.ndarray
    dark_states: np.ndarray
    alpha: np.ndarray
    energy: float
    step: float

    def __post_init__(self):
        m = self.times.shape[0]
        if not (
            self.full_states.shape[0] == m
            and self.dark_states.shape == self.full_states.shape
            and self.alpha.shape[0] == m
        ):
            raise InputError("trajectory arrays must share one length")
        _freeze(self)

    @property
    def dim(self) -> int:
        return self.full_states.shape[1]

    @property
    def full_norms(self) -> np.ndarray:
        return np.linalg.norm(self.full_states, axis=1)

    @property
    def dark_norms(self) -> np.ndarray:
        return np.linalg.norm(self.dark_states, axis=1)

    def csv_columns(self) -> list[str]:
        return (
            ["t"]
            + _state_columns(self.dim)
            + ["norm", "survival_prob", "orth_residual", "re_alpha", "im_alpha"]
        )

    def write_csv(self, stream) -> None:
        """Serialize the dark component; alpha columns carry the remainder.

        The full state is reconstructible as ``dark + alpha * f(t)``.
        """
        dark_norms = self.dark_norms
        rows = np.column_stack(
            [
                self.times,
                self.dark_states.real,
                self.dark_states.imag,
                dark_norms,
                dark_norms**2,
                np.abs(self.alpha),
                self.alpha.real,
                self.alpha.imag,
            ]
        )
        _write_rows(stream, self.csv_columns(), rows)
