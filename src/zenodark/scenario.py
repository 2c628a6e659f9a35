"""Scenario configuration: a documented JSON schema for runs and sweeps.

Complex numbers are written as ``[re, im]`` pairs (plain numbers are read as
real); matrices are row-major nested lists.  Every number must be finite:
``NaN`` and ``Infinity``, which Python's JSON reader accepts, are schema
violations.  Top-level keys::

    {
      "name":          optional string (defaults to the file stem),
      "description":   optional string, ignored,
      "dimension":     N >= 2,
      "initial_state": complex vector, normalized at parse time
                       (optional for mode "inverse"),
      "hamiltonian":   "zero" or an N x N Hermitian matrix,
      "path":          {"type": "generator" | "modes" | "samples" | "designed", ...},
      "run":           {"mode": "discrete" | "continuous" | "closed_form"
                                | "embedded" | "inverse",
                        "T": ..., "dt": ..., "tau": ..., "M": ..., "E": ...},
      "sweep":         optional {"parameter": "tau" | "dt" | "E",
                       "values": [three or more distinct positive numbers]},
      "output":        optional {"directory": "out", "formats": ["csv", "json"]}
    }

Path blocks:

* ``generator``: ``"generator"`` (N x N Hermitian), ``"initial_state"``
  (unit vector, the monitored state at t = 0).
* ``modes``: ``"amplitudes"`` (complex, sum of squared magnitudes 1),
  ``"frequencies"`` (real), optional ``"modes"`` (list of orthonormal mode
  vectors; defaults to the standard basis).
* ``samples``: ``"times"`` (ascending), ``"samples"`` (unit vectors).
* ``designed``: ``"probabilities"`` and ``"frequencies"`` of a mode target;
  the monitored state is constructed by inverse design (``mode_design``)
  once, at load, and the scenario keeps the target as ``Scenario.target``.

Schema violations raise :class:`ConfigError` (exit code 2 in the CLI).
Physics violations (exit code 3) surface from the run itself, except those
of a ``designed`` block: its path is built at load, so a target that
violates parallel transport or is degenerate fails in ``load_scenario``,
after every schema check.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .design import ModeTrajectory, mode_design
from .errors import ConfigError
from .paths import GeneratorPath, ModePath, MonitoredPath, SampledPath
from .tolerances import DEFAULT, ToleranceProfile

__all__ = [
    "RunSettings", "SweepSettings", "OutputSettings", "Scenario", "load_scenario"
]

_TOP_KEYS = {
    "name",
    "description",
    "dimension",
    "initial_state",
    "hamiltonian",
    "path",
    "run",
    "sweep",
    "output",
}
_MODES = {"discrete", "continuous", "closed_form", "embedded", "inverse"}
_SWEEP_PARAMETERS = {"tau", "dt", "E"}
_FORMATS = {"csv", "json"}


def _is_finite_number(value) -> bool:
    # false for NaN, +-Infinity and integers too large for a float
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _complex_scalar(value, where: str) -> complex:
    if _is_finite_number(value):
        return complex(value, 0.0)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_finite_number, value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a finite number or [re, im] pair, got {value!r}")


def _complex_vector(value, where: str, length: int | None = None) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a non-empty list")
    vec = np.array([_complex_scalar(x, where) for x in value], dtype=np.complex128)
    if length is not None and vec.size != length:
        raise ConfigError(f"{where}: expected length {length}, got {vec.size}")
    return vec


def _complex_matrix(value, where: str, dim: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        raise ConfigError(f"{where}: expected {dim} rows")
    rows = [_complex_vector(row, f"{where}[{i}]", dim) for i, row in enumerate(value)]
    return np.vstack(rows)


def _real_vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a non-empty list")
    out = []
    for x in value:
        if not _is_finite_number(x):
            raise ConfigError(f"{where}: expected finite real numbers, got {x!r}")
        out.append(float(x))
    return np.asarray(out)


def _positive_number(value, where: str) -> float:
    if not _is_finite_number(value) or value <= 0:
        raise ConfigError(f"{where}: expected a finite positive number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class RunSettings:
    mode: str
    T: float | None = None
    dt: float | None = None
    tau: float | None = None
    M: int | None = None
    E: float | None = None


@dataclass(frozen=True)
class SweepSettings:
    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


@dataclass(frozen=True)
class Scenario:
    name: str
    dimension: int
    initial_state: np.ndarray | None
    hamiltonian: np.ndarray
    path: MonitoredPath
    run: RunSettings | None
    sweep: SweepSettings | None
    output: OutputSettings
    target: ModeTrajectory | None


def _parse_path(
    block, dim: int, tol: ToleranceProfile
) -> tuple[MonitoredPath, ModeTrajectory | None]:
    # the monitored path and, for a designed path, its target
    if not isinstance(block, dict) or "type" not in block:
        raise ConfigError("path: expected an object with a 'type' key")
    kind = block["type"]
    try:
        if kind == "generator":
            K = _complex_matrix(block["generator"], "path.generator", dim)
            f0 = _complex_vector(block["initial_state"], "path.initial_state", dim)
            return GeneratorPath(K, f0, tol=tol), None
        if kind == "modes":
            amps = _complex_vector(block["amplitudes"], "path.amplitudes")
            freqs = _real_vector(block["frequencies"], "path.frequencies")
            if amps.size != freqs.size:
                raise ConfigError("path: amplitudes and frequencies lengths differ")
            modes = None
            if "modes" in block:
                vectors = block["modes"]
                if not isinstance(vectors, list) or len(vectors) != amps.size:
                    raise ConfigError("path.modes: expected one vector per amplitude")
                cols = [
                    _complex_vector(v, f"path.modes[{j}]", dim)
                    for j, v in enumerate(vectors)
                ]
                modes = np.column_stack(cols)
            elif amps.size != dim:
                raise ConfigError(
                    "path: without explicit modes the number of amplitudes must "
                    "equal the dimension"
                )
            return ModePath(amps, freqs, modes, tol=tol), None
        if kind == "samples":
            times = _real_vector(block["times"], "path.times")
            samples = block["samples"]
            if not isinstance(samples, list) or len(samples) != times.size:
                raise ConfigError("path.samples: expected one sample per time")
            rows = [
                _complex_vector(s, f"path.samples[{i}]", dim)
                for i, s in enumerate(samples)
            ]
            return SampledPath(times, np.vstack(rows), tol=tol), None
        if kind == "designed":
            probabilities = _real_vector(block["probabilities"], "path.probabilities")
            frequencies = _real_vector(block["frequencies"], "path.frequencies")
            if probabilities.size != dim or frequencies.size != dim:
                raise ConfigError(
                    "path: probabilities and frequencies must have one entry per "
                    "dimension"
                )
            target, designed = mode_design(probabilities, frequencies, tol=tol)
            return designed, target
    except KeyError as exc:
        raise ConfigError(f"path: missing key {exc.args[0]!r} for type {kind!r}") from exc
    raise ConfigError(f"path: unknown type {kind!r}")


def _parse_run(block) -> RunSettings:
    if not isinstance(block, dict):
        raise ConfigError("run: expected an object")
    if "mode" not in block or block["mode"] not in _MODES:
        raise ConfigError(f"run.mode: expected one of {sorted(_MODES)}")
    mode = block["mode"]
    unknown = set(block) - {"mode", "T", "dt", "tau", "M", "E"}
    if unknown:
        raise ConfigError(f"run: unknown keys {sorted(unknown)}")

    T = _positive_number(block["T"], "run.T") if "T" in block else None
    dt = _positive_number(block["dt"], "run.dt") if "dt" in block else None
    tau = _positive_number(block["tau"], "run.tau") if "tau" in block else None
    E = _positive_number(block["E"], "run.E") if "E" in block else None
    M = None
    if "M" in block:
        if isinstance(block["M"], bool) or not isinstance(block["M"], int) or block["M"] < 1:
            raise ConfigError("run.M: expected a positive integer")
        M = block["M"]

    if mode == "discrete":
        if tau is None or (M is None and T is None):
            raise ConfigError("run: discrete mode needs tau and M (or T)")
    elif mode in ("continuous", "closed_form", "inverse"):
        if T is None or dt is None:
            raise ConfigError(f"run: {mode} mode needs T and dt")
    elif mode == "embedded":
        if T is None or dt is None or E is None:
            raise ConfigError("run: embedded mode needs T, dt and E")
    return RunSettings(mode=mode, T=T, dt=dt, tau=tau, M=M, E=E)


def _parse_sweep(block) -> SweepSettings:
    if not isinstance(block, dict):
        raise ConfigError("sweep: expected an object")
    unknown = set(block) - {"parameter", "values"}
    if unknown:
        raise ConfigError(f"sweep: unknown keys {sorted(unknown)}")
    parameter = block.get("parameter")
    if parameter not in _SWEEP_PARAMETERS:
        raise ConfigError(f"sweep.parameter: expected one of {sorted(_SWEEP_PARAMETERS)}")
    raw = block.get("values")
    if not isinstance(raw, list):
        raise ConfigError("sweep.values: expected a list")
    values = tuple(_positive_number(v, "sweep.values") for v in raw)
    if len(values) < 3:
        raise ConfigError("sweep.values: need at least 3 values")
    if len(set(values)) < 3:
        raise ConfigError("sweep.values: need at least 3 distinct values")
    return SweepSettings(parameter=parameter, values=values)


def _parse_output(block) -> OutputSettings:
    if block is None:
        return OutputSettings()
    if not isinstance(block, dict):
        raise ConfigError("output: expected an object")
    unknown = set(block) - {"directory", "formats"}
    if unknown:
        raise ConfigError(f"output: unknown keys {sorted(unknown)}")
    directory = block.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("output.directory: expected a non-empty string")
    formats = block.get("formats", ["csv", "json"])
    if (
        not isinstance(formats, list)
        or not formats
        or any(f not in _FORMATS for f in formats)
    ):
        raise ConfigError(f"output.formats: expected a non-empty subset of {sorted(_FORMATS)}")
    return OutputSettings(directory=directory, formats=tuple(formats))


def load_scenario(config_path, tol: ToleranceProfile = DEFAULT) -> Scenario:
    """Parse and validate a scenario file.

    Raises :class:`ConfigError` for structural problems and the validation
    errors of the underlying types (non-Hermitian matrices, non-unit states)
    for bad numerical content.  A ``designed`` path is built here, so its
    physics errors (``ParallelTransportError``, ``DegenerateTargetError``)
    come from this function too.
    """
    path = Path(config_path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")

    if "dimension" not in raw:
        raise ConfigError("missing required key 'dimension'")
    dim = raw["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
        raise ConfigError("dimension: expected an integer >= 2")

    if "path" not in raw:
        raise ConfigError("missing required key 'path'")

    hamiltonian = raw.get("hamiltonian", "zero")
    if isinstance(hamiltonian, str):
        if hamiltonian != "zero":
            raise ConfigError(f"hamiltonian: unknown keyword {hamiltonian!r}")
        H = np.zeros((dim, dim), dtype=np.complex128)
    else:
        H = _complex_matrix(hamiltonian, "hamiltonian", dim)

    run = _parse_run(raw["run"]) if "run" in raw else None

    initial = None
    if "initial_state" in raw:
        initial = _complex_vector(raw["initial_state"], "initial_state", dim)
        nrm = float(np.linalg.norm(initial))
        if nrm == 0.0:
            raise ConfigError("initial_state: must be nonzero")
        initial = initial / nrm
    elif run is not None and run.mode != "inverse":
        raise ConfigError("missing required key 'initial_state'")

    sweep = _parse_sweep(raw["sweep"]) if "sweep" in raw else None
    output = _parse_output(raw.get("output"))

    name = raw.get("name", path.stem)
    if not isinstance(name, str) or not name:
        raise ConfigError("name: expected a non-empty string")

    # last, so that a designed path's physics errors follow every schema check
    monitored, target = _parse_path(raw["path"], dim, tol)
    return Scenario(
        name=name,
        dimension=dim,
        initial_state=initial,
        hamiltonian=H,
        path=monitored,
        run=run,
        sweep=sweep,
        output=output,
        target=target,
    )
