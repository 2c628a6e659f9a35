"""Scenario configuration: a documented JSON schema for runs and sweeps.

Complex numbers are written as ``[re, im]`` pairs (plain numbers are read as
real); matrices are row-major nested lists.  Every number must be finite:
``NaN`` and ``Infinity``, which Python's JSON reader accepts, are schema
violations.  Keywords (``run.mode``, ``sweep.parameter``, ``path.type``,
``"zero"`` and the ``output.formats`` entries) must be strings.  Top-level
keys::

    {
      "name":          optional string (defaults to the file stem) that
                       prefixes the output files: one plain UTF-8 file name,
                       without '/', '\\' or NUL, and not "." or "..",
      "description":   optional string, ignored,
      "dimension":     integer, 2 <= N <= MAX_DIMENSION,
      "initial_state": complex vector of any finite nonzero scale,
                       normalized at parse time (optional for mode "inverse"),
      "hamiltonian":   "zero" or an N x N Hermitian matrix,
      "path":          {"type": "generator" | "modes" | "samples" | "designed", ...},
      "run":           {"mode": "discrete" | "continuous" | "closed_form"
                                | "embedded" | "inverse", ...},
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
  ``mode_design`` builds the monitored state once, at load, as a mode path
  ``exp(-i diag(nu) t) f(0)``, and ``Scenario.target`` keeps the target.

Run modes (``T``, ``dt``, ``tau`` and ``E`` positive numbers, ``M`` a
positive integer):

* ``discrete``: ``"tau"`` and ``"M"`` or ``"T"`` (``M`` wins if both).
* ``continuous``, ``closed_form``, ``inverse``: ``"T"`` and ``"dt"``.
* ``embedded``: ``"T"``, ``"dt"`` and ``"E"``.

Every block, each path type and each run mode rejects keys it does not
read.  Step counts are at most ``dynamics.MAX_STEPS``, and steps x N at most
``dynamics.MAX_STEP_ROWS``: the run block's are checked here, each sweep
point's by its run.  A run block's phase is bounded too: its fastest phase
rate (the absolute row sums of H and K, or a path's largest |frequency|)
times its duration (``T``, or ``tau * M`` for a discrete run) may not exceed
``MAX_PHASE`` = 1e6 rad.

Rules across blocks, checked here so that every command rejects a file
whose blocks contradict each other: ``initial_state`` is required unless
``run.mode`` is ``"inverse"`` (also without a run block); ``embedded`` needs
``"hamiltonian": "zero"``; ``inverse`` needs a ``designed`` path, built for
H = 0, and so ``"hamiltonian": "zero"`` too; a sweep
needs a run block of the mode it varies (``tau`` -> ``discrete``, ``dt`` ->
``continuous``, ``E`` -> ``embedded``), and a ``tau`` sweep needs ``run.T``.

Schema violations raise :class:`ConfigError` (exit code 2 in the CLI).
Physics violations (exit code 3) surface from the run itself, except those
of a ``designed`` block: its path is built at load, so a target that
violates parallel transport or is degenerate fails in ``load_scenario``,
after every schema check.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .design import ModeTrajectory, mode_design
from .dynamics import require_step_count, step_count
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
# path type or run mode -> (required keys, a tuple asking for any one of its
# keys; allowed keys besides "type" or "mode")
_PATH_KEYS = {
    "generator": (("generator", "initial_state"), {"generator", "initial_state"}),
    "modes": (("amplitudes", "frequencies"), {"amplitudes", "frequencies", "modes"}),
    "samples": (("times", "samples"), {"times", "samples"}),
    "designed": (("probabilities", "frequencies"), {"probabilities", "frequencies"}),
}
_RUN_KEYS = {
    "discrete": (("tau", ("M", "T")), {"tau", "M", "T"}),
    "continuous": (("T", "dt"), {"T", "dt"}),
    "closed_form": (("T", "dt"), {"T", "dt"}),
    "embedded": (("T", "dt", "E"), {"T", "dt", "E"}),
    "inverse": (("T", "dt"), {"T", "dt"}),
}
# the run mode whose step each sweep parameter varies
_SWEEP_MODES = {"tau": "discrete", "dt": "continuous", "E": "embedded"}
_FORMATS = {"csv", "json"}

# Largest dimension accepted: the Hamiltonian and every step's propagator are
# dense N x N complex matrices, 16 MiB each at N = 1024.
MAX_DIMENSION = 1024

# Largest phase, in radians, a run block may accumulate: a bound on its
# fastest phase rate (|H| + |K|, or a path's largest |frequency|) times its
# duration.  A phase phi computed in floating point is off by about eps * phi,
# 2.2e-10 at 1e6 rad: two orders below the 1e-8 checks of a run (setup
# orthogonality, period return), where 1e8 rad would reach them.  Committed
# scenarios reach at most 20 rad; near 1e308 the phases overflow to NaN.
MAX_PHASE = 1e6


def _object(value, where: str, allowed, required=()) -> dict:
    # a JSON object with only `allowed` keys and every `required` one
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = value.keys() - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for keys in required:
        keys = (keys,) if isinstance(keys, str) else keys
        if value.keys().isdisjoint(keys):
            raise ConfigError(f"{where}: missing required key {' or '.join(map(repr, keys))}")
    return value


def _choice(value, allowed, where: str) -> str:
    if not isinstance(value, str) or value not in allowed:
        raise ConfigError(f"{where}: expected one of {sorted(allowed)}, got {value!r}")
    return value


def _variant(block, where: str, key: str, table: dict) -> tuple[str, dict]:
    # the block's keyword at `key`, and the block checked against its entry
    any_keys = {key}.union(*(allowed for _, allowed in table.values()))
    kind = _choice(_object(block, where, any_keys, (key,))[key], table, f"{where}.{key}")
    required, allowed = table[kind]
    return kind, _object(block, f"{where} ({key} {kind!r})", allowed | {key}, required)


def _path_text(value, where: str) -> str:
    # a string that can be part of a file path and be printed: UTF-8, no NUL
    try:
        if isinstance(value, str) and value and "\0" not in value:
            value.encode()  # raises on a lone surrogate, from a "\ud800" escape
            return value
    except UnicodeEncodeError:
        pass
    raise ConfigError(f"{where}: expected a non-empty UTF-8 string without NUL")


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


def _complex_rows(value, where: str, count: int, dim: int) -> np.ndarray:
    # `count` complex vectors of length `dim`, as the rows of a matrix
    if not isinstance(value, list) or len(value) != count:
        raise ConfigError(f"{where}: expected {count} rows")
    rows = [_complex_vector(row, f"{where}[{i}]", dim) for i, row in enumerate(value)]
    return np.vstack(rows)


def _real_vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value or not all(map(_is_finite_number, value)):
        raise ConfigError(f"{where}: expected a non-empty list of finite real numbers")
    return np.array(value, dtype=float)


def _unit_initial_state(vec: np.ndarray) -> np.ndarray:
    # vec / |vec| for any finite nonzero scale.  Ordinary inputs divide by
    # the plain norm and keep its bits; a norm near either end of the float
    # range (or past it) is taken after rescaling by the largest |re| or |im|
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(vec))
    if not 1e-150 < nrm < 1e150:
        scale = float(np.abs(vec.view(float)).max())
        if scale == 0.0:
            raise ConfigError("initial_state: must be nonzero")
        vec = vec / scale
        nrm = float(np.linalg.norm(vec))
    return vec / nrm


def _positive_number(value, where: str) -> float:
    if not _is_finite_number(value) or value <= 0:
        raise ConfigError(f"{where}: expected a finite positive number, got {value!r}")
    return float(value)


def _integer(value, where: str, low: int, high: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise ConfigError(f"{where}: expected an integer from {low} to {high}, got {value!r}")
    return value


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


def _read_path(block, dim: int, tol: ToleranceProfile):
    # the path block's numbers, checked: a bound on the path's largest phase
    # rate (0 for samples, whose rate is their own spacing's), and a function
    # that builds (target, monitored path), the target None unless designed
    kind, block = _variant(block, "path", "type", _PATH_KEYS)
    if kind == "generator":
        K = _complex_rows(block["generator"], "path.generator", dim, dim)
        f0 = _complex_vector(block["initial_state"], "path.initial_state", dim)
        return _norm_bound(K), lambda: (None, GeneratorPath(K, f0, tol=tol))
    if kind == "modes":
        amps = _complex_vector(block["amplitudes"], "path.amplitudes")
        freqs = _real_vector(block["frequencies"], "path.frequencies")
        modes = None
        if "modes" in block:  # one mode vector per amplitude, as columns
            modes = _complex_rows(block["modes"], "path.modes", amps.size, dim)
            modes = np.ascontiguousarray(modes.T)
        elif amps.size != dim:
            raise ConfigError(
                "path: without explicit modes the number of amplitudes must "
                "equal the dimension"
            )
        return float(np.abs(freqs).max()), lambda: (None, ModePath(amps, freqs, modes, tol=tol))
    if kind == "samples":
        times = _real_vector(block["times"], "path.times")
        samples = _complex_rows(block["samples"], "path.samples", times.size, dim)
        return 0.0, lambda: (None, SampledPath(times, samples, tol=tol))
    # kind == "designed"
    probabilities = _real_vector(block["probabilities"], "path.probabilities")
    frequencies = _real_vector(block["frequencies"], "path.frequencies")
    if probabilities.size != dim or frequencies.size != dim:
        raise ConfigError(
            "path: probabilities and frequencies must have one entry per dimension"
        )
    rate = float(np.abs(frequencies).max())
    return rate, lambda: mode_design(probabilities, frequencies, tol=tol)


def _norm_bound(A: np.ndarray) -> float:
    # the largest absolute row sum: a matrix norm, so a bound on |eigenvalue|
    with np.errstate(over="ignore"):
        return float(np.abs(A).sum(axis=1).max())


def _require_phase(run: RunSettings, dim: int, rate: float) -> None:
    # `rate` times the longest time the run block covers, at most MAX_PHASE.
    # The run's step count is checked first, so an oversized run is reported
    # as one.  A discrete run given by M covers tau * M, and a tau sweep T.
    if run.mode == "discrete":
        if run.M is None:
            steps = step_count(run.T, run.tau, dim)
        else:
            steps = require_step_count(run.M, run.T, run.tau, dim)
        duration = max(run.T or 0.0, run.tau * steps)
    else:
        step_count(run.T, run.dt, dim)
        duration = run.T
    if rate * duration > MAX_PHASE:
        raise ConfigError(
            f"run: phase rate bound {rate:.3g} x duration {duration:.3g} exceeds "
            f"the limit of {MAX_PHASE:g} rad"
        )


def _parse_run(block) -> RunSettings:
    mode, block = _variant(block, "run", "mode", _RUN_KEYS)
    values = {
        key: _integer(value, "run.M", 1) if key == "M" else _positive_number(value, f"run.{key}")
        for key, value in block.items()
        if key != "mode"
    }
    return RunSettings(mode=mode, **values)


def _parse_sweep(block) -> SweepSettings:
    block = _object(block, "sweep", {"parameter", "values"}, ("parameter", "values"))
    parameter = _choice(block["parameter"], _SWEEP_MODES, "sweep.parameter")
    raw = block["values"]
    if not isinstance(raw, list):
        raise ConfigError("sweep.values: expected a list")
    values = tuple(_positive_number(v, "sweep.values") for v in raw)
    if len(set(values)) < 3:
        raise ConfigError("sweep.values: need at least 3 distinct values")
    return SweepSettings(parameter=parameter, values=values)


def _parse_output(block) -> OutputSettings:
    block = _object(block, "output", {"directory", "formats"})
    directory = _path_text(block.get("directory", "out"), "output.directory")
    formats = block.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not formats:
        raise ConfigError(f"output.formats: expected a non-empty subset of {sorted(_FORMATS)}")
    formats = tuple(_choice(f, _FORMATS, "output.formats") for f in formats)
    return OutputSettings(directory=directory, formats=formats)


def load_scenario(config_path, tol: ToleranceProfile = DEFAULT) -> Scenario:
    """Parse and validate a scenario file.

    Raises :class:`ConfigError` for structural problems and a run block
    whose phase exceeds ``MAX_PHASE``, :class:`InputError` for a run block
    whose step count is out of range, and the validation errors of the
    underlying types (non-Hermitian matrices, non-unit states) for bad
    numerical content.  A ``designed`` path is built here, so its
    physics errors (``ParallelTransportError``, ``DegenerateTargetError``)
    come from this function too.
    """
    path = Path(config_path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers of over 4300 digits,
        # RecursionError arrays nested too deeply for the parser
        raise ConfigError(f"configuration {path} is not valid JSON: {exc}") from exc
    _object(raw, "configuration", _TOP_KEYS, ("dimension", "path"))
    dim = _integer(raw["dimension"], "dimension", 2, MAX_DIMENSION)

    hamiltonian = raw.get("hamiltonian", "zero")
    if isinstance(hamiltonian, str):
        _choice(hamiltonian, {"zero"}, "hamiltonian")
        H = np.zeros((dim, dim), dtype=np.complex128)
    else:
        H = _complex_rows(hamiltonian, "hamiltonian", dim, dim)

    run = _parse_run(raw["run"]) if "run" in raw else None
    mode = run.mode if run is not None else None

    initial = None
    if "initial_state" in raw:
        initial = _unit_initial_state(
            _complex_vector(raw["initial_state"], "initial_state", dim)
        )
    elif mode != "inverse":
        raise ConfigError("configuration: missing required key 'initial_state'")

    sweep = _parse_sweep(raw["sweep"]) if "sweep" in raw else None
    if sweep is not None:
        varied = _SWEEP_MODES[sweep.parameter]
        if mode != varied:
            raise ConfigError(f"sweep over {sweep.parameter!r} needs run.mode {varied!r}")
        if run.T is None:  # only a discrete run given by M lacks T
            raise ConfigError("sweep over 'tau' needs run.T")
    if mode == "embedded" and np.any(H):
        raise ConfigError('embedded mode is a pure energy shift: set hamiltonian to "zero"')
    if mode == "inverse" and np.any(H):
        raise ConfigError('inverse mode designs its path for H = 0: set hamiltonian to "zero"')
    output = _parse_output(raw.get("output", {}))

    # the name prefixes the output files, so it must be one plain file name
    name = _path_text(raw.get("name", path.stem), "name")
    if name in (".", "..") or any(c in name for c in "/\\"):
        raise ConfigError(f"name: {name!r} is not a plain file name")

    # last, so that a designed path's physics errors follow every schema check
    path_rate, build_path = _read_path(raw["path"], dim, tol)
    if run is not None:
        _require_phase(run, dim, _norm_bound(H) + path_rate)
    target, monitored = build_path()
    if mode == "inverse" and target is None:
        raise ConfigError("inverse mode needs a path of type 'designed'")
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
