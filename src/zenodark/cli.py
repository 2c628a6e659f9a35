"""Scenario-driven command-line front end.

Subcommands ``run``, ``sweep``, ``spectrum`` and ``design`` all take a
scenario file (see :mod:`zenodark.scenario`), execute it, and write a
trajectory CSV and/or a summary JSON into the output directory.  Exit codes:
0 success, 2 configuration or schema error, 3 physics validation error
(orthogonality setup, dark-compatibility or parallel-transport violation,
commutation requirement).

Every command runs through one runner: load the scenario, check what the
command needs (``run`` a run block, ``sweep`` a sweep block, ``spectrum`` an
``initial_state``, ``design`` an ``inverse`` run), call the command's
executor, write its ``(mode, metrics, extra)``.  Every other rule about a
file's contents is :func:`~zenodark.scenario.load_scenario`'s, so a file
whose blocks contradict each other fails under every command.

A trajectory CSV is written while the run integrates.  The executors read
each run's windows (:func:`~zenodark.dynamics.window_rows`) once: a window's
rows go to the CSV and to the command's metrics, then are dropped, so a run
keeps no rows beyond a window (an inverse design keeps one float per step
for its geometric phase; an embedded run keeps one complex offset per step,
16 B, for its quasi-static check, and the states of its whole dark
reference, below).  The CSV is made with the run's first window, after the
run's own checks have passed.  A command that fails removes every file it
wrote, and every directory it made, before it returns its exit code.

Sweep points run one after another in the calling thread and are reported in
the order the scenario lists them.  No sweep point keeps a trajectory.  An
``E`` sweep integrates one dark reference per distinct refined step count:
points whose refined grids have the same step count read their rows from one
reference run.  The reference keeps its states only: no grid sample of f, no
norms, overlaps or times.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .design import _PhaseSum, design_monitored_state
from .dynamics import (
    _closed_form_windows,
    _continuous_rows,
    _continuous_windows,
    _discrete_windows,
    closed_form_solution,
    closed_form_states,
    cyclic_return_fidelity,
    require_step_count,
    step_count,
    zeno_spectrum,
)
from .embedding import MAX_PHASE_STEP, _embedded_windows, _QuasiStatic
from .errors import CommutatorError, ConfigError, InputError, PhysicsError, UnsupportedVariantError
from .paths import period_of, require_generator
from .scenario import Scenario, load_scenario
from .tolerances import PROFILES, ToleranceProfile
from .trajectory import _dark_columns, _embedded_blocks, _embedded_columns, _RowWriter, write_rows

__all__ = ["RunReport", "run_scenario", "run_sweep", "run_spectrum", "run_design", "main"]


@dataclass(frozen=True)
class RunReport:
    """What a command computed and where it wrote its artifacts."""

    scenario: str
    command: str
    mode: str
    metrics: dict
    files: list[str]
    duration_seconds: float


def _json_default(value):
    # what json cannot write itself: complex numbers and numpy values
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot write {type(value).__name__} to JSON")


class _Output:
    """A command's output files, each made when it is first written.

    The trajectory CSV is written a window at a time (:meth:`rows`).  If the
    command fails, :meth:`discard` removes every file written and every
    directory made by this call; a file is written at its final path, and
    removed again, rather than renamed into place.
    """

    def __init__(self, scenario: Scenario, out_dir):
        self.directory = Path(out_dir) if out_dir else Path(scenario.output.directory)
        self.name = scenario.name
        self.formats = scenario.output.formats
        self.files: list[str] = []
        self._made: list[Path] | None = None  # directories made, innermost first
        self._streams: list = []
        self._rows = None  # the trajectory CSV's writer, made with its first rows

    def make_directory(self) -> None:
        if self._made is None:
            self._made, missing = [], self.directory
            while not missing.exists():
                self._made.append(missing)
                missing = missing.parent
            self.directory.mkdir(parents=True, exist_ok=True)

    def open(self, kind: str):
        """A new file ``<name>_<kind>`` for writing."""
        self.make_directory()
        path = self.directory / f"{self.name}_{kind}"
        self._streams.append(open(path, "w", newline=""))
        self.files.append(str(path))
        return self._streams[-1]

    def rows(self, columns: list[str], *blocks) -> None:
        """Write the next rows of the trajectory CSV, if the scenario asks for one."""
        if "csv" in self.formats:
            if self._rows is None:
                self._rows = _RowWriter(self.open("trajectory.csv"), columns)
            self._rows.write(*blocks)

    def close(self) -> None:
        if self._rows is not None:
            self._rows.close()
        for stream in self._streams:
            stream.close()

    def discard(self) -> None:
        # every step is tried: one that fails does not keep the others' files
        for stream in self._streams:
            with contextlib.suppress(OSError):
                stream.close()
        for path in self.files:
            with contextlib.suppress(OSError):
                Path(path).unlink(missing_ok=True)
        for directory in self._made or []:
            with contextlib.suppress(OSError):  # it may hold files this call did not write
                directory.rmdir()


def _dark_windows(output: _Output, produced, dim: int):
    """Write each window of a dark run to the trajectory CSV and yield it.

    ``produced`` yields a run's :func:`~zenodark.dynamics.window_rows` with
    rows ``[states, norms, orth]``; yields ``(times, states, norms, orth_max,
    deviation)``, the last two the run's largest overlap and ``|1 - norm|`` so
    far.  The CSV holds :class:`~zenodark.trajectory.DarkTrajectory`'s columns.
    """
    columns = _dark_columns(dim)
    orth_max = deviation = 0.0
    for _, times, (states, norms, orth) in produced:
        output.rows(columns, times, states.real, states.imag, norms, norms**2, orth)
        orth_max = np.maximum(orth_max, orth.max())
        deviation = np.maximum(deviation, np.abs(1.0 - norms).max())
        yield times, states, norms, orth_max, deviation
        del times, states, norms, orth  # not held while the next window is made


# reference grids are refined to this step so the integrator's own
# orthogonality drift stays far below the 1/E effect being measured
_REFERENCE_DT = 1.25e-4


def _dark_deviations(scenario: Scenario, tol: ToleranceProfile, points, seen=None):
    """Embedded run at each ``(E, dt)`` point and its deviation from the dark run.

    A point's reference is the dark run at ``dt`` refined to a step at or
    below ``_REFERENCE_DT``, read at every ``refine``-th row.  Points whose
    refined grids have the same step count share one reference run, at the
    first such point's ``dt / refine``, integrated once and released before
    the next count's: two points' ``dt / refine`` of one count may differ in
    the last bit.  The reference keeps its states only: it runs the windows
    and kernel of :func:`continuous_dark_run`, with the same input checks,
    but samples no grid and computes no norms or overlaps, so its states are
    bitwise that run's.  An embedded run passes its own checks when its
    producer is made, before its reference is integrated, and is compared
    with the reference a window at a time, each window passed first to
    ``seen(start, times, [full, dark, alpha])`` if given.  Yields ``(index,
    deviation)`` grouped by refined step count; no rows are kept.
    """
    run = scenario.run
    psi0, path, H = scenario.initial_state, scenario.path, scenario.hamiltonian
    groups: dict[int, list[tuple[int, int]]] = {}  # step count -> (index, refine)
    for i, (_, dt) in enumerate(points):
        refine = max(1, int(np.ceil(dt / _REFERENCE_DT - 1e-12)))
        groups.setdefault(refine * round(run.T / dt), []).append((i, refine))
    for members in groups.values():
        first, refine = members[0]
        step = points[first][1] / refine
        reference = None  # drops the previous count's reference before this one's
        for i, refine in members:
            energy, dt = points[i]
            _, produced = _embedded_windows(psi0, path, energy, run.T, dt, tol)
            if reference is None:
                [reference] = _continuous_rows(psi0, path, H, run.T, step, tol, grid=False)
            gap = 0.0
            for start, times, rows in produced:
                if seen is not None:
                    seen(start, times, rows)
                dark = rows[1] - reference[start * refine : (start + times.size) * refine : refine]
                gap = max(gap, float(np.linalg.norm(dark, axis=1).max()))
            yield i, gap


def _execute_run(scenario: Scenario, tol: ToleranceProfile, output: _Output):
    """Run the scenario's mode, its CSV written as it runs.  Returns (mode, metrics, extra)."""
    run = scenario.run
    H = scenario.hamiltonian
    psi0 = scenario.initial_state
    path, target, dim = scenario.path, scenario.target, scenario.dimension

    if run.mode == "discrete":
        M = run.M if run.M is not None else step_count(run.T, run.tau, dim)
        M, produced = _discrete_windows(psi0, path, H, run.tau, M, tol)
        for _, _, norms, orth_max, _ in _dark_windows(output, produced, dim):
            pass
        survival = norms[-1:] ** 2
        metrics = {
            "tau": run.tau,
            "measurements": M,
            "final_norm": float(norms[-1]),
            "final_survival_probability": float(survival[0]),
            "norm_deficit": float(1.0 - survival[0]),
            "max_orthogonality_residual": float(orth_max),
        }
        return run.mode, metrics, {}

    if run.mode == "continuous":
        _, produced = _continuous_windows(psi0, path, H, run.T, run.dt, tol, grid=True)
        for times, states, norms, orth_max, deviation in _dark_windows(output, produced, dim):
            pass
        metrics = {
            "dt": run.dt,
            "final_norm": float(norms[-1]),
            "max_norm_deviation": float(deviation),
            "max_orthogonality_residual": float(orth_max),
        }
        # paths without a generator, or whose generator does not commute with
        # H, have no closed form to compare against
        try:
            gen = require_generator(scenario.path)
            reference = closed_form_solution(
                psi0, H, gen.generator, gen.initial_state, float(times[-1]), tol=tol
            )
            metrics["final_fidelity_vs_closed_form"] = float(abs(np.vdot(reference, states[-1])))
        except (UnsupportedVariantError, CommutatorError):
            pass
        return run.mode, metrics, {}

    if run.mode == "closed_form":
        # the closed form and the integrator in lockstep, window by window
        _, produced = _closed_form_windows(psi0, path, H, run.T, run.dt, tol)
        _, integrated = _continuous_windows(psi0, path, H, run.T, run.dt, tol, grid=False)
        smallest = np.inf
        for (_, states, norms, orth_max, _), (_, _, [other]) in zip(
            _dark_windows(output, produced, dim), integrated
        ):
            overlaps = np.abs(np.einsum("ij,ij->i", states.conj(), other))
            smallest = np.minimum(smallest, overlaps.min())
        metrics = {
            "dt": run.dt,
            "final_norm": float(norms[-1]),
            "max_orthogonality_residual": float(orth_max),
            "final_fidelity_vs_integrator": float(overlaps[-1]),
            "min_fidelity_vs_integrator": float(smallest),
        }
        return run.mode, metrics, {}

    if run.mode == "embedded":
        quasi_static = _QuasiStatic(path, run.E, run.dt, step_count(run.T, run.dt, dim) + 1)
        columns, full_max = _embedded_columns(dim), 0.0

        def seen(start, times, rows):
            nonlocal full_max
            full, dark, alpha = rows
            output.rows(columns, *_embedded_blocks(times, dark, alpha))
            full_max = np.maximum(full_max, np.abs(1.0 - np.linalg.norm(full, axis=1)).max())
            quasi_static.add(start, times, dark, alpha)

        [(_, deviation)] = _dark_deviations(scenario, tol, [(run.E, run.dt)], seen)
        metrics = {
            "E": run.E,
            "dt": run.dt,
            "deviation_from_dark": deviation,
            "alpha_quasi_static_residual": quasi_static.result(),
            "max_full_norm_deviation": float(full_max),
        }
        return run.mode, metrics, {}

    # run.mode == "inverse": load_scenario has checked the path is designed
    steps = step_count(run.T, run.dt, dim)
    diagnostic = run.dt * np.arange(0, steps + 1, max(1, steps // 500))
    result = design_monitored_state(target, H, diagnostic, tol=tol)
    psi_start = target.state_at(0.0)
    _, produced = _continuous_windows(psi_start, path, H, run.T, run.dt, tol, grid=True)
    phases, worst = _PhaseSum(steps + 1), np.inf
    for times, states, *_ in _dark_windows(output, produced, dim):
        fidelities = np.abs(np.einsum("ij,ij->i", target.states_on(times).conj(), states))
        worst = np.minimum(worst, fidelities.min())
        phases.add(times, states)
        final = fidelities[-1]
        del times, states, fidelities  # not held while the next window samples the design
    transport, phase = phases.result(tol)
    metrics = {
        "dt": run.dt,
        "compatibility_residual": float(result.compatibility_residual),
        "design_orthogonality_residual": float(result.orthogonality_residual),
        "roundtrip_min_fidelity": float(worst),
        "roundtrip_final_fidelity": float(final),
        "parallel_transport_residual": transport,
        "geometric_phase": phase,
    }
    stride = max(1, result.grid.size // 100)
    design = {
        "normalization_grid": result.grid[::stride],
        "normalization_samples": result.normalization_samples[::stride],
        "residuals": {
            "compatibility": result.compatibility_residual,
            "orthogonality": result.orthogonality_residual,
        },
        "phases": {"geometric_phase": metrics["geometric_phase"]},
    }
    return run.mode, metrics, {"design": design}


def _sweep_metric(scenario: Scenario, tol: ToleranceProfile, parameter: str, value: float) -> float:
    run = scenario.run
    H = scenario.hamiltonian
    psi0 = scenario.initial_state
    path = scenario.path

    if parameter == "tau":
        # the final survival probability only
        M = step_count(run.T, value, scenario.dimension)
        _, produced = _discrete_windows(psi0, path, H, value, M, tol)
        for _, _, (_, norms, _) in produced:
            pass
        return float(1.0 - (norms[-1:] ** 2)[0])

    # parameter == "dt": the gap to the closed form, one window at a time
    _, produced = _continuous_windows(psi0, path, H, run.T, value, tol, grid=False)
    gen = require_generator(path)
    exact = closed_form_states(psi0, H, gen.generator, gen.initial_state, tol)
    return max(
        float(np.linalg.norm(states - exact(times), axis=1).max())
        for _, times, [states] in produced
    )


def _resolving_step(scenario: Scenario, energy: float) -> float:
    # the run's step, shrunk to resolve E; rounding the step count up keeps it
    # at or below MAX_PHASE_STEP / E
    run = scenario.run
    dt = min(run.dt, MAX_PHASE_STEP / energy)
    return run.T / require_step_count(np.ceil(run.T / dt - 1e-9), run.T, dt, scenario.dimension)


def _execute_sweep(scenario: Scenario, tol: ToleranceProfile, output: _Output):
    """Run every sweep point and fit the log-log slope of metric against value."""
    sweep = scenario.sweep
    values = list(sweep.values)
    if sweep.parameter == "E":
        # deviation from the dark run at a step resolving each E
        points = [(E, _resolving_step(scenario, E)) for E in values]
        deviations = dict(_dark_deviations(scenario, tol, points))
        metrics = [deviations[i] for i in range(len(values))]
    else:
        metrics = [_sweep_metric(scenario, tol, sweep.parameter, v) for v in values]

    safe = np.clip(np.asarray(metrics, dtype=float), 1e-300, None)
    slope = float(np.polyfit(np.log(np.asarray(values)), np.log(safe), 1)[0])
    summary = {"parameter": sweep.parameter, "values": values, "metrics": metrics, "slope": slope}
    headline = {"parameter": sweep.parameter, "slope": slope}
    return scenario.run.mode, headline, {"sweep": summary}


def _execute_spectrum(scenario: Scenario, tol: ToleranceProfile, output: _Output):
    """Complement spectrum of the monitored path and the cyclic return."""
    gen = require_generator(scenario.path)
    spectrum = zeno_spectrum(
        scenario.hamiltonian, gen.generator, gen.initial_state, scenario.initial_state, tol=tol
    )
    period = period_of(scenario.path, tol=tol)
    payload = {
        "omegas": spectrum.frequencies,
        "coefficients": spectrum.coefficients,
        "weights": np.abs(spectrum.coefficients) ** 2,
        "period": period if period is not None else "aperiodic",
    }
    metrics = {"omegas": spectrum.frequencies.tolist()}
    if period is not None:
        fidelity = cyclic_return_fidelity(spectrum, period)
        payload["return_fidelity"] = fidelity
        metrics["return_fidelity"] = fidelity
    return "spectrum", metrics, {"spectrum": payload}


def _finish(scenario: Scenario, command: str, result, output: _Output, started: float) -> RunReport:
    # write an executor's (mode, metrics, extra) and report it
    mode, metrics, extra = result
    output.make_directory()
    if "sweep" in extra and "csv" in output.formats:
        sweep = extra["sweep"]
        write_rows(output.open("sweep.csv"), ["value", "metric"], sweep["values"], sweep["metrics"])

    duration = time.perf_counter() - started
    if "json" in output.formats:
        stream = output.open("summary.json")
        payload = {
            "scenario": scenario.name,
            "command": command,
            "mode": mode,
            "metrics": metrics,
            "duration_seconds": duration,
            "files": list(output.files),
        }
        payload.update(extra)
        stream.write(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")
    output.close()
    return RunReport(
        scenario=scenario.name,
        command=command,
        mode=mode,
        metrics=metrics,
        files=output.files,
        duration_seconds=duration,
    )


def _run_command(command: str, execute, config_path, out_dir, profile) -> RunReport:
    # every command's one prologue: load, check its own needs, execute, write;
    # a command that fails leaves no output
    started = time.perf_counter()
    tol = PROFILES[profile]
    scenario = load_scenario(config_path, tol=tol)
    run = scenario.run
    if command == "run" and run is None:
        raise ConfigError("scenario has no 'run' block")
    if command == "sweep" and scenario.sweep is None:
        raise ConfigError("scenario has no 'sweep' block")
    if command == "design" and (run is None or run.mode != "inverse"):
        raise ConfigError("design needs run.mode 'inverse'")
    if command == "spectrum" and scenario.initial_state is None:
        raise ConfigError("spectrum needs an 'initial_state'")
    output = _Output(scenario, out_dir)
    try:
        return _finish(scenario, command, execute(scenario, tol, output), output, started)
    except BaseException:
        output.discard()
        raise


def run_scenario(config_path, out_dir: str | None = None, profile: str = "default") -> RunReport:
    """Execute the scenario's run mode and write its artifacts."""
    return _run_command("run", _execute_run, config_path, out_dir, profile)


def run_sweep(config_path, out_dir: str | None = None, profile: str = "default") -> RunReport:
    """Execute the scenario's sweep block and fit the log-log slope."""
    return _run_command("sweep", _execute_sweep, config_path, out_dir, profile)


def run_spectrum(config_path, out_dir: str | None = None, profile: str = "default") -> RunReport:
    """Compute the complement spectrum of the scenario's monitored path."""
    return _run_command("spectrum", _execute_spectrum, config_path, out_dir, profile)


def run_design(config_path, out_dir: str | None = None, profile: str = "default") -> RunReport:
    """Run inverse design for a scenario with a designed path."""
    return _run_command("design", _execute_run, config_path, out_dir, profile)


# each subcommand's function and help text
_COMMANDS = {
    "run": (run_scenario, "execute the scenario's run mode"),
    "sweep": (run_sweep, "run the scenario's parameter sweep and fit a slope"),
    "spectrum": (run_spectrum, "compute the complement spectrum of the monitored path"),
    "design": (run_design, "inverse-design the monitored state for a target trajectory"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="zenodark",
        description="Simulate dark evolution in a time-varying Zeno subspace",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("config", help="scenario JSON file")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument(
            "--tolerance-profile",
            choices=sorted(PROFILES),
            default="default",
            help="tolerance profile",
        )
        cmd.add_argument("--quiet", action="store_true", help="suppress the summary")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run, _ = _COMMANDS[args.command]
        report = run(args.config, out_dir=args.out, profile=args.tolerance_profile)
    except PhysicsError as exc:
        print(f"physics validation error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InputError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        print(f"{report.command} '{report.scenario}' ({report.mode}) "
              f"finished in {report.duration_seconds:.2f}s")
        for key, value in report.metrics.items():
            print(f"  {key}: {value}")
        for path in report.files:
            print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
