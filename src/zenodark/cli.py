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
executor, write its ``(mode, metrics, extra, trajectory)``.  Every other
rule about a file's contents is :func:`~zenodark.scenario.load_scenario`'s,
so a file whose blocks contradict each other fails under every command.

Sweep points run one after another in the calling thread and are reported in
the order the scenario lists them.  An ``E`` sweep integrates one dark
reference per distinct refined step: points whose refined step is the same
read their rows from one reference run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .design import design_monitored_state, phase_diagnostics
from .dynamics import (
    closed_form_run,
    closed_form_solution,
    closed_form_states,
    continuous_dark_run,
    cyclic_return_fidelity,
    discrete_dark_run,
    require_step_count,
    step_count,
    windows,
    zeno_spectrum,
)
from .embedding import MAX_PHASE_STEP, adiabatic_alpha_check, embedded_run
from .errors import CommutatorError, ConfigError, InputError, PhysicsError, UnsupportedVariantError
from .paths import period_of, require_generator
from .scenario import Scenario, load_scenario
from .tolerances import PROFILES, ToleranceProfile
from .trajectory import write_rows

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


# reference grids are refined to this step so the integrator's own
# orthogonality drift stays far below the 1/E effect being measured
_REFERENCE_DT = 1.25e-4


def _dark_deviations(scenario: Scenario, tol: ToleranceProfile, points):
    """Embedded run at each ``(E, dt)`` point and its deviation from the dark run.

    A point's reference is the dark run at ``dt`` refined to a step at or
    below ``_REFERENCE_DT``, read at every ``refine``-th row.  Points with the
    same refined step share one reference run, integrated once and released
    before the next step's.  Yields ``(index, trajectory, deviation)`` grouped
    by refined step.
    """
    run = scenario.run
    psi0, path, H = scenario.initial_state, scenario.path, scenario.hamiltonian
    groups: dict[float, list[tuple[int, int]]] = {}  # step -> (index, refine)
    for i, (_, dt) in enumerate(points):
        refine = max(1, int(np.ceil(dt / _REFERENCE_DT - 1e-12)))
        groups.setdefault(dt / refine, []).append((i, refine))
    for step, members in groups.items():
        reference = None  # drops the previous step's reference before this one's
        for i, refine in members:
            energy, dt = points[i]
            traj = embedded_run(psi0, path, energy, run.T, dt, tol=tol)
            if reference is None:
                reference = continuous_dark_run(psi0, path, H, run.T, step, tol=tol).states
            gap = 0.0
            for a, b in windows(traj.times.size, traj.dim):
                rows = traj.dark_states[a:b] - reference[a * refine : b * refine : refine]
                gap = max(gap, float(np.linalg.norm(rows, axis=1).max()))
            yield i, traj, gap


def _execute_run(scenario: Scenario, tol: ToleranceProfile):
    """Run the scenario's mode.  Returns (mode, metrics, extra, trajectory)."""
    run = scenario.run
    H = scenario.hamiltonian
    psi0 = scenario.initial_state
    path, target = scenario.path, scenario.target

    if run.mode == "discrete":
        M = run.M if run.M is not None else step_count(run.T, run.tau, scenario.dimension)
        traj = discrete_dark_run(psi0, path, H, run.tau, M, tol=tol)
        metrics = {
            "tau": run.tau,
            "measurements": M,
            "final_norm": float(traj.norms[-1]),
            "final_survival_probability": float(traj.survival_probability[-1]),
            "norm_deficit": float(1.0 - traj.survival_probability[-1]),
            "max_orthogonality_residual": float(traj.orthogonality_residual.max()),
        }
        return run.mode, metrics, {}, traj

    if run.mode == "continuous":
        traj = continuous_dark_run(psi0, path, H, run.T, run.dt, tol=tol)
        metrics = {
            "dt": run.dt,
            "final_norm": float(traj.norms[-1]),
            "max_norm_deviation": float(np.abs(1.0 - traj.norms).max()),
            "max_orthogonality_residual": float(traj.orthogonality_residual.max()),
        }
        # paths without a generator, or whose generator does not commute with
        # H, have no closed form to compare against
        try:
            gen = require_generator(scenario.path)
            reference = closed_form_solution(
                psi0, H, gen.generator, gen.initial_state, float(traj.times[-1]), tol=tol
            )
            metrics["final_fidelity_vs_closed_form"] = float(
                abs(np.vdot(reference, traj.states[-1]))
            )
        except (UnsupportedVariantError, CommutatorError):
            pass
        return run.mode, metrics, {}, traj

    if run.mode == "closed_form":
        traj = closed_form_run(psi0, path, H, run.T, run.dt, tol=tol)
        integrated = continuous_dark_run(psi0, path, H, run.T, run.dt, tol=tol)
        overlaps = np.abs(
            np.einsum("ij,ij->i", traj.states.conj(), integrated.states)
        )
        metrics = {
            "dt": run.dt,
            "final_norm": float(traj.norms[-1]),
            "max_orthogonality_residual": float(traj.orthogonality_residual.max()),
            "final_fidelity_vs_integrator": float(overlaps[-1]),
            "min_fidelity_vs_integrator": float(overlaps.min()),
        }
        return run.mode, metrics, {}, traj

    if run.mode == "embedded":
        [(_, traj, deviation)] = _dark_deviations(scenario, tol, [(run.E, run.dt)])
        metrics = {
            "E": run.E,
            "dt": run.dt,
            "deviation_from_dark": deviation,
            "alpha_quasi_static_residual": float(adiabatic_alpha_check(traj, path)),
            "max_full_norm_deviation": float(np.abs(1.0 - traj.full_norms).max()),
        }
        return run.mode, metrics, {}, traj

    # run.mode == "inverse": load_scenario has checked the path is designed
    steps = step_count(run.T, run.dt, scenario.dimension)
    diagnostic = run.dt * np.arange(0, steps + 1, max(1, steps // 500))
    result = design_monitored_state(target, H, diagnostic, tol=tol)
    psi_start = target.state_at(0.0)
    forward = continuous_dark_run(psi_start, path, H, run.T, run.dt, tol=tol)
    worst = np.inf
    for a, b in windows(forward.times.size, forward.dim):
        targets = target.states_on(forward.times[a:b])
        fidelities = np.abs(np.einsum("ij,ij->i", targets.conj(), forward.states[a:b]))
        worst = min(worst, float(fidelities.min()))
    transport, phase = phase_diagnostics(forward, tol=tol)
    metrics = {
        "dt": run.dt,
        "compatibility_residual": float(result.compatibility_residual),
        "design_orthogonality_residual": float(result.orthogonality_residual),
        "roundtrip_min_fidelity": worst,
        "roundtrip_final_fidelity": float(fidelities[-1]),
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
    return run.mode, metrics, {"design": design}, forward


def _sweep_metric(scenario: Scenario, tol: ToleranceProfile, parameter: str, value: float) -> float:
    run = scenario.run
    H = scenario.hamiltonian
    psi0 = scenario.initial_state
    path = scenario.path

    if parameter == "tau":
        M = step_count(run.T, value, scenario.dimension)
        traj = discrete_dark_run(psi0, path, H, value, M, tol=tol)
        return float(1.0 - traj.survival_probability[-1])

    # parameter == "dt": the gap to the closed form, one window at a time
    traj = continuous_dark_run(psi0, path, H, run.T, value, tol=tol)
    gen = require_generator(path)
    exact = closed_form_states(psi0, H, gen.generator, gen.initial_state, tol)
    return max(
        float(np.linalg.norm(traj.states[a:b] - exact(traj.times[a:b]), axis=1).max())
        for a, b in windows(traj.times.size, traj.dim)
    )


def _resolving_step(scenario: Scenario, energy: float) -> float:
    # the run's step, shrunk to resolve E; rounding the step count up keeps it
    # at or below MAX_PHASE_STEP / E
    run = scenario.run
    dt = min(run.dt, MAX_PHASE_STEP / energy)
    return run.T / require_step_count(np.ceil(run.T / dt - 1e-9), run.T, dt, scenario.dimension)


def _execute_sweep(scenario: Scenario, tol: ToleranceProfile):
    """Run every sweep point and fit the log-log slope of metric against value."""
    sweep = scenario.sweep
    values = list(sweep.values)
    if sweep.parameter == "E":
        # deviation from the dark run at a step resolving each E
        points = [(E, _resolving_step(scenario, E)) for E in values]
        deviations = {i: d for i, _, d in _dark_deviations(scenario, tol, points)}
        metrics = [deviations[i] for i in range(len(values))]
    else:
        metrics = [_sweep_metric(scenario, tol, sweep.parameter, v) for v in values]

    safe = np.clip(np.asarray(metrics, dtype=float), 1e-300, None)
    slope = float(np.polyfit(np.log(np.asarray(values)), np.log(safe), 1)[0])
    summary = {"parameter": sweep.parameter, "values": values, "metrics": metrics, "slope": slope}
    headline = {"parameter": sweep.parameter, "slope": slope}
    return scenario.run.mode, headline, {"sweep": summary}, None


def _execute_spectrum(scenario: Scenario, tol: ToleranceProfile):
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
    return "spectrum", metrics, {"spectrum": payload}, None


def _finish(scenario: Scenario, command: str, result, out_dir, started: float) -> RunReport:
    # write an executor's (mode, metrics, extra, trajectory) and report it
    mode, metrics, extra, trajectory = result
    directory = Path(out_dir) if out_dir else Path(scenario.output.directory)
    directory.mkdir(parents=True, exist_ok=True)
    files: list[str] = []
    if trajectory is not None and "csv" in scenario.output.formats:
        csv_path = directory / f"{scenario.name}_trajectory.csv"
        with open(csv_path, "w", newline="") as stream:
            trajectory.write_csv(stream)
        files.append(str(csv_path))
    if "sweep" in extra and "csv" in scenario.output.formats:
        sweep = extra["sweep"]
        csv_path = directory / f"{scenario.name}_sweep.csv"
        with open(csv_path, "w", newline="") as stream:
            write_rows(stream, ["value", "metric"], sweep["values"], sweep["metrics"])
        files.append(str(csv_path))

    duration = time.perf_counter() - started
    if "json" in scenario.output.formats:
        json_path = directory / f"{scenario.name}_summary.json"
        files.append(str(json_path))
        payload = {
            "scenario": scenario.name,
            "command": command,
            "mode": mode,
            "metrics": metrics,
            "duration_seconds": duration,
            "files": list(files),
        }
        payload.update(extra)
        text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
        json_path.write_text(text + "\n")
    return RunReport(
        scenario=scenario.name,
        command=command,
        mode=mode,
        metrics=metrics,
        files=files,
        duration_seconds=duration,
    )


def _run_command(command: str, execute, config_path, out_dir, profile) -> RunReport:
    # every command's one prologue: load, check its own needs, execute, write
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
    return _finish(scenario, command, execute(scenario, tol), out_dir, started)


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
