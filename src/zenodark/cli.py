"""Scenario-driven command-line front end.

Subcommands ``run``, ``sweep``, ``spectrum`` and ``design`` all take a
scenario file (see :mod:`zenodark.scenario`), execute it, and write a
trajectory CSV and/or a summary JSON into the output directory.  Exit codes:
0 success, 2 configuration or schema error, 3 physics validation error
(orthogonality setup, dark-compatibility or parallel-transport violation,
commutation requirement).

Sweep points run one after another in the calling thread, in the order the
scenario lists them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .design import (
    design_monitored_state,
    mode_design,
    pancharatnam_phase,
    parallel_transport_residual,
)
from .dynamics import (
    closed_form_run,
    closed_form_solution,
    continuous_dark_run,
    cyclic_return_fidelity,
    discrete_dark_run,
    step_count,
    zeno_spectrum,
)
from .embedding import adiabatic_alpha_check, embedded_run
from .errors import (
    CommutatorError,
    ConfigError,
    InputError,
    PhysicsError,
    UnsupportedVariantError,
)
from .paths import generator_path_of, period_of
from .scenario import DesignedParams, Scenario, load_scenario
from .tolerances import PROFILES, ToleranceProfile
from .trajectory import format_float

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


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _instantiated_path(scenario: Scenario, tol: ToleranceProfile):
    """Return (path, target_trajectory_or_None), building designed paths."""
    if isinstance(scenario.path, DesignedParams):
        target, designed = mode_design(
            scenario.path.probabilities, scenario.path.frequencies, tol=tol
        )
        return designed, target
    return scenario.path, None


def _require_zero_hamiltonian(scenario: Scenario) -> None:
    if np.any(scenario.hamiltonian):
        raise ConfigError(
            "embedded mode models a pure energy shift of the monitored state; "
            "set hamiltonian to \"zero\""
        )


# reference grids are refined to this step so the integrator's own
# orthogonality drift stays far below the 1/E effect being measured
_REFERENCE_DT = 1.25e-4


def _dark_reference_states(psi0, path, H, T, dt, tol) -> np.ndarray:
    refine = max(1, int(np.ceil(dt / _REFERENCE_DT - 1e-12)))
    reference = continuous_dark_run(psi0, path, H, T, dt / refine, tol=tol)
    return reference.states[::refine]


def _execute_run(scenario: Scenario, tol: ToleranceProfile):
    """Run the scenario's mode.  Returns (mode, metrics, extra, trajectory)."""
    run = scenario.run
    if run is None:
        raise ConfigError("scenario has no 'run' block")
    H = scenario.hamiltonian
    psi0 = scenario.initial_state
    path, target = _instantiated_path(scenario, tol)
    extra: dict = {}

    if run.mode == "discrete":
        M = run.M if run.M is not None else step_count(run.T, run.tau)
        traj = discrete_dark_run(psi0, path, H, run.tau, M, tol=tol)
        metrics = {
            "tau": run.tau,
            "measurements": M,
            "final_norm": float(traj.norms[-1]),
            "final_survival_probability": float(traj.survival_probability[-1]),
            "norm_deficit": float(1.0 - traj.survival_probability[-1]),
            "max_orthogonality_residual": float(traj.orthogonality_residual.max()),
        }
        return run.mode, metrics, extra, traj

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
            gen = generator_path_of(scenario.path)
            reference = closed_form_solution(
                psi0, H, gen.generator, gen.initial_state, float(traj.times[-1]), tol=tol
            )
            metrics["final_fidelity_vs_closed_form"] = float(
                abs(np.vdot(reference, traj.states[-1]))
            )
        except (UnsupportedVariantError, CommutatorError):
            pass
        return run.mode, metrics, extra, traj

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
        return run.mode, metrics, extra, traj

    if run.mode == "embedded":
        _require_zero_hamiltonian(scenario)
        traj = embedded_run(psi0, path, run.E, run.T, run.dt, tol=tol)
        reference = _dark_reference_states(psi0, path, H, run.T, run.dt, tol)
        deviation = float(
            np.linalg.norm(traj.dark_states - reference, axis=1).max()
        )
        metrics = {
            "E": run.E,
            "dt": run.dt,
            "deviation_from_dark": deviation,
            "alpha_quasi_static_residual": float(adiabatic_alpha_check(traj, path, tol=tol)),
            "max_full_norm_deviation": float(np.abs(1.0 - traj.full_norms).max()),
        }
        return run.mode, metrics, extra, traj

    if run.mode == "inverse":
        if target is None:
            raise ConfigError("inverse mode needs a path of type 'designed'")
        steps = step_count(run.T, run.dt)
        grid = run.dt * np.arange(steps + 1)
        diagnostic = grid[:: max(1, steps // 500)]
        result = design_monitored_state(target, H, diagnostic, tol=tol)
        psi_start = target.state_at(0.0)
        forward = continuous_dark_run(psi_start, path, H, run.T, run.dt, tol=tol)
        targets = target.states_on(forward.times)
        fidelities = np.abs(np.einsum("ij,ij->i", targets.conj(), forward.states))
        metrics = {
            "dt": run.dt,
            "compatibility_residual": float(result.compatibility_residual),
            "design_orthogonality_residual": float(result.orthogonality_residual),
            "roundtrip_min_fidelity": float(fidelities.min()),
            "roundtrip_final_fidelity": float(fidelities[-1]),
            "parallel_transport_residual": float(parallel_transport_residual(forward)),
            "geometric_phase": float(pancharatnam_phase(forward, tol=tol)),
        }
        stride = max(1, result.grid.size // 100)
        extra["design"] = {
            "normalization_grid": result.grid[::stride],
            "normalization_samples": result.normalization_samples[::stride],
            "residuals": {
                "compatibility": result.compatibility_residual,
                "orthogonality": result.orthogonality_residual,
            },
            "phases": {"geometric_phase": metrics["geometric_phase"]},
        }
        return run.mode, metrics, extra, forward

    raise ConfigError(f"unknown run mode {run.mode!r}")


def _sweep_metric(scenario: Scenario, tol: ToleranceProfile, parameter: str, value: float) -> float:
    run = scenario.run
    H = scenario.hamiltonian
    psi0 = scenario.initial_state
    path, _ = _instantiated_path(scenario, tol)

    if parameter == "tau":
        M = step_count(run.T, value)
        traj = discrete_dark_run(psi0, path, H, value, M, tol=tol)
        return float(1.0 - traj.survival_probability[-1])

    if parameter == "dt":
        traj = continuous_dark_run(psi0, path, H, run.T, value, tol=tol)
        reference = closed_form_run(psi0, path, H, run.T, value, tol=tol)
        return float(np.linalg.norm(traj.states - reference.states, axis=1).max())

    # parameter == "E": deviation from the dark run at a step resolving E;
    # rounding the step count up keeps dt at or below 0.1 / E
    dt = min(run.dt, 0.1 / value)
    dt = run.T / int(np.ceil(run.T / dt - 1e-9))
    traj = embedded_run(psi0, path, value, run.T, dt, tol=tol)
    reference = _dark_reference_states(psi0, path, H, run.T, dt, tol)
    return float(np.linalg.norm(traj.dark_states - reference, axis=1).max())


def _execute_sweep(scenario: Scenario, tol: ToleranceProfile):
    sweep = scenario.sweep
    if sweep is None:
        raise ConfigError("scenario has no 'sweep' block")
    run = scenario.run
    if run is None:
        raise ConfigError("sweeps need a 'run' block for the fixed parameters")
    expected_mode = {"tau": "discrete", "dt": "continuous", "E": "embedded"}[sweep.parameter]
    if run.mode != expected_mode:
        raise ConfigError(
            f"sweep over {sweep.parameter!r} needs run.mode {expected_mode!r}, "
            f"got {run.mode!r}"
        )
    if sweep.parameter in ("tau", "dt") and run.T is None:
        raise ConfigError("sweep needs run.T")
    if sweep.parameter == "E":
        _require_zero_hamiltonian(scenario)
        if run.T is None or run.dt is None:
            raise ConfigError("E sweep needs run.T and run.dt")

    values = list(sweep.values)
    metrics = [_sweep_metric(scenario, tol, sweep.parameter, v) for v in values]

    safe = np.clip(np.asarray(metrics, dtype=float), 1e-300, None)
    slope = float(np.polyfit(np.log(np.asarray(values)), np.log(safe), 1)[0])
    summary = {
        "parameter": sweep.parameter,
        "values": values,
        "metrics": metrics,
        "slope": slope,
    }
    return summary


def _prepare_output(scenario: Scenario, out_dir: str | None) -> Path:
    directory = Path(out_dir) if out_dir else Path(scenario.output.directory)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _write_json_file(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _finish(
    scenario: Scenario,
    command: str,
    mode: str,
    metrics: dict,
    extra: dict,
    trajectory,
    out_dir: str | None,
    started: float,
) -> RunReport:
    directory = _prepare_output(scenario, out_dir)
    files: list[str] = []
    if trajectory is not None and "csv" in scenario.output.formats:
        csv_path = directory / f"{scenario.name}_trajectory.csv"
        with open(csv_path, "w", newline="") as stream:
            trajectory.write_csv(stream)
        files.append(str(csv_path))
    if "sweep" in extra and "csv" in scenario.output.formats:
        csv_path = directory / f"{scenario.name}_sweep.csv"
        with open(csv_path, "w", newline="") as stream:
            stream.write("#schema=1 value,metric\n")
            for v, m in zip(extra["sweep"]["values"], extra["sweep"]["metrics"]):
                stream.write(f"{format_float(v)},{format_float(m)}\n")
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
        _write_json_file(json_path, payload)
    return RunReport(
        scenario=scenario.name,
        command=command,
        mode=mode,
        metrics=metrics,
        files=files,
        duration_seconds=duration,
    )


def run_scenario(
    config_path,
    out_dir: str | None = None,
    profile: str = "default",
    tol: ToleranceProfile | None = None,
) -> RunReport:
    """Execute the scenario's run mode and write its artifacts."""
    started = time.perf_counter()
    tol = tol if tol is not None else PROFILES[profile]
    scenario = load_scenario(config_path, tol=tol)
    mode, metrics, extra, trajectory = _execute_run(scenario, tol)
    return _finish(scenario, "run", mode, metrics, extra, trajectory, out_dir, started)


def run_sweep(
    config_path,
    out_dir: str | None = None,
    profile: str = "default",
    tol: ToleranceProfile | None = None,
) -> RunReport:
    """Execute the scenario's sweep block and fit the log-log slope."""
    started = time.perf_counter()
    tol = tol if tol is not None else PROFILES[profile]
    scenario = load_scenario(config_path, tol=tol)
    summary = _execute_sweep(scenario, tol)
    metrics = {"parameter": summary["parameter"], "slope": summary["slope"]}
    return _finish(
        scenario, "sweep", scenario.run.mode, metrics, {"sweep": summary}, None, out_dir, started
    )


def run_spectrum(
    config_path,
    out_dir: str | None = None,
    profile: str = "default",
    tol: ToleranceProfile | None = None,
) -> RunReport:
    """Compute the complement spectrum of the scenario's monitored path."""
    started = time.perf_counter()
    tol = tol if tol is not None else PROFILES[profile]
    scenario = load_scenario(config_path, tol=tol)
    if scenario.initial_state is None:
        raise ConfigError("spectrum needs an 'initial_state'")
    gen = generator_path_of(scenario.path)
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
    return _finish(
        scenario, "spectrum", "spectrum", metrics, {"spectrum": payload}, None, out_dir, started
    )


def run_design(
    config_path,
    out_dir: str | None = None,
    profile: str = "default",
    tol: ToleranceProfile | None = None,
) -> RunReport:
    """Run inverse design for a scenario with a designed path."""
    started = time.perf_counter()
    tol = tol if tol is not None else PROFILES[profile]
    scenario = load_scenario(config_path, tol=tol)
    if scenario.run is None or scenario.run.mode != "inverse":
        raise ConfigError("design needs run.mode 'inverse'")
    mode, metrics, extra, trajectory = _execute_run(scenario, tol)
    return _finish(scenario, "design", mode, metrics, extra, trajectory, out_dir, started)


_COMMANDS = {
    "run": run_scenario,
    "sweep": run_sweep,
    "spectrum": run_spectrum,
    "design": run_design,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenodark",
        description="Simulate dark evolution in a time-varying Zeno subspace",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "run": "execute the scenario's run mode",
        "sweep": "run the scenario's parameter sweep and fit a slope",
        "spectrum": "compute the complement spectrum of the monitored path",
        "design": "inverse-design the monitored state for a target trajectory",
    }
    for name, text in helps.items():
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
        report = _COMMANDS[args.command](
            args.config, out_dir=args.out, profile=args.tolerance_profile
        )
    except PhysicsError as exc:
        print(f"physics validation error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InputError, UnsupportedVariantError) as exc:
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
