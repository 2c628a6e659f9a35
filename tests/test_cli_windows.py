"""The CLI reads each run's windows once, as the run makes them.

A ``run`` or ``design`` command writes its trajectory CSV and computes its
summary metrics from the windows of one run, and keeps no rows beyond a
window.  These tests check, for every run mode at lengths around the window
edges, that the CSV is byte for byte the library trajectory's ``write_csv``
and that every summary metric is the one computed from the library
trajectory; that a command that fails after rows were written leaves no
output behind; and that the CLI's traced memory does not grow with the run
length (a design run keeps one float per step, an embedded run one complex
offset per step and its dark reference's states).
"""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import zenodark as zd
import zenodark.cli
import zenodark.design
from zenodark.cli import main
from zenodark.dynamics import windows
from zenodark.errors import OrthogonalityError, PhysicsError
from zenodark.scenario import load_scenario
from zenodark.stencil import moving_average

S3 = 3**-0.5
DT = 1e-3
W = windows(1 << 20, 3)[0][1]  # steps in one window at N = 3
LENGTHS = [1, W, W + 1, W + 2, 3 * W + 17]
# commutes with the modes path's generator diag(0, 1, 2)
DIAGONAL_H = [[0.3, 0, 0], [0, -0.2, 0], [0, 0, 0.5]]


def orthogonal_initial_state():
    # a unit state orthogonal to f(0) = (1, 1, 1)/sqrt(3)
    psi = np.array([1.0, -0.5 + 0.25j, -0.5 - 0.25j])
    psi /= np.linalg.norm(psi)
    return [[float(z.real), float(z.imag)] for z in psi]


def config(mode, steps, out):
    if mode == "inverse":
        return {
            "dimension": 3,
            "hamiltonian": "zero",
            "path": {
                "type": "designed",
                "probabilities": [0.5, 0.25, 0.25],
                "frequencies": [0, 2, -2],
            },
            "run": {"mode": "inverse", "T": steps * DT, "dt": DT},
            "output": {"directory": str(out)},
        }
    run = {
        "discrete": {"mode": "discrete", "tau": DT, "M": steps},
        "continuous, H = 0": {"mode": "continuous", "T": steps * DT, "dt": DT},
        "continuous, H != 0": {"mode": "continuous", "T": steps * DT, "dt": DT},
        "closed form": {"mode": "closed_form", "T": steps * DT, "dt": DT},
        "embedded": {"mode": "embedded", "T": steps * DT, "dt": DT, "E": 100.0},
    }[mode]
    zero = mode in ("continuous, H = 0", "embedded")
    return {
        "dimension": 3,
        "initial_state": orthogonal_initial_state(),
        "hamiltonian": "zero" if zero else DIAGONAL_H,
        "path": {"type": "modes", "amplitudes": [S3, S3, S3], "frequencies": [0, 1, 2]},
        "run": run,
        "output": {"directory": str(out)},
    }


def write_config(tmp_path, payload):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(payload))
    return str(path)


def library_run(mode, scenario, tol=zd.DEFAULT):
    """``(trajectory, metrics)``: the library run of the scenario and each
    summary metric computed from it, as the whole-run arrays give them."""
    run = scenario.run
    psi0, path, H = scenario.initial_state, scenario.path, scenario.hamiltonian
    if mode == "discrete":
        traj = zd.discrete_dark_run(psi0, path, H, run.tau, run.M)
        return traj, {
            "tau": run.tau,
            "measurements": run.M,
            "final_norm": traj.norms[-1],
            "final_survival_probability": traj.survival_probability[-1],
            "norm_deficit": 1.0 - traj.survival_probability[-1],
            "max_orthogonality_residual": traj.orthogonality_residual.max(),
        }
    if mode.startswith("continuous"):
        traj = zd.continuous_dark_run(psi0, path, H, run.T, run.dt)
        exact = zd.closed_form_solution(
            psi0, H, path.generator, path.initial_state, float(traj.times[-1])
        )
        return traj, {
            "dt": run.dt,
            "final_norm": traj.norms[-1],
            "max_norm_deviation": np.abs(1.0 - traj.norms).max(),
            "max_orthogonality_residual": traj.orthogonality_residual.max(),
            "final_fidelity_vs_closed_form": abs(np.vdot(exact, traj.states[-1])),
        }
    if mode == "closed form":
        traj = zd.closed_form_run(psi0, path, H, run.T, run.dt)
        integrated = zd.continuous_dark_run(psi0, path, H, run.T, run.dt)
        overlaps = np.abs(np.einsum("ij,ij->i", traj.states.conj(), integrated.states))
        return traj, {
            "dt": run.dt,
            "final_norm": traj.norms[-1],
            "max_orthogonality_residual": traj.orthogonality_residual.max(),
            "final_fidelity_vs_integrator": overlaps[-1],
            "min_fidelity_vs_integrator": overlaps.min(),
        }
    if mode == "embedded":
        traj = zd.embedded_run(psi0, path, run.E, run.T, run.dt)
        refine = math.ceil(run.dt / 1.25e-4 - 1e-12)
        dark = zd.continuous_dark_run(psi0, path, H, run.T, run.dt / refine).states[::refine]
        # the quasi-static offsets alpha - i <f|psidot>/E, <f|psidot> = -<fdot|dark>,
        # averaged over four fast periods of the whole run
        fdot = path.evaluate_many(traj.times)[1]
        coupling = -np.einsum("ij,ij->i", fdot.conj(), traj.dark_states)
        window = max(1, round(8.0 * np.pi / run.E / run.dt)) | 1
        smooth, interior = moving_average(traj.alpha - 1j * coupling / run.E, window)
        return traj, {
            "E": run.E,
            "dt": run.dt,
            "deviation_from_dark": np.linalg.norm(traj.dark_states - dark, axis=1).max(),
            "alpha_quasi_static_residual": np.abs(smooth[interior]).max(),
            "max_full_norm_deviation": np.abs(1.0 - traj.full_norms).max(),
        }
    # mode == "inverse"
    target = scenario.target
    steps = run.M if run.M is not None else round(run.T / run.dt)
    grid = run.dt * np.arange(0, steps + 1, max(1, steps // 500))
    design = zd.design_monitored_state(target, H, grid)
    traj = zd.continuous_dark_run(target.state_at(0.0), path, H, run.T, run.dt)
    fidelities = np.abs(np.einsum("ij,ij->i", target.states_on(traj.times).conj(), traj.states))
    transport, phase = whole_run_phase(traj.times, traj.states)
    return traj, {
        "dt": run.dt,
        "compatibility_residual": design.compatibility_residual,
        "design_orthogonality_residual": design.orthogonality_residual,
        "roundtrip_min_fidelity": fidelities.min(),
        "roundtrip_final_fidelity": fidelities[-1],
        "parallel_transport_residual": transport,
        "geometric_phase": phase,
    }


def whole_run_phase(times, states, tol=zd.DEFAULT):
    """``(transport residual, Pancharatnam phase)`` from whole-run arrays."""
    overlaps = np.einsum("ij,ij->i", states[:-1].conj(), states[1:])
    norms = np.linalg.norm(states, axis=1)
    transport = (np.abs(overlaps.imag) / (norms[:-1] * norms[1:] * np.diff(times))).max()
    total = float(np.angle(overlaps).sum())
    closing = np.vdot(states[-1], states[0])
    ends = float(np.linalg.norm(states[-1]) ** 2 + np.linalg.norm(states[0]) ** 2)
    if math.sqrt(max(ends - 2.0 * float(abs(closing)), 0.0)) <= tol.closed_path:
        total += float(np.angle(closing))
    return transport, float(np.angle(np.exp(1j * total)))


MODES = [
    "discrete",
    "continuous, H = 0",
    "continuous, H != 0",
    "closed form",
    "embedded",
    "inverse",
]


@pytest.mark.parametrize("steps", LENGTHS, ids=["1", "w", "w+1", "w+2", "3w+17"])
@pytest.mark.parametrize("mode", MODES)
def test_cli_outputs_equal_the_library_run(tmp_path, mode, steps):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config(mode, steps, out))
    command = "design" if mode == "inverse" else "run"
    if mode == "embedded" and steps == 1:
        # one step is shorter than the quasi-static check's averaging window
        assert main([command, cfg, "--quiet"]) == 2
        assert not out.exists()
        return
    assert main([command, cfg, "--quiet"]) == 0

    traj, expected = library_run(mode, load_scenario(cfg))
    stream = io.StringIO()
    traj.write_csv(stream)
    assert (out / "case_trajectory.csv").read_bytes() == stream.getvalue().encode("ascii")

    metrics = json.loads((out / "case_summary.json").read_text())["metrics"]
    assert {k: float(v).hex() for k, v in metrics.items()} == {
        k: float(v).hex() for k, v in expected.items()
    }


def test_json_only_run_writes_no_csv_and_the_same_metrics(tmp_path):
    steps = W + 2
    payload = config("continuous, H != 0", steps, tmp_path / "both")
    assert main(["run", write_config(tmp_path, payload), "--quiet"]) == 0
    payload["output"] = {"directory": str(tmp_path / "json"), "formats": ["json"]}
    assert main(["run", write_config(tmp_path, payload), "--quiet"]) == 0
    assert [p.name for p in (tmp_path / "json").iterdir()] == ["case_summary.json"]
    both, json_only = (
        json.loads((tmp_path / d / "case_summary.json").read_text())["metrics"]
        for d in ("both", "json")
    )
    assert both == json_only


# --- outputs appear only on success ------------------------------------------


def failing_phase_sum(monkeypatch):
    def fail(self, tol):
        raise PhysicsError("injected after the last window")

    monkeypatch.setattr(zenodark.design._PhaseSum, "result", fail)


def failing_closed_form(monkeypatch):
    def fail(*args, **kwargs):
        raise OrthogonalityError("injected after the last window")

    monkeypatch.setattr(zenodark.cli, "closed_form_solution", fail)


@pytest.mark.parametrize(
    "mode, inject",
    [("inverse", failing_phase_sum), ("continuous, H != 0", failing_closed_form)],
    ids=["phase", "closed-form"],
)
def test_failure_after_rows_were_written_leaves_no_output(
    tmp_path, monkeypatch, capsys, mode, inject
):
    # the CSV has rows by the time the metrics fail: it and every directory
    # this call made are removed, and a directory that was there stays
    inject(monkeypatch)
    written = []
    rows = zenodark.cli._Output.rows

    def spy(self, *args):
        rows(self, *args)
        written.append((self.directory / "case_trajectory.csv").stat().st_size)

    monkeypatch.setattr(zenodark.cli._Output, "rows", spy)
    command = "design" if mode == "inverse" else "run"
    out = tmp_path / "made" / "nested" / "out"
    cfg = write_config(tmp_path, config(mode, 3 * W + 17, out))
    assert main([command, cfg, "--quiet"]) == 3
    assert "injected after the last window" in capsys.readouterr().err
    assert len(written) == 4 and written[-1] > 0
    assert not (tmp_path / "made").exists()

    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "other.txt").write_text("not this command's\n")
    assert main([command, cfg, "--quiet", "--out", str(kept)]) == 3
    assert [p.name for p in kept.iterdir()] == ["other.txt"]


def test_check_before_the_first_window_creates_nothing(tmp_path, monkeypatch, capsys):
    # the orthogonality check runs when the run's producer is made, before any file is made
    def no_file(self, kind):
        raise AssertionError(f"{kind} opened by a failing run")

    monkeypatch.setattr(zenodark.cli._Output, "open", no_file)
    payload = config("continuous, H = 0", 10, tmp_path / "out")
    payload["initial_state"] = [[1, 0], [0, 0], [0, 0]]
    assert main(["run", write_config(tmp_path, payload), "--quiet"]) == 3
    assert "orthogonal" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- memory ------------------------------------------------------------------


def traced_peak(argv):
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - entry


# What a command holds besides its own rows: one window of the run and its
# path samples, and the CSV writer's block scratch.  A 200,000-step run held
# its rows until the end, 16 MiB above a 2,000-step one.
RUN_ALLOWANCE = 2 << 20


@pytest.mark.parametrize("mode", ["continuous, H = 0", "inverse"])
def test_cli_memory_does_not_grow_with_the_run(tmp_path, mode):
    command = "design" if mode == "inverse" else "run"
    peaks = {}
    for steps in (2_000, 200_000):
        cfg = write_config(tmp_path, config(mode, steps, tmp_path / f"out{steps}"))
        main([command, cfg, "--quiet"])  # imports and first-call caches
        peaks[steps] = traced_peak([command, cfg, "--quiet"])
    assert (tmp_path / "out200000" / "case_trajectory.csv").stat().st_size > 10**7
    # a design keeps one angle per step for the pairwise phase sum
    per_step = 8 if mode == "inverse" else 0
    assert peaks[200_000] <= peaks[2_000] + per_step * 198_000 + RUN_ALLOWANCE


# (short, long) step counts and the bytes a step may add.  The long runs are
# the shortest whose whole rows (80 B a step of a dark run) would grow the
# peak beyond RUN_ALLOWANCE.  An embedded run keeps its dark reference's
# states (N * 16 B a refined step; at dt = 1.25e-4 the reference is not
# refined) and one complex quasi-static offset (16 B) a step; its 4,000 rows
# cover the 2,011-point averaging window at E = 100.
MEMORY_CASES = {
    "discrete": (2_000, 30_000, 0),
    "continuous, H != 0": (2_000, 30_000, 0),
    "closed form": (2_000, 30_000, 0),
    "embedded": (4_000, 40_000, 3 * 16 * 1 + 16),
}


@pytest.mark.parametrize("mode", list(MEMORY_CASES))
def test_cli_memory_grows_only_by_what_a_mode_keeps(tmp_path, mode):
    short, long, per_step = MEMORY_CASES[mode]
    peaks = {}
    for steps in (short, long):
        payload = config(mode, steps, tmp_path / f"out{steps}")
        if mode == "embedded":
            payload["run"].update(T=steps * 1.25e-4, dt=1.25e-4)
        cfg = write_config(tmp_path, payload)
        main(["run", cfg, "--quiet"])  # imports and first-call caches
        peaks[steps] = traced_peak(["run", cfg, "--quiet"])
    assert peaks[long] <= peaks[short] + per_step * (long - short) + RUN_ALLOWANCE
