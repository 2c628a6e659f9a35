import ast
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import zenodark as zd
import zenodark.cli
from zenodark.cli import main, run_scenario, run_sweep
from zenodark.dynamics import _continuous_rows as continuous_rows
from zenodark.scenario import load_scenario

S3 = 3**-0.5

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
SRC = ROOT / "src"


def write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def orthogonal_initial_state():
    probe_spectrum = zd.zeno_spectrum(
        np.zeros((3, 3)),
        np.diag([0.0, 1.0, 2.0]),
        np.ones(3) / np.sqrt(3),
        np.array([1.0, -1.0, 0.0]) / np.sqrt(2),
    )
    psi = (probe_spectrum.modes[:, 0] + probe_spectrum.modes[:, 1]) / np.sqrt(2)
    return [[float(z.real), float(z.imag)] for z in psi]


def spectrum_config(out_dir):
    return {
        "dimension": 3,
        "initial_state": [[0.7071067811865476, 0], [-0.7071067811865476, 0], [0, 0]],
        "hamiltonian": "zero",
        "path": {
            "type": "generator",
            "generator": [[0, 0, 0], [0, 1, 0], [0, 0, 2]],
            "initial_state": [S3, S3, S3],
        },
        "output": {"directory": out_dir},
    }


def continuous_config(out_dir):
    return {
        "dimension": 3,
        "initial_state": orthogonal_initial_state(),
        "hamiltonian": "zero",
        "path": {
            "type": "modes",
            "amplitudes": [S3, S3, S3],
            "frequencies": [0, 1, 2],
        },
        "run": {"mode": "continuous", "T": 1.0, "dt": 0.001},
        "output": {"directory": out_dir},
    }


class TestSpectrumCommand:
    def test_emits_expected_omegas(self, tmp_path, capsys):
        cfg = write(tmp_path, spectrum_config(str(tmp_path / "out")))
        assert main(["spectrum", cfg, "--quiet"]) == 0
        payload = json.loads((tmp_path / "out" / "scenario_summary.json").read_text())
        omegas = payload["spectrum"]["omegas"]
        np.testing.assert_allclose(
            omegas, [-(1.0 + S3), -(1.0 - S3)], atol=1e-8
        )
        assert payload["spectrum"]["period"] == pytest.approx(2 * np.pi)
        assert "return_fidelity" in payload["spectrum"]

    def test_needs_generator_content(self, tmp_path, capsys):
        # a sampled path carries no generator
        cfg_dict = spectrum_config(str(tmp_path / "out"))
        cfg_dict["path"] = {
            "type": "samples",
            "times": [0, 1, 2, 3, 4],
            "samples": [[0, 0, 1]] * 5,
        }
        cfg = write(tmp_path, cfg_dict)
        assert main(["spectrum", cfg, "--quiet"]) == 2
        assert "needs a generator or mode path" in capsys.readouterr().err

    def test_designed_path_spectrum(self, tmp_path):
        # mode_design's path is f(t) = exp(-i diag(nu) t) f0 with
        # f0 = (0, 1, -1)/sqrt(2), and the initial state is orthogonal to it
        cfg_dict = spectrum_config(str(tmp_path / "out"))
        cfg_dict["initial_state"] = [1, 1, 1]
        cfg_dict["path"] = {
            "type": "designed",
            "probabilities": [0.5, 0.25, 0.25],
            "frequencies": [0, 2, -2],
        }
        assert main(["spectrum", write(tmp_path, cfg_dict), "--quiet"]) == 0
        payload = json.loads((tmp_path / "out" / "scenario_summary.json").read_text())
        # oracle: eigvalsh of P0 (H - K) P0, less the eigenvalue of f0
        f0 = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
        P0 = np.eye(3) - np.outer(f0, f0)
        w, v = np.linalg.eigh(P0 @ -np.diag([0.0, 2.0, -2.0]) @ P0)
        expected = np.delete(w, np.argmax(np.abs(v.T @ f0)))
        np.testing.assert_allclose(payload["spectrum"]["omegas"], expected, rtol=0, atol=1e-12)
        assert payload["spectrum"]["period"] == pytest.approx(np.pi / 2, rel=1e-12)
        assert "return_fidelity" in payload["spectrum"]

    def test_needs_initial_state(self, tmp_path, capsys):
        # an inverse scenario needs no initial state, but a spectrum does
        config = str(SCENARIOS / "inverse_design.json")
        assert main(["spectrum", config, "--quiet", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "initial_state" in err
        assert list(tmp_path.iterdir()) == []


class TestRunCommand:
    def test_continuous_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write(tmp_path, continuous_config(str(out)))
        assert main(["run", cfg, "--quiet"]) == 0
        csv_text = (out / "scenario_trajectory.csv").read_text()
        first = csv_text.splitlines()[0]
        assert first.startswith("#schema=1 ")
        assert (
            first
            == "#schema=1 t,re_psi_0,re_psi_1,re_psi_2,im_psi_0,im_psi_1,im_psi_2,"
            "norm,survival_prob,orth_residual"
        )
        summary = json.loads((out / "scenario_summary.json").read_text())
        assert summary["metrics"]["max_norm_deviation"] < 1e-8

    def test_csv_byte_identical_across_runs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write(tmp_path, continuous_config(str(out_a)))
        assert main(["run", cfg, "--quiet"]) == 0
        assert main(["run", cfg, "--quiet", "--out", str(out_b)]) == 0
        bytes_a = (out_a / "scenario_trajectory.csv").read_bytes()
        bytes_b = (out_b / "scenario_trajectory.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_orthogonality_violation_exits_3(self, tmp_path, capsys):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["initial_state"] = [[0.3, 0], [0.9539392014169456, 0], [0, 0]]
        cfg = write(tmp_path, cfg_dict)
        assert main(["run", cfg, "--quiet"]) == 3
        assert "orthogonal" in capsys.readouterr().err

    def test_orthogonality_is_checked_before_the_path_is_sampled(self, tmp_path, capsys):
        # two faults: psi0 = f(0), and the first window runs past the samples;
        # the setup check comes first (exit 2 when it ran inside the window)
        cfg_dict = json.loads((SCENARIOS / "continuous_sampled_path.json").read_text())
        cfg_dict["run"]["T"] = 3.0
        cfg_dict["initial_state"] = cfg_dict["path"]["samples"][0]
        out = tmp_path / "out"
        assert main(["run", write(tmp_path, cfg_dict), "--quiet", "--out", str(out)]) == 3
        assert "orthogonal" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("T", float("nan")),
            ("T", float("inf")),
            ("hamiltonian", float("nan")),
            ("initial_state", float("nan")),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, key, value):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        if key == "T":
            cfg_dict["run"]["T"] = value
        elif key == "hamiltonian":
            cfg_dict["hamiltonian"] = [[value, 0, 0], [0, 0, 0], [0, 0, 0]]
        else:
            cfg_dict["initial_state"][0] = [value, 0]
        cfg = write(tmp_path, cfg_dict)
        assert main(["run", cfg, "--quiet"]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "scenario_trajectory.csv").exists()

    @pytest.mark.parametrize(
        "run",
        [
            {"mode": "continuous", "T": 1e15, "dt": 1.0},
            {"mode": "discrete", "tau": 0.01, "M": 10**12},
            {"mode": "continuous", "T": 1e300, "dt": 1e-300},  # T / dt is infinite
            {"mode": "discrete", "tau": 0.01, "M": 10**400},  # M is too large for a float
        ],
    )
    def test_oversized_run_exits_2(self, tmp_path, capsys, run):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["run"] = run
        cfg = write(tmp_path, cfg_dict)
        assert main(["run", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert str(zd.dynamics.MAX_STEPS) in err

    def test_oversized_step_count_is_written_short(self, tmp_path, capsys):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["run"] = {"mode": "continuous", "T": 0.2, "dt": 1e-301}
        assert main(["run", write(tmp_path, cfg_dict), "--quiet"]) == 2
        assert "configuration error: 2e+300 steps of 1e-301 exceed" in capsys.readouterr().err

    def test_malformed_frequency_list_exits_2(self, tmp_path):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["path"]["frequencies"] = [0, None, 2]
        cfg = write(tmp_path, cfg_dict)
        assert main(["run", cfg, "--quiet"]) == 2

    def test_discrete_run(self, tmp_path):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["run"] = {"mode": "discrete", "tau": 0.01, "T": 1.0}
        cfg = write(tmp_path, cfg_dict)
        report = run_scenario(cfg)
        assert report.mode == "discrete"
        assert 0.0 < report.metrics["norm_deficit"] < 0.02
        assert report.metrics["measurements"] == 100

    def test_closed_form_run_mode(self, tmp_path):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["run"] = {"mode": "closed_form", "T": 1.0, "dt": 0.001}
        cfg = write(tmp_path, cfg_dict)
        report = run_scenario(cfg)
        assert report.metrics["min_fidelity_vs_integrator"] >= 1.0 - 1e-8

    def test_embedded_run_mode(self, tmp_path):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["run"] = {"mode": "embedded", "T": 1.0, "dt": 0.001, "E": 100.0}
        cfg = write(tmp_path, cfg_dict)
        report = run_scenario(cfg)
        assert report.metrics["deviation_from_dark"] < 0.05
        csv_first = (
            (tmp_path / "out" / "scenario_trajectory.csv").read_text().splitlines()[0]
        )
        assert csv_first.endswith("re_alpha,im_alpha")

    def test_embedded_run_shorter_than_one_window_exits_2(self, tmp_path, capsys):
        # E = 100, dt = 1e-3: the quasi-static check averages over 251 points
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["run"] = {"mode": "embedded", "T": 0.1, "dt": 0.001, "E": 100.0}
        assert main(["run", write(tmp_path, cfg_dict), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "101 rows" in err and "251 points" in err

    def test_continuous_run_on_designed_path_has_closed_form(self, tmp_path):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["initial_state"] = [1, 1, 1]
        cfg_dict["path"] = {
            "type": "designed",
            "probabilities": [0.5, 0.25, 0.25],
            "frequencies": [0, 2, -2],
        }
        report = run_scenario(write(tmp_path, cfg_dict))
        assert report.metrics["final_fidelity_vs_closed_form"] >= 1.0 - 1e-8

    def test_embedded_requires_zero_hamiltonian(self, tmp_path):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["hamiltonian"] = [[0, 0, 0], [0, 1, 0], [0, 0, 1]]
        cfg_dict["run"] = {"mode": "embedded", "T": 1.0, "dt": 0.001, "E": 100.0}
        cfg = write(tmp_path, cfg_dict)
        assert main(["run", cfg, "--quiet"]) == 2

    def test_json_only_format(self, tmp_path):
        out = tmp_path / "out"
        cfg_dict = continuous_config(str(out))
        cfg_dict["output"]["formats"] = ["json"]
        cfg = write(tmp_path, cfg_dict)
        assert main(["run", cfg, "--quiet"]) == 0
        assert not (out / "scenario_trajectory.csv").exists()
        assert (out / "scenario_summary.json").exists()

    def test_summary_printed_unless_quiet(self, tmp_path, capsys):
        cfg = write(tmp_path, continuous_config(str(tmp_path / "out")))
        assert main(["run", cfg]) == 0
        out = capsys.readouterr().out
        assert "finished" in out
        assert main(["run", cfg, "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestDesignCommand:
    def test_round_trip_design(self, tmp_path):
        out = tmp_path / "out"
        cfg = write(
            tmp_path,
            {
                "dimension": 3,
                "hamiltonian": "zero",
                "path": {
                    "type": "designed",
                    "probabilities": [0.5, 0.25, 0.25],
                    "frequencies": [0, 2, -2],
                },
                "run": {"mode": "inverse", "T": 1.0, "dt": 0.001},
                "output": {"directory": str(out)},
            },
        )
        assert main(["design", cfg, "--quiet"]) == 0
        payload = json.loads((out / "scenario_summary.json").read_text())
        assert payload["metrics"]["roundtrip_min_fidelity"] >= 1.0 - 1e-6
        assert payload["design"]["normalization_samples"][0] == pytest.approx(2**-0.5)

    def test_parallel_transport_violation_exits_3(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            {
                "dimension": 3,
                "hamiltonian": "zero",
                "path": {
                    "type": "designed",
                    "probabilities": [0.5, 0.25, 0.25],
                    "frequencies": [0, 2, -1],
                },
                "run": {"mode": "inverse", "T": 1.0, "dt": 0.001},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        assert main(["design", cfg, "--quiet"]) == 3
        assert "parallel transport" in capsys.readouterr().err

    def test_inverse_requires_zero_hamiltonian(self, tmp_path, capsys):
        # sum_j p_j h_j = 0 passes the compatibility check, but the path is
        # designed for H = 0, so a run under this H would miss the target
        cfg_dict = json.loads((SCENARIOS / "inverse_design.json").read_text())
        cfg_dict["hamiltonian"] = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
        cfg_dict["run"]["dt"] = 1e-3
        cfg_dict["output"] = {"directory": str(tmp_path / "out")}
        assert main(["design", write(tmp_path, cfg_dict), "--quiet"]) == 2
        assert 'set hamiltonian to "zero"' in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_design_needs_inverse_mode(self, tmp_path):
        cfg = write(tmp_path, continuous_config(str(tmp_path / "out")))
        assert main(["design", cfg, "--quiet"]) == 2


class TestSweepCommand:
    def test_tau_sweep_slope(self, tmp_path):
        out = tmp_path / "out"
        cfg_dict = continuous_config(str(out))
        cfg_dict["run"] = {"mode": "discrete", "tau": 0.01, "T": 1.0}
        cfg_dict["sweep"] = {"parameter": "tau", "values": [0.01, 0.005, 0.0025]}
        cfg = write(tmp_path, cfg_dict)
        report = run_sweep(cfg)
        assert report.metrics["slope"] == pytest.approx(1.0, abs=0.1)
        sweep_csv = (out / "scenario_sweep.csv").read_text().splitlines()
        assert sweep_csv[0] == "#schema=1 value,metric"
        assert len(sweep_csv) == 4

    def test_energy_sweep_slope(self, tmp_path):
        # 150.27: T * E / 0.1 is not whole, so the step count must round up
        for values in ([50.0, 100.0, 200.0, 400.0], [50.0, 100.0, 150.27]):
            cfg_dict = continuous_config(str(tmp_path / "out"))
            cfg_dict["run"] = {"mode": "embedded", "T": 2.0, "dt": 0.001, "E": 100.0}
            cfg_dict["sweep"] = {"parameter": "E", "values": values}
            report = run_sweep(write(tmp_path, cfg_dict))
            assert report.metrics["slope"] == pytest.approx(-1.0, abs=0.15)

    def test_designed_sweep_builds_the_design_once(self, tmp_path, monkeypatch):
        # the designed path is built at load, not once per sweep point
        import zenodark.scenario

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return zd.mode_design(*args, **kwargs)

        monkeypatch.setattr(zenodark.scenario, "mode_design", counted, raising=False)
        cfg = write(
            tmp_path,
            {
                "dimension": 3,
                "initial_state": [S3, S3, S3],
                "hamiltonian": "zero",
                "path": {
                    "type": "designed",
                    "probabilities": [0.5, 0.25, 0.25],
                    "frequencies": [0, 2, -2],
                },
                "run": {"mode": "embedded", "T": 0.5, "dt": 0.01, "E": 100.0},
                "sweep": {"parameter": "E", "values": [50.0, 100.0, 200.0, 400.0]},
                "output": {"directory": str(tmp_path / "out"), "formats": ["json"]},
            },
        )
        report = run_sweep(cfg)
        assert len(calls) == 1
        assert report.metrics["slope"] == pytest.approx(-1.0, abs=0.15)

    @pytest.mark.parametrize(
        "run, sweep",
        [
            # T / tau and, for E, T / (0.1 / E) are infinite
            ({"mode": "discrete", "tau": 0.01, "T": 1e300}, ("tau", [1e-300, 2e-300, 3e-300])),
            (
                {"mode": "embedded", "T": 2.0, "dt": 0.001, "E": 100.0},
                ("E", [1e307, 1e308, 1.5e308]),
            ),
            # T is shorter than one step
            (
                {"mode": "embedded", "T": 1e-12, "dt": 0.001, "E": 100.0},
                ("E", [50.0, 100.0, 200.0]),
            ),
        ],
        ids=["tau", "E", "E-short"],
    )
    def test_sweep_step_count_out_of_range_exits_2(self, tmp_path, capsys, run, sweep):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["run"] = run
        cfg_dict["sweep"] = {"parameter": sweep[0], "values": sweep[1]}
        assert main(["sweep", write(tmp_path, cfg_dict), "--quiet"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def energy_sweep(self, tmp_path, values):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["run"] = {"mode": "embedded", "T": 2.0, "dt": 0.001, "E": 100.0}
        cfg_dict["sweep"] = {"parameter": "E", "values": values}
        return write(tmp_path, cfg_dict)

    @pytest.mark.parametrize(
        "values, references",
        [
            # every point refines to a step of 1.25e-4
            ([50.0, 100.0, 200.0, 400.0], 1),
            # 150.27 refines to a step of about 1.109e-4
            ([50.0, 100.0, 150.27], 2),
            # 300 to about 1.111e-4, listed between points of the other steps
            ([50.0, 150.27, 100.0, 300.0, 400.0], 3),
            # every point refines to 16,800 steps, at steps that differ in the last bit
            ([105.0, 120.0, 140.0, 168.0], 1),
        ],
    )
    def test_energy_sweep_integrates_each_reference_once(
        self, tmp_path, monkeypatch, values, references
    ):
        # one reference run per distinct refined step count, and the previous
        # one released before the next is integrated
        alive = []

        def counted(*args, **kwargs):
            assert all(ref() is None for ref in alive)
            rows = continuous_rows(*args, **kwargs)
            alive.append(weakref.ref(rows[0]))
            return rows

        monkeypatch.setattr(zenodark.cli, "_continuous_rows", counted)
        assert main(["sweep", self.energy_sweep(tmp_path, values), "--quiet"]) == 0
        assert len(alive) == references

    def test_committed_energy_sweep_integrates_one_reference(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return continuous_rows(*args, **kwargs)

        monkeypatch.setattr(zenodark.cli, "_continuous_rows", counted)
        config = str(SCENARIOS / "embedding_energy_sweep.json")
        assert main(["sweep", config, "--quiet", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("values", [None, [50.0, 150.27, 100.0, 300.0, 400.0]])
    def test_energy_sweep_reference_is_the_dark_run_states(self, tmp_path, monkeypatch, values):
        # the states-only reference is bitwise the states of continuous_dark_run,
        # on the committed sweep (one refined step) and on three refined steps
        references = []

        def kept(*args, **kwargs):
            rows = continuous_rows(*args, **kwargs)
            references.append((args, kwargs, rows))
            return rows

        monkeypatch.setattr(zenodark.cli, "_continuous_rows", kept)
        if values is None:
            config = str(SCENARIOS / "embedding_energy_sweep.json")
            assert main(["sweep", config, "--quiet", "--out", str(tmp_path)]) == 0
        else:
            assert main(["sweep", self.energy_sweep(tmp_path, values), "--quiet"]) == 0
        assert len(references) == (1 if values is None else 3)
        for (psi0, path, H, T, step, tol), kwargs, rows in references:
            assert kwargs == {"grid": False} and len(rows) == 1
            states = zd.continuous_dark_run(psi0, path, H, T, step, tol=tol).states
            assert rows[0].shape == states.shape
            assert np.array_equal(rows[0].view(np.uint64), states.view(np.uint64))

    def test_energy_sweep_points_equal_their_own_runs(self, tmp_path):
        # each point's metric, computed here from the library alone: the
        # embedded run at the step resolving E, against the dark run refined
        # to at most 1.25e-4 and read at the point's own times
        values = [50.0, 150.27, 100.0, 300.0, 400.0]
        config = self.energy_sweep(tmp_path, values)
        assert main(["sweep", config, "--quiet"]) == 0
        summary = json.loads((tmp_path / "out" / "scenario_summary.json").read_text())
        scenario = load_scenario(config)
        psi0, path, H = scenario.initial_state, scenario.path, scenario.hamiltonian
        T = 2.0
        for E, metric in zip(values, summary["sweep"]["metrics"], strict=True):
            dt = T / math.ceil(T / min(0.001, 0.1 / E) - 1e-9)
            refine = math.ceil(dt / 1.25e-4 - 1e-12)
            dark = zd.continuous_dark_run(psi0, path, H, T, dt / refine).states[::refine]
            embedded = zd.embedded_run(psi0, path, E, T, dt)
            assert metric == float(np.linalg.norm(embedded.dark_states - dark, axis=1).max())

    def test_sweep_without_block_exits_2(self, tmp_path):
        cfg = write(tmp_path, continuous_config(str(tmp_path / "out")))
        assert main(["sweep", cfg, "--quiet"]) == 2

    def test_sweep_mode_mismatch_exits_2(self, tmp_path):
        cfg_dict = continuous_config(str(tmp_path / "out"))
        cfg_dict["sweep"] = {"parameter": "tau", "values": [0.01, 0.005, 0.0025]}
        cfg = write(tmp_path, cfg_dict)
        assert main(["sweep", cfg, "--quiet"]) == 2


class TestToleranceProfiles:
    def test_strict_profile_accepted(self, tmp_path):
        cfg = write(tmp_path, continuous_config(str(tmp_path / "out")))
        assert main(["run", cfg, "--quiet", "--tolerance-profile", "strict"]) == 0

    def test_strict_profile_tightens_setup_check(self, tmp_path):
        # a 1e-9 residual on the monitored state passes default (1e-8) but
        # trips the strict setup tolerance (1e-10)
        cfg_dict = continuous_config(str(tmp_path / "out"))
        psi = np.array([complex(re, im) for re, im in cfg_dict["initial_state"]])
        f0 = np.ones(3) / np.sqrt(3)
        tainted = psi + 1e-9 * f0
        tainted /= np.linalg.norm(tainted)
        cfg_dict["initial_state"] = [[float(z.real), float(z.imag)] for z in tainted]
        cfg = write(tmp_path, cfg_dict)
        assert main(["run", cfg, "--quiet"]) == 0
        assert main(["run", cfg, "--quiet", "--tolerance-profile", "strict"]) == 3

    def test_unknown_profile_rejected_by_argparse(self, tmp_path):
        cfg = write(tmp_path, continuous_config(str(tmp_path / "out")))
        with pytest.raises(SystemExit) as err:
            main(["run", cfg, "--tolerance-profile", "sloppy"])
        assert err.value.code == 2


# load_scenario rejects a file whose blocks contradict each other, so every
# command does, even spectrum, which reads none of the blocks involved; a
# None value removes the key
CONTRADICTIONS = {
    "sweep-mode-mismatch": {
        "run": {"mode": "continuous", "T": 1.0, "dt": 0.001},
        "sweep": {"parameter": "tau", "values": [0.01, 0.005, 0.0025]},
    },
    "sweep-without-run": {"sweep": {"parameter": "E", "values": [50.0, 100.0, 200.0]}},
    "tau-sweep-without-T": {
        "run": {"mode": "discrete", "tau": 0.01, "M": 100},
        "sweep": {"parameter": "tau", "values": [0.01, 0.005, 0.0025]},
    },
    "embedded-nonzero-hamiltonian": {
        "hamiltonian": [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
        "run": {"mode": "embedded", "T": 1.0, "dt": 0.001, "E": 100.0},
    },
    "inverse-without-designed-path": {"run": {"mode": "inverse", "T": 1.0, "dt": 0.001}},
    "no-run-no-initial-state": {"initial_state": None},
}


@pytest.mark.parametrize("change", CONTRADICTIONS.values(), ids=CONTRADICTIONS.keys())
def test_contradictory_blocks_fail_at_load(tmp_path, capsys, change):
    cfg_dict = {**spectrum_config(str(tmp_path / "out")), **change}
    cfg_dict = {key: value for key, value in cfg_dict.items() if value is not None}
    assert main(["spectrum", write(tmp_path, cfg_dict), "--quiet"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a keyword that is not a string, or a key the block does not read, is a
# schema error under every command, before anything is written
GENERATOR = spectrum_config("out")["path"]
DESIGNED = {"type": "designed", "probabilities": [0.5, 0.25, 0.25], "frequencies": [0, 2, -2]}
MALFORMED = {
    "run-mode-list": {"run": {"mode": [1.0], "T": 1.0, "dt": 0.001}},
    "run-mode-object": {"run": {"mode": {}, "T": 1.0, "dt": 0.001}},
    "sweep-parameter-list": {
        "run": {"mode": "discrete", "tau": 0.01, "T": 1.0},
        "sweep": {"parameter": ["tau"], "values": [0.01, 0.005, 0.0025]},
    },
    "formats-entry-list": {"output": {"formats": [["csv"]]}},
    "generator-stray-key": {"path": {**GENERATOR, "frequencies": [0, 1, 2]}},
    "modes-stray-key": {
        "path": {"type": "modes", "amplitudes": [S3, S3, S3], "frequencies": [0, 1, 2], "tau": 1}
    },
    "samples-stray-key": {
        "path": {
            "type": "samples",
            "times": [0.0, 0.5, 1.0, 1.5, 2.0],
            "samples": [[S3, S3, S3]] * 5,
            "initial_state": [S3, S3, S3],
        },
        "run": {"mode": "continuous", "T": 1.0, "dt": 0.001},
    },
    "designed-stray-key": {
        "path": {**DESIGNED, "amplitudes": [S3, S3, S3]},
        "run": {"mode": "inverse", "T": 1.0, "dt": 0.001},
    },
    "E-in-continuous-run": {"run": {"mode": "continuous", "T": 1.0, "dt": 0.001, "E": 100.0}},
    "dt-in-discrete-run": {"run": {"mode": "discrete", "tau": 0.01, "T": 1.0, "dt": 0.001}},
}


@pytest.mark.parametrize("command", ["run", "sweep", "spectrum", "design"])
@pytest.mark.parametrize("change", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_blocks_exit_2(tmp_path, capsys, change, command):
    out = tmp_path / "out"
    config = write(tmp_path, {**spectrum_config(str(out)), **change})
    assert main([command, config, "--quiet", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_steps_times_dimension_limit_exits_2(tmp_path):
    # 10^7 steps are within MAX_STEPS, but not at N = 64, where the run's
    # arrays would take about 10 GB each.  A subprocess with 3 GB of address
    # space turns a missing check into a failure instead of an exhausted host.
    n = 64
    cfg_dict = {
        "dimension": n,
        "initial_state": [0, 1] + [0] * (n - 2),
        "path": {"type": "modes", "amplitudes": [1] + [0] * (n - 1), "frequencies": [0] * n},
        "run": {"mode": "continuous", "T": 10.0, "dt": 1e-6},
    }
    config = write(tmp_path, cfg_dict)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "zenodark.cli", "run", config, "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit_memory,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"limit of {zd.dynamics.MAX_STEP_ROWS} steps x dimension" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, name",
    [
        ("run", "continuous_three_level"),
        ("sweep", "discrete_tau_sweep"),
        ("sweep", "embedding_energy_sweep"),
        ("spectrum", "spectrum_three_level"),
        ("design", "inverse_design"),
    ],
)
def test_commands_do_not_import_numpy_ma(tmp_path, command, name):
    # np.median imports numpy.ma for its NaN check, 1.3 MB and 11-14 ms a
    # process; the design spacing took one median of 500 steps with it
    script = (
        "import sys; from zenodark.cli import main; "
        "print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)"
    )
    config = str(SCENARIOS / f"{name}.json")
    proc = subprocess.run(
        [sys.executable, "-c", script, command, config, "--quiet", "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.stdout.split() == ["0", "False"], proc.stderr


@pytest.mark.parametrize(
    "name, command",
    [
        ("continuous_three_level", "run"),
        ("embedding_energy_sweep", "run"),
        ("embedding_energy_sweep", "sweep"),
    ],
)
def test_extreme_phase_rate_exits_2(tmp_path, capsys, name, command):
    # a finite generator entry of 1e308 ran to exit 0 with NaN results
    cfg_dict = json.loads((SCENARIOS / f"{name}.json").read_text())
    cfg_dict["path"]["generator"][2][2] = 1e308
    out = tmp_path / "out"
    assert main([command, write(tmp_path, cfg_dict), "--quiet", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: run: phase rate bound 1e+308")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, key, entry",
    [
        ("continuous_mode_basis", "amplitudes", (0,)),
        ("continuous_mode_basis", "modes", (0, 0)),
        ("continuous_sampled_path", "samples", (0, 0)),
    ],
)
def test_huge_finite_path_entry_exits_2(tmp_path, capsys, name, key, entry):
    # an entry of 1e308 overflowed with a RuntimeWarning before it was rejected
    cfg_dict = json.loads((SCENARIOS / f"{name}.json").read_text())
    row = cfg_dict["path"][key]
    for i in entry[:-1]:
        row = row[i]
    row[entry[-1]] = 1e308
    out = tmp_path / "out"
    assert main(["run", write(tmp_path, cfg_dict), "--quiet", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


def test_back_to_back_calls_parse_their_own_arguments(tmp_path, capsys):
    # one parser serves every call in a process; no call sees another's options
    run_cfg = write(tmp_path, continuous_config(str(tmp_path / "default")), "run.json")
    spectrum_cfg = write(tmp_path, spectrum_config(str(tmp_path / "default")), "spectrum.json")
    assert zenodark.cli._build_parser() is zenodark.cli._build_parser()

    assert main(["run", run_cfg, "--out", str(tmp_path / "a")]) == 0
    assert "finished" in capsys.readouterr().out
    assert main(["spectrum", spectrum_cfg, "--quiet", "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == ""
    assert main(["design", run_cfg, "--quiet"]) == 2
    assert "design needs run.mode 'inverse'" in capsys.readouterr().err
    assert main(["run", run_cfg, "--quiet", "--tolerance-profile", "strict"]) == 0
    assert main(["spectrum", spectrum_cfg]) == 0
    assert "spectrum 'spectrum' (spectrum)" in capsys.readouterr().out

    # an --out of one call is not the output directory of the next
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
        "run_summary.json",
        "run_trajectory.csv",
    ]
    assert [p.name for p in (tmp_path / "b").iterdir()] == ["spectrum_summary.json"]
    assert sorted(p.name for p in (tmp_path / "default").iterdir()) == [
        "run_summary.json",
        "run_trajectory.csv",
        "spectrum_summary.json",
    ]


def test_reference_step_matches_the_benchmark():
    # perfbench counts an E sweep's refined reference steps from its own copy
    # of the reference step; its source is parsed, not run
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    [value] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["REFERENCE_DT"]
    ]
    assert zenodark.cli._REFERENCE_DT == value


def test_non_utf8_scenario_exits_2(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_bytes(b"\xff\xfe{")
    assert main(["run", str(cfg), "--quiet"]) == 2
    assert "configuration error: cannot read configuration" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["../../escape", "a/b", "a\\b", "a\0b", ".", "..", "\ud800"])
def test_name_must_be_a_plain_file_name(tmp_path, capsys, name):
    # the name prefixes the output files: it may not reach out of --out
    out = tmp_path / "x" / "y" / "out"
    cfg_dict = continuous_config(str(out))
    cfg_dict["name"] = name
    config = write(tmp_path, cfg_dict)
    assert main(["run", config, "--quiet", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["scenario.json"]


def test_oversized_dimension_exits_2(tmp_path, capsys):
    # a 10**6 x 10**6 Hamiltonian could never be allocated
    cfg_dict = continuous_config(str(tmp_path / "out"))
    cfg_dict["dimension"] = 10**6
    assert main(["run", write(tmp_path, cfg_dict), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert str(zd.scenario.MAX_DIMENSION) in err


class TestSpectrumFromModePath:
    def test_mode_path_scenario(self, tmp_path):
        cfg_dict = spectrum_config(str(tmp_path / "out"))
        cfg_dict["path"] = {
            "type": "modes",
            "amplitudes": [S3, S3, S3],
            "frequencies": [0, 1, 2],
        }
        cfg = write(tmp_path, cfg_dict)
        assert main(["spectrum", cfg, "--quiet"]) == 0
        payload = json.loads(
            (tmp_path / "out" / "scenario_summary.json").read_text()
        )
        np.testing.assert_allclose(
            payload["spectrum"]["omegas"], [-(1.0 + S3), -(1.0 - S3)], atol=1e-8
        )



# sha256 of the committed scenarios' CSV output: any change to the
# propagation, sampling or CSV formatting arithmetic shows here
COMMITTED_CSV_SHA256 = {
    "continuous_three_level": "49ffdb6c33e43a3989889d8853358d4c2ba49d1a2b9f0e91b32fbfcacea857dc",
    "inverse_design": "654f4011e438c20d7f6f37ef1c4cd06902b0871d135e8c6d088973db077f0508",
    "embedding_energy_sweep": "fcfe4469cdff1e3a22baa949b70811f386a6313f611c564bb7f02000e313b400",
    "discrete_tau_sweep": "e4d87203a9ec180517079e22687d7f73719865ca1d01e30085c6a55f73d71118",
    "continuous_commuting_hamiltonian": "ebe5753c727809dd217c427d6e4245eb0917ce971cfcc6b27fda44d8c8916e3e",
    "run discrete_tau_sweep": "691d4c513e37d37aea7b70ab201743a75bafde7ee73dbb0674c22c11d6491594",
    "run embedding_energy_sweep": "9cfd7fc14286f7415b3e8ea33fc890c76bdc603ad46bdb866c8f5bd0d9a42c3f",
    "closed_form_commuting_hamiltonian": "92446d4c0c2137f22f4e2a5fbde3e92d4573223f553eb7a38d035260746fea6f",
    "continuous_step_sweep": "57abd12c30894e7dfda96b3fce40c05b40e315d47d05adc104b326e7dbcd0274",
    "continuous_sampled_path": "eda7989b21e25fd19ae92e79045409e8ae77d6ee2cf5d19892583d0b1a2b0160",
    "continuous_mode_basis": "8dd3dfc1496adde2574c33bc6183c5ec2f95a072df8b589abca25e034185a6c2",
}

# sha256 of each committed scenario's summary, without the run-dependent
# "duration_seconds" and "files", re-dumped with sorted keys.  A scenario
# pinned under a second command is keyed "<command> <name>" in both tables.
COMMITTED_SUMMARY_SHA256 = {
    "continuous_three_level": "aac5176f7619b8ba2ded365727b4602e779c8c52dc51ba236feec9140edff2bb",
    "inverse_design": "4e60a3b3d55e5ff02202a1c42c11d68025ca281ccfbf21d62a6ba97453c635b9",
    "embedding_energy_sweep": "a1518d1036eff09c79e130b3f2b7efe9620c0d804e012b977b2b09e73cc1ab7e",
    "discrete_tau_sweep": "21bc51b7cf0f5062ecd01e3671e4919d9189e151999ef791323c0288f4334855",
    "spectrum_three_level": "9a5f4c34e5dc35b8112d8f7f8c3be8425e32704a587e2e57444e82e7cf1decb8",
    "continuous_commuting_hamiltonian": "ede9c13a081a6b1737b9062003a82ae63a84c0562431845d996484ea0bbafa70",
    "run discrete_tau_sweep": "a51b18d42952226bacb2b5520f76062ab715d76ecc779a17f624aac666d0bbc7",
    "run embedding_energy_sweep": "a1f51b74c69d8ed501dacc34529a2c6f5bfcdab5df5e8d30a81a211d0c91b82e",
    "closed_form_commuting_hamiltonian": "28de1338a5335a4ba92c697db4342cfa985520f3c811100af483a05d899e7fdf",
    "continuous_step_sweep": "3c4005c24fe4a15f19bc4bf1561dcd9b003c1dd74ac59e333742848967afdfc2",
    "continuous_sampled_path": "72b670d7154499b4baf013cca91d1f1d56c679d260953571e1e98f2024e1261e",
    "continuous_mode_basis": "336aeaf89dbbd14e27944b1173f69c09d9b589d6daeecab67a151f543c707918",
}


@pytest.mark.parametrize(
    "command, name",
    [
        ("run", "continuous_three_level"),
        ("design", "inverse_design"),
        ("sweep", "embedding_energy_sweep"),
        ("sweep", "discrete_tau_sweep"),
        ("spectrum", "spectrum_three_level"),
        ("run", "continuous_commuting_hamiltonian"),
        ("run", "discrete_tau_sweep"),
        ("run", "embedding_energy_sweep"),
        ("run", "closed_form_commuting_hamiltonian"),
        ("sweep", "continuous_step_sweep"),
        ("run", "continuous_sampled_path"),
        ("run", "continuous_mode_basis"),
    ],
)
def test_committed_scenario_csv_sha256_unchanged(tmp_path, command, name):
    config = str(SCENARIOS / f"{name}.json")
    assert main([command, config, "--quiet", "--out", str(tmp_path)]) == 0
    key = f"{command} {name}" if f"{command} {name}" in COMMITTED_SUMMARY_SHA256 else name
    csvs = list(tmp_path.glob("*.csv"))
    assert [hashlib.sha256(c.read_bytes()).hexdigest() for c in csvs] == (
        [COMMITTED_CSV_SHA256[key]] if key in COMMITTED_CSV_SHA256 else []
    )
    summary = json.loads((tmp_path / f"{name}_summary.json").read_text())
    del summary["duration_seconds"], summary["files"]
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert digest == COMMITTED_SUMMARY_SHA256[key]
