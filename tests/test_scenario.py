import json

import numpy as np
import pytest

import zenodark as zd
from zenodark.errors import ConfigError, HermiticityError, ParallelTransportError
from zenodark.scenario import load_scenario


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def base_config():
    s = 3**-0.5
    return {
        "dimension": 3,
        "initial_state": [[0.7071067811865476, 0.0], [-0.7071067811865476, 0.0], [0.0, 0.0]],
        "hamiltonian": "zero",
        "path": {
            "type": "generator",
            "generator": [[0, 0, 0], [0, 1, 0], [0, 0, 2]],
            "initial_state": [s, s, s],
        },
        "run": {"mode": "continuous", "T": 1.0, "dt": 0.001},
    }


def test_happy_path(tmp_path):
    sc = load_scenario(write_config(tmp_path, base_config()))
    assert sc.dimension == 3
    assert sc.name == "scenario"
    assert isinstance(sc.path, zd.GeneratorPath)
    assert sc.run.mode == "continuous"
    assert np.linalg.norm(sc.initial_state) == pytest.approx(1.0)
    assert sc.output.directory == "out"
    assert sc.output.formats == ("csv", "json")


def test_initial_state_normalized_at_parse(tmp_path):
    cfg = base_config()
    cfg["initial_state"] = [[3.0, 0.0], [-3.0, 0.0], [0.0, 0.0]]
    sc = load_scenario(write_config(tmp_path, cfg))
    assert np.linalg.norm(sc.initial_state) == pytest.approx(1.0)


def test_complex_entries_as_pairs(tmp_path):
    cfg = base_config()
    cfg["initial_state"] = [[0.0, 0.7071067811865476], [-0.7071067811865476, 0.0], [0.0, 0.0]]
    sc = load_scenario(write_config(tmp_path, cfg))
    assert sc.initial_state[0] == pytest.approx(0.7071067811865476j)


def test_unknown_top_level_key_rejected(tmp_path):
    cfg = base_config()
    cfg["tolerances"] = {}
    with pytest.raises(ConfigError):
        load_scenario(write_config(tmp_path, cfg))


def test_malformed_frequency_list_rejected(tmp_path):
    cfg = base_config()
    cfg["path"] = {
        "type": "modes",
        "amplitudes": [0.5773502691896258] * 3,
        "frequencies": [0, "one", 2],
    }
    with pytest.raises(ConfigError):
        load_scenario(write_config(tmp_path, cfg))


def test_missing_run_parameters_rejected(tmp_path):
    cfg = base_config()
    cfg["run"] = {"mode": "continuous", "T": 1.0}
    with pytest.raises(ConfigError):
        load_scenario(write_config(tmp_path, cfg))


def test_non_hermitian_generator_rejected(tmp_path):
    cfg = base_config()
    cfg["path"]["generator"] = [[0, 1, 0], [0, 1, 0], [0, 0, 2]]
    with pytest.raises(HermiticityError):
        load_scenario(write_config(tmp_path, cfg))


def test_sweep_needs_three_distinct_values(tmp_path):
    cfg = base_config()
    cfg["sweep"] = {"parameter": "tau", "values": [0.01, 0.005]}
    with pytest.raises(ConfigError):
        load_scenario(write_config(tmp_path, cfg))
    cfg["sweep"] = {"parameter": "tau", "values": [0.01, 0.01, 0.01]}
    with pytest.raises(ConfigError):
        load_scenario(write_config(tmp_path, cfg))


def test_invalid_sweep_parameter(tmp_path):
    cfg = base_config()
    cfg["sweep"] = {"parameter": "theta", "values": [1, 2, 3]}
    with pytest.raises(ConfigError):
        load_scenario(write_config(tmp_path, cfg))


def test_designed_path_block_parses(tmp_path):
    cfg = {
        "dimension": 3,
        "hamiltonian": "zero",
        "path": {
            "type": "designed",
            "probabilities": [0.5, 0.25, 0.25],
            "frequencies": [0, 2, -2],
        },
        "run": {"mode": "inverse", "T": 1.0, "dt": 0.001},
    }
    sc = load_scenario(write_config(tmp_path, cfg))
    assert sc.initial_state is None
    assert sc.run.mode == "inverse"
    # the design is built at load: the path is mode_design's closed form
    target, path = zd.mode_design([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
    assert isinstance(sc.path, zd.DesignedPath)
    assert isinstance(sc.target, zd.ModeTrajectory)
    grid = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(sc.path.evaluate_many(grid)[1], path.evaluate_many(grid)[1])
    np.testing.assert_array_equal(sc.target.states_on(grid), target.states_on(grid))


def test_designed_path_physics_errors_raised_at_load(tmp_path):
    cfg = {
        "dimension": 3,
        "path": {
            "type": "designed",
            "probabilities": [0.5, 0.25, 0.25],
            "frequencies": [0, 2, -1],
        },
        "run": {"mode": "inverse", "T": 1.0, "dt": 0.001},
    }
    with pytest.raises(ParallelTransportError):
        load_scenario(write_config(tmp_path, cfg))
    # schema errors elsewhere in the file still come first
    cfg["run"] = {"mode": "inverse"}
    with pytest.raises(ConfigError):
        load_scenario(write_config(tmp_path, cfg))


def test_other_path_types_have_no_target(tmp_path):
    assert load_scenario(write_config(tmp_path, base_config())).target is None


def test_initial_state_required_outside_inverse(tmp_path):
    cfg = base_config()
    del cfg["initial_state"]
    with pytest.raises(ConfigError):
        load_scenario(write_config(tmp_path, cfg))


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "absent.json")


def test_sampled_path_block(tmp_path):
    times = np.linspace(0.0, 1.0, 21)
    gen = zd.GeneratorPath(np.diag([0.0, 1.0, 2.0]), np.ones(3) / np.sqrt(3))
    F, _ = gen.evaluate_many(times)
    cfg = base_config()
    cfg["path"] = {
        "type": "samples",
        "times": times.tolist(),
        "samples": [[[z.real, z.imag] for z in row] for row in F],
    }
    sc = load_scenario(write_config(tmp_path, cfg))
    assert isinstance(sc.path, zd.SampledPath)


def test_output_block_validation(tmp_path):
    cfg = base_config()
    cfg["output"] = {"directory": "results", "formats": ["json"]}
    sc = load_scenario(write_config(tmp_path, cfg))
    assert sc.output.directory == "results"
    assert sc.output.formats == ("json",)
    cfg["output"] = {"formats": ["yaml"]}
    with pytest.raises(ConfigError):
        load_scenario(write_config(tmp_path, cfg))
