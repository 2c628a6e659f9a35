import json

import numpy as np
import pytest

import zenodark as zd
from zenodark.errors import ConfigError, HermiticityError, InputError, ParallelTransportError
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


@pytest.mark.parametrize(
    "text",
    ['{"dimension": ' + "1" * 5000 + "}", "[" * 100_000],
    ids=["integer-of-5000-digits", "nested-too-deeply"],
)
def test_json_the_parser_refuses_rejected(tmp_path, text):
    # json.loads raises ValueError and RecursionError here, not JSONDecodeError
    path = tmp_path / "scenario.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(path)


@pytest.mark.parametrize("directory", ["a\0b", "\ud800"], ids=["NUL", "lone-surrogate"])
def test_output_directory_must_be_a_path(tmp_path, directory):
    # mkdir would raise ValueError or UnicodeEncodeError
    cfg = base_config()
    cfg["output"] = {"directory": directory}
    with pytest.raises(ConfigError, match="output.directory"):
        load_scenario(write_config(tmp_path, cfg))


@pytest.mark.parametrize(
    "run, message",
    [
        ({"T": 1.0, "dt": 0.001}, "run: missing required key 'mode'"),
        (
            {"mode": "discrete", "tau": 0.01},
            "run \\(mode 'discrete'\\): missing required key 'M' or 'T'",
        ),
        ({"mode": "embedded", "T": 1.0, "dt": 0.001}, "missing required key 'E'"),
        ({"mode": "continuous", "T": 1.0, "dt": 0.001, "M": 10}, "unknown keys \\['M'\\]"),
        ({"mode": "discrete", "tau": 0.01, "M": 2.0}, "run.M: expected an integer"),
        ({"mode": "discrete", "tau": 0.01, "M": True}, "run.M: expected an integer"),
        ({"mode": "warp", "T": 1.0}, "run.mode: expected one of"),
    ],
    ids=[
        "no-mode", "discrete-without-M-or-T", "embedded-without-E", "M-in-continuous",
        "float-M", "bool-M", "unknown-mode",
    ],
)
def test_run_table(tmp_path, run, message):
    cfg = base_config()
    cfg["run"] = run
    with pytest.raises(ConfigError, match=message):
        load_scenario(write_config(tmp_path, cfg))


def test_discrete_run_keeps_both_M_and_T(tmp_path):
    cfg = base_config()
    cfg["run"] = {"mode": "discrete", "tau": 0.01, "M": 50, "T": 1.0}
    run = load_scenario(write_config(tmp_path, cfg)).run
    assert (run.tau, run.M, run.T, run.dt, run.E) == (0.01, 50, 1.0, None, None)


# The base generator's largest absolute row sum is 2, so a run block's phase
# bound is (2 + |H|) x its duration; each pair sits just inside and just
# outside MAX_PHASE = 1e6 rad.
DESIGNED_PATH = {"type": "designed", "probabilities": [0.5, 0.25, 0.25], "frequencies": [0, 2, -2]}
PHASE_CASES = {
    "generator": ({}, {"mode": "continuous", "T": 4.9e5, "dt": 0.1}, 5.1e5),
    "hamiltonian-adds": (
        {"hamiltonian": [[0, 0, 0], [0, 0, 0], [0, 0, 1]]},
        {"mode": "continuous", "T": 3.2e5, "dt": 0.1},
        3.4e5,
    ),
    "modes": (
        {"path": {"type": "modes", "amplitudes": [3**-0.5] * 3, "frequencies": [0, 1, -2]}},
        {"mode": "closed_form", "T": 4.9e5, "dt": 0.1},
        5.1e5,
    ),
    "designed": ({"path": DESIGNED_PATH}, {"mode": "inverse", "T": 4.9e5, "dt": 0.1}, 5.1e5),
    "discrete-tau-M": ({}, {"mode": "discrete", "tau": 0.1, "M": 4_900_000}, 5_100_000),
    "discrete-T": ({}, {"mode": "discrete", "tau": 0.1, "T": 4.9e5}, 5.1e5),
}


@pytest.mark.parametrize("change, run, over", PHASE_CASES.values(), ids=PHASE_CASES.keys())
def test_run_phase_is_bounded(tmp_path, change, run, over):
    cfg = {**base_config(), **change, "run": run}
    load_scenario(write_config(tmp_path, cfg))
    key = "M" if "M" in run else "T"
    cfg["run"] = {**run, key: over}
    with pytest.raises(ConfigError, match="phase rate bound .* exceeds the limit of 1e\\+06 rad"):
        load_scenario(write_config(tmp_path, cfg))


def test_phase_is_checked_before_the_design_is_built(tmp_path):
    # these frequencies violate parallel transport: without the phase check
    # first, mode_design would raise ParallelTransportError
    cfg = {
        **base_config(),
        "path": {**DESIGNED_PATH, "frequencies": [0, 1e308, -1e307]},
        "run": {"mode": "inverse", "T": 1.0, "dt": 0.001},
    }
    with pytest.raises(ConfigError, match="phase rate bound 1e\\+308"):
        load_scenario(write_config(tmp_path, cfg))


def test_oversized_run_is_reported_before_its_phase(tmp_path):
    cfg = base_config()
    cfg["run"] = {"mode": "continuous", "T": 1e15, "dt": 1.0}
    with pytest.raises(InputError, match="exceed the limit of 10000000 steps"):
        load_scenario(write_config(tmp_path, cfg))

