"""Fuzz gate: a mutated committed scenario ends in exit 0, 2 or 3 under every
command, never in a traceback.

Each example takes one of the committed scenarios and makes one or two
mutations: it replaces any node with one of ``REPLACEMENTS``, deletes an
object key, or inserts a schema key the file does not use.  A node is chosen
as an object key (or the root), uniformly, and then, while it holds a list,
possibly one of the list's entries, so that keywords and small blocks are hit
as often as the entries of a matrix.  The search is derandomized: every run
tries the same files.
"""

import copy
import json
import math
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from zenodark.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
BASES = {path.stem: json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))}

REPLACEMENTS = [
    None, "x", [], {}, -1, 0, 0.5, math.nan, 1e308, -1e308, 1e-308, True, [[1, 2]], [1.0]
]

S3 = 3**-0.5
# the schema's keys by the object that holds them, each with a plausible value
SCHEMA = {
    (): {
        "name": "fuzzed",
        "description": "fuzzed",
        "dimension": 3,
        "initial_state": [0.0, S3, -S3],
        "hamiltonian": "zero",
        "path": {"type": "modes", "amplitudes": [S3, S3, S3], "frequencies": [0, 1, 2]},
        "run": {"mode": "continuous", "T": 0.1, "dt": 0.001},
        "sweep": {"parameter": "tau", "values": [0.01, 0.005, 0.0025]},
        "output": {"formats": ["json"]},
    },
    ("run",): {"mode": "discrete", "T": 0.1, "dt": 0.001, "tau": 0.01, "M": 10, "E": 100.0},
    ("sweep",): {"parameter": "E", "values": [50.0, 100.0, 200.0]},
    ("output",): {"directory": "elsewhere", "formats": ["csv"]},
    ("path",): {
        "type": "generator",
        "generator": [[0, 0, 0], [0, 1, 0], [0, 0, 2]],
        "initial_state": [S3, S3, S3],
        "amplitudes": [S3, S3, S3],
        "frequencies": [0, 2, -2],
        "modes": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "times": [0.0, 0.5, 1.0],
        "samples": [[S3, S3, S3], [S3, S3, S3], [S3, S3, S3]],
        "probabilities": [0.5, 0.25, 0.25],
    },
}

COMMANDS = ["run", "sweep", "spectrum", "design"]


def _key_paths(doc, path=()):
    # the path of every object key, below objects and list entries alike
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _key_paths(value, path + (i,))


def _at(doc, path):
    # the node at `path`, or None where the path leads nowhere
    try:
        for key in path:
            doc = doc[key]
    except (KeyError, IndexError, TypeError):
        return None
    return doc


def _mutate(data, doc):
    keys = list(_key_paths(doc))
    holders = [
        holder for holder, known in SCHEMA.items()
        if isinstance(_at(doc, holder), dict) and known.keys() - _at(doc, holder).keys()
    ]
    kinds = ["replace"] + ["delete"] * bool(keys) + ["insert"] * bool(holders)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "delete":
        path = data.draw(st.sampled_from(keys))
        del _at(doc, path[:-1])[path[-1]]
        return doc
    if kind == "insert":
        holder = data.draw(st.sampled_from(holders))
        key = data.draw(st.sampled_from(sorted(SCHEMA[holder].keys() - _at(doc, holder).keys())))
        value = data.draw(st.sampled_from([SCHEMA[holder][key], *REPLACEMENTS]))
        _at(doc, holder)[key] = copy.deepcopy(value)
        return doc
    path = data.draw(st.sampled_from([(), *keys]))
    while isinstance(_at(doc, path), list) and _at(doc, path) and data.draw(st.booleans()):
        path += (data.draw(st.integers(0, len(_at(doc, path)) - 1)),)
    value = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_scenarios_never_raise(tmp_path, data):
    name = data.draw(st.sampled_from(sorted(BASES)))
    doc = copy.deepcopy(BASES[name])
    for _ in range(data.draw(st.integers(1, 2))):
        doc = _mutate(data, doc)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    try:
        config = work / f"{name}.json"
        config.write_text(json.dumps(doc))
        for command in COMMANDS:
            code = main([command, str(config), "--quiet", "--out", str(work / "out")])
            assert code in (0, 2, 3), (command, doc)
    finally:
        shutil.rmtree(work)
