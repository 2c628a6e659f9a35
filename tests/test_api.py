"""The public API: the names ``zenodark`` exports, that every export
resolves, and that its entry points reject non-finite input."""

import importlib
import pkgutil

import numpy as np
import pytest

import zenodark as zd
from zenodark.errors import InputError

PUBLIC = [
    "DEFAULT",
    "DarkTrajectory",
    "DesignResult",
    "DesignedPath",
    "EigenDecomposition",
    "EmbeddedTrajectory",
    "GeneratorPath",
    "ModePath",
    "ModeTrajectory",
    "MonitoredPath",
    "PROFILES",
    "PrescribedTrajectory",
    "STRICT",
    "SampledPath",
    "ToleranceProfile",
    "ZenoSpectrum",
    "adiabatic_alpha_check",
    "closed_form_run",
    "closed_form_solution",
    "continuous_dark_run",
    "cyclic_return_fidelity",
    "design_monitored_state",
    "discrete_dark_run",
    "effective_hamiltonian",
    "embedded_run",
    "hermitian_eigendecomposition",
    "mode_design",
    "pancharatnam_phase",
    "parallel_transport_residual",
    "period_of",
    "unitary_exp",
    "validate_dark_compatibility",
    "zeno_spectrum",
]

MODULES = sorted(info.name for info in pkgutil.iter_modules(zd.__path__, "zenodark."))


def test_public_names():
    assert sorted(zd.__all__) == PUBLIC
    assert all(hasattr(zd, name) for name in PUBLIC)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


UNIT = np.tile([1.0, 0.0], (5, 1))
NON_FINITE = {
    "mode amplitudes": lambda x: zd.ModePath([0.6, x], [0.0, 1.0]),
    "mode frequencies": lambda x: zd.ModePath([0.6, 0.8], [x, 1.0]),
    "mode basis": lambda x: zd.ModePath([0.6, 0.8], [0.0, 1.0], [[1.0, x], [0.0, 1.0]]),
    "sample times": lambda x: zd.SampledPath([0.0, 0.1, 0.2, 0.3, x], UNIT),
    "samples": lambda x: zd.SampledPath(np.linspace(0.0, 1.0, 5), np.vstack([UNIT[:4], [x, 0.0]])),
    "target probabilities": lambda x: zd.ModeTrajectory([0.5, x], [0.0, 1.0]),
    "target frequencies": lambda x: zd.ModeTrajectory([0.5, 0.5], [0.0, x]),
    "energy shift": lambda x: zd.embedded_run(
        [1.0, 0.0], zd.GeneratorPath(np.zeros((2, 2)), [0.0, 1.0]), x, 0.01, 1e-3
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(NON_FINITE))
def test_non_finite_input_rejected(entry, bad):
    with pytest.raises(InputError):
        NON_FINITE[entry](bad)
