"""Dark evolution in a time-varying Zeno subspace.

Simulate an N-level system whose monitored state ``f(t)`` moves in time,
conditioned on every projective measurement answering "No": discrete
measurement sequences, their frequent-measurement (continuous) limit,
closed-form spectral solutions, inverse design of the monitored state for a
prescribed target, and the measurement-free energy-shift embedding.
"""

from .design import (
    DesignResult,
    ModeTrajectory,
    PrescribedTrajectory,
    design_monitored_state,
    mode_design,
    pancharatnam_phase,
    parallel_transport_residual,
    validate_dark_compatibility,
)
from .dynamics import (
    ZenoSpectrum,
    closed_form_run,
    closed_form_solution,
    continuous_dark_run,
    cyclic_return_fidelity,
    discrete_dark_run,
    effective_hamiltonian,
    zeno_spectrum,
)
from .embedding import adiabatic_alpha_check, embedded_run
from .linalg import (
    EigenDecomposition,
    hermitian_eigendecomposition,
    unitary_exp,
)
from .paths import (
    DesignedPath,
    GeneratorPath,
    ModePath,
    MonitoredPath,
    SampledPath,
    period_of,
)
from .tolerances import DEFAULT, PROFILES, STRICT, ToleranceProfile
from .trajectory import DarkTrajectory, EmbeddedTrajectory

__version__ = "0.1.0"

__all__ = [
    "DEFAULT",
    "PROFILES",
    "STRICT",
    "DarkTrajectory",
    "DesignResult",
    "DesignedPath",
    "EigenDecomposition",
    "EmbeddedTrajectory",
    "GeneratorPath",
    "ModePath",
    "ModeTrajectory",
    "MonitoredPath",
    "PrescribedTrajectory",
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
