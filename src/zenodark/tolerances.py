"""Central tolerance configuration.

Every numerical threshold used by the package lives in one frozen record so
that a run is fully characterized by its inputs plus one
:class:`ToleranceProfile`.  Each field is read by at least one check in the
package (``tests/test_tolerances.py`` enforces this).  ``DEFAULT`` carries the
documented defaults; ``STRICT`` tightens the setup, path and design checks for
paranoid runs.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceProfile:
    # Matrix and state validation
    hermiticity: float = 1e-12          # max |A - A^dag| entrywise, absolute
    unit_state: float = 1e-10           # | ||v|| - 1 | for states required unit
    eigenvector_phase_floor: float = 1e-10    # first component counted significant

    # Monitored paths
    path_norm: float = 1e-10            # | ||f(t)|| - 1 | at evaluation
    path_renormalize_drift: float = 1e-12     # renormalize f when drift exceeds this
    path_norm_rate: float = 1e-8        # |Re <f|fdot>| for norm-preserving paths
    rational_tolerance: float = 1e-9    # continued-fraction acceptance
    rational_denominator_cap: int = 10**6
    period_return: float = 1e-8         # ||f(T) - phase * f(0)||

    # Run setup and spectra
    setup_orthogonality: float = 1e-8   # |<f|psi0>| at run start
    commutator_rel: float = 1e-10       # ||[K,H]||_F relative to ||K||_F ||H||_F

    # Inverse design
    compatibility: float = 1e-8         # dark-compatibility residual cutoff
    parallel_transport: float = 1e-12   # | sum p_j nu_j |
    degenerate_norm_sq: float = 1e-20   # ||H psi - i psidot||^2 below this is degenerate
    overlap_phase_floor: float = 1e-12  # consecutive overlap magnitude for phases
    closed_path: float = 1e-6           # loop-closure detection after phase alignment


DEFAULT = ToleranceProfile()

STRICT = replace(
    DEFAULT,
    setup_orthogonality=1e-10,
    compatibility=1e-10,
    path_norm=1e-12,
    period_return=1e-10,
)

PROFILES = {"default": DEFAULT, "strict": STRICT}
