"""Dense complex linear algebra primitives.

Besides input checks: a Hermitian eigendecomposition with a deterministic
phase convention (generator paths, spectra, closed forms), the spectral
exponential ``exp(-i A t)`` (discrete free evolution), and grid norms and
overlaps.  The kernels build their own step exponentials and projectors.
States are plain complex ndarrays; operators are square complex ndarrays in
angular-frequency units (hbar = 1).

All functions are pure and the returned arrays are freshly allocated, so
concurrent use needs no synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, InputError, NormalizationError
from .tolerances import DEFAULT, ToleranceProfile

__all__ = [
    "EigenDecomposition",
    "as_state",
    "as_operator",
    "require_hermitian",
    "require_unit",
    "fix_phases",
    "hermitian_eigendecomposition",
    "unitary_exp",
    "row_norms_and_overlaps",
    "row_products",
]


def as_state(v, dim: int | None = None) -> np.ndarray:
    """Coerce ``v`` to a finite 1-D complex128 array, optionally checking its length."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise InputError(f"state must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise InputError(f"state dimension must be at least 2, got {arr.shape[0]}")
    if dim is not None and arr.shape[0] != dim:
        raise InputError(f"state has dimension {arr.shape[0]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise InputError("state has non-finite entries")
    return arr


def as_operator(A, dim: int | None = None) -> np.ndarray:
    """Coerce ``A`` to a finite square complex128 matrix, optionally checking its size."""
    arr = np.asarray(A, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"operator must be a square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise InputError(f"operator has dimension {arr.shape[0]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise InputError("operator has non-finite entries")
    return arr


def require_hermitian(A, tol: ToleranceProfile = DEFAULT, name: str = "operator") -> np.ndarray:
    """Validate entrywise Hermiticity of ``A`` within ``tol.hermiticity``."""
    arr = as_operator(A)
    dev = np.abs(arr - arr.conj().T).max()
    if dev > tol.hermiticity:
        raise HermiticityError(
            f"{name} is not Hermitian: max |A - A^dag| = {dev:.3e} "
            f"exceeds {tol.hermiticity:.3e}"
        )
    return arr


def require_unit(v, tol: ToleranceProfile = DEFAULT, name: str = "state") -> np.ndarray:
    """Validate that ``v`` is unit-norm within ``tol.unit_state`` and renormalize.

    Inputs inside the tolerance band are renormalized exactly so that
    downstream identities (projector annihilation, spectral expansions) hold
    to machine precision rather than to the validation tolerance.
    """
    arr = as_state(v)
    nrm = float(np.linalg.norm(arr))
    if abs(nrm - 1.0) > tol.unit_state:
        raise NormalizationError(
            f"{name} must be unit-norm: ||v|| = {nrm:.12g} deviates by more "
            f"than {tol.unit_state:.3e}"
        )
    return arr / nrm


def fix_phases(vectors: np.ndarray, floor: float) -> np.ndarray:
    """Rotate each column so its first significant component is real positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = np.flatnonzero(np.abs(col) > floor)
        pivot = col[idx[0]] if idx.size else col[np.argmax(np.abs(col))]
        mag = abs(pivot)
        if mag > 0.0:
            out[:, k] = col * (pivot.conjugate() / mag)
    return out


@dataclass(frozen=True)
class EigenDecomposition:
    """Orthonormal eigensystem of a Hermitian operator.

    ``eigenvalues`` are ascending; ``eigenvectors[:, k]`` is the unit
    eigenvector for ``eigenvalues[k]``, rotated so its first component with
    magnitude above the phase floor is real and positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigendecomposition(
    A, tol: ToleranceProfile = DEFAULT
) -> EigenDecomposition:
    """Diagonalize a Hermitian operator.

    Parameters
    ----------
    A : array_like
        Square complex matrix, Hermitian within ``tol.hermiticity``.
    tol : ToleranceProfile
        Validation thresholds.

    Returns
    -------
    EigenDecomposition
        Ascending eigenvalues and phase-fixed orthonormal eigenvectors.

    Raises
    ------
    HermiticityError
        If ``A`` deviates from Hermiticity beyond tolerance.
    """
    arr = require_hermitian(A, tol)
    w, v = np.linalg.eigh(arr)
    return EigenDecomposition(w, fix_phases(v, tol.eigenvector_phase_floor))


def unitary_exp(A, t: float, tol: ToleranceProfile = DEFAULT) -> np.ndarray:
    """Spectral unitary exponential ``exp(-i A t)`` of a Hermitian ``A``.

    Diagonalize, exponentiate the eigenvalues, recompose: unitary to machine
    precision for any ``t``.  For one-off exponentials such as ``exp(-i H tau)``;
    the continuous kernel steps by closed forms or Taylor series.
    """
    dec = hermitian_eigendecomposition(A, tol)
    v = dec.eigenvectors
    return (v * np.exp(-1j * dec.eigenvalues * t)) @ v.conj().T


def row_products(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows @ matrix`` for ``(k, n)`` rows, each rounded alike whatever k is.

    One row would take another BLAS routine, so it is multiplied as two.
    """
    return (rows[[0, 0]] @ matrix)[:1] if rows.shape[0] == 1 else rows @ matrix


def row_norms_and_overlaps(f: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``||psi_i||`` and ``|<f_i|psi_i>|`` of two ``(k, n)`` stacks.

    Stacked ``matmul`` rounds exactly like ``np.linalg.norm`` and ``np.vdot``
    applied row by row (``einsum`` and ``norm(axis=1)`` do not), so grid
    diagnostics match a per-point loop bit for bit.
    """
    re, im = states.real, states.imag
    norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])
    overlaps = np.abs(np.conj(f)[:, None, :] @ states[:, :, None])
    return norms[:, 0, 0], overlaps[:, 0, 0]
