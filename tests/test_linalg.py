import numpy as np
import pytest

import zenodark as zd
from zenodark.errors import HermiticityError, InputError, NormalizationError
from zenodark.linalg import (
    as_operator,
    as_state,
    hermitian_eigendecomposition,
    unitary_exp,
)

from conftest import projector, random_hermitian, random_unit


def taylor_expm(A, t, terms=20):
    """Independent oracle: truncated series for exp(-i A t)."""
    n = A.shape[0]
    out = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ (-1j * t * A) / k
        out = out + term
    return out


class TestEigendecomposition:
    def test_diagonal_matrix(self):
        dec = hermitian_eigendecomposition(np.diag([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 1.0, 2.0], atol=1e-14)
        np.testing.assert_allclose(dec.eigenvectors, np.eye(3), atol=1e-14)

    def test_symmetry_forced_two_level(self):
        dec = hermitian_eigendecomposition(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(dec.eigenvectors[:, 0], [s, -s], atol=1e-14)
        np.testing.assert_allclose(dec.eigenvectors[:, 1], [s, s], atol=1e-14)

    def test_random_reconstruction(self, rng):
        A = random_hermitian(rng, 4)
        dec = hermitian_eigendecomposition(A)
        v = dec.eigenvectors
        residual = np.linalg.norm((v * dec.eigenvalues) @ v.conj().T - A)
        assert residual <= 1e-10 * np.linalg.norm(A)

    def test_reconstruction_property_many_dims(self, rng):
        # 1000 random Hermitian matrices across N = 2..8
        for i in range(1000):
            n = 2 + (i % 7)
            A = random_hermitian(rng, n)
            dec = hermitian_eigendecomposition(A)
            v = dec.eigenvectors
            rebuilt = (v * dec.eigenvalues) @ v.conj().T
            assert np.linalg.norm(rebuilt - A) <= 1e-10 * np.linalg.norm(A)

    def test_orthonormal_and_ascending(self, rng):
        dec = hermitian_eigendecomposition(random_hermitian(rng, 6))
        v = dec.eigenvectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-12)
        assert np.all(np.diff(dec.eigenvalues) >= -1e-14)

    def test_phase_convention_real_positive(self, rng):
        dec = hermitian_eigendecomposition(random_hermitian(rng, 5))
        for k in range(5):
            col = dec.eigenvectors[:, k]
            pivot = col[np.flatnonzero(np.abs(col) > 1e-10)[0]]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real > 0

    def test_deterministic(self, rng):
        A = random_hermitian(rng, 5)
        d1 = hermitian_eigendecomposition(A)
        d2 = hermitian_eigendecomposition(A)
        np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(HermiticityError):
            hermitian_eigendecomposition(bad)


class TestUnitaryExp:
    def test_zero_time_is_identity(self, rng):
        A = random_hermitian(rng, 4)
        np.testing.assert_allclose(unitary_exp(A, 0.0), np.eye(4), atol=1e-14)

    def test_diagonal_phases(self):
        U = unitary_exp(np.diag([0.0, 1.0, 2.0]), np.pi)
        np.testing.assert_allclose(U, np.diag([1.0, -1.0, 1.0]), atol=1e-13)

    def test_against_taylor_oracle(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = np.pi / 2.0
        oracle = taylor_expm(A, t)
        expected = np.array([[0.0, -1j], [-1j, 0.0]])
        np.testing.assert_allclose(oracle, expected, atol=1e-12)
        np.testing.assert_allclose(unitary_exp(A, t), oracle, atol=1e-12)

    def test_inverse_property(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            A = random_hermitian(rng, n)
            t = float(rng.uniform(-3.0, 3.0))
            U = unitary_exp(A, t) @ unitary_exp(A, -t)
            assert np.abs(U - np.eye(n)).max() <= 1e-12

    def test_unitarity(self, rng):
        A = random_hermitian(rng, 5)
        U = unitary_exp(A, 1.7)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(5), atol=1e-12)


def measurement_projector(f):
    """The library's measurement projector ``1 - |f><f|``: the effective
    Hamiltonian of ``H = 1`` for a resting monitored state ``f``."""
    n = np.size(f)
    return zd.effective_hamiltonian(np.eye(n), f, np.zeros(n))


class TestProjector:
    def test_basis_state(self):
        P = measurement_projector(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(P, np.diag([0.0, 1.0, 1.0]), atol=1e-14)

    def test_real_superposition(self):
        P = measurement_projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        np.testing.assert_allclose(P, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)

    def test_complex_superposition(self):
        P = measurement_projector(np.array([1.0, 1j]) / np.sqrt(2.0))
        np.testing.assert_allclose(P, [[0.5, 0.5j], [-0.5j, 0.5]], atol=1e-14)

    def test_idempotent_and_annihilating(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            f = random_unit(rng, n)
            P = measurement_projector(f)
            assert np.abs(P @ P - P).max() <= 1e-12
            assert np.abs(P @ f).max() <= 1e-12
            assert np.abs(P - projector(f)).max() <= 1e-12

    def test_rank_and_spectrum(self, rng):
        f = random_unit(rng, 5)
        P = measurement_projector(f)
        eigs = np.linalg.eigvalsh(P)
        assert np.abs(eigs - np.concatenate([[0.0], np.ones(4)])).max() <= 1e-10

    def test_rejects_non_unit(self):
        with pytest.raises(NormalizationError):
            measurement_projector(np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(InputError, match="non-finite"):
        as_state([1.0, bad])
    with pytest.raises(InputError, match="non-finite"):
        as_operator([[0.0, bad], [bad, 0.0]])
