import numpy as np
import pytest
import scipy.linalg

import zenodark as zd


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def projector(f):
    """Oracle: the measurement projector ``1 - |f><f|`` of a unit state ``f``."""
    return np.eye(f.shape[0]) - np.outer(f, f.conj())


def comoving_hamiltonian(H, K, f0, t):
    """Oracle: ``P(0) (exp(i K t) H exp(-i K t) - K) P(0)``, the effective
    Hamiltonian in the frame where the monitored state rests; time
    independent whenever ``[K, H] = 0``.  Uses scipy's ``expm``."""
    rot = scipy.linalg.expm(1j * t * np.asarray(K, dtype=complex))
    P0 = projector(f0)
    return P0 @ (rot @ H @ rot.conj().T - K) @ P0


def three_level_frequencies(a, Omega):
    """Oracle: ``(omega_minus, omega_plus)``, the closed-form eigenvalues of
    ``P(0) K P(0)`` on the complement of ``f0 = sum_j a_j |j>`` for
    ``K = diag(Omega)`` at N = 3.  The 2x2 restriction has trace
    ``sum Omega_j - sum |a_j|^2 Omega_j`` and determinant
    ``sum_j |a_j|^2 (product of the other two frequencies)``."""
    w = np.abs(np.asarray(a)) ** 2
    Omega = np.asarray(Omega, dtype=float)
    trace = Omega.sum() - w @ Omega
    determinant = (
        w[0] * Omega[1] * Omega[2] + w[1] * Omega[0] * Omega[2] + w[2] * Omega[0] * Omega[1]
    )
    root = np.sqrt(max(trace * trace - 4.0 * determinant, 0.0))
    return 0.5 * (trace - root), 0.5 * (trace + root)


def commuting_problem(n, seed):
    """Random H, a generator path whose K commutes with it, and psi0 orthogonal to f(0)."""
    rng = np.random.default_rng(seed)
    V = np.linalg.qr(random_hermitian(rng, n))[0]
    H = (V * rng.uniform(-1.0, 1.0, n)) @ V.conj().T
    K = (V * rng.uniform(-1.0, 1.0, n)) @ V.conj().T
    f0 = random_unit(rng, n)
    psi0 = random_unit(rng, n)
    psi0 = psi0 - np.vdot(f0, psi0) * f0
    psi0 /= np.linalg.norm(psi0)
    return psi0, zd.GeneratorPath(K, f0), H


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


class ThreeLevel:
    """Equal-amplitude monitored state rotated by a diagonal generator."""

    def __init__(self, scale=1.0):
        self.K = scale * np.diag([0.0, 1.0, 2.0])
        self.f0 = np.ones(3) / np.sqrt(3)
        self.H0 = np.zeros((3, 3))
        self.path = zd.GeneratorPath(self.K, self.f0)
        probe = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        self.spectrum = zd.zeno_spectrum(self.H0, self.K, self.f0, probe)
        self.mode_a = self.spectrum.modes[:, 0]
        self.mode_b = self.spectrum.modes[:, 1]
        self.psi_equal = (self.mode_a + self.mode_b) / np.sqrt(2)


@pytest.fixture(scope="session")
def three_level():
    return ThreeLevel()


@pytest.fixture(scope="session")
def three_level_slow():
    return ThreeLevel(scale=0.1)
