import numpy as np
import pytest

import zenodark as zd


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


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
