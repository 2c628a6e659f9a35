import numpy as np
import pytest

from zenodark import kernels
from zenodark.linalg import unitary_exp

from conftest import random_hermitian, random_unit


def _reference_continuous(H, f_grid, f_mid, fdot_mid, psi0, dt):
    # one eigendecomposition of the midpoint H_D per step, in plain numpy
    steps = f_mid.shape[0]
    n = psi0.shape[0]
    states = np.empty((steps + 1, n), dtype=np.complex128)
    norms = np.empty(steps + 1)
    orth = np.empty(steps + 1)
    psi = psi0.copy()
    states[0] = psi
    norms[0] = np.linalg.norm(psi)
    orth[0] = np.abs(np.vdot(f_grid[0], psi))
    eye = np.eye(n, dtype=np.complex128)
    for s in range(steps):
        f = f_mid[s]
        fd = fdot_mid[s]
        P = eye - np.outer(f, np.conj(f))
        hd = P @ H @ P + 1j * (np.outer(fd, np.conj(f)) - np.outer(f, np.conj(fd)))
        w, v = np.linalg.eigh(hd)
        psi = v @ (np.exp(-1j * w * dt) * (np.conj(v.T) @ psi))
        states[s + 1] = psi
        norms[s + 1] = np.linalg.norm(psi)
        orth[s + 1] = np.abs(np.vdot(f_grid[s + 1], psi))
    return states, norms, orth


def _reference_discrete(U, f_seq, psi0):
    m = f_seq.shape[0]
    n = psi0.shape[0]
    states = np.empty((m + 1, n), dtype=np.complex128)
    norms = np.empty(m + 1)
    orth = np.empty(m + 1)
    psi = psi0.copy()
    states[0] = psi
    norms[0] = np.linalg.norm(psi)
    orth[0] = 0.0
    for s in range(m):
        f = f_seq[s]
        psi = U @ psi
        psi = psi - np.vdot(f, psi) * f
        states[s + 1] = psi
        norms[s + 1] = np.linalg.norm(psi)
        orth[s + 1] = np.abs(np.vdot(f, psi))
    return states, norms, orth


def _problem(rng, n, steps, zero_h):
    H = np.zeros((n, n), dtype=np.complex128) if zero_h else random_hermitian(rng, n)
    psi0 = random_unit(rng, n)
    f_grid = np.stack([random_unit(rng, n) for _ in range(steps + 1)])
    f_mid = np.stack([random_unit(rng, n) for _ in range(steps)])
    fdot_mid = rng.standard_normal((steps, n)) + 1j * rng.standard_normal((steps, n))
    return H, psi0, f_grid, f_mid, fdot_mid


def _step_counts(n):
    chunk = kernels._chunk_steps(n)
    return [1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7]


_CASES = [
    (n, steps, zero_h)
    for n in (2, 3, 6)
    for steps in _step_counts(n)
    for zero_h in (True, False)
]


@pytest.mark.parametrize("n, steps, zero_h", _CASES)
def test_continuous_loop_matches_reference_bitwise(rng, n, steps, zero_h):
    H, psi0, f_grid, f_mid, fdot_mid = _problem(rng, n, steps, zero_h)
    expected = _reference_continuous(H, f_grid, f_mid, fdot_mid, psi0, 1e-3)
    got = kernels.continuous_loop(H, f_grid, f_mid, fdot_mid, psi0, 1e-3)
    for name, a, b in zip(("states", "norms", "orth"), expected, got):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("n, steps, zero_h", _CASES)
def test_discrete_loop_matches_reference_bitwise(rng, n, steps, zero_h):
    H, psi0, f_grid, _, _ = _problem(rng, n, steps, zero_h)
    U = unitary_exp(H + np.eye(n), 0.1)
    expected = _reference_discrete(U, f_grid[1:], psi0)
    got = kernels.discrete_loop(U, f_grid[1:], psi0)
    for name, a, b in zip(("states", "norms", "orth"), expected, got):
        assert np.array_equal(a, b), name


def test_embedded_loop_matches_spectral_exponential(rng):
    n, steps, energy, dt = 4, 50, 80.0, 1e-3
    psi0 = random_unit(rng, n)
    f_mid = np.stack([random_unit(rng, n) for _ in range(steps)])
    psi = psi0
    expected = [psi]
    for f in f_mid:
        psi = unitary_exp(energy * np.outer(f, f.conj()), dt) @ psi
        expected.append(psi)
    got = kernels.embedded_loop(f_mid, psi0, energy, dt)
    np.testing.assert_allclose(got, np.array(expected), atol=1e-12)
