import math

import numpy as np
import pytest
import scipy.linalg

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


def _assert_close(expected, got):
    for name, a, b in zip(("states", "norms", "orth"), expected, got):
        np.testing.assert_allclose(b, a, rtol=0.0, atol=1e-13, err_msg=name)


def _assert_diagnostics_of_states(f_after, got):
    # norms and overlaps are the per-row np.linalg.norm and np.vdot of the
    # returned states, bit for bit
    states, norms, orth = got
    assert np.array_equal(norms, [np.linalg.norm(psi) for psi in states])
    overlaps = [np.abs(np.vdot(f, psi)) for f, psi in zip(f_after, states[1:])]
    assert np.array_equal(orth[1:], overlaps)


@pytest.mark.parametrize("n, steps, zero_h", _CASES)
def test_continuous_loop_matches_reference(rng, n, steps, zero_h):
    H, psi0, f_grid, f_mid, fdot_mid = _problem(rng, n, steps, zero_h)
    expected = _reference_continuous(H, f_grid, f_mid, fdot_mid, psi0, 1e-3)
    _assert_close(expected, kernels.continuous_loop(H, f_grid, f_mid, fdot_mid, psi0, 1e-3))


@pytest.mark.parametrize("n, steps, zero_h", _CASES)
def test_discrete_loop_matches_reference(rng, n, steps, zero_h):
    H, psi0, f_grid, _, _ = _problem(rng, n, steps, zero_h)
    U = unitary_exp(H + np.eye(n), 0.1)
    expected = _reference_discrete(U, f_grid[1:], psi0)
    _assert_close(expected, kernels.discrete_loop(U, f_grid[1:], psi0))


# The states agree with the per-step loops to rounding only; the diagnostics
# the kernels report for them are still bitwise the per-row reference.
@pytest.mark.parametrize("n, steps, zero_h", _CASES)
def test_continuous_loop_matches_reference_bitwise(rng, n, steps, zero_h):
    H, psi0, f_grid, f_mid, fdot_mid = _problem(rng, n, steps, zero_h)
    got = kernels.continuous_loop(H, f_grid, f_mid, fdot_mid, psi0, 1e-3)
    _assert_diagnostics_of_states(f_grid[1:], got)
    assert got[2][0] == np.abs(np.vdot(f_grid[0], psi0))


@pytest.mark.parametrize("n, steps, zero_h", _CASES)
def test_discrete_loop_matches_reference_bitwise(rng, n, steps, zero_h):
    H, psi0, f_grid, _, _ = _problem(rng, n, steps, zero_h)
    got = kernels.discrete_loop(unitary_exp(H + np.eye(n), 0.1), f_grid[1:], psi0)
    _assert_diagnostics_of_states(f_grid[1:], got)
    assert got[2][0] == 0.0


def _transport_cases(rng, n):
    # (f, fdot): generic, fdot parallel to f (beta = 0, exactly and up to
    # rounding), fdot = 0 (Omega = 0), a norm-drifting derivative and a
    # monitored state of norm 1 + 1e-9
    f = random_unit(rng, n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    e0 = np.eye(n, dtype=np.complex128)[0]
    yield f, g - np.real(np.vdot(f, g)) * f
    yield e0, (0.3 - 0.8j) * e0
    yield f, (0.3 - 0.8j) * f
    yield f, np.zeros(n, dtype=np.complex128)
    yield f, g
    yield (1.0 + 1e-9) * f, g - 1j * f


@pytest.mark.parametrize("n", range(2, 9))
def test_zero_hamiltonian_step_matches_expm(rng, n):
    zero = np.zeros((n, n), dtype=np.complex128)
    for f, fdot in _transport_cases(rng, n):
        hd = 1j * (np.outer(fdot, f.conj()) - np.outer(f, fdot.conj()))
        # Omega <= ||H_D||, so these steps keep Omega dt <= 1
        scale = 1.0 / max(np.linalg.norm(hd, 2), 1.0)
        for dt in (1e-3, 0.5 * scale, scale):
            psi0 = random_unit(rng, n)
            got = kernels.continuous_loop(zero, np.stack([f, f]), f[None], fdot[None], psi0, dt)
            expected = scipy.linalg.expm(-1j * hd * dt) @ psi0
            assert np.abs(got[0][1] - expected).max() <= 1e-14


@pytest.mark.parametrize("n", (2, 3, 6))
@pytest.mark.parametrize("zero_h", (True, False))
def test_continuous_loop_prefix_is_bitwise(rng, n, zero_h):
    chunk = kernels._chunk_steps(n)
    block = math.isqrt(chunk)
    steps = 2 * chunk + block + 3
    H, psi0, f_grid, f_mid, fdot_mid = _problem(rng, n, steps, zero_h)
    full = kernels.continuous_loop(H, f_grid, f_mid, fdot_mid, psi0, 1e-3)
    for k in (1, block - 1, block, block + 1, chunk - 1, chunk, chunk + 1, chunk + block + 2):
        part = kernels.continuous_loop(H, f_grid[: k + 1], f_mid[:k], fdot_mid[:k], psi0, 1e-3)
        for name, a, b in zip(("states", "norms", "orth"), full, part):
            assert np.array_equal(a[: k + 1], b), (name, k)


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
