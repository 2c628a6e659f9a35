import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import zenodark as zd
from zenodark import kernels
from zenodark.dynamics import windows
from zenodark.linalg import row_norms_and_overlaps, unitary_exp
from zenodark.scenario import MAX_DIMENSION, MAX_PHASE

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


def _diagnosed(f, states):
    # a kernel's states with the norms and overlaps a run takes of them
    return (states, *row_norms_and_overlaps(f, states))


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
    got = kernels.continuous_loop(H, f_mid, fdot_mid, psi0, 1e-3)
    _assert_close(expected, _diagnosed(f_grid, got))


@pytest.mark.parametrize("n, steps, zero_h", _CASES)
def test_discrete_loop_matches_reference(rng, n, steps, zero_h):
    H, psi0, f_grid, _, _ = _problem(rng, n, steps, zero_h)
    U = unitary_exp(H + np.eye(n), 0.1)
    expected = _reference_discrete(U, f_grid[1:], psi0)
    got = kernels.discrete_loop(U, f_grid[1:], psi0)
    f_grid[0] = 0.0  # a discrete run measures no f at row 0: its overlap there is 0
    _assert_close(expected, _diagnosed(f_grid, got))


def _run_problem(rng, n, zero_h):
    # H, a generator path and an initial state orthogonal to f(0)
    H = np.zeros((n, n), dtype=np.complex128) if zero_h else random_hermitian(rng, n)
    path = zd.GeneratorPath(random_hermitian(rng, n), random_unit(rng, n))
    f0 = path.evaluate(0.0)[0]
    psi0 = random_unit(rng, n)
    psi0 -= np.vdot(f0, psi0) * f0
    return H, path, psi0 / np.linalg.norm(psi0)


# The states agree with the per-step loops to rounding only; the diagnostics
# the runs report for them are still bitwise the per-row reference, also
# across windows
_WIDTH = windows(1 << 20, 3)[0][1]  # steps in one window at N = 3
_RUN_CASES = _CASES + [(3, 2 * _WIDTH + 5, zero_h) for zero_h in (True, False)]


@pytest.mark.parametrize("n, steps, zero_h", _RUN_CASES)
def test_continuous_loop_matches_reference_bitwise(rng, n, steps, zero_h):
    H, path, psi0 = _run_problem(rng, n, zero_h)
    traj = zd.continuous_dark_run(psi0, path, H, steps * 1e-3, 1e-3)
    f_grid = path.evaluate_many(traj.times)[0]
    got = (traj.states, traj.norms, traj.orthogonality_residual)
    _assert_diagnostics_of_states(f_grid[1:], got)
    assert got[2][0] == np.abs(np.vdot(f_grid[0], traj.states[0]))


@pytest.mark.parametrize("n, steps, zero_h", _RUN_CASES)
def test_discrete_loop_matches_reference_bitwise(rng, n, steps, zero_h):
    H, path, psi0 = _run_problem(rng, n, zero_h)
    traj = zd.discrete_dark_run(psi0, path, H + np.eye(n), 0.1, steps)
    f_seq = path.evaluate_many(traj.times[1:])[0]
    got = (traj.states, traj.norms, traj.orthogonality_residual)
    _assert_diagnostics_of_states(f_seq, got)
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
            got = kernels.continuous_loop(zero, f[None], fdot[None], psi0, dt)
            expected = scipy.linalg.expm(-1j * hd * dt) @ psi0
            assert np.abs(got[1] - expected).max() <= 1e-14


# Worst error over these 420 steps against expm: 1.1e-14 with the earlier
# per-chunk eigendecomposition, 9.3e-15 with the Taylor exponential, both at
# theta = 40; for theta <= 0.45 at most 8.9e-16 and 2.2e-16.
@pytest.mark.parametrize("n", range(2, 9))
def test_hamiltonian_step_matches_expm(rng, n):
    for _ in range(2):
        H = random_hermitian(rng, n)
        for f, fdot in _transport_cases(rng, n):
            P = np.eye(n) - np.outer(f, f.conj())
            hd = P @ H @ P + 1j * (np.outer(fdot, f.conj()) - np.outer(f, fdot.conj()))
            # theta = ||-i dt H_D||_inf: no squaring up to 1/2, q = 3 and 7 above
            for theta in (1e-3, 0.1, 0.45, 3.0, 40.0):
                dt = theta / np.abs(hd).sum(axis=1).max()
                psi0 = random_unit(rng, n)
                got = kernels.continuous_loop(H, f[None], fdot[None], psi0, dt)
                expected = scipy.linalg.expm(-1j * hd * dt) @ psi0
                assert np.abs(got[1] - expected).max() <= 2e-15 * max(1.0, theta)


def test_coarse_steps_keep_the_norm(rng):
    # q = 3, 7 and 12 squarings per step: without a correction each squaring
    # doubles the propagator's distance from unitarity (6e-12 norm drift
    # after 2000 steps of theta = 1000)
    n, steps = 6, 2000
    H = random_hermitian(rng, n)
    f = np.stack([random_unit(rng, n) for _ in range(steps + 1)])
    fdot = rng.standard_normal((steps, n)) + 1j * rng.standard_normal((steps, n))
    for theta in (3.0, 40.0, 1000.0):
        dt = theta / np.abs(H).sum(axis=1).max()
        states = kernels.continuous_loop(H, f[1:], 0.0 * fdot, random_unit(rng, n), dt)
        norms = _diagnosed(f, states)[1]
        assert np.abs(norms - 1.0).max() <= 1e-13


def test_taylor_plan_is_minimal():
    # theta = ||-i dt H_D||_inf over 1e-12 ... 1e7, 0, and the largest a
    # scenario admits: with dt ||H||_inf and dt ||K||_inf at most MAX_PHASE
    # and N at most MAX_DIMENSION, ||P H P||_inf <= (1 + sqrt N)^2 MAX_PHASE
    # and the rotation term adds at most 2 sqrt(N) MAX_PHASE
    root = math.sqrt(MAX_DIMENSION)
    top = ((1.0 + root) ** 2 + 2.0 * root) * MAX_PHASE
    theta = np.concatenate([[0.0], np.logspace(-12, 7, 400), [top]])
    m, q = kernels._taylor_plan(theta)
    tol = Fraction(2) ** -53
    for t, degree, squarings in zip(theta, m.tolist(), q.tolist()):
        scaled = Fraction(t) / 2**squarings
        assert scaled <= Fraction(1, 2)
        assert squarings == 0 or 2 * scaled > Fraction(1, 2)
        assert scaled ** (degree + 1) / math.factorial(degree + 1) <= tol
        assert degree == 0 or scaled**degree / math.factorial(degree) > tol
    # the largest plan runs its 32 squarings to a unitary result (4e-7 off
    # unitarity before the Newton-Schulz step, 1.2e-13 after it)
    x = np.diag([1j * top, -1j * top])[None]
    u = kernels._taylor_exponentials(x)[0]
    assert q[-1] == 32
    assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12
    # a zero generator plans degree 0, the identity; a non-finite one plans
    # the largest degree and stays non-finite
    assert np.array_equal(kernels._taylor_exponentials(np.zeros((1, 3, 3), complex))[0], np.eye(3))
    assert kernels._taylor_plan(np.array([np.nan, np.inf]))[0].tolist() == [15, 15]
    assert np.isnan(kernels._taylor_exponentials(np.full((1, 2, 2), np.nan + 0j))).all()


@pytest.mark.parametrize("n", (3, 6))
def test_continuous_loop_prefix_is_bitwise_across_plans(rng, n):
    # fdot scaled per row over five decades: every block mixes Taylor degrees
    # and squaring counts, so rows of one plan are gathered from the chunk
    chunk = kernels._chunk_steps(n)
    block = math.isqrt(chunk)
    steps = 2 * chunk + block + 3
    H, psi0, f_grid, f_mid, fdot_mid = _problem(rng, n, steps, False)
    fdot_mid *= 10.0 ** rng.uniform(-2.0, 3.5, steps)[:, None]
    x = -1j * 1e-3 * kernels.effective_hamiltonians(H, f_mid[:block], fdot_mid[:block])
    m, q = kernels._taylor_plan(np.abs(x).sum(axis=2).max(axis=1))
    assert len(set(m[q == 0].tolist())) >= 3 and q.max() >= 1
    full = _diagnosed(f_grid, kernels.continuous_loop(H, f_mid, fdot_mid, psi0, 1e-3))
    for k in (1, block - 1, block, block + 1, chunk - 1, chunk, chunk + 1, chunk + block + 2):
        states = kernels.continuous_loop(H, f_mid[:k], fdot_mid[:k], psi0, 1e-3)
        part = _diagnosed(f_grid[: k + 1], states)
        for name, a, b in zip(("states", "norms", "orth"), full, part):
            assert np.array_equal(a[: k + 1], b), (name, k)


@pytest.mark.parametrize("n", (2, 3, 6))
@pytest.mark.parametrize("zero_h", (True, False))
def test_continuous_loop_prefix_is_bitwise(rng, n, zero_h):
    chunk = kernels._chunk_steps(n)
    block = math.isqrt(chunk)
    steps = 2 * chunk + block + 3
    H, psi0, f_grid, f_mid, fdot_mid = _problem(rng, n, steps, zero_h)
    full = _diagnosed(f_grid, kernels.continuous_loop(H, f_mid, fdot_mid, psi0, 1e-3))
    for k in (1, block - 1, block, block + 1, chunk - 1, chunk, chunk + 1, chunk + block + 2):
        states = kernels.continuous_loop(H, f_mid[:k], fdot_mid[:k], psi0, 1e-3)
        part = _diagnosed(f_grid[: k + 1], states)
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
