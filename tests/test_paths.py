import math

import numpy as np
import pytest
from scipy.linalg import expm

import zenodark as zd
from zenodark.errors import DomainError, InputError, UnsupportedVariantError

from conftest import random_hermitian, random_unit


def sampled_reference(path, t):
    """Oracle: per-point great-circle interpolation of a ``SampledPath``."""
    times, samples, derivatives = path.times, path.samples, path._derivatives
    t0, t1 = times[0], times[-1]
    slack = 1e-12 * max(1.0, abs(t0), abs(t1))
    if t < t0 - slack or t > t1 + slack:
        raise DomainError(f"t = {t:.12g} outside sampled range")
    t = min(max(t, t0), t1)
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = min(max(i, 0), times.size - 2)
    ta, tb = times[i], times[i + 1]
    u = (t - ta) / (tb - ta)
    a, b = samples[i], samples[i + 1]
    overlap = np.vdot(a, b)
    theta = float(np.angle(overlap))
    b_aligned = b * np.exp(-1j * theta)
    cosw = min(max(float(np.abs(overlap)), -1.0), 1.0)
    omega = math.acos(cosw)
    if omega < 1e-9:
        geo = (1.0 - u) * a + u * b_aligned
        geo /= np.linalg.norm(geo)
    else:
        geo = (
            math.sin((1.0 - u) * omega) * a + math.sin(u * omega) * b_aligned
        ) / math.sin(omega)
    f = geo * np.exp(1j * theta * u)
    fdot = (1.0 - u) * derivatives[i] + u * derivatives[i + 1]
    fdot = fdot - np.real(np.vdot(f, fdot)) * f
    return f / np.linalg.norm(f), fdot


def brute_force_period(frequencies, amplitudes, max_multiples=2000):
    """Oracle: scan multiples of each single-difference period for the least
    common period of all active phase-factor differences."""
    active = np.asarray(frequencies)[np.abs(np.asarray(amplitudes)) > 1e-12]
    diffs = np.abs(active[1:] - active[0])
    diffs = diffs[diffs > 1e-12]
    if diffs.size == 0:
        return 0.0
    base = 2 * np.pi / diffs.max()
    for m in range(1, max_multiples + 1):
        T = m * base
        if np.all(np.abs(((diffs * T / (2 * np.pi)) + 0.5) % 1.0 - 0.5) < 1e-9):
            return T
    return None


class TestGeneratorPath:
    def test_value_and_derivative_at_zero(self):
        K = np.diag([0.0, 1.0, 2.0])
        f0 = np.ones(3) / np.sqrt(3)
        path = zd.GeneratorPath(K, f0)
        f, fdot = path.evaluate(0.0)
        np.testing.assert_allclose(f, f0, atol=1e-14)
        np.testing.assert_allclose(fdot, -1j * K @ f0, atol=1e-14)

    def test_phases_at_pi(self):
        path = zd.GeneratorPath(np.diag([0.0, 1.0, 2.0]), np.ones(3) / np.sqrt(3))
        f, _ = path.evaluate(np.pi)
        np.testing.assert_allclose(f, np.array([1.0, -1.0, 1.0]) / np.sqrt(3), atol=1e-13)

    def test_matches_matrix_exponential(self, rng):
        K = random_hermitian(rng, 4)
        f0 = random_unit(rng, 4)
        path = zd.GeneratorPath(K, f0)
        ts = rng.uniform(-5.0, 5.0, 37)
        F, Fd = path.evaluate_many(ts)
        for i, t in enumerate(ts):
            exact = expm(-1j * K * t) @ f0
            np.testing.assert_allclose(F[i], exact, atol=1e-12)
            np.testing.assert_allclose(Fd[i], -1j * K @ exact, atol=1e-12)
            f, fd = path.evaluate(float(t))
            np.testing.assert_allclose(f, exact, atol=1e-12)
            np.testing.assert_allclose(fd, -1j * K @ exact, atol=1e-12)

    def test_rejects_non_hermitian_generator(self):
        with pytest.raises(InputError):
            zd.GeneratorPath(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1.0, 0.0]))


class TestModePath:
    def test_requires_normalized_amplitudes(self):
        with pytest.raises(InputError):
            zd.ModePath([1.0, 1.0], [0.0, 1.0])

    def test_requires_orthonormal_modes(self):
        modes = np.array([[1.0, 1.0], [0.0, 0.1]])
        with pytest.raises(InputError):
            zd.ModePath([1.0, 0.0], [0.0, 1.0], modes)

    def test_huge_finite_entries_fail_their_checks_without_overflow(self):
        # the amplitude sum and the Gram matrix overflowed with a warning first
        with pytest.raises(InputError, match="sum"):
            zd.ModePath([1e308, 0.0], [0.0, 1.0])
        with pytest.raises(InputError, match="orthonormal"):
            zd.ModePath([1.0, 0.0], [0.0, 1.0], [[1e308, 0.0], [0.0, 1.0]])

    def test_generator_equivalence_random_times(self, rng):
        K = random_hermitian(rng, 4)
        f0 = random_unit(rng, 4)
        gen = zd.GeneratorPath(K, f0)
        mode = zd.ModePath(gen.amplitudes, gen.frequencies, gen.modes)
        back = zd.GeneratorPath(mode.generator, mode.initial_state)
        for t in rng.uniform(-10.0, 10.0, 100):
            fg, fdg = gen.evaluate(float(t))
            fm, fdm = mode.evaluate(float(t))
            fb, fdb = back.evaluate(float(t))
            assert np.linalg.norm(fg - fm) <= 1e-10
            assert np.linalg.norm(fdg - fdm) <= 1e-10
            assert np.linalg.norm(fg - fb) <= 1e-10
            assert np.linalg.norm(fdg - fdb) <= 1e-10

    @pytest.mark.parametrize("explicit_modes", [False, True])
    def test_generator_form(self, rng, explicit_modes):
        # K = (modes * w) modes^dag symmetrized and f0 = modes a renormalized,
        # bit for bit; the standard basis is the identity matrix
        modes = np.linalg.qr(random_hermitian(rng, 4))[0]
        amps, freqs = random_unit(rng, 4), rng.uniform(-3.0, 3.0, 4)
        path = zd.ModePath(amps, freqs, modes if explicit_modes else None)
        basis = modes if explicit_modes else np.eye(4, dtype=complex)
        K = (basis * freqs) @ basis.conj().T
        K = 0.5 * (K + K.conj().T)
        f0 = basis @ amps
        f0 = f0 / np.linalg.norm(f0)
        np.testing.assert_array_equal(path.generator.view(np.uint64), K.view(np.uint64))
        np.testing.assert_array_equal(path.initial_state.view(np.uint64), f0.view(np.uint64))
        for t in rng.uniform(-5.0, 5.0, 10):
            f, _ = path.evaluate(float(t))
            np.testing.assert_allclose(f, expm(-1j * K * t) @ f0, atol=1e-12)

    def test_generator_path_keeps_its_inputs(self, rng):
        K = random_hermitian(rng, 3)
        f0 = random_unit(rng, 3)
        path = zd.GeneratorPath(K, f0)
        np.testing.assert_array_equal(path.generator, K)
        np.testing.assert_array_equal(path.initial_state, f0 / np.linalg.norm(f0))


class TestNormPreservation:
    def test_norm_rate_all_variants(self, rng):
        K = random_hermitian(rng, 3)
        f0 = random_unit(rng, 3)
        gen = zd.GeneratorPath(K, f0)
        mode = zd.ModePath(gen.amplitudes, gen.frequencies, gen.modes)
        grid = np.linspace(0.0, 3.0, 601)
        F, _ = gen.evaluate_many(grid)
        sampled = zd.SampledPath(grid, F)
        _, designed = zd.mode_design([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        for path in (gen, mode, sampled, designed):
            for t in rng.uniform(0.05, 2.95, 25):
                f, fdot = path.evaluate(float(t))
                assert abs(np.linalg.norm(f) - 1.0) <= 1e-10
                assert abs(np.real(np.vdot(f, fdot))) <= 1e-8


class TestSampledPath:
    def test_fourth_order_node_derivatives(self):
        K = np.diag([0.0, 1.0, 2.0])
        f0 = np.ones(3) / np.sqrt(3)
        gen = zd.GeneratorPath(K, f0)
        errors = {}
        for h in (2e-3, 1e-3):
            grid = np.arange(0.0, 1.0 + h / 2, h)
            F, _ = gen.evaluate_many(grid)
            sampled = zd.SampledPath(grid, F)
            worst = 0.0
            for t in grid[:: len(grid) // 40]:
                _, fd = sampled.evaluate(float(t))
                _, fd_exact = gen.evaluate(float(t))
                worst = max(worst, float(np.linalg.norm(fd - fd_exact)))
            errors[h] = worst
        assert errors[1e-3] <= 1e-10
        assert errors[2e-3] / errors[1e-3] > 10.0  # fourth order in the spacing

    def test_interpolation_between_nodes(self):
        gen = zd.GeneratorPath(np.diag([0.0, 1.0, 2.0]), np.ones(3) / np.sqrt(3))
        h = 1e-3
        grid = np.arange(0.0, 1.0 + h / 2, h)
        F, _ = gen.evaluate_many(grid)
        sampled = zd.SampledPath(grid, F)
        rng = np.random.default_rng(3)
        for t in rng.uniform(0.0, 1.0, 50):
            f, _ = sampled.evaluate(float(t))
            f_exact, _ = gen.evaluate(float(t))
            assert np.linalg.norm(f - f_exact) <= 1e-6
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-12

    def test_nodes_reproduced_exactly(self):
        gen = zd.GeneratorPath(np.diag([0.0, 1.5, 0.5]), np.ones(3) / np.sqrt(3))
        grid = np.linspace(0.0, 2.0, 201)
        F, _ = gen.evaluate_many(grid)
        sampled = zd.SampledPath(grid, F)
        for i in (0, 57, 200):
            f, _ = sampled.evaluate(float(grid[i]))
            np.testing.assert_allclose(f, F[i], atol=1e-12)

    def test_grid_matches_per_point_reference(self, rng):
        gen = zd.GeneratorPath(random_hermitian(rng, 4), random_unit(rng, 4))
        grid = np.sort(rng.uniform(0.0, 2.0, 60))
        grid[0], grid[-1] = 0.0, 2.0
        F, _ = gen.evaluate_many(grid)
        # a parallel sample pair (angle below 1e-9) takes the chord branch
        F[31] = F[30] * np.exp(0.3j)
        sampled = zd.SampledPath(grid, F)
        ts = np.concatenate([
            rng.uniform(0.0, 2.0, 200), grid, [2.0 + 1e-13],
            grid[30] + np.array([0.25, 0.5, 0.75]) * (grid[31] - grid[30]),
        ])
        G, Gd = sampled.evaluate_many(ts)
        for i, t in enumerate(ts):
            f, fd = sampled_reference(sampled, float(t))
            assert np.abs(G[i] - f).max() <= 1e-14
            assert np.abs(Gd[i] - fd).max() <= 1e-14 * max(1.0, np.abs(fd).max())

    def test_domain_error(self):
        grid = np.linspace(0.0, 1.0, 11)
        F = np.tile([1.0, 0.0], (11, 1)).astype(complex)
        sampled = zd.SampledPath(grid, F)
        with pytest.raises(DomainError):
            sampled.evaluate(1.5)
        with pytest.raises(DomainError):
            sampled.evaluate(-0.2)
        with pytest.raises(DomainError):
            sampled.evaluate_many([0.0, 0.5, 1.0 + 1e-6, 0.7])

    def test_validation(self):
        with pytest.raises(InputError):
            zd.SampledPath([0.0, 1.0], np.tile([1.0, 0.0], (2, 1)))
        with pytest.raises(InputError):
            zd.SampledPath(
                [0.0, 1.0, 0.5, 2.0, 3.0], np.tile([1.0, 0.0], (5, 1))
            )
        with pytest.raises(InputError):
            zd.SampledPath(np.linspace(0, 1, 5), np.tile([2.0, 0.0], (5, 1)))

    def test_huge_finite_sample_fails_the_norm_check_without_overflow(self):
        # the sample norms overflowed with a warning before the check rejected them
        with pytest.raises(InputError, match="unit-norm"):
            zd.SampledPath(np.linspace(0, 1, 5), np.tile([1e308, 0.0], (5, 1)))


class TestPeriod:
    def test_integer_spectrum(self):
        path = zd.ModePath(np.ones(3) / np.sqrt(3), [0.0, 1.0, 2.0])
        assert zd.period_of(path) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_half_integer_spectrum_matches_brute_force(self):
        amps = np.ones(3) / np.sqrt(3)
        freqs = [0.0, 0.5, 1.5]
        path = zd.ModePath(amps, freqs)
        oracle = brute_force_period(freqs, amps)
        assert oracle == pytest.approx(4 * np.pi, rel=1e-12)
        assert zd.period_of(path) == pytest.approx(oracle, rel=1e-12)

    def test_incommensurate_is_aperiodic(self):
        path = zd.ModePath(np.ones(3) / np.sqrt(3), [0.0, 1.0, np.sqrt(2.0)])
        assert zd.period_of(path) is None

    def test_global_phase_quotient(self):
        # shifting all frequencies shifts only the global phase
        path = zd.ModePath(np.ones(3) / np.sqrt(3), [5.3, 6.3, 7.3])
        assert zd.period_of(path) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_stationary_path_reports_zero(self):
        path = zd.ModePath([1.0, 0.0], [3.0, 100.0])
        assert zd.period_of(path) == 0.0

    def test_return_property_at_random_times(self, rng):
        amps = np.array([0.6, 0.48, np.sqrt(1 - 0.6**2 - 0.48**2)])
        freqs = np.array([0.5, 1.0, 2.5])
        path = zd.ModePath(amps, freqs)
        T = zd.period_of(path)
        assert T is not None
        phase = np.exp(-1j * freqs[0] * T)
        for t in rng.uniform(0.0, 20.0, 20):
            f1, _ = path.evaluate(float(t))
            f2, _ = path.evaluate(float(t) + T)
            assert np.linalg.norm(f2 - phase * f1) <= 1e-8

    def test_unsupported_variants(self):
        grid = np.linspace(0.0, 1.0, 11)
        F = np.tile([1.0, 0.0], (11, 1)).astype(complex)
        with pytest.raises(UnsupportedVariantError):
            zd.period_of(zd.SampledPath(grid, F))
        # design_monitored_state's path is a grid sampler without a generator
        target = zd.ModeTrajectory([0.5, 0.5], [1.0, -1.0])
        designed = zd.design_monitored_state(target, np.zeros((2, 2)), grid).path
        with pytest.raises(UnsupportedVariantError, match="generator or mode path"):
            zd.period_of(designed)
