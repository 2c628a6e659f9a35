import numpy as np
import pytest

import zenodark as zd
from zenodark.errors import (
    CompatibilityError,
    DegenerateTargetError,
    InputError,
    ParallelTransportError,
    UndefinedPhaseError,
)
from conftest import random_hermitian, random_unit, three_level_frequencies


def free_evolution_trajectory(H, psi0, T, dt):
    steps = int(round(T / dt))
    times = dt * np.arange(steps + 1)
    dec = np.linalg.eigh(H)
    phases = np.exp(-1j * np.outer(times, dec.eigenvalues)) * (
        dec.eigenvectors.conj().T @ psi0
    )
    return times, phases @ dec.eigenvectors.T


class TestCompatibility:
    def test_balanced_modes_satisfy_constraint(self):
        traj = zd.ModeTrajectory([0.5, 0.5], [1.0, -1.0])
        grid = np.linspace(0.0, 3.0, 301)
        assert zd.validate_dark_compatibility(traj, np.zeros((2, 2)), grid) <= 1e-12

    def test_unbalanced_modes_report_the_phase_rate(self):
        traj = zd.ModeTrajectory([0.5, 0.5], [1.0, 0.0])
        grid = np.linspace(0.0, 3.0, 301)
        residual = zd.validate_dark_compatibility(traj, np.zeros((2, 2)), grid)
        assert residual == pytest.approx(0.5, abs=1e-12)

    def test_free_evolution_is_compatible(self, rng):
        H = random_hermitian(rng, 3)
        psi0 = random_unit(rng, 3)
        dec = np.linalg.eigh(H)

        def states_on(ts):
            phases = np.exp(-1j * np.outer(ts, dec.eigenvalues))
            return (phases * (dec.eigenvectors.conj().T @ psi0)) @ dec.eigenvectors.T

        def derivatives_on(ts):
            return -1j * states_on(ts) @ H.T

        traj = zd.PrescribedTrajectory(3, states_on, derivatives_on)
        grid = np.linspace(0.0, 2.0, 101)
        assert zd.validate_dark_compatibility(traj, H, grid) <= 1e-10

    def test_stencil_fallback_without_analytic_derivative(self):
        traj_analytic = zd.ModeTrajectory([0.5, 0.5], [1.0, -1.0])
        traj_sampled = zd.PrescribedTrajectory(2, traj_analytic.states_on)
        grid = np.linspace(0.0, 2.0, 2001)
        residual = zd.validate_dark_compatibility(traj_sampled, np.zeros((2, 2)), grid)
        assert residual <= 1e-9


class TestDesignMonitoredState:
    def test_three_mode_closed_form(self):
        traj = zd.ModeTrajectory([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        grid = np.linspace(0.0, 2.0, 201)
        result = zd.design_monitored_state(traj, np.zeros((3, 3)), grid)
        np.testing.assert_allclose(result.normalization_samples, 2.0**-0.5, atol=1e-12)
        for t in (0.0, 0.7, 1.9):
            f, _ = result.path.evaluate(t)
            expected = (
                np.array([0.0, np.exp(-2j * t), -np.exp(2j * t)]) / np.sqrt(2.0)
            )
            # designed states match up to the global phase convention
            assert abs(np.vdot(expected, f)) == pytest.approx(1.0, abs=1e-12)

    def test_two_mode_closed_form(self):
        traj = zd.ModeTrajectory([0.5, 0.5], [1.0, -1.0])
        grid = np.linspace(0.0, 2.0, 201)
        result = zd.design_monitored_state(traj, np.zeros((2, 2)), grid)
        np.testing.assert_allclose(result.normalization_samples, 1.0, atol=1e-12)
        f, _ = result.path.evaluate(0.3)
        expected = np.array([np.exp(-1j * 0.3), -np.exp(1j * 0.3)]) / np.sqrt(2.0)
        assert abs(np.vdot(expected, f)) == pytest.approx(1.0, abs=1e-12)

    def test_designed_state_orthogonal_and_unit(self):
        traj = zd.ModeTrajectory([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        grid = np.linspace(0.0, 4.0, 401)
        result = zd.design_monitored_state(traj, np.zeros((3, 3)), grid)
        assert result.orthogonality_residual <= 1e-10
        for t in grid[::50]:
            f, _ = result.path.evaluate(float(t))
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-10

    def test_stationary_target_rejected(self):
        traj = zd.PrescribedTrajectory(
            2, lambda ts: np.tile([1.0, 0.0], (ts.size, 1)), lambda ts: np.zeros((ts.size, 2))
        )
        with pytest.raises(DegenerateTargetError):
            zd.design_monitored_state(traj, np.zeros((2, 2)), np.linspace(0.0, 1.0, 11))

    def test_incompatible_target_rejected(self):
        traj = zd.ModeTrajectory([0.5, 0.5], [1.0, 0.0])
        with pytest.raises(CompatibilityError):
            zd.design_monitored_state(traj, np.zeros((2, 2)), np.linspace(0.0, 1.0, 11))

    def test_nonzero_hamiltonian_design(self, rng):
        # free evolution satisfies compatibility but pins the designed state
        # onto the remainder H psi - i psidot = 0, so it is degenerate;
        # perturbing the target away from free evolution is not; here use a
        # dark run under a commuting generator as a realizable target
        K = np.diag([0.0, 1.0, 2.0])
        f0 = np.ones(3) / np.sqrt(3)
        H = np.diag([0.2, -0.3, 0.4])
        probe = random_unit(rng, 3)
        probe = probe - np.vdot(f0, probe) * f0
        probe /= np.linalg.norm(probe)

        # closed_form_solution as its mode expansion over the complement
        # spectrum, sum_k c_k exp(-i w_k t) exp(-i K t) u_k, on a whole grid
        spectrum = zd.zeno_spectrum(H, K, f0, probe)

        def states_on(ts):
            inner = np.exp(-1j * np.outer(ts, spectrum.frequencies)) * spectrum.coefficients
            return (inner @ spectrum.modes.T) * np.exp(-1j * np.outer(ts, np.diag(K)))

        np.testing.assert_allclose(
            states_on(np.array([0.3]))[0],
            zd.closed_form_solution(probe, H, K, f0, 0.3),
            atol=1e-12,
        )
        traj = zd.PrescribedTrajectory(3, states_on)
        grid = np.linspace(0.0, 1.0, 801)
        result = zd.design_monitored_state(traj, H, grid)
        # the designed monitored state reproduces the generator path's
        # projector up to the stencil error of the sampled derivative
        path = zd.GeneratorPath(K, f0)
        for t in (0.25, 0.5):
            f_design, _ = result.path.evaluate(t)
            f_true, _ = path.evaluate(t)
            assert abs(abs(np.vdot(f_true, f_design)) - 1.0) <= 1e-8


class TestGridTargets:
    """Targets are grid callables; designed paths take a closed-form fdot."""

    def sampled_mode_design(self, h):
        # the three-mode target without its analytic derivative, designed on
        # a grid of spacing h, next to mode_design's closed-form path
        target, exact = zd.mode_design([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        traj = zd.PrescribedTrajectory(3, target.states_on)
        grid = h * np.arange(int(round(2.0 / h)) + 1)
        return zd.design_monitored_state(traj, np.zeros((3, 3)), grid), exact

    def test_spacing_is_the_median_step_bit_for_bit(self, rng):
        # np.median's partition and mean, without its NaN check
        from zenodark.design import _spacing

        for size in [2, 3, 4, 5, 1000, 1001, *rng.integers(6, 1000, 40)]:
            scale = 10.0 ** rng.uniform(-6.0, 1.0)
            for grid in (np.cumsum(rng.exponential(scale, size)), scale * np.arange(size)):
                assert _spacing(grid).hex() == float(np.median(np.diff(grid))).hex()

    def test_sampled_target_matches_mode_design_at_fourth_order(self):
        ts = np.linspace(0.1, 1.9, 7)
        errors = []
        for h in (0.02, 0.01, 0.005):
            result, exact = self.sampled_mode_design(h)
            f, fdot = result.path.evaluate_many(ts)
            f_exact, fdot_exact = exact.evaluate_many(ts)
            phase = np.einsum("ij,ij->i", f_exact.conj(), f)
            # one global phase: the same unit factor at every time
            np.testing.assert_allclose(np.abs(phase), 1.0, atol=1e-12)
            np.testing.assert_allclose(phase, phase[0], atol=1e-12)
            np.testing.assert_allclose(f, phase[0] * f_exact, atol=1e-12)
            errors.append(float(np.abs(fdot - phase[0] * fdot_exact).max()))
        assert errors[0] / errors[1] >= 10.0
        assert errors[1] / errors[2] >= 10.0
        assert errors[2] <= 1e-9

    def test_one_point_grid_keeps_fdot_accurate(self):
        target, exact = zd.mode_design([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        ts = np.linspace(0.1, 1.9, 7)
        f_exact, fdot_exact = exact.evaluate_many(ts)
        for traj in (target, zd.PrescribedTrajectory(3, target.states_on)):
            result = zd.design_monitored_state(traj, np.zeros((3, 3)), [0.0])
            f, fdot = result.path.evaluate_many(ts)
            phase = np.einsum("ij,ij->i", f_exact.conj(), f)[:, None]
            assert np.abs(fdot - phase * fdot_exact).max() <= 1e-10

    def test_one_evaluation_makes_five_target_calls(self):
        target = zd.ModeTrajectory([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        sizes = []

        def counted(ts):
            sizes.append(np.size(ts))
            return target.states_on(ts)

        traj = zd.PrescribedTrajectory(3, counted)
        result = zd.design_monitored_state(traj, np.zeros((3, 3)), np.linspace(0.0, 2.0, 201))
        for k in (1, 10, 1000):
            sizes.clear()
            result.path.evaluate_many(np.linspace(0.0, 2.0, k))
            assert sizes == [k] * 5

    def test_one_design_makes_five_target_calls(self):
        # one jet on the design grid serves the compatibility check and the
        # normalization samples
        target = zd.ModeTrajectory([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        grid = np.linspace(0.0, 2.0, 1001)
        calls = {"states": [], "derivatives": []}

        def counted(kind, fn):
            def wrapped(ts):
                calls[kind].append(np.size(ts))
                return fn(ts)

            return wrapped

        sampled = zd.PrescribedTrajectory(3, counted("states", target.states_on))
        zd.design_monitored_state(sampled, np.zeros((3, 3)), grid)
        assert calls == {"states": [grid.size] * 5, "derivatives": []}

        calls["states"].clear()
        analytic = zd.PrescribedTrajectory(
            3,
            counted("states", target.states_on),
            counted("derivatives", target.derivatives_on),
        )
        zd.design_monitored_state(analytic, np.zeros((3, 3)), grid)
        assert calls == {"states": [grid.size], "derivatives": [grid.size] * 5}

    def test_analytic_target_fdot_on_a_fine_grid(self):
        # psiddot is the first-derivative stencil of the analytic psidot, so
        # rounding grows as eps/h, not eps/h**2
        target, exact = zd.mode_design([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        grid = 1e-4 * np.arange(1001)
        result = zd.design_monitored_state(target, np.zeros((3, 3)), grid)
        ts = grid[::50]
        f, fdot = result.path.evaluate_many(ts)
        f_exact, fdot_exact = exact.evaluate_many(ts)
        phase = np.vdot(f_exact[0], f[0])
        np.testing.assert_allclose(f, phase * f_exact, atol=1e-12)
        assert np.abs(fdot - phase * fdot_exact).max() <= 1e-11

    def test_state_at_is_row_zero_of_the_grid_callable(self):
        target = zd.ModeTrajectory([0.5, 0.5], [1.0, -1.0])
        traj = zd.PrescribedTrajectory(2, target.states_on)
        np.testing.assert_array_equal(traj.state_at(0.7), target.states_on([0.7])[0])
        assert not traj.has_derivative
        with pytest.raises(InputError):
            traj.derivatives_on([0.7])

    @pytest.mark.parametrize(
        "states_on, derivatives_on",
        [
            (lambda ts: np.zeros((ts.size, 3)), None),
            (lambda ts: np.ones(ts.size), None),
            (lambda ts: np.full((ts.size, 2), np.nan), None),
            (lambda ts: np.tile([1.0, 0.0], (ts.size, 1)), lambda ts: np.zeros((1, 2))),
            (
                lambda ts: np.tile([1.0, 0.0], (ts.size, 1)),
                lambda ts: np.full((ts.size, 2), np.inf),
            ),
        ],
        ids=["wrong-width", "one-dimensional", "nan", "derivative-rows", "derivative-inf"],
    )
    def test_bad_grid_callable_raises_input_error(self, states_on, derivatives_on):
        traj = zd.PrescribedTrajectory(2, states_on, derivatives_on)
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(InputError):
            zd.design_monitored_state(traj, np.zeros((2, 2)), grid)


class TestModeDesign:
    def test_returns_exact_closed_form(self):
        traj, path = zd.mode_design([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        for t in (0.0, 1.1):
            f, fdot = path.evaluate(t)
            expected = np.array([0.0, np.exp(-2j * t), -np.exp(2j * t)]) / np.sqrt(2.0)
            np.testing.assert_allclose(f, expected, atol=1e-12)
            np.testing.assert_allclose(
                fdot,
                np.array([0.0, -2j * np.exp(-2j * t), -2j * np.exp(2j * t)])
                / np.sqrt(2.0),
                atol=1e-12,
            )

    def test_path_is_a_mode_path_sampled_bitwise_on_the_design_grid(self):
        # the committed inverse_design grid (T = 5, dt = 1e-4): its times and
        # midpoints against the explicit rows c exp(-i nu t), -i nu c exp(-i nu t)
        p, nu = np.array([0.5, 0.25, 0.25]), np.array([0.0, 2.0, -2.0])
        _, path = zd.mode_design(p, nu)
        assert isinstance(path, zd.ModePath)
        c = float(p @ nu**2) ** -0.5 * np.sqrt(p) * nu
        dt, steps = 1e-4, 50_000
        for ts in (dt * np.arange(steps + 1), dt * (np.arange(steps) + 0.5)):
            rows = np.exp(-1j * np.outer(ts, nu)) * c
            f, fdot = path.evaluate_many(ts)
            np.testing.assert_array_equal(f.view(np.uint64), rows.view(np.uint64))
            np.testing.assert_array_equal(
                fdot.view(np.uint64), (rows * (-1j * nu)).view(np.uint64)
            )

    def test_spectrum_matches_three_level_closed_form(self):
        # P0 (H - K) P0 with H = 0 is -P0 K P0, so the emergent frequencies
        # are the negated closed-form eigenvalues of the complement restriction
        nu = np.array([1.0, 0.5, -3.25])
        _, path = zd.mode_design([0.5, 0.3, 0.2], nu)
        f0 = path.initial_state
        psi0 = np.array([f0[1], -f0[0], 0.0]) / np.linalg.norm(f0[:2])
        spectrum = zd.zeno_spectrum(np.zeros((3, 3)), path.generator, f0, psi0)
        omega_minus, omega_plus = three_level_frequencies(f0, nu)
        np.testing.assert_allclose(
            np.sort(spectrum.frequencies),
            np.sort([-omega_plus, -omega_minus]),
            rtol=0.0,
            atol=1e-12,
        )

    def test_period_of_committed_design(self):
        # populated frequencies +-2: f(t + pi/2) = -f(t)
        _, path = zd.mode_design([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        assert zd.period_of(path) == pytest.approx(np.pi / 2, rel=1e-12)

    def test_single_populated_mode_rejected(self):
        with pytest.raises(DegenerateTargetError):
            zd.mode_design([1.0, 0.0, 0.0], [0.0, 2.0, -2.0])

    def test_all_equal_frequencies_rejected(self):
        with pytest.raises(DegenerateTargetError):
            zd.mode_design([0.5, 0.5], [0.0, 0.0])

    def test_parallel_transport_violation_rejected(self):
        with pytest.raises(ParallelTransportError):
            zd.mode_design([0.5, 0.5], [1.0, 0.0])

    def test_frequency_scaling_keeps_amplitude_profile(self):
        _, path1 = zd.mode_design([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        _, path2 = zd.mode_design([0.5, 0.25, 0.25], [0.0, 4.0, -4.0])
        f1, _ = path1.evaluate(0.0)
        f2, _ = path2.evaluate(0.0)
        np.testing.assert_allclose(np.abs(f1), np.abs(f2), atol=1e-12)

    def test_round_trip_reproduces_target(self):
        traj, path = zd.mode_design([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        psi0 = traj.state_at(0.0)
        forward = zd.continuous_dark_run(psi0, path, np.zeros((3, 3)), T=2.0, dt=1e-3)
        targets = traj.states_on(forward.times)
        fidelity = np.abs(np.einsum("ij,ij->i", targets.conj(), forward.states))
        assert fidelity.min() >= 1.0 - 1e-6

    def test_round_trip_random_valid_targets(self, rng):
        for _ in range(3):
            p = rng.uniform(0.1, 1.0, 3)
            p /= p.sum()
            nu = rng.uniform(-3.0, 3.0, 3)
            nu[2] = -(p[0] * nu[0] + p[1] * nu[1]) / p[2]
            traj, path = zd.mode_design(p, nu)
            psi0 = traj.state_at(0.0)
            forward = zd.continuous_dark_run(
                psi0, path, np.zeros((3, 3)), T=2.0, dt=1e-3
            )
            targets = traj.states_on(forward.times)
            fidelity = np.abs(np.einsum("ij,ij->i", targets.conj(), forward.states))
            assert fidelity.min() >= 1.0 - 1e-6


class TestParallelTransport:
    def test_dark_run_is_parallel_transported(self, three_level):
        tl = three_level
        dt = 1e-3
        traj = zd.continuous_dark_run(tl.psi_equal, tl.path, tl.H0, T=2.0, dt=dt)
        assert zd.parallel_transport_residual(traj) <= 10.0 * dt

    def test_residual_falls_faster_than_dt(self, three_level):
        tl = three_level
        residual = {
            dt: zd.parallel_transport_residual(
                zd.continuous_dark_run(tl.psi_equal, tl.path, tl.H0, T=2.0, dt=dt)
            )
            for dt in (2e-3, 1e-3)
        }
        assert residual[2e-3] / residual[1e-3] >= 3.0

    def test_free_evolution_reports_energy_expectation(self, rng):
        H = random_hermitian(rng, 3)
        psi0 = random_unit(rng, 3)
        energy = float(np.real(np.vdot(psi0, H @ psi0)))
        times, states = free_evolution_trajectory(H, psi0, T=1.0, dt=1e-5)
        residual = zd.parallel_transport_residual((times, states))
        assert residual == pytest.approx(abs(energy), rel=1e-3)

    def test_single_point_trajectory(self):
        assert zd.parallel_transport_residual((np.array([0.0]), np.array([[1.0, 0.0]]))) == 0.0


class TestPancharatnamPhase:
    def test_local_increments_vanish_on_dark_runs(self, three_level):
        tl = three_level
        dt = 1e-3
        traj = zd.continuous_dark_run(tl.psi_equal, tl.path, tl.H0, T=2.0, dt=dt)
        overlaps = np.einsum("ij,ij->i", traj.states[:-1].conj(), traj.states[1:])
        assert np.abs(np.angle(overlaps)).max() <= 10.0 * dt**2

    def test_integer_frequency_loop_has_zero_phase(self):
        traj = zd.ModeTrajectory([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        grid = np.linspace(0.0, np.pi, 4001)  # one full period of both modes
        states = traj.states_on(grid)
        phase = zd.pancharatnam_phase((grid, states))
        assert abs(phase) <= 1e-6

    def test_gauge_invariance_of_closed_loops(self, rng):
        traj = zd.ModeTrajectory([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
        grid = np.linspace(0.0, np.pi, 801)
        states = traj.states_on(grid)
        chi = rng.uniform(-np.pi, np.pi, grid.size)
        gauged = states * np.exp(1j * chi)[:, None]
        p1 = zd.pancharatnam_phase((grid, states))
        p2 = zd.pancharatnam_phase((grid, gauged))
        assert np.angle(np.exp(1j * (p1 - p2))) == pytest.approx(0.0, abs=1e-9)

    def test_eigenstate_ray_counts_as_closed(self):
        # an energy eigenstate never leaves its ray, so the loop closes up to
        # a global phase and the geometric phase vanishes
        times = np.linspace(0.0, 1.0, 101)
        states = np.exp(-1j * 0.8 * times)[:, None] * np.array([[1.0, 0.0]])
        assert zd.pancharatnam_phase((times, states)) == pytest.approx(0.0, abs=1e-12)

    def test_open_path_accumulates_local_phase(self):
        # off-constraint mode target: local phase rate is sum p_j nu_j = 1/2,
        # and each step contributes exactly -dt/2
        traj = zd.ModeTrajectory([0.5, 0.5], [1.0, 0.0])
        times = np.linspace(0.0, 1.0, 101)
        states = traj.states_on(times)
        phase = zd.pancharatnam_phase((times, states))
        assert phase == pytest.approx(-0.5, abs=1e-12)

    def test_undefined_phase_raises(self):
        states = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(UndefinedPhaseError):
            zd.pancharatnam_phase((np.array([0.0, 1.0]), states))


class TestModeTrajectoryValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InputError):
            zd.ModeTrajectory([0.5, 0.4], [1.0, -1.0])

    def test_probabilities_must_be_nonnegative(self):
        with pytest.raises(InputError):
            zd.ModeTrajectory([1.5, -0.5], [1.0, -1.0])

    def test_off_constraint_construction_allowed(self):
        traj = zd.ModeTrajectory([0.5, 0.5], [1.0, 0.0])
        assert traj.phase_rate == pytest.approx(0.5)
