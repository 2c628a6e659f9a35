import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zenodark as zd
from zenodark.errors import (
    CommutatorError,
    InputError,
    OrthogonalityError,
    UnsupportedVariantError,
)
from zenodark.linalg import unitary_exp

from zenodark.kernels import discrete_loop

from conftest import (
    commuting_problem,
    comoving_hamiltonian,
    random_hermitian,
    random_unit,
    three_level_frequencies,
)


def restricted_complement_eigenvalues(K, f0):
    """Oracle: diagonalize P(0) K P(0) on the complement of f0 numerically."""
    n = f0.shape[0]
    P = np.eye(n) - np.outer(f0, f0.conj())
    q, _ = np.linalg.qr(np.column_stack([f0, np.eye(n)]))
    B = q[:, 1:n]
    return np.linalg.eigvalsh(B.conj().T @ (P @ K @ P) @ B)


def one_step(psi, path, H, tau):
    """State after one measurement step of a discrete run."""
    return zd.discrete_dark_run(psi, path, H, tau, 1).states[1]


class TestDiscreteStep:
    def test_orthogonal_monitored_state_is_identity(self):
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        f = np.array([0.0, 1.0, 0.0], dtype=complex)
        out = one_step(psi, zd.GeneratorPath(np.zeros((3, 3)), f), np.zeros((3, 3)), 0.1)
        np.testing.assert_allclose(out, psi, atol=1e-14)

    def test_full_absorption(self):
        # a run rejects psi = f at setup, so apply the kernel's step directly
        psi = np.array([0.0, 1.0], dtype=complex)
        out = discrete_loop(np.eye(2, dtype=complex), psi[None], psi)[1]
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_partial_overlap_norm(self):
        # hand evaluation: f(1) = (-sin theta, cos theta) starting from
        # f(0) = (0, 1), so the surviving squared norm is 1 - sin(theta)^2
        theta = 0.1
        psi = np.array([1.0, 0.0], dtype=complex)
        path = zd.GeneratorPath(theta * np.array([[0.0, -1j], [1j, 0.0]]), [0.0, 1.0])
        out = one_step(psi, path, np.zeros((2, 2)), 1.0)
        norm_sq = float(np.linalg.norm(out) ** 2)
        assert norm_sq == pytest.approx(1.0 - math.sin(theta) ** 2, abs=1e-12)
        assert norm_sq == pytest.approx(0.990033, abs=1e-6)

    def test_norm_never_increases(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            path = zd.GeneratorPath(random_hermitian(rng, n), random_unit(rng, n))
            f_tau = path.evaluate(0.3)[0]
            psi = random_unit(rng, n)
            psi = psi - np.vdot(f_tau, psi) * f_tau
            out = one_step(psi / np.linalg.norm(psi), path, random_hermitian(rng, n), 0.3)
            assert np.linalg.norm(out) <= 1.0 + 1e-12


class TestStepCount:
    def test_steps_times_dimension_bounded(self):
        # one memory budget: MAX_STEPS steps at N = 3, fewer at larger N
        rows, most = zd.dynamics.MAX_STEP_ROWS, zd.dynamics.MAX_STEPS
        require = zd.dynamics.require_step_count
        assert rows == 3 * most
        assert require(float(most), 10.0, 1e-6, 3) == most
        assert require(float(rows // 64), 10.0, 1e-6, 64) == rows // 64
        for count, dim in [(rows // 64 + 1, 64), (most, 4), (most // 100, 1024)]:
            with pytest.raises(InputError, match=f"limit of {rows} steps x dimension"):
                require(float(count), 10.0, 1e-6, dim)
        with pytest.raises(InputError, match="dimension 64"):
            zd.dynamics.step_count(10.0, 1e-6, 64)
        assert zd.dynamics.step_count(10.0, 1e-6, 3) == most


class TestDiscreteRun:
    def test_stationary_zeno_subspace(self):
        # constant monitored state, hamiltonian confined to the complement
        f0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        path = zd.GeneratorPath(np.zeros((3, 3)), f0)
        H = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.3], [0.0, 0.3, 2.0]])
        psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
        traj = zd.discrete_dark_run(psi0, path, H, tau=1e-2, M=100)
        assert abs(1.0 - traj.survival_probability[-1]) <= 1e-12
        assert np.all(np.diff(traj.norms) <= 1e-14)

    def test_norm_deficit_scales_linearly(self, three_level):
        deficits = []
        taus = [1e-2, 5e-3, 2.5e-3]
        for tau in taus:
            M = int(round(1.0 / tau))
            traj = zd.discrete_dark_run(
                three_level.psi_equal, three_level.path, three_level.H0, tau, M
            )
            deficits.append(1.0 - traj.survival_probability[-1])
        slope = np.polyfit(np.log(taus), np.log(deficits), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_prefix_consistency(self, three_level):
        full = zd.discrete_dark_run(
            three_level.psi_equal, three_level.path, three_level.H0, 1e-2, 50
        )
        prefix = zd.discrete_dark_run(
            three_level.psi_equal, three_level.path, three_level.H0, 1e-2, 20
        )
        np.testing.assert_array_equal(full.states[:21], prefix.states)
        np.testing.assert_array_equal(full.norms[:21], prefix.norms)

    @pytest.mark.parametrize(
        "M, message",
        [
            # beyond the float range: M * tau would overflow
            (10**400, f"limit of {zd.dynamics.MAX_STEPS} steps"),
            (zd.dynamics.MAX_STEPS + 1, f"limit of {zd.dynamics.MAX_STEPS} steps"),
            (float("nan"), "shorter than one step"),
        ],
        ids=["huge-int", "one-over", "nan"],
    )
    def test_step_count_out_of_range_is_input_error(self, three_level, M, message):
        with pytest.raises(InputError, match=message):
            zd.discrete_dark_run(three_level.psi_equal, three_level.path, three_level.H0, 1e-2, M)

    def test_norms_non_increasing(self, three_level):
        traj = zd.discrete_dark_run(
            three_level.psi_equal, three_level.path, three_level.H0, 5e-3, 200
        )
        assert np.all(np.diff(traj.norms) <= 1e-14)

    def test_setup_orthogonality_enforced(self, three_level):
        bad = three_level.f0.astype(complex)
        with pytest.raises(OrthogonalityError, match="orthogonal"):
            zd.discrete_dark_run(bad, three_level.path, three_level.H0, 1e-2, 10)

    def test_raw_states_subnormalized_and_view_normalized(self, three_level):
        traj = zd.discrete_dark_run(
            three_level.psi_equal, three_level.path, three_level.H0, 1e-2, 50
        )
        assert traj.norms[-1] < 1.0
        normalized = traj.states / traj.norms[:, None]
        assert np.abs(np.linalg.norm(normalized, axis=1) - 1.0).max() <= 1e-12


class TestEffectiveHamiltonian:
    def test_frozen_state_gives_zero(self):
        f = np.array([1.0, 0.0, 0.0], dtype=complex)
        out = zd.effective_hamiltonian(np.zeros((3, 3)), f, np.zeros(3))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_rotating_equal_superposition(self):
        # fdot = -i K f turns the derivative terms into K ff* + ff* K
        K = np.diag([0.0, 1.0, 2.0])
        f = np.ones(3, dtype=complex) / np.sqrt(3)
        out = zd.effective_hamiltonian(np.zeros((3, 3)), f, -1j * K @ f)
        expected = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]) / 3.0
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_two_level_zeno_freezing(self):
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        f = np.array([1.0, 0.0], dtype=complex)
        out = zd.effective_hamiltonian(H, f, np.zeros(2))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_hermitian_for_random_inputs(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 9))
            H = random_hermitian(rng, n)
            f = random_unit(rng, n)
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            fdot = g - np.real(np.vdot(f, g)) * f
            out = zd.effective_hamiltonian(H, f, fdot)
            assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_rejects_norm_drifting_derivative(self):
        f = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(InputError, match="drift"):
            zd.effective_hamiltonian(np.zeros((2, 2)), f, np.array([1.0, 0.0]))


class TestContinuousRun:
    def test_constant_path_freezes_state(self):
        f0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        path = zd.GeneratorPath(np.zeros((3, 3)), f0)
        psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
        traj = zd.continuous_dark_run(psi0, path, np.zeros((3, 3)), T=2.0, dt=1e-3)
        assert np.abs(traj.states - psi0).max() <= 1e-12

    def test_eigenmode_evolves_with_emergent_frequency(self, three_level):
        # psi0 an eigenmode: the state stays on the co-moving mode and only
        # accumulates the emergent phase; cross-checked with the closed form
        tl = three_level
        psi0 = tl.mode_a
        traj = zd.continuous_dark_run(psi0, tl.path, tl.H0, T=5.0, dt=1e-4)
        omega = tl.spectrum.frequencies[0]
        for idx in (1000, 20000, 50000):
            t = traj.times[idx]
            moving_mode = unitary_exp(tl.K, float(t)) @ psi0
            overlap = abs(np.vdot(moving_mode, traj.states[idx]))
            assert overlap == pytest.approx(1.0, abs=1e-8)
            reference = zd.closed_form_solution(psi0, tl.H0, tl.K, tl.f0, float(t))
            np.testing.assert_allclose(
                reference,
                np.exp(-1j * omega * t) * unitary_exp(tl.K, float(t)) @ psi0,
                atol=1e-10,
            )
            assert abs(np.vdot(reference, traj.states[idx])) == pytest.approx(1.0, abs=1e-8)

    def test_norm_preserved_to_machine(self, three_level):
        traj = zd.continuous_dark_run(
            three_level.psi_equal, three_level.path, three_level.H0, T=10.0, dt=1e-3
        )
        assert np.abs(1.0 - traj.norms).max() <= 1e-9

    def test_orthogonality_residual_second_order_in_dt(self, three_level):
        # the drift is a monitored diagnostic; halving dt divides it by four
        residuals = {}
        for dt in (1e-3, 5e-4):
            traj = zd.continuous_dark_run(
                three_level.psi_equal, three_level.path, three_level.H0, T=2.0, dt=dt
            )
            residuals[dt] = traj.orthogonality_residual.max()
        assert residuals[1e-3] / residuals[5e-4] == pytest.approx(4.0, rel=0.3)

    def test_setup_orthogonality_enforced(self, three_level):
        with pytest.raises(OrthogonalityError, match="orthogonal"):
            zd.continuous_dark_run(
                three_level.f0, three_level.path, three_level.H0, T=1.0, dt=1e-3
            )

    def test_discrete_normalized_converges_linearly(self, three_level):
        tl = three_level
        T = 2.0
        gaps = []
        for tau in (1e-2, 5e-3, 2.5e-3):
            M = int(round(T / tau))
            discrete = zd.discrete_dark_run(tl.psi_equal, tl.path, tl.H0, tau, M)
            normalized = discrete.states / discrete.norms[:, None]
            continuous = zd.continuous_dark_run(tl.psi_equal, tl.path, tl.H0, T, tau / 20)
            gap = 0.0
            for n in range(1, M + 1):
                cont_state = continuous.states[n * 20]
                disc_state = normalized[n]
                gap = max(gap, float(np.linalg.norm(disc_state - cont_state)))
            gaps.append(gap)
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.2)
        assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.2)

    def test_sampled_path_drives_the_integrator(self, three_level_slow):
        # a finely sampled copy of the slow path reproduces its dark dynamics
        slow = three_level_slow
        grid = np.linspace(0.0, 1.0, 2001)
        F, _ = slow.path.evaluate_many(grid)
        sampled = zd.SampledPath(grid, F)
        traj = zd.continuous_dark_run(slow.psi_equal, sampled, slow.H0, T=1.0, dt=1e-3)
        reference = zd.continuous_dark_run(
            slow.psi_equal, slow.path, slow.H0, T=1.0, dt=1e-3
        )
        assert np.abs(1.0 - traj.norms).max() <= 1e-9
        assert traj.orthogonality_residual.max() <= 1e-6
        assert np.linalg.norm(traj.states - reference.states, axis=1).max() <= 1e-6

    def test_comoving_frame_equivalence(self, rng, three_level):
        # integrate in the co-moving frame with the transformed hamiltonian
        # and compare against the rotated lab-frame run; K and H do not commute
        tl = three_level
        H = 0.3 * random_hermitian(rng, 3)
        assert np.linalg.norm(tl.K @ H - H @ tl.K) > 1e-3
        T, dt = 2.0, 1e-3
        lab = zd.continuous_dark_run(tl.psi_equal, tl.path, H, T, dt)
        steps = int(round(T / dt))
        phi = tl.psi_equal.astype(complex)
        comoving = [phi]
        for s in range(steps):
            mid = (s + 0.5) * dt
            Ht = comoving_hamiltonian(H, tl.K, tl.f0, mid)
            phi = unitary_exp(Ht, dt) @ phi
            comoving.append(phi)
        for idx in (500, 1500, steps):
            t = lab.times[idx]
            rotated = unitary_exp(tl.K, -float(t)) @ lab.states[idx]
            fidelity = abs(np.vdot(comoving[idx], rotated))
            assert fidelity >= 1.0 - 1e-8


class TestComovingHamiltonian:
    """The co-moving oracle of ``test_comoving_frame_equivalence``, checked
    against hand evaluations."""

    def test_equal_generator_and_hamiltonian_cancel(self, rng):
        K = random_hermitian(rng, 4)
        f0 = random_unit(rng, 4)
        out = comoving_hamiltonian(K, K, f0, t=0.7)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_zero_hamiltonian_time_independent(self, rng):
        K = random_hermitian(rng, 3)
        f0 = random_unit(rng, 3)
        P = np.eye(3) - np.outer(f0, f0.conj())
        expected = -P @ K @ P
        for t in (0.0, 0.9, 7.3):
            np.testing.assert_allclose(
                comoving_hamiltonian(np.zeros((3, 3)), K, f0, t), expected, atol=1e-12
            )

    def test_commuting_diagonal_case(self, rng):
        H = np.diag([0.4, -0.1, 0.9])
        K = np.diag([0.0, 1.0, 2.0])
        f0 = random_unit(rng, 3)
        P = np.eye(3) - np.outer(f0, f0.conj())
        expected = P @ (H - K) @ P
        for t in (0.0, 1.3, 4.0):
            np.testing.assert_allclose(
                comoving_hamiltonian(H, K, f0, t), expected, atol=1e-12
            )

    def test_annihilates_monitored_state(self, rng):
        K = random_hermitian(rng, 4)
        H = random_hermitian(rng, 4)
        f0 = random_unit(rng, 4)
        out = comoving_hamiltonian(H, K, f0, 0.4)
        assert np.abs(out @ f0).max() <= 1e-12
        assert np.abs(f0.conj() @ out).max() <= 1e-12


class TestZenoSpectrum:
    def test_three_level_equal_superposition(self, three_level):
        freqs = three_level.spectrum.frequencies
        np.testing.assert_allclose(
            freqs, [-(1.0 + 3**-0.5), -(1.0 - 3**-0.5)], atol=1e-10
        )

    def test_monitored_eigenmode_leaves_plane(self):
        K = np.diag([1.0, 2.0, 5.0])
        f0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
        s = zd.zeno_spectrum(np.zeros((3, 3)), K, f0, psi0)
        np.testing.assert_allclose(s.frequencies, [-5.0, -2.0], atol=1e-12)

    def test_equal_generator_gives_flat_spectrum(self, rng):
        K = random_hermitian(rng, 4)
        f0 = random_unit(rng, 4)
        psi0 = random_unit(rng, 4)
        psi0 = psi0 - np.vdot(f0, psi0) * f0
        psi0 /= np.linalg.norm(psi0)
        s = zd.zeno_spectrum(K, K, f0, psi0)
        np.testing.assert_allclose(s.frequencies, 0.0, atol=1e-12)

    def test_modes_orthogonal_to_monitored_state(self, three_level):
        s = three_level.spectrum
        assert np.abs(s.modes.conj().T @ three_level.f0).max() <= 1e-10

    def test_coefficients_complete(self, three_level):
        s = three_level.spectrum
        assert abs(np.sum(np.abs(s.coefficients) ** 2) - 1.0) <= 1e-10

    def test_noncommuting_rejected(self, rng):
        K = np.diag([0.0, 1.0, 2.0])
        H = random_hermitian(rng, 3)
        f0 = random_unit(rng, 3)
        psi0 = random_unit(rng, 3)
        psi0 = psi0 - np.vdot(f0, psi0) * f0
        psi0 /= np.linalg.norm(psi0)
        with pytest.raises(CommutatorError, match="time-ordered"):
            zd.zeno_spectrum(H, K, f0, psi0)


def three_level_spectrum(a, Omega):
    """Emergent frequencies of ``zeno_spectrum`` for H = 0, K = diag(Omega), f0 = a."""
    a = np.asarray(a, dtype=complex)
    psi0 = np.cross(a.conj(), [1.0, 2.0, 3.0])  # <a|psi0> = 0
    psi0 /= np.linalg.norm(psi0)
    return zd.zeno_spectrum(np.zeros((3, 3)), np.diag(Omega), a, psi0).frequencies


class TestThreeLevelFrequencies:
    """The N = 3 closed form: the oracle against hand evaluations and the
    numerical restriction, and ``zeno_spectrum`` against the oracle."""

    def test_equal_amplitude_case(self):
        lo, hi = three_level_frequencies(np.ones(3) / np.sqrt(3), [0.0, 1.0, 2.0])
        assert lo + hi == pytest.approx(2.0, abs=1e-12)  # trace
        assert lo * hi == pytest.approx(2.0 / 3.0, abs=1e-12)  # determinant
        assert hi == pytest.approx(1.0 + 3**-0.5, abs=1e-12)
        assert lo == pytest.approx(1.0 - 3**-0.5, abs=1e-12)
        spectrum = three_level_spectrum(np.ones(3) / np.sqrt(3), [0.0, 1.0, 2.0])
        np.testing.assert_allclose(spectrum, [-hi, -lo], atol=1e-12)

    def test_matches_numerical_restriction(self):
        a = np.ones(3) / np.sqrt(3)
        eigs = restricted_complement_eigenvalues(np.diag([0.0, 1.0, 2.0]), a.astype(complex))
        np.testing.assert_allclose(eigs, three_level_frequencies(a, [0.0, 1.0, 2.0]), atol=1e-10)

    def test_degenerate_generator(self):
        lo, hi = three_level_frequencies([0.6, 0.8, 0.0], [1.5, 1.5, 1.5])
        assert hi == pytest.approx(1.5, abs=1e-12)
        assert lo == pytest.approx(1.5, abs=1e-12)
        np.testing.assert_allclose(
            three_level_spectrum([0.6, 0.8, 0.0], [1.5, 1.5, 1.5]), -1.5, atol=1e-12
        )

    def test_monitored_state_is_a_mode(self):
        lo, hi = three_level_frequencies([1.0, 0.0, 0.0], [7.0, 2.0, 3.0])
        assert hi == pytest.approx(3.0, abs=1e-12)
        assert lo == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(
            three_level_spectrum([1.0, 0.0, 0.0], [7.0, 2.0, 3.0]), [-3.0, -2.0], atol=1e-12
        )

    def test_oracle_agreement_randomized(self, rng):
        for _ in range(1000):
            a = random_unit(rng, 3)
            Omega = rng.uniform(-5.0, 5.0, 3)
            lo, hi = three_level_frequencies(a, Omega)
            eigs = restricted_complement_eigenvalues(np.diag(Omega), a)
            np.testing.assert_allclose(eigs, [lo, hi], atol=1e-10)
            np.testing.assert_allclose(three_level_spectrum(a, Omega), [-hi, -lo], atol=1e-10)

    def test_rejects_unnormalized(self):
        # the spectrum's one home checks the monitored state's norm
        with pytest.raises(InputError):
            three_level_spectrum([1.0, 1.0, 0.0], [0.0, 1.0, 2.0])


class TestClosedForm:
    def test_time_zero_returns_initial_state(self, three_level):
        out = zd.closed_form_solution(
            three_level.psi_equal, three_level.H0, three_level.K, three_level.f0, 0.0
        )
        np.testing.assert_allclose(out, three_level.psi_equal, atol=1e-12)

    def test_zero_generator_reduces_to_projected_evolution(self, rng):
        H = random_hermitian(rng, 3)
        f0 = random_unit(rng, 3)
        psi0 = random_unit(rng, 3)
        psi0 = psi0 - np.vdot(f0, psi0) * f0
        psi0 /= np.linalg.norm(psi0)
        P = np.eye(3) - np.outer(f0, f0.conj())
        t = 1.7
        expected = unitary_exp(P @ H @ P, t) @ psi0
        out = zd.closed_form_solution(psi0, H, np.zeros((3, 3)), f0, t)
        np.testing.assert_allclose(out, expected, atol=1e-11)

    def test_matches_integrator(self, three_level):
        tl = three_level
        traj = zd.continuous_dark_run(tl.psi_equal, tl.path, tl.H0, T=5.0, dt=1e-4)
        final = zd.closed_form_solution(tl.psi_equal, tl.H0, tl.K, tl.f0, 5.0)
        assert abs(np.vdot(final, traj.states[-1])) >= 1.0 - 1e-8

    def test_matches_mode_expansion(self, three_level):
        tl = three_level
        s = zd.zeno_spectrum(tl.H0, tl.K, tl.f0, tl.psi_equal)
        for t in (0.3, 1.9):
            expansion = np.zeros(3, dtype=complex)
            for k in range(2):
                moving = unitary_exp(tl.K, t) @ s.modes[:, k]
                expansion += (
                    s.coefficients[k] * np.exp(-1j * s.frequencies[k] * t) * moving
                )
            direct = zd.closed_form_solution(tl.psi_equal, tl.H0, tl.K, tl.f0, t)
            np.testing.assert_allclose(expansion, direct, atol=1e-11)

    def test_noncommuting_redirects(self, rng, three_level):
        H = random_hermitian(rng, 3)
        with pytest.raises(CommutatorError, match="continuous_dark_run"):
            zd.closed_form_solution(
                three_level.psi_equal, H, three_level.K, three_level.f0, 1.0
            )


class TestCyclicReturn:
    def test_single_mode_returns(self, three_level):
        tl = three_level
        s = zd.zeno_spectrum(tl.H0, tl.K, tl.f0, tl.mode_a)
        T = zd.period_of(tl.path)
        assert zd.cyclic_return_fidelity(s, T) == pytest.approx(1.0, abs=1e-12)

    def test_equal_weights_interfere(self, three_level):
        tl = three_level
        s = zd.zeno_spectrum(tl.H0, tl.K, tl.f0, tl.psi_equal)
        T = zd.period_of(tl.path)
        assert T == pytest.approx(2 * np.pi, rel=1e-12)
        fidelity_sq = zd.cyclic_return_fidelity(s, T) ** 2
        assert fidelity_sq == pytest.approx(np.cos(2 * np.pi / np.sqrt(3)) ** 2, abs=1e-10)

    def test_flat_spectrum_returns(self, rng):
        K = random_hermitian(rng, 4)
        f0 = random_unit(rng, 4)
        psi0 = random_unit(rng, 4)
        psi0 = psi0 - np.vdot(f0, psi0) * f0
        psi0 /= np.linalg.norm(psi0)
        s = zd.zeno_spectrum(K, K, f0, psi0)
        assert zd.cyclic_return_fidelity(s, 11.3) == pytest.approx(1.0, abs=1e-10)

    def test_aperiodic_rejected(self, three_level):
        with pytest.raises(UnsupportedVariantError):
            zd.cyclic_return_fidelity(three_level.spectrum, None)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_continuous_run_preserves_norm_and_matches_closed_form(n, seed):
    # H and K share eigenvectors, so [K, H] = 0 and the closed form applies
    psi0, path, H = commuting_problem(n, seed)
    traj = zd.continuous_dark_run(psi0, path, H, T=1.0, dt=1e-3)
    exact = zd.closed_form_run(psi0, path, H, T=1.0, dt=1e-3)
    assert np.abs(traj.norms - 1.0).max() <= 1e-12
    np.testing.assert_allclose(traj.states[-1], exact.states[-1], atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_orthogonality_residual_is_second_order(n, seed):
    psi0, path, H = commuting_problem(n, seed)
    worst = {
        dt: zd.continuous_dark_run(psi0, path, H, T=1.0, dt=dt).orthogonality_residual.max()
        for dt in (1e-2, 5e-3)
    }
    assert 3.5 <= worst[1e-2] / worst[5e-3] <= 4.5


@pytest.mark.parametrize("hamiltonian", ["zero", "commuting"])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_discrete_deficit_is_linear_in_tau(hamiltonian, n, seed):
    # the norm deficit 1 - ||psi(T)||^2 of a discrete run vanishes as tau
    psi0, path, H = commuting_problem(n, seed)
    if hamiltonian == "zero":
        H = np.zeros((n, n))
    taus = [0.01, 0.005, 0.0025]
    deficits = []
    for tau in taus:
        run = zd.discrete_dark_run(psi0, path, H, tau, int(round(1.0 / tau)))
        deficits.append(1.0 - run.survival_probability[-1])
    slope = np.polyfit(np.log(taus), np.log(deficits), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)
