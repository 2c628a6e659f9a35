import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zenodark as zd
from zenodark.errors import (
    InputError,
    OrthogonalityError,
    RegimeWarning,
    ResolutionError,
)
from zenodark.embedding import MAX_PHASE_STEP
from zenodark.stencil import differentiate_series, moving_average

from conftest import commuting_problem


class TestEmbeddedRun:
    def test_constant_monitored_state_is_inert(self):
        f0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        path = zd.GeneratorPath(np.zeros((3, 3)), f0)
        psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
        traj = zd.embedded_run(psi0, path, energy=100.0, T=1.0, dt=1e-3)
        assert np.abs(traj.full_states - psi0).max() <= 1e-13
        assert np.abs(traj.alpha).max() <= 1e-13

    def test_zero_energy_is_free(self, three_level):
        traj = zd.embedded_run(
            three_level.psi_equal, three_level.path, energy=0.0, T=1.0, dt=1e-3
        )
        assert np.abs(traj.full_states - three_level.psi_equal).max() <= 1e-13

    def test_full_state_unitary(self, three_level):
        traj = zd.embedded_run(
            three_level.psi_equal, three_level.path, energy=100.0, T=1.0, dt=1e-4
        )
        assert np.abs(1.0 - traj.full_norms).max() <= 1e-9

    def test_decomposition_complete(self, three_level):
        traj = zd.embedded_run(
            three_level.psi_equal, three_level.path, energy=100.0, T=1.0, dt=1e-3
        )
        total = traj.dark_norms**2 + np.abs(traj.alpha) ** 2
        assert np.abs(total - 1.0).max() <= 1e-10

    def test_deviation_halves_with_energy(self, three_level):
        tl = three_level
        devs = {}
        for energy in (100.0, 200.0):
            dt = 0.1 / energy
            emb = zd.embedded_run(tl.psi_equal, tl.path, energy, T=2.0, dt=dt)
            ref = zd.continuous_dark_run(tl.psi_equal, tl.path, tl.H0, T=2.0, dt=dt)
            devs[energy] = np.linalg.norm(emb.dark_states - ref.states, axis=1).max()
        assert devs[100.0] / devs[200.0] == pytest.approx(2.0, abs=0.3)

    def test_resolution_error_for_coarse_step(self, three_level):
        with pytest.raises(ResolutionError):
            zd.embedded_run(
                three_level.psi_equal, three_level.path, energy=100.0, T=1.0, dt=1e-2
            )

    def test_setup_orthogonality_enforced(self, three_level):
        with pytest.raises(OrthogonalityError, match="orthogonal"):
            zd.embedded_run(
                three_level.f0, three_level.path, energy=100.0, T=1.0, dt=1e-3
            )


class TestAdiabaticAlpha:
    def test_constant_monitored_state_has_zero_residual(self):
        f0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        path = zd.GeneratorPath(np.zeros((3, 3)), f0)
        psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
        traj = zd.embedded_run(psi0, path, energy=100.0, T=1.0, dt=1e-3)
        assert zd.adiabatic_alpha_check(traj, path) <= 1e-13

    def test_residual_at_least_halves_with_energy(self, three_level):
        tl = three_level
        r100 = zd.adiabatic_alpha_check(
            zd.embedded_run(tl.psi_equal, tl.path, 100.0, T=2.0, dt=1e-3), tl.path
        )
        r200 = zd.adiabatic_alpha_check(
            zd.embedded_run(tl.psi_equal, tl.path, 200.0, T=2.0, dt=5e-4), tl.path
        )
        assert r200 <= 1.3 * r100 / 2.0

    def test_filtered_alpha_magnitude_bound(self, three_level):
        # the quasi-static magnitude bounds the slow component of alpha;
        # the raw series also carries the transient at frequency about E,
        # which the four-period average removes
        tl = three_level
        energy = 100.0
        dt = 0.1 / energy
        traj = zd.embedded_run(tl.psi_equal, tl.path, energy, T=2.0, dt=dt)
        f_grid, _ = tl.path.evaluate_many(traj.times)
        dark_dot = differentiate_series(traj.dark_states, traj.times)
        coupling = np.abs(np.einsum("ij,ij->i", f_grid.conj(), dark_dot))
        bound = coupling.max() / energy
        window = int(round(8.0 * np.pi / energy / dt))
        smooth, interior = moving_average(traj.alpha, window)
        assert np.abs(smooth[interior]).max() <= 1.5 * bound

    @pytest.mark.parametrize("energy", [100.0, 200.0])
    def test_residual_matches_stencil_coupling(self, three_level, energy):
        # the check takes <f|psidot> = -<fdot|psi> for the dark component;
        # the fourth-order stencil of the sampled dark states gives the same
        tl = three_level
        dt = 0.1 / energy
        traj = zd.embedded_run(tl.psi_equal, tl.path, energy, T=2.0, dt=dt)
        f_grid, _ = tl.path.evaluate_many(traj.times)
        dark_dot = differentiate_series(traj.dark_states, traj.times)
        coupling = np.einsum("ij,ij->i", f_grid.conj(), dark_dot)
        window = int(round(8.0 * np.pi / energy / dt))
        smooth, interior = moving_average(traj.alpha - 1j * coupling / energy, window)
        expected = np.abs(smooth[interior]).max()
        assert zd.adiabatic_alpha_check(traj, tl.path) == pytest.approx(expected, rel=1e-6)

    def test_regime_warning_for_small_energy(self, three_level):
        tl = three_level
        # 401 rows cover the 315-point window; E / speed is 8
        traj = zd.embedded_run(tl.psi_equal, tl.path, energy=8.0, T=4.0, dt=1e-2)
        with pytest.warns(RegimeWarning):
            zd.adiabatic_alpha_check(traj, tl.path)

    @pytest.mark.parametrize("T, rows", [(0.1, 101), (0.249, 250)])
    def test_run_shorter_than_one_window_rejected(self, three_level, T, rows):
        # E = 100, dt = 1e-3: the window 8 pi / E spans 251 points
        traj = zd.embedded_run(three_level.psi_equal, three_level.path, 100.0, T=T, dt=1e-3)
        assert traj.times.size == rows
        with pytest.raises(ResolutionError, match=rf"{rows} rows .* 251 points"):
            zd.adiabatic_alpha_check(traj, three_level.path)

    def test_run_of_one_window_has_one_covered_point(self, three_level):
        traj = zd.embedded_run(three_level.psi_equal, three_level.path, 100.0, T=0.25, dt=1e-3)
        assert traj.times.size == 251
        assert np.isfinite(zd.adiabatic_alpha_check(traj, three_level.path))

    def test_zero_energy_rejected(self, three_level):
        traj = zd.embedded_run(
            three_level.psi_equal, three_level.path, energy=0.0, T=1.0, dt=1e-2
        )
        with pytest.raises(InputError):
            zd.adiabatic_alpha_check(traj, three_level.path)


class TestZenoLimitRecovery:
    def test_monotone_deviation_with_expected_ratios(self, three_level):
        tl = three_level
        devs = []
        energies = [50.0, 100.0, 200.0, 400.0]
        for energy in energies:
            dt = 0.1 / energy
            emb = zd.embedded_run(tl.psi_equal, tl.path, energy, T=2.0, dt=dt)
            ref = zd.continuous_dark_run(tl.psi_equal, tl.path, tl.H0, T=2.0, dt=dt)
            devs.append(
                float(np.linalg.norm(emb.dark_states - ref.states, axis=1).max())
            )
        assert all(devs[i] > devs[i + 1] for i in range(3))
        for i in range(3):
            assert 1.7 <= devs[i] / devs[i + 1] <= 2.3


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_embedding_deviation_falls_as_one_over_energy(n, seed):
    # against the dark run refined to a 1.25e-4 step, as the CLI's E-sweep does
    psi0, path, _ = commuting_problem(n, seed)
    energies = [50.0, 100.0, 200.0, 400.0]
    deviations = []
    for energy in energies:
        dt = MAX_PHASE_STEP / energy
        emb = zd.embedded_run(psi0, path, energy, T=0.5, dt=dt)
        refine = int(np.ceil(dt / 1.25e-4 - 1e-12))
        ref = zd.continuous_dark_run(psi0, path, np.zeros((n, n)), T=0.5, dt=dt / refine)
        deviations.append(np.linalg.norm(emb.dark_states - ref.states[::refine], axis=1).max())
    slope = np.polyfit(np.log(energies), np.log(deviations), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)
