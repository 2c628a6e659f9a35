"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Timed criteria measure the computation itself; the module-scoped
warmup fixture makes the first kernel calls beforehand so one-time setup is
not billed against the physics.
"""

import json
import math
import time

import numpy as np
import pytest

import zenodark as zd
from zenodark.cli import main

from conftest import random_hermitian, random_unit


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module", autouse=True)
def warm_kernels(three_level):
    tl = three_level
    zd.discrete_dark_run(tl.psi_equal, tl.path, tl.H0, 0.1, 2)
    zd.continuous_dark_run(tl.psi_equal, tl.path, tl.H0, 0.01, 1e-3)
    zd.embedded_run(tl.psi_equal, tl.path, 50.0, 0.01, 1e-3)


def test_criterion_1_three_level_spectrum(three_level):
    started = time.perf_counter()
    r = zd.three_level_frequencies(np.ones(3) / np.sqrt(3), [0.0, 1.0, 2.0])
    exact = (1.0 + 3**-0.5, 1.0 - 3**-0.5)
    formula_ok = (
        abs(r.omega_plus - exact[0]) <= 1e-12 and abs(r.omega_minus - exact[1]) <= 1e-12
    )

    # numerical diagonalization of the complement restriction of P(0) K P(0)
    f0 = three_level.f0.astype(complex)
    P = np.eye(3) - np.outer(f0, f0.conj())
    q, _ = np.linalg.qr(np.column_stack([f0, np.eye(3)]))
    B = q[:, 1:]
    eigs = np.linalg.eigvalsh(B.conj().T @ (P @ np.diag([0.0, 1.0, 2.0]) @ P) @ B)
    numeric_ok = np.abs(eigs - [r.omega_minus, r.omega_plus]).max() <= 1e-10

    elapsed = time.perf_counter() - started
    report(
        1,
        formula_ok and numeric_ok and elapsed < 1.0,
        f"omega_pm = ({r.omega_plus:.6f}, {r.omega_minus:.6f}), "
        f"diagonalization gap {np.abs(eigs - [r.omega_minus, r.omega_plus]).max():.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_unitarity_in_the_limit(three_level, three_level_slow):
    started = time.perf_counter()
    taus = [1e-2, 5e-3, 2.5e-3]
    deficits = []
    for tau in taus:
        traj = zd.discrete_dark_run(
            three_level.psi_equal, three_level.path, three_level.H0, tau, int(round(1.0 / tau))
        )
        deficits.append(1.0 - traj.survival_probability[-1])
    slope = float(np.polyfit(np.log(taus), np.log(deficits), 1)[0])

    slow = three_level_slow
    norm_dev = 0.0
    for psi0 in (slow.psi_equal, slow.mode_a):
        cont = zd.continuous_dark_run(psi0, slow.path, slow.H0, T=10.0, dt=1e-3)
        norm_dev = max(norm_dev, float(np.abs(1.0 - cont.norms).max()))

    elapsed = time.perf_counter() - started
    report(
        2,
        abs(slope - 1.0) <= 0.1 and norm_dev <= 1e-12 and elapsed < 10.0,
        f"deficit slope {slope:.3f} (target 1.0 +- 0.1), "
        f"max |1 - norm| {norm_dev:.2e} (<= 1e-12) over two runs at dt=1e-3 T=10, {elapsed:.2f}s",
    )


def test_criterion_3_orthogonality_preservation(three_level, three_level_slow):
    tl, slow = three_level, three_level_slow
    H_comm = np.diag([0.3, -0.2, 0.5])
    psi_comm = _commuting_initial_state(tl, H_comm)
    traj_target, designed = zd.mode_design([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])

    runs = {
        "slow path, dt=1e-3, T=10": zd.continuous_dark_run(
            slow.psi_equal, slow.path, slow.H0, 10.0, 1e-3
        ),
        "slow path single mode, dt=1e-3, T=10": zd.continuous_dark_run(
            slow.mode_a, slow.path, slow.H0, 10.0, 1e-3
        ),
        "fast path, dt=1e-4, T=5": zd.continuous_dark_run(
            tl.psi_equal, tl.path, tl.H0, 5.0, 1e-4
        ),
        "commuting H, dt=1e-4, T=5": zd.continuous_dark_run(
            psi_comm, tl.path, H_comm, 5.0, 1e-4
        ),
        "cyclic, dt=1e-4, T=2pi": zd.continuous_dark_run(
            tl.psi_equal, tl.path, tl.H0, 2.0 * np.pi, 1e-4
        ),
        "designed path, dt=1e-4, T=5": zd.continuous_dark_run(
            traj_target.state_at(0.0), designed, np.zeros((3, 3)), 5.0, 1e-4
        ),
        "embedding reference, dt=1.25e-4, T=2": zd.continuous_dark_run(
            tl.psi_equal, tl.path, tl.H0, 2.0, 1.25e-4
        ),
    }
    residuals = {name: float(t.orthogonality_residual.max()) for name, t in runs.items()}
    worst = max(residuals.values())
    report(
        3,
        worst <= 1e-8,
        "max |<f(t)|psi(t)>| over all continuous runs "
        + ", ".join(f"{name}: {value:.2e}" for name, value in residuals.items()),
    )


def _commuting_initial_state(tl, H):
    s = zd.zeno_spectrum(H, tl.K, tl.f0, np.array([1.0, -1.0, 0.0]) / np.sqrt(2))
    return (s.modes[:, 0] + s.modes[:, 1]) / np.sqrt(2)


def test_criterion_4_closed_form_vs_integrator(three_level):
    tl = three_level
    cases = {"H = 0": (tl.H0, tl.psi_equal)}
    H_comm = np.diag([0.3, -0.2, 0.5])
    cases["commuting H"] = (H_comm, _commuting_initial_state(tl, H_comm))

    fidelities = {}
    for label, (H, psi0) in cases.items():
        traj = zd.continuous_dark_run(psi0, tl.path, H, T=5.0, dt=1e-4)
        reference = zd.closed_form_run(psi0, tl.path, H, T=5.0, dt=1e-4)
        overlaps = np.abs(
            np.einsum("ij,ij->i", reference.states.conj(), traj.states)
        )
        fidelities[label] = float(overlaps.min())
    ok = all(f >= 1.0 - 1e-8 for f in fidelities.values())
    report(
        4,
        ok,
        ", ".join(f"{k}: min fidelity {v:.12f}" for k, v in fidelities.items())
        + " (target >= 1 - 1e-8 at dt=1e-4, T=5)",
    )


def test_criterion_5_cyclic_non_return(three_level):
    tl = three_level
    expected = math.cos(2.0 * math.pi / math.sqrt(3.0)) ** 2
    spectrum = zd.zeno_spectrum(tl.H0, tl.K, tl.f0, tl.psi_equal)
    weights = np.abs(spectrum.coefficients) ** 2
    assert np.abs(weights - 0.5).max() <= 1e-12  # c_pm = 1/sqrt(2)

    period = zd.period_of(tl.path)
    expansion_sq = zd.cyclic_return_fidelity(spectrum, period) ** 2
    traj = zd.continuous_dark_run(tl.psi_equal, tl.path, tl.H0, T=period, dt=1e-4)
    simulated_sq = float(abs(np.vdot(tl.psi_equal, traj.states[-1])) ** 2)

    ok = (
        abs(period - 2.0 * math.pi) <= 1e-9
        and abs(expansion_sq - expected) <= 1e-3
        and abs(simulated_sq - expected) <= 1e-3
    )
    report(
        5,
        ok,
        f"fidelity^2: expansion {expansion_sq:.6f}, simulation {simulated_sq:.6f}, "
        f"target cos^2(2pi/sqrt3) = {expected:.6f} within 1e-3",
    )


def test_criterion_6_inverse_design_round_trip(three_level, tmp_path):
    dt = 1e-4
    target, designed = zd.mode_design([0.5, 0.25, 0.25], [0.0, 2.0, -2.0])
    forward = zd.continuous_dark_run(
        target.state_at(0.0), designed, np.zeros((3, 3)), T=5.0, dt=dt
    )
    targets = target.states_on(forward.times)
    fidelity = float(
        np.abs(np.einsum("ij,ij->i", targets.conj(), forward.states)).min()
    )
    transport = zd.parallel_transport_residual(forward)

    config = {
        "dimension": 3,
        "hamiltonian": "zero",
        "path": {
            "type": "designed",
            "probabilities": [0.5, 0.25, 0.25],
            "frequencies": [0.0, 2.0, -1.0],
        },
        "run": {"mode": "inverse", "T": 1.0, "dt": 1e-3},
        "output": {"directory": str(tmp_path / "out")},
    }
    config_path = tmp_path / "bad_design.json"
    config_path.write_text(json.dumps(config))
    exit_code = main(["design", str(config_path), "--quiet"])

    ok = fidelity >= 1.0 - 1e-6 and transport <= 10.0 * dt and exit_code == 3
    report(
        6,
        ok,
        f"round-trip min fidelity {fidelity:.9f} (>= 1 - 1e-6), "
        f"parallel-transport residual {transport:.2e} (<= {10 * dt:.0e}), "
        f"constraint violation exit code {exit_code} (expect 3)",
    )


def test_criterion_7_energy_embedding(three_level):
    tl = three_level
    started = time.perf_counter()
    energies = [50.0, 100.0, 200.0, 400.0]
    deviations = []
    for energy in energies:
        dt = 0.1 / energy
        emb = zd.embedded_run(tl.psi_equal, tl.path, energy, T=2.0, dt=dt)
        # reference on a refined grid, subsampled onto the embedded grid, so
        # the integrator's own drift stays far below the 1/E effect
        refine = max(1, int(np.ceil(dt / 1.25e-4 - 1e-12)))
        ref = zd.continuous_dark_run(tl.psi_equal, tl.path, tl.H0, T=2.0, dt=dt / refine)
        deviations.append(
            float(np.linalg.norm(emb.dark_states - ref.states[::refine], axis=1).max())
        )
    monotone = all(deviations[i] > deviations[i + 1] for i in range(3))
    ratios = [deviations[i] / deviations[i + 1] for i in range(3)]
    ratios_ok = all(1.7 <= r <= 2.3 for r in ratios)
    slope = float(np.polyfit(np.log(energies), np.log(deviations), 1)[0])

    r100 = zd.adiabatic_alpha_check(
        zd.embedded_run(tl.psi_equal, tl.path, 100.0, T=2.0, dt=1e-3), tl.path
    )
    r200 = zd.adiabatic_alpha_check(
        zd.embedded_run(tl.psi_equal, tl.path, 200.0, T=2.0, dt=5e-4), tl.path
    )
    halving_ok = r200 <= 1.3 * r100 / 2.0

    elapsed = time.perf_counter() - started
    ok = (
        monotone
        and ratios_ok
        and abs(slope + 1.0) <= 0.15
        and halving_ok
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"deviations {['%.3e' % d for d in deviations]}, ratios "
        f"{['%.2f' % r for r in ratios]}, slope {slope:.3f} (-1.0 +- 0.15), "
        f"alpha residual {r100:.2e} -> {r200:.2e} (halving within 30%), {elapsed:.1f}s",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(1234)
    started = time.perf_counter()

    worst_herm = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        H = random_hermitian(rng, n)
        f = random_unit(rng, n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fdot = g - np.real(np.vdot(f, g)) * f
        hd = zd.effective_hamiltonian(H, f, fdot)
        worst_herm = max(worst_herm, float(np.abs(hd - hd.conj().T).max()))
    herm_ok = worst_herm <= 1e-12

    worst_proj = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        P = zd.projector_from_state(random_unit(rng, n))
        worst_proj = max(worst_proj, float(np.abs(P @ P - P).max()))
    proj_ok = worst_proj <= 1e-12

    worst_unitary = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        U = zd.unitary_exp(random_hermitian(rng, n), float(rng.uniform(-5.0, 5.0)))
        worst_unitary = max(
            worst_unitary, float(np.abs(U @ U.conj().T - np.eye(n)).max())
        )
    unitary_ok = worst_unitary <= 1e-12

    worst_spectrum = 0.0
    for _ in range(1000):
        a = random_unit(rng, 3)
        Omega = rng.uniform(-5.0, 5.0, 3)
        r = zd.three_level_frequencies(a, Omega)
        P = np.eye(3) - np.outer(a, a.conj())
        q, _ = np.linalg.qr(np.column_stack([a, np.eye(3)]))
        B = q[:, 1:]
        eigs = np.linalg.eigvalsh(B.conj().T @ (P @ np.diag(Omega) @ P) @ B)
        worst_spectrum = max(
            worst_spectrum, float(np.abs(eigs - [r.omega_minus, r.omega_plus]).max())
        )
    spectrum_ok = worst_spectrum <= 1e-10

    elapsed = time.perf_counter() - started
    ok = herm_ok and proj_ok and unitary_ok and spectrum_ok and elapsed < 30.0
    report(
        8,
        ok,
        f"1000x each: hermiticity {worst_herm:.2e} (<=1e-12), projector "
        f"{worst_proj:.2e} (<=1e-12), unitarity {worst_unitary:.2e} (<=1e-12), "
        f"spectrum oracle {worst_spectrum:.2e} (<=1e-10), {elapsed:.1f}s",
    )
