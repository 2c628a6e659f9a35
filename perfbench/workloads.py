"""Seed-driven workloads: scenario files, step counts and output checks.

Each workload is a fixed list of CLI jobs built from ``numpy.random`` draws
of one seed, so the same seed always gives the same scenario files.  Sizes
follow the committed scenarios in ``scenarios/``.  Every job carries the
bounds its summary JSON must meet; the tolerances are the ones
``tests/test_acceptance.py`` gates on, not the 1e-12 norm figure, which the
committed continuous scenario itself misses (1.34e-12).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIDELITY_FLOOR = 1.0 - 1e-6
NORM_DRIFT_CAP = 1e-8
SLOPE_SLACK = 0.1

# The CLI refines embedded-mode reference runs to this step; it is part of
# how many continuous steps an E-sweep point performs at this input size.
REFERENCE_DT = 1.25e-4


@dataclass(frozen=True)
class Bound:
    """``lo <= value <= hi`` for one number read from a summary JSON."""

    label: str
    read: object  # summary dict -> float
    lo: float = -math.inf
    hi: float = math.inf

    def violation(self, summary: dict) -> str | None:
        try:
            value = float(self.read(summary))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"{self.label}: missing ({exc!r})"
        if not (self.lo <= value <= self.hi):
            return f"{self.label} = {value!r} outside [{self.lo!r}, {self.hi!r}]"
        return None


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its outputs must satisfy."""

    command: str
    config: Path
    steps: int
    bounds: tuple[Bound, ...]
    csv: bool

    @property
    def name(self) -> str:
        return self.config.stem

    def argv(self, out_dir: Path) -> list[str]:
        return [self.command, str(self.config), "--out", str(out_dir), "--quiet"]


def metric(key: str):
    return lambda summary: summary["metrics"][key]


def norm_bound() -> Bound:
    return Bound("max_norm_deviation", metric("max_norm_deviation"), hi=NORM_DRIFT_CAP)


def fidelity_bound(key: str) -> Bound:
    return Bound(key, metric(key), lo=FIDELITY_FLOOR)


def slope_bound(target: float) -> Bound:
    return Bound("slope", metric("slope"), target - SLOPE_SLACK, target + SLOPE_SLACK)


# --- random inputs -----------------------------------------------------------


def _unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _orthogonal_unit(rng, f):
    v = _unit(rng, f.size)
    v = v - np.vdot(f, v) * f
    return v / np.linalg.norm(v)


def _hermitian_with_basis(basis, eigenvalues):
    A = (basis * eigenvalues) @ basis.conj().T
    return 0.5 * (A + A.conj().T)


def _random_basis(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _log_bins(values, lo, hi, count):
    """``values`` split into ``count`` bins of equal log width over [lo, hi]."""
    edges = np.linspace(math.log(lo), math.log(hi), count + 1)
    edges[-1] = math.inf
    return [[v for v in values if a <= math.log(v) < b] for a, b in zip(edges[:-1], edges[1:])]


def _log_stratified(rng, lo, hi, count):
    """One log-uniform draw from each of ``count`` equal log-width bins."""
    edges = np.linspace(math.log(lo), math.log(hi), count + 1)
    return [float(math.exp(rng.uniform(a, b))) for a, b in zip(edges[:-1], edges[1:])]


def _vector(v):
    return [[float(z.real), float(z.imag)] for z in v]


def _matrix(A):
    return [_vector(row) for row in A]


def _generator_block(K, f0):
    return {"type": "generator", "generator": _matrix(K), "initial_state": _vector(f0)}


def _system(rng, n, hamiltonian: bool, scale=2.0):
    """Generator K, Hamiltonian H commuting with it (or zero), f0 and psi0 ⟂ f0."""
    basis = _random_basis(rng, n)
    K = _hermitian_with_basis(basis, rng.uniform(-scale, scale, n))
    if hamiltonian:
        H = _hermitian_with_basis(basis, rng.uniform(-scale, scale, n))
    else:
        H = np.zeros((n, n), dtype=np.complex128)
    f0 = _unit(rng, n)
    return K, H, f0, _orthogonal_unit(rng, f0)


def _scenario(n, H, psi0, path, run, formats, sweep=None):
    payload = {
        "dimension": n,
        "hamiltonian": _matrix(H) if np.any(H) else "zero",
        "path": path,
        "output": {"directory": "out", "formats": formats},
    }
    if psi0 is not None:
        payload["initial_state"] = _vector(psi0)
    if run is not None:
        payload["run"] = run
    if sweep is not None:
        payload["sweep"] = sweep
    return payload


def _write(directory: Path, name: str, payload: dict) -> Path:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(payload))
    return path


def _steps(T, dt):
    return int(round(T / dt))


def _embedded_steps(T, dt):
    """Embedded steps plus the refined continuous reference the CLI runs."""
    steps = _steps(T, dt)
    refine = max(1, math.ceil(dt / REFERENCE_DT - 1e-12))
    return steps + steps * refine


# --- workloads ---------------------------------------------------------------


def trajectory(rng, directory: Path) -> list[Job]:
    """Inverse design (50,000 steps) and a continuous run (10,000 steps), CSV out."""
    formats = ["csv", "json"]
    # three populated modes with sum p nu = 0: solve for the largest p's frequency
    p = 0.1 + 0.7 * rng.dirichlet(np.ones(3))
    nu = rng.uniform(-3.0, 3.0, 3)
    j = int(np.argmax(p))
    others = [k for k in range(3) if k != j]
    nu[j] = -sum(p[k] * nu[k] for k in others) / p[j]
    design = _scenario(
        3,
        np.zeros((3, 3)),
        None,
        {"type": "designed", "probabilities": p.tolist(), "frequencies": nu.tolist()},
        {"mode": "inverse", "T": 5.0, "dt": 1e-4},
        formats,
    )
    K, H, f0, psi0 = _system(rng, 3, hamiltonian=False)
    continuous = _scenario(
        3, H, psi0, _generator_block(K, f0), {"mode": "continuous", "T": 10.0, "dt": 1e-3}, formats
    )
    return [
        Job(
            "design",
            _write(directory, "traj_design", design),
            _steps(5.0, 1e-4),
            (fidelity_bound("roundtrip_min_fidelity"),),
            csv=True,
        ),
        Job(
            "run",
            _write(directory, "traj_continuous", continuous),
            _steps(10.0, 1e-3),
            (norm_bound(), fidelity_bound("final_fidelity_vs_closed_form")),
            csv=True,
        ),
    ]


def sweep(rng, directory: Path) -> list[Job]:
    """An E-sweep of the energy embedding and a discrete tau-sweep."""
    formats = ["csv", "json"]
    T, dt = 2.0, 1e-3
    # E is drawn from the whole numbers whose points cost what the committed
    # sweep's (50, 100, 200, 400) cost: E <= 100 or 800/E whole, so every
    # refined reference run has 16,000 steps and a pass does the same work
    # for every seed.  Whole numbers also keep clear of a known defect: where
    # T*E/0.1 is not whole the CLI rounds the step count down and rejects its
    # own step as too coarse for E (exit 2).
    grid = [E for E in range(50, 401) if E <= 100 or 800 % E == 0]
    energies = [float(rng.choice(b)) for b in _log_bins(grid, 50.0, 400.0, 4)]
    K, H, f0, psi0 = _system(rng, 3, hamiltonian=False)
    e_sweep = _scenario(
        3,
        H,
        psi0,
        _generator_block(K, f0),
        {"mode": "embedded", "T": T, "dt": dt, "E": energies[0]},
        formats,
        {"parameter": "E", "values": energies},
    )
    # the CLI shrinks dt to resolve each E, then 1/E is fitted across points
    e_steps = 0
    for E in energies:
        steps = _steps(T, min(dt, 0.1 / E))
        e_steps += _embedded_steps(T, T / steps)

    taus = _log_stratified(rng, 2.5e-3, 1e-2, 3)
    K, H, f0, psi0 = _system(rng, 3, hamiltonian=False)
    tau_sweep = _scenario(
        3,
        H,
        psi0,
        _generator_block(K, f0),
        {"mode": "discrete", "tau": taus[0], "T": 1.0},
        formats,
        {"parameter": "tau", "values": taus},
    )
    return [
        Job("sweep", _write(directory, "sweep_energy", e_sweep), e_steps, (slope_bound(-1.0),), csv=False),
        Job(
            "sweep",
            _write(directory, "sweep_tau", tau_sweep),
            sum(_steps(1.0, tau) for tau in taus),
            (slope_bound(1.0),),
            csv=False,
        ),
    ]


def _discrete_survival(K, H, f0, psi0, tau, M):
    """Independent loop for ``psi_n = (1 - f_n f_n^dag) exp(-i H tau) psi_{n-1}``."""
    wk, vk = np.linalg.eigh(K)
    wh, vh = np.linalg.eigh(H)
    U = (vh * np.exp(-1j * wh * tau)) @ vh.conj().T
    coeff = vk.conj().T @ f0
    psi = psi0.copy()
    for m in range(1, M + 1):
        f = vk @ (np.exp(-1j * wk * m * tau) * coeff)
        f = f / np.linalg.norm(f)
        psi = U @ psi
        psi = psi - np.vdot(f, psi) * f
    return float(np.vdot(psi, psi).real)


def _complement_spectrum(K, H, f0):
    """Eigenvalues of ``P0 (H - K) P0`` with the one belonging to f0 removed."""
    P0 = np.eye(f0.size) - np.outer(f0, f0.conj())
    w = np.linalg.eigvalsh(P0 @ (H - K) @ P0)
    return np.sort(np.delete(w, np.argmin(np.abs(w))))


def small_dense(rng, directory: Path) -> list[Job]:
    """Five short N=6 jobs with a non-zero H commuting with K, JSON output only."""
    n, formats = 6, ["json"]
    K, H, f0, psi0 = _system(rng, n, hamiltonian=True)
    generator = _generator_block(K, f0)
    tau, M = 1e-3, 2000
    T, dt = 2.0, 1e-3

    survival = _discrete_survival(K, H, f0, psi0, tau, M)
    discrete = _scenario(n, H, psi0, generator, {"mode": "discrete", "tau": tau, "M": M}, formats)
    closed = _scenario(n, H, psi0, generator, {"mode": "closed_form", "T": T, "dt": dt}, formats)

    wk, vk = np.linalg.eigh(K)
    times = np.linspace(0.0, T, 401)
    samples = (np.exp(-1j * np.outer(times, wk)) * (vk.conj().T @ f0)) @ vk.T
    sampled = _scenario(
        n,
        H,
        psi0,
        {"type": "samples", "times": times.tolist(), "samples": [_vector(s) for s in samples]},
        {"mode": "continuous", "T": T, "dt": dt},
        formats,
    )

    energy, e_T, e_dt = float(rng.uniform(150.0, 400.0)), 0.5, 2.5e-4
    embedded = _scenario(
        n,
        np.zeros((n, n)),
        psi0,
        generator,
        {"mode": "embedded", "T": e_T, "dt": e_dt, "E": energy},
        formats,
    )

    omegas = _complement_spectrum(K, H, f0)
    spectrum = _scenario(n, H, psi0, generator, None, formats)

    def omega_error(summary):
        return np.abs(np.sort(summary["metrics"]["omegas"]) - omegas).max()

    def weight_error(summary):
        return abs(sum(summary["spectrum"]["weights"]) - 1.0)

    return [
        Job(
            "run",
            _write(directory, "dense_discrete", discrete),
            M,
            (
                Bound(
                    "final_survival_probability",
                    metric("final_survival_probability"),
                    survival * (1.0 - 1e-9),
                    survival * (1.0 + 1e-9),
                ),
            ),
            csv=False,
        ),
        Job(
            "run",
            _write(directory, "dense_closed_form", closed),
            _steps(T, dt),
            (fidelity_bound("min_fidelity_vs_integrator"),),
            csv=False,
        ),
        Job(
            "run",
            _write(directory, "dense_sampled", sampled),
            _steps(T, dt),
            (norm_bound(),),
            csv=False,
        ),
        Job(
            "run",
            _write(directory, "dense_embedded", embedded),
            _embedded_steps(e_T, e_dt),
            (
                Bound(
                    "max_full_norm_deviation", metric("max_full_norm_deviation"), hi=NORM_DRIFT_CAP
                ),
                # the dark-state deviation falls off as 1/E (about 0.1/E here)
                Bound("deviation_from_dark", metric("deviation_from_dark"), hi=1.0 / energy),
            ),
            csv=False,
        ),
        Job(
            "spectrum",
            _write(directory, "dense_spectrum", spectrum),
            0,
            (
                Bound("omegas_vs_eigvalsh", omega_error, hi=1e-9),
                Bound("sum_of_weights", weight_error, hi=1e-10),
            ),
            csv=False,
        ),
    ]


WORKLOADS = {"trajectory": trajectory, "sweep": sweep, "small-dense": small_dense}


def committed(root: Path) -> list[Job]:
    """The five committed scenarios, each run once with the same checks."""
    scenarios = root / "scenarios"
    specs = [
        ("run", "continuous_three_level", (norm_bound(), fidelity_bound("final_fidelity_vs_closed_form"))),
        ("sweep", "discrete_tau_sweep", (slope_bound(1.0),)),
        ("sweep", "embedding_energy_sweep", (slope_bound(-1.0),)),
        ("spectrum", "spectrum_three_level", ()),
        ("design", "inverse_design", (fidelity_bound("roundtrip_min_fidelity"),)),
    ]
    return [
        Job(command, scenarios / f"{name}.json", 0, bounds, csv=True)
        for command, name, bounds in specs
    ]
