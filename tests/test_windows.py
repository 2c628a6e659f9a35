"""Runs sampled one window at a time: bitwise prefixes and bounded memory.

Every integrated run samples its path and calls its kernel one window of
whole kernel chunks at a time.  The property gate: for every path type and
run mode, a k-step run is bitwise the first k + 1 rows of a longer run,
including k = 1 and the window edges, where a window's tail is a single row.
The memory gates: a long run holds its own rows and a fixed window allowance,
and writing its CSV takes memory that does not grow with the row count.
"""

import functools
import io
import tracemalloc

import numpy as np
import pytest
from conftest import commuting_problem, random_unit
from hypothesis import example, given, settings, strategies as st

import zenodark as zd
from zenodark.dynamics import (
    _closed_form_windows,
    _continuous_windows,
    _discrete_windows,
    windows,
)
from zenodark.embedding import _embedded_windows
from zenodark.errors import OrthogonalityError
from zenodark.tolerances import DEFAULT
from zenodark.trajectory import write_rows

DT = 1e-3
ENERGY = 50.0  # dt = 1e-3 resolves it: E dt <= 0.1


@functools.cache
def window(n):
    return windows(1 << 20, n)[0][1]


@functools.cache
def problem(kind, n):
    """``(psi0, path, H)`` with psi0 orthogonal to f(0) and, for paths with a
    generator, an H commuting with it."""
    psi0, generator, H = commuting_problem(n, 11)
    rng = np.random.default_rng(n)
    if kind == "generator":
        return psi0, generator, H
    if kind == "modes":
        basis = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        path = zd.ModePath(random_unit(rng, n), rng.uniform(-1.0, 1.0, n), basis)
        H = (basis * rng.uniform(-1.0, 1.0, n)) @ basis.conj().T
        psi0 = random_unit(rng, n)
        psi0 -= np.vdot(path.initial_state, psi0) * path.initial_state
        return psi0 / np.linalg.norm(psi0), path, H
    if kind == "samples":
        times = np.linspace(0.0, 2.0 * DT * window(n), 4001)
        return psi0, zd.SampledPath(times, generator.evaluate_many(times)[0]), H
    # kind == "designed": a parallel-transported mode target, designed for H = 0
    p = rng.dirichlet(np.ones(n))
    nu = rng.uniform(-1.0, 1.0, n)
    nu -= p @ nu
    target = zd.PrescribedTrajectory(n, zd.ModeTrajectory(p, nu).states_on)
    design = zd.design_monitored_state(target, np.zeros((n, n)), np.linspace(0.0, 1.0, 1001))
    return target.state_at(0.0), design.path, H


def run(kind, mode, n, steps):
    psi0, path, H = problem(kind, n)
    T = steps * DT
    if mode == "discrete":
        traj = zd.discrete_dark_run(psi0, path, H, DT, steps)
    elif mode == "continuous, H = 0":
        traj = zd.continuous_dark_run(psi0, path, np.zeros_like(H), T, DT)
    elif mode == "continuous, H != 0":
        traj = zd.continuous_dark_run(psi0, path, H, T, DT)
    elif mode == "closed form":
        traj = zd.closed_form_run(psi0, path, H, T, DT)
    else:  # mode == "embedded"
        traj = zd.embedded_run(psi0, path, ENERGY, T, DT)
        return traj.times, traj.full_states, traj.dark_states, traj.alpha
    arrays = (traj.states, traj.norms, traj.survival_probability, traj.orthogonality_residual)
    return (traj.times, *arrays)


@functools.cache
def longer_run(kind, mode, n):
    return run(kind, mode, n, window(n) + 2)


MODES = ["discrete", "continuous, H = 0", "continuous, H != 0", "closed form", "embedded"]
CASES = [
    (kind, mode)
    for kind in ("generator", "modes", "samples", "designed")
    for mode in MODES
    if mode != "closed form" or kind in ("generator", "modes")
]


@st.composite
def steps_at(draw):
    # (dimension, steps): a few steps, or a window's length -1, 0 or +1
    n = draw(st.sampled_from([3, 6]))
    edges = [window(n) - 1, window(n), window(n) + 1]
    return n, draw(st.one_of(st.integers(1, 40), st.sampled_from(edges)))


@pytest.mark.parametrize("kind, mode", CASES)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(case=steps_at())
@example(case=(3, 1))
@example(case=(3, window(3) - 1))
@example(case=(3, window(3)))
@example(case=(3, window(3) + 1))
@example(case=(6, 1))
@example(case=(6, window(6) + 1))
def test_a_run_is_the_bitwise_prefix_of_a_longer_run(kind, mode, case):
    n, steps = case
    longer = longer_run(kind, mode, n)
    for short, long in zip(run(kind, mode, n, steps), longer, strict=True):
        assert np.array_equal(short.view(np.uint64), long[: steps + 1].view(np.uint64))


@pytest.mark.parametrize("kind", ["generator", "modes", "samples", "designed"])
def test_one_point_grid_is_a_row_of_a_longer_grid(kind):
    _, path, _ = problem(kind, 6)
    ts = np.linspace(0.0, 1.0, 51)
    f, fdot = path.evaluate_many(ts)
    for i in (0, 1, 50):
        one = path.evaluate(ts[i])
        assert np.array_equal(one[0].view(np.uint64), f[i].view(np.uint64))
        assert np.array_equal(one[1].view(np.uint64), fdot[i].view(np.uint64))


@pytest.mark.parametrize("kind", ["generator", "modes"])
def test_closed_form_solution_is_a_row_of_the_closed_form_run(kind):
    psi0, path, H = problem(kind, 6)
    traj = zd.closed_form_run(psi0, path, H, 0.05, DT)
    for i in (1, 2, 50):
        one = zd.closed_form_solution(psi0, H, path.generator, path.initial_state, traj.times[i])
        assert np.array_equal(one.view(np.uint64), traj.states[i].view(np.uint64))


def test_windows_cover_the_count_in_whole_kernel_chunks():
    from zenodark.dynamics import _WINDOW_CHUNKS
    from zenodark.kernels import _chunk_steps

    width = _WINDOW_CHUNKS * _chunk_steps(3)
    for n, count in ((3, 1), (3, width), (3, width + 1), (6, 10_000)):
        ranges = windows(count, n)
        assert ranges[0][0] == 0 and ranges[-1][1] == count
        assert all(b == c for (_, b), (c, _) in zip(ranges, ranges[1:]))
        assert all((b - a) % (_WINDOW_CHUNKS * _chunk_steps(n)) == 0 for a, b in ranges[:-1])
    assert window(3) == width


PRODUCERS = {
    "discrete": lambda psi0, path, H: _discrete_windows(psi0, path, H, DT, 10, DEFAULT),
    "continuous, grid": lambda psi0, path, H: _continuous_windows(
        psi0, path, H, 10 * DT, DT, DEFAULT, grid=True
    ),
    "continuous": lambda psi0, path, H: _continuous_windows(
        psi0, path, H, 10 * DT, DT, DEFAULT, grid=False
    ),
    "closed form": lambda psi0, path, H: _closed_form_windows(psi0, path, H, 10 * DT, DT, DEFAULT),
    "embedded": lambda psi0, path, H: _embedded_windows(psi0, path, ENERGY, 10 * DT, DT, DEFAULT),
}


@pytest.mark.parametrize("mode", PRODUCERS)
def test_a_producer_checks_its_setup_when_it_is_made(mode):
    # an initial state on f(0) fails at the call, before any window is made
    _, path, H = problem("generator", 3)
    with pytest.raises(OrthogonalityError):
        PRODUCERS[mode](path.evaluate(0.0)[0], path, H)


def traced_peak(fn):
    # (result, traced peak above the memory held on entry)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - entry


# What a continuous run holds besides its own rows: one window of the sampled
# path and the kernel's output for it, measured at 1.13 MiB for this run at
# N = 3.  Sampling the whole run at once held 43 MiB more.
WINDOW_ALLOWANCE = 2 << 20


def assert_holds_its_rows_and_one_window(run):
    traj, peak = traced_peak(run)
    assert traj.times.size == 200_001
    held = sum(
        a.nbytes
        for a in (
            traj.times,
            traj.states,
            traj.norms,
            traj.survival_probability,
            traj.orthogonality_residual,
        )
    )
    assert peak <= held + WINDOW_ALLOWANCE


def test_long_run_holds_its_rows_and_one_window():
    psi0, path, _ = problem("generator", 3)
    assert_holds_its_rows_and_one_window(
        lambda: zd.continuous_dark_run(psi0, path, np.zeros((3, 3)), 200.0, DT)
    )


def test_long_closed_form_run_holds_its_rows_and_one_window():
    # evaluating the whole grid at once held 32 MiB above the rows
    psi0, path, H = problem("generator", 3)
    assert_holds_its_rows_and_one_window(lambda: zd.closed_form_run(psi0, path, H, 200.0, DT))


class Sink:
    def write(self, text):
        pass


def test_csv_writer_memory_does_not_grow_with_rows(rng):
    def peak(m):
        states = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
        norms = np.linalg.norm(states, axis=1)
        traj = zd.DarkTrajectory(
            times=DT * np.arange(m),
            states=states,
            norms=norms,
            survival_probability=norms**2,
            orthogonality_residual=np.abs(rng.standard_normal(m)),
            mode="continuous",
            step=DT,
        )
        return traced_peak(lambda: traj.write_csv(Sink()))[1]

    # stacking the rows would add 80 B per row, 12 MB over the extra rows
    assert peak(200_000) - peak(50_000) <= 64 << 10


def test_csv_writer_memory_does_not_grow_with_columns(rng):
    # 132,000 values as 13,200 rows of 10 columns or 1,000 rows of 132 (the
    # state columns at N = 64): blocks of whole rows that hold about the same
    # number of values take about the same scratch.  Blocks of a fixed row
    # count took 39 MiB at 132 columns against 3.3 MiB at 10.
    def peak(m, n):
        rows = rng.standard_normal((m, n))
        columns = [f"c{j}" for j in range(n)]
        return traced_peak(lambda: write_rows(Sink(), columns, rows))[1]

    assert peak(1_000, 132) <= peak(13_200, 10) + (64 << 10)


def test_csv_writer_scratch_for_a_design_run(rng):
    # The 50,001 rows of a 50,000-step design run, 10 columns: one block's
    # rows, frames, keep masks and text, and one stage's temporaries at a
    # time.  Blocks of 10,240 values whose temporaries all lived to the end
    # of the block peaked at 3.26 MiB.
    rows = rng.standard_normal((50_001, 10))
    columns = [f"c{j}" for j in range(10)]
    assert traced_peak(lambda: write_rows(Sink(), columns, rows))[1] <= 1.6 * 2**20


def embedded_trajectory(rng, m):
    def states():
        return rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))

    return zd.EmbeddedTrajectory(
        times=DT * np.arange(m),
        full_states=states(),
        dark_states=states(),
        alpha=rng.standard_normal(m) + 1j * rng.standard_normal(m),
        energy=ENERGY,
        step=DT,
    )


def test_embedded_csv_is_the_whole_column_table(rng):
    # the norm and |alpha| columns, derived a block at a time, are the
    # whole-run columns: 1,234 rows span several writer blocks and a part
    traj = embedded_trajectory(rng, 1_234)
    dark, alpha = traj.dark_states, traj.alpha
    norms = np.linalg.norm(dark, axis=1)
    whole = io.StringIO()
    columns = (norms, norms**2, np.abs(alpha), alpha.real, alpha.imag)
    write_rows(whole, traj.csv_columns(), traj.times, dark.real, dark.imag, *columns)
    blocks = io.StringIO()
    traj.write_csv(blocks)
    assert blocks.getvalue() == whole.getvalue()


def test_csv_writer_scratch_for_an_embedded_run(rng):
    # 200,001 rows at N = 3: whole-run norm, norm**2 and |alpha| columns
    # took 12.21 MiB; a DarkTrajectory of the same length takes 1.00 MiB
    traj = embedded_trajectory(rng, 200_001)
    assert traced_peak(lambda: traj.write_csv(Sink()))[1] <= 1.6 * 2**20
