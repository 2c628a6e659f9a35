import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zenodark.trajectory import (
    _CSV_BLOCK_VALUES,
    DarkTrajectory,
    EmbeddedTrajectory,
    format_float,
    write_rows,
)


def block_rows(n):
    # rows the writer formats at a time in a table of n columns
    return max(1, _CSV_BLOCK_VALUES // n)


# a block of the 10-column trajectory CSVs
_CSV_BLOCK_ROWS = block_rows(10)


def written(rows, columns=None):
    columns = columns or [f"c{j}" for j in range(np.shape(rows)[1])]
    stream = io.StringIO()
    write_rows(stream, columns, rows)
    return stream.getvalue()


def expected(rows, columns=None):
    # the reference: one format_float call per value
    columns = columns or [f"c{j}" for j in range(np.shape(rows)[1])]
    lines = [",".join(format_float(x) for x in row) + "\n" for row in np.asarray(rows).tolist()]
    return "#schema=1 " + ",".join(columns) + "\n" + "".join(lines)


def from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def test_csv_rows_match_per_value_format(rng):
    # more rows than one conversion block, and values whose text is easy to get wrong
    m, n = 600, 3
    states = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    states[0] = [complex(-0.0, 5e-324), complex(1.5, -1e-300), complex(np.pi, -0.0)]
    norms = np.linalg.norm(states, axis=1)
    orth = np.abs(rng.standard_normal(m))
    orth[0] = 1e300
    traj = DarkTrajectory(
        times=1e-3 * np.arange(m),
        states=states,
        norms=norms,
        survival_probability=norms**2,
        orthogonality_residual=orth,
        mode="continuous",
        step=1e-3,
    )
    stream = io.StringIO()
    traj.write_csv(stream)

    rows = np.column_stack(
        [
            traj.times,
            states.real,
            states.imag,
            traj.norms,
            traj.survival_probability,
            traj.orthogonality_residual,
        ]
    )
    assert stream.getvalue() == expected(rows, traj.csv_columns())
    assert stream.getvalue().splitlines()[1].split(",")[1] == "-0"


def test_embedded_csv_rows_match_per_value_format(rng):
    m, n = 40, 3
    dark = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    dark[0] = [complex(-0.0, 0.25), complex(5e-324, -1.0), complex(0.0, -0.0)]
    alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    alpha[1] = complex(-0.0, 5e-324)
    f = np.zeros((m, n), complex)
    f[:, 0] = 1.0
    traj = EmbeddedTrajectory(
        times=0.01 * np.arange(m),
        full_states=dark + alpha[:, None] * f,
        dark_states=dark,
        alpha=alpha,
        energy=100.0,
        step=0.01,
    )
    stream = io.StringIO()
    traj.write_csv(stream)

    # t, the dark state, its norm and squared norm, then |alpha|, Re and Im alpha
    dark_norms = np.linalg.norm(dark, axis=1)
    rows = np.column_stack(
        [
            traj.times,
            dark.real,
            dark.imag,
            dark_norms,
            dark_norms**2,
            np.abs(alpha),
            alpha.real,
            alpha.imag,
        ]
    )
    assert stream.getvalue() == expected(rows, traj.csv_columns())
    lines = stream.getvalue().splitlines()
    assert lines[1].split(",")[1:3] == ["-0", "4.9406564584124654e-324"]
    assert lines[2].split(",")[-2:] == ["-0", "4.9406564584124654e-324"]


# any bit pattern, and often one of the two zeros
ZERO_OR_ANY = st.one_of(st.sampled_from([0, 2**63]), st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(ZERO_OR_ANY, min_size=1, max_size=60), st.integers(1, 4))
def test_any_bit_pattern_writes_as_format_float(bits, columns):
    values = from_bits(bits)
    rows = values[: values.size // columns * columns].reshape(-1, columns)
    assert written(rows) == expected(rows)


def _around(x, ulps):
    # x and its neighbours up to ``ulps`` units in the last place either side
    steps = np.arange(-ulps, ulps + 1)
    return np.array(x).view(np.int64) + steps


SPECIAL = {
    "zeros": [0.0, -0.0],
    "subnormals": [5e-324, -5e-324, 2.225073858507201e-308],
    "smallest normal": [2.2250738585072014e-308, -2.2250738585072014e-308],
    "fast range edges": np.concatenate([_around(1e-200, 3), _around(1e200, 3)]).view(np.float64),
    "huge": [1e300, -1.7976931348623157e308],
    "non-finite": [np.nan, np.inf, -np.inf],
    "powers of ten": np.concatenate([_around(10.0**k, 40) for k in range(-30, 31)]).view(
        np.float64
    ),
    # 3 * 2**-25 = 8.94069671630859375e-08 and 2**-25 = 2.98023223876953125e-08
    # end in an exact tie after the 17th digit: round half to even
    "ties": [3 * 2.0**-25, 2.0**-25, 0.5, 2.0**-30, 1.0 + 2.0**-52, 2.0**-60, 2.0**57],
    # doubles just below 10**k whose 17-digit rounding carries to 10**k
    "rollover": [9.99999999999999999e16, 1e-14, 1e-78, 1e98, 1e-176],
    "fixed/scientific switch": [1e-4, np.nextafter(1e-4, 0), 1e-5, 1.5e-5, 1e16, 1e17, 1.5e16],
    "one": [1.0, -1.0, 0.1, 123456789.0, 1e22, 1e23],
}


@pytest.mark.parametrize("values", SPECIAL.values(), ids=SPECIAL.keys())
def test_value_classes_write_as_format_float(values):
    column = np.asarray(values, dtype=np.float64)[:, None]
    assert written(column) == expected(column)
    assert written(-column) == expected(-column)


def test_ties_round_half_even():
    text = written(np.array([[3 * 2.0**-25, 2.0**-25]])).splitlines()[1]
    assert text == "8.9406967163085938e-08,2.9802322387695312e-08"


def test_exponent_chosen_before_rounding():
    # the double nearest 1e-19 lies below it: at 17 digits it is 9.99...98e-20,
    # which rounding at the exponent of 1e-19 would turn into "1e-19"
    assert written(np.array([[1e-19]])).splitlines()[1] == "9.9999999999999998e-20"


# the edges of the second block: the first block's edge lies within them
@pytest.mark.parametrize(
    "m", [0, 1, 2 * _CSV_BLOCK_ROWS - 1, 2 * _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS + 1]
)
@pytest.mark.parametrize("n", [1, 2, 10, 12])
def test_block_edges(rng, m, n):
    rows = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-30, 30, (m, n))
    assert written(rows) == expected(rows)


@pytest.mark.parametrize("n", [1, 3, 132, 2 * _CSV_BLOCK_VALUES + 1])
def test_block_edges_at_every_width(rng, n):
    # a block holds whole rows, as many as fit in its values, and one at least
    k = block_rows(n)
    assert k * n <= max(n, _CSV_BLOCK_VALUES) < (k + 1) * n
    for m in (k - 1, k, k + 1, 2 * k + 1):
        rows = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-30, 30, (m, n))
        assert written(rows) == expected(rows)


def test_fallback_text_does_not_leak_into_the_next_block(rng):
    # a first block of the longest fallback texts, then ordinary values
    rows = rng.standard_normal((2 * block_rows(3), 3))
    rows[: block_rows(3)] = -2.2250738585072009e-308
    assert written(rows) == expected(rows)


def test_non_contiguous_input(rng):
    base = rng.standard_normal((2 * _CSV_BLOCK_ROWS + 5, 7)) * 1e3
    for rows in (base[::2, 1:6], np.asfortranarray(base), base.T[:4].T):
        assert not rows.flags.c_contiguous
        assert written(rows) == expected(rows)


def test_signed_zeros_take_the_fast_path(monkeypatch):
    # "0" and "-0" come from the keep masks, without a format_float call
    import zenodark.trajectory

    calls = []
    monkeypatch.setattr(zenodark.trajectory, "format_float", lambda x: calls.append(x) or "")
    rows = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, 0.0], [-0.25, -0.0, 4.0]])
    assert written(rows) == expected(rows)
    assert written(rows).splitlines()[1:] == ["0,-0,1.5", "-0,0,0", "-0.25,-0,4"]
    assert calls == []


def test_columns_and_column_groups_write_as_one_table(rng):
    # write_rows stacks its blocks side by side, a block at a time
    m = 2 * _CSV_BLOCK_ROWS + 3
    t, group, last = rng.standard_normal(m), rng.standard_normal((m, 3)), rng.standard_normal(m)
    stream = io.StringIO()
    write_rows(stream, [f"c{j}" for j in range(5)], t, group, list(last))
    assert stream.getvalue() == expected(np.column_stack([t, group, last]))
