import io

import numpy as np

from zenodark.trajectory import DarkTrajectory, format_float


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
    expected = "#schema=1 " + ",".join(traj.csv_columns()) + "\n"
    expected += "".join(",".join(format_float(x) for x in row) + "\n" for row in rows)
    assert stream.getvalue() == expected
    assert stream.getvalue().splitlines()[1].split(",")[1] == "-0"
