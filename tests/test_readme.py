import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # the "Library entry points" example must run as written
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["traj"].states.shape == (10_001, 3)
    assert namespace["result"].orthogonality_residual <= 1e-10
    # the designed path's generator is diag(nu), read as an attribute
    np.testing.assert_array_equal(namespace["designed"].generator, np.diag([0.0, 2.0, -2.0]))
    assert namespace["period"] == pytest.approx(np.pi / 2, rel=1e-12)
