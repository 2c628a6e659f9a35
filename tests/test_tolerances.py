import dataclasses
import re
from pathlib import Path

import zenodark
from zenodark.tolerances import DEFAULT, PROFILES, STRICT, ToleranceProfile


def test_profiles_registry():
    assert PROFILES["default"] is DEFAULT
    assert PROFILES["strict"] is STRICT


def test_strict_is_tighter_where_it_differs():
    assert STRICT.setup_orthogonality < DEFAULT.setup_orthogonality
    assert STRICT.compatibility < DEFAULT.compatibility
    assert STRICT.path_norm < DEFAULT.path_norm
    assert STRICT.period_return < DEFAULT.period_return


def test_profiles_are_frozen():
    import dataclasses

    import pytest

    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT.hermiticity = 1.0


def test_every_field_is_read():
    package = Path(zenodark.__file__).parent
    code = "\n".join(
        p.read_text() for p in package.glob("*.py") if p.name != "tolerances.py"
    )
    names = [f.name for f in dataclasses.fields(ToleranceProfile)]
    unread = [n for n in names if not re.search(rf"\.{n}\b", code)]
    overridden = [n for n in names if getattr(STRICT, n) != getattr(DEFAULT, n)]
    assert overridden and not set(overridden) & set(unread), "STRICT tightens an unread field"
    assert unread == []
