from __future__ import annotations

import os

import pytest

import mmekit


@pytest.fixture
def child_env() -> dict[str, str]:
    """Environment for a child Python that imports the package under
    test, also when only pytest's `pythonpath` setting (not the
    environment) put it on sys.path."""
    src = os.path.dirname(os.path.dirname(mmekit.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
