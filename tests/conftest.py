"""Fixtures shared by the test modules."""
from __future__ import annotations

import pytest

from spancat.finab import HomGroup


@pytest.fixture
def matrices_built(monkeypatch):
    """A one-item list that counts HomGroup.matrix_at calls, the matrices
    finab's pools build, from the start of the test; a test may reset it."""
    built = [0]
    matrix_at = HomGroup.matrix_at

    def counting(self, i):
        built[0] += 1
        return matrix_at(self, i)

    monkeypatch.setattr(HomGroup, "matrix_at", counting)
    return built
