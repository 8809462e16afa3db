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


@pytest.fixture
def pool_walk():
    """The reference solver of post systems, a function (inst, dom, cod,
    eqs) -> (solution or None, count) over w: dom -> cod with post . w ==
    rhs for each (post, rhs) of eqs.  It walks class_homs(dom, cod) and
    so answers the solution first in enumerate_homs order; it calls no
    solver of an instance."""
    def solve(inst, dom, cod, eqs):
        found, count = None, 0
        for w in inst.class_homs(dom, cod):
            if all(inst.compose(post, w) == rhs for post, rhs in eqs):
                if found is None:
                    found = w
                count += 1
        return found, count
    return solve
