"""finab's Smith normal form against a reference copy of it.

smith_normal_form must pick the same pivots and apply the same row and
column operations as the reference below, the form it had when each
operation was a closure, so that U, D, V and Uinv stay the same matrices
and no construction read off them moves.  The inputs are every matrix the
two finab benchmark units hand it (recorded from in-process runs) and
small matrices drawn by hypothesis.
"""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancat import finab
from spancat.cli import EXIT_OK, main
from spancat.finab import SNF, freeze, identity_matrix, smith_normal_form

FLAGS = list(itertools.product([False, True], repeat=3))  # (U, V, Uinv)


def reference_smith_normal_form(mat, *, U=False, V=False, Uinv=False) -> SNF:
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(row) for row in mat]
    rows = [A] + ([identity_matrix(m)] if U else [])
    cols = [A] + ([identity_matrix(n)] if V else [])
    Ui = identity_matrix(m) if Uinv else None

    def row_add(i, j, c):
        for X in rows:
            X[i] = [x + c * y for x, y in zip(X[i], X[j])]
        if Ui is not None:
            for r in Ui:
                r[j] -= c * r[i]

    def row_swap(i, j):
        for X in rows:
            X[i], X[j] = X[j], X[i]
        if Ui is not None:
            for r in Ui:
                r[i], r[j] = r[j], r[i]

    def row_neg(i):
        for X in rows:
            X[i] = [-x for x in X[i]]
        if Ui is not None:
            for r in Ui:
                r[i] = -r[i]

    def col_add(j, i, c):
        for X in cols:
            for r in X:
                r[j] += c * r[i]

    def col_swap(i, j):
        for X in cols:
            for r in X:
                r[i], r[j] = r[j], r[i]

    def col_neg(j):
        for X in cols:
            for r in X:
                r[j] = -r[j]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while True:
        piv = find_pivot(t)
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if A[t][t] < 0:
            row_neg(t)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, -q)
                    if A[i][t] != 0:
                        row_swap(t, i)
                        if A[t][t] < 0:
                            row_neg(t)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, -q)
                    if A[t][j] != 0:
                        col_swap(t, j)
                        if A[t][t] < 0:
                            col_neg(t)
                        dirty = True
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1
    return SNF(freeze(rows[1]) if U else None, freeze(A), freeze(cols[1]) if V else None,
               freeze(Ui) if Uinv else None)


def assert_same_forms(mat) -> None:
    for u, v, uinv in FLAGS:
        got = smith_normal_form(mat, U=u, V=v, Uinv=uinv)
        assert got == reference_smith_normal_form(mat, U=u, V=v, Uinv=uinv), (mat, u, v, uinv)


@pytest.fixture(scope="module")
def unit_inputs(tmp_path_factory):
    """Every distinct matrix that smith_normal_form is handed by the finab
    axiom suite at order 8 (1000 samples) and the finab associativity
    suite at order 16 (50 samples), both at seed 0."""
    seen: set = set()
    snf = finab.smith_normal_form

    def recording(mat, **kw):
        seen.add(freeze(mat))
        return snf(mat, **kw)

    out = tmp_path_factory.mktemp("units") / "report.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finab, "smith_normal_form", recording)
        for args in (["check-axioms", "--instance", "finab", "--max-order", "8",
                      "--samples", "1000"],
                     ["suite", "--suite", "associativity", "--instance", "finab",
                      "--max-order", "16", "--samples", "50"]):
            assert main([*args, "--seed", "0", "--out", str(out)]) == EXIT_OK
    return sorted(seen)


def test_forms_match_the_reference_on_the_units_inputs(unit_inputs):
    assert len(unit_inputs) > 1000
    assert {len(mat) for mat in unit_inputs} >= {1, 2, 3, 4}
    for mat in unit_inputs:
        assert_same_forms(mat)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-30, 30), min_size=n, max_size=n), max_size=4)))
def test_forms_match_the_reference_on_small_matrices(mat):
    assert_same_forms(mat)
