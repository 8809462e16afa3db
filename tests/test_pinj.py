"""Tests for the partial injection instance.

The pullback and pushout tests enumerate every competing cone over small
sets and demand a unique mediator, which pins down the constructions
independently of how they are computed.
"""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancat.axioms import run_axiom_suite
from spancat.core import ClassViolation, Mor, ValidationFailure
from spancat.pinj import (
    PInjInstance,
    compose_assign,
    count_pinjs,
    factor_assign,
    image_of,
    pullback_assign,
    reverse_assign,
    validate_assign,
)

INST = PInjInstance()


def homs(n: int, m: int):
    return INST.enumerate_homs(INST.obj(n), INST.obj(m))


def reverse(f):
    """The same set of (input, output) pairs read backwards."""
    return Mor(f.cod, f.dom, reverse_assign(f.payload, f.cod.obj_key))


# ---------------------------------------------------------------------------
# frozen raw examples
# ---------------------------------------------------------------------------

def test_compose_assign():
    f = (2, None, 0)  # {0,1,2} -> {0,1,2}
    g = (None, 1, 0)
    assert compose_assign(g, f) == (0, None, None)


def test_reverse_assign():
    assert reverse_assign((2, None, 0), 3) == (2, None, 0)
    assert reverse_assign((1, 2), 3) == (None, 0, 1)


def test_factor_assign_frozen():
    size, e, m = factor_assign((2, None, 0))
    assert size == 2
    assert e == (1, None, 0)
    assert m == (0, 2)


def test_pullback_keeps_undefined_points():
    # f: {0,1} -> {0} defined only at 0; m the identity on {0}.
    # The point 1 carries no constraint, so it survives into the apex.
    size, leg1, leg2 = pullback_assign((0, None), (0,))
    assert size == 2
    assert leg1 == (0, 1)
    assert leg2 == (0, None)


def test_pullback_drops_points_missing_the_image():
    # f: {0,1} -> {0,1} identity; m: {0} -> {0,1} hits only 0
    size, leg1, leg2 = pullback_assign((0, 1), (0,))
    assert size == 1
    assert leg1 == (0,)
    assert leg2 == (0,)


def test_validate_assign_rejects():
    with pytest.raises(ValidationFailure):
        validate_assign(2, 2, (0, 0))  # not injective
    with pytest.raises(ValidationFailure):
        validate_assign(2, 2, (0, 2))  # out of range
    with pytest.raises(ValidationFailure):
        validate_assign(2, 2, (0,))  # wrong length


def test_count_pinjs_frozen():
    assert count_pinjs(3, 3) == 34
    assert count_pinjs(4, 4) == 209
    assert count_pinjs(0, 5) == 1
    assert len(homs(3, 3)) == 34
    assert len(homs(4, 4)) == 209


# ---------------------------------------------------------------------------
# instance surface
# ---------------------------------------------------------------------------

def test_classify():
    a, b = INST.obj(2), INST.obj(3)
    total = INST.pinj(a, b, (0, 2))
    assert INST.classify(total).in_M and not INST.classify(total).in_E
    onto = INST.pinj(b, a, (1, None, 0))
    c = INST.classify(onto)
    assert c.in_E and not c.in_M
    ident = INST.identity(a)
    assert INST.is_iso(ident)


def test_factorize_classes():
    a, b = INST.obj(3), INST.obj(3)
    f = INST.pinj(a, b, (2, None, 0))
    fac = INST.factorize(f)
    assert INST.classify(fac.e).in_E
    assert INST.classify(fac.m).in_M
    assert INST.compose(fac.m, fac.e) == f
    assert fac.mid.obj_key == 2


def test_inverse_and_reverse():
    a = INST.obj(3)
    f = INST.pinj(a, a, (1, 2, 0))
    g = INST.inverse(f)
    assert INST.compose(g, f) == INST.identity(a)
    assert g == reverse(f)
    with pytest.raises(ClassViolation):
        INST.inverse(INST.pinj(a, a, (1, None, 0)))


def test_pullback_requires_M():
    a = INST.obj(2)
    f = INST.pinj(a, a, (0, None))
    with pytest.raises(ClassViolation):
        INST.pullback_along_M(f, f)


# ---------------------------------------------------------------------------
# reversal laws
# ---------------------------------------------------------------------------

@st.composite
def one_pinj(draw):
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 4))
    return draw(st.sampled_from(homs(n, m)))


@st.composite
def composable_pair(draw):
    n = draw(st.integers(0, 3))
    k = draw(st.integers(0, 3))
    m = draw(st.integers(0, 3))
    f = draw(st.sampled_from(homs(n, k)))
    g = draw(st.sampled_from(homs(k, m)))
    return f, g


@settings(max_examples=80, deadline=None)
@given(one_pinj())
def test_reverse_is_involutive_and_partial_inverse(f):
    r = reverse(f)
    assert reverse(r) == f
    assert INST.compose(f, INST.compose(r, f)) == f


@settings(max_examples=80, deadline=None)
@given(composable_pair())
def test_reverse_antihomomorphism(pair):
    f, g = pair
    gf = INST.compose(g, f)
    assert reverse(gf) == INST.compose(reverse(f), reverse(g))


@settings(max_examples=60, deadline=None)
@given(one_pinj())
def test_classify_matches_brute(f):
    c = INST.classify(f)
    assert c.in_M == (None not in f.payload)
    assert c.in_E == (image_of(f.payload) == set(range(f.cod.obj_key)))


@settings(max_examples=60, deadline=None)
@given(one_pinj())
def test_factorize_properties(f):
    fac = INST.factorize(f)
    assert INST.classify(fac.e).in_E
    assert INST.classify(fac.m).in_M
    assert INST.compose(fac.m, fac.e) == f


# ---------------------------------------------------------------------------
# universal properties, checked against all competitors up to size 3
# ---------------------------------------------------------------------------

@st.composite
def cospan_with_M(draw):
    w = draw(st.integers(0, 3))
    na = draw(st.integers(0, 3))
    nb = draw(st.integers(0, w))
    f = draw(st.sampled_from(homs(na, w)))
    m_cands = [h for h in homs(nb, w) if None not in h.payload]
    m = draw(st.sampled_from(m_cands))
    return f, m


@settings(max_examples=40, deadline=None)
@given(cospan_with_M())
def test_pullback_universal_property(data):
    f, m = data
    cone = INST.pullback_along_M(f, m)
    assert INST.classify(cone.leg1).in_M
    assert INST.compose(f, cone.leg1) == INST.compose(m, cone.leg2)
    if INST.classify(f).in_E:
        assert INST.classify(cone.leg2).in_E
    for t in range(4):
        T = INST.obj(t)
        for u in homs(t, f.dom.obj_key):
            # the second cone leg is forced by m being a total injection
            v = INST.compose(reverse(m), INST.compose(f, u))
            if INST.compose(f, u) != INST.compose(m, v):
                continue
            mediators = [
                w
                for w in INST.enumerate_homs(T, cone.apex)
                if INST.compose(cone.leg1, w) == u
                and INST.compose(cone.leg2, w) == v
            ]
            assert len(mediators) == 1


@st.composite
def span_with_E(draw):
    a = draw(st.integers(0, 3))
    nb = draw(st.integers(0, 3))
    nc = draw(st.integers(0, a))
    f = draw(st.sampled_from(homs(a, nb)))
    e_cands = [h for h in homs(a, nc) if image_of(h.payload) == set(range(nc))]
    e = draw(st.sampled_from(e_cands))
    return f, e


@settings(max_examples=40, deadline=None)
@given(span_with_E())
def test_pushout_universal_property(data):
    f, e = data
    cone = INST.pushout_along_E(f, e)
    assert INST.classify(cone.leg1).in_E
    assert INST.compose(cone.leg1, f) == INST.compose(cone.leg2, e)
    if INST.classify(f).in_M:
        assert INST.classify(cone.leg2).in_M
    for t in range(4):
        T = INST.obj(t)
        for u in homs(f.cod.obj_key, t):
            # the second cone leg is forced by e being surjective
            v = INST.compose(u, INST.compose(f, reverse(e)))
            if INST.compose(u, f) != INST.compose(v, e):
                continue
            mediators = [
                w
                for w in INST.enumerate_homs(cone.apex, T)
                if INST.compose(w, cone.leg1) == u
                and INST.compose(w, cone.leg2) == v
            ]
            assert len(mediators) == 1


# ---------------------------------------------------------------------------
# the span invariant is exactly iso-equivalence
# ---------------------------------------------------------------------------

def em_spans(apex_size: int, u_size: int, w_size: int):
    apex = INST.obj(apex_size)
    for d in homs(apex_size, u_size):
        if not INST.classify(d).in_E:
            continue
        for m in homs(apex_size, w_size):
            if not INST.classify(m).in_M:
                continue
            yield d, m


def spans_isomorphic(d1, m1, d2, m2):
    if d1.dom.obj_key != d2.dom.obj_key:
        return False
    for phi in homs(d1.dom.obj_key, d2.dom.obj_key):
        if not INST.is_iso(phi):
            continue
        if INST.compose(d2, phi) == d1 and INST.compose(m2, phi) == m1:
            return True
    return False


def test_span_iso_key_complete_on_small_spans():
    for u_size, w_size in [(1, 2), (2, 2), (0, 1)]:
        pool = [
            (d, m)
            for apex in range(0, 3)
            for (d, m) in em_spans(apex, u_size, w_size)
        ]
        for d1, m1 in pool:
            for d2, m2 in pool:
                same_key = INST.span_iso_key(d1, m1) == INST.span_iso_key(d2, m2)
                assert same_key == spans_isomorphic(d1, m1, d2, m2)


def test_class_pools_are_kept_per_class():
    # compose_all asks for a pool on each call; the pool is filtered once
    class Counting(PInjInstance):
        classified = 0

        def classify(self, f):
            Counting.classified += 1
            return super().classify(f)

    inst = Counting()
    a, b = inst.fset(3), inst.fset(2)
    pool = inst.class_homs(a, b, "E")
    seen = Counting.classified
    assert seen == len(inst.enumerate_homs(a, b))
    g = inst.identity(b)
    assert inst.class_homs(a, b, "E") is pool
    assert inst.compose_all(g, a, cls="E") == tuple(f.payload for f in pool)
    assert Counting.classified == seen


class _CountingPInj(PInjInstance):
    """PInjInstance that counts its classify calls and records the
    (dom, cod) keys of its enumerate_homs calls."""

    def __init__(self):
        super().__init__()
        self.classified = 0
        self.listed = []

    def classify(self, f):
        self.classified += 1
        return super().classify(f)

    def enumerate_homs(self, a, b):
        self.listed.append((a.obj_key, b.obj_key))
        return super().enumerate_homs(a, b)


def test_a_kept_pool_answers_without_classifying_or_listing():
    inst = _CountingPInj()
    a, b = inst.fset(3), inst.fset(2)
    pool = inst.class_homs(a, b, "E")
    assert inst.listed == [(3, 2)] and inst.classified == len(homs(3, 2))
    inst.classified, inst.listed = 0, []
    assert inst.class_homs(a, b, "E") is pool
    assert inst.has_class_hom(a, b, "E")
    assert inst.solve_post_system(a, b, [(inst.identity(b), pool[0])]) == (pool[0], 1)
    assert inst.classified == 0 and inst.listed == []


def test_axiom_suite_lists_each_hom_set_once():
    inst = _CountingPInj()
    assert all(r.ok for r in run_axiom_suite(inst, 0, 100, 4))
    assert inst.listed and len(inst.listed) == len(set(inst.listed))


def reference_homs(n: int, m: int) -> list:
    """The listing enumerate_homs replaced: the product of
    (None, 0, ..., m-1) over the n points, keeping the injective tuples."""
    out = []
    for combo in itertools.product([None, *range(m)], repeat=n):
        vals = [v for v in combo if v is not None]
        if len(vals) == len(set(vals)):
            out.append(combo)
    return out


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("m", range(5))
def test_enumerate_homs_matches_the_filtered_product(n, m):
    listing = [f.payload for f in homs(n, m)]
    assert listing == reference_homs(n, m)
    assert len(listing) == count_pinjs(n, m)


@pytest.mark.parametrize("cls", ["any", "E", "M", "iso"])
def test_has_class_hom_reads_the_sizes(cls):
    inst, ref = PInjInstance(), PInjInstance()
    for n in range(5):
        for m in range(5):
            want = len(ref.class_homs(ref.fset(n), ref.fset(m), cls)) > 0
            assert inst.has_class_hom(inst.fset(n), inst.fset(m), cls) == want, (n, m)
    assert inst.memo.pools == {}


def post_systems(eqs: int, size: int):
    """(dom, cod, eqs) for every system of the given number of equations
    with dom, cod and each equation's target of size at most size."""
    sizes = range(size + 1)
    for n, m in itertools.product(sizes, repeat=2):
        for targets in itertools.product(sizes, repeat=eqs):
            posts = [homs(m, p) for p in targets]
            rhss = [homs(n, p) for p in targets]
            for chosen in itertools.product(*posts, *rhss):
                yield n, m, list(zip(chosen[:eqs], chosen[eqs:]))


@pytest.mark.parametrize("eqs,size,systems", [(1, 3, 3_396), (2, 2, 5_568)])
def test_solve_post_system_matches_the_pool_walk(eqs, size, systems, pool_walk):
    # pinj's preimage solver against the reference walk of the pool of
    # every w: dom -> cod; solution and count must both agree
    ref = PInjInstance()
    seen = 0
    for n, m, system in post_systems(eqs, size):
        seen += 1
        dom, cod = INST.fset(n), INST.fset(m)
        want = pool_walk(ref, ref.fset(n), ref.fset(m), system)
        assert INST.solve_post_system(dom, cod, system) == want, (n, m, system)
    assert seen == systems
