"""Tests for the EM-span calculus: lifts, composition, 2-cells, exchange
squares, and the bounded bipullback check.

Composition over partial injections is validated against an element-level
oracle that matches links through the middle object directly, with no
pullback machinery involved.
"""
from __future__ import annotations

import pytest

from spancat.core import (
    ClassViolation,
    EndpointMismatch,
    ShapeViolation,
    SpanCatError,
    Square,
    groupoid_instance,
    symmetric_group_table,
)
from spancat.finab import FinAbInstance
from spancat.gen import Sampler
from spancat.pinj import PInjInstance
from spancat.spans import (
    EMSpan,
    SpanCell,
    cell_between,
    check_star_bipullback,
    em_factor_span,
    em_span,
    exchange_square,
    id_span,
    lift_e,
    lift_m,
    span_class_reps,
    span_compose,
    span_iso_eq,
    span_key,
    validate_em_span,
)

FA = FinAbInstance()
PI = PInjInstance()
S3 = groupoid_instance(symmetric_group_table(3), name="groupoid:s3")


# ---------------------------------------------------------------------------
# element-level oracle for composition over partial injections
# ---------------------------------------------------------------------------


def oracle_pinj_composite_key(g: EMSpan, f: EMSpan):
    """Iso-class key of span_compose(g, f) over partial injections, computed
    by matching links through the middle object elementwise.

    A span U <-d- R -m-> W is a bag of links, one per apex point: the pair
    (d[x], m[x]) with d[x] possibly undefined and m[x] always defined.  The
    composite keeps every point of g's apex whose middle value is undefined
    (a phantom) or hit by f's m-leg, and chains the d-values through.
    """
    assert f.tgt == g.src
    pairs = set()
    image = set()
    f_by_mid = {
        f.m.payload[x]: f.d.payload[x] for x in range(f.apex.obj_key)
    }
    for s in range(g.apex.obj_key):
        mid = g.d.payload[s]
        if mid is None:
            image.add(g.m.payload[s])
            continue
        if mid not in f_by_mid:
            continue
        image.add(g.m.payload[s])
        u = f_by_mid[mid]
        if u is not None:
            pairs.add((g.m.payload[s], u))
    return (f.src.obj_key, g.tgt.obj_key, frozenset(pairs), frozenset(image))


def all_em_spans(inst, src, tgt, apex_bound):
    out = []
    for apex in inst.enumerate_objects_up_to(apex_bound):
        for d in inst.enumerate_homs(apex, src):
            if not inst.classify(d).in_E:
                continue
            for m in inst.enumerate_homs(apex, tgt):
                if inst.classify(m).in_M:
                    out.append(EMSpan(src, tgt, apex, d, m))
    return out


def _is_iso(inst, f) -> bool:
    c = inst.classify(f)
    return c.in_E and c.in_M


def count_cells(inst, f: EMSpan, g: EMSpan) -> int:
    hits = 0
    for w in inst.enumerate_homs(f.apex, g.apex):
        if inst.mor_eq(inst.compose(g.d, w), f.d) and inst.mor_eq(
            inst.compose(g.m, w), f.m
        ):
            hits += 1
    return hits


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------


def test_pinj_composition_matches_element_oracle_frozen():
    u1, r2, w2, s3, v3 = PI.fset(1), PI.fset(2), PI.fset(2), PI.fset(3), PI.fset(3)
    f = em_span(PI, PI.pinj(r2, u1, (0, None)), PI.pinj(r2, w2, (0, 1)))
    g = em_span(PI, PI.pinj(s3, w2, (1, None, 0)), PI.pinj(s3, v3, (2, 0, 1)))
    comp = span_compose(PI, g, f)
    assert comp.apex.obj_key == 3
    key = span_key(PI, comp)
    assert key == (1, 3, frozenset({(1, 0)}), frozenset({0, 1, 2}))
    assert key == oracle_pinj_composite_key(g, f)


def test_exchange_square_frozen_trivial_middle():
    z2, z4 = FA.group(2), FA.group(4)
    m = FA.hom(z2, z4, [[2]])
    e = FA.hom(z4, z2, [[1]])
    ex = exchange_square(FA, m, e)
    # e . m = 0, so the factorization passes through the trivial group
    assert ex.e_bar.cod.obj_key == ()
    assert ex.m_bar.dom.obj_key == ()
    assert ex.cell.src.src.obj_key == ()  # both spans go Mid -> Y
    assert ex.cell.src.tgt == z4
    # here the comparison cell happens to be invertible
    assert span_iso_eq(FA, ex.cell.src, ex.cell.tgt)


def test_exchange_square_left_leg_shape():
    # the M-then-E route composes to the literal span Mid <-e'- X -m-> Y
    z2, z8 = FA.group(2), FA.group(8)
    m = FA.hom(z2, z8, [[4]])
    e = FA.hom(z8, FA.group(4), [[1]])
    fac = FA.factorize(FA.compose(e, m))
    ex = exchange_square(FA, m, e)
    assert FA.mor_eq(ex.cell.src.d, fac.e)
    assert FA.mor_eq(ex.cell.src.m, m)
    # the cell's defining equations
    w = ex.cell.w
    assert FA.mor_eq(FA.compose(ex.cell.tgt.d, w), ex.cell.src.d)
    assert FA.mor_eq(FA.compose(ex.cell.tgt.m, w), ex.cell.src.m)


def test_exchange_square_degenerate_sides():
    z2, z4 = FA.group(2), FA.group(4)
    m = FA.hom(z2, z4, [[2]])
    e = FA.hom(z4, z2, [[1]])
    ex_idm = exchange_square(FA, FA.identity(z4), e)
    assert _is_iso(FA, ex_idm.m_bar)
    ex_ide = exchange_square(FA, m, FA.identity(z4))
    assert _is_iso(FA, ex_ide.e_bar)


def test_unit_laws_frozen():
    z2, z4 = FA.group(2), FA.group(4)
    f = em_span(PI, PI.pinj(PI.fset(2), PI.fset(2), (1, 0)), PI.pinj(PI.fset(2), PI.fset(3), (0, 2)))
    assert span_iso_eq(PI, span_compose(PI, id_span(PI, PI.fset(3)), f), f)
    assert span_iso_eq(PI, span_compose(PI, f, id_span(PI, PI.fset(2))), f)
    g = em_span(FA, FA.hom(z2, z2, [[1]]), FA.hom(z2, z4, [[2]]))
    assert span_iso_eq(FA, span_compose(FA, id_span(FA, z4), g), g)
    assert span_iso_eq(FA, span_compose(FA, g, id_span(FA, z2)), g)


def test_lift_directions_and_classes():
    z2, z4 = FA.group(2), FA.group(4)
    m = FA.hom(z2, z4, [[2]])
    lm = lift_m(FA, m)
    assert (lm.src, lm.tgt) == (z2, z4)
    assert FA.mor_eq(lm.m, m) and _is_iso(FA, lm.d)
    e = FA.hom(z4, z2, [[1]])
    le = lift_e(FA, e)
    assert (le.src, le.tgt) == (z2, z4)  # direction reverses
    assert FA.mor_eq(le.d, e) and _is_iso(FA, le.m)


def test_self_cell_is_identity():
    z4 = FA.group(4)
    f = em_span(FA, FA.hom(z4, FA.group(2), [[1]]), FA.identity(z4))
    cell = cell_between(FA, f, f)
    assert cell is not None
    assert FA.mor_eq(cell.w, FA.identity(f.apex))


# ---------------------------------------------------------------------------
# sampled laws
# ---------------------------------------------------------------------------


def _sampled_spans(inst, seed, bound, n):
    smp = Sampler(inst, seed, bound)
    out = []
    for _ in range(n):
        d, m = smp.em_span_legs()
        out.append(em_span(inst, d, m))
    return out


def test_em_span_legs_draws_the_free_end_among_fitting_objects():
    # up to order 8 only the trivial group spans to the trivial group and
    # only Z/8 spans from Z/8, so a blind draw of the free end would miss 10
    # times in 11
    smp = Sampler(FA, "ends", 8)
    zero, z8 = FA.group(), FA.group(8)
    assert smp.em_ends(zero, "src") == [zero]
    assert smp.em_ends(z8, "tgt") == [z8]
    for _ in range(20):
        d, m = smp.em_span_legs(tgt=zero)
        assert d.cod == zero and m.cod == zero
        d, m = smp.em_span_legs(src=z8)
        assert d.cod == z8 and m.cod == z8


@pytest.mark.parametrize(
    "inst,bound", [(FA, 6), (PI, 3), (S3, 1)], ids=["finab", "pinj", "groupoid"]
)
def test_unit_laws_sampled(inst, bound):
    for f in _sampled_spans(inst, "units", bound, 20):
        assert span_iso_eq(inst, span_compose(inst, id_span(inst, f.tgt), f), f)
        assert span_iso_eq(inst, span_compose(inst, f, id_span(inst, f.src)), f)


@pytest.mark.parametrize(
    "inst,bound", [(FA, 6), (PI, 3), (S3, 1)], ids=["finab", "pinj", "groupoid"]
)
def test_em_factor_span_recomposes(inst, bound):
    for f in _sampled_spans(inst, "refactor", bound, 20):
        first, second = em_factor_span(inst, f)
        assert span_iso_eq(inst, span_compose(inst, second, first), f)


@pytest.mark.parametrize(
    "inst,bound", [(FA, 5), (PI, 3), (S3, 1)], ids=["finab", "pinj", "groupoid"]
)
def test_span_compose_associative_up_to_iso(inst, bound):
    smp = Sampler(inst, "assoc", bound)
    for _ in range(15):
        d1, m1 = smp.em_span_legs()
        f = em_span(inst, d1, m1)
        d2, m2 = smp.em_span_legs(src=f.tgt)
        g = em_span(inst, d2, m2)
        d3, m3 = smp.em_span_legs(src=g.tgt)
        h = em_span(inst, d3, m3)
        lhs = span_compose(inst, h, span_compose(inst, g, f))
        rhs = span_compose(inst, span_compose(inst, h, g), f)
        assert span_iso_eq(inst, lhs, rhs)


def test_pinj_composition_matches_element_oracle_sampled():
    smp = Sampler(PI, "oracle", 4)
    for _ in range(60):
        d1, m1 = smp.em_span_legs()
        f = em_span(PI, d1, m1)
        d2, m2 = smp.em_span_legs(src=f.tgt)
        g = em_span(PI, d2, m2)
        assert span_key(PI, span_compose(PI, g, f)) == oracle_pinj_composite_key(g, f)


def test_lift_m_functorial_up_to_iso():
    smp = Sampler(FA, "liftm", 6)
    for _ in range(20):
        m1 = smp.mor_in_M()
        m2 = smp.hom(a=m1.cod, cls="M")
        lhs = lift_m(FA, FA.compose(m2, m1))
        rhs = span_compose(FA, lift_m(FA, m2), lift_m(FA, m1))
        assert span_iso_eq(FA, lhs, rhs)


def test_lift_e_contravariant_up_to_iso():
    smp = Sampler(FA, "lifte", 6)
    for _ in range(20):
        e1 = smp.mor_in_E()
        e2 = smp.hom(a=e1.cod, cls="E")
        lhs = lift_e(FA, FA.compose(e2, e1))
        rhs = span_compose(FA, lift_e(FA, e1), lift_e(FA, e2))
        assert span_iso_eq(FA, lhs, rhs)


@pytest.mark.parametrize("inst,bound", [(FA, 5), (PI, 3)], ids=["finab", "pinj"])
def test_exchange_square_sampled(inst, bound):
    smp = Sampler(inst, "exchange", bound)
    for _ in range(25):
        m = smp.mor_in_M()
        e = smp.hom(a=m.cod, cls="E")
        ex = exchange_square(inst, m, e)
        fac = inst.factorize(inst.compose(e, m))
        assert inst.mor_eq(ex.e_bar, fac.e) and inst.mor_eq(ex.m_bar, fac.m)
        w = ex.cell.w
        assert inst.mor_eq(inst.compose(ex.cell.tgt.d, w), ex.cell.src.d)
        assert inst.mor_eq(inst.compose(ex.cell.tgt.m, w), ex.cell.src.m)


# ---------------------------------------------------------------------------
# local preorder and iso-class keys, exhaustively on small catalogs
# ---------------------------------------------------------------------------


def test_pinj_local_preorder_exhaustive():
    src, tgt = PI.fset(1), PI.fset(2)
    spans = all_em_spans(PI, src, tgt, 2)
    assert len(spans) >= 4
    for f in spans:
        for g in spans:
            n = count_cells(PI, f, g)
            assert n <= 1
            cell = cell_between(PI, f, g)
            assert (cell is not None) == (n == 1)
            if cell is not None:
                assert PI.mor_eq(PI.compose(g.d, cell.w), f.d)
                assert PI.mor_eq(PI.compose(g.m, cell.w), f.m)


def test_pinj_key_equality_iff_cells_both_ways():
    src, tgt = PI.fset(2), PI.fset(2)
    spans = all_em_spans(PI, src, tgt, 2)
    for f in spans:
        for g in spans:
            keyed = span_key(PI, f) == span_key(PI, g)
            mutual = (
                count_cells(PI, f, g) == 1 and count_cells(PI, g, f) == 1
            )
            assert keyed == mutual
            assert span_iso_eq(PI, f, g) == keyed


def test_finab_key_equality_iff_cells_both_ways():
    src, tgt = FA.group(2), FA.group(4)
    spans = all_em_spans(FA, src, tgt, 4)
    assert len(spans) == 3  # one from apex Z/2, two isomorphic ones from Z/4
    for f in spans:
        for g in spans:
            keyed = span_key(FA, f) == span_key(FA, g)
            mutual = (
                count_cells(FA, f, g) == 1 and count_cells(FA, g, f) == 1
            )
            assert keyed == mutual


def test_span_class_reps_complete_and_irredundant():
    src, tgt = PI.fset(1), PI.fset(2)
    reps = span_class_reps(PI, src, tgt, 2)
    rep_keys = {span_key(PI, r) for r in reps}
    assert len(rep_keys) == len(reps)
    seen = {span_key(PI, s) for s in all_em_spans(PI, src, tgt, 2)}
    assert rep_keys == seen


# ---------------------------------------------------------------------------
# bounded bipullback checks
# ---------------------------------------------------------------------------


def test_bipullback_all_m_pullback_finab():
    z2, z4, z8 = FA.group(2), FA.group(4), FA.group(8)
    m1 = FA.hom(z2, z8, [[4]])
    m2 = FA.hom(z4, z8, [[2]])
    cone = FA.pullback_along_M(m2, m1)
    sq = Square(top=cone.leg2, left=cone.leg1, right=m1, bottom=m2)
    rep = check_star_bipullback(FA, sq, bound=8, span_bound=4)
    assert rep.ok and rep.samples == 3


def test_bipullback_all_e_pushout_finab():
    z4, z2 = FA.group(4), FA.group(2)
    e_top = FA.hom(z4, z2, [[1]])
    cone = FA.pushout_along_E(e_top, FA.identity(z4))
    sq = Square(top=e_top, left=FA.identity(z4), right=cone.leg1, bottom=cone.leg2)
    rep = check_star_bipullback(FA, sq, bound=8, span_bound=4)
    assert rep.ok and rep.samples == 3


def test_bipullback_pinj_both_forms():
    three, two = PI.fset(3), PI.fset(2)
    m = PI.pinj(two, three, (0, 1))
    cone = PI.pullback_along_M(m, m)
    sq = Square(top=cone.leg2, left=cone.leg1, right=m, bottom=m)
    rep = check_star_bipullback(PI, sq, bound=4, span_bound=3)
    assert rep.ok and rep.samples == 10
    e = PI.pinj(three, two, (0, 1, None))
    cone = PI.pushout_along_E(e, e)
    sq = Square(top=e, left=e, right=cone.leg1, bottom=cone.leg2)
    rep = check_star_bipullback(PI, sq, bound=4, span_bound=3)
    assert rep.ok and rep.samples == 10


def test_bipullback_identity_square():
    z2 = FA.group(2)
    i = FA.identity(z2)
    sq = Square(top=i, left=i, right=i, bottom=i)
    rep = check_star_bipullback(FA, sq, bound=6, span_bound=3)
    assert rep.ok and rep.samples > 0


def test_bipullback_rejects_bad_squares():
    z2, z4 = FA.group(2), FA.group(4)
    m = FA.hom(z2, z4, [[2]])
    not_pb = Square(top=m, left=m, right=FA.identity(z4), bottom=FA.identity(z4))
    with pytest.raises(ShapeViolation):
        check_star_bipullback(FA, not_pb, bound=6, span_bound=3)
    e = FA.hom(z4, z2, [[1]])
    m0 = FA.enumerate_homs(FA.group(), z2)[0]
    cone = FA.pullback_along_M(e, m0)
    mixed = Square(top=cone.leg2, left=cone.leg1, right=m0, bottom=e)
    with pytest.raises(ShapeViolation):
        check_star_bipullback(FA, mixed, bound=6, span_bound=3)


# ---------------------------------------------------------------------------
# validation and error paths
# ---------------------------------------------------------------------------


def test_em_span_rejects_wrong_classes():
    z2, z4 = FA.group(2), FA.group(4)
    m = FA.hom(z2, z4, [[2]])
    e = FA.hom(z4, z2, [[1]])
    with pytest.raises(ClassViolation):
        em_span(FA, m, FA.identity(z2))  # d-leg must be in E
    with pytest.raises(ClassViolation):
        em_span(FA, FA.identity(z4), e)  # m-leg must be in M
    with pytest.raises(ClassViolation):
        lift_m(FA, e)
    with pytest.raises(ClassViolation):
        lift_e(FA, m)


def test_em_span_rejects_mismatched_apex():
    z2, z4 = FA.group(2), FA.group(4)
    bad = EMSpan(z2, z4, z4, FA.hom(z4, z2, [[1]]), FA.hom(z2, z4, [[2]]))
    with pytest.raises(EndpointMismatch):
        validate_em_span(FA, bad)


def test_span_compose_endpoint_mismatch():
    z2, z4 = FA.group(2), FA.group(4)
    f = lift_m(FA, FA.hom(z2, z4, [[2]]))
    with pytest.raises(EndpointMismatch):
        span_compose(FA, f, f)


def test_cell_between_non_parallel():
    z2, z4 = FA.group(2), FA.group(4)
    f = lift_m(FA, FA.hom(z2, z4, [[2]]))
    g = id_span(FA, z2)
    with pytest.raises(EndpointMismatch):
        cell_between(FA, f, g)
    assert not span_iso_eq(FA, f, g)


def test_span_cell_repr_mentions_legs():
    z2 = FA.group(2)
    f = id_span(FA, z2)
    cell = cell_between(FA, f, f)
    assert isinstance(cell, SpanCell)
    assert "SpanCell" in repr(cell)


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------


class CountingPInj(PInjInstance):
    """Partial injections that count the pullbacks they compute."""

    def __init__(self) -> None:
        super().__init__()
        self.pullbacks = 0

    def pullback_along_M(self, f, m):
        self.pullbacks += 1
        return super().pullback_along_M(f, m)


def composable_pair(inst):
    """f: [1] -> [2] with a phantom apex point, and g: [2] -> [3]."""
    u1, w2, v3, r2 = inst.fset(1), inst.fset(2), inst.fset(3), inst.fset(2)
    f = em_span(inst, inst.pinj(r2, u1, (0, None)), inst.pinj(r2, w2, (1, 0)))
    g = em_span(inst, inst.pinj(r2, w2, (1, 0)), inst.pinj(r2, v3, (2, 0)))
    return f, g


def test_memoized_span_compose_equals_fresh_result():
    warm = PInjInstance()
    f, g = composable_pair(warm)
    first = span_compose(warm, g, f)
    assert span_compose(warm, g, f) is first
    fresh = PInjInstance()
    assert span_compose(fresh, *reversed(composable_pair(fresh))) == first


def test_failed_span_composites_are_not_memoized():
    inst = PInjInstance()
    f, g = composable_pair(inst)
    for _ in range(2):
        with pytest.raises(EndpointMismatch):
            span_compose(inst, id_span(inst, inst.fset(3)), f)
    # a right leg that leaves a point undefined is outside M
    bad = EMSpan(src=f.src, tgt=f.tgt, apex=f.apex, d=f.d,
                 m=inst.pinj(f.apex, f.tgt, (1, None)))
    for _ in range(2):
        with pytest.raises(ClassViolation):
            span_compose(inst, g, bad)
    assert inst.memo.span_composites == {}


def test_instances_share_no_span_composites():
    one, two = PInjInstance(), PInjInstance()
    f, g = composable_pair(one)
    span_compose(one, g, f)
    assert len(one.memo.span_composites) == 1
    assert two.memo.span_composites == {}


def test_repeated_span_compose_pulls_back_once():
    inst = CountingPInj()
    f, g = composable_pair(inst)
    results = {id(span_compose(inst, g, f)) for _ in range(10)}
    assert len(results) == 1
    assert inst.pullbacks == 1
