"""Tests for fake pullbacks: the four-step grid and its certification, the
laws of the composite span pair (symmetry, identity, stacking, fake mono),
and the readiness-condition witnesses V1 to V4.

Two independent oracles pin the composite pair down.  Over partial
injections the pair is recomputed by chaining links through the shared
target elementwise.  Over finite abelian groups the two spans become graph
subgroups and the pair must match their relation composite, which
subgroup_compose evaluates by plain enumeration with no categorical
machinery.
"""
from __future__ import annotations

import collections
import dataclasses

import pytest

from spancat.axioms import is_pullback, is_pushout
from spancat.core import (
    ClassViolation,
    ConeResult,
    EndpointMismatch,
    GroupoidInstance,
    ShapeViolation,
    Square,
    symmetric_group_table,
)
from spancat.fakepb import (
    certify_grid,
    check_fake_mono,
    check_identity_law,
    check_stacking,
    check_symmetry,
    check_v1,
    fake_pullback,
    properness_holds,
    run_fake_mono_suite,
    run_grid_suite,
    run_identity_suite,
    run_stacking_suite,
    run_symmetry_suite,
    run_v_conditions_suite,
    span_pair_iso_eq,
    v2_square,
    v3_complete,
    v4_complete,
)
from spancat.finab import FinAbInstance, apply_hom, elements_of, subgroup_compose
from spancat.gen import Sampler
from spancat.pinj import PInjInstance
from spancat.spans import (
    EMSpan,
    cell_between,
    em_span,
    id_span,
    lift_e,
    lift_m,
    span_class_reps,
    span_compose,
)

FA = FinAbInstance()
PI = PInjInstance()
S3 = GroupoidInstance(symmetric_group_table(3), name="groupoid:s3")


def pair_key(inst, fp):
    return inst.rel_pair_key(
        fp.left_leg.d, fp.left_leg.m, fp.right_leg.d, fp.right_leg.m
    )


# ---------------------------------------------------------------------------
# independent oracles for the composite pair
# ---------------------------------------------------------------------------


def oracle_pinj_pair_key(f: EMSpan, g: EMSpan):
    """Composite pair key over partial injections, chained elementwise.

    Each apex point of f whose m-value is also hit by g meets exactly one
    apex point of g (m-legs are injective).  When both d-values are defined
    the match contributes a related pair; when exactly one is, it
    contributes a phantom on the defined side; matches with both undefined,
    and unmatched points, vanish."""
    assert f.tgt == g.tgt
    g_by_mid = {g.m.payload[s]: g.d.payload[s] for s in range(g.apex.obj_key)}
    pairs, left_ph, right_ph = set(), set(), set()
    for x in range(f.apex.obj_key):
        if f.m.payload[x] not in g_by_mid:
            continue
        u = f.d.payload[x]
        v = g_by_mid[f.m.payload[x]]
        if u is not None and v is not None:
            pairs.add((u, v))
        elif u is not None:
            left_ph.add(u)
        elif v is not None:
            right_ph.add(v)
    return (
        f.src.obj_key,
        g.src.obj_key,
        frozenset(pairs),
        frozenset(left_ph),
        frozenset(right_ph),
    )


def oracle_finab_pair_key(f: EMSpan, g: EMSpan):
    """Composite pair key over finite abelian groups via graph subgroups.

    f becomes the subgroup {(d(x), m(x))} of U + W and g, reversed, the
    subgroup {(m(x), d(x))} of W + V; the pair must present their relation
    composite inside U + V."""
    assert f.tgt == g.tgt
    u, w, v = f.src.obj_key, f.tgt.obj_key, g.src.obj_key
    s_f = frozenset(
        apply_hom(f.d.payload, x, u) + apply_hom(f.m.payload, x, w)
        for x in elements_of(f.apex.obj_key)
    )
    s_g = frozenset(
        apply_hom(g.m.payload, x, w) + apply_hom(g.d.payload, x, v)
        for x in elements_of(g.apex.obj_key)
    )
    return (u, v, subgroup_compose(u, w, v, s_f, s_g))


def all_pinj_spans(src, tgt, apex_bound):
    out = []
    for apex in PI.enumerate_objects_up_to(apex_bound):
        for d in PI.enumerate_homs(apex, src):
            if not PI.classify(d).in_E:
                continue
            for m in PI.enumerate_homs(apex, tgt):
                if PI.classify(m).in_M:
                    out.append(em_span(PI, d, m))
    return out


def sample_cospans(inst, seed, bound, n):
    smp = Sampler(inst, seed, bound)
    out = []
    for _ in range(n):
        d1, m1 = smp.em_span_legs()
        f = em_span(inst, d1, m1)
        d2, m2 = smp.em_span_legs(tgt=f.tgt)
        out.append((f, em_span(inst, d2, m2)))
    return out


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------


def test_finab_frozen_diagonal_pair():
    # f = g : Z/2 >-> Z/4 by doubling.  The M-cospan pullback is the
    # diagonal of Z/2 + Z/2, every later stage stays Z/2, and the composite
    # pair is the identity relation on Z/2.
    z2, z4 = FA.group(2), FA.group(4)
    f = lift_m(FA, FA.hom(z2, z4, [[2]]))
    fp = fake_pullback(FA, f, f)
    assert fp.grid.Q.obj_key == (2,)
    key = pair_key(FA, fp)
    assert key == ((2,), (2,), frozenset({(0, 0), (1, 1)}))
    assert key == oracle_finab_pair_key(f, f)
    assert certify_grid(FA, fp.grid, 6) == []
    one = id_span(FA, z2)
    assert span_pair_iso_eq(FA, (fp.left_leg, fp.right_leg), (one, one))


def test_finab_frozen_grid_shape():
    z2, z4 = FA.group(2), FA.group(4)
    f = lift_m(FA, FA.hom(z2, z4, [[2]]))
    grid = fake_pullback(FA, f, f).grid
    assert (grid.U.obj_key, grid.V.obj_key, grid.W.obj_key) == ((2,), (2,), (4,))
    assert (grid.R.obj_key, grid.S.obj_key) == ((2,), (2,))
    assert grid.Z.obj_key == grid.X.obj_key == grid.Y.obj_key == (2,)
    assert grid.edge_classes() == {
        "r": "E", "s": "E", "d": "E", "e": "E", "d_bar": "E", "e_bar": "E",
        "i": "M", "j": "M", "m": "M", "n": "M", "m_bar": "M", "n_bar": "M",
    }
    # the four grid squares share corners the way the edge names promise
    pb, po = grid.pullback_square(), grid.pushout_square()
    assert pb.top.dom == grid.Z and pb.bottom.cod == grid.W
    assert po.top.dom == grid.Z and po.bottom.cod == grid.Q
    assert grid.left_factor_square().bottom.cod == grid.U
    assert grid.right_factor_square().bottom.cod == grid.V


def test_pinj_frozen_pair_with_phantom():
    # middle matches: rho=0 <-> sigma=1 where both d-values are defined,
    # giving the pair (1, 1); rho=2 <-> sigma=0 where only g's d-value is,
    # giving the phantom 0 on the right; rho=1 is unmatched and drops.
    r3, w3 = PI.fset(3), PI.fset(3)
    u2, s2, v2 = PI.fset(2), PI.fset(2), PI.fset(2)
    f = em_span(PI, PI.pinj(r3, u2, (1, 0, None)), PI.pinj(r3, w3, (0, 1, 2)))
    g = em_span(PI, PI.pinj(s2, v2, (0, 1)), PI.pinj(s2, w3, (2, 0)))
    fp = fake_pullback(PI, f, g)
    assert fp.grid.Q.obj_key == 1
    key = pair_key(PI, fp)
    assert key == (2, 2, frozenset({(1, 1)}), frozenset(), frozenset({0}))
    assert key == oracle_pinj_pair_key(f, g)
    assert certify_grid(PI, fp.grid, 3) == []
    assert fp.left_leg.src == fp.grid.Q and fp.left_leg.tgt == f.src
    assert fp.right_leg.src == fp.grid.Q and fp.right_leg.tgt == g.src


def test_groupoid_matches_honest_pullback():
    # every leg of a groupoid span is invertible, so the fake pullback must
    # reproduce the honest pullback of the cospan
    obj = S3.enumerate_objects_up_to(1)[0]
    homs = S3.enumerate_homs(obj, obj)
    f = em_span(S3, S3.identity(obj), homs[1])
    g = em_span(S3, S3.identity(obj), homs[2])
    fp = fake_pullback(S3, f, g)
    assert pair_key(S3, fp) == 4
    cone = S3.pullback_along_M(homs[1], homs[2])
    honest = (
        em_span(S3, S3.identity(cone.apex), cone.leg1),
        em_span(S3, S3.identity(cone.apex), cone.leg2),
    )
    assert span_pair_iso_eq(S3, (fp.left_leg, fp.right_leg), honest)
    assert certify_grid(S3, fp.grid, 1) == []


# ---------------------------------------------------------------------------
# degenerate inputs
# ---------------------------------------------------------------------------


def test_identity_cospan_gives_identity_pair():
    for inst, ob, bound in (
        (FA, FA.group(4), 4),
        (PI, PI.fset(3), 3),
        (S3, S3.enumerate_objects_up_to(1)[0], 1),
    ):
        one = id_span(inst, ob)
        fp = fake_pullback(inst, one, one)
        assert span_pair_iso_eq(inst, (fp.left_leg, fp.right_leg), (one, one))
        assert certify_grid(inst, fp.grid, bound) == []


def test_fake_pullback_needs_cospan():
    z2, z4 = FA.group(2), FA.group(4)
    with pytest.raises(EndpointMismatch):
        fake_pullback(FA, lift_m(FA, FA.hom(z2, z4, [[2]])), id_span(FA, z2))


def test_identity_law_single():
    f = lift_m(FA, FA.hom(FA.group(2), FA.group(4), [[2]]))
    rep = check_identity_law(FA, f, 6)
    assert rep.passes == 1 and not rep.failures


def test_stacking_identities_and_guard():
    z4 = FA.group(4)
    one = id_span(FA, z4)
    rep = check_stacking(FA, one, one, one, 6)
    assert rep.passes == 1 and not rep.failures
    with pytest.raises(EndpointMismatch):
        check_stacking(FA, id_span(FA, FA.group(2)), one, one, 6)


def test_degeneracy_transfers():
    # an invertible outer edge of the input cospan forces the matching
    # pushout edge invertible: d to s, m to j, e to r, n to i
    z2, z4, z8 = FA.group(2), FA.group(4), FA.group(8)
    g = em_span(FA, FA.hom(z4, z2, [[1]]), FA.hom(z4, z8, [[2]]))
    f_m = lift_m(FA, FA.hom(z2, z8, [[4]]))
    f_e = lift_e(FA, FA.hom(z8, z2, [[1]]))
    fp = fake_pullback(FA, f_m, g)
    assert FA.is_iso(fp.grid.s) and not FA.is_iso(fp.grid.j)
    fp = fake_pullback(FA, f_e, g)
    assert FA.is_iso(fp.grid.j) and not FA.is_iso(fp.grid.s)
    assert FA.is_iso(fake_pullback(FA, g, f_m).grid.r)
    assert FA.is_iso(fake_pullback(FA, g, f_e).grid.i)


# ---------------------------------------------------------------------------
# oracle comparisons
# ---------------------------------------------------------------------------


def test_pinj_pair_matches_element_oracle_exhaustive():
    u, v, w = PI.fset(2), PI.fset(2), PI.fset(3)
    fs = all_pinj_spans(u, w, 3)
    gs = all_pinj_spans(v, w, 3)
    assert len(fs) == 48 and len(gs) == 48
    for f in fs:
        for g in gs:
            fp = fake_pullback(PI, f, g)
            assert pair_key(PI, fp) == oracle_pinj_pair_key(f, g)


def test_finab_pair_matches_subgroup_oracle_sampled():
    for f, g in sample_cospans(FA, "fporacle", 5, 40):
        fp = fake_pullback(FA, f, g)
        assert pair_key(FA, fp) == oracle_finab_pair_key(f, g)


# ---------------------------------------------------------------------------
# grid certification and the pair laws, sampled per instance
# ---------------------------------------------------------------------------

INSTANCES = [(FA, 5), (PI, 3), (S3, 1)]
INSTANCE_IDS = ["finab", "pinj", "groupoid"]


@pytest.mark.parametrize("inst,bound", INSTANCES, ids=INSTANCE_IDS)
def test_grid_suite_sampled(inst, bound):
    rep = run_grid_suite(inst, seed=1, samples=25, bound=bound)
    assert rep.passes == rep.samples == 25
    assert not rep.failures


@pytest.mark.parametrize("inst,bound", INSTANCES, ids=INSTANCE_IDS)
def test_law_suites_sampled(inst, bound):
    for run in (run_symmetry_suite, run_identity_suite, run_fake_mono_suite):
        rep = run(inst, seed=2, samples=12, bound=bound)
        assert rep.passes == rep.samples == 12, rep.failures
    rep = run_stacking_suite(inst, seed=2, samples=8, bound=bound)
    assert rep.passes == rep.samples == 8, rep.failures


@pytest.mark.parametrize("inst,bound", INSTANCES, ids=INSTANCE_IDS)
def test_properness_spot_check(inst, bound):
    assert properness_holds(inst, bound)


def test_pinj_symmetry_exhaustive_tiny():
    w = PI.fset(2)
    reps = [
        span
        for size in (1, 2)
        for span in span_class_reps(PI, PI.fset(size), w, 2)
    ]
    assert len(reps) >= 4
    for f in reps:
        for g in reps:
            rep = check_symmetry(PI, f, g, 3)
            assert rep.passes == 1, rep.failures


def test_fake_mono_on_phantom_span():
    r3, w3 = PI.fset(3), PI.fset(3)
    f = em_span(
        PI, PI.pinj(r3, PI.fset(2), (1, 0, None)), PI.pinj(r3, w3, (0, 1, 2))
    )
    rep = check_fake_mono(PI, f, 3)
    assert rep.passes == 1 and not rep.failures


# ---------------------------------------------------------------------------
# pair comparison: guards and the keyed-versus-search dual route
# ---------------------------------------------------------------------------


def test_span_pair_iso_eq_guards():
    z2, z4 = FA.group(2), FA.group(4)
    f = lift_m(FA, FA.hom(z2, z4, [[2]]))
    one2, one4 = id_span(FA, z2), id_span(FA, z4)
    assert span_pair_iso_eq(FA, (f, f), (f, f))
    assert not span_pair_iso_eq(FA, (one2, one2), (one2, f))
    with pytest.raises(EndpointMismatch):
        span_pair_iso_eq(FA, (f, one4), (f, f))


class _NoKeyFinAb(FinAbInstance):
    def rel_pair_key(self, d1, m1, d2, m2):
        return None


class _NoKeyPInj(PInjInstance):
    def rel_pair_key(self, d1, m1, d2, m2):
        return None


@pytest.mark.parametrize(
    "keyed,plain,bound",
    [(FA, _NoKeyFinAb(), 4), (PI, _NoKeyPInj(), 3)],
    ids=["finab", "pinj"],
)
def test_pair_eq_search_route_matches_keyed_route(keyed, plain, bound):
    pairs = []
    for f, g in sample_cospans(keyed, "pairpath", bound, 6):
        fp = fake_pullback(keyed, f, g)
        pairs.append((fp.left_leg, fp.right_leg))
    for p in pairs:
        for q in pairs:
            assert span_pair_iso_eq(keyed, p, q) == span_pair_iso_eq(plain, p, q)


# ---------------------------------------------------------------------------
# V2: completing a reversed-E against lifted-M cospan
# ---------------------------------------------------------------------------


def test_v2_identity_inputs():
    z4 = FA.group(4)
    sqr = v2_square(FA, lift_e(FA, FA.identity(z4)), lift_m(FA, FA.identity(z4)))
    one = id_span(FA, z4)
    assert span_pair_iso_eq(FA, (sqr.b, sqr.y), (one, one))


def test_v2_frozen_through_trivial_middle():
    z2, z4 = FA.group(2), FA.group(4)
    a = lift_e(FA, FA.hom(z4, z2, [[1]]))
    x = lift_m(FA, FA.hom(z2, z4, [[2]]))
    sqr = v2_square(FA, a, x)
    # the base composite is zero, so the filling corner is trivial
    assert sqr.b.src.obj_key == () and sqr.y.src.obj_key == ()
    w = sqr.cell.w
    assert FA.compose(sqr.cell.tgt.d, w) == sqr.cell.src.d
    assert FA.compose(sqr.cell.tgt.m, w) == sqr.cell.src.m


def test_v2_unique_up_to_pair_iso_bounded():
    # enumerate every alternative completion over corners of order <= 4;
    # whenever both composites agree up to invertible cell, the pair must be
    # isomorphic to the canonical one
    z2, z4 = FA.group(2), FA.group(4)
    a = lift_e(FA, FA.hom(z4, z2, [[1]]))
    x = lift_m(FA, FA.hom(z2, z4, [[2]]))
    sqr = v2_square(FA, a, x)
    hits = 0
    for p in FA.enumerate_objects_up_to(4):
        for e in FA.enumerate_homs(x.src, p):
            if not FA.classify(e).in_E:
                continue
            b2 = lift_e(FA, e)
            for m in FA.enumerate_homs(p, a.src):
                if not FA.classify(m).in_M:
                    continue
                y2 = lift_m(FA, m)
                lhs = span_compose(FA, x, b2)
                rhs = span_compose(FA, a, y2)
                if cell_between(FA, lhs, rhs) is None:
                    continue
                if cell_between(FA, rhs, lhs) is None:
                    continue
                hits += 1
                assert span_pair_iso_eq(FA, (b2, y2), (sqr.b, sqr.y))
    assert hits == 1


@pytest.mark.parametrize("inst,bound", INSTANCES, ids=INSTANCE_IDS)
def test_v2_sampled(inst, bound):
    smp = Sampler(inst, "v2", bound)
    for _ in range(10):
        e = smp.hom(cls="E")
        m = smp.hom(b=e.dom, cls="M")
        sqr = v2_square(inst, lift_e(inst, e), lift_m(inst, m))
        assert inst.is_iso(sqr.b.m) and inst.is_iso(sqr.y.d)
        assert sqr.b.tgt == sqr.x.src and sqr.y.tgt == sqr.a.src
        assert sqr.b.src == sqr.y.src
        w = sqr.cell.w
        assert inst.compose(sqr.cell.tgt.d, w) == sqr.cell.src.d
        assert inst.compose(sqr.cell.tgt.m, w) == sqr.cell.src.m


def test_v2_guards():
    z2, z4 = FA.group(2), FA.group(4)
    e42, m24 = FA.hom(z4, z2, [[1]]), FA.hom(z2, z4, [[2]])
    good_a, good_x = lift_e(FA, e42), lift_m(FA, m24)
    with pytest.raises(ClassViolation, match="a must be a reversed-E span"):
        v2_square(FA, lift_m(FA, m24), good_x)
    with pytest.raises(ClassViolation, match="x must be a lifted-M span"):
        v2_square(FA, good_a, lift_e(FA, e42))
    with pytest.raises(EndpointMismatch):
        v2_square(FA, lift_e(FA, FA.identity(z2)), good_x)


class _CountingClassify(FinAbInstance):
    def __init__(self):
        super().__init__()
        self.seen = collections.Counter()

    def classify(self, f):
        self.seen[f] += 1
        return super().classify(f)


def test_v2_classifies_its_reversed_e_leg_once():
    # the iso check on a.m is the one inverse makes; nothing else in the
    # square reads that leg
    inst = _CountingClassify()
    z2, z4 = inst.group(2), inst.group(4)
    a = lift_e(inst, inst.hom(z4, z2, [[1]]))
    x = lift_m(inst, inst.hom(z2, z4, [[2]]))
    inst.seen.clear()
    v2_square(inst, a, x)
    assert inst.seen[a.m] == 1


# ---------------------------------------------------------------------------
# V3 and V4: pasting completions with certified output squares
# ---------------------------------------------------------------------------


def _v3_input():
    z2 = FA.group(2)
    e42 = FA.hom(FA.group(4), z2, [[1]])
    cone = FA.pullback_along_M(e42, FA.identity(z2))
    sq = Square(top=cone.leg1, left=cone.leg2, right=e42, bottom=FA.identity(z2))
    return sq, FA.hom(z2, FA.group(4), [[2]])


def test_v3_frozen():
    sq, a = _v3_input()
    res = v3_complete(FA, sq, a, 6)
    assert FA.classify(res.q).in_E
    assert (res.q.dom.obj_key, res.q.cod.obj_key) == ((2,), ())
    assert res.c.dom.obj_key == (2,) and res.d.dom.obj_key == ()
    # output squares carry the advertised edges
    assert res.left_square.top is res.c and res.left_square.left is res.q
    assert res.right_square.top is res.v and res.right_square.bottom is res.w


def test_v3_guards():
    z2, z4 = FA.group(2), FA.group(4)
    e42, m24 = FA.hom(z4, z2, [[1]]), FA.hom(z2, z4, [[2]])
    sq, a = _v3_input()
    with pytest.raises(ClassViolation):
        v3_complete(FA, sq, e42, 6)
    with pytest.raises(EndpointMismatch):
        v3_complete(FA, sq, FA.hom(z2, z2, [[1]]), 6)
    # commuting mixed square with a too-small corner is rejected
    one = FA.group()
    bad = Square(
        top=FA.hom(one, z4, [[]]), left=FA.identity(one),
        right=e42, bottom=FA.hom(one, z2, [[]]),
    )
    with pytest.raises(ShapeViolation):
        v3_complete(FA, bad, m24, 6)


def _v4_input():
    z8 = FA.group(8)
    f = FA.hom(z8, FA.group(4), [[1]])
    a = FA.hom(z8, FA.group(2), [[1]])
    cone = FA.pushout_along_E(f, a)
    sq = Square(top=a, left=f, right=cone.leg2, bottom=cone.leg1)
    return sq, FA.hom(FA.group(2), FA.group(4), [[2]])


def test_v4_frozen():
    sq, x = _v4_input()
    res = v4_complete(FA, sq, x, 6)
    assert FA.classify(res.k).in_E
    assert (res.u.dom.obj_key, res.u.cod.obj_key) == ((), (2,))
    assert res.j.dom.obj_key == (4,) and res.j.cod.obj_key == ()
    assert res.mixed_square.right is sq.left and res.mixed_square.bottom is x
    assert res.right_square.left is res.k and res.right_square.bottom is res.u


def test_v4_guards():
    z2, z4 = FA.group(2), FA.group(4)
    e1, m24 = FA.hom(z4, z2, [[1]]), FA.hom(z2, z4, [[2]])
    sq, x = _v4_input()
    with pytest.raises(ClassViolation):
        v4_complete(FA, sq, e1, 6)
    with pytest.raises(EndpointMismatch):
        v4_complete(FA, sq, FA.identity(z2), 6)
    # commuting all-E square that is no pushout is rejected
    bad = Square(top=FA.identity(z4), left=FA.identity(z4), right=e1, bottom=e1)
    with pytest.raises(ShapeViolation):
        v4_complete(FA, bad, m24, 6)


# ---------------------------------------------------------------------------
# V1 and the bundled readiness suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "inst,bound,span_bound",
    [(FA, 5, 2), (PI, 3, 2), (S3, 1, 1)],
    ids=INSTANCE_IDS,
)
def test_v1_bipullback_smoke(inst, bound, span_bound):
    rep = check_v1(inst, seed=3, samples=6, bound=bound, span_bound=span_bound)
    assert rep.passes == rep.samples >= 6
    assert not rep.failures


@pytest.mark.parametrize(
    "inst,bound,span_bound",
    [(FA, 5, 2), (PI, 3, 2), (S3, 1, 1)],
    ids=INSTANCE_IDS,
)
def test_v_conditions_suite(inst, bound, span_bound):
    rep = run_v_conditions_suite(
        inst, seed=4, samples=9, bound=bound, span_bound=span_bound
    )
    assert rep.passes == rep.samples
    assert not rep.failures


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


def phantom_cospan(inst):
    r3, w3 = inst.fset(3), inst.fset(3)
    u2, s2, v2 = inst.fset(2), inst.fset(2), inst.fset(2)
    f = em_span(inst, inst.pinj(r3, u2, (1, 0, None)), inst.pinj(r3, w3, (0, 1, 2)))
    g = em_span(inst, inst.pinj(s2, v2, (0, 1)), inst.pinj(s2, w3, (2, 0)))
    return f, g


def test_memoized_fake_pullback_equals_fresh_result():
    warm = PInjInstance()
    f, g = phantom_cospan(warm)
    first = fake_pullback(warm, f, g)
    assert fake_pullback(warm, f, g) is first
    fresh = PInjInstance()
    again = fake_pullback(fresh, *phantom_cospan(fresh))
    assert again is not first and again.grid == first.grid

    def legs(fp):
        return [(s.src, s.tgt, s.apex, s.d, s.m) for s in (fp.left_leg, fp.right_leg)]

    assert legs(again) == legs(first)


def test_failed_fake_pullbacks_are_not_memoized():
    inst = PInjInstance()
    f, g = phantom_cospan(inst)
    other = id_span(inst, inst.fset(2))
    for _ in range(2):
        with pytest.raises(EndpointMismatch):
            fake_pullback(inst, f, other)
    assert inst.memo.fake_pullbacks == {}


def test_instances_share_no_fake_pullbacks():
    one, two = PInjInstance(), PInjInstance()
    fake_pullback(one, *phantom_cospan(one))
    assert len(one.memo.fake_pullbacks) == 1
    assert one.memo is not two.memo
    assert two.memo.fake_pullbacks == {}


def test_repeated_fake_pullback_pulls_back_once():
    inst = CountingPInj()
    f, g = phantom_cospan(inst)
    results = {id(fake_pullback(inst, f, g)) for _ in range(10)}
    assert len(results) == 1
    assert inst.pullbacks == 1


# ---------------------------------------------------------------------------
# where validation runs: certify_grid, not the construction
# ---------------------------------------------------------------------------


class _CountingValidateFinAb(FinAbInstance):
    def __init__(self):
        super().__init__()
        self.validations = 0

    def validate_mor(self, f):
        self.validations += 1
        super().validate_mor(f)


def test_decisions_and_fake_pullback_misses_validate_nothing():
    inst = _CountingValidateFinAb()
    z2, z4, z8 = inst.group(2), inst.group(4), inst.group(8)
    f = em_span(inst, inst.hom(z4, z2, [[1]]), inst.hom(z4, z8, [[2]]))
    g = em_span(inst, inst.identity(z8), inst.identity(z8))
    cone = inst.pullback_along_M(f.m, g.m)
    sq = Square(top=cone.leg1, left=cone.leg2, right=f.m, bottom=g.m)
    inst.validations = 0
    # a pullback along an isomorphism is also a pushout
    assert is_pullback(inst, sq, 8) and is_pushout(inst, sq, 8)
    fake_pullback(inst, f, g)
    assert len(inst.memo.fake_pullbacks) == 1
    assert inst.validations == 0
    # the fake-pullback command's check of the grid does validate it
    assert certify_grid(inst, fake_pullback(inst, f, g).grid, 8) == []
    assert inst.validations > 0


class _WidePushoutFinAb(FinAbInstance):
    """A broken instance: its pushouts carry a spare Z/2 summand that no
    leg reaches, so the square commutes but both legs lie outside E."""

    def pushout_along_E(self, f, e):
        po = super().pushout_along_E(f, e)
        wide = self.group(*po.apex.obj_key, 2)

        def widen(leg):
            return self.hom(leg.dom, wide, [*leg.payload, [0] * len(leg.dom.obj_key)])

        return ConeResult(wide, widen(po.leg1), widen(po.leg2))


def test_grid_suite_reports_a_broken_grid_as_failures():
    rep = run_grid_suite(_WidePushoutFinAb(), seed=1, samples=25, bound=5)
    assert rep.passes == 0 and len(rep.failures) == 25
    for failure in rep.failures:
        assert set(failure) == {"detail", "f", "g"}
        assert failure["detail"] == (
            "structural validation failed: grid edge r fell outside class E")


def test_certify_grid_reports_a_misclassified_edge():
    # M-legs onto the two summands of Z/2 + Z/2 pull back to 0, so the
    # left factorization square runs out of 0 and commutes for any d
    z2, v4 = FA.group(2), FA.group(2, 2)
    f = em_span(FA, FA.identity(z2), FA.hom(z2, v4, [[1], [0]]))
    g = em_span(FA, FA.identity(z2), FA.hom(z2, v4, [[0], [1]]))
    grid = fake_pullback(FA, f, g).grid
    assert grid.Z.obj_key == () and certify_grid(FA, grid, 4) == []
    zero = FA.hom(z2, z2, [[0]])  # neither in E nor in M
    assert certify_grid(FA, dataclasses.replace(grid, d=zero), 4) == [
        {"detail": "structural validation failed: grid edge d fell outside class E"},
    ]
