"""Tests for the seeded diagram generators.

The suite reports at a fixed seed show only counts, so a change to what a
shaped draw returns for a given seed would pass unnoticed there.  These
fingerprints hash the first draws of every shaped draw and pin them.
"""
from __future__ import annotations

import hashlib

import pytest

from spancat.core import GroupoidInstance, Mor, Square, symmetric_group_table
from spancat.finab import FinAbInstance, hom_classify
from spancat.gen import Sampler
from spancat.pinj import PInjInstance

# name -> (instance, bound); finab-o8 draws at the bound of the benchmark's
# axiom workload
INSTANCES = {"finab": (FinAbInstance, 6), "finab-o8": (FinAbInstance, 8),
             "pinj": (PInjInstance, 3)}
DRAWS_PER_STREAM = 100


def _plain(x):
    """Endpoint keys and payloads of a draw's morphisms, in draw order."""
    if isinstance(x, Mor):
        return (x.dom.obj_key, x.cod.obj_key, x.payload)
    if isinstance(x, Square):
        return tuple(_plain(f) for f in (x.top, x.left, x.right, x.bottom))
    return tuple(_plain(y) for y in x)


# streams drawn by a shaped draw with arguments: stream name -> the draw
CALLS = {
    "factorization_ladder_dual": lambda smp: smp.factorization_ladder(op=True),
    "cospan_with_M": lambda smp: smp.cone_input(),
    "span_with_E": lambda smp: smp.cone_input(op=True),
    "cospan_E_M": lambda smp: smp.cone_input(cls="E"),
    "span_M_E": lambda smp: smp.cone_input(op=True, cls="M"),
}


def stream_fingerprint(instance: str, draw: str) -> str:
    make, bound = INSTANCES[instance]
    smp = Sampler(make(), f"stream:{draw}", bound)
    call = CALLS.get(draw, lambda smp: getattr(smp, draw)())
    h = hashlib.sha256()
    for _ in range(DRAWS_PER_STREAM):
        h.update(repr(_plain(call(smp))).encode())
    return h.hexdigest()[:16]


# (instance, shaped draw) -> fingerprint of its first draws
PINNED = {
    ("finab", "mixed_square"): "5f75bd46673b3222",
    ("finab", "factorization_ladder"): "e1fcd3ffcc774c34",
    ("finab", "factorization_ladder_dual"): "29d752807622644f",
    ("finab", "cospan_with_M"): "b30ccbb23ed9fcdf",
    ("finab", "span_with_E"): "b1d73c0041215c3b",
    ("finab", "cospan_E_M"): "6713501f9017ee10",
    ("finab", "span_M_E"): "10724e26e1a1280c",
    ("finab", "em_span_legs"): "60d2fa890fc55b75",
    ("finab-o8", "mixed_square"): "125ee9273a68043d",
    ("finab-o8", "factorization_ladder"): "2e6d0b800b2a548b",
    ("finab-o8", "factorization_ladder_dual"): "603726801c009ec5",
    ("pinj", "mixed_square"): "ea1f22b93f08b573",
    ("pinj", "factorization_ladder"): "5e367738965a416e",
    ("pinj", "factorization_ladder_dual"): "e59f6ac3d3b96e67",
    ("pinj", "cospan_with_M"): "56bccf49fd0d18ff",
    ("pinj", "span_with_E"): "fc91e5d7f58239f5",
    ("pinj", "cospan_E_M"): "c073f76caa4ad3e1",
    ("pinj", "span_M_E"): "7d7d9e65c773b666",
    ("pinj", "em_span_legs"): "5e168952f05adae5",
}


@pytest.mark.parametrize("instance,draw", sorted(PINNED))
def test_shaped_draw_streams_are_pinned(instance, draw):
    assert stream_fingerprint(instance, draw) == PINNED[(instance, draw)]


def test_finab_sampler_lists_match_classify_scan_up_to_order_16():
    # reachable and em_apexes ask has_class_hom; they must list what the
    # classify-filtered pools listed, or every draw stream moves
    inst = FinAbInstance()
    smp = Sampler(inst, "lists", 16)
    objs = smp.objects
    exists = {}
    for a in objs:
        for b in objs:
            homs = FinAbInstance().enumerate_homs(a, b)
            for cls in ("E", "M"):
                exists[a, b, cls] = any(
                    getattr(hom_classify(a.obj_key, b.obj_key, f.payload), f"in_{cls}")
                    for f in homs)
    for a in objs:
        for cls in ("E", "M"):
            assert smp.reachable(a, cls, "out") == [b for b in objs if exists[a, b, cls]]
            assert smp.reachable(a, cls, "in") == [b for b in objs if exists[b, a, cls]]
    for src in objs:
        for tgt in objs:
            assert smp.em_apexes(src, tgt) == [
                r for r in objs if exists[r, src, "E"] and exists[r, tgt, "M"]]


def test_largest_finab_pool_is_drawn_without_enumerating_homs(matrices_built):
    inst = FinAbInstance()
    smp = Sampler(inst, "pool", 16)
    z = inst.group(2, 2, 2, 2)
    smp.hom(z, z, "E")
    pool = smp.pool(z, z, "E")
    assert len(pool) == 20160  # |GL(4, 2)| of the 65,536 homs
    # between groups of one order E, M and the isos are one pool
    assert smp.pool(z, z, "M") is pool and smp.pool(z, z, "iso") is pool
    assert inst._classify.cache_info().currsize == 0
    # a draw of class any from End(Z2^4) builds the one matrix drawn
    matrices_built[0] = 0
    smp.hom(z, z)
    assert len(smp.pool(z, z)) == 65536 and matrices_built[0] == 1


@pytest.mark.parametrize("cls", ["any", "E"])
def test_one_draw_from_the_largest_finab_pool_builds_one_hom(matrices_built, cls):
    # the pool holds the indices of its members (65,536 homs of class any,
    # 20,160 of E); a draw builds the member drawn, and a member read again
    # is not built again
    inst = FinAbInstance()
    smp = Sampler(inst, "pool", 16)
    z = inst.group(2, 2, 2, 2)
    smp.hom(z, z, cls)
    assert matrices_built[0] == 1
    pool = smp.pool(z, z, cls)
    assert pool[0] is pool[0] and matrices_built[0] == 2


@pytest.mark.parametrize("make,bound", [(FinAbInstance, 16), (PInjInstance, 3)],
                         ids=["finab", "pinj"])
def test_em_apexes_match_has_class_hom_filter(make, bound):
    inst = make()
    smp = Sampler(inst, "apexes", bound)
    objs = smp.objects
    for src in objs:
        for tgt in objs:
            assert smp.em_apexes(src, tgt) == [
                r for r in objs
                if inst.has_class_hom(r, src, "E") and inst.has_class_hom(r, tgt, "M")]


def test_em_spans_with_free_ends_are_drawn_until_a_pair_has_one():
    # at finab order 96 about 1 pair of objects in 26 has an EM-span, so a
    # draw with both ends free must try pairs until one has
    inst = FinAbInstance()
    smp = Sampler(inst, 0, 96)
    for _ in range(1000):
        d, m = smp.em_span_legs()
        assert d.dom == m.dom and inst.classify(d).in_E and inst.classify(m).in_M


class _ComposeCounting(FinAbInstance):
    """FinAbInstance that counts its compose and compose_all calls."""

    def __init__(self):
        super().__init__()
        self.composes = 0

    def compose(self, g, f):
        self.composes += 1
        return super().compose(g, f)

    def compose_all(self, g, t, op=False, cls="any"):
        self.composes += 1
        return super().compose_all(g, t, op, cls)


@pytest.mark.parametrize("op", [False, True])
def test_commuting_pair_composes_nothing_when_a_pool_is_empty(op):
    inst = _ComposeCounting()
    smp = Sampler(inst, "pairs", 4)
    z2, z4 = inst.group(2), inst.group(4)
    # no onto map Z/2 -> Z/4: the E pool at `empty` is empty, the pool at
    # `full` is not
    a, empty, full = (z4, z2, z4) if op else (z2, z4, z2)
    e, f = inst.identity(empty), inst.identity(full)
    assert smp.pool(*((full, a) if op else (a, full)))
    assert smp.commuting_pair(e, f, a, "E", "any", op) is None
    assert smp.commuting_pair(f, e, a, "any", "E", op) is None
    assert inst.composes == 0


@pytest.mark.parametrize("op", [False, True])
def test_commuting_pair_builds_only_the_drawn_members(matrices_built, op):
    # (u, v) with g1 . u == g2 . v (u . g1 == v . g2 with op), u in E and v
    # any: the pair rng.choice takes from the pairs of a compose loop over
    # both pools (on an instance of its own), in its order, and only its
    # two members are built
    inst, ref = FinAbInstance(), FinAbInstance()
    smp = Sampler(inst, "pairs", 16)

    def legs(i):
        z2, z4, z24 = i.group(2), i.group(4), i.group(2, 4)
        if op:
            return i.hom(z2, z4, [[2]]), i.hom(z2, z24, [[1], [2]]), z2
        return i.hom(z4, z2, [[1]]), i.hom(z24, z2, [[1, 1]]), z24

    g1, g2, a = legs(ref)
    if op:
        us, vs = ref.class_homs(g1.cod, a, "E"), ref.enumerate_homs(g2.cod, a)
        loop = [(u, v) for v in vs for u in us
                if ref.compose(u, g1).payload == ref.compose(v, g2).payload]
    else:
        us, vs = ref.class_homs(a, g1.dom, "E"), ref.enumerate_homs(a, g2.dom)
        loop = [(u, v) for v in vs for u in us
                if ref.compose(g1, u).payload == ref.compose(g2, v).payload]
    assert 1 < len(loop) < len(us) * len(vs)
    matrices_built[0] = 0
    state = smp.rng.getstate()
    pair = smp.commuting_pair(*legs(inst), "E", "any", op)
    assert matrices_built[0] == 2
    smp.rng.setstate(state)
    assert _plain(pair) == _plain(smp.rng.choice(loop))


@pytest.mark.parametrize("make", [
    FinAbInstance, PInjInstance,
    lambda: GroupoidInstance(symmetric_group_table(3), name="groupoid:s3"),
], ids=["finab", "pinj", "s3"])
def test_samplers_on_one_instance_hand_out_the_same_pool(make):
    # every pool is kept once, in the instance's memo.pools
    inst = make()
    one, two = Sampler(inst, "one", 4), Sampler(inst, "two", 4)
    for a in one.objects:
        for b in one.objects:
            for cls in ("any", "E", "M", "iso"):
                assert one.pool(a, b, cls) is two.pool(a, b, cls), (a, b, cls)
