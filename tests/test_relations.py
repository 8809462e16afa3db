"""Tests for the zig-zag relation calculus: construction, composition by
fake pullback, end-fixed iso classes, the subgroup translation over finite
abelian groups, the matching translation over partial injections, and the
laws (units, associativity, reverse, rrr).

Oracles are independent of the categorical route.  Over partial injections
a composite is recomputed elementwise from the matching keys.  Over finite
abelian groups every relation is read off as a subgroup of X + Z and the
composite must equal subgroup_compose of the inputs, evaluated by plain
enumeration.
"""
from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from spancat.core import (
    EndpointMismatch,
    GroupoidInstance,
    ValidationFailure,
    symmetric_group_table,
)
from spancat.finab import (
    FinAbInstance,
    all_subgroups,
    apply_hom,
    close_elements,
    diagonal_subgroup,
    elements_of,
    subgroup_compose,
)
from spancat.fakepb import span_pair_iso_eq
from spancat.gen import Sampler
from spancat.jsonio import dumps, parse_relation, relation_dict
from spancat.pinj import PInjInstance
from spancat.relations import (
    all_matchings,
    check_associativity,
    check_goursat_roundtrip_exact,
    check_goursat_zigzag_return,
    check_rrr,
    goursat_generators,
    goursat_to_subgroup,
    graph_relation,
    matching_to_relation,
    rel_compose,
    rel_identity,
    rel_iso_eq,
    rel_key,
    rel_reverse,
    relation,
    relation_to_matching,
    run_associativity_suite,
    run_goursat_suite,
    run_rrr_suite,
    sample_relation,
    subgroup_to_zigzag,
)
from spancat.spans import em_span, id_span, lift_e

FA = FinAbInstance()
PI = PInjInstance()
S3 = GroupoidInstance(symmetric_group_table(3), name="groupoid:s3")

INSTANCES = [(FA, 5), (PI, 3), (S3, 1)]
INSTANCE_IDS = ["finab", "pinj", "groupoid"]


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def oracle_matching_composite(k1, k2):
    """Composite matching key, chained elementwise: matched pairs link
    through the shared end, and a pair whose middle point is a phantom on
    the other side degrades to an endpoint phantom."""
    x, z1, p1, l1, r1 = k1
    z2, t, p2, l2, r2 = k2
    assert z1 == z2
    pairs = frozenset((a, c) for (a, b) in p1 for (b2, c) in p2 if b == b2)
    lph = frozenset(l1) | frozenset(a for (a, b) in p1 if b in l2)
    rph = frozenset(r2) | frozenset(c for (b, c) in p2 if b in r1)
    return (x, t, pairs, lph, rph)


def oracle_graph_subgroup(f):
    """The graph of a hom as a set of concatenated (x, f x) tuples."""
    cod = f.cod.obj_key
    return frozenset(
        tuple(x) + tuple(apply_hom(f.payload, x, cod))
        for x in elements_of(f.dom.obj_key)
    )


def matching_count(nx: int, nz: int) -> int:
    """Class count at the given end sizes: choose the matched pairs, then
    phantoms freely on either side of the complement."""
    from math import comb, factorial

    return sum(
        comb(nx, k) * comb(nz, k) * factorial(k) * 2 ** (nx - k) * 2 ** (nz - k)
        for k in range(min(nx, nz) + 1)
    )


def finab_relation(x, z, elems):
    return subgroup_to_zigzag(FA, x, z, elems)


# ---------------------------------------------------------------------------
# construction, reversal, serialization
# ---------------------------------------------------------------------------


def test_relation_requires_shared_source():
    z2, z4 = FA.group(2), FA.group(4)
    with pytest.raises(EndpointMismatch):
        relation(FA, id_span(FA, z2), id_span(FA, z4))


def test_identity_shape():
    z4 = FA.group(4)
    r = rel_identity(FA, z4)
    assert r.X == r.Y == r.Z == z4
    assert r.left == r.right == id_span(FA, z4)


def test_reverse_swaps_and_involutes():
    z2, z4 = FA.group(2), FA.group(4)
    r = finab_relation(z4, z2, frozenset((x, x % 2) for x in range(4)))
    rev = rel_reverse(FA, r)
    assert (rev.X, rev.Z) == (r.Z, r.X)
    assert rev.left == r.right and rev.right == r.left
    assert rel_reverse(FA, rev) == r


@pytest.mark.parametrize("inst,bound", INSTANCES, ids=INSTANCE_IDS)
def test_json_roundtrip(inst, bound):
    smp = Sampler(inst, "json-rel", bound)
    for _ in range(6):
        r = sample_relation(inst, smp)
        again = parse_relation(inst, json.loads(dumps(relation_dict(inst, r))))
        assert again is r


def test_parse_relation_guards():
    z2 = FA.group(2)
    data = relation_dict(FA, rel_identity(FA, z2))
    with pytest.raises(ValidationFailure):
        parse_relation(FA, {"left": data["left"]})
    bad = dict(data, X={"orders": [4]})
    with pytest.raises(ValidationFailure):
        parse_relation(FA, bad)
    # legs out of two sources: relation itself rejects them
    mixed = dict(data, right=relation_dict(FA, rel_identity(FA, FA.group(4)))["right"])
    with pytest.raises(EndpointMismatch):
        parse_relation(FA, mixed)


# ---------------------------------------------------------------------------
# the subgroup translation: frozen values
# ---------------------------------------------------------------------------


def test_identity_is_the_diagonal():
    z2 = FA.group(2)
    assert goursat_to_subgroup(FA, rel_identity(FA, z2)) == frozenset(
        {(0, 0), (1, 1)}
    )
    assert goursat_to_subgroup(FA, rel_identity(FA, z2)) == diagonal_subgroup((2,))


def test_trivial_middle_is_the_full_relation():
    z2, z4, one = FA.group(2), FA.group(4), FA.group()
    r = relation(FA, lift_e(FA, FA.hom(z2, one, ())), lift_e(FA, FA.hom(z4, one, ())))
    assert goursat_to_subgroup(FA, r) == frozenset(elements_of((2, 4)))


def test_zero_subobject_legs_give_the_trivial_relation():
    z2, z4, one = FA.group(2), FA.group(4), FA.group()
    left = em_span(FA, FA.identity(one), FA.hom(one, z2, [[]]))
    right = em_span(FA, FA.identity(one), FA.hom(one, z4, [[]]))
    assert goursat_to_subgroup(FA, relation(FA, left, right)) == frozenset({(0, 0)})


def test_graph_subgroup_matches_elementwise_graph():
    z2, z4 = FA.group(2), FA.group(4)
    f = FA.hom(z4, z2, [[1]])
    assert goursat_to_subgroup(FA, graph_relation(FA, f)) == frozenset(
        {(0, 0), (1, 1), (2, 0), (3, 1)}
    )
    assert goursat_to_subgroup(FA, graph_relation(FA, f)) == oracle_graph_subgroup(f)
    g = FA.hom(z2, z4, [[2]])
    assert goursat_to_subgroup(FA, graph_relation(FA, g)) == oracle_graph_subgroup(g)


def test_mod_two_congruence_is_a_roundtrip_fixed_point():
    z2, z4 = FA.group(2), FA.group(4)
    s = frozenset({(0, 0), (1, 1), (2, 0), (3, 1)})
    r = subgroup_to_zigzag(FA, z4, z2, s)
    assert goursat_to_subgroup(FA, r) == s
    assert r.Y.obj_key == (2,)


def test_two_presentations_of_the_diagonal_are_iso():
    z3 = FA.group(3)
    direct = rel_identity(FA, z3)
    twisted_leg = em_span(FA, FA.hom(z3, z3, [[2]]), FA.identity(z3))
    twisted = relation(FA, twisted_leg, twisted_leg)
    assert twisted.left != direct.left
    assert rel_iso_eq(FA, twisted, direct)
    assert goursat_to_subgroup(FA, twisted) == diagonal_subgroup((3,))
    # composing identities runs the redundant route through a pullback middle
    redundant = rel_compose(FA, direct, direct)
    assert rel_iso_eq(FA, redundant, direct)
    assert goursat_to_subgroup(FA, redundant) == diagonal_subgroup((3,))


def test_diagonal_and_full_relation_differ():
    z2, one = FA.group(2), FA.group()
    full = relation(FA, lift_e(FA, FA.hom(z2, one, ())), lift_e(FA, FA.hom(z2, one, ())))
    assert not rel_iso_eq(FA, full, rel_identity(FA, z2))


def test_reverse_transposes_the_subgroup():
    z2, z4 = FA.group(2), FA.group(4)
    s = frozenset({(0, 0), (1, 1), (2, 0), (3, 1)})
    r = subgroup_to_zigzag(FA, z4, z2, s)
    assert goursat_to_subgroup(FA, rel_reverse(FA, r)) == frozenset(
        {(0, 0), (1, 1), (0, 2), (1, 3)}
    )


def test_subgroup_to_zigzag_rejects_non_subgroups():
    z2 = FA.group(2)
    with pytest.raises(ValidationFailure):
        subgroup_to_zigzag(FA, z2, z2, {(1, 1)})


def test_goursat_needs_the_finab_instance():
    with pytest.raises(ValidationFailure):
        goursat_to_subgroup(PI, rel_identity(PI, PI.fset(2)))
    with pytest.raises(ValidationFailure):
        subgroup_to_zigzag(S3, S3.obj("*"), S3.obj("*"), {(0,)})


def test_goursat_generators_regenerate():
    ambient = (4, 2)
    s = frozenset({(0, 0), (1, 1), (2, 0), (3, 1)})
    gens = goursat_generators(ambient, s)
    assert close_elements(ambient, [tuple(g) for g in gens]) == s
    assert gens == goursat_generators(ambient, sorted(s))


# ---------------------------------------------------------------------------
# the subgroup translation: exhaustive roundtrips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x_ord,z_ord",
    [((2,), (2,)), ((4,), (2,)), ((2, 2), (2,)), ((4,), (4,)), ((2, 2), (2, 2))],
)
def test_every_subgroup_roundtrips_exactly(x_ord, z_ord):
    x, z = FA.group(*x_ord), FA.group(*z_ord)
    rep = check_goursat_roundtrip_exact(FA, x, z, bound=4)
    assert rep.passes == rep.samples == len(all_subgroups(x_ord + z_ord))
    assert rep.failures == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_sampled_zigzag_returns_to_its_class(seed):
    smp = Sampler(FA, f"zigzag-return:{seed}", 5)
    r = sample_relation(FA, smp)
    rep = check_goursat_zigzag_return(FA, r, bound=5)
    assert rep.passes == 1, rep.failures


def test_goursat_suite_runs_clean():
    rep = run_goursat_suite(FA, seed=7, samples=12, bound=4, max_order=8)
    assert rep.passes == rep.samples
    assert rep.failures == []


# ---------------------------------------------------------------------------
# the matching translation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nx,nz", [(0, 0), (0, 2), (1, 1), (1, 2), (2, 2), (2, 3)])
def test_matching_enumeration_count(nx, nz):
    keys = all_matchings(nx, nz)
    assert len(keys) == matching_count(nx, nz)
    assert len(set(keys)) == len(keys)


def test_matching_roundtrip_exhaustive_small():
    for nx in range(3):
        for nz in range(3):
            x, z = PI.fset(nx), PI.fset(nz)
            for pairs, lph, rph in all_matchings(nx, nz):
                r = matching_to_relation(PI, x, z, pairs, lph, rph)
                assert relation_to_matching(PI, r) == (pairs, lph, rph)
                assert rel_key(PI, r) == (nx, nz, pairs, lph, rph)


def test_matching_classes_are_distinct():
    x = z = PI.fset(2)
    rels = [matching_to_relation(PI, x, z, *m) for m in all_matchings(2, 2)]
    assert len({rel_key(PI, r) for r in rels}) == 34
    for i, r in enumerate(rels):
        for s in rels[i + 1:]:
            assert not rel_iso_eq(PI, r, s)


def test_matching_guards():
    x, z = PI.fset(2), PI.fset(2)
    with pytest.raises(ValidationFailure):
        matching_to_relation(PI, x, z, [(0, 0), (0, 1)])
    with pytest.raises(ValidationFailure):
        matching_to_relation(PI, x, z, [(0, 2)])
    with pytest.raises(ValidationFailure):
        matching_to_relation(PI, x, z, [(0, 0)], left_phantoms=[0])
    with pytest.raises(ValidationFailure):
        matching_to_relation(FA, FA.group(2), FA.group(2), [(0, 0)])
    with pytest.raises(ValidationFailure):
        relation_to_matching(FA, rel_identity(FA, FA.group(2)))


def test_matching_of_identity_and_graph():
    r3 = PI.fset(3)
    assert relation_to_matching(PI, rel_identity(PI, r3)) == (
        frozenset({(0, 0), (1, 1), (2, 2)}),
        frozenset(),
        frozenset(),
    )
    # undefined domain points of a partial injection survive as left
    # phantoms of its graph
    f = PI.pinj(r3, PI.fset(2), (1, None, 0))
    pairs, lph, rph = relation_to_matching(PI, graph_relation(PI, f))
    assert pairs == frozenset({(0, 1), (2, 0)})
    assert (lph, rph) == (frozenset({1}), frozenset())


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_needs_matching_middle():
    z2, z4 = FA.group(2), FA.group(4)
    with pytest.raises(EndpointMismatch):
        rel_compose(FA, rel_identity(FA, z4), rel_identity(FA, z2))


def test_pinj_composite_matches_elementwise_oracle_exhaustive():
    x = z = PI.fset(2)
    rels = [matching_to_relation(PI, x, z, *m) for m in all_matchings(2, 2)]
    for r1 in rels:
        k1 = rel_key(PI, r1)
        for r2 in rels:
            comp = rel_compose(PI, r2, r1)
            assert rel_key(PI, comp) == oracle_matching_composite(k1, rel_key(PI, r2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_pinj_composite_matches_elementwise_oracle_sampled(seed):
    smp = Sampler(PI, f"rel-comp:{seed}", 4)
    r1 = sample_relation(PI, smp)
    r2 = sample_relation(PI, smp, x=r1.Z)
    comp = rel_compose(PI, r2, r1)
    assert rel_key(PI, comp) == oracle_matching_composite(
        rel_key(PI, r1), rel_key(PI, r2)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_finab_composite_matches_subgroup_compose(seed):
    smp = Sampler(FA, f"rel-comp:{seed}", 5)
    r1 = sample_relation(FA, smp)
    r2 = sample_relation(FA, smp, x=r1.Z)
    comp = rel_compose(FA, r2, r1)
    x, z, t = r1.X.obj_key, r1.Z.obj_key, r2.Z.obj_key
    assert goursat_to_subgroup(FA, comp) == subgroup_compose(
        x, z, t, goursat_to_subgroup(FA, r1), goursat_to_subgroup(FA, r2)
    )


def test_graph_is_functorial_finab():
    smp = Sampler(FA, "graph-funct", 5)
    for _ in range(100):
        f = smp.hom()
        g = smp.hom(a=f.cod)
        lhs = graph_relation(FA, FA.compose(g, f))
        rhs = rel_compose(FA, graph_relation(FA, g), graph_relation(FA, f))
        assert rel_iso_eq(FA, lhs, rhs)
        assert goursat_to_subgroup(FA, rhs) == oracle_graph_subgroup(FA.compose(g, f))


@pytest.mark.parametrize("inst,bound", [(PI, 4), (S3, 1)], ids=["pinj", "groupoid"])
def test_graph_is_functorial_elsewhere(inst, bound):
    smp = Sampler(inst, "graph-funct", bound)
    for _ in range(40):
        f = smp.hom()
        g = smp.hom(a=f.cod)
        lhs = graph_relation(inst, inst.compose(g, f))
        rhs = rel_compose(inst, graph_relation(inst, g), graph_relation(inst, f))
        assert rel_iso_eq(inst, lhs, rhs)


@pytest.mark.parametrize("inst,bound", INSTANCES, ids=INSTANCE_IDS)
def test_graph_of_identity_is_the_identity_relation(inst, bound):
    x = Sampler(inst, "graph-id", bound).obj()
    assert rel_iso_eq(inst, graph_relation(inst, inst.identity(x)), rel_identity(inst, x))


# ---------------------------------------------------------------------------
# laws: units, associativity, reverse composite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("inst,bound", INSTANCES, ids=INSTANCE_IDS)
def test_units_absorb(inst, bound):
    smp = Sampler(inst, "units", bound)
    for _ in range(12):
        r = sample_relation(inst, smp)
        assert rel_iso_eq(inst, rel_compose(inst, rel_identity(inst, r.Z), r), r)
        assert rel_iso_eq(inst, rel_compose(inst, r, rel_identity(inst, r.X)), r)


@pytest.mark.parametrize("inst,bound", INSTANCES, ids=INSTANCE_IDS)
def test_associativity_suite(inst, bound):
    rep = run_associativity_suite(inst, seed=13, samples=25, bound=bound)
    assert rep.passes == rep.samples == 25
    assert rep.failures == []


def test_associativity_exhaustive_tiny_pinj():
    x = PI.fset(1)
    rels = [matching_to_relation(PI, x, x, *m) for m in all_matchings(1, 1)]
    for r1 in rels:
        for r2 in rels:
            for r3 in rels:
                rep = check_associativity(PI, r3, r2, r1, bound=2)
                assert rep.passes == 1, rep.failures


def test_associativity_needs_composable_chain():
    z2, z4 = FA.group(2), FA.group(4)
    r = rel_identity(FA, z2)
    with pytest.raises(EndpointMismatch):
        check_associativity(FA, rel_identity(FA, z4), r, r, bound=4)


@pytest.mark.parametrize("inst,bound", INSTANCES, ids=INSTANCE_IDS)
def test_rrr_suite(inst, bound):
    rep = run_rrr_suite(inst, seed=13, samples=25, bound=bound)
    assert rep.passes == rep.samples == 25
    assert rep.failures == []


def test_rrr_exhaustive_pinj_classes():
    x, z = PI.fset(2), PI.fset(2)
    for m in all_matchings(2, 2):
        r = matching_to_relation(PI, x, z, *m)
        rep = check_rrr(PI, r, bound=3)
        assert rep.passes == 1, rep.failures


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_rrr_sampled_finab(seed):
    smp = Sampler(FA, f"rrr:{seed}", 5)
    rep = check_rrr(FA, sample_relation(FA, smp), bound=5)
    assert rep.passes == 1, rep.failures


# ---------------------------------------------------------------------------
# iso classes
# ---------------------------------------------------------------------------


def test_rel_iso_eq_needs_equal_ends():
    z2, z4 = FA.group(2), FA.group(4)
    with pytest.raises(EndpointMismatch):
        rel_iso_eq(FA, rel_identity(FA, z2), rel_identity(FA, z4))


def test_rel_class_equality_and_hash():
    z2 = FA.group(2)
    direct = rel_identity(FA, z2)
    redundant = rel_compose(FA, rel_identity(FA, z2), rel_identity(FA, z2))
    assert rel_iso_eq(FA, direct, redundant)
    assert rel_key(FA, direct) == rel_key(FA, redundant)
    assert hash(rel_key(FA, direct)) == hash(rel_key(FA, redundant))
    assert rel_key(FA, direct) != rel_key(FA, rel_identity(FA, FA.group(4)))


class _NoKeyFinAb(FinAbInstance):
    def rel_pair_key(self, d1, m1, d2, m2):
        return None


def test_keyless_classes_agree_with_keyed_route():
    plain = _NoKeyFinAb()
    smp = Sampler(FA, "keyless-rel", 4)
    rels = []
    for _ in range(5):
        r = sample_relation(FA, smp)
        rels.append(r)
        rels.append(rel_compose(FA, rel_identity(FA, r.Z), r))
    for r in rels:
        for s in rels:
            if r.X != s.X or r.Z != s.Z:
                continue
            assert rel_iso_eq(FA, r, s) == rel_iso_eq(plain, r, s)


class CountingPInj(PInjInstance):
    """Partial injections that count the zig-zag keys they compute."""

    def __init__(self) -> None:
        super().__init__()
        self.keys = 0

    def rel_pair_key(self, d1, m1, d2, m2):
        self.keys += 1
        return super().rel_pair_key(d1, m1, d2, m2)


def test_repeated_rel_iso_eq_keys_each_side_once():
    inst = CountingPInj()
    x, z = inst.fset(1), inst.fset(2)
    r = matching_to_relation(inst, x, z, [(0, 1)], (), [0])
    t = matching_to_relation(inst, x, z, [(0, 1)])
    # the same class as r through another zig-zag
    s = rel_compose(inst, rel_identity(inst, z), r)
    assert (s.left, s.right) != (r.left, r.right)
    assert [rel_iso_eq(inst, r, s) for _ in range(10)] == [True] * 10
    assert inst.keys == 2
    assert [rel_iso_eq(inst, r, t) for _ in range(10)] == [False] * 10
    assert inst.keys == 3
    assert len(inst.memo.pair_keys) == 3


def test_rel_key_reads_the_pair_keys_that_rel_iso_eq_stored():
    inst = CountingPInj()
    x, z = inst.fset(1), inst.fset(2)
    r = matching_to_relation(inst, x, z, [(0, 1)], (), [0])
    s = rel_compose(inst, rel_identity(inst, z), r)
    assert rel_iso_eq(inst, r, s)
    assert inst.keys == 2
    for _ in range(5):
        assert rel_key(inst, r) == rel_key(inst, s) == PI.rel_pair_key(
            r.left.d, r.left.m, r.right.d, r.right.m)
        assert rel_iso_eq(inst, r, s)
    assert inst.keys == 2


def test_endpoint_checks_compare_handles_of_two_instances_by_value():
    # handles of two instances are equal by value but never identical
    a, b = PInjInstance(), PInjInstance()
    ra = matching_to_relation(a, a.fset(1), a.fset(2), [(0, 1)])
    rb = matching_to_relation(b, b.fset(1), b.fset(2), [(0, 1)])
    assert ra.X is not rb.X and ra.X == rb.X
    assert rel_iso_eq(a, ra, rb)
    assert span_pair_iso_eq(b, (ra.left, ra.right), (rb.left, rb.right))
    with pytest.raises(EndpointMismatch):
        rel_iso_eq(a, ra, rel_reverse(b, rb))


def test_repeated_rel_compose_is_one_relation_from_one_fake_pullback(monkeypatch):
    import spancat.relations as relations

    calls = []

    def counted(inst, f, g):
        calls.append((f, g))
        return relations_fake_pullback(inst, f, g)

    relations_fake_pullback = relations.fake_pullback
    monkeypatch.setattr(relations, "fake_pullback", counted)
    inst = CountingPInj()
    x, y, z = inst.fset(1), inst.fset(2), inst.fset(2)
    r1 = matching_to_relation(inst, x, y, [(0, 1)], (), [0])
    r2 = matching_to_relation(inst, y, z, [(1, 0)], [0])
    results = {id(rel_compose(inst, r2, r1)) for _ in range(10)}
    assert len(results) == 1
    assert len(calls) == 1 and len(inst.memo.fake_pullbacks) == 1
    assert len(inst.memo.rel_composites) == 1
    assert inst.keys == 0


def test_reverse_is_an_involution_by_value():
    r = matching_to_relation(PI, PI.fset(2), PI.fset(1), [(1, 0)], [0])
    back = rel_reverse(PI, rel_reverse(PI, r))
    assert back == r and back is r


def test_equal_legs_give_one_relation():
    inst = PInjInstance()
    x, z = inst.fset(2), inst.fset(1)
    r = matching_to_relation(inst, x, z, [(1, 0)], [0])
    assert relation(inst, r.left, r.right) is r
    assert matching_to_relation(inst, x, z, [(1, 0)], [0]) is r
    assert rel_identity(inst, x) is relation(inst, id_span(inst, x), id_span(inst, x))
    assert inst.memo.relations[r.left, r.right] is r


def test_relations_of_two_instances_are_never_shared():
    a, b = PInjInstance(), PInjInstance()
    ra = matching_to_relation(a, a.fset(1), a.fset(2), [(0, 1)])
    rb = matching_to_relation(b, b.fset(1), b.fset(2), [(0, 1)])
    assert ra is not rb and ra != rb
    assert rel_identity(a, a.fset(1)) is not rel_identity(b, b.fset(1))
    assert not set(map(id, a.memo.relations.values())) & set(map(id, b.memo.relations.values()))


def test_a_relation_is_iso_to_itself_without_a_key():
    inst = CountingPInj()
    r = matching_to_relation(inst, inst.fset(2), inst.fset(1), [(1, 0)], [0])
    for s in (r, rel_identity(inst, inst.fset(2)), rel_compose(inst, r, rel_reverse(inst, r))):
        assert rel_iso_eq(inst, s, s)
    assert inst.keys == 0 and inst.memo.pair_keys == {}


def test_exhaustive_pinj_sweep_brackets_to_one_relation():
    # every composable triple of relations between sets of size <= 1: the
    # two bracketings land on the same legs, so they are one relation and
    # their comparison reads no key
    inst = CountingPInj()
    sizes = (0, 1)
    rels = {
        (nx, nz): [matching_to_relation(inst, inst.fset(nx), inst.fset(nz), *m)
                   for m in all_matchings(nx, nz)]
        for nx in sizes for nz in sizes
    }
    triples = 0
    for nx, nz, nt, nw in itertools.product(sizes, repeat=4):
        for r1 in rels[nx, nz]:
            for r2 in rels[nz, nt]:
                for r3 in rels[nt, nw]:
                    lhs = rel_compose(inst, rel_compose(inst, r3, r2), r1)
                    rhs = rel_compose(inst, r3, rel_compose(inst, r2, r1))
                    assert lhs is rhs
                    assert rel_iso_eq(inst, lhs, rhs)
                    triples += 1
    assert triples == 338
    assert inst.keys == 0
    # every composite is one of the 10 canonical matching relations
    assert len(inst.memo.relations) == 10
    assert len(inst.memo.rel_composites) == 58


def test_mismatched_rel_compose_raises_every_time_and_stores_nothing():
    inst = PInjInstance()
    r = matching_to_relation(inst, inst.fset(1), inst.fset(2), [(0, 1)])
    for _ in range(3):
        with pytest.raises(EndpointMismatch):
            rel_compose(inst, r, r)
        with pytest.raises(EndpointMismatch):
            rel_compose(inst, rel_identity(inst, inst.fset(1)), r)
    assert inst.memo.rel_composites == {}
    assert inst.memo.fake_pullbacks == {}


def test_mismatched_pairs_raise_every_time_and_store_nothing():
    inst = CountingPInj()
    one1, one2 = id_span(inst, inst.fset(1)), id_span(inst, inst.fset(2))
    for _ in range(3):
        with pytest.raises(EndpointMismatch):
            rel_iso_eq(inst, rel_identity(inst, inst.fset(1)), rel_identity(inst, inst.fset(2)))
        with pytest.raises(EndpointMismatch):
            span_pair_iso_eq(inst, (one1, one2), (one1, one1))
    assert inst.keys == 0
    assert inst.memo.pair_keys == {}


class _NoKeyGroupoid(GroupoidInstance):
    def rel_pair_key(self, d1, m1, d2, m2):
        return None


@pytest.mark.parametrize("make", [
    lambda: GroupoidInstance(symmetric_group_table(3), name="groupoid:s3"),
    lambda: _NoKeyGroupoid(symmetric_group_table(3), name="groupoid:s3"),
], ids=["keyed", "keyless"])
def test_warm_pair_comparisons_match_a_fresh_instance(make):
    warm = make()
    smp = Sampler(warm, "warm-pairs", 1)
    rels = [sample_relation(warm, smp) for _ in range(6)]
    for _ in range(2):
        for r in rels:
            for s in rels:
                assert rel_iso_eq(warm, r, s) == rel_iso_eq(make(), r, s)
    keyed = warm.rel_pair_key(rels[0].left.d, rels[0].left.m,
                              rels[0].right.d, rels[0].right.m) is not None
    # a None key sends every comparison to the iso search, whose answers
    # are never stored
    assert all((v is not None) == keyed for v in warm.memo.pair_keys.values())


def test_every_finab_pair_up_to_order_4_composes_as_subgroups():
    """Every composable pair of relations between groups of order <= 4
    composes to the elementwise composite of the pair's subgroups.

    The relations are built from the subgroups, and only subgroup_compose
    is trusted: the check reads each composite back through
    goursat_to_subgroup and never through the memo tables it guards.
    Equal composites have equal subgroups, so each is read once."""
    fa = FinAbInstance()
    read: dict = {}
    objs = fa.enumerate_objects_up_to(4)
    rels = {
        (x, z): [(s, subgroup_to_zigzag(fa, x, z, s))
                 for s in all_subgroups(x.obj_key + z.obj_key)]
        for x in objs for z in objs
    }
    assert sum(map(len, rels.values())) == 260
    pairs = 0
    for (x, z), firsts in rels.items():
        for w in objs:
            for s1, r1 in firsts:
                for s2, r2 in rels[z, w]:
                    want = subgroup_compose(x.obj_key, z.obj_key, w.obj_key, s1, s2)
                    comp = rel_compose(fa, r2, r1)
                    if comp not in read:
                        read[comp] = goursat_to_subgroup(fa, comp)
                    assert read[comp] == want
                    pairs += 1
    assert pairs == 21284


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_suite_reports_are_deterministic():
    a = run_associativity_suite(FA, seed=21, samples=8, bound=4)
    b = run_associativity_suite(FA, seed=21, samples=8, bound=4)
    assert a == b
    c = run_goursat_suite(FA, seed=21, samples=5, bound=4, max_order=8)
    d = run_goursat_suite(FA, seed=21, samples=5, bound=4, max_order=8)
    assert c == d
