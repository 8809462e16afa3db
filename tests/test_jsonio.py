"""Tests for the JSON layer: each instance writes and reads its own objects
and morphisms, whatever it is named, and jsonio lays them out in spans and
relations that parse back to what was dumped."""
from __future__ import annotations

import pytest

from spancat.core import GroupoidInstance, Mor, symmetric_group_table
from spancat.finab import FinAbInstance
from spancat.jsonio import parse_mor, parse_obj, parse_relation, parse_span, relation_dict, span_dict
from spancat.pinj import PInjInstance
from spancat.relations import graph_relation, relation
from spancat.spans import em_span

FA = FinAbInstance()
PI = PInjInstance()
S3 = GroupoidInstance(symmetric_group_table(3), name="groupoid:s3")


class _RenamedFinAb(FinAbInstance):
    name = "finab-sub"


def _round_trips(inst, span, rel) -> None:
    data = span_dict(inst, span)
    assert parse_span(inst, data) is span
    assert span_dict(inst, parse_span(inst, data)) == data
    data = relation_dict(inst, rel)
    back = parse_relation(inst, data)
    assert (back.left, back.right) == (rel.left, rel.right)
    assert relation_dict(inst, back) == data


def test_groupoid_schema_does_not_read_the_name():
    inst = GroupoidInstance(symmetric_group_table(3), name="s3")
    d, m = (Mor(inst.star, inst.star, k) for k in (1, 3))
    span = em_span(inst, d, m)
    rel = relation(inst, span, em_span(inst, Mor(inst.star, inst.star, 4), d))
    _round_trips(inst, span, rel)
    assert span.apex.instance_id == "s3"


def test_finab_subclass_schema_does_not_read_the_name():
    inst = _RenamedFinAb()
    z2, z4, z8 = inst.group(2), inst.group(4), inst.group(8)
    span = em_span(inst, inst.hom(z4, z2, [[1]]), inst.hom(z4, z8, [[2]]))
    rel = graph_relation(inst, inst.hom(z8, z4, [[1]]))
    _round_trips(inst, span, rel)
    assert span.apex.instance_id == "finab-sub"


# one object and one morphism per instance, dict items in order
PINNED = [
    (FA, FA.group(2, 4), [("orders", [2, 4])],
     FA.hom(FA.group(4), FA.group(2, 4), [[1], [2]]),
     [("dom", [4]), ("cod", [2, 4]), ("matrix", [[1], [2]])]),
    (PI, PI.obj(3), [("size", 3)],
     PI.pinj(PI.obj(2), PI.obj(3), (None, 0)),
     [("dom", 2), ("cod", 3), ("map", [None, 0])]),
    (S3, S3.star, [("star", True)], Mor(S3.star, S3.star, 4), [("element", 4)]),
]


@pytest.mark.parametrize("inst, a, a_items, f, f_items", PINNED,
                         ids=["finab", "pinj", "groupoid"])
def test_schemas_are_pinned(inst, a, a_items, f, f_items):
    assert list(inst.obj_json(a).items()) == a_items
    assert list(inst.mor_json(f).items()) == f_items
    assert parse_obj(inst, dict(a_items)) is a
    assert parse_mor(inst, dict(f_items)) == f


@pytest.mark.parametrize("inst, bound, count", [(FA, 8, 1128), (PI, 3, 90), (S3, 1, 6)],
                         ids=["finab", "pinj", "groupoid"])
def test_every_small_hom_round_trips(inst, bound, count):
    catalog = inst.enumerate_objects_up_to(bound)
    seen = 0
    for a in catalog:
        assert parse_obj(inst, inst.obj_json(a)) is a
        for b in catalog:
            for f in inst.enumerate_homs(a, b):
                data = inst.mor_json(f)
                back = parse_mor(inst, data)
                assert back == f and inst.mor_json(back) == data
                seen += 1
    assert seen == count
