"""JSON layouts of spans, squares and relations.

Objects and morphisms are written and read by their instance
(``Instance.obj_json``, ``mor_json``, ``parse_obj_json`` and
``parse_mor_json``); this module lays them out in diagrams, checks that
each is a JSON object, and validates every parsed morphism.

Dumps produced here are accepted back by the parsers, so counterexamples
written into reports can be replayed as input files.
"""
from __future__ import annotations

import json
from typing import Any

from .core import Instance, Mor, ObjHandle, Square, require


def span_dict(inst: Instance, s: Any) -> dict:
    return {
        "src": inst.obj_json(s.src),
        "tgt": inst.obj_json(s.tgt),
        "apex": inst.obj_json(s.apex),
        "d": inst.mor_json(s.d),
        "m": inst.mor_json(s.m),
    }


def square_dict(inst: Instance, sq: Square) -> dict:
    return {
        "top": inst.mor_json(sq.top),
        "left": inst.mor_json(sq.left),
        "right": inst.mor_json(sq.right),
        "bottom": inst.mor_json(sq.bottom),
    }


def parse_obj(inst: Instance, data: Any) -> ObjHandle:
    require(isinstance(data, dict), f"object must be a JSON object, got {data!r}")
    return inst.parse_obj_json(data)


def parse_mor(inst: Instance, data: Any) -> Mor:
    require(isinstance(data, dict), f"morphism must be a JSON object, got {data!r}")
    f = inst.parse_mor_json(data)
    inst.validate_mor(f)
    return f


def parse_span(inst: Instance, data: Any):
    from .spans import em_span

    require(isinstance(data, dict), "span must be a JSON object")
    for field in ("d", "m"):
        require(field in data, f"span needs a {field!r} field")
    s = em_span(inst, parse_mor(inst, data["d"]), parse_mor(inst, data["m"]))
    for field, have in (("src", s.src), ("tgt", s.tgt), ("apex", s.apex)):
        if field in data:
            same = parse_obj(inst, data[field]) == have
            require(same, f"span field {field!r} disagrees with the legs")
    return s


def relation_dict(inst: Instance, r: Any) -> dict:
    return {
        "X": inst.obj_json(r.X),
        "Z": inst.obj_json(r.Z),
        "left": span_dict(inst, r.left),
        "right": span_dict(inst, r.right),
    }


def parse_relation(inst: Instance, data: Any):
    from .relations import relation

    require(isinstance(data, dict), "relation must be a JSON object")
    for field in ("left", "right"):
        require(field in data, f"relation needs a {field!r} field")
    left = parse_span(inst, data["left"])
    right = parse_span(inst, data["right"])
    r = relation(inst, left, right)
    for field, have in (("X", r.X), ("Z", r.Z)):
        if field in data:
            same = parse_obj(inst, data[field]) == have
            require(same, f"relation field {field!r} disagrees with the legs")
    return r


def dumps(data: Any) -> str:
    """Canonical serialization: sorted keys, stable separators, newline end."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
