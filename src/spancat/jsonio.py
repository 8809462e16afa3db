"""JSON schemas for objects, morphisms and diagrams.

One tagged-union schema per instance family:

  finab     object {"orders": [...]}            hom {"dom", "cod", "matrix"}
  pinj      object {"size": n}                  hom {"dom", "cod", "map"}
  groupoid  object {"star": true}               hom {"element": i}

Dumps produced here are accepted back by the parsers, so counterexamples
written into reports can be replayed as input files.
"""
from __future__ import annotations

import json
from typing import Any

from .core import Instance, Mor, ObjHandle, Square, ValidationFailure


def _family(inst: Instance) -> str:
    for fam in ("finab", "pinj", "groupoid"):
        if inst.name == fam or inst.name.startswith(fam + ":"):
            return fam
    raise ValidationFailure(f"no JSON schema for instance {inst.name!r}")


def obj_dict(inst: Instance, a: ObjHandle) -> dict:
    fam = _family(inst)
    if fam == "finab":
        return {"orders": list(a.obj_key)}
    if fam == "pinj":
        return {"size": a.obj_key}
    return {"star": True}


def mor_dict(inst: Instance, f: Mor) -> dict:
    fam = _family(inst)
    if fam == "finab":
        return {
            "dom": list(f.dom.obj_key),
            "cod": list(f.cod.obj_key),
            "matrix": [list(row) for row in f.payload],
        }
    if fam == "pinj":
        return {"dom": f.dom.obj_key, "cod": f.cod.obj_key, "map": list(f.payload)}
    return {"element": f.payload}


def span_dict(inst: Instance, s: Any) -> dict:
    return {
        "src": obj_dict(inst, s.src),
        "tgt": obj_dict(inst, s.tgt),
        "apex": obj_dict(inst, s.apex),
        "d": mor_dict(inst, s.d),
        "m": mor_dict(inst, s.m),
    }


def square_dict(inst: Instance, sq: Square) -> dict:
    return {
        "top": mor_dict(inst, sq.top),
        "left": mor_dict(inst, sq.left),
        "right": mor_dict(inst, sq.right),
        "bottom": mor_dict(inst, sq.bottom),
    }


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationFailure(msg)


def _int(x: Any, what: str) -> int:
    """A JSON integer; floats, bools and strings are bad input."""
    _require(type(x) is int, f"{what} must be a JSON integer, got {x!r}")
    return x


def _list(x: Any, what: str) -> list:
    _require(isinstance(x, list), f"{what} must be a list, got {x!r}")
    return x


def _ints(x: Any, what: str) -> tuple[int, ...]:
    return tuple(_int(n, what) for n in _list(x, what))


def parse_obj(inst: Instance, data: Any) -> ObjHandle:
    fam = _family(inst)
    _require(isinstance(data, dict), f"object must be a JSON object, got {data!r}")
    if fam == "finab":
        _require("orders" in data, "finab object needs an 'orders' field")
        return inst.obj(_ints(data["orders"], "'orders'"))
    if fam == "pinj":
        _require("size" in data, "pinj object needs a 'size' field")
        return inst.obj(_int(data["size"], "'size'"))
    _require(
        list(data) == ["star"] and data["star"] is True,
        f'groupoid object must be {{"star": true}}, got {data!r}',
    )
    return inst.obj("*")


def parse_mor(inst: Instance, data: Any) -> Mor:
    fam = _family(inst)
    _require(isinstance(data, dict), f"morphism must be a JSON object, got {data!r}")
    if fam == "finab":
        for field in ("dom", "cod", "matrix"):
            _require(field in data, f"finab morphism needs a {field!r} field")
        dom = inst.obj(_ints(data["dom"], "'dom'"))
        cod = inst.obj(_ints(data["cod"], "'cod'"))
        mat = tuple(_ints(row, "'matrix' row") for row in _list(data["matrix"], "'matrix'"))
        f = Mor(dom, cod, mat)
    elif fam == "pinj":
        for field in ("dom", "cod", "map"):
            _require(field in data, f"pinj morphism needs a {field!r} field")
        dom = inst.obj(_int(data["dom"], "'dom'"))
        cod = inst.obj(_int(data["cod"], "'cod'"))
        assign = tuple(
            None if x is None else _int(x, "'map' entry")
            for x in _list(data["map"], "'map'")
        )
        f = Mor(dom, cod, assign)
    else:
        _require("element" in data, "groupoid morphism needs an 'element' field")
        star = inst.obj("*")
        f = Mor(star, star, _int(data["element"], "'element'"))
    inst.validate_mor(f)
    return f


def parse_span(inst: Instance, data: Any):
    from .spans import em_span

    _require(isinstance(data, dict), "span must be a JSON object")
    for field in ("d", "m"):
        _require(field in data, f"span needs a {field!r} field")
    s = em_span(inst, parse_mor(inst, data["d"]), parse_mor(inst, data["m"]))
    for field, have in (("src", s.src), ("tgt", s.tgt), ("apex", s.apex)):
        if field in data:
            _require(
                parse_obj(inst, data[field]) == have,
                f"span field {field!r} disagrees with the legs",
            )
    return s


def parse_square(inst: Instance, data: Any) -> Square:
    _require(isinstance(data, dict), "square must be a JSON object")
    for field in ("top", "left", "right", "bottom"):
        _require(field in data, f"square needs a {field!r} field")
    return Square(
        top=parse_mor(inst, data["top"]),
        left=parse_mor(inst, data["left"]),
        right=parse_mor(inst, data["right"]),
        bottom=parse_mor(inst, data["bottom"]),
    )


def relation_dict(inst: Instance, r: Any) -> dict:
    return {
        "X": obj_dict(inst, r.X),
        "Z": obj_dict(inst, r.Z),
        "left": span_dict(inst, r.left),
        "right": span_dict(inst, r.right),
    }


def parse_relation(inst: Instance, data: Any):
    from .relations import relation

    _require(isinstance(data, dict), "relation must be a JSON object")
    for field in ("left", "right"):
        _require(field in data, f"relation needs a {field!r} field")
    left = parse_span(inst, data["left"])
    right = parse_span(inst, data["right"])
    _require(left.src == right.src, "relation legs must share their source")
    r = relation(inst, left, right)
    for field, have in (("X", r.X), ("Z", r.Z)):
        if field in data:
            _require(
                parse_obj(inst, data[field]) == have,
                f"relation field {field!r} disagrees with the legs",
            )
    return r


def dumps(data: Any) -> str:
    """Canonical serialization: sorted keys, stable separators, newline end."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> Any:
    return json.loads(text)
