"""Finite sets and partial injections.

An object is a size n standing for {0, ..., n-1}; a morphism is a tuple of
length n whose entry at x is either the image of x or None, injectively on
the defined entries.  E = surjective partial injections, M = total
injections.  Reversal (swap inputs and outputs) is an involution exchanging
E and M, which is how pushouts are computed from pullbacks.
"""
from __future__ import annotations

from typing import Any, Optional, Sequence

from .core import (
    Instance,
    Mor,
    ObjHandle,
    OrthClass,
    Square,
    ValidationFailure,
    json_int,
    json_list,
    require,
)

Assign = tuple[Optional[int], ...]


# ---------------------------------------------------------------------------
# raw assignments
# ---------------------------------------------------------------------------

def validate_assign(n_dom: int, n_cod: int, assign: Sequence[Optional[int]]) -> Assign:
    t = tuple(assign)
    if len(t) != n_dom:
        raise ValidationFailure(f"assignment has length {len(t)}, expected {n_dom}")
    seen = set()
    for v in t:
        if v is None:
            continue
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n_cod:
            raise ValidationFailure(f"assignment value {v!r} outside codomain of size {n_cod}")
        if v in seen:
            raise ValidationFailure("assignment is not injective")
        seen.add(v)
    return t


def compose_assign(g: Assign, f: Assign) -> Assign:
    return tuple(g[v] if v is not None else None for v in f)


def identity_assign(n: int) -> Assign:
    return tuple(range(n))


def reverse_assign(assign: Assign, n_cod: int) -> Assign:
    out: list[Optional[int]] = [None] * n_cod
    for i, v in enumerate(assign):
        if v is not None:
            out[v] = i
    return tuple(out)


def image_of(assign: Assign) -> set[int]:
    return {v for v in assign if v is not None}


def assign_classify(n_cod: int, assign: Assign) -> OrthClass:
    img = image_of(assign)
    return OrthClass(in_E=len(img) == n_cod, in_M=None not in assign)


def factor_assign(assign: Assign) -> tuple[int, Assign, Assign]:
    """(image size, surjection e, total injection m) with assign == m . e;
    the middle set is the image in ascending order."""
    img = sorted(image_of(assign))
    pos = {v: i for i, v in enumerate(img)}
    e = tuple(pos[v] if v is not None else None for v in assign)
    return len(img), e, tuple(img)


def pullback_assign(f: Assign, m: Assign) -> tuple[int, Assign, Assign]:
    """Pullback of f: A -> W along a total injection m: B -> W.

    The apex keeps every a in A except those whose f-value misses the image
    of m; points where f is undefined stay, with the second leg undefined
    there.  Returns (apex size, leg to A, leg to B).
    """
    pos = {v: i for i, v in enumerate(m)}
    kept = [a for a in range(len(f)) if f[a] is None or f[a] in pos]
    leg1 = tuple(kept)
    leg2 = tuple(pos[f[a]] if f[a] is not None else None for a in kept)
    return len(kept), leg1, leg2


def count_pinjs(n: int, m: int) -> int:
    import math

    return sum(
        math.comb(n, k) * math.comb(m, k) * math.factorial(k)
        for k in range(min(n, m) + 1)
    )


# ---------------------------------------------------------------------------
# the instance
# ---------------------------------------------------------------------------

class PInjInstance(Instance):
    """Finite sets and partial injections, E onto and M total.  It keeps
    no table of its own: its pools, class any included, are the ``Instance``
    defaults, kept in ``memo.pools``; enumerate_homs lists anew on each call.
    ``Instance`` checks the ends and classes of every construction, and an
    inverse is its solve_post_system answer.  Two hooks answer from
    structure and read no pool: has_class_hom from the two sizes, and
    solve_post_payloads from the posts' preimages."""

    name = "pinj"

    # objects
    def validate_obj(self, key: Any) -> int:
        if isinstance(key, bool) or not isinstance(key, int) or key < 0:
            raise ValidationFailure(f"pinj object must be a non-negative size, got {key!r}")
        return key

    def describe_obj(self, key: int) -> str:
        return f"[{key}]"

    def fset(self, n: int) -> ObjHandle:
        return self.obj(n)

    # morphisms
    def pinj(self, a: ObjHandle, b: ObjHandle, assign: Sequence[Optional[int]]) -> Mor:
        return Mor(a, b, validate_assign(a.obj_key, b.obj_key, assign))

    def check_payload(self, f: Mor) -> None:
        validate_assign(f.dom.obj_key, f.cod.obj_key, f.payload)

    def compose_payloads(self, g: Mor, f: Mor) -> Assign:
        return compose_assign(g.payload, f.payload)

    def identity(self, a: ObjHandle) -> Mor:
        return Mor(a, a, identity_assign(a.obj_key))

    def classify(self, f: Mor) -> OrthClass:
        return assign_classify(f.cod.obj_key, f.payload)

    def factor_payloads(self, f: Mor) -> tuple[int, Assign, Assign]:
        return factor_assign(f.payload)

    def pullback_payloads(self, f: Mor, m: Mor) -> tuple[int, Assign, Assign]:
        return pullback_assign(f.payload, m.payload)

    def pushout_payloads(self, f: Mor, e: Mor) -> tuple[int, Assign, Assign]:
        # reverse both, pull back along the reversal of e, reverse the cone
        size, leg1, leg2 = pullback_assign(
            reverse_assign(f.payload, f.cod.obj_key),
            reverse_assign(e.payload, e.cod.obj_key),
        )
        return size, reverse_assign(leg1, f.cod.obj_key), reverse_assign(leg2, e.cod.obj_key)

    def has_class_hom(self, a: ObjHandle, b: ObjHandle, cls: str = "any") -> bool:
        n, m = a.obj_key, b.obj_key
        if cls == "any":
            return True  # the empty map
        if cls == "E":
            return n >= m
        if cls == "M":
            return n <= m
        if cls == "iso":
            return n == m
        return super().has_class_hom(a, b, cls)

    def solve_post_payloads(self, dom: ObjHandle, cod: ObjHandle,
                            eqs: Sequence[tuple[Mor, Mor]]) -> tuple[Optional[Assign], int]:
        # where some rhs(x) is defined, w(x) is forced to post's preimage of
        # it; every other x goes to None or, injectively, into the points
        # where every post is undefined.  The solution returned puts None at
        # those x, the first solution in enumerate_homs order.
        inverses = [reverse_assign(post.payload, post.cod.obj_key) for post, _ in eqs]
        w: list[Optional[int]] = [None] * dom.obj_key
        free = 0
        for x in range(dom.obj_key):
            forced = [inv[rhs.payload[x]] for inv, (_, rhs) in zip(inverses, eqs)
                      if rhs.payload[x] is not None]
            if not forced:
                free += 1
            elif forced[0] is None:
                return None, 0
            else:
                w[x] = forced[0]
        # every equation must hold at the forced points; rhs is injective,
        # so that also keeps two forced points apart
        if any(compose_assign(post.payload, w) != rhs.payload for post, rhs in eqs):
            return None, 0
        unused = sum(all(post.payload[y] is None for post, _ in eqs)
                     for y in range(cod.obj_key))
        return tuple(w), count_pinjs(free, unused)

    def enumerate_objects_up_to(self, bound: int) -> list[ObjHandle]:
        return [self.obj(n) for n in range(bound + 1)]

    def decision_objects(self, sq: Square, bound: int, op: bool = False) -> list[ObjHandle]:
        """The sets of size 1 and 2, in both directions; the bound is not
        read.  A partial injection is fixed by its restrictions to points
        and injective when it is on every pair of points (see the axioms
        module)."""
        return [self.obj(1), self.obj(2)]

    def scan_objects(self, a: ObjHandle, bound: int) -> list[ObjHandle]:
        """The set of size 1; the bound is not read.  Two maps out of a set
        differ at some point of it (see the axioms module)."""
        return [self.obj(1)]

    def enumerate_homs(self, a: ObjHandle, b: ObjHandle) -> Sequence[Mor]:
        # the injective tuples of the product of (None, 0, ..., m-1) over the
        # n points, in its order: each prefix grows by None, then by each
        # value it has not used
        values = (None, *range(b.obj_key))
        prefixes: list[Assign] = [()]
        for _ in range(a.obj_key):
            prefixes = [p + (v,) for p in prefixes for v in values if v is None or v not in p]
        return tuple(Mor(a, b, p) for p in prefixes)

    def span_iso_key(self, d: Mor, m: Mor) -> Any:
        # an EM-span (d, m) out of one apex is determined up to iso by the
        # image of m and the partial pairing it induces with d
        pairs = frozenset(
            (m.payload[x], d.payload[x])
            for x in range(d.dom.obj_key)
            if d.payload[x] is not None
        )
        return (d.cod.obj_key, m.cod.obj_key, pairs, frozenset(image_of(m.payload)))

    def rel_pair_key(self, d1: Mor, m1: Mor, d2: Mor, m2: Mor) -> Any:
        # each middle point is hit exactly once per E-leg, giving one pair;
        # apex points missed by an E-leg survive as endpoint phantoms that
        # end-fixed isomorphisms must preserve
        inv1 = {d1.payload[x]: x for x in range(d1.dom.obj_key) if d1.payload[x] is not None}
        inv2 = {d2.payload[x]: x for x in range(d2.dom.obj_key) if d2.payload[x] is not None}
        pairs = frozenset(
            (m1.payload[inv1[t]], m2.payload[inv2[t]]) for t in range(d1.cod.obj_key)
        )
        left = frozenset(
            m1.payload[x] for x in range(d1.dom.obj_key) if d1.payload[x] is None
        )
        right = frozenset(
            m2.payload[x] for x in range(d2.dom.obj_key) if d2.payload[x] is None
        )
        return (m1.cod.obj_key, m2.cod.obj_key, pairs, left, right)

    def obj_json(self, a: ObjHandle) -> dict:
        """{"size": n}."""
        return {"size": a.obj_key}

    def mor_json(self, f: Mor) -> dict:
        """{"dom", "cod", "map"}: the sizes and the assignment, null if undefined."""
        return {"dom": f.dom.obj_key, "cod": f.cod.obj_key, "map": list(f.payload)}

    def parse_obj_json(self, data: dict) -> ObjHandle:
        require("size" in data, "pinj object needs a 'size' field")
        return self.obj(json_int(data["size"], "'size'"))

    def parse_mor_json(self, data: dict) -> Mor:
        for field in ("dom", "cod", "map"):
            require(field in data, f"pinj morphism needs a {field!r} field")
        dom = self.obj(json_int(data["dom"], "'dom'"))
        cod = self.obj(json_int(data["cod"], "'cod'"))
        assign = (None if x is None else json_int(x, "'map' entry")
                  for x in json_list(data["map"], "'map'"))
        return Mor(dom, cod, tuple(assign))

