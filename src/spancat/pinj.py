"""Finite sets and partial injections.

An object is a size n standing for {0, ..., n-1}; a morphism is a tuple of
length n whose entry at x is either the image of x or None, injectively on
the defined entries.  E = surjective partial injections, M = total
injections.  Reversal (swap inputs and outputs) is an involution exchanging
E and M, which is how pushouts are computed from pullbacks.
"""
from __future__ import annotations

import itertools
from typing import Any, Optional, Sequence

from .core import (
    ClassViolation,
    ConeResult,
    CrossInstance,
    EndpointMismatch,
    Factorization,
    Instance,
    Mor,
    ObjHandle,
    OrthClass,
    SpanCatError,
    Square,
    ValidationFailure,
    validate_square,
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


def defined_of(assign: Assign) -> list[int]:
    return [i for i, v in enumerate(assign) if v is not None]


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
    name = "pinj"

    def __init__(self) -> None:
        self._hom_cache: dict[tuple[int, int], tuple[Mor, ...]] = {}

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

    def validate_mor(self, f: Mor) -> None:
        if f.dom.instance_id != self.name or f.cod.instance_id != self.name:
            raise CrossInstance("morphism does not belong to the pinj instance")
        validate_assign(f.dom.obj_key, f.cod.obj_key, f.payload)

    def compose(self, g: Mor, f: Mor) -> Mor:
        if f.cod != g.dom:
            raise EndpointMismatch(f"compose: {f.cod} != {g.dom}")
        return Mor(f.dom, g.cod, compose_assign(g.payload, f.payload))

    def identity(self, a: ObjHandle) -> Mor:
        return Mor(a, a, identity_assign(a.obj_key))

    def classify(self, f: Mor) -> OrthClass:
        return assign_classify(f.cod.obj_key, f.payload)

    def factorize(self, f: Mor) -> Factorization:
        size, e, m = factor_assign(f.payload)
        mid = self.obj(size)
        return Factorization(Mor(f.dom, mid, e), Mor(mid, f.cod, m))

    def reverse(self, f: Mor) -> Mor:
        """The same set of (input, output) pairs read backwards."""
        return Mor(f.cod, f.dom, reverse_assign(f.payload, f.cod.obj_key))

    def inverse(self, f: Mor) -> Mor:
        if not self.is_iso(f):
            raise ClassViolation("inverse requested for a non-isomorphism")
        return self.reverse(f)

    def fill_diagonal(self, sq: Square) -> Mor:
        validate_square(self, sq)
        if not self.classify(sq.top).in_E:
            raise ClassViolation("fill_diagonal: top edge must be in E")
        if not self.classify(sq.bottom).in_M:
            raise ClassViolation("fill_diagonal: bottom edge must be in M")
        w = self.compose(sq.left, self.reverse(sq.top))
        if not self.mor_eq(self.compose(w, sq.top), sq.left) or not self.mor_eq(
            self.compose(sq.bottom, w), sq.right
        ):
            raise SpanCatError("fill_diagonal: no diagonal exists")
        return w

    def pullback_along_M(self, f: Mor, m: Mor) -> ConeResult:
        if f.cod != m.cod:
            raise EndpointMismatch("pullback cospan endpoints differ")
        if not self.classify(m).in_M:
            raise ClassViolation("pullback_along_M: second argument must be in M")
        size, leg1, leg2 = pullback_assign(f.payload, m.payload)
        apex = self.obj(size)
        return ConeResult(apex, Mor(apex, f.dom, leg1), Mor(apex, m.dom, leg2))

    def pushout_along_E(self, f: Mor, e: Mor) -> ConeResult:
        if f.dom != e.dom:
            raise EndpointMismatch("pushout span endpoints differ")
        if not self.classify(e).in_E:
            raise ClassViolation("pushout_along_E: second argument must be in E")
        # reverse both, pull back along the reversal of e, reverse the cone
        size, leg1, leg2 = pullback_assign(
            reverse_assign(f.payload, f.cod.obj_key),
            reverse_assign(e.payload, e.cod.obj_key),
        )
        apex = self.obj(size)
        out1 = Mor(f.cod, apex, reverse_assign(leg1, f.cod.obj_key))
        out2 = Mor(e.cod, apex, reverse_assign(leg2, e.cod.obj_key))
        return ConeResult(apex, out1, out2)

    def find_iso(self, a: ObjHandle, b: ObjHandle) -> Optional[Mor]:
        if a.obj_key != b.obj_key:
            return None
        return Mor(a, b, identity_assign(a.obj_key))

    def enumerate_objects_up_to(self, bound: int) -> list[ObjHandle]:
        return [self.obj(n) for n in range(bound + 1)]

    def enumerate_homs(self, a: ObjHandle, b: ObjHandle) -> Sequence[Mor]:
        key = (a.obj_key, b.obj_key)
        hit = self._hom_cache.get(key)
        if hit is None:
            n, m = key
            opts: list[Optional[int]] = [None] + list(range(m))
            out = []
            for combo in itertools.product(opts, repeat=n):
                vals = [v for v in combo if v is not None]
                if len(vals) == len(set(vals)):
                    out.append(Mor(a, b, combo))
            hit = tuple(out)
            self._hom_cache[key] = hit
        return hit

    def element_count(self, a: ObjHandle) -> int:
        return a.obj_key

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

