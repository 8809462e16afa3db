"""Seeded generators for diagrams used by the property suites.

Everything is driven by one random.Random so identical (instance, seed,
bound) triples reproduce identical diagram streams.  Object and morphism
pools come from the instance's deterministic enumerations, so runs are
stable across platforms.
"""
from __future__ import annotations

import random
from typing import Optional

from .core import Instance, Mor, ObjHandle, SpanCatError, Square


class Sampler:
    """Draws objects, class-constrained morphisms and shaped diagrams."""

    def __init__(self, inst: Instance, seed: int | str, bound: int):
        self.inst = inst
        self.rng = random.Random(str(seed))
        self.bound = bound
        self.objects: list[ObjHandle] = list(inst.enumerate_objects_up_to(bound))
        if not self.objects:
            raise SpanCatError("instance catalog is empty")
        self._class_pool: dict[tuple, tuple[Mor, ...]] = {}
        self._reach: dict[tuple, list[ObjHandle]] = {}
        self._em_ends: dict[tuple, list[ObjHandle]] = {}

    # -- pools ---------------------------------------------------------------

    def pool(self, a: ObjHandle, b: ObjHandle, cls: str = "any") -> tuple[Mor, ...]:
        """Morphisms a -> b filtered by class: any, E, M, iso."""
        key = (a.obj_key, b.obj_key, cls)
        hit = self._class_pool.get(key)
        if hit is None:
            homs = self.inst.enumerate_homs(a, b)
            if cls == "any":
                hit = tuple(homs)
            elif cls == "E":
                hit = tuple(f for f in homs if self.inst.classify(f).in_E)
            elif cls == "M":
                hit = tuple(f for f in homs if self.inst.classify(f).in_M)
            elif cls == "iso":
                hit = tuple(f for f in homs if self.inst.is_iso(f))
            else:
                raise ValueError(f"unknown class filter {cls!r}")
            self._class_pool[key] = hit
        return hit

    def reachable(self, a: ObjHandle, cls: str, direction: str) -> list[ObjHandle]:
        """Objects b with a nonempty pool a->b (direction 'out') or b->a ('in')."""
        key = (a.obj_key, cls, direction)
        hit = self._reach.get(key)
        if hit is None:
            if direction == "out":
                hit = [b for b in self.objects if self.pool(a, b, cls)]
            else:
                hit = [b for b in self.objects if self.pool(b, a, cls)]
            self._reach[key] = hit
        return hit

    # -- simple draws ---------------------------------------------------------

    def obj(self) -> ObjHandle:
        return self.rng.choice(self.objects)

    def hom(self, a: Optional[ObjHandle] = None, b: Optional[ObjHandle] = None,
            cls: str = "any") -> Mor:
        if a is not None and b is not None:
            pool = self.pool(a, b, cls)
            if not pool:
                raise SpanCatError(
                    f"no morphism of class {cls} from {a.descriptor} to {b.descriptor}"
                )
            return self.rng.choice(pool)
        if a is not None:
            bb = self.rng.choice(self.reachable(a, cls, "out"))
            return self.rng.choice(self.pool(a, bb, cls))
        if b is not None:
            aa = self.rng.choice(self.reachable(b, cls, "in"))
            return self.rng.choice(self.pool(aa, b, cls))
        aa = self.obj()
        bb = self.rng.choice(self.reachable(aa, cls, "out"))
        return self.rng.choice(self.pool(aa, bb, cls))

    def mor_in_E(self, a: Optional[ObjHandle] = None, b: Optional[ObjHandle] = None) -> Mor:
        return self.hom(a, b, "E")

    def mor_in_M(self, a: Optional[ObjHandle] = None, b: Optional[ObjHandle] = None) -> Mor:
        return self.hom(a, b, "M")

    # -- shaped draws ----------------------------------------------------------

    def cospan_with_M(self) -> tuple[Mor, Mor]:
        """(f, m) with common codomain and m in M; f unconstrained."""
        m = self.mor_in_M()
        f = self.hom(b=m.cod)
        return f, m

    def cospan_E_M(self) -> tuple[Mor, Mor]:
        m = self.mor_in_M()
        e = self.hom(b=m.cod, cls="E")
        return e, m

    def span_with_E(self) -> tuple[Mor, Mor]:
        """(f, e) with common domain and e in E; f unconstrained."""
        e = self.mor_in_E()
        f = self.hom(a=e.dom)
        return f, e

    def span_M_E(self) -> tuple[Mor, Mor]:
        e = self.mor_in_E()
        m = self.hom(a=e.dom, cls="M")
        return m, e

    def commuting_pairs(self, post1: Mor, post2: Mor, a: ObjHandle,
                        cls1: str = "any", cls2: str = "any") -> list[tuple[Mor, Mor]]:
        """All (u: a->dom(post1), v: a->dom(post2)) with post1.u == post2.v."""
        groups: dict = {}
        for u in self.pool(a, post1.dom, cls1):
            groups.setdefault(self.inst.compose(post1, u).payload, []).append(u)
        out = []
        for v in self.pool(a, post2.dom, cls2):
            k = self.inst.compose(post2, v).payload
            for u in groups.get(k, ()):
                out.append((u, v))
        return out

    def co_commuting_pairs(self, pre1: Mor, pre2: Mor, t: ObjHandle,
                           cls1: str = "any", cls2: str = "any") -> list[tuple[Mor, Mor]]:
        """All (u: cod(pre1)->t, v: cod(pre2)->t) with u.pre1 == v.pre2."""
        groups: dict = {}
        for u in self.pool(pre1.cod, t, cls1):
            groups.setdefault(self.inst.compose(u, pre1).payload, []).append(u)
        out = []
        for v in self.pool(pre2.cod, t, cls2):
            k = self.inst.compose(v, pre2).payload
            for u in groups.get(k, ()):
                out.append((u, v))
        return out

    def mixed_square(self) -> Square:
        """A commuting square with top in M, left in E, right in E, bottom in M.

        Three generation modes are mixed: canonical pullbacks of an (E, M)
        cospan, canonical pushouts of an (M, E) span, and random commuting
        fills, so both outcomes of the pullback/pushout decision appear.
        """
        mode = self.rng.randrange(3)
        if mode == 0:
            e, m = self.cospan_E_M()
            cone = self.inst.pullback_along_M(e, m)
            return Square(top=cone.leg1, left=cone.leg2, right=e, bottom=m)
        if mode == 1:
            m, e = self.span_M_E()
            cone = self.inst.pushout_along_E(m, e)
            return Square(top=m, left=e, right=cone.leg1, bottom=cone.leg2)
        for _ in range(32):
            n = self.mor_in_M()
            e_pool_objs = self.reachable(n.dom, "E", "out")
            z = self.rng.choice(e_pool_objs)
            e = self.rng.choice(self.pool(n.dom, z, "E"))
            w = self.rng.choice(self.objects)
            pairs = self.co_commuting_pairs(n, e, w, cls1="E", cls2="M")
            if pairs:
                right, bottom = self.rng.choice(pairs)
                return Square(top=n, left=e, right=right, bottom=bottom)
        # random fill not found for these draws; fall back to a canonical one
        e, m = self.cospan_E_M()
        cone = self.inst.pullback_along_M(e, m)
        return Square(top=cone.leg1, left=cone.leg2, right=e, bottom=m)

    def factorization_ladder(self) -> tuple[Square, Square]:
        """Two squares sharing their middle edge: top and bottom rows are
        E-then-M factorizations and all three verticals are in M.

        Each square is independently either a canonical pullback or a random
        commuting fill, so all four truth combinations of (left is a
        pullback, right is a pullback) can occur.
        """
        f = self.hom()
        fac_bottom = self.inst.factorize(f)
        d_, i_ = fac_bottom.e, fac_bottom.m
        right = None
        if self.rng.randrange(2) == 0:
            c = self.mor_in_M(b=i_.cod)
            cone_r = self.inst.pullback_along_M(i_, c)
            right = Square(top=cone_r.leg2, left=cone_r.leg1, right=c, bottom=i_)
        else:
            for _ in range(32):
                c = self.mor_in_M(b=i_.cod)
                b_obj = self.rng.choice(self.objects)
                pairs = self.commuting_pairs(i_, c, b_obj, cls1="M", cls2="M")
                if pairs:
                    b, i = self.rng.choice(pairs)
                    right = Square(top=i, left=b, right=c, bottom=i_)
                    break
        if right is None:
            c = self.mor_in_M(b=i_.cod)
            cone_r = self.inst.pullback_along_M(i_, c)
            right = Square(top=cone_r.leg2, left=cone_r.leg1, right=c, bottom=i_)
        b = right.left
        left = None
        if self.rng.randrange(2) == 0:
            cone_l = self.inst.pullback_along_M(d_, b)
            left = Square(top=cone_l.leg2, left=cone_l.leg1, right=b, bottom=d_)
        else:
            for _ in range(32):
                a_obj = self.rng.choice(self.objects)
                pairs = self.commuting_pairs(b, d_, a_obj, cls1="E", cls2="M")
                if pairs:
                    d, a = self.rng.choice(pairs)
                    left = Square(top=d, left=a, right=b, bottom=d_)
                    break
            if left is None:
                cone_l = self.inst.pullback_along_M(d_, b)
                left = Square(top=cone_l.leg2, left=cone_l.leg1, right=b, bottom=d_)
        return left, right

    def factorization_ladder_dual(self) -> tuple[Square, Square]:
        """Two squares sharing their middle edge: rows are E-then-M
        factorizations and all three verticals are in E.

        Each square is independently either a canonical pushout or a random
        commuting fill."""
        f = self.hom()
        fac_top = self.inst.factorize(f)
        d, i = fac_top.e, fac_top.m
        left = None
        if self.rng.randrange(2) == 0:
            e1 = self.mor_in_E(a=d.dom)
            cone_l = self.inst.pushout_along_E(d, e1)
            left = Square(top=d, left=e1, right=cone_l.leg1, bottom=cone_l.leg2)
        else:
            for _ in range(32):
                e1 = self.mor_in_E(a=d.dom)
                q_obj = self.rng.choice(self.objects)
                pairs = self.co_commuting_pairs(d, e1, q_obj, cls1="E", cls2="E")
                if pairs:
                    e2, d_ = self.rng.choice(pairs)
                    left = Square(top=d, left=e1, right=e2, bottom=d_)
                    break
        if left is None:
            e1 = self.mor_in_E(a=d.dom)
            cone_l = self.inst.pushout_along_E(d, e1)
            left = Square(top=d, left=e1, right=cone_l.leg1, bottom=cone_l.leg2)
        e2 = left.right
        right = None
        if self.rng.randrange(2) == 0:
            cone_r = self.inst.pushout_along_E(i, e2)
            right = Square(top=i, left=e2, right=cone_r.leg1, bottom=cone_r.leg2)
        else:
            for _ in range(32):
                c_obj = self.rng.choice(self.objects)
                pairs = self.co_commuting_pairs(i, e2, c_obj, cls1="E", cls2="M")
                if pairs:
                    e3, i_ = self.rng.choice(pairs)
                    right = Square(top=i, left=e2, right=e3, bottom=i_)
                    break
            if right is None:
                cone_r = self.inst.pushout_along_E(i, e2)
                right = Square(top=i, left=e2, right=cone_r.leg1, bottom=cone_r.leg2)
        return left, right

    # -- spans of spans ---------------------------------------------------------

    def em_apexes(self, src: ObjHandle, tgt: ObjHandle) -> list[ObjHandle]:
        return [
            r for r in self.objects
            if self.pool(r, src, "E") and self.pool(r, tgt, "M")
        ]

    def em_ends(self, fixed: ObjHandle, side: str) -> list[ObjHandle]:
        """Objects o with an EM-span fixed -> o (side 'tgt') or o -> fixed
        (side 'src'); fixed itself is always one, by its identity legs."""
        key = (fixed.obj_key, side)
        hit = self._em_ends.get(key)
        if hit is None:
            if side == "tgt":
                hit = [o for o in self.objects if self.em_apexes(fixed, o)]
            else:
                hit = [o for o in self.objects if self.em_apexes(o, fixed)]
            self._em_ends[key] = hit
        return hit

    def em_span_legs(self, src: Optional[ObjHandle] = None,
                     tgt: Optional[ObjHandle] = None) -> tuple[Mor, Mor]:
        """Legs (d: R->src in E, m: R->tgt in M) of an EM-span src -> tgt.

        With one end given, the other is drawn among the objects an EM-span
        can join to it; with neither, both are drawn blindly until one can."""
        if src is None and tgt is None:
            for _ in range(128):
                src, tgt = self.obj(), self.obj()
                apexes = self.em_apexes(src, tgt)
                if apexes:
                    break
            else:
                raise SpanCatError("failed to sample an EM-span")
        else:
            if src is None:
                src = self.rng.choice(self.em_ends(tgt, "src"))
            elif tgt is None:
                tgt = self.rng.choice(self.em_ends(src, "tgt"))
            apexes = self.em_apexes(src, tgt)
            if not apexes:
                raise SpanCatError(
                    f"no EM-span exists from {src.descriptor} to {tgt.descriptor}"
                )
        r = self.rng.choice(apexes)
        d = self.rng.choice(self.pool(r, src, "E"))
        m = self.rng.choice(self.pool(r, tgt, "M"))
        return d, m
