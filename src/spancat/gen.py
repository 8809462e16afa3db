"""Seeded generators for diagrams used by the property suites.

Everything is driven by one random.Random so identical (instance, seed,
bound) triples reproduce identical diagram streams.  Object and morphism
pools come from the instance's deterministic enumerations, so runs are
stable across platforms.
"""
from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

from .core import Instance, Mor, ObjHandle, SpanCatError, Square, drawn_square


class Sampler:
    """Draws objects, class-constrained morphisms and shaped diagrams."""

    def __init__(self, inst: Instance, seed: int | str, bound: int):
        self.inst = inst
        self.rng = random.Random(str(seed))
        self.bound = bound
        self.objects: list[ObjHandle] = inst.enumerate_objects_up_to(bound)
        if not self.objects:
            raise SpanCatError("instance catalog is empty")
        self._reach: dict[tuple, list[ObjHandle]] = {}
        self._em_apexes: dict[tuple, list[ObjHandle]] = {}
        self._em_ends: dict[tuple, list[ObjHandle]] = {}

    # -- pools ---------------------------------------------------------------

    def pool(self, a: ObjHandle, b: ObjHandle, cls: str = "any") -> Sequence[Mor]:
        """Morphisms a -> b of a class (any, E, M, iso), in enumerate_homs
        order: the instance's class_homs, the one pool that its
        ``memo.pools`` keeps for every sampler, not copied, so a pool that
        builds its members on read builds only those drawn."""
        return self.inst.class_homs(a, b, cls)

    def reachable(self, a: ObjHandle, cls: str, direction: str) -> list[ObjHandle]:
        """Objects b with a nonempty pool a->b (direction 'out') or b->a ('in')."""
        key = (a.obj_key, cls, direction)
        hit = self._reach.get(key)
        if hit is None:
            has = self.inst.has_class_hom
            if direction == "out":
                hit = [b for b in self.objects if has(a, b, cls)]
            else:
                hit = [b for b in self.objects if has(b, a, cls)]
            self._reach[key] = hit
        return hit

    # -- simple draws ---------------------------------------------------------

    def obj(self) -> ObjHandle:
        return self.rng.choice(self.objects)

    def hom(self, a: Optional[ObjHandle] = None, b: Optional[ObjHandle] = None,
            cls: str = "any") -> Mor:
        """A morphism a -> b of a class, uniform in its pool; an end not
        given is drawn first (a, then b, when neither is).  The draw reads
        one member of the pool by index, the one rng.choice would pick, so
        a pool that builds its members on read builds only that one."""
        if a is None and b is None:
            a = self.obj()
        if b is None:
            b = self.rng.choice(self.reachable(a, cls, "out"))
        elif a is None:
            a = self.rng.choice(self.reachable(b, cls, "in"))
        pool = self.pool(a, b, cls)
        if not pool:
            raise SpanCatError(
                f"no morphism of class {cls} from {a.descriptor} to {b.descriptor}"
            )
        return pool[self.rng.randrange(len(pool))]

    # -- shaped draws ----------------------------------------------------------

    def cone_input(self, op: bool = False, cls: str = "any") -> tuple[Mor, Mor]:
        """(f, g): g in M, then f of class cls with f.cod == g.cod, the
        cospan that pullback_along_M takes.  With op, the same read in
        C^op: g in E, then f of class cls with f.dom == g.dom, the span that
        pushout_along_E takes."""
        if op:
            g = self.hom(cls="E")
            return self.hom(a=g.dom, cls=cls), g
        g = self.hom(cls="M")
        return self.hom(b=g.cod, cls=cls), g

    def commuting_pair(self, g1: Mor, g2: Mor, a: ObjHandle, cls1: str = "any",
                       cls2: str = "any", op: bool = False) -> Optional[tuple[Mor, Mor]]:
        """One (u: a->dom(g1), v: a->dom(g2)) with g1.u == g2.v, uniform
        among all such pairs, or None when there is none.  With op, the same
        read in C^op: (u: cod(g1)->a, v: cod(g2)->a) with u.g1 == v.g2.  The
        classes filter u and v as morphisms of C.  When either pool is empty
        nothing is composed.  Each leg's composites come from one
        compose_all walk, in pool order; the pairs are listed as index
        pairs, v's index outermost, rng.choice takes one, and only its two
        members are built."""
        if op:
            us, vs = self.pool(g1.cod, a, cls1), self.pool(g2.cod, a, cls2)
        else:
            us, vs = self.pool(a, g1.dom, cls1), self.pool(a, g2.dom, cls2)
        if not us or not vs:
            return None
        groups: dict = {}
        for i, k in enumerate(self.inst.compose_all(g1, a, op, cls1)):
            groups.setdefault(k, []).append(i)
        pairs = [(i, j) for j, k in enumerate(self.inst.compose_all(g2, a, op, cls2))
                 for i in groups.get(k, ())]
        if not pairs:
            return None
        i, j = self.rng.choice(pairs)
        return us[i], vs[j]

    def _fill_or(self, fill: Callable[[], Optional[Square]],
                 canonical: Callable[[], Square]) -> Square:
        """The first square that fill draws in 32 tries, else canonical()."""
        for _ in range(32):
            sq = fill()
            if sq is not None:
                return sq
        return canonical()

    def mixed_square(self) -> Square:
        """A commuting square with top in M, left in E, right in E, bottom in M.

        Three generation modes are mixed: canonical pullbacks of an (E, M)
        cospan, canonical pushouts of an (M, E) span, and random commuting
        fills, so both outcomes of the pullback/pushout decision appear.
        """

        def canonical_pullback() -> Square:
            e, m = self.cone_input(cls="E")
            cone = self.inst.pullback_along_M(e, m)
            return Square(top=cone.leg1, left=cone.leg2, right=e, bottom=m)

        def fill() -> Optional[Square]:
            n = self.hom(cls="M")
            e_pool_objs = self.reachable(n.dom, "E", "out")
            z = self.rng.choice(e_pool_objs)
            e = self.rng.choice(self.pool(n.dom, z, "E"))
            w = self.rng.choice(self.objects)
            pair = self.commuting_pair(n, e, w, cls1="E", cls2="M", op=True)
            return pair and Square(top=n, left=e, right=pair[0], bottom=pair[1])

        mode = self.rng.randrange(3)
        if mode == 0:
            return canonical_pullback()
        if mode == 1:
            m, e = self.cone_input(op=True, cls="M")
            cone = self.inst.pushout_along_E(m, e)
            return Square(top=m, left=e, right=cone.leg1, bottom=cone.leg2)
        return self._fill_or(fill, canonical_pullback)

    def factorization_ladder(self, op: bool = False) -> tuple[Square, Square]:
        """Two squares sharing their middle edge: top and bottom rows are
        E-then-M factorizations and all three verticals are in M.

        Each square is independently either a canonical pullback or a random
        commuting fill, so all four truth combinations of (left is a
        pullback, right is a pullback) can occur.  With op the ladder is
        drawn in C^op: its verticals are in E and each square is either a
        canonical pushout or a random commuting fill.
        """
        inst = self.inst
        E, M = ("M", "E") if op else ("E", "M")  # C's names of the classes read as E, M
        cone_of = inst.pushout_along_E if op else inst.pullback_along_M
        f = self.hom()
        fac = inst.factorize(f)
        d_, i_ = (fac.m, fac.e) if op else (fac.e, fac.m)  # the bottom row, as read

        def canonical(bottom: Mor, right: Mor) -> Square:
            cone = cone_of(bottom, right)
            return drawn_square(op, cone.leg2, cone.leg1, right, bottom)

        def vertical_onto_i_() -> Mor:
            return self.hom(a=i_.dom, cls=M) if op else self.hom(b=i_.cod, cls=M)

        def canonical_right() -> Square:
            return canonical(i_, vertical_onto_i_())

        def fill_right() -> Optional[Square]:
            c = vertical_onto_i_()
            b_obj = self.rng.choice(self.objects)
            pair = self.commuting_pair(i_, c, b_obj, cls1=M, cls2=M, op=op)
            return pair and drawn_square(op, pair[1], pair[0], c, i_)

        if self.rng.randrange(2) == 0:
            right = canonical_right()
        else:
            right = self._fill_or(fill_right, canonical_right)
        b = right.right if op else right.left  # the middle vertical, as read

        def canonical_left() -> Square:
            return canonical(d_, b)

        def fill_left() -> Optional[Square]:
            a_obj = self.rng.choice(self.objects)
            pair = self.commuting_pair(b, d_, a_obj, cls1=E, cls2=M, op=op)
            return pair and drawn_square(op, *pair, b, d_)

        if self.rng.randrange(2) == 0:
            left = canonical_left()
        else:
            left = self._fill_or(fill_left, canonical_left)
        # drawn in C, a ladder of C^op is turned half a turn: its squares swap
        return (right, left) if op else (left, right)

    # -- spans of spans ---------------------------------------------------------

    def em_apexes(self, src: ObjHandle, tgt: ObjHandle) -> list[ObjHandle]:
        """Objects R with an E-leg R -> src and an M-leg R -> tgt, in
        catalog order: those of reachable(src, "E", "in") that are in
        reachable(tgt, "M", "in").  The instance's has_class_hom answers
        those, so no pool is built here: only the pools of the apex drawn
        are."""
        key = (src.obj_key, tgt.obj_key)
        hit = self._em_apexes.get(key)
        if hit is None:
            into_tgt = {r.obj_key for r in self.reachable(tgt, "M", "in")}
            hit = self._em_apexes[key] = [
                r for r in self.reachable(src, "E", "in") if r.obj_key in into_tgt]
        return hit

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
        can join to it; with neither, both are drawn blindly until one can,
        as src == tgt does, so each try succeeds with chance >= 1/len(objects)."""
        if src is None and tgt is None:
            apexes = None
            while not apexes:
                src, tgt = self.obj(), self.obj()
                apexes = self.em_apexes(src, tgt)
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
