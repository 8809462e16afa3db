"""Core types for categories equipped with a suitable factorization system.

A factorization system here is a pair of morphism classes (E, M) such that
every morphism factors as an E followed by an M, and E-against-M squares
admit unique diagonal fillers.  "Suitable" additionally asks for pullbacks
along M, pushouts along E, stability of E under pullback along M (and dually),
and the pullback-iff-pushout property for mixed squares.

Everything downstream (spans, fake pullbacks, the relation calculus) is
written against the :class:`Instance` contract defined here, so a new
category can be plugged in by implementing one class.
"""
from __future__ import annotations

import functools
import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence


class SpanCatError(Exception):
    """Base for all structured errors raised by this package."""


class CrossInstance(SpanCatError):
    """Objects or morphisms from different instances were mixed."""


class EndpointMismatch(SpanCatError):
    """A composite or diagram was requested with non-matching endpoints."""


class ClassViolation(SpanCatError):
    """A morphism did not belong to the orthogonal class an operation requires."""


class ShapeViolation(SpanCatError):
    """A diagram did not have the shape an operation requires."""


class ValidationFailure(SpanCatError):
    """Raw data failed instance validation (bad matrix, bad assignment, ...)."""


@dataclass(frozen=True, slots=True)
class ObjHandle:
    """An object of some instance, identified by (instance_id, obj_key).

    The descriptor is a human-readable rendering and never participates in
    equality or hashing.
    """

    instance_id: str
    obj_key: Any
    descriptor: str = field(default="", compare=False)

    def __repr__(self) -> str:
        return f"<{self.instance_id}:{self.descriptor or self.obj_key}>"


@dataclass(frozen=True, slots=True)
class Mor:
    """A morphism: endpoints plus an instance-specific immutable payload."""

    dom: ObjHandle
    cod: ObjHandle
    payload: Any

    def __repr__(self) -> str:
        return f"Mor({self.dom!r} -> {self.cod!r}: {self.payload!r})"


@dataclass(frozen=True, slots=True)
class OrthClass:
    """Membership flags for the two orthogonal classes."""

    in_E: bool
    in_M: bool


@dataclass(frozen=True, slots=True)
class Factorization:
    """f = m . e with e in E and m in M; mid is the middle object."""

    e: Mor
    m: Mor

    @property
    def mid(self) -> ObjHandle:
        return self.e.cod


@dataclass(frozen=True, slots=True)
class Square:
    """A commuting square.

        dom(top) --top--> cod(top)
           |                 |
          left             right
           v                 v
        cod(left) -bottom-> cod(right)

    Invariant (checked by validate): right . top == bottom . left.
    """

    top: Mor
    left: Mor
    right: Mor
    bottom: Mor

    @property
    def apex(self) -> ObjHandle:
        return self.top.dom

    @property
    def bottom_right(self) -> ObjHandle:
        return self.bottom.cod


@dataclass(frozen=True, slots=True)
class ConeResult:
    """Apex and two legs of a computed pullback (legs out of the apex) or
    pushout (legs into the apex)."""

    apex: ObjHandle
    leg1: Mor
    leg2: Mor


def require_same_instance(*items: Any) -> str:
    names = set()
    for it in items:
        if isinstance(it, ObjHandle):
            names.add(it.instance_id)
        elif isinstance(it, Mor):
            names.add(it.dom.instance_id)
            names.add(it.cod.instance_id)
    if len(names) > 1:
        raise CrossInstance(f"mixed instances: {sorted(names)}")
    return names.pop() if names else ""


@dataclass(slots=True, eq=False, repr=False)
class Memo:
    """Per-instance tables of construction results, keyed by their inputs.

    Each table maps an input to the result of a construction that returned
    normally; a construction that raises stores nothing, so bad input raises
    on every call.  The tables live as long as their instance.
    """

    fake_pullbacks: dict = field(default_factory=dict)  # (f, g) -> FakePullbackResult
    span_composites: dict = field(default_factory=dict)  # (g, f) -> EMSpan
    composite_keys: dict = field(default_factory=dict)  # (g, f) -> iso key of g . f
    span_reps: dict = field(default_factory=dict)  # (src, tgt, bound) keys -> reps
    properness: dict = field(default_factory=dict)  # (bound, seed) -> bool


class Instance(ABC):
    """The contract every computable category with a suitable factorization
    system implements.

    Objects are referred to by hashable keys; ``obj`` interns a key into an
    ObjHandle.  All morphism payloads must be immutable and hashable so that
    morphisms can be deduplicated in the brute-force checks.

    Every construction (compose, factorize, pullback_along_M, ...) must be a
    deterministic function of the ``obj_key`` and payload of its arguments.
    Together with immutable, hashable payloads this lets ``memo`` key derived
    constructions (fake pullbacks, span composites) on their inputs.
    """

    name: str = "abstract"

    @functools.cached_property
    def memo(self) -> Memo:
        """This instance's construction tables, made on first use."""
        return Memo()

    # -- objects -----------------------------------------------------------

    @abstractmethod
    def validate_obj(self, key: Any) -> Any:
        """Normalize and validate an object key; raise ValidationFailure."""

    @abstractmethod
    def describe_obj(self, key: Any) -> str:
        ...

    def obj(self, key: Any) -> ObjHandle:
        key = self.validate_obj(key)
        return ObjHandle(self.name, key, self.describe_obj(key))

    # -- morphisms ---------------------------------------------------------

    @abstractmethod
    def validate_mor(self, f: Mor) -> None:
        """Raise ValidationFailure/CrossInstance if f is not a morphism here."""

    @abstractmethod
    def compose(self, g: Mor, f: Mor) -> Mor:
        """g . f (apply f first).  Raises EndpointMismatch."""

    @abstractmethod
    def identity(self, a: ObjHandle) -> Mor:
        ...

    @abstractmethod
    def classify(self, f: Mor) -> OrthClass:
        ...

    @abstractmethod
    def factorize(self, f: Mor) -> Factorization:
        ...

    @abstractmethod
    def pullback_along_M(self, f: Mor, m: Mor) -> ConeResult:
        """Pullback of the cospan (f, m) with m in M.

        leg1: apex -> dom(f) is in M (it is the pullback of m), and
        leg2: apex -> dom(m) satisfies f . leg1 == m . leg2.  When f is in E,
        leg2 is in E as well (stability of E under pullback along M).
        """

    @abstractmethod
    def pushout_along_E(self, f: Mor, e: Mor) -> ConeResult:
        """Pushout of the span (f, e) with e in E and dom(f) == dom(e).

        leg1: cod(f) -> apex is in E (the pushout of e), and
        leg2: cod(e) -> apex satisfies leg1 . f == leg2 . e.  When f is in M,
        leg2 is in M as well.
        """

    @abstractmethod
    def find_iso(self, a: ObjHandle, b: ObjHandle) -> Optional[Mor]:
        ...

    @abstractmethod
    def enumerate_objects_up_to(self, bound: int) -> list[ObjHandle]:
        """The object catalog used by bounded checks (bound is instance-specific:
        group order for finab, set size for pinj, ignored by groupoids)."""

    @abstractmethod
    def enumerate_homs(self, a: ObjHandle, b: ObjHandle) -> Sequence[Mor]:
        ...

    # -- generic implementations (instances may override with solvers) ------

    def mor_eq(self, f: Mor, g: Mor) -> bool:
        return f.dom == g.dom and f.cod == g.cod and f.payload == g.payload

    def is_iso(self, f: Mor) -> bool:
        # E and M intersect exactly in the isomorphisms.
        c = self.classify(f)
        return c.in_E and c.in_M

    def inverse(self, f: Mor) -> Mor:
        if not self.is_iso(f):
            raise ClassViolation("inverse requested for a non-isomorphism")
        ida, idb = self.identity(f.dom), self.identity(f.cod)
        for g in self.enumerate_homs(f.cod, f.dom):
            if self.mor_eq(self.compose(g, f), ida) and self.mor_eq(self.compose(f, g), idb):
                return g
        raise SpanCatError("no inverse found for a morphism classified as iso")

    def fill_diagonal(self, sq: Square) -> Mor:
        """The unique w with w . top == left and bottom . w == right, for a
        commuting square whose top is in E and bottom in M."""
        validate_square(self, sq)
        if not self.classify(sq.top).in_E:
            raise ClassViolation("fill_diagonal: top edge must be in E")
        if not self.classify(sq.bottom).in_M:
            raise ClassViolation("fill_diagonal: bottom edge must be in M")
        found = None
        for w in self.enumerate_homs(sq.top.cod, sq.bottom.dom):
            if self.mor_eq(self.compose(w, sq.top), sq.left) and self.mor_eq(
                self.compose(sq.bottom, w), sq.right
            ):
                if found is not None:
                    raise SpanCatError("fill_diagonal: diagonal is not unique")
                found = w
        if found is None:
            raise SpanCatError("fill_diagonal: no diagonal exists")
        return found

    def compose_many(self, *fs: Mor) -> Mor:
        """Compose a chain given outermost-first: compose_many(h, g, f) = h.g.f."""
        out = fs[0]
        for f in fs[1:]:
            out = self.compose(out, f)
        return out

    def solve_post_system(self, dom: ObjHandle, cod: ObjHandle,
                          eqs: Sequence[tuple[Mor, Mor]]) -> tuple[Optional[Mor], int]:
        """One solution (or None) and the total count for the system
        {post . w == rhs : (post, rhs) in eqs} over w: dom -> cod.

        Generic implementation enumerates hom(dom, cod); instances with a
        solver override this."""
        found, count = None, 0
        for w in self.enumerate_homs(dom, cod):
            if all(
                self.mor_eq(self.compose(post, w), rhs) for post, rhs in eqs
            ):
                if found is None:
                    found = w
                count += 1
        return found, count

    # -- optional fast-path hooks -------------------------------------------

    def span_iso_key(self, d: Mor, m: Mor) -> Any:
        """A complete invariant for the iso class of the span (d, m) out of a
        common apex, if the instance has a cheap one; None to force search."""
        return None

    def element_count(self, a: ObjHandle) -> Optional[int]:
        return None

    def rel_pair_key(self, d1: Mor, m1: Mor, d2: Mor, m2: Mor) -> Any:
        """A complete invariant for the end-fixed iso class of the zig-zag
        cod(m1) <- apex1 -> Q <- apex2 -> cod(m2) given by two EM-span legs
        (d1, m1) and (d2, m2) with a shared middle Q = cod(d1) = cod(d2).
        None to force a bounded iso search."""
        return None


def iso_inverse(inst: Instance, f: Mor) -> Mor:
    """Two-sided inverse of an isomorphism (a member of E and M)."""
    c = inst.classify(f)
    if not (c.in_E and c.in_M):
        raise ClassViolation("only members of both classes are invertible")
    w, _ = inst.solve_post_system(f.cod, f.dom, [(f, inst.identity(f.cod))])
    if w is None or not inst.mor_eq(inst.compose(w, f), inst.identity(f.dom)):
        raise SpanCatError("no two-sided inverse found; E and M do not meet in isos")
    return w


def validate_square(inst: Instance, sq: Square) -> None:
    for f in (sq.top, sq.left, sq.right, sq.bottom):
        inst.validate_mor(f)
    if sq.top.dom != sq.left.dom or sq.top.cod != sq.right.dom:
        raise EndpointMismatch("square corners do not line up")
    if sq.left.cod != sq.bottom.dom or sq.right.cod != sq.bottom.cod:
        raise EndpointMismatch("square corners do not line up")
    if not inst.mor_eq(inst.compose(sq.right, sq.top), inst.compose(sq.bottom, sq.left)):
        raise ShapeViolation("square does not commute")


# ---------------------------------------------------------------------------
# Groupoid instance: a single-object groupoid presented by a multiplication
# table.  Both classes are everything, and factorize(f) = (f, id).
# ---------------------------------------------------------------------------

STAR = "*"


class GroupoidInstance(Instance):
    """One-object groupoid from a finite group multiplication table.

    ``table[i][j]`` is the index of the product g_i . g_j (g_j applied first
    is a matter of convention; composition uses table rows as left factors).
    """

    def __init__(self, table: Sequence[Sequence[int]], name: str = "groupoid"):
        self.name = name
        n = len(table)
        tab = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in tab):
            raise ValidationFailure("groupoid table is not square")
        if any(x not in range(n) for row in tab for x in row):
            raise ValidationFailure("groupoid table entries out of range")
        # identity element: a two-sided unit
        ident = None
        for e in range(n):
            if all(tab[e][j] == j for j in range(n)) and all(tab[i][e] == i for i in range(n)):
                ident = e
                break
        if ident is None:
            raise ValidationFailure("groupoid table has no identity")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if tab[tab[i][j]][k] != tab[i][tab[j][k]]:
                        raise ValidationFailure("groupoid table is not associative")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if tab[i][j] == ident and tab[j][i] == ident:
                    inv[i] = j
        if any(v is None for v in inv):
            raise ValidationFailure("groupoid table is not invertible")
        self.table = tab
        self.size = n
        self.ident = ident
        self.inv = tuple(inv)
        self.star = ObjHandle(self.name, STAR, STAR)

    # objects
    def validate_obj(self, key: Any) -> Any:
        if key != STAR:
            raise ValidationFailure("groupoid instance has a single object '*'")
        return STAR

    def describe_obj(self, key: Any) -> str:
        return STAR

    # morphisms
    def validate_mor(self, f: Mor) -> None:
        require_same_instance(f)
        if f.dom.instance_id != self.name:
            raise CrossInstance(f"morphism belongs to {f.dom.instance_id}")
        if not isinstance(f.payload, int) or not 0 <= f.payload < self.size:
            raise ValidationFailure("groupoid morphism payload must be an element index")

    def mor(self, element: int) -> Mor:
        f = Mor(self.star, self.star, element)
        self.validate_mor(f)
        return f

    def compose(self, g: Mor, f: Mor) -> Mor:
        if f.cod != g.dom:
            raise EndpointMismatch("compose endpoint mismatch")
        return Mor(f.dom, g.cod, self.table[g.payload][f.payload])

    def identity(self, a: ObjHandle) -> Mor:
        return Mor(a, a, self.ident)

    def classify(self, f: Mor) -> OrthClass:
        self.validate_mor(f)
        return OrthClass(True, True)

    def factorize(self, f: Mor) -> Factorization:
        # canonical choice: e = f, m = identity
        return Factorization(e=f, m=self.identity(f.cod))

    def inverse(self, f: Mor) -> Mor:
        return Mor(f.cod, f.dom, self.inv[f.payload])

    def fill_diagonal(self, sq: Square) -> Mor:
        validate_square(self, sq)
        return self.compose(sq.left, self.inverse(sq.top))

    def pullback_along_M(self, f: Mor, m: Mor) -> ConeResult:
        if f.cod != m.cod:
            raise EndpointMismatch("pullback cospan endpoint mismatch")
        leg1 = self.identity(f.dom)
        leg2 = self.compose(self.inverse(m), f)
        return ConeResult(f.dom, leg1, leg2)

    def pushout_along_E(self, f: Mor, e: Mor) -> ConeResult:
        if f.dom != e.dom:
            raise EndpointMismatch("pushout span endpoint mismatch")
        leg1 = self.identity(f.cod)
        leg2 = self.compose(f, self.inverse(e))
        return ConeResult(f.cod, leg1, leg2)

    def find_iso(self, a: ObjHandle, b: ObjHandle) -> Optional[Mor]:
        return self.identity(a)

    def enumerate_objects_up_to(self, bound: int) -> list[ObjHandle]:
        return [self.star]

    def enumerate_homs(self, a: ObjHandle, b: ObjHandle) -> Sequence[Mor]:
        return tuple(Mor(a, b, i) for i in range(self.size))

    def element_count(self, a: ObjHandle) -> Optional[int]:
        return 1

    def span_iso_key(self, d: Mor, m: Mor) -> Any:
        # the composite d . m^{-1} is invariant under re-choosing the apex iso
        # and determines the span up to isomorphism
        return self.compose(d, self.inverse(m)).payload

    def rel_pair_key(self, d1: Mor, m1: Mor, d2: Mor, m2: Mor) -> Any:
        # normalizing the middle iso away leaves m1 . d1^{-1} . d2 . m2^{-1}
        k1 = self.compose(m1, self.inverse(d1))
        k2 = self.compose(d2, self.inverse(m2))
        return self.compose(k1, k2).payload


def groupoid_instance(table: Sequence[Sequence[int]], name: str = "groupoid") -> GroupoidInstance:
    """Build and validate a one-object groupoid instance from a group table."""
    return GroupoidInstance(table, name=name)


def symmetric_group_table(n: int) -> list[list[int]]:
    """Multiplication table of the symmetric group on n letters.

    Elements are permutations in lexicographic order of their one-line
    notation; entry [i][j] is the index of p_i after p_j.
    """
    perms = sorted(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            row.append(index[tuple(p[q[x]] for x in range(n))])
        table.append(row)
    return table
