"""Core types for categories equipped with a suitable factorization system.

A factorization system here is a pair of morphism classes (E, M) such that
every morphism factors as an E followed by an M, and E-against-M squares
admit unique diagonal fillers.  "Suitable" additionally asks for pullbacks
along M, pushouts along E, stability of E under pullback along M (and dually),
and the pullback-iff-pushout property for mixed squares.

Everything downstream (spans, fake pullbacks, the relation calculus) is
written against the :class:`Instance` contract defined here.  A new
category is one subclass, which also writes and reads its own objects
and morphisms as JSON, and one entry of ``config.INSTANCES``.
"""
from __future__ import annotations

import collections
import functools
import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence


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


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationFailure(msg)


def json_int(x: Any, what: str) -> int:
    """A JSON integer; floats, bools and strings are bad input."""
    require(type(x) is int, f"{what} must be a JSON integer, got {x!r}")
    return x


def json_list(x: Any, what: str) -> list:
    require(isinstance(x, list), f"{what} must be a list, got {x!r}")
    return x


def json_ints(x: Any, what: str) -> tuple[int, ...]:
    return tuple(json_int(n, what) for n in json_list(x, what))


@dataclass(frozen=True, slots=True, eq=False)
class ObjHandle:
    """An object of some instance, identified by (instance_id, obj_key).

    The descriptor is a human-readable rendering and never participates in
    equality or hashing.  ``Instance.obj`` interns handles, so equality
    answers an identical pair at once and compares keys otherwise.
    """

    instance_id: str
    obj_key: Any
    descriptor: str = ""

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not ObjHandle:
            return NotImplemented
        return self.instance_id == other.instance_id and self.obj_key == other.obj_key

    def __hash__(self) -> int:
        return hash((self.instance_id, self.obj_key))

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

    Invariant: right . top == bottom . left (validate_square).
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


# The capacities of Memo.decisions and Memo.walks.
DECISIONS_CAPACITY = 1024
WALKS_CAPACITY = 1024


@dataclass(slots=True, eq=False, repr=False)
class Memo:
    """Per-instance tables of construction results, keyed by their inputs.

    Each table maps an input to the result of a construction that returned
    normally; a construction that raises stores nothing, so input it
    rejects raises on every call.  The keys are trusted: span legs are
    validated where spans are built (``spans.em_span``).  The tables live
    as long as their instance.  ``handles``
    holds the one ObjHandle per normalized object key that ``Instance.obj``
    hands out, and ``spans`` the one EMSpan per pair of legs (d, m) that the
    span builders hand out; spans compare by identity, so every table keyed
    on spans hits by identity.  ``span_keys`` holds each interned span's
    ``span_iso_key``, read through ``spans.span_key``, so a span is keyed
    once however many composites and comparisons read it.  ``relations``
    holds the one Relation per pair of legs (left, right) that the relation
    builders hand out, so relations too compare by identity, and
    ``rel_composites`` holds each relation composite, keyed by its two
    factors (r2, r1).  ``pair_keys``
    holds each span pair's ``rel_pair_key``, None included, but never the
    answer of an iso search.  ``pools``, the one table of pools, holds each
    pool that ``class_homs`` hands out, keyed by its ends' obj_keys and class.

    Two tables are bounded, least recently used first out, as the distinct
    squares and legs of a suite grow with its samples and each key keeps
    its payloads.  Neither holds a morphism, so neither keeps one alive.
    ``decisions`` holds the DECISIONS_CAPACITY most recent pullback and
    pushout decisions of ``axioms``, a bool each, keyed by the square's
    four corners' obj_keys, its four payloads, the bound and op.
    ``walks`` holds the WALKS_CAPACITY most recent leg walks that the
    decisions and the jointly and properness scans read: the compose_all
    walk of a leg g at a test object t, keyed by g's ends' obj_keys, its
    payload, t's obj_key and op, with each composite payload replaced by
    its id in ``composite_ids`` (hash-consing, Filliâtre & Conchon 2006).
    That table numbers payloads in order of first sight and is not
    bounded: it holds only composites at test objects, which are few and
    small (in finab one-column matrices out of a cyclic group or one-row
    matrices into one, in pinj maps out of or into a set of size 1 or 2).
    An id stands for a payload, and so for a morphism, only inside one hom
    set, which is where the walks compare them.
    """

    handles: dict = field(default_factory=dict)  # normalized obj_key -> ObjHandle
    spans: dict = field(default_factory=dict)  # (d, m) -> EMSpan
    fake_pullbacks: dict = field(default_factory=dict)  # (f, g) -> FakePullbackResult
    span_composites: dict = field(default_factory=dict)  # (g, f) -> EMSpan
    span_keys: dict = field(default_factory=dict)  # EMSpan -> span_iso_key
    relations: dict = field(default_factory=dict)  # (left, right) -> Relation
    rel_composites: dict = field(default_factory=dict)  # (r2, r1) -> Relation
    span_reps: dict = field(default_factory=dict)  # (src, tgt, bound) keys -> reps
    properness: dict = field(default_factory=dict)  # bound -> bool
    pair_keys: dict = field(default_factory=dict)  # (span, span) -> rel_pair_key
    pools: dict = field(default_factory=dict)  # (dom key, cod key, class) -> pool
    decisions: collections.OrderedDict = field(
        default_factory=collections.OrderedDict)  # square key -> bool
    walks: collections.OrderedDict = field(
        default_factory=collections.OrderedDict)  # (leg, t, op) key -> composite ids
    composite_ids: dict = field(default_factory=dict)  # composite payload -> id


class Instance(ABC):
    """The contract every computable category with a suitable factorization
    system implements.

    Objects are referred to by hashable keys; ``obj`` validates a key on
    every call and interns it: equal keys give the one ObjHandle kept in
    ``memo.handles``.  The span builders of ``spans`` intern EM-spans the
    same way, one per pair of legs in ``memo.spans``, and the relation
    builders of ``relations`` intern relations in ``memo.relations``, so
    memo lookups on equal inputs compare by identity.  Handles, spans and
    relations of two instances are never shared.
    All morphism payloads must be immutable and hashable so that
    morphisms can be deduplicated in the brute-force checks.

    ``Instance`` checks and wraps; an instance supplies payload arithmetic.
    validate_mor, compose, factorize, the two cones and solve_post_system
    check their preconditions here (the owning instance, matching ends, m
    in M or e in E), call one hook (check_payload, compose_payloads,
    factor_payloads, pullback_payloads, pushout_payloads or
    solve_post_payloads), and wrap the object keys and payloads it returns
    in handles and morphisms.  inverse and fill_diagonal check their
    classes here and check the solve_post_system answer they read; no
    shipped instance overrides any of these.  Every construction must
    be a deterministic function of the ``obj_key`` and payload of its
    arguments.  Together with immutable, hashable payloads this lets
    ``memo`` key derived constructions (fake pullbacks, span composites) on
    their inputs.

    The bounded decisions, the FS1 check and the jointly and properness
    checks compose one fixed morphism with a whole hom set through
    ``compose_all``, and the sampler's commuting pair with a class pool.
    Its default is the ``compose`` loop; an instance whose hom sets are
    groups may override it.  In finab, u |-> g . u and u |-> u . g are
    group homomorphisms, so the whole sequence follows from the images of
    the hom group's generators by addition alone, and a class pool reads
    its members' composites off that walk by index.

    The bounded decisions read their test objects from
    ``decision_objects``, and the jointly and properness scans from
    ``scan_objects``.  Both default to the bounded catalog, which the
    groupoids keep: it is their one object.  finab reads its test objects
    off the objects at hand: Z/p^e(p) per prime for a decision, Z/p per
    prime for a scan.  pinj decides at the sets of size 1 and 2 and scans
    at size 1.  Each is exact at every bound (see the axioms module).  A
    decision is a function of the square's obj_keys and payloads, the bound
    and op, so its answer is kept in ``memo.decisions`` and made again only
    once that bounded table has let it go.  The decisions and scans read
    each leg's walk at a test object from ``memo.walks``, so a leg is
    walked once per test object while that bounded table keeps it.

    ``solve_post_system`` is the one search for a unique morphism, "the w
    with post . w == rhs": diagonal fills, inverses, cells and V3 mediators.
    Such a w is unique because M-morphisms are monic.  Each shipped
    instance solves exactly, reading no pool: finab by congruences, pinj
    from the posts' preimages and the groupoid off its table.

    Iso classes of spans and zig-zags are compared through two keys that
    every instance gives, ``span_iso_key`` and ``rel_pair_key``; the latter
    may answer None to send a comparison to the bounded iso search.

    The samplers draw every morphism, of any class, from a pool through two
    hooks: ``class_homs(a, b, cls)`` gives the morphisms a -> b of a class
    (any, E, M or iso) in enumerate_homs order, and ``has_class_hom(a, b,
    cls)`` says whether there is one.  class_homs alone writes
    ``memo.pools``, where it keeps each pool that the hook class_pool makes,
    once per instance: the default of class any is enumerate_homs itself, a
    class pool filters that kept pool by classify, and has_class_hom asks
    whether the kept pool is empty.  A pool is any
    Sequence, so it may build a member only when it is read; the suites
    and the sampler read a pool by index, and pair members by their
    positions in compose_all's walks, not by iterating the pool.  finab
    answers both from structure: existence from invariant factors, members
    from the ranks of the hom's matrices mod each prime, with no hom
    classified one by one.  Its pools, class any included, hold indices in
    its hom group, so a draw from one builds only the morphism drawn.  pinj
    answers existence from the two sizes, without a pool.
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
        hit = self.memo.handles.get(key)
        if hit is None:
            hit = self.memo.handles[key] = ObjHandle(self.name, key, self.describe_obj(key))
        return hit

    # -- morphisms ---------------------------------------------------------

    def validate_mor(self, f: Mor) -> None:
        """Raise ValidationFailure/CrossInstance if f is not a morphism here."""
        if f.dom.instance_id != self.name or f.cod.instance_id != self.name:
            raise CrossInstance(f"morphism does not belong to the {self.name} instance")
        self.check_payload(f)

    def compose(self, g: Mor, f: Mor) -> Mor:
        """g . f (apply f first).  Raises EndpointMismatch."""
        if f.cod != g.dom:
            raise EndpointMismatch(f"compose: {f.cod} != {g.dom}")
        return Mor(f.dom, g.cod, self.compose_payloads(g, f))

    @abstractmethod
    def identity(self, a: ObjHandle) -> Mor:
        ...

    @abstractmethod
    def classify(self, f: Mor) -> OrthClass:
        ...

    def factorize(self, f: Mor) -> Factorization:
        mid, e, m = self.factor_payloads(f)
        mid = self.obj(mid)
        return Factorization(Mor(f.dom, mid, e), Mor(mid, f.cod, m))

    def pullback_along_M(self, f: Mor, m: Mor) -> ConeResult:
        """Pullback of the cospan (f, m) with m in M.

        leg1: apex -> dom(f) is in M (it is the pullback of m), and
        leg2: apex -> dom(m) satisfies f . leg1 == m . leg2.  When f is in E,
        leg2 is in E as well (stability of E under pullback along M).
        """
        if f.cod != m.cod:
            raise EndpointMismatch("pullback cospan endpoints differ")
        if not self.classify(m).in_M:
            raise ClassViolation("pullback_along_M: second argument must be in M")
        apex, leg1, leg2 = self.pullback_payloads(f, m)
        apex = self.obj(apex)
        return ConeResult(apex, Mor(apex, f.dom, leg1), Mor(apex, m.dom, leg2))

    def pushout_along_E(self, f: Mor, e: Mor) -> ConeResult:
        """Pushout of the span (f, e) with e in E and dom(f) == dom(e).

        leg1: cod(f) -> apex is in E (the pushout of e), and
        leg2: cod(e) -> apex satisfies leg1 . f == leg2 . e.  When f is in M,
        leg2 is in M as well.
        """
        if f.dom != e.dom:
            raise EndpointMismatch("pushout span endpoints differ")
        if not self.classify(e).in_E:
            raise ClassViolation("pushout_along_E: second argument must be in E")
        apex, leg1, leg2 = self.pushout_payloads(f, e)
        apex = self.obj(apex)
        return ConeResult(apex, Mor(f.cod, apex, leg1), Mor(e.cod, apex, leg2))

    @abstractmethod
    def check_payload(self, f: Mor) -> None:
        """Raise ValidationFailure unless f.payload is a morphism dom(f) -> cod(f)."""

    @abstractmethod
    def compose_payloads(self, g: Mor, f: Mor) -> Any:
        """The payload of g . f."""

    @abstractmethod
    def factor_payloads(self, f: Mor) -> tuple[Any, Any, Any]:
        """(mid key, e, m): f's factorization through the object mid."""

    @abstractmethod
    def pullback_payloads(self, f: Mor, m: Mor) -> tuple[Any, Any, Any]:
        """(apex key, leg1, leg2) of pullback_along_M(f, m)."""

    @abstractmethod
    def pushout_payloads(self, f: Mor, e: Mor) -> tuple[Any, Any, Any]:
        """(apex key, leg1, leg2) of pushout_along_E(f, e)."""

    @abstractmethod
    def solve_post_payloads(self, dom: ObjHandle, cod: ObjHandle,
                            eqs: Sequence[tuple[Mor, Mor]]) -> tuple[Any, int]:
        """(payload of solve_post_system's solution or None, count), for
        equations whose ends match."""

    @abstractmethod
    def enumerate_objects_up_to(self, bound: int) -> list[ObjHandle]:
        """The object catalog used by bounded checks (bound is instance-specific:
        group order for finab, set size for pinj, ignored by groupoids), as
        a new list on each call, which the caller may change."""

    @abstractmethod
    def enumerate_homs(self, a: ObjHandle, b: ObjHandle) -> Sequence[Mor]:
        ...

    def decision_objects(self, sq: Square, bound: int, op: bool = False) -> list[ObjHandle]:
        """The test objects at which the pullback decision on sq tests the
        mediator bijection, each once: sq is a pullback when the bijection
        holds at every one of them.  With op they are those of the pushout
        decision, the pullback decision read in C^op.  The default is the
        bounded catalog; an instance whose own objects decide exactly at
        every bound overrides it."""
        return self.enumerate_objects_up_to(bound)

    def scan_objects(self, a: ObjHandle, bound: int) -> list[ObjHandle]:
        """The test objects t at which the jointly and properness scans test
        a map out of hom(t, a), or with op out of hom(a, t), for
        injectivity; a is the shared domain of the legs tested (with op,
        their shared codomain).  The scans name the first t that fails, so
        when a lies in the bounded catalog, an override must fail exactly
        when the catalog does, and first at the same object.  The default
        is the bounded catalog."""
        return self.enumerate_objects_up_to(bound)

    # -- generic implementations ---------------------------------------------

    def is_iso(self, f: Mor) -> bool:
        # E and M intersect exactly in the isomorphisms.
        c = self.classify(f)
        return c.in_E and c.in_M

    def inverse(self, f: Mor) -> Mor:
        """Two-sided inverse of an isomorphism (a member of E and M)."""
        if not self.is_iso(f):
            raise ClassViolation("inverse requested for a non-isomorphism")
        w, _ = self.solve_post_system(f.cod, f.dom, [(f, self.identity(f.cod))])
        if w is None or self.compose(w, f) != self.identity(f.dom):
            raise SpanCatError("no two-sided inverse found; E and M do not meet in isos")
        return w

    def fill_diagonal(self, sq: Square) -> Mor:
        """The unique w with w . top == left and bottom . w == right for a
        commuting square with top in E and bottom in M: solve_post_system's one
        w with bottom . w == right, as M is monic (where not, this raises)."""
        validate_square(self, sq)
        if not self.classify(sq.top).in_E:
            raise ClassViolation("fill_diagonal: top edge must be in E")
        if not self.classify(sq.bottom).in_M:
            raise ClassViolation("fill_diagonal: bottom edge must be in M")
        w, count = self.solve_post_system(sq.top.cod, sq.bottom.dom, [(sq.bottom, sq.right)])
        if count != 1 or self.compose(w, sq.top) != sq.left:
            raise SpanCatError(
                f"fill_diagonal: no unique diagonal ({count} w with bottom . w == right)")
        return w

    def compose_all(self, g: Mor, t: ObjHandle, op: bool = False, cls: str = "any") -> tuple:
        """The payloads of g . u for u in class_homs(t, dom g, cls), in that
        order; with op, of u . g for u in class_homs(cod g, t, cls), which
        is the same walk read in C^op.  The class filters u as a morphism of
        C.  The tuple is read-only: an instance may hand the same one to
        every caller."""
        if op:
            return tuple(self.compose(u, g).payload for u in self.class_homs(g.cod, t, cls))
        return tuple(self.compose(g, u).payload for u in self.class_homs(t, g.dom, cls))

    def class_homs(self, a: ObjHandle, b: ObjHandle, cls: str = "any") -> Sequence[Mor]:
        """The morphisms a -> b of a class: any, E, M or iso, in
        enumerate_homs order: class_pool(a, b, cls), made once and kept in
        ``memo.pools``.  The Sequence may build its members when they are
        read and need not be a tuple."""
        key = (a.obj_key, b.obj_key, cls)
        hit = self.memo.pools.get(key)
        if hit is None:
            hit = self.memo.pools[key] = self.class_pool(a, b, cls)
        return hit

    def class_pool(self, a: ObjHandle, b: ObjHandle, cls: str) -> Sequence[Mor]:
        """The pool that class_homs(a, b, cls) keeps.  Class any is
        enumerate_homs(a, b); a class pool filters the kept pool of class
        any by classify."""
        if cls == "any":
            return self.enumerate_homs(a, b)
        if cls == "iso":
            return tuple(filter(self.is_iso, self.class_homs(a, b)))
        if cls in ("E", "M"):
            flag = "in_" + cls
            return tuple(f for f in self.class_homs(a, b) if getattr(self.classify(f), flag))
        raise ValueError(f"unknown class filter {cls!r}")

    def has_class_hom(self, a: ObjHandle, b: ObjHandle, cls: str = "any") -> bool:
        """Whether class_homs(a, b, cls) is nonempty."""
        return len(self.class_homs(a, b, cls)) > 0

    def solve_post_system(self, dom: ObjHandle, cod: ObjHandle,
                          eqs: Sequence[tuple[Mor, Mor]]) -> tuple[Optional[Mor], int]:
        """One solution (or None) and the total count for the system
        {post . w == rhs : (post, rhs) in eqs} over w: dom -> cod.  Raises
        EndpointMismatch unless each post: cod -> y and rhs: dom -> y."""
        for post, rhs in eqs:
            if post.dom != cod or rhs.dom != dom or rhs.cod != post.cod:
                raise EndpointMismatch("solve_post_system: equation endpoints")
        w, count = self.solve_post_payloads(dom, cod, eqs)
        return (None if w is None else Mor(dom, cod, w)), count

    # -- iso-class keys -----------------------------------------------------

    @abstractmethod
    def span_iso_key(self, d: Mor, m: Mor) -> Any:
        """A complete invariant for the iso class of the span (d, m) out of a
        common apex: two parallel EM-spans are isomorphic exactly when
        their keys are equal."""

    @abstractmethod
    def rel_pair_key(self, d1: Mor, m1: Mor, d2: Mor, m2: Mor) -> Any:
        """A complete invariant for the end-fixed iso class of the zig-zag
        cod(m1) <- apex1 -> Q <- apex2 -> cod(m2) given by two EM-span legs
        (d1, m1) and (d2, m2) with a shared middle Q = cod(d1) = cod(d2).
        None to force a bounded iso search."""

    # -- JSON (jsonio lays these out in diagrams) -----------------------------

    @abstractmethod
    def obj_json(self, a: ObjHandle) -> dict:
        """a as a JSON object, which parse_obj_json reads back."""

    @abstractmethod
    def mor_json(self, f: Mor) -> dict:
        """f as a JSON object, which parse_mor_json reads back."""

    @abstractmethod
    def parse_obj_json(self, data: dict) -> ObjHandle:
        """The object a JSON object names; ValidationFailure on bad data."""

    @abstractmethod
    def parse_mor_json(self, data: dict) -> Mor:
        """As parse_obj_json; jsonio.parse_mor then runs validate_mor."""


def drawn_square(op: bool, top: Mor, left: Mor, right: Mor, bottom: Mor) -> Square:
    """The square with these edges in C or, with op, in C^op, drawn in C.

    Reversing the arrows of a C^op square and turning it half a turn puts
    its apex at the bottom-right corner and keeps its rows as rows, so the
    squares of a ladder drawn in C^op still paste side by side."""
    if op:
        return Square(top=bottom, left=right, right=left, bottom=top)
    return Square(top=top, left=left, right=right, bottom=bottom)


def validate_square(inst: Instance, sq: Square) -> None:
    for f in (sq.top, sq.left, sq.right, sq.bottom):
        inst.validate_mor(f)
    if sq.top.dom != sq.left.dom or sq.top.cod != sq.right.dom:
        raise EndpointMismatch("square corners do not line up")
    if sq.left.cod != sq.bottom.dom or sq.right.cod != sq.bottom.cod:
        raise EndpointMismatch("square corners do not line up")
    if inst.compose(sq.right, sq.top) != inst.compose(sq.bottom, sq.left):
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
        tab = tuple(tuple(json_int(x, "groupoid table entry") for x in row) for row in tab)
        if any(x not in range(n) for row in tab for x in row):
            raise ValidationFailure("groupoid table entries out of range")
        units = [e for e in range(n) if all(tab[e][j] == j and tab[j][e] == j for j in range(n))]
        if not units:
            raise ValidationFailure("groupoid table has no identity")
        ident = units[0]
        triples = itertools.product(range(n), repeat=3)
        if any(tab[tab[i][j]][k] != tab[i][tab[j][k]] for i, j, k in triples):
            raise ValidationFailure("groupoid table is not associative")
        inv = [next((j for j in range(n) if tab[i][j] == ident == tab[j][i]), None)
               for i in range(n)]
        if None in inv:
            raise ValidationFailure("groupoid table is not invertible")
        self.table = tab
        self.size = n
        self.ident = ident
        self.inv = tuple(inv)
        self.star = self.obj(STAR)

    # objects
    def validate_obj(self, key: Any) -> Any:
        if key != STAR:
            raise ValidationFailure("groupoid instance has a single object '*'")
        return STAR

    def describe_obj(self, key: Any) -> str:
        return STAR

    # morphisms
    def check_payload(self, f: Mor) -> None:
        if not isinstance(f.payload, int) or not 0 <= f.payload < self.size:
            raise ValidationFailure("groupoid morphism payload must be an element index")

    def compose_payloads(self, g: Mor, f: Mor) -> int:
        return self.table[g.payload][f.payload]

    def identity(self, a: ObjHandle) -> Mor:
        return Mor(a, a, self.ident)

    def classify(self, f: Mor) -> OrthClass:
        return OrthClass(True, True)

    def factor_payloads(self, f: Mor) -> tuple[str, int, int]:
        # canonical choice: e = f, m = identity
        return STAR, f.payload, self.ident

    def pullback_payloads(self, f: Mor, m: Mor) -> tuple[str, int, int]:
        return STAR, self.ident, self.table[self.inv[m.payload]][f.payload]

    def pushout_payloads(self, f: Mor, e: Mor) -> tuple[str, int, int]:
        return STAR, self.ident, self.table[f.payload][self.inv[e.payload]]

    def solve_post_payloads(self, dom: ObjHandle, cod: ObjHandle,
                            eqs: Sequence[tuple[Mor, Mor]]) -> tuple[Optional[int], int]:
        # post . w == rhs has the one solution w = post^-1 . rhs
        ws = {self.table[self.inv[post.payload]][rhs.payload] for post, rhs in eqs}
        if len(ws) > 1:
            return None, 0
        return (ws.pop(), 1) if ws else (0, self.size)

    def enumerate_objects_up_to(self, bound: int) -> list[ObjHandle]:
        return [self.star]

    def enumerate_homs(self, a: ObjHandle, b: ObjHandle) -> Sequence[Mor]:
        return tuple(Mor(a, b, i) for i in range(self.size))

    def span_iso_key(self, d: Mor, m: Mor) -> Any:
        # the composite d . m^{-1} is invariant under re-choosing the apex iso
        # and determines the span up to isomorphism
        return self.table[d.payload][self.inv[m.payload]]

    def rel_pair_key(self, d1: Mor, m1: Mor, d2: Mor, m2: Mor) -> Any:
        # normalizing the middle iso away leaves m1 . d1^{-1} . d2 . m2^{-1}
        tab, inv = self.table, self.inv
        return tab[tab[m1.payload][inv[d1.payload]]][tab[d2.payload][inv[m2.payload]]]

    def obj_json(self, a: ObjHandle) -> dict:
        """{"star": true}, the one object."""
        return {"star": True}

    def mor_json(self, f: Mor) -> dict:
        """{"element": i}, the index of the group element in the table."""
        return {"element": f.payload}

    def parse_obj_json(self, data: dict) -> ObjHandle:
        ok = list(data) == ["star"] and data["star"] is True
        require(ok, f'groupoid object must be {{"star": true}}, got {data!r}')
        return self.star

    def parse_mor_json(self, data: dict) -> Mor:
        require("element" in data, "groupoid morphism needs an 'element' field")
        return Mor(self.star, self.star, json_int(data["element"], "'element'"))


def symmetric_group_table(n: int) -> list[list[int]]:
    """Multiplication table of the symmetric group on n letters.

    Elements are permutations in lexicographic order of their one-line
    notation; entry [i][j] is the index of p_i after p_j.
    """
    perms = sorted(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    return [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]
