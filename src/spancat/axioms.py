"""Bounded decision procedures for pullbacks and pushouts, per-diagram
checks, and the seeded axiom suite (FS1, FS2, SFS1-SFS5, pasting, jointly,
properness).

The universal-property decisions use a counting argument instead of an
explicit mediator search.  A commuting square is a pullback at a test object
T exactly when w |-> (top . w, left . w) is a bijection from hom(T, apex)
onto the set of cones over the cospan.  Each leg is composed with the whole
hom set at T in one call, Instance.compose_all, which finab answers by
additions in the hom group.  The cones are counted by grouping one cospan
leg's composites and probing with the other's, and the mediator map must
be injective with as many mediators as cones.

The decisions and the jointly and properness scans read a leg's walk at T
only through _walk, which keeps it in the bounded table memo.walks with
each composite payload replaced by a small integer id (memo.composite_ids;
see core.Memo).  A leg met again at T, in another square or scan, is
walked once while the table keeps it, and the counts hash integers, not
matrices.  Ids may stand in for payloads because equal payloads in one
hom set are equal morphisms, and the walks compare composites only there:
the right and bottom composites in hom(T, bottom-right corner), and the
(top, left) pairs of mediators by their tops in hom(T, cod top) and their
lefts in hom(T, cod left).

Each instance names the test objects of a decision
(Instance.decision_objects), by default the bounded catalog.  No decision
builds a cone or classifies a morphism.

finab needs no catalog.  The mediator map at T is
hom(T, c) for the comparison map c from the apex to the genuine pullback
of the cospan, and hom(Z/n, A) is A[n], the n-torsion of A, naturally in
A.  A homomorphism of finite abelian groups is an isomorphism when it is
one on p-parts for every prime p, and the p-part of a group of p-exponent
at most e is its p^e-torsion.  The genuine pullback is a subgroup of the
direct sum of two corners, so the p-exponents of both ends of c are at
most the largest, e(p), among the four corners.  So the square is a
pullback exactly when the mediator map is a bijection at Z/p^e(p) for
each prime p dividing the order of a corner: one test object per prime,
exact at every bound.  Pushouts follow dually: hom(A, Z/n) is dual to
A/nA, and the genuine pushout is a quotient of the direct sum of two
corners.

pinj decides at the sets 1 and 2, exact at every bound.  A partial
injection T -> X is fixed by its restrictions to the points of T, and it
is injective when its restriction to every pair of points is.  Take a cone
at T over the cospan.  Its restriction to each point lifts uniquely
through the apex at 1, and the lifts assemble into one partial map out of
T, which the lifts at 2 show to be injective; it is the only mediator,
since two different mediators differ at some point and so give two lifts
at 1.  So the bijection at 1 and 2 gives it at every T.  Reversal (the
same pairs read backwards) is an isomorphism from pinj to pinj^op that
swaps E and M, so the pushout decision tests the same two sets.

FS1 matches the commuting squares (u, v) on e in E and m in M against
the diagonals w by their boundaries (w . e, m . w), over whole hom sets.
It too composes each hom set with e or m through compose_all, whose walks
run in enumerate_homs order, the order of the sampler's pools, and
matches positions in those walks.  It builds only the members it reads
by index: the u and v of the one square it hands to fill_diagonal, and
the diagonal it expects back.

FS2 decides invertibility by the solver, not by classify: f is invertible
exactly when the one g with f . g == id from solve_post_system (the inverse,
if f has one) also has g . f == id.

The jointly and properness scans test a map of hom sets for injectivity
at each of the instance's scan objects (Instance.scan_objects), by default
the bounded catalog, and name the first object at which it fails.  For the
legs (d, m) of a span out of a, the map at T is w |-> (d . w, m . w) on
hom(T, a); for one M-morphism f it is w |-> f . w on hom(T, dom f).  finab
scans Z/p for each prime p dividing the order of a (of dom f).  The map at T
is hom(T, k) for the hom k = (d, m) (or f), so it is one-to-one exactly when
hom(T, ker k) is zero, that is when the orders of T and ker k share no
prime; and ker k is a subgroup of a.  So the scan fails exactly when it
fails at Z/p for some such p.  It names Z/p for the least prime p dividing
|ker k|, and so does a scan of the catalog, ordered by order, since a
group of smaller order shares no prime with ker k; that Z/p is in the
catalog whenever a is.  The joint epicity of a cospan and the epicity of an
E-morphism are the same read in C^op, with hom(-, Z/p) and the cokernel, a
quotient of the shared codomain.  pinj scans the set 1: two different
maps out of T differ at some point of T, so a map of hom sets that is not
one-to-one at T is not one-to-one at 1 either.  1 is also the first
catalog object that can fail, because hom(0, a) has one member; reversal
gives the epic side.

A pushout in C is a pullback in C^op, where E and M swap, so each check is
written once, for pullbacks, and its pushout form runs the same code read in
C^op: composites and hom sets are taken with their arguments flipped
(compose_all with op), pushout_along_E stands for
pullback_along_M, and the square is read with its edges exchanged.
Morphisms are never rebuilt; they keep their endpoints in C, so failure
dumps replay as they are.

The decisions trust that a square commutes.  SFS1-SFS4 validate each cone
square the instance computes; the sampler's fills commute by construction
and its other squares are those cones, so SFS5 and the pasting checks do
not validate again.  check_star_bipullback, the V3/V4 completions and
certify_grid validate the squares they are handed or build.
"""
from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

from .core import (
    DECISIONS_CAPACITY,
    WALKS_CAPACITY,
    Instance,
    Mor,
    ObjHandle,
    ShapeViolation,
    Square,
    drawn_square,
    validate_square,
)
from .gen import Sampler
from .jsonio import square_dict

MAX_FAILURE_DUMPS = 25


@dataclass
class CheckReport:
    """Outcome of one named check over a batch of diagrams."""

    check_name: str
    instance: str
    samples: int
    passes: int
    failures: list
    seed: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.passes == self.samples

    def as_dict(self) -> dict:
        return asdict(self)


def one_sample_report(inst: Instance, name: str, failures: list, bound: int) -> CheckReport:
    """The report of one check on one input, given the input's failure
    dumps: the input fails, once, when there are any."""
    return CheckReport(
        check_name=name, instance=inst.name, samples=1,
        passes=0 if failures else 1, failures=failures, seed=0, bound=bound,
    )


def merge_reports(check_name: str, reports: Sequence[CheckReport],
                  seed: int = 0, bound: int = 0) -> CheckReport:
    """Fold per-input reports from one check into a single batch report."""
    failures: list = []
    for r in reports:
        failures.extend(r.failures)
    return CheckReport(
        check_name=check_name,
        instance=reports[0].instance if reports else "none",
        samples=sum(r.samples for r in reports),
        passes=sum(r.passes for r in reports),
        failures=failures[:MAX_FAILURE_DUMPS],
        seed=seed,
        bound=bound,
    )


# ---------------------------------------------------------------------------
# Bounded pullback / pushout decisions
# ---------------------------------------------------------------------------


def _walk(inst: Instance, g: Mor, t: ObjHandle, op: bool) -> tuple[int, ...]:
    """compose_all(g, t, op) with each composite payload replaced by its
    id in inst.memo.composite_ids, read from, or else made and kept in,
    the bounded table inst.memo.walks, keyed by g's ends' obj_keys, its
    payload, t's obj_key and op; the least recently used walk goes first.
    Two composites in one hom set share an id exactly when they are
    equal."""
    key = (g.dom.obj_key, g.cod.obj_key, g.payload, t.obj_key, op)
    walks = inst.memo.walks
    hit = walks.get(key)
    if hit is not None:
        walks.move_to_end(key)
        return hit
    ids = inst.memo.composite_ids
    new_id = ids.setdefault
    hit = walks[key] = tuple([new_id(k, len(ids)) for k in inst.compose_all(g, t, op)])
    if len(walks) > WALKS_CAPACITY:
        walks.popitem(last=False)
    return hit


def _pullback_bijection_at(inst: Instance, sq: Square, t: ObjHandle, op: bool) -> bool:
    """Whether w |-> (top . w, left . w) is a bijection from hom(t, apex)
    onto the cones at t over the cospan (right, bottom).

    With op this is the pushout property of sq: the same count read in
    C^op, where the square is transposed (top<->right, left<->bottom),
    composites run the other way (compose_all with op), and the apex is the
    bottom-right corner.  Each leg's walk at t is read through _walk, so
    the right and bottom composites, which lie in one hom set, are matched
    by id, and the two mediator legs' walks zip."""
    top, left, right, bottom = sq.top, sq.left, sq.right, sq.bottom
    if op:
        top, left, right, bottom = right, bottom, top, left
    groups: dict = {}
    for k in _walk(inst, right, t, op):
        groups[k] = groups.get(k, 0) + 1
    cones = 0
    for k in _walk(inst, bottom, t, op):
        cones += groups.get(k, 0)
    tops = _walk(inst, top, t, op)
    if cones != len(tops):
        return False
    return len(set(zip(tops, _walk(inst, left, t, op)))) == len(tops)


def _decide(inst: Instance, sq: Square, bound: int, op: bool) -> bool:
    """Whether sq is a pullback in C, or with op in C^op (a pushout in C),
    tested at the instance's decision_objects.  The answer is read from,
    or else made and kept in, the bounded table inst.memo.decisions, keyed
    by the corners' obj_keys, the payloads, bound and op; the least
    recently used answer goes first.  A new answer reads its legs' walks
    from memo.walks (see _walk)."""
    key = (sq.apex.obj_key, sq.top.cod.obj_key, sq.left.cod.obj_key, sq.bottom_right.obj_key,
           sq.top.payload, sq.left.payload, sq.right.payload, sq.bottom.payload, bound, op)
    table = inst.memo.decisions
    hit = table.get(key)
    if hit is not None:
        table.move_to_end(key)
        return hit
    hit = table[key] = all(_pullback_bijection_at(inst, sq, t, op)
                           for t in inst.decision_objects(sq, bound, op))
    if len(table) > DECISIONS_CAPACITY:
        table.popitem(last=False)
    return hit


def is_pullback(inst: Instance, sq: Square, bound: int) -> bool:
    """Whether the commuting square is a pullback, decided at the instance's
    test objects: exact in finab and pinj at every bound, and elsewhere
    over the bounded catalog.  sq must commute; the decision does not
    check it."""
    return _decide(inst, sq, bound, op=False)


def is_pushout(inst: Instance, sq: Square, bound: int) -> bool:
    """Whether the commuting square is a pushout, that is a pullback in
    C^op, decided at the instance's test objects: exact in finab and pinj
    at every bound, and elsewhere over the bounded catalog.  sq must
    commute; the decision does not check it."""
    return _decide(inst, sq, bound, op=True)


# ---------------------------------------------------------------------------
# Per-diagram checks
# ---------------------------------------------------------------------------


def sfs5_failures(inst: Instance, sq: Square, bound: int) -> list[dict]:
    """SFS5 on one mixed square: pullback and pushout must coincide."""
    cls = (
        inst.classify(sq.top).in_M,
        inst.classify(sq.left).in_E,
        inst.classify(sq.right).in_E,
        inst.classify(sq.bottom).in_M,
    )
    if not all(cls):
        raise ShapeViolation(
            "sfs5 square must have top in M, left in E, right in E, bottom in M"
        )
    pb = is_pullback(inst, sq, bound)
    po = is_pushout(inst, sq, bound)
    if pb == po:
        return []
    return [{
        "square": square_dict(inst, sq),
        "detail": f"is_pullback={pb} but is_pushout={po}",
    }]


def paste_squares(inst: Instance, left: Square, right: Square) -> Square:
    """The outer rectangle of two squares that share their middle edge."""
    if left.right != right.left:
        raise ShapeViolation("squares do not share their middle edge")
    return Square(
        top=inst.compose(right.top, left.top),
        left=left.left,
        right=right.right,
        bottom=inst.compose(right.bottom, left.bottom),
    )


def pasting_failures(inst: Instance, left: Square, right: Square,
                     bound: int, op: bool = False) -> list[dict]:
    """The pasted square of a ladder with verticals in M is a pullback iff
    both squares are; with op, verticals in E and pushouts."""
    decide, label = (is_pushout, "is_pushout") if op else (is_pullback, "is_pullback")
    rect = paste_squares(inst, left, right)
    lp = decide(inst, left, bound)
    rp = decide(inst, right, bound)
    pp = decide(inst, rect, bound)
    if pp == (lp and rp):
        return []
    return [{
        "left": square_dict(inst, left),
        "right": square_dict(inst, right),
        "detail": f"pasted {label}={pp}, left={lp}, right={rp}",
    }]


# op -> (shape, shared end, leg classes, dump names, property) of the legs
# whose joint monicity, read in C^op when op, is checked
_JOINT_LEGS = {
    False: ("span", "domain", "(E, M)", ("d", "m"), "monic"),
    True: ("cospan", "codomain", "(M, E)", ("m", "e"), "epic"),
}


def jointly_failures(inst: Instance, first: Mor, second: Mor, bound: int,
                     op: bool = False) -> list[dict]:
    """Joint monicity of the span (first in E, second in M); with op, joint
    epicity of the cospan (first in M, second in E), which is joint
    monicity in C^op."""
    shape, end, classes, names, prop = _JOINT_LEGS[op]
    apex, other, in_E, in_M = first.dom, second.dom, "in_E", "in_M"
    if op:
        apex, other, in_E, in_M = first.cod, second.cod, "in_M", "in_E"
    if apex != other:
        raise ShapeViolation(f"{shape} legs must share their {end}")
    if not getattr(inst.classify(first), in_E) or not getattr(inst.classify(second), in_M):
        raise ShapeViolation(f"{shape} legs must be {classes}")
    for t in inst.scan_objects(apex, bound):
        firsts = _walk(inst, first, t, op)
        if len(set(zip(firsts, _walk(inst, second, t, op)))) < len(firsts):
            return [{
                names[0]: inst.mor_json(first),
                names[1]: inst.mor_json(second),
                "detail": f"not jointly {prop} at {t.descriptor}",
            }]
    return []


# ---------------------------------------------------------------------------
# Suite checks (seeded batches)
# ---------------------------------------------------------------------------


def run_sampled(name: str, inst: Instance, seed: int, samples: int, bound: int,
                body: Callable[[Sampler], list[dict]]) -> CheckReport:
    """Run one check on samples seeded inputs.

    All inputs come from one Sampler seeded by seed and name.  body draws
    one input and returns its failure dumps (empty means pass); an input
    counts as failed once, however many dumps it has."""
    smp = Sampler(inst, f"{seed}:{name}", bound)
    passes, failures = 0, []
    for _ in range(samples):
        fails = body(smp)
        passes += not fails
        failures += fails
    return CheckReport(
        check_name=name, instance=inst.name, samples=samples, passes=passes,
        failures=failures[:MAX_FAILURE_DUMPS], seed=seed, bound=bound,
    )


def _check_fs1(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    """Unique diagonal fill: for e in E and m in M, every commuting square
    (e on top, m on the bottom) admits exactly one diagonal."""

    def body(smp: Sampler) -> list[dict]:
        e = smp.hom(cls="E")
        m = smp.hom(cls="M")
        # compose_all walks a hom set in enumerate_homs order, the order of
        # the sampler's pools, so a walk's position indexes the pool
        groups: dict = {}
        for i, k in enumerate(inst.compose_all(m, e.dom)):
            groups.setdefault(k, []).append(i)
        pairs = 0
        sample_pair = None
        for j, k in enumerate(inst.compose_all(e, m.cod, op=True)):
            found = groups.get(k, ())
            pairs += len(found)
            if found and sample_pair is None:
                sample_pair = (found[0], j)
        diag: dict = {}
        boundaries = zip(inst.compose_all(e, m.dom, op=True), inst.compose_all(m, e.cod))
        for w, key in enumerate(boundaries):
            if key in diag:
                return [{
                    "e": inst.mor_json(e),
                    "m": inst.mor_json(m),
                    "detail": "two diagonals share one boundary",
                }]
            diag[key] = w
        if pairs != len(diag):
            return [{
                "e": inst.mor_json(e),
                "m": inst.mor_json(m),
                "detail": f"{pairs} squares but {len(diag)} diagonals",
            }]
        if sample_pair is not None:
            u = smp.pool(e.dom, m.dom)[sample_pair[0]]
            v = smp.pool(e.cod, m.cod)[sample_pair[1]]
            w = inst.fill_diagonal(Square(top=e, left=u, right=v, bottom=m))
            if w != smp.pool(e.cod, m.dom)[diag[u.payload, v.payload]]:
                return [{
                    "e": inst.mor_json(e),
                    "m": inst.mor_json(m),
                    "detail": "fill_diagonal disagrees with enumeration",
                }]
        return []

    return run_sampled("fs1", inst, seed, samples, bound, body)


def _check_fs2(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    """Every morphism factors as M . E, and E meets M exactly in the isos."""

    def body(smp: Sampler) -> list[dict]:
        f = smp.hom()
        fac = inst.factorize(f)
        problems = []
        if not inst.classify(fac.e).in_E:
            problems.append("e-part not in E")
        if not inst.classify(fac.m).in_M:
            problems.append("m-part not in M")
        if inst.compose(fac.m, fac.e) != f:
            problems.append("m . e differs from f")
        cls = inst.classify(f)
        g, _ = inst.solve_post_system(f.cod, f.dom, [(f, inst.identity(f.cod))])
        two_sided = g is not None and inst.compose(g, f) == inst.identity(f.dom)
        if (cls.in_E and cls.in_M) != two_sided:
            problems.append(
                f"classify says E&M={cls.in_E and cls.in_M} but invertible={two_sided}"
            )
        if problems:
            return [{"f": inst.mor_json(f), "detail": "; ".join(problems)}]
        return []

    return run_sampled("fs2", inst, seed, samples, bound, body)


# SFS1-SFS4: name -> (the class of cone_input's free leg, read in C^op, the cone
# leg that must stay in its class, that class, the failure detail when it does not)
_STABILITY = {
    "sfs1": ("any", False, "leg1", "in_M", "pulled-back leg not in M"),
    "sfs2": ("any", True, "leg1", "in_E", "pushed-out leg not in E"),
    "sfs3": ("E", False, "leg2", "in_E", "pullback of E not in E"),
    "sfs4": ("M", True, "leg2", "in_M", "pushout of M not in M"),
}


def _check_stability(name: str, inst: Instance, seed: int, samples: int,
                     bound: int) -> CheckReport:
    """SFS1: pullbacks along M exist, so the computed cone is a pullback and
    the leg opposite m is again in M.  SFS3: pulling an E-morphism back
    along M lands in E again.  SFS2 and SFS4 are the same checks read in
    C^op, on pushouts along E.  A cone square that does not commute raises
    ShapeViolation."""
    free, op, leg, cls, detail = _STABILITY[name]
    cone_of = inst.pushout_along_E if op else inst.pullback_along_M
    not_universal = "cocone is not a pushout" if op else "cone is not a pullback"

    def body(smp: Sampler) -> list[dict]:
        f, g = smp.cone_input(op, free)
        cone = cone_of(f, g)
        sq = drawn_square(op, cone.leg2, cone.leg1, g, f)
        validate_square(inst, sq)
        if not getattr(inst.classify(getattr(cone, leg)), cls):
            return [{"square": square_dict(inst, sq), "detail": detail}]
        if not (is_pushout if op else is_pullback)(inst, sq, bound):
            return [{"square": square_dict(inst, sq), "detail": not_universal}]
        return []

    return run_sampled(name, inst, seed, samples, bound, body)


def _check_sfs5(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    """Mixed squares (top in M, left in E, right in E, bottom in M) are
    pullbacks exactly when they are pushouts."""
    return run_sampled("sfs5", inst, seed, samples, bound,
                       lambda smp: sfs5_failures(inst, smp.mixed_square(), bound))


def _check_pasting(inst: Instance, seed: int, samples: int, bound: int,
                   op: bool = False) -> CheckReport:
    return run_sampled(
        "pasting_dual" if op else "pasting", inst, seed, samples, bound,
        lambda smp: pasting_failures(inst, *smp.factorization_ladder(op), bound, op),
    )


def _check_jointly(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    """EM-span legs are jointly monic; dually the legs of an (M, E) cospan
    are jointly epic."""

    def body(smp: Sampler) -> list[dict]:
        if smp.rng.randrange(2) == 0:
            d, m = smp.em_span_legs()
            return jointly_failures(inst, d, m, bound)
        e, m = smp.cone_input(cls="E")
        return jointly_failures(inst, m, e, bound, op=True)

    return run_sampled("jointly", inst, seed, samples, bound, body)


def _check_properness(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    """E-morphisms are epic and M-morphisms are monic (bounded)."""

    def body(smp: Sampler) -> list[dict]:
        # an E-morphism is epic when it is monic in C^op
        for op, cls, name, prop in ((True, "E", "e", "epic"), (False, "M", "m", "monic")):
            f = smp.hom(cls=cls)
            for t in inst.scan_objects(f.cod if op else f.dom, bound):
                composites = _walk(inst, f, t, op)
                if len(set(composites)) < len(composites):
                    detail = f"not {prop} at {t.descriptor}"
                    return [{name: inst.mor_json(f), "detail": detail}]
        return []

    return run_sampled("properness", inst, seed, samples, bound, body)


AXIOM_CHECKS: dict[str, Callable[[Instance, int, int, int], CheckReport]] = {
    "fs1": _check_fs1,
    "fs2": _check_fs2,
    **{name: functools.partial(_check_stability, name) for name in _STABILITY},
    "sfs5": _check_sfs5,
    "pasting": _check_pasting,
    "pasting_dual": functools.partial(_check_pasting, op=True),
    "jointly": _check_jointly,
    "properness": _check_properness,
}

# checks whose cost per sample is a whole catalog scan get a smaller default
_SAMPLE_SCALE = {
    "fs1": 0.4,
    "pasting": 0.4,
    "pasting_dual": 0.4,
    "jointly": 0.4,
    "properness": 0.4,
}


def run_axiom_suite(inst: Instance, seed: int, samples: int,
                    bound: int, checks: Optional[list[str]] = None) -> list[CheckReport]:
    """Run the named checks (default: all) and return reports sorted by
    check name.

    SFS1-SFS4 run first: they validate the instance's own cones, which the
    other checks' draws build on, so a broken cone is reported as the
    square that does not commute.  Each check draws from its own seeded
    sampler, so the order of the runs changes no report."""
    names = sorted(AXIOM_CHECKS) if checks is None else sorted(checks)
    out = []
    for name in sorted(names, key=lambda n: n not in _STABILITY):
        fn = AXIOM_CHECKS.get(name)
        if fn is None:
            raise ValueError(f"unknown check {name!r}; known: {sorted(AXIOM_CHECKS)}")
        n = max(1, int(samples * _SAMPLE_SCALE.get(name, 1.0)))
        out.append(fn(inst, seed, n, bound))
    return sorted(out, key=lambda r: r.check_name)
