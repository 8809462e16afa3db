"""Relations as zig-zags of spans, composed by fake pullback.

A relation from X to Z is a span of EM-spans out of one source object: a
zig-zag

    X <-m- U -d->> Y <<-e- V -n-> Z

with d, e in E and m, n in M.  Composition joins two zig-zags by the fake
pullback of the middle cospan and pastes the outer legs on; the identity
relation has both legs the identity span; reversal swaps the legs.  Two
relations with the same ends are identified when an iso of sources matches
the legs up to their own apex isos (end-fixed isomorphism).

Over finite abelian groups a zig-zag is classified by a subgroup of X + Z:
pull the two E-legs back over the source, then take the image of the paired
M-legs.  The translation runs both ways (subgroup_to_zigzag) and the
roundtrip is the identity on subgroups.  That turns classical relational
composition of subgroups, computed elementwise by subgroup_compose, into an
independent oracle for the fake-pullback composite.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from .axioms import CheckReport, merge_reports, one_sample_report, run_sampled
from .core import (
    EndpointMismatch,
    Instance,
    Mor,
    ObjHandle,
    ValidationFailure,
)
from .fakepb import fake_pullback, properness_holds, sample_span, span_pair_iso_eq
from .finab import (
    FinAbInstance,
    close_elements,
    group_size,
    reduce_matrix,
    subgroup_compose,
    subgroup_from_gens,
)
from .gen import Sampler
from .jsonio import relation_dict
from .pinj import PInjInstance
from .spans import EMSpan, em_span, id_span, lift_e, lift_m, span_compose, validate_em_span


# ---------------------------------------------------------------------------
# the relation type
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Relation:
    """Zig-zag X <- U ->> Y <<- V -> Z, stored as two EM-spans out of Y."""

    X: ObjHandle
    Y: ObjHandle
    Z: ObjHandle
    left: EMSpan
    right: EMSpan


def validate_relation(inst: Instance, r: Relation) -> None:
    validate_em_span(inst, r.left)
    validate_em_span(inst, r.right)
    if r.left.src != r.Y or r.right.src != r.Y:
        raise EndpointMismatch("relation legs must start at the source object")
    if r.left.tgt != r.X or r.right.tgt != r.Z:
        raise EndpointMismatch("relation legs must end at the stated ends")


def relation(inst: Instance, left: EMSpan, right: EMSpan) -> Relation:
    """Package two EM-spans out of one source as a relation."""
    if left.src != right.src:
        raise EndpointMismatch("relation legs must share their source object")
    r = Relation(X=left.tgt, Y=left.src, Z=right.tgt, left=left, right=right)
    validate_relation(inst, r)
    return r


def rel_identity(inst: Instance, x: ObjHandle) -> Relation:
    one = id_span(inst, x)
    return Relation(X=x, Y=x, Z=x, left=one, right=one)


def rel_reverse(r: Relation) -> Relation:
    """Swap the legs; an involution."""
    return Relation(X=r.Z, Y=r.Y, Z=r.X, left=r.right, right=r.left)


def rel_key(inst: Instance, r: Relation) -> Any:
    """The instance's end-fixed iso invariant of the zig-zag, or None when
    the instance offers no fast path."""
    return inst.rel_pair_key(r.left.d, r.left.m, r.right.d, r.right.m)


def graph_relation(inst: Instance, f: Mor) -> Relation:
    """The graph of a morphism, as a relation from its domain to its
    codomain: factorize f and lift the two parts."""
    fac = inst.factorize(f)
    return relation(inst, lift_e(inst, fac.e), lift_m(inst, fac.m))


# ---------------------------------------------------------------------------
# composition and comparison
# ---------------------------------------------------------------------------


def rel_compose(inst: Instance, r2: Relation, r1: Relation) -> Relation:
    """Composite r2 . r1, the middle legs joined by fake pullback."""
    if r1.Z != r2.X:
        raise EndpointMismatch("rel_compose needs r1.Z = r2.X")
    fp = fake_pullback(inst, r1.right, r2.left)
    left = span_compose(inst, r1.left, fp.left_leg)
    right = span_compose(inst, r2.right, fp.right_leg)
    return Relation(X=r1.X, Y=left.src, Z=r2.Z, left=left, right=right)


def rel_iso_eq(inst: Instance, r1: Relation, r2: Relation) -> bool:
    """End-fixed isomorphism of zig-zags; the ends must agree on the nose."""
    if r1.X != r2.X or r1.Z != r2.Z:
        raise EndpointMismatch("rel_iso_eq compares relations with equal ends")
    return span_pair_iso_eq(inst, (r1.left, r1.right), (r2.left, r2.right))


@dataclass(frozen=True, slots=True, eq=False)
class RelClass:
    """End-fixed iso class of a relation.

    Equality compares canonical keys when the instance provides them and
    falls back to the bounded iso search otherwise."""

    inst: Instance
    representative: Relation
    canonical_key: Any

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelClass):
            return NotImplemented
        r, s = self.representative, other.representative
        if r.X != s.X or r.Z != s.Z:
            return False
        if self.canonical_key is not None and other.canonical_key is not None:
            return self.canonical_key == other.canonical_key
        return rel_iso_eq(self.inst, r, s)

    def __hash__(self) -> int:
        return hash((self.representative.X, self.representative.Z, self.canonical_key))


def rel_class(inst: Instance, r: Relation) -> RelClass:
    return RelClass(inst=inst, representative=r, canonical_key=rel_key(inst, r))


# ---------------------------------------------------------------------------
# the Goursat translation over finite abelian groups
# ---------------------------------------------------------------------------


def _require_finab(inst: Instance) -> FinAbInstance:
    if not isinstance(inst, FinAbInstance):
        raise ValidationFailure(
            "the Goursat translation needs the finite abelian instance, finab"
        )
    return inst


def goursat_to_subgroup(inst: Instance, r: Relation) -> frozenset:
    """The subgroup of X + Z classifying the zig-zag: pull the two E-legs
    back over the source, then image the paired M-legs."""
    _require_finab(inst)
    validate_relation(inst, r)
    return rel_key(inst, r)[2]


def subgroup_to_zigzag(
    inst: Instance, x: ObjHandle, z: ObjHandle, elems: Iterable[Sequence[int]]
) -> Relation:
    """Present a subgroup of X + Z as a zig-zag: factorize the two
    restricted projections, then push their E-parts out to build the shared
    source.  goursat_to_subgroup of the result returns elems exactly."""
    fa = _require_finab(inst)
    ambient = x.obj_key + z.obj_key
    elem_set = frozenset(
        tuple(int(v[i]) % ambient[i] for i in range(len(ambient))) for v in elems
    )
    if close_elements(ambient, elem_set) != elem_set:
        raise ValidationFailure("element set is not a subgroup of X + Z")
    orders, emb = subgroup_from_gens(ambient, sorted(elem_set))
    s_grp = fa.group(*orders)
    nx = len(x.obj_key)
    px = reduce_matrix(tuple(emb[i] for i in range(nx)), x.obj_key)
    pz = reduce_matrix(
        tuple(emb[nx + i] for i in range(len(z.obj_key))), z.obj_key
    )
    fac_x = fa.factorize(fa.hom(s_grp, x, px))
    fac_z = fa.factorize(fa.hom(s_grp, z, pz))
    po = fa.pushout_along_E(fac_z.e, fac_x.e)
    left = em_span(fa, po.leg2, fac_x.m)
    right = em_span(fa, po.leg1, fac_z.m)
    return relation(fa, left, right)


def goursat_generators(ambient: Sequence[int], elems: Iterable[Sequence[int]]) -> list:
    """A small deterministic generating set for a subgroup element list,
    for compact export."""
    ambient = tuple(ambient)
    gens: list = []
    have = close_elements(ambient, gens)
    for v in sorted(tuple(x) for x in elems):
        if v not in have:
            gens.append(v)
            have = close_elements(ambient, gens)
    return [list(g) for g in gens]


# ---------------------------------------------------------------------------
# the matching translation over partial injections
# ---------------------------------------------------------------------------


def _require_pinj(inst: Instance) -> PInjInstance:
    if not isinstance(inst, PInjInstance):
        raise ValidationFailure(
            "the matching translation needs the partial injection instance"
        )
    return inst


def matching_to_relation(
    inst: Instance, x: ObjHandle, z: ObjHandle,
    pairs: Iterable[Sequence[int]],
    left_phantoms: Iterable[int] = (),
    right_phantoms: Iterable[int] = (),
) -> Relation:
    """Build the canonical zig-zag of a matching key over partial
    injections: the source holds one point per matched pair, and phantoms
    ride the M-legs without a source image."""
    pi = _require_pinj(inst)
    nx, nz = x.obj_key, z.obj_key
    matched = sorted((int(a), int(b)) for a, b in pairs)
    lph = sorted(int(a) for a in left_phantoms)
    rph = sorted(int(b) for b in right_phantoms)
    xs = [a for a, _ in matched]
    zs = [b for _, b in matched]
    if len(set(xs)) != len(matched) or len(set(zs)) != len(matched):
        raise ValidationFailure("matched pairs must be injective in both coordinates")
    if not all(0 <= a < nx for a in xs + lph):
        raise ValidationFailure("matching entries must index the left end set")
    if not all(0 <= b < nz for b in zs + rph):
        raise ValidationFailure("matching entries must index the right end set")
    if set(lph) & set(xs) or set(rph) & set(zs):
        raise ValidationFailure("phantoms must avoid the matched points")
    k = len(matched)
    y = pi.fset(k)
    u = pi.fset(k + len(lph))
    v = pi.fset(k + len(rph))
    left = em_span(
        pi,
        pi.pinj(u, y, tuple(range(k)) + (None,) * len(lph)),
        pi.pinj(u, x, tuple(xs) + tuple(lph)),
    )
    right = em_span(
        pi,
        pi.pinj(v, y, tuple(range(k)) + (None,) * len(rph)),
        pi.pinj(v, z, tuple(zs) + tuple(rph)),
    )
    return relation(pi, left, right)


def relation_to_matching(inst: Instance, r: Relation) -> tuple:
    """(pairs, left phantoms, right phantoms) classifying a zig-zag of
    partial injections; inverse to matching_to_relation up to end-fixed
    iso."""
    _require_pinj(inst)
    key = rel_key(inst, r)
    return key[2], key[3], key[4]


def all_matchings(nx: int, nz: int) -> list:
    """Every (pairs, left phantoms, right phantoms) key on end sets of the
    given sizes, one per end-fixed iso class of relations."""
    from itertools import combinations, permutations

    def subsets(pool):
        pool = tuple(pool)
        for r in range(len(pool) + 1):
            yield from combinations(pool, r)

    out = []
    for k in range(min(nx, nz) + 1):
        for xs in combinations(range(nx), k):
            for zs in permutations(range(nz), k):
                pairs = frozenset(zip(xs, zs))
                x_rest = [a for a in range(nx) if a not in xs]
                z_rest = [b for b in range(nz) if b not in zs]
                for lph in subsets(x_rest):
                    for rph in subsets(z_rest):
                        out.append((pairs, frozenset(lph), frozenset(rph)))
    return out


# ---------------------------------------------------------------------------
# the laws
# ---------------------------------------------------------------------------


def check_units(inst: Instance, r: Relation, bound: int) -> CheckReport:
    """Identity relations absorb on both sides."""
    ok = rel_iso_eq(
        inst, rel_compose(inst, rel_identity(inst, r.Z), r), r
    ) and rel_iso_eq(
        inst, rel_compose(inst, r, rel_identity(inst, r.X)), r
    )
    return one_sample_report(inst, "rel_units", [] if ok else [{
        "r": relation_dict(inst, r), "detail": "identity relation did not absorb",
    }], bound)


def check_associativity(inst: Instance, r3: Relation, r2: Relation,
                        r1: Relation, bound: int) -> CheckReport:
    """Both bracketings of r3 . r2 . r1 agree up to end-fixed iso.

    Over finite abelian groups both bracketings' Goursat subgroups must also
    equal the classical relational composite of the inputs' subgroups,
    computed elementwise; exact integer equality, no tolerance."""
    if r1.Z != r2.X or r2.Z != r3.X:
        raise EndpointMismatch("check_associativity needs composable relations")
    lhs = rel_compose(inst, rel_compose(inst, r3, r2), r1)
    rhs = rel_compose(inst, r3, rel_compose(inst, r2, r1))
    details = []
    if not rel_iso_eq(inst, lhs, rhs):
        details.append("the two bracketings differ")
    if isinstance(inst, FinAbInstance):
        x, z = r1.X.obj_key, r1.Z.obj_key
        t, w = r2.Z.obj_key, r3.Z.obj_key
        s12 = subgroup_compose(
            x, z, t, goursat_to_subgroup(inst, r1), goursat_to_subgroup(inst, r2)
        )
        oracle = subgroup_compose(x, t, w, s12, goursat_to_subgroup(inst, r3))
        for tag, side in (("left", lhs), ("right", rhs)):
            if goursat_to_subgroup(inst, side) != oracle:
                details.append(f"{tag} bracketing disagrees with the subgroup oracle")
    return one_sample_report(inst, "associativity", [{
        "r1": relation_dict(inst, r1),
        "r2": relation_dict(inst, r2),
        "r3": relation_dict(inst, r3),
        "detail": detail,
    } for detail in details], bound)


def check_rrr(inst: Instance, r: Relation, bound: int) -> CheckReport:
    """r . r-reverse . r returns to r.

    Holds in proper instances; when the properness spot check fails the
    report carries the skip as its failure."""
    if not properness_holds(inst, bound):
        return one_sample_report(inst, "rrr", [{
            "r": relation_dict(inst, r),
            "detail": "properness precheck failed; rrr law not evaluated",
        }], bound)
    back = rel_compose(inst, rel_compose(inst, r, rel_reverse(r)), r)
    ok = rel_iso_eq(inst, back, r)
    return one_sample_report(inst, "rrr", [] if ok else [{
        "r": relation_dict(inst, r),
        "detail": "composite with the reverse moved the relation",
    }], bound)


def check_goursat_roundtrip_exact(inst: Instance, x: ObjHandle, z: ObjHandle,
                                  bound: int) -> CheckReport:
    """Every subgroup of X + Z returns unchanged from the zig-zag trip."""
    fa = _require_finab(inst)

    def roundtrip(s: frozenset) -> CheckReport:
        back = goursat_to_subgroup(fa, subgroup_to_zigzag(fa, x, z, s))
        return one_sample_report(fa, "goursat_roundtrip", [] if back == s else [{
            "X": list(x.obj_key), "Z": list(z.obj_key),
            "subgroup": sorted(list(v) for v in s),
            "returned": sorted(list(v) for v in back),
            "detail": "roundtrip moved the subgroup",
        }], bound)

    subs = fa.subgroups(x.obj_key + z.obj_key)
    return merge_reports("goursat_roundtrip", [roundtrip(s) for s in subs], bound=bound)


def check_goursat_zigzag_return(inst: Instance, r: Relation,
                                bound: int) -> CheckReport:
    """Zig-zag to subgroup and back lands in the same end-fixed iso class."""
    fa = _require_finab(inst)
    back = subgroup_to_zigzag(fa, r.X, r.Z, goursat_to_subgroup(fa, r))
    ok = rel_iso_eq(fa, back, r)
    return one_sample_report(fa, "goursat_return", [] if ok else [{
        "r": relation_dict(fa, r), "detail": "zig-zag left its end-fixed iso class",
    }], bound)


# ---------------------------------------------------------------------------
# sampling and suites
# ---------------------------------------------------------------------------


def sample_relation(inst: Instance, smp: Sampler,
                    x: Optional[ObjHandle] = None) -> Relation:
    """A random zig-zag, optionally with a fixed X end."""
    left = sample_span(inst, smp, tgt=x)
    return relation(inst, left, sample_span(inst, smp, src=left.src))


def run_associativity_suite(inst: Instance, seed: int = 0, samples: int = 200,
                            bound: int = 6) -> CheckReport:
    def body(smp: Sampler) -> list[dict]:
        r1 = sample_relation(inst, smp)
        r2 = sample_relation(inst, smp, x=r1.Z)
        r3 = sample_relation(inst, smp, x=r2.Z)
        return check_associativity(inst, r3, r2, r1, bound).failures

    return run_sampled("associativity", inst, seed, samples, bound, body)


def run_rrr_suite(inst: Instance, seed: int = 0, samples: int = 200,
                  bound: int = 6) -> CheckReport:
    return run_sampled("rrr", inst, seed, samples, bound,
                       lambda smp: check_rrr(inst, sample_relation(inst, smp), bound).failures)


def run_goursat_suite(inst: Instance, seed: int = 0, samples: int = 60,
                      bound: int = 6, max_order: int = 16) -> CheckReport:
    """Exact subgroup roundtrips over every catalog pair with
    |X + Z| <= max_order, then sampled zig-zag returns."""
    fa = _require_finab(inst)
    objects = fa.enumerate_objects_up_to(bound)
    reports = [
        check_goursat_roundtrip_exact(fa, x, z, bound)
        for x in objects for z in objects
        if group_size(x.obj_key) * group_size(z.obj_key) <= max_order
    ]
    reports.append(run_sampled(
        "goursat", fa, seed, samples, bound,
        lambda smp: check_goursat_zigzag_return(fa, sample_relation(fa, smp), bound).failures,
    ))
    return merge_reports("goursat", reports, seed, bound)
