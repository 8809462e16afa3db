"""EM-spans and their locally preordered bicategory.

An EM-span U -> W is a span U <-d- R -m-> W with d in E and m in M.
Composition pulls the middle cospan back along the M-leg; the classes of the
result come from M-stability and the stability of E under pullback along M.
2-cells are span morphisms between apexes; because M-legs are monic there is
at most one 2-cell between parallel spans, so hom-categories are preorders
and all iso-class reasoning reduces to cells-in-both-directions.

Composites are memoized per instance (``Instance.memo``): the endpoint
check and the pullback behind a composite run once per distinct pair of
inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .axioms import CheckReport, is_pullback, is_pushout
from .core import (
    ClassViolation,
    EndpointMismatch,
    Instance,
    Mor,
    ObjHandle,
    ShapeViolation,
    SpanCatError,
    Square,
)
from .jsonio import square_dict


@dataclass(frozen=True, slots=True)
class EMSpan:
    """A span src <-d- apex -m-> tgt with d in E and m in M, read as a
    morphism src -> tgt."""

    src: ObjHandle
    tgt: ObjHandle
    apex: ObjHandle
    d: Mor
    m: Mor

    def __repr__(self) -> str:
        return f"<span {self.src.descriptor} <- {self.apex.descriptor} -> {self.tgt.descriptor}>"


@dataclass(frozen=True, slots=True)
class SpanCell:
    """The morphism of spans w: src_span => tgt_span between parallel
    EM-spans: tgt.d . w == src.d and tgt.m . w == src.m."""

    src: EMSpan
    tgt: EMSpan
    w: Mor


def validate_em_span(inst: Instance, s: EMSpan) -> None:
    inst.validate_mor(s.d)
    inst.validate_mor(s.m)
    if s.d.dom != s.apex or s.m.dom != s.apex:
        raise EndpointMismatch("span legs must share the apex as domain")
    if s.d.cod != s.src or s.m.cod != s.tgt:
        raise EndpointMismatch("span legs must land in src and tgt")
    if not inst.classify(s.d).in_E:
        raise ClassViolation("left leg of an EM-span must be in E")
    if not inst.classify(s.m).in_M:
        raise ClassViolation("right leg of an EM-span must be in M")


def em_span(inst: Instance, d: Mor, m: Mor) -> EMSpan:
    s = EMSpan(src=d.cod, tgt=m.cod, apex=d.dom, d=d, m=m)
    validate_em_span(inst, s)
    return s


def id_span(inst: Instance, a: ObjHandle) -> EMSpan:
    i = inst.identity(a)
    return EMSpan(src=a, tgt=a, apex=a, d=i, m=i)


def lift_m(inst: Instance, m: Mor) -> EMSpan:
    """m_* : X -> Y for m: X -> Y in M, with identity left leg."""
    if not inst.classify(m).in_M:
        raise ClassViolation("lift_m needs a morphism in M")
    return EMSpan(src=m.dom, tgt=m.cod, apex=m.dom, d=inst.identity(m.dom), m=m)


def lift_e(inst: Instance, e: Mor) -> EMSpan:
    """e^* : Y -> X for e: X -> Y in E, with identity right leg; note the
    direction reverses."""
    if not inst.classify(e).in_E:
        raise ClassViolation("lift_e needs a morphism in E")
    return EMSpan(src=e.cod, tgt=e.dom, apex=e.dom, d=e, m=inst.identity(e.dom))


def span_compose(inst: Instance, g: EMSpan, f: EMSpan) -> EMSpan:
    """g . f for f: U -> W and g: W -> V, via pullback over the middle.

    Memoized in ``inst.memo`` on (g, f); a failed composite is not stored."""
    table = inst.memo.span_composites
    hit = table.get((g, f))
    if hit is not None:
        return hit
    if f.tgt != g.src:
        raise EndpointMismatch(
            f"cannot compose: f targets {f.tgt.descriptor}, g starts at {g.src.descriptor}"
        )
    cone = inst.pullback_along_M(g.d, f.m)
    d = inst.compose(f.d, cone.leg2)
    m = inst.compose(g.m, cone.leg1)
    out = table[g, f] = EMSpan(src=f.src, tgt=g.tgt, apex=cone.apex, d=d, m=m)
    return out


def em_factor_span(inst: Instance, f: EMSpan) -> tuple[EMSpan, EMSpan]:
    """The canonical decomposition f = m_star . e_star through the apex."""
    return lift_e(inst, f.d), lift_m(inst, f.m)


def _require_parallel(f: EMSpan, g: EMSpan) -> None:
    if f.src != g.src or f.tgt != g.tgt:
        raise EndpointMismatch("cells only exist between parallel spans")


def cell_between(inst: Instance, f: EMSpan, g: EMSpan) -> Optional[SpanCell]:
    """The unique span morphism f => g if one exists.

    Uniqueness holds because g.m is monic; it is asserted, not assumed."""
    _require_parallel(f, g)
    w, count = inst.solve_post_system(f.apex, g.apex, [(g.d, f.d), (g.m, f.m)])
    if w is None:
        return None
    if count != 1:
        raise SpanCatError(f"local preorder violated: {count} cells between parallel spans")
    return SpanCell(src=f, tgt=g, w=w)


def span_key(inst: Instance, s: EMSpan) -> Any:
    return inst.span_iso_key(s.d, s.m)


def span_iso_eq(inst: Instance, f: EMSpan, g: EMSpan) -> bool:
    """Whether parallel spans are isomorphic.

    With cells unique, cells in both directions are automatically mutually
    inverse, so isomorphism is equivalent to a cell each way; instances with
    a complete span invariant short-circuit the search."""
    if f.src != g.src or f.tgt != g.tgt:
        return False
    kf, kg = span_key(inst, f), span_key(inst, g)
    if kf is not None and kg is not None:
        return kf == kg
    return cell_between(inst, f, g) is not None and cell_between(inst, g, f) is not None


@dataclass(frozen=True, slots=True)
class ExchangeResult:
    """Factorization (e_bar, m_bar) of e . m and the comparison 2-cell
    m_* . e_bar^* => e^* . m_bar_* between the two composite spans."""

    e_bar: Mor
    m_bar: Mor
    cell: SpanCell


def exchange_square(inst: Instance, m: Mor, e: Mor) -> ExchangeResult:
    """For m: X -> Y in M and e: Y -> Z in E, factor e . m = m_bar . e_bar
    and produce the unique 2-cell comparing the two ways around the square."""
    if m.cod != e.dom:
        raise EndpointMismatch("exchange square needs cod(m) == dom(e)")
    if not inst.classify(m).in_M:
        raise ClassViolation("exchange square: m must be in M")
    if not inst.classify(e).in_E:
        raise ClassViolation("exchange square: e must be in E")
    fac = inst.factorize(inst.compose(e, m))
    e_bar, m_bar = fac.e, fac.m
    lhs = span_compose(inst, lift_m(inst, m), lift_e(inst, e_bar))
    rhs = span_compose(inst, lift_e(inst, e), lift_m(inst, m_bar))
    cell = cell_between(inst, lhs, rhs)
    if cell is None:
        raise SpanCatError("exchange square: comparison cell does not exist")
    return ExchangeResult(e_bar=e_bar, m_bar=m_bar, cell=cell)


# ---------------------------------------------------------------------------
# bipullback checking
# ---------------------------------------------------------------------------


def span_class_reps(inst: Instance, src: ObjHandle, tgt: ObjHandle,
                    bound: int) -> list[EMSpan]:
    """One representative per iso class of EM-spans src -> tgt whose apex
    lies in the catalog up to bound."""
    cache = inst.memo.span_reps
    ck = (src.obj_key, tgt.obj_key, bound)
    hit = cache.get(ck)
    if hit is not None:
        return hit
    reps: list[EMSpan] = []
    seen_keys: set = set()
    for apex in inst.enumerate_objects_up_to(bound):
        es = [h for h in inst.enumerate_homs(apex, src) if inst.classify(h).in_E]
        ms = [h for h in inst.enumerate_homs(apex, tgt) if inst.classify(h).in_M]
        for d in es:
            for m in ms:
                s = EMSpan(src=src, tgt=tgt, apex=apex, d=d, m=m)
                k = span_key(inst, s)
                if k is not None:
                    if k not in seen_keys:
                        seen_keys.add(k)
                        reps.append(s)
                elif not any(span_iso_eq(inst, s, r) for r in reps):
                    reps.append(s)
    cache[ck] = reps
    return reps


def _composite_key(inst: Instance, g: EMSpan, f: EMSpan) -> Any:
    """Iso-class key of span_compose(g, f), memoized on (g, f)."""
    cache = inst.memo.composite_keys
    hit = cache.get((g, f))
    if hit is None:
        comp = span_compose(inst, g, f)
        hit = span_key(inst, comp)
        if hit is None:
            # no complete invariant available: fall back to the span itself
            hit = comp
        cache[g, f] = hit
    return hit


def _keys_match(inst: Instance, a: Any, b: Any) -> bool:
    if isinstance(a, EMSpan) and isinstance(b, EMSpan):
        return span_iso_eq(inst, a, b)
    return a == b


def _span_or_key(inst: Instance, s: EMSpan) -> Any:
    k = span_key(inst, s)
    return s if k is None else k


def _bipullback_failures(inst: Instance, proj1: EMSpan, proj2: EMSpan,
                         side1: EMSpan, side2: EMSpan, span_bound: int) -> tuple[int, list]:
    """Check the bounded bipullback property of the corner carrying proj1
    and proj2 against the cospan (side1, side2).

    Competitor pairs (u: T -> src(side1), v: T -> src(side2)) range over
    iso-class representatives with apexes bounded by span_bound; those whose
    composites agree up to invertible cell must admit a mediating span into
    the corner, unique up to iso.  Returns (pairs making a claim, failures).
    """
    corner = proj1.src
    samples = 0
    failures: list = []
    for t in inst.enumerate_objects_up_to(span_bound):
        us = span_class_reps(inst, t, side1.src, span_bound)
        vs = span_class_reps(inst, t, side2.src, span_bound)
        ws = span_class_reps(inst, t, corner, span_bound)
        w_entries = [
            (_composite_key(inst, proj1, w), _composite_key(inst, proj2, w), w)
            for w in ws
        ]
        u_keys = [(u, _composite_key(inst, side1, u)) for u in us]
        v_keys = [(v, _composite_key(inst, side2, v)) for v in vs]
        for u, ku in u_keys:
            su = _span_or_key(inst, u)
            for v, kv in v_keys:
                if not _keys_match(inst, ku, kv):
                    continue
                samples += 1
                sv = _span_or_key(inst, v)
                mediators = [
                    w
                    for k1, k2, w in w_entries
                    if _keys_match(inst, k1, su) and _keys_match(inst, k2, sv)
                ]
                if len(mediators) != 1:
                    failures.append({
                        "test_object": t.descriptor,
                        "detail": f"{len(mediators)} mediating spans for a matched competitor pair",
                    })
    return samples, failures


def check_star_bipullback(inst: Instance, sq: Square, bound: int,
                          span_bound: int, seed: int = 0) -> CheckReport:
    """Verify that an all-M pullback square (lifted by m |-> m_*) or an
    all-E pushout square (lifted by e |-> e^*) is a bipullback of spans.

    The corner is the square's apex for the M-form and the bottom-right
    object for the E-form (lifting by e^* reverses arrows)."""
    classes = [inst.classify(f) for f in (sq.top, sq.left, sq.right, sq.bottom)]
    if all(c.in_M for c in classes):
        if not is_pullback(inst, sq, bound):
            raise ShapeViolation("all-M square is not a pullback")
        proj1, proj2 = lift_m(inst, sq.top), lift_m(inst, sq.left)
        side1, side2 = lift_m(inst, sq.right), lift_m(inst, sq.bottom)
    elif all(c.in_E for c in classes):
        if not is_pushout(inst, sq, bound):
            raise ShapeViolation("all-E square is not a pushout")
        proj1, proj2 = lift_e(inst, sq.right), lift_e(inst, sq.bottom)
        side1, side2 = lift_e(inst, sq.top), lift_e(inst, sq.left)
    else:
        raise ShapeViolation("square must be all-M or all-E")
    samples, failures = _bipullback_failures(inst, proj1, proj2, side1, side2, span_bound)
    if failures:
        failures = [dict(f, square=square_dict(inst, sq)) for f in failures]
    return CheckReport(
        check_name="star_bipullback",
        instance=inst.name,
        samples=samples,
        passes=samples - len(failures),
        failures=failures[:25],
        seed=seed,
        bound=span_bound,
    )
