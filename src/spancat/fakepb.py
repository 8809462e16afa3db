"""Fake pullbacks of EM-span cospans.

Given spans f: U -> W and g: V -> W, the construction runs in four steps
over the base instance: pull the two M-legs back against each other, factor
the two composites down to the endpoints, then push the E-parts out.  The
nine objects and twelve morphisms form a grid whose corner squares are, in
reading order: a pushout, a factorization square, another factorization
square, and a pullback.  The two outer spans (r, X, i): Q -> U and
(s, Y, j): Q -> V are the fake pullback of the cospan.

The module also carries the laws this construction satisfies (symmetry,
identity absorption, stacking, self-composition collapsing to the identity
span) and the four readiness conditions V1-V4 for the span calculus: V1 and
V2 delegate to the bipullback and exchange machinery, while v3_complete and
v4_complete constructively complete mixed diagrams, certifying the produced
squares by the bounded universal-property decisions.

Fake pullbacks are memoized per instance (``Instance.memo``): the
construction runs once per distinct cospan, and later calls with an equal
cospan return the stored result.  So are the zig-zag keys that
``span_pair_iso_eq`` compares: each span pair's ``rel_pair_key`` is
computed once.  The iso search behind a None key is never stored.  The
construction validates nothing: em_span validated its inputs, and
certify_grid, run by the grid suite and the fake-pullback command,
validates its grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from typing import Any, Optional

from .axioms import (
    CheckReport,
    is_pullback,
    is_pushout,
    merge_reports,
    one_sample_report,
    run_axiom_suite,
    run_sampled,
)
from .core import (
    ClassViolation,
    EndpointMismatch,
    Instance,
    Mor,
    ObjHandle,
    ShapeViolation,
    SpanCatError,
    Square,
    validate_square,
)
from .gen import Sampler
from .jsonio import span_dict
from .spans import (
    EMSpan,
    SpanCell,
    _span,
    cell_between,
    check_star_bipullback,
    em_span,
    exchange_square,
    id_span,
    lift_e,
    lift_m,
    span_compose,
    span_iso_eq,
)


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FakePullbackGrid:
    """All nine objects and twelve morphisms of the construction.

    Inputs along the right and bottom edges: d: R -> U, m: R -> W (the left
    span) and e: S -> V, n: S -> W (the right span).  Constructed interior:
    n_bar, m_bar (pullback legs), d_bar, i and e_bar, j (factorizations),
    r, s (pushout legs).
    """

    Q: ObjHandle
    X: ObjHandle
    Y: ObjHandle
    Z: ObjHandle
    U: ObjHandle
    R: ObjHandle
    S: ObjHandle
    V: ObjHandle
    W: ObjHandle
    r: Mor
    s: Mor
    i: Mor
    j: Mor
    d_bar: Mor
    e_bar: Mor
    n_bar: Mor
    m_bar: Mor
    d: Mor
    m: Mor
    e: Mor
    n: Mor

    def pullback_square(self) -> Square:
        return Square(top=self.n_bar, left=self.m_bar, right=self.m, bottom=self.n)

    def pushout_square(self) -> Square:
        return Square(top=self.d_bar, left=self.e_bar, right=self.r, bottom=self.s)

    def left_factor_square(self) -> Square:
        return Square(top=self.n_bar, left=self.d_bar, right=self.d, bottom=self.i)

    def right_factor_square(self) -> Square:
        return Square(top=self.m_bar, left=self.e_bar, right=self.e, bottom=self.j)

    def edge_classes(self) -> dict[str, str]:
        return {
            "r": "E", "s": "E", "d": "E", "e": "E", "d_bar": "E", "e_bar": "E",
            "i": "M", "j": "M", "m": "M", "n": "M", "m_bar": "M", "n_bar": "M",
        }


@dataclass(frozen=True, slots=True)
class FakePullbackResult:
    grid: FakePullbackGrid
    left_leg: EMSpan
    right_leg: EMSpan


def fake_pullback(inst: Instance, f: EMSpan, g: EMSpan) -> FakePullbackResult:
    """Fake pullback of the cospan f: U -> W <- V: g.

    Steps: (1) pull f.m back against g.m, (2) factorize f.d composed with
    the pullback leg into U, (3) likewise into V, (4) push the two E-parts
    out.  The result legs are (r, X, i): Q -> U and (s, Y, j): Q -> V.

    Memoized in ``inst.memo`` on (f, g); a cospan whose targets differ
    raises on every call.  Nothing else is checked: see certify_grid."""
    table = inst.memo.fake_pullbacks
    hit = table.get((f, g))
    if hit is not None:
        return hit
    if f.tgt != g.tgt:
        raise EndpointMismatch("fake pullback needs a cospan: targets differ")
    cone = inst.pullback_along_M(f.m, g.m)
    n_bar, m_bar = cone.leg1, cone.leg2
    fac_d = inst.factorize(inst.compose(f.d, n_bar))
    fac_e = inst.factorize(inst.compose(g.d, m_bar))
    d_bar, i = fac_d.e, fac_d.m
    e_bar, j = fac_e.e, fac_e.m
    po = inst.pushout_along_E(e_bar, d_bar)
    s, r = po.leg1, po.leg2
    grid = FakePullbackGrid(
        Q=po.apex, X=fac_d.m.dom, Y=fac_e.m.dom, Z=cone.apex,
        U=f.src, R=f.apex, S=g.apex, V=g.src, W=f.tgt,
        r=r, s=s, i=i, j=j, d_bar=d_bar, e_bar=e_bar, n_bar=n_bar, m_bar=m_bar,
        d=f.d, m=f.m, e=g.d, n=g.m,
    )
    out = table[f, g] = FakePullbackResult(
        grid=grid, left_leg=_span(inst, r, i), right_leg=_span(inst, s, j),
    )
    return out


def certify_grid(inst: Instance, grid: FakePullbackGrid, bound: int) -> list[dict]:
    """Verify every grid invariant at catalog scope: the one check of a grid.

    Returns failure records (empty means certified): the four squares must
    commute and all twelve edges must sit in their stated class (else one
    record and no more), the bottom-right square must be a pullback, the
    top-left square a pushout, and the degeneracy transfers must hold (an
    invertible d forces s invertible, an invertible m forces j invertible,
    and symmetrically e to r and n to i).
    """
    try:
        for sq in (grid.pullback_square(), grid.pushout_square(),
                   grid.left_factor_square(), grid.right_factor_square()):
            validate_square(inst, sq)
        for name, cls in grid.edge_classes().items():
            got = inst.classify(getattr(grid, name))
            if not (got.in_E if cls == "E" else got.in_M):
                raise ClassViolation(f"grid edge {name} fell outside class {cls}")
    except SpanCatError as exc:
        return [{"detail": f"structural validation failed: {exc}"}]
    failures: list[dict] = []
    if not is_pullback(inst, grid.pullback_square(), bound):
        failures.append({"detail": "bottom-right square is not a pullback"})
    if not is_pushout(inst, grid.pushout_square(), bound):
        failures.append({"detail": "top-left square is not a pushout"})
    for hyp, conc, names in (
        (grid.d, grid.s, "d->s"), (grid.m, grid.j, "m->j"),
        (grid.e, grid.r, "e->r"), (grid.n, grid.i, "n->i"),
    ):
        if inst.is_iso(hyp) and not inst.is_iso(conc):
            failures.append({"detail": f"degeneracy transfer {names} failed"})
    return failures


# ---------------------------------------------------------------------------
# comparing span pairs out of a shared source
# ---------------------------------------------------------------------------


def span_pair_key(inst: Instance, pair: tuple[EMSpan, EMSpan]) -> Any:
    """The instance's ``rel_pair_key`` of a span pair, kept in
    ``inst.memo.pair_keys``."""
    keys = inst.memo.pair_keys
    try:
        return keys[pair]
    except KeyError:
        out = keys[pair] = inst.rel_pair_key(pair[0].d, pair[0].m, pair[1].d, pair[1].m)
        return out


def span_pair_iso_eq(inst: Instance, first: tuple[EMSpan, EMSpan],
                     second: tuple[EMSpan, EMSpan]) -> bool:
    """Whether two span pairs out of one source agree up to a single source
    iso (legs compared up to their own apex isos).

    Fast path: the instance's complete zig-zag invariant, memoized per span
    pair in ``inst.memo.pair_keys``.  Fallback: search the isos between the
    two sources."""
    p1, p2 = first
    q1, q2 = second
    # interned handles are mostly identical: test identity before the
    # Python-level __eq__
    if (p1.src is not p2.src and p1.src != p2.src) or (q1.src is not q2.src and q1.src != q2.src):
        raise EndpointMismatch("span pairs must share their source object")
    if (p1.tgt is not q1.tgt and p1.tgt != q1.tgt) or (p2.tgt is not q2.tgt and p2.tgt != q2.tgt):
        return False
    kp = span_pair_key(inst, first)
    if kp is not None:
        return kp == span_pair_key(inst, second)
    for phi in inst.class_homs(q1.src, p1.src, "iso"):
        phi_span = lift_m(inst, phi)
        if span_iso_eq(inst, span_compose(inst, p1, phi_span), q1) and span_iso_eq(
            inst, span_compose(inst, p2, phi_span), q2
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# the laws
# ---------------------------------------------------------------------------


def check_symmetry(inst: Instance, f: EMSpan, g: EMSpan, bound: int) -> CheckReport:
    """fake_pullback(f, g) and fake_pullback(g, f) agree with legs swapped."""
    fp = fake_pullback(inst, f, g)
    pf = fake_pullback(inst, g, f)
    ok = span_pair_iso_eq(
        inst, (fp.left_leg, fp.right_leg), (pf.right_leg, pf.left_leg)
    )
    return one_sample_report(inst, "symmetry", [] if ok else [{
        "f": span_dict(inst, f), "g": span_dict(inst, g),
        "detail": "swapped fake pullback is not isomorphic",
    }], bound)


def check_identity_law(inst: Instance, f: EMSpan, bound: int) -> CheckReport:
    """fake_pullback(f, id) has legs (identity span, f) up to one source iso."""
    fp = fake_pullback(inst, f, id_span(inst, f.tgt))
    ok = span_pair_iso_eq(
        inst, (fp.left_leg, fp.right_leg), (id_span(inst, f.src), f)
    )
    return one_sample_report(inst, "identity", [] if ok else [{
        "f": span_dict(inst, f), "detail": "identity cospan leg did not absorb",
    }], bound)


def check_stacking(inst: Instance, t: EMSpan, r: EMSpan, s: EMSpan,
                   bound: int) -> CheckReport:
    """Stacked fake pullbacks agree with the fake pullback of the composite.

    t: X -> U, r: U -> W, s: V -> W.  First take the fake pullback of
    (r, s), then of (t, its U-leg); pasting must reproduce the fake pullback
    of (r . t, s) up to iso."""
    if t.tgt != r.src:
        raise EndpointMismatch("stacking needs t.tgt = r.src")
    fp1 = fake_pullback(inst, r, s)
    fp2 = fake_pullback(inst, t, fp1.left_leg)
    pasted = (fp2.left_leg, span_compose(inst, fp1.right_leg, fp2.right_leg))
    direct = fake_pullback(inst, span_compose(inst, r, t), s)
    ok = span_pair_iso_eq(inst, pasted, (direct.left_leg, direct.right_leg))
    return one_sample_report(inst, "stacking", [] if ok else [{
        "t": span_dict(inst, t),
        "r": span_dict(inst, r),
        "s": span_dict(inst, s),
        "detail": "pasted fake pullback differs from direct one",
    }], bound)


def properness_holds(inst: Instance, bound: int) -> bool:
    """Memoized spot check that E-members are epic and M-members are monic
    at catalog scope."""
    cache = inst.memo.properness
    hit = cache.get(bound)
    if hit is None:
        rep = run_axiom_suite(inst, seed=0, samples=50, bound=bound,
                              checks=["properness"])[0]
        hit = cache[bound] = not rep.failures
    return hit


def check_fake_mono(inst: Instance, f: EMSpan, bound: int) -> CheckReport:
    """fake_pullback(f, f) collapses to the identity span on f.src.

    Requires properness (E inside the epis, M inside the monos); when the
    spot check refutes that, the report carries the skip as its failure."""
    if not properness_holds(inst, bound):
        return one_sample_report(inst, "fake_mono", [{
            "f": span_dict(inst, f),
            "detail": "properness precheck failed; fake-mono law not evaluated",
        }], bound)
    fp = fake_pullback(inst, f, f)
    one = id_span(inst, f.src)
    ok = span_pair_iso_eq(inst, (fp.left_leg, fp.right_leg), (one, one))
    return one_sample_report(inst, "fake_mono", [] if ok else [{
        "f": span_dict(inst, f), "detail": "self fake pullback is not the identity span",
    }], bound)


# ---------------------------------------------------------------------------
# readiness conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class V2Square:
    """Filled exchange square over the cospan a: Z' -> Y' <- X': x.

    b and y complete the square; cell compares the two composites, from the
    route through x to the route through a."""

    a: EMSpan
    x: EMSpan
    b: EMSpan
    y: EMSpan
    cell: SpanCell


def v2_square(inst: Instance, a: EMSpan, x: EMSpan) -> V2Square:
    """Complete a cospan of a reversed-E span and a lifted-M span to a
    square with a unique comparison cell.

    a must have an invertible m-leg (it lies in the reversed-E class) and x
    an invertible d-leg (it lies in the lifted-M class); both must target
    the same object."""
    if a.tgt != x.tgt:
        raise EndpointMismatch("v2 square needs a cospan: targets differ")
    # inverse classifies each leg and raises ClassViolation on a non-iso
    try:
        a_inv = inst.inverse(a.m)
    except ClassViolation:
        raise ClassViolation("a must be a reversed-E span (invertible m-leg)") from None
    try:
        x_inv = inst.inverse(x.d)
    except ClassViolation:
        raise ClassViolation("x must be a lifted-M span (invertible d-leg)") from None
    e_base = inst.compose(a.d, a_inv)
    m_base = inst.compose(x.m, x_inv)
    ex = exchange_square(inst, m_base, e_base)
    b = lift_e(inst, ex.e_bar)
    y = lift_m(inst, ex.m_bar)
    cell = cell_between(
        inst, span_compose(inst, x, b), span_compose(inst, a, y)
    )
    if cell is None:
        raise SpanCatError("v2 square admits no comparison cell; instance bug")
    return V2Square(a=a, x=x, b=b, y=y, cell=cell)


@dataclass(frozen=True, slots=True)
class V3Result:
    """Completion of a mixed pullback square against an extra M-morphism.

    Left output square (c, r, d, q) commutes; right output square
    (v, q, t, w) is a certified pullback with q in E."""

    c: Mor
    v: Mor
    t: Mor
    b: Mor
    d: Mor
    w: Mor
    q: Mor
    left_square: Square
    right_square: Square


def v3_complete(inst: Instance, sq: Square, a: Mor, bound: int) -> V3Result:
    """Complete the mixed pullback square sq (top x in M, left r in E,
    right s in E, bottom y in M) and a: Z -> cod(x) in M to the equal-paste
    diagram: pull a back over x, factorize s . a, pull the M-part back over
    y, then mediate.

    Certifies that the mediator q lands in E and that (v, q, t, w) is a
    pullback at catalog scope."""
    validate_square(inst, sq)
    x, r, s, y = sq.top, sq.left, sq.right, sq.bottom
    classes = [inst.classify(f) for f in (x, r, s, y)]
    if not (classes[0].in_M and classes[1].in_E and classes[2].in_E and classes[3].in_M):
        raise ShapeViolation("v3 input square must be mixed: M over E against E over M")
    if not inst.classify(a).in_M:
        raise ClassViolation("v3 companion morphism must be in M")
    if a.cod != x.cod:
        raise EndpointMismatch("v3 companion must share the top-right corner")
    if not is_pullback(inst, sq, bound):
        raise ShapeViolation("v3 input square is not a pullback")
    cone1 = inst.pullback_along_M(x, a)
    c, v = cone1.leg1, cone1.leg2
    fac = inst.factorize(inst.compose(s, a))
    t, b = fac.e, fac.m
    cone2 = inst.pullback_along_M(y, b)
    d, w = cone2.leg1, cone2.leg2
    q, count = inst.solve_post_system(
        cone1.apex, cone2.apex,
        [(d, inst.compose(r, c)), (w, inst.compose(t, v))],
    )
    if q is None or count != 1:
        raise SpanCatError(f"v3 mediator count {count}; instance bug")
    if not inst.classify(q).in_E:
        raise ClassViolation("v3 mediator fell outside E")
    left_square = Square(top=c, left=q, right=r, bottom=d)
    right_square = Square(top=v, left=q, right=t, bottom=w)
    validate_square(inst, left_square)
    validate_square(inst, right_square)
    if not is_pullback(inst, right_square, bound):
        raise ShapeViolation("v3 output square failed pullback certification")
    return V3Result(
        c=c, v=v, t=t, b=b, d=d, w=w, q=q,
        left_square=left_square, right_square=right_square,
    )


@dataclass(frozen=True, slots=True)
class V4Result:
    """Completion of an all-E pushout square against an extra M-morphism.

    The mixed input-side square (v, c, a, x) is a pullback that SFS5 renders
    a pushout; the right output square (p, k, h, u) is certified both a
    pushout and a pullback, with the diagonal k in E."""

    e: Mor
    u: Mor
    c: Mor
    v: Mor
    j: Mor
    p: Mor
    k: Mor
    mixed_square: Square
    left_square: Square
    right_square: Square


def v4_complete(inst: Instance, sq: Square, x: Mor, bound: int) -> V4Result:
    """Complete the all-E pushout square sq (top g, left a, right h,
    bottom f) and x: X -> dom(f) in M: factorize f . x, pull a back over x
    (a pullback that is also a pushout by SFS5), factorize g . v, then fill
    the diagonal k.

    Certifies both output squares as pushouts and the right one as a
    pullback."""
    validate_square(inst, sq)
    g, a, h, f = sq.top, sq.left, sq.right, sq.bottom
    if not all(inst.classify(m).in_E for m in (g, a, h, f)):
        raise ShapeViolation("v4 input square must be all E")
    if not inst.classify(x).in_M:
        raise ClassViolation("v4 companion morphism must be in M")
    if x.cod != f.dom:
        raise EndpointMismatch("v4 companion must land in the bottom-left corner")
    if not is_pushout(inst, sq, bound):
        raise ShapeViolation("v4 input square is not a pushout")
    fac1 = inst.factorize(inst.compose(f, x))
    e, u = fac1.e, fac1.m
    cone = inst.pullback_along_M(a, x)
    v, c = cone.leg1, cone.leg2
    mixed_square = Square(top=v, left=c, right=a, bottom=x)
    validate_square(inst, mixed_square)
    if not is_pushout(inst, mixed_square, bound):
        raise ShapeViolation("v4 mixed square failed pushout certification")
    fac2 = inst.factorize(inst.compose(g, v))
    j, p = fac2.e, fac2.m
    k = inst.fill_diagonal(Square(
        top=j, left=inst.compose(e, c), right=inst.compose(h, p), bottom=u,
    ))
    if not inst.classify(k).in_E:
        raise ClassViolation("v4 diagonal fell outside E")
    left_square = Square(top=j, left=c, right=k, bottom=e)
    right_square = Square(top=p, left=k, right=h, bottom=u)
    validate_square(inst, left_square)
    validate_square(inst, right_square)
    if not is_pushout(inst, left_square, bound):
        raise ShapeViolation("v4 left output square failed pushout certification")
    if not is_pushout(inst, right_square, bound):
        raise ShapeViolation("v4 right output square failed pushout certification")
    if not is_pullback(inst, right_square, bound):
        raise ShapeViolation("v4 right output square failed pullback certification")
    return V4Result(
        e=e, u=u, c=c, v=v, j=j, p=p, k=k,
        mixed_square=mixed_square, left_square=left_square,
        right_square=right_square,
    )


def check_v1(inst: Instance, seed: int, samples: int, bound: int,
             span_bound: int = 3) -> CheckReport:
    """Lifted pullbacks of M-cospans and pushouts of E-spans are bounded
    bipullbacks with legs in the lifted class."""
    smp = Sampler(inst, f"{seed}:v1", bound)
    reports = []
    for k in range(samples):
        if k % 2 == 0:
            m1 = smp.hom(cls="M")
            m2 = smp.hom(b=m1.cod, cls="M")
            cone = inst.pullback_along_M(m2, m1)
            sq = Square(top=cone.leg2, left=cone.leg1, right=m1, bottom=m2)
            legs_ok = inst.classify(cone.leg1).in_M and inst.classify(cone.leg2).in_M
        else:
            e1 = smp.hom(cls="E")
            e2 = smp.hom(a=e1.dom, cls="E")
            cone = inst.pushout_along_E(e1, e2)
            sq = Square(top=e1, left=e2, right=cone.leg1, bottom=cone.leg2)
            legs_ok = inst.classify(cone.leg1).in_E and inst.classify(cone.leg2).in_E
        reports.append(check_star_bipullback(inst, sq, bound=bound, span_bound=span_bound))
        if not legs_ok:
            reports.append(one_sample_report(
                inst, "v1", [{"detail": "constructed leg left its class"}], bound,
            ))
    return merge_reports("v1", reports, seed=seed, bound=bound)


# ---------------------------------------------------------------------------
# sampled suites over the laws
# ---------------------------------------------------------------------------


def sample_span(inst: Instance, smp: Sampler, src: Optional[ObjHandle] = None,
                tgt: Optional[ObjHandle] = None) -> EMSpan:
    """A random EM-span, optionally with one end fixed."""
    return em_span(inst, *smp.em_span_legs(src=src, tgt=tgt))


def _sample_cospan(inst: Instance, smp: Sampler) -> tuple[EMSpan, EMSpan]:
    f = sample_span(inst, smp)
    return f, sample_span(inst, smp, tgt=f.tgt)


def run_symmetry_suite(inst: Instance, seed: int, samples: int,
                       bound: int) -> CheckReport:
    return run_sampled(
        "symmetry", inst, seed, samples, bound,
        lambda smp: check_symmetry(inst, *_sample_cospan(inst, smp), bound).failures,
    )


def run_identity_suite(inst: Instance, seed: int, samples: int,
                       bound: int) -> CheckReport:
    return run_sampled(
        "identity", inst, seed, samples, bound,
        lambda smp: check_identity_law(inst, sample_span(inst, smp), bound).failures,
    )


def run_stacking_suite(inst: Instance, seed: int, samples: int,
                       bound: int) -> CheckReport:
    def body(smp: Sampler) -> list[dict]:
        t = sample_span(inst, smp)
        r = sample_span(inst, smp, src=t.tgt)
        s = sample_span(inst, smp, tgt=r.tgt)
        return check_stacking(inst, t, r, s, bound).failures

    return run_sampled("stacking", inst, seed, samples, bound, body)


def run_fake_mono_suite(inst: Instance, seed: int, samples: int,
                        bound: int) -> CheckReport:
    return run_sampled(
        "fake_mono", inst, seed, samples, bound,
        lambda smp: check_fake_mono(inst, sample_span(inst, smp), bound).failures,
    )


def run_grid_suite(inst: Instance, seed: int, samples: int,
                   bound: int) -> CheckReport:
    """Certify the grids of sampled cospans at catalog scope."""

    def body(smp: Sampler) -> list[dict]:
        f, g = _sample_cospan(inst, smp)
        fails = certify_grid(inst, fake_pullback(inst, f, g).grid, bound)
        return [dict(fl, f=span_dict(inst, f), g=span_dict(inst, g)) for fl in fails]

    return run_sampled("grid", inst, seed, samples, bound, body)


def run_v_conditions_suite(inst: Instance, seed: int, samples: int,
                           bound: int, span_bound: int = 3) -> CheckReport:
    """V1 by sampling, V2/V3/V4 by constructive completion on sampled data."""
    completions = cycle((_sample_v2, _sample_v3, _sample_v4))

    def body(smp: Sampler) -> list[dict]:
        try:
            next(completions)(inst, smp, bound)
        except SpanCatError as exc:
            return [{"detail": f"v-condition completion failed: {exc}"}]
        return []

    return merge_reports("v_conditions", [
        check_v1(inst, seed=seed, samples=max(4, samples // 10),
                 bound=bound, span_bound=span_bound),
        run_sampled("vcond", inst, seed, samples, bound, body),
    ], seed=seed, bound=bound)


def _sample_v2(inst: Instance, smp: Sampler, bound: int) -> V2Square:
    e = smp.hom(cls="E")
    m = smp.hom(b=e.dom, cls="M")
    return v2_square(inst, lift_e(inst, e), lift_m(inst, m))


def _sample_v3(inst: Instance, smp: Sampler, bound: int) -> V3Result:
    # canonical mixed pullback square: pull an E-M cospan back, then feed
    # its mixed square and a fresh M-morphism into the completion
    e, m = smp.cone_input(cls="E")
    cone = inst.pullback_along_M(e, m)
    sq = Square(top=cone.leg1, left=cone.leg2, right=e, bottom=m)
    a = smp.hom(b=sq.top.cod, cls="M")
    return v3_complete(inst, sq, a, bound)


def _sample_v4(inst: Instance, smp: Sampler, bound: int) -> V4Result:
    f = smp.hom(cls="E")
    a = smp.hom(a=f.dom, cls="E")
    cone = inst.pushout_along_E(f, a)
    sq = Square(top=a, left=f, right=cone.leg2, bottom=cone.leg1)
    x = smp.hom(b=sq.bottom.dom, cls="M")
    return v4_complete(inst, sq, x, bound)
