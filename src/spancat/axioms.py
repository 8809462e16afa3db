"""Bounded decision procedures for pullbacks and pushouts, per-diagram
checks, and the seeded axiom suite (FS1, FS2, SFS1-SFS5, pasting, jointly,
properness).

The universal-property decisions use a counting argument instead of an
explicit mediator search.  A commuting square is a pullback at a test object
T exactly when w |-> (top . w, left . w) is a bijection from hom(T, apex)
onto the set of cones over the cospan, so it suffices to count cones via a
hash join and check the mediator map is injective with matching cardinality.
The competitor set always contains the square's own apex and, when one
cospan leg is in M, the canonically computed pullback apex; mediators
between those two then compose to identities by uniqueness at both, which
makes the bounded answer exact rather than an approximation over the
catalog.  The dual holds for pushouts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (
    Instance,
    Mor,
    ObjHandle,
    ShapeViolation,
    Square,
    validate_square,
)
from .gen import Sampler
from .jsonio import mor_dict, square_dict

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
        return {
            "check_name": self.check_name,
            "instance": self.instance,
            "samples": self.samples,
            "passes": self.passes,
            "failures": self.failures,
            "seed": self.seed,
            "bound": self.bound,
        }


def one_sample_report(inst: Instance, name: str, failures: list, bound: int,
                      seed: int = 0) -> CheckReport:
    """The report of one check on one input, given the input's failure
    dumps: the input fails, once, when there are any."""
    return CheckReport(
        check_name=name, instance=inst.name, samples=1,
        passes=0 if failures else 1, failures=failures, seed=seed, bound=bound,
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


def _dedupe(objs: list[ObjHandle]) -> list[ObjHandle]:
    seen, out = set(), []
    for t in objs:
        if t.obj_key not in seen:
            seen.add(t.obj_key)
            out.append(t)
    return out


def pullback_competitors(inst: Instance, sq: Square, bound: int) -> list[ObjHandle]:
    cands = list(inst.enumerate_objects_up_to(bound))
    cands.append(sq.apex)
    if inst.classify(sq.bottom).in_M:
        cands.append(inst.pullback_along_M(sq.right, sq.bottom).apex)
    elif inst.classify(sq.right).in_M:
        cands.append(inst.pullback_along_M(sq.bottom, sq.right).apex)
    return _dedupe(cands)


def pushout_competitors(inst: Instance, sq: Square, bound: int) -> list[ObjHandle]:
    cands = list(inst.enumerate_objects_up_to(bound))
    cands.append(sq.bottom_right)
    if inst.classify(sq.left).in_E:
        cands.append(inst.pushout_along_E(sq.top, sq.left).apex)
    elif inst.classify(sq.top).in_E:
        cands.append(inst.pushout_along_E(sq.left, sq.top).apex)
    return _dedupe(cands)


def _pullback_bijection_at(inst: Instance, sq: Square, t: ObjHandle) -> bool:
    groups: dict = {}
    for u in inst.enumerate_homs(t, sq.top.cod):
        k = inst.compose(sq.right, u).payload
        groups[k] = groups.get(k, 0) + 1
    cones = 0
    for v in inst.enumerate_homs(t, sq.left.cod):
        cones += groups.get(inst.compose(sq.bottom, v).payload, 0)
    mediators = inst.enumerate_homs(t, sq.apex)
    keys = set()
    for w in mediators:
        key = (inst.compose(sq.top, w).payload, inst.compose(sq.left, w).payload)
        if key in keys:
            return False
        keys.add(key)
    return cones == len(mediators)


def _pushout_bijection_at(inst: Instance, sq: Square, t: ObjHandle) -> bool:
    groups: dict = {}
    for u in inst.enumerate_homs(sq.top.cod, t):
        k = inst.compose(u, sq.top).payload
        groups[k] = groups.get(k, 0) + 1
    cocones = 0
    for v in inst.enumerate_homs(sq.left.cod, t):
        cocones += groups.get(inst.compose(v, sq.left).payload, 0)
    mediators = inst.enumerate_homs(sq.bottom_right, t)
    keys = set()
    for w in mediators:
        key = (inst.compose(w, sq.right).payload, inst.compose(w, sq.bottom).payload)
        if key in keys:
            return False
        keys.add(key)
    return cocones == len(mediators)


def is_pullback(inst: Instance, sq: Square, bound: int) -> bool:
    """Whether the commuting square is a pullback, decided over the bounded
    competitor catalog (exact whenever a cospan leg lies in M)."""
    validate_square(inst, sq)
    return all(
        _pullback_bijection_at(inst, sq, t)
        for t in pullback_competitors(inst, sq, bound)
    )


def is_pushout(inst: Instance, sq: Square, bound: int) -> bool:
    """Whether the commuting square is a pushout, decided over the bounded
    competitor catalog (exact whenever a span leg lies in E)."""
    validate_square(inst, sq)
    return all(
        _pushout_bijection_at(inst, sq, t)
        for t in pushout_competitors(inst, sq, bound)
    )


# ---------------------------------------------------------------------------
# Per-diagram checks
# ---------------------------------------------------------------------------


def _sfs5_failures(inst: Instance, sq: Square, bound: int) -> list[dict]:
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


def check_sfs5(inst: Instance, sq: Square, bound: int, seed: int = 0) -> CheckReport:
    """For one mixed square (top in M, left in E, right in E, bottom in M):
    pullback and pushout must coincide."""
    return one_sample_report(inst, "sfs5", _sfs5_failures(inst, sq, bound), bound, seed)


def _pasteable(inst: Instance, left: Square, right: Square) -> None:
    validate_square(inst, left)
    validate_square(inst, right)
    if not inst.mor_eq(left.right, right.left):
        raise ShapeViolation("squares do not share their middle edge")


def paste_squares(inst: Instance, left: Square, right: Square) -> Square:
    _pasteable(inst, left, right)
    return Square(
        top=inst.compose(right.top, left.top),
        left=left.left,
        right=right.right,
        bottom=inst.compose(right.bottom, left.bottom),
    )


def _pasting_failures(inst: Instance, left: Square, right: Square,
                      bound: int) -> list[dict]:
    rect = paste_squares(inst, left, right)
    lp = is_pullback(inst, left, bound)
    rp = is_pullback(inst, right, bound)
    pp = is_pullback(inst, rect, bound)
    if pp == (lp and rp):
        return []
    return [{
        "left": square_dict(inst, left),
        "right": square_dict(inst, right),
        "detail": f"pasted is_pullback={pp}, left={lp}, right={rp}",
    }]


def check_pasting_lemma(inst: Instance, left: Square, right: Square,
                        bound: int, seed: int = 0) -> CheckReport:
    """For a ladder between two E-then-M factorizations with verticals in M:
    the pasted square is a pullback iff both component squares are."""
    fails = _pasting_failures(inst, left, right, bound)
    return one_sample_report(inst, "pasting", fails, bound, seed)


def _pasting_dual_failures(inst: Instance, left: Square, right: Square,
                           bound: int) -> list[dict]:
    rect = paste_squares(inst, left, right)
    lp = is_pushout(inst, left, bound)
    rp = is_pushout(inst, right, bound)
    pp = is_pushout(inst, rect, bound)
    if pp == (lp and rp):
        return []
    return [{
        "left": square_dict(inst, left),
        "right": square_dict(inst, right),
        "detail": f"pasted is_pushout={pp}, left={lp}, right={rp}",
    }]


def check_pasting_lemma_dual(inst: Instance, left: Square, right: Square,
                             bound: int, seed: int = 0) -> CheckReport:
    """For a ladder between two E-then-M factorizations with verticals in E:
    the pasted square is a pushout iff both component squares are."""
    fails = _pasting_dual_failures(inst, left, right, bound)
    return one_sample_report(inst, "pasting_dual", fails, bound, seed)


def _jointly_monic_failures(inst: Instance, d: Mor, m: Mor,
                            bound: int) -> list[dict]:
    if d.dom != m.dom:
        raise ShapeViolation("span legs must share their domain")
    if not inst.classify(d).in_E or not inst.classify(m).in_M:
        raise ShapeViolation("span legs must be (E, M)")
    for t in inst.enumerate_objects_up_to(bound):
        seen = set()
        for w in inst.enumerate_homs(t, d.dom):
            key = (inst.compose(d, w).payload, inst.compose(m, w).payload)
            if key in seen:
                return [{
                    "d": mor_dict(inst, d),
                    "m": mor_dict(inst, m),
                    "detail": f"not jointly monic at {t.descriptor}",
                }]
            seen.add(key)
    return []


def _jointly_epic_failures(inst: Instance, m: Mor, e: Mor,
                           bound: int) -> list[dict]:
    if m.cod != e.cod:
        raise ShapeViolation("cospan legs must share their codomain")
    if not inst.classify(m).in_M or not inst.classify(e).in_E:
        raise ShapeViolation("cospan legs must be (M, E)")
    for t in inst.enumerate_objects_up_to(bound):
        seen = set()
        for w in inst.enumerate_homs(m.cod, t):
            key = (inst.compose(w, m).payload, inst.compose(w, e).payload)
            if key in seen:
                return [{
                    "m": mor_dict(inst, m),
                    "e": mor_dict(inst, e),
                    "detail": f"not jointly epic at {t.descriptor}",
                }]
            seen.add(key)
    return []


def check_jointly(inst: Instance, first: Mor, second: Mor, bound: int,
                  seed: int = 0) -> CheckReport:
    """Joint monicity of an (E, M) span, or joint epicity of an (M, E)
    cospan; the shape is inferred from the shared endpoint."""
    if first.dom == second.dom and first.cod != second.cod:
        fails = _jointly_monic_failures(inst, first, second, bound)
    elif first.cod == second.cod and first.dom != second.dom:
        fails = _jointly_epic_failures(inst, first, second, bound)
    elif first.dom == second.dom and inst.classify(first).in_E:
        fails = _jointly_monic_failures(inst, first, second, bound)
    elif first.cod == second.cod:
        fails = _jointly_epic_failures(inst, first, second, bound)
    else:
        raise ShapeViolation("legs form neither a span nor a cospan")
    return one_sample_report(inst, "jointly", fails, bound, seed)


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
        e = smp.mor_in_E()
        m = smp.mor_in_M()
        groups: dict = {}
        for u in smp.pool(e.dom, m.dom):
            groups.setdefault(inst.compose(m, u).payload, []).append(u)
        pairs = 0
        sample_pair = None
        for v in smp.pool(e.cod, m.cod):
            us = groups.get(inst.compose(v, e).payload, ())
            pairs += len(us)
            if us and sample_pair is None:
                sample_pair = (us[0], v)
        diag: dict = {}
        for w in smp.pool(e.cod, m.dom):
            key = (inst.compose(w, e).payload, inst.compose(m, w).payload)
            if key in diag:
                return [{
                    "e": mor_dict(inst, e),
                    "m": mor_dict(inst, m),
                    "detail": "two diagonals share one boundary",
                }]
            diag[key] = w
        if pairs != len(diag):
            return [{
                "e": mor_dict(inst, e),
                "m": mor_dict(inst, m),
                "detail": f"{pairs} squares but {len(diag)} diagonals",
            }]
        if sample_pair is not None:
            u, v = sample_pair
            sq = Square(top=e, left=u, right=v, bottom=m)
            w = inst.fill_diagonal(sq)
            expect = diag[(u.payload, v.payload)]
            if not inst.mor_eq(w, expect):
                return [{
                    "e": mor_dict(inst, e),
                    "m": mor_dict(inst, m),
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
        if not inst.mor_eq(inst.compose(fac.m, fac.e), f):
            problems.append("m . e differs from f")
        cls = inst.classify(f)
        two_sided = any(
            inst.mor_eq(inst.compose(g, f), inst.identity(f.dom))
            and inst.mor_eq(inst.compose(f, g), inst.identity(f.cod))
            for g in inst.enumerate_homs(f.cod, f.dom)
        )
        if (cls.in_E and cls.in_M) != two_sided:
            problems.append(
                f"classify says E&M={cls.in_E and cls.in_M} but invertible={two_sided}"
            )
        if problems:
            return [{"f": mor_dict(inst, f), "detail": "; ".join(problems)}]
        return []

    return run_sampled("fs2", inst, seed, samples, bound, body)


def _check_sfs1(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    """Pullbacks along M exist: the computed cone is a pullback and the leg
    opposite m is again in M."""

    def body(smp: Sampler) -> list[dict]:
        f, m = smp.cospan_with_M()
        cone = inst.pullback_along_M(f, m)
        sq = Square(top=cone.leg2, left=cone.leg1, right=m, bottom=f)
        if not inst.classify(cone.leg1).in_M:
            return [{"square": square_dict(inst, sq), "detail": "pulled-back leg not in M"}]
        if not is_pullback(inst, sq, bound):
            return [{"square": square_dict(inst, sq), "detail": "cone is not a pullback"}]
        return []

    return run_sampled("sfs1", inst, seed, samples, bound, body)


def _check_sfs2(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    """Pushouts along E exist: the computed cocone is a pushout and the leg
    opposite e is again in E."""

    def body(smp: Sampler) -> list[dict]:
        f, e = smp.span_with_E()
        cone = inst.pushout_along_E(f, e)
        sq = Square(top=f, left=e, right=cone.leg1, bottom=cone.leg2)
        if not inst.classify(cone.leg1).in_E:
            return [{"square": square_dict(inst, sq), "detail": "pushed-out leg not in E"}]
        if not is_pushout(inst, sq, bound):
            return [{"square": square_dict(inst, sq), "detail": "cocone is not a pushout"}]
        return []

    return run_sampled("sfs2", inst, seed, samples, bound, body)


def _check_sfs3(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    """Pulling an E-morphism back along M lands in E again."""

    def body(smp: Sampler) -> list[dict]:
        e, m = smp.cospan_E_M()
        cone = inst.pullback_along_M(e, m)
        sq = Square(top=cone.leg2, left=cone.leg1, right=m, bottom=e)
        if not inst.classify(cone.leg2).in_E:
            return [{"square": square_dict(inst, sq), "detail": "pullback of E not in E"}]
        if not is_pullback(inst, sq, bound):
            return [{"square": square_dict(inst, sq), "detail": "cone is not a pullback"}]
        return []

    return run_sampled("sfs3", inst, seed, samples, bound, body)


def _check_sfs4(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    """Pushing an M-morphism out along E lands in M again."""

    def body(smp: Sampler) -> list[dict]:
        m, e = smp.span_M_E()
        cone = inst.pushout_along_E(m, e)
        sq = Square(top=m, left=e, right=cone.leg1, bottom=cone.leg2)
        if not inst.classify(cone.leg2).in_M:
            return [{"square": square_dict(inst, sq), "detail": "pushout of M not in M"}]
        if not is_pushout(inst, sq, bound):
            return [{"square": square_dict(inst, sq), "detail": "cocone is not a pushout"}]
        return []

    return run_sampled("sfs4", inst, seed, samples, bound, body)


def _check_sfs5(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    """Mixed squares (top in M, left in E, right in E, bottom in M) are
    pullbacks exactly when they are pushouts."""
    return run_sampled("sfs5", inst, seed, samples, bound,
                       lambda smp: _sfs5_failures(inst, smp.mixed_square(), bound))


def _check_pasting(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    return run_sampled("pasting", inst, seed, samples, bound,
                       lambda smp: _pasting_failures(inst, *smp.factorization_ladder(), bound))


def _check_pasting_dual(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    return run_sampled(
        "pasting_dual", inst, seed, samples, bound,
        lambda smp: _pasting_dual_failures(inst, *smp.factorization_ladder_dual(), bound),
    )


def _check_jointly(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    """EM-span legs are jointly monic; dually the legs of an (M, E) cospan
    are jointly epic."""

    def body(smp: Sampler) -> list[dict]:
        if smp.rng.randrange(2) == 0:
            d, m = smp.em_span_legs()
            return _jointly_monic_failures(inst, d, m, bound)
        e, m = smp.cospan_E_M()
        return _jointly_epic_failures(inst, m, e, bound)

    return run_sampled("jointly", inst, seed, samples, bound, body)


def _check_properness(inst: Instance, seed: int, samples: int, bound: int) -> CheckReport:
    """E-morphisms are epic and M-morphisms are monic (bounded)."""

    def body(smp: Sampler) -> list[dict]:
        e = smp.mor_in_E()
        for t in smp.objects:
            seen = set()
            for g in smp.pool(e.cod, t):
                key = inst.compose(g, e).payload
                if key in seen:
                    return [{"e": mor_dict(inst, e), "detail": f"not epic at {t.descriptor}"}]
                seen.add(key)
        m = smp.mor_in_M()
        for t in smp.objects:
            seen = set()
            for g in smp.pool(t, m.dom):
                key = inst.compose(m, g).payload
                if key in seen:
                    return [{"m": mor_dict(inst, m), "detail": f"not monic at {t.descriptor}"}]
                seen.add(key)
        return []

    return run_sampled("properness", inst, seed, samples, bound, body)


AXIOM_CHECKS: dict[str, Callable[[Instance, int, int, int], CheckReport]] = {
    "fs1": _check_fs1,
    "fs2": _check_fs2,
    "sfs1": _check_sfs1,
    "sfs2": _check_sfs2,
    "sfs3": _check_sfs3,
    "sfs4": _check_sfs4,
    "sfs5": _check_sfs5,
    "pasting": _check_pasting,
    "pasting_dual": _check_pasting_dual,
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


def run_axiom_suite(inst: Instance, seed: int = 0, samples: int = 500,
                    bound: int = 8, checks: Optional[list[str]] = None) -> list[CheckReport]:
    """Run the named checks (default: all) and return reports sorted by
    check name."""
    names = sorted(AXIOM_CHECKS) if checks is None else sorted(checks)
    out = []
    for name in names:
        fn = AXIOM_CHECKS.get(name)
        if fn is None:
            raise ValueError(f"unknown check {name!r}; known: {sorted(AXIOM_CHECKS)}")
        n = max(1, int(samples * _SAMPLE_SCALE.get(name, 1.0)))
        out.append(fn(inst, seed, n, bound))
    return out
