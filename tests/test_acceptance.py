"""Acceptance gate: one test per release criterion, each run at its stated
scale and tolerance.  Every test prints a single pass/fail line so a plain
`pytest tests/test_acceptance.py -s` reads as a checklist; the assertions
make the gate binding either way.

Scales used here are floors, not samples of convenience: the axiom suite
runs the full catalogs (finite abelian groups up to order 8, finite sets up
to size 4, the symmetric groupoid on three letters), the small-bound law
checks are exhaustive, and the sampled checks are seeded so reruns are
reproducible byte for byte.
"""
from __future__ import annotations

import json
import time

from spancat.axioms import run_axiom_suite
from spancat.core import GroupoidInstance, symmetric_group_table
from spancat.fakepb import (
    check_identity_law,
    check_stacking,
    check_symmetry,
    check_v1,
    fake_pullback,
    run_grid_suite,
    run_identity_suite,
    run_stacking_suite,
    run_symmetry_suite,
)
from spancat.finab import FinAbInstance, all_subgroups, group_size
from spancat.gen import Sampler
from spancat.pinj import PInjInstance
from spancat.relations import (
    all_matchings,
    check_rrr,
    matching_to_relation,
    rel_compose,
    rel_iso_eq,
    run_associativity_suite,
    run_goursat_suite,
    run_rrr_suite,
)
from spancat.spans import (
    em_span,
    exchange_square,
    lift_e,
    lift_m,
    span_compose,
    span_iso_eq,
    span_key,
)

SEED = 0

FA = FinAbInstance()
PI = PInjInstance()
S3 = GroupoidInstance(symmetric_group_table(3), name="groupoid:s3")

# catalog bounds per instance: finab by group order, pinj by set size
INSTANCES = ((FA, 8), (PI, 4), (S3, 1))
AXIOMS = ("fs1", "fs2", "sfs1", "sfs2", "sfs3", "sfs4", "sfs5")


def _line(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} {status}: {title}{tail}")
    assert ok, f"criterion {num} failed: {title}{tail}"


def _all_spans(inst, objs, src, tgt):
    out = []
    for apex in objs:
        es = [h for h in inst.enumerate_homs(apex, src) if inst.classify(h).in_E]
        ms = [h for h in inst.enumerate_homs(apex, tgt) if inst.classify(h).in_M]
        out.extend(em_span(inst, d, m) for d in es for m in ms)
    return out


def test_criterion_01_axioms_hold_on_all_instances():
    details = []
    ok = True
    for inst, bound in INSTANCES:
        start = time.monotonic()
        reports = run_axiom_suite(inst, seed=SEED, samples=500, bound=bound,
                                  checks=list(AXIOMS))
        elapsed = time.monotonic() - start
        sfs5 = next(r for r in reports if r.check_name == "sfs5")
        ok = ok and all(r.ok for r in reports) and sfs5.samples >= 500
        ok = ok and elapsed < 60.0
        details.append(f"{inst.name} {elapsed:.1f}s sfs5={sfs5.samples}")
    _line(1, "unique diagonals, factorizations, SFS1-SFS5", ok, "; ".join(details))


def test_criterion_02_pasting_biconditional_both_directions():
    details = []
    ok = True
    for inst, bound in INSTANCES:
        # the sample scale for pasting is 0.4, so 500 requested = 200 diagrams
        reports = run_axiom_suite(inst, seed=SEED, samples=500, bound=min(bound, 6),
                                  checks=["pasting", "pasting_dual"])
        for rep in reports:
            ok = ok and rep.ok and rep.samples >= 200
        details.append(f"{inst.name} " + "+".join(str(r.samples) for r in reports))
    _line(2, "pasting law for M-squares and its E-dual", ok, "; ".join(details))


def test_criterion_03_local_preorder_exhaustive():
    details = []
    ok = True
    for inst, bound in ((PI, 3), (FA, 4)):
        objs = inst.enumerate_objects_up_to(bound)
        checked = 0
        for src in objs:
            for tgt in objs:
                spans = _all_spans(inst, objs, src, tgt)
                for r in spans:
                    for s in spans:
                        _, count = inst.solve_post_system(
                            r.apex, s.apex, [(s.d, r.d), (s.m, r.m)])
                        ok = ok and count <= 1
                        checked += 1
        details.append(f"{inst.name} {checked} ordered pairs")
    _line(3, "at most one cell between parallel spans, exhaustively",
          ok, "; ".join(details))


def test_criterion_04_exchange_cell_matches_factorization():
    details = []
    ok = True
    for inst, bound in ((FA, 6), (PI, 4), (S3, 1)):
        smp = Sampler(inst, f"{SEED}:exchange", bound)
        n = 0
        for _ in range(200):
            m = smp.hom(cls="M")
            e = smp.hom(a=m.cod, cls="E")
            res = exchange_square(inst, m, e)
            # the comparison cell exists and cell_between asserted uniqueness;
            # class membership plus the composite equation exhibit
            # (e_bar, m_bar) as a factorization of e . m, which pins it down
            # up to the unique middle iso
            ok = ok and res.cell is not None
            ok = ok and inst.classify(res.e_bar).in_E
            ok = ok and inst.classify(res.m_bar).in_M
            ok = ok and inst.compose(res.m_bar, res.e_bar) == inst.compose(e, m)
            n += 1
        details.append(f"{inst.name} {n}")
    _line(4, "exchange squares carry exactly one comparison cell",
          ok, "; ".join(details))


def test_criterion_05_spans_recompose_up_to_iso():
    details = []
    ok = True
    for inst, bound in ((FA, 6), (PI, 4), (S3, 1)):
        smp = Sampler(inst, f"{SEED}:recompose", bound)
        n = 0
        for _ in range(200):
            d, m = smp.em_span_legs()
            f = em_span(inst, d, m)
            # the canonical decomposition f = m_* . e^* through the apex
            e_star, m_star = lift_e(inst, f.d), lift_m(inst, f.m)
            ok = ok and span_iso_eq(inst, span_compose(inst, m_star, e_star), f)
            n += 1
        details.append(f"{inst.name} {n}")
    _line(5, "every span is the composite of its lifted legs", ok, "; ".join(details))


def test_criterion_06_lifted_squares_are_bipullbacks():
    details = []
    ok = True
    for inst, bound in ((FA, 6), (PI, 3), (S3, 1)):
        # kinds alternate, so 200 samples mean 100 pullback and 100 pushout
        # squares
        rep = check_v1(inst, seed=SEED, samples=200, bound=bound)
        ok = ok and rep.ok
        details.append(f"{inst.name} 100+100")
    _line(6, "M-pullbacks and E-pushouts lift to bipullbacks", ok, "; ".join(details))


def test_criterion_07_grid_certification_with_degeneracies():
    details = []
    ok = True
    for inst, bound in ((FA, 6), (PI, 4), (S3, 1)):
        rep = run_grid_suite(inst, seed=SEED, samples=200, bound=bound)
        ok = ok and rep.ok and rep.samples >= 200
        # directed degenerate cospans: an invertible d leg must force an
        # invertible pushout leg s
        smp = Sampler(inst, f"{SEED}:degenerate", bound)
        forced = 0
        for _ in range(25):
            m = smp.hom(cls="M")
            f = lift_m(inst, m)
            d2, m2 = smp.em_span_legs(tgt=f.tgt)
            grid = fake_pullback(inst, f, em_span(inst, d2, m2)).grid
            ok = ok and inst.is_iso(grid.d) and inst.is_iso(grid.s)
            forced += 1
        details.append(f"{inst.name} {rep.samples} grids, {forced} forced-iso")
    _line(7, "all grid squares certify and degeneracies transfer",
          ok, "; ".join(details))


def test_criterion_08_symmetry_identity_stacking():
    ok = True
    # exhaustive over partial injections up to size 3, stacking reduced to
    # one representative per apex-iso class per leg (the laws only see spans
    # up to apex iso, so representatives exhaust the catalog)
    objs = PI.enumerate_objects_up_to(3)
    raw = {(a.obj_key, b.obj_key): _all_spans(PI, objs, a, b)
           for a in objs for b in objs}
    n_spans = sum(len(v) for v in raw.values())
    for f in (s for v in raw.values() for s in v):
        ok = ok and check_identity_law(PI, f, 3).ok

    by_tgt = {}
    for (_, g), v in raw.items():
        by_tgt.setdefault(g, []).extend(v)
    sym_pairs = 0
    for v in by_tgt.values():
        for f in v:
            for g in v:
                ok = ok and check_symmetry(PI, f, g, 3).ok
                sym_pairs += 1

    reps = {}
    for key, v in raw.items():
        seen = {}
        for s in v:
            seen.setdefault(span_key(PI, s), s)
        reps[key] = list(seen.values())
    reps_into = {b.obj_key: [s for a in objs for s in reps[(a.obj_key, b.obj_key)]]
                 for b in objs}
    start = time.monotonic()
    stack_triples = 0
    for u in objs:
        for w in objs:
            for r in reps[(u.obj_key, w.obj_key)]:
                for t in reps_into[u.obj_key]:
                    for s in reps_into[w.obj_key]:
                        ok = ok and check_stacking(PI, t, r, s, 3).ok
                        stack_triples += 1
    stack_elapsed = time.monotonic() - start
    ok = ok and stack_elapsed < 120.0

    fa_reports = [
        run_symmetry_suite(FA, seed=SEED, samples=200, bound=6),
        run_identity_suite(FA, seed=SEED, samples=200, bound=6),
        run_stacking_suite(FA, seed=SEED, samples=200, bound=6),
    ]
    ok = ok and all(r.ok and r.samples >= 200 for r in fa_reports)
    _line(8, "symmetry, identity and stacking laws", ok,
          f"pinj {n_spans} spans, {sym_pairs} symmetry pairs, "
          f"{stack_triples} stacking triples in {stack_elapsed:.1f}s; finab 3x200")


def test_criterion_09_relation_composition_is_associative():
    # the finab suite checks both bracketings against each other and against
    # the elementwise subgroup composite of the inputs, exactly
    rep = run_associativity_suite(FA, seed=SEED, samples=500, bound=6)
    ok = rep.ok and rep.samples >= 500

    sizes = (0, 1, 2)
    obj = {n: PI.fset(n) for n in sizes}
    rels = {(nx, nz): [matching_to_relation(PI, obj[nx], obj[nz], p, lp, rp)
                       for (p, lp, rp) in all_matchings(nx, nz)]
            for nx in sizes for nz in sizes}
    triples = 0
    for nx in sizes:
        for nz in sizes:
            for nt in sizes:
                r1s, r2s = rels[(nx, nz)], rels[(nz, nt)]
                c12 = [[rel_compose(PI, r2, r1) for r2 in r2s] for r1 in r1s]
                for nw in sizes:
                    r3s = rels[(nt, nw)]
                    c23 = [[rel_compose(PI, r3, r2) for r3 in r3s] for r2 in r2s]
                    for i1, r1 in enumerate(r1s):
                        for i2 in range(len(r2s)):
                            left = c12[i1][i2]
                            for i3, r3 in enumerate(r3s):
                                lhs = rel_compose(PI, r3, left)
                                rhs = rel_compose(PI, c23[i2][i3], r1)
                                ok = ok and rel_iso_eq(PI, lhs, rhs)
                                triples += 1
    _line(9, "relation composition is associative", ok,
          f"finab {rep.samples} seeded triples; pinj {triples} exhaustive triples")


def test_criterion_10_goursat_translation_roundtrips():
    rep = run_goursat_suite(FA, seed=SEED, samples=200, bound=16, max_order=16)
    # mirror the sweep extent: every ordered catalog pair with |X + Z| <= 16,
    # every subgroup of the direct sum, plus the sampled zig-zag returns
    objs = FA.enumerate_objects_up_to(16)
    expected = 200
    pairs = 0
    for x in objs:
        for z in objs:
            if group_size(x.obj_key) * group_size(z.obj_key) > 16:
                continue
            expected += len(all_subgroups(x.obj_key + z.obj_key))
            pairs += 1
    ok = rep.ok and rep.samples == expected
    _line(10, "subgroup and zig-zag translations invert each other", ok,
          f"{pairs} pairs, {expected - 200} subgroups exact, 200 sampled returns")


def test_criterion_11_reverse_absorption():
    rep = run_rrr_suite(FA, seed=SEED, samples=200, bound=6)
    ok = rep.ok and rep.samples >= 200
    classes = 0
    obj = {n: PI.fset(n) for n in range(4)}
    for nx in range(4):
        for nz in range(4):
            for (p, lp, rp) in all_matchings(nx, nz):
                r = matching_to_relation(PI, obj[nx], obj[nz], p, lp, rp)
                ok = ok and check_rrr(PI, r, 3).ok
                classes += 1
    _line(11, "r . reverse(r) . r returns r", ok,
          f"finab {rep.samples} sampled; pinj {classes} exhaustive classes")


def test_criterion_12_reports_are_deterministic():
    def snapshot():
        out = []
        out.extend(r.as_dict() for r in run_axiom_suite(
            FA, seed=SEED, samples=50, bound=5, checks=["fs2", "sfs5"]))
        out.append(run_associativity_suite(PI, seed=SEED, samples=30, bound=3).as_dict())
        out.append(run_goursat_suite(FA, seed=SEED, samples=20, bound=6,
                                     max_order=8).as_dict())
        out.append(run_grid_suite(PI, seed=SEED, samples=40, bound=3).as_dict())
        return json.dumps(out, sort_keys=True).encode()

    first, second = snapshot(), snapshot()
    ok = first == second
    _line(12, "identical seeds give byte-identical reports", ok,
          f"{len(first)} bytes compared")
