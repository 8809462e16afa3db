"""Tests for the bounded pullback/pushout decisions and the axiom suite.

The counting-bijection decision is validated against a naive oracle that
enumerates every cone and searches mediators explicitly.
"""
from __future__ import annotations

import collections
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from spancat import axioms
from spancat.axioms import (
    AXIOM_CHECKS,
    MAX_FAILURE_DUMPS,
    _pullback_bijection_at,
    is_pullback,
    is_pushout,
    jointly_failures,
    paste_squares,
    pasting_failures,
    run_axiom_suite,
    run_sampled,
    sfs5_failures,
)
from spancat import cli
from spancat.core import (
    DECISIONS_CAPACITY,
    WALKS_CAPACITY,
    ConeResult,
    GroupoidInstance,
    Mor,
    ObjHandle,
    OrthClass,
    ShapeViolation,
    Square,
    symmetric_group_table,
)
from spancat.finab import FinAbInstance, primary_factors
from spancat.gen import Sampler
from spancat.jsonio import parse_mor
from spancat.pinj import PInjInstance
from test_snf import reference_ab_pullback, reference_ab_pushout

FA = FinAbInstance()
PI = PInjInstance()
S3 = GroupoidInstance(symmetric_group_table(3), name="groupoid:s3")


# ---------------------------------------------------------------------------
# naive oracle
# ---------------------------------------------------------------------------


def pullback_competitors(inst, sq, bound, op=False):
    """The naive oracle's test objects: the bounded catalog, the square's
    apex and, when a cospan leg lies in M, the canonical pullback apex,
    each once.  With op the square is read in C^op: the apex is the
    bottom-right corner, E plays M and pushout_along_E plays
    pullback_along_M."""
    if op:
        comps = inst.enumerate_objects_up_to(bound) + [sq.bottom_right]
        right, bottom, in_M, cone = sq.top, sq.left, "in_E", inst.pushout_along_E
    else:
        comps = inst.enumerate_objects_up_to(bound) + [sq.apex]
        right, bottom, in_M, cone = sq.right, sq.bottom, "in_M", inst.pullback_along_M
    if getattr(inst.classify(bottom), in_M):
        comps.append(cone(right, bottom).apex)
    elif getattr(inst.classify(right), in_M):
        comps.append(cone(bottom, right).apex)
    return list(dict.fromkeys(comps))


def pushout_competitors(inst, sq, bound):
    """The naive oracle's test objects for the pushout decision:
    pullback_competitors read in C^op."""
    return pullback_competitors(inst, sq, bound, op=True)


def reference_bijection_at(inst, sq, t, op):
    """The mediator bijection at t as _pullback_bijection_at decides it,
    over fresh compose_all walks whose composite payloads are matched
    themselves: no kept walk and no id."""
    top, left, right, bottom = sq.top, sq.left, sq.right, sq.bottom
    if op:
        top, left, right, bottom = right, bottom, top, left
    groups = collections.Counter(inst.compose_all(right, t, op))
    cones = sum(groups[k] for k in inst.compose_all(bottom, t, op))
    tops = inst.compose_all(top, t, op)
    if cones != len(tops):
        return False
    return len(set(zip(tops, inst.compose_all(left, t, op)))) == len(tops)


def naive_is_pullback(inst, sq, competitors):
    for t in competitors:
        ys = inst.enumerate_homs(t, sq.top.cod)
        zs = inst.enumerate_homs(t, sq.left.cod)
        ws = inst.enumerate_homs(t, sq.apex)
        for u in ys:
            for v in zs:
                if inst.compose(sq.right, u) != inst.compose(sq.bottom, v):
                    continue
                hits = [
                    w
                    for w in ws
                    if inst.compose(sq.top, w) == u
                    and inst.compose(sq.left, w) == v
                ]
                if len(hits) != 1:
                    return False
    return True


def naive_is_pushout(inst, sq, competitors):
    for t in competitors:
        ys = inst.enumerate_homs(sq.top.cod, t)
        zs = inst.enumerate_homs(sq.left.cod, t)
        ws = inst.enumerate_homs(sq.bottom_right, t)
        for u in ys:
            for v in zs:
                if inst.compose(u, sq.top) != inst.compose(v, sq.left):
                    continue
                hits = [
                    w
                    for w in ws
                    if inst.compose(w, sq.right) == u
                    and inst.compose(w, sq.bottom) == v
                ]
                if len(hits) != 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# frozen cases
# ---------------------------------------------------------------------------


def test_canonical_pullback_is_pullback():
    z4, z2 = FA.group(4), FA.group(2)
    f = FA.hom(z4, z2, [[1]])  # reduction, in E
    m = FA.hom(z2, z2, [[1]])  # identity, in M
    cone = FA.pullback_along_M(f, m)
    sq = Square(top=cone.leg2, left=cone.leg1, right=m, bottom=f)
    assert is_pullback(FA, sq, 8)
    assert cone.apex.obj_key == (4,)


def test_degenerate_square_is_neither():
    # apex 0 over the cospan Z/2 -> 0 <- 0: the genuine pullback is Z/2
    zero, z2 = FA.group(), FA.group(2)
    sq = Square(
        top=FA.hom(zero, z2, [[]]),
        left=FA.hom(zero, zero, []),
        right=FA.hom(z2, zero, []),
        bottom=FA.hom(zero, zero, []),
    )
    assert not is_pullback(FA, sq, 8)
    assert not is_pushout(FA, sq, 8)
    # so the mixed-square biconditional still holds
    assert sfs5_failures(FA, sq, 8) == []


def test_apex_zero_over_two_z2s_is_neither_at_any_bound():
    # apex 0 over Z/2 -> 0 <- Z/2: the genuine pullback, and the genuine
    # pushout of Z/2 <- 0 -> Z/2, is Z/2 + Z/2.  The bound-1 catalog is {0},
    # and no cospan leg is in M and no span leg in E, so the competitor
    # lists hold the trivial group alone, where the square looks universal
    zero, z2 = FA.group(), FA.group(2)
    into, out = FA.hom(zero, z2, [[]]), FA.hom(z2, zero, [])
    sq = Square(top=into, left=into, right=out, bottom=out)
    assert [t.obj_key for t in pullback_competitors(FA, sq, 1)] == [()]
    assert naive_is_pullback(FA, sq, pullback_competitors(FA, sq, 1))
    assert naive_is_pushout(FA, sq, pushout_competitors(FA, sq, 1))
    for bound in (1, 8):
        assert not is_pullback(FA, sq, bound)
        assert not is_pushout(FA, sq, bound)


def test_identity_square_is_both():
    z2 = FA.group(2)
    i = FA.identity(z2)
    sq = Square(top=i, left=i, right=i, bottom=i)
    assert is_pullback(FA, sq, 8)
    assert is_pushout(FA, sq, 8)


def test_pinj_pullback_keeps_phantom_points():
    two, one = PI.fset(2), PI.fset(1)
    f = PI.pinj(two, one, (0, None))
    m = PI.pinj(one, one, (0,))
    cone = PI.pullback_along_M(f, m)
    assert cone.apex.obj_key == 2
    sq = Square(top=cone.leg2, left=cone.leg1, right=m, bottom=f)
    assert is_pullback(PI, sq, 4)
    # dropping the undefined point gives a commuting square that fails the
    # universal property: the cone picking the undefined point has no mediator
    small = Square(
        top=PI.pinj(one, one, (0,)),
        left=PI.pinj(one, two, (0,)),
        right=m,
        bottom=f,
    )
    assert not is_pullback(PI, small, 4)


def test_groupoid_squares_are_pullbacks_and_pushouts():
    e = S3.identity(S3.star)
    for g in S3.enumerate_homs(S3.star, S3.star):
        sq = Square(top=g, left=e, right=e, bottom=g)
        assert is_pullback(S3, sq, 1)
        assert is_pushout(S3, sq, 1)


def test_paste_squares_requires_shared_edge():
    z2 = FA.group(2)
    i = FA.identity(z2)
    sq = Square(top=i, left=i, right=i, bottom=i)
    z = FA.hom(z2, z2, [[0]])
    bad = Square(top=i, left=z, right=z, bottom=i)
    with pytest.raises(ShapeViolation):
        paste_squares(FA, sq, bad)


def test_competitor_lists_include_apex_and_canonical():
    z4, z2 = FA.group(4), FA.group(2)
    f = FA.hom(z4, z2, [[1]])
    m = FA.hom(z2, z2, [[1]])
    cone = FA.pullback_along_M(f, m)
    sq = Square(top=cone.leg2, left=cone.leg1, right=m, bottom=f)
    keys = {t.obj_key for t in pullback_competitors(FA, sq, 4)}
    assert (4,) in keys  # the apex / canonical apex even though bound is 4
    keys = {t.obj_key for t in pushout_competitors(FA, sq, 4)}
    assert (2,) in keys
    # with only the trivial group in the catalog, each list adds exactly its
    # own corner: the apex for pullbacks, the bottom-right corner for pushouts
    assert [t.obj_key for t in pullback_competitors(FA, sq, 1)] == [(), (4,)]
    assert [t.obj_key for t in pushout_competitors(FA, sq, 1)] == [(), (2,)]


# ---------------------------------------------------------------------------
# per-diagram checks
# ---------------------------------------------------------------------------


def test_check_sfs5_rejects_bad_shape():
    z2 = FA.group(2)
    z = FA.hom(z2, z2, [[0]])  # neither E nor M
    sq = Square(top=z, left=z, right=z, bottom=z)
    with pytest.raises(ShapeViolation):
        sfs5_failures(FA, sq, 4)


def test_check_jointly_frozen():
    z4, z2 = FA.group(4), FA.group(2)
    d = FA.hom(z4, z2, [[1]])
    m = FA.identity(z4)
    assert jointly_failures(FA, d, m, 6) == []
    # cospan form: inclusion and a surjection onto Z/4
    incl = FA.hom(z2, z4, [[2]])
    surj = FA.identity(z4)
    assert jointly_failures(FA, incl, surj, 6, op=True) == []
    with pytest.raises(ShapeViolation):
        jointly_failures(FA, FA.hom(z4, z2, [[0]]), FA.hom(z2, z4, [[0]]), 4)


def test_check_pasting_on_canonical_ladders():
    for seed in range(6):
        smp = Sampler(FA, seed, 6)
        left, right = smp.factorization_ladder()
        assert pasting_failures(FA, left, right, 6) == []
        left, right = smp.factorization_ladder(op=True)
        assert pasting_failures(FA, left, right, 6, op=True) == []


# ---------------------------------------------------------------------------
# counting decision vs naive oracle
# ---------------------------------------------------------------------------


def _commuting_squares(inst, objs):
    """Every commuting square over objs, pullbacks and non-pullbacks alike,
    in itertools.product order of its corners (bottom-right, top-right,
    bottom-left, apex), then of its edges (right, bottom, top, left)."""
    homs = inst.enumerate_homs
    out = []
    for w, y, z, x in itertools.product(objs, repeat=4):
        for right, bottom, top, left in itertools.product(
            homs(y, w), homs(z, w), homs(x, y), homs(x, z)
        ):
            if inst.compose(right, top) == inst.compose(bottom, left):
                out.append(Square(top, left, right, bottom))
    return out


SQUARE_POOL = _commuting_squares(PI, [PI.fset(n) for n in (0, 1, 2)])


def test_counting_matches_naive_pullback():
    assert len(SQUARE_POOL) == 2134
    for sq in SQUARE_POOL:
        comps = pullback_competitors(PI, sq, 3)
        assert is_pullback(PI, sq, 3) == naive_is_pullback(PI, sq, comps), sq


def test_counting_matches_naive_pushout():
    for sq in SQUARE_POOL:
        comps = pushout_competitors(PI, sq, 3)
        assert is_pushout(PI, sq, 3) == naive_is_pushout(PI, sq, comps), sq


@pytest.fixture(scope="module")
def finab_square_pool():
    """Every 20th commuting finab square over the objects of order <= 4."""
    return _commuting_squares(FA, FA.enumerate_objects_up_to(4))[::20]


def test_finab_counting_matches_naive_pullback(finab_square_pool):
    assert len(finab_square_pool) == 1344
    outcomes = []
    for sq in finab_square_pool:
        outcome = is_pullback(FA, sq, 4)
        assert outcome == naive_is_pullback(FA, sq, pullback_competitors(FA, sq, 4)), sq
        outcomes.append(outcome)
    assert outcomes.count(True) == 155


def test_finab_counting_matches_naive_pushout(finab_square_pool):
    outcomes = []
    for sq in finab_square_pool:
        outcome = is_pushout(FA, sq, 4)
        assert outcome == naive_is_pushout(FA, sq, pushout_competitors(FA, sq, 4)), sq
        outcomes.append(outcome)
    assert outcomes.count(True) == 161


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_finab_counting_matches_naive_on_sampled_squares(seed):
    smp = Sampler(FA, seed, 4)
    sq = smp.mixed_square()
    comps = pullback_competitors(FA, sq, 4)
    assert is_pullback(FA, sq, 4) == naive_is_pullback(FA, sq, comps)
    comps = pushout_competitors(FA, sq, 4)
    assert is_pushout(FA, sq, 4) == naive_is_pushout(FA, sq, comps)


# ---------------------------------------------------------------------------
# test objects
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", [False, True], ids=["pullback", "pushout"])
def test_bijection_at_a_group_is_the_bijections_at_its_summands(finab_square_pool, op):
    # a group is the biproduct of its primary cyclic summands, so hom sets
    # out of it (into it, with op) are products of those at the summands
    split_outcomes = set()
    for t in FA.enumerate_objects_up_to(8):
        parts = tuple(FA.obj((q,)) for q in primary_factors(t.obj_key))
        for sq in finab_square_pool:
            whole = _pullback_bijection_at(FA, sq, t, op)
            assert whole == all(_pullback_bijection_at(FA, sq, s, op) for s in parts), (t, sq)
            if parts != (t,):
                split_outcomes.add(whole)
    assert split_outcomes == {False, True}


def _prime_of(key):
    """The least prime dividing the order of the cyclic group key, or None
    when key is no nontrivial cyclic group."""
    if len(key) != 1 or key[0] < 2:
        return None
    return next(d for d in range(2, key[0] + 1) if key[0] % d == 0)


def _cyclic_prime_power(key):
    p = _prime_of(key)
    if p is None:
        return False
    q = key[0]
    while q % p == 0:
        q //= p
    return q == 1


class _Seen:
    """Records in seen the test object of every walk that the decisions and
    scans read, kept or made, under the fixture walks_read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []


@pytest.fixture
def walks_read(monkeypatch):
    """Routes the walk reader of the decisions and scans through a recorder
    that appends each walk's test object to the seen list of a _Seen
    instance, so that a walk read from memo.walks is seen too."""
    read = axioms._walk

    def recording(inst, g, t, op):
        if isinstance(inst, _Seen):
            inst.seen.append(t)
        return read(inst, g, t, op)

    monkeypatch.setattr(axioms, "_walk", recording)


class _SeenFinAb(_Seen, FinAbInstance):
    pass


class _SeenPInj(_Seen, PInjInstance):
    pass


class _SeenGroupoid(_Seen, GroupoidInstance):
    pass


class _Counting(_Seen):
    """_Seen that also counts its cone, classify and catalog calls in
    calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = collections.Counter()

    def pullback_along_M(self, f, m):
        self.calls["pullback_along_M"] += 1
        return super().pullback_along_M(f, m)

    def pushout_along_E(self, f, e):
        self.calls["pushout_along_E"] += 1
        return super().pushout_along_E(f, e)

    def classify(self, f):
        self.calls["classify"] += 1
        return super().classify(f)

    def enumerate_objects_up_to(self, bound):
        self.calls["enumerate_objects_up_to"] += 1
        return super().enumerate_objects_up_to(bound)


class _CountingFinAb(_Counting, FinAbInstance):
    pass


class _CountingPInj(_Counting, PInjInstance):
    pass


class _CountingGroupoid(_Counting, GroupoidInstance):
    pass


@pytest.mark.parametrize("op", [False, True], ids=["pullback", "pushout"])
def test_finab_decides_at_one_torsion_object_per_prime(finab_square_pool, walks_read, op):
    # hom(Z/n, A) is the n-torsion of A, so the bijection at Z/p^e(p) for
    # each prime decides a square as the bijection at every group does;
    # bound 1 shows that the catalog plays no part
    catalog = FA.enumerate_objects_up_to(16)
    decide = is_pushout if op else is_pullback
    inst = _SeenFinAb()
    outcomes = set()
    for sq in finab_square_pool:
        inst.seen = []
        outcome = decide(inst, sq, 1)
        assert outcome == all(reference_bijection_at(FA, sq, t, op) for t in catalog), sq
        primes = [_prime_of(k) for k in {t.obj_key for t in inst.seen}]
        assert len(primes) == len(set(primes)), (sq, primes)
        outcomes.add(outcome)
    assert outcomes == {False, True}


@pytest.mark.parametrize("decide", [is_pullback, is_pushout])
def test_finab_decisions_visit_only_primary_cyclic_groups(finab_square_pool, walks_read, decide):
    inst = _CountingFinAb()
    outcomes = {decide(inst, sq, 8) for sq in finab_square_pool[::4]}
    assert outcomes == {False, True}
    keys = {t.obj_key for t in inst.seen}
    assert keys == {(2,), (3,), (4,)}, sorted(keys)
    # no cone, no classify, no catalog
    assert inst.calls == {}


def _s3_squares():
    e = S3.identity(S3.star)
    return [Square(top=g, left=e, right=e, bottom=g)
            for g in S3.enumerate_homs(S3.star, S3.star)]


@pytest.mark.parametrize("make,squares,bound", [
    (_CountingPInj, lambda: SQUARE_POOL, 3),
    (lambda: _CountingGroupoid(symmetric_group_table(3), name="groupoid:s3"),
     _s3_squares, 1),
], ids=["pinj", "groupoid"])
def test_decisions_build_no_cone_and_classify_nothing(make, squares, bound):
    inst = make()
    outcomes = {decide(inst, sq, bound) for sq in squares() for decide in (is_pullback, is_pushout)}
    assert outcomes >= {True}
    for name in ("classify", "pullback_along_M", "pushout_along_E"):
        assert inst.calls[name] == 0, name


class _FillCountingFinAb(FinAbInstance):
    """Counts compose calls, leaving out those of fill_diagonal, which
    checks that the square it is handed commutes."""

    def __init__(self):
        super().__init__()
        self.composes = self.fills = 0

    def compose(self, g, f):
        self.composes += not self.fills
        return super().compose(g, f)

    def fill_diagonal(self, sq):
        self.fills += 1
        try:
            return super().fill_diagonal(sq)
        finally:
            self.fills -= 1


def test_fs1_composes_hom_sets_by_walks(matrices_built):
    # a cost guard: fs1's three loops compose whole hom sets with one fixed
    # morphism, which compose_all walks in enumerate_homs order; fs1 matches
    # walk positions and builds, per sample, at most the u and v of the
    # square it fills and the diagonal it expects
    inst = _FillCountingFinAb()
    (report,) = run_axiom_suite(inst, seed=0, samples=1000, bound=8, checks=["fs1"])
    assert report.ok and report.samples == 400
    assert inst.composes == 0 and matrices_built[0] == 274


def test_fs2_enumerates_no_inverse_candidates(matrices_built):
    # a cost guard: fs2 decides invertibility with one solve and draws its
    # morphism by index from a pool that builds only the member drawn, so
    # it builds at most one matrix per draw
    (report,) = run_axiom_suite(FinAbInstance(), seed=0, samples=1000, bound=8, checks=["fs2"])
    assert report.ok and report.samples == 1000
    assert matrices_built[0] == 306


def test_order_16_axiom_suite_builds_few_matrices(matrices_built):
    # a cost guard on the seed-3 order-16 suite that the CLI's peak-RSS test
    # runs: no check iterates a pool to read a few of its members, and each
    # member is built once per instance, as memo.pools keeps every pool
    reports = run_axiom_suite(FinAbInstance(), 3, 200, 16)
    assert all(r.ok for r in reports)
    assert matrices_built[0] == 1709


def _primes_of(n):
    return [p for p in range(2, n + 1) if n % p == 0 and _prime_of((p,)) == p]


class _ScanningFinAb(_SeenFinAb):
    """_SeenFinAb that records each scan_objects call in scans."""

    def __init__(self):
        super().__init__()
        self.scans = []

    def scan_objects(self, a, bound):
        out = super().scan_objects(a, bound)
        self.scans.append((a, out))
        return out


def test_finab_jointly_and_properness_scan_one_z_p_per_prime(walks_read):
    assert [t.obj_key for t in FA.scan_objects(FA.group(12, 2), 1)] == [(2,), (3,)]
    assert FA.scan_objects(FA.group(), 8) == []
    # the jointly scan reads two walks at each object, one per leg;
    # properness scans twice per draw, an E-morphism then an M-morphism
    for check, scans, walks in (("jointly", 30, 2), ("properness", 60, 1)):
        inst = _ScanningFinAb()
        assert AXIOM_CHECKS[check](inst, 0, 30, 8).ok
        assert len(inst.scans) == scans
        assert inst.seen == [t for _, ts in inst.scans for t in ts for _ in range(walks)]
        for a, ts in inst.scans:
            assert [t.obj_key for t in ts] == [(p,) for p in _primes_of(math.prod(a.obj_key))]
        assert {t.obj_key for t in inst.seen} == {(2,), (3,), (5,), (7,)}


def _assert_visits(inst, squares, bound, decided_at, scanned_at):
    """Each decision reads the walks of its four legs at each object of
    decided_at, in order, or at a prefix of it when it fails; the jointly
    and properness scans read one walk per leg at each object of
    scanned_at.  The walks are counted as read, kept or made, under the
    fixture walks_read."""
    decided = set()
    for sq in squares:
        for decide in (is_pullback, is_pushout):
            inst.seen = []
            outcome = decide(inst, sq, bound)
            if outcome:
                assert inst.seen == [t for t in decided_at for _ in range(4)], sq
            else:
                runs = [t for t, _ in itertools.groupby(inst.seen)]
                assert runs == decided_at[:len(runs)], sq
            decided.add(outcome)
    inst.seen = []
    assert AXIOM_CHECKS["jointly"](inst, 0, 10, bound).ok
    assert inst.seen == [t for t in scanned_at for _ in range(2)] * 10
    inst.seen = []
    assert AXIOM_CHECKS["properness"](inst, 0, 10, bound).ok
    assert inst.seen == scanned_at * 2 * 10
    return decided


@pytest.mark.parametrize("bound", [1, 3, 5])
def test_pinj_decides_at_sizes_1_and_2_and_scans_at_size_1(walks_read, bound):
    # a partial injection is fixed by its restrictions to points and is
    # injective on every pair of them, so no decision reads the bound
    inst = _SeenPInj()
    one, two = PI.fset(1), PI.fset(2)
    assert _assert_visits(inst, SQUARE_POOL[::40], bound, [one, two], [one]) == {False, True}


def test_groupoid_scans_keep_every_object_whole(walks_read):
    # the default test objects are the bounded catalog: the one object
    inst = _SeenGroupoid(symmetric_group_table(3), name="groupoid:s3")
    assert _assert_visits(inst, _s3_squares(), 1, [S3.star], [S3.star]) == {True}


class _AnyClassFinAb(FinAbInstance):
    """finab with every hom in E and M, so that the jointly scan takes any
    pair of homs and the samplers draw any hom for any class.  finab's
    cones read their second leg as one-to-one or onto, which this breaks,
    so its cones are the general references, built on the sum of two
    corners."""

    def classify(self, f):
        return OrthClass(True, True)

    def pullback_payloads(self, f, m):
        return reference_ab_pullback(f.dom.obj_key, m.dom.obj_key, f.cod.obj_key,
                                     f.payload, m.payload)

    def pushout_payloads(self, f, e):
        return reference_ab_pushout(f.dom.obj_key, f.cod.obj_key, e.cod.obj_key,
                                    f.payload, e.payload)

    def class_homs(self, a, b, cls="any"):
        return self.enumerate_homs(a, b)

    def has_class_hom(self, a, b, cls="any"):
        return True


class _AnyClassPInj(PInjInstance):
    """pinj with every hom in E and M, as _AnyClassFinAb."""

    def classify(self, f):
        return OrthClass(True, True)


def _first_failure(objs, injective_at):
    return next((t for t in objs if not injective_at(t)), None)


def _hom_pairs(op, n_every):
    """Every n_every-th pair of homs out of one group of order <= 8 into
    groups of order <= 4, or with op into one group out of such groups."""
    small = FA.enumerate_objects_up_to(4)

    def homs(a, b):
        return FA.enumerate_homs(b, a) if op else FA.enumerate_homs(a, b)

    pairs = (
        (f, g)
        for a in FA.enumerate_objects_up_to(8)
        for b, c in itertools.combinations_with_replacement(small, 2)
        for f, g in itertools.product(homs(a, b), homs(a, c))
    )
    return list(itertools.islice(pairs, 0, None, n_every))


@pytest.mark.parametrize("op", [False, True], ids=["monic", "epic"])
def test_jointly_failure_details_name_the_first_catalog_failure(op):
    # a pair fails first at some object of the catalog; the scan of one
    # Z/p per prime must name that object too
    inst = _AnyClassFinAb()
    catalog = FA.enumerate_objects_up_to(8)
    prop = "epic" if op else "monic"
    pool = _hom_pairs(op, 7)
    assert len(pool) > 900
    failed_at = set()
    for f, g in pool:
        def jointly_at(t):
            firsts = FA.compose_all(f, t, op)
            return len(set(zip(firsts, FA.compose_all(g, t, op)))) == len(firsts)

        t0 = _first_failure(catalog, jointly_at)
        want = [] if t0 is None else [f"not jointly {prop} at {t0.descriptor}"]
        assert [d["detail"] for d in jointly_failures(inst, f, g, 8, op)] == want, (f, g)
        failed_at.add(t0)
    assert None in failed_at and len(failed_at) > 3
    assert all(_cyclic_prime_power(t.obj_key) for t in failed_at if t)


@pytest.mark.parametrize("op", [False, True], ids=["monic", "epic"])
def test_single_hom_failures_name_the_first_catalog_failure(op):
    # the properness scan of f, at Z/p for each prime p dividing the order
    # of dom f (cod f, with op), must name the first catalog failure
    catalog = FA.enumerate_objects_up_to(8)
    homs = [f for a in catalog for b in catalog for f in FA.enumerate_homs(a, b)]
    failed_at = set()
    for f in homs:
        def injective_at(t):
            composites = FA.compose_all(f, t, op)
            return len(set(composites)) == len(composites)

        t0 = _first_failure(catalog, injective_at)
        assert _first_failure(FA.scan_objects(f.cod if op else f.dom, 8), injective_at) == t0, f
        failed_at.add(t0)
    assert None in failed_at and len(failed_at) > 3
    assert all(_cyclic_prime_power(t.obj_key) for t in failed_at if t)


@pytest.mark.parametrize("op", [False, True], ids=["monic", "epic"])
def test_pinj_jointly_failure_details_name_the_first_catalog_failure(op):
    # every pair of homs out of one set of size <= 3 (into one, with op);
    # two maps out of a set differ at a point, so the scan of the set 1
    # names the first catalog failure
    inst = _AnyClassPInj()
    catalog = PI.enumerate_objects_up_to(3)
    prop = "epic" if op else "monic"
    failed_at = collections.Counter()
    for a, b, c in itertools.product(catalog, repeat=3):
        homs = (PI.enumerate_homs(b, a), PI.enumerate_homs(c, a)) if op else (
            PI.enumerate_homs(a, b), PI.enumerate_homs(a, c))
        for f, g in itertools.product(*homs):
            t0 = _first_failure(catalog, _injective_at(PI, (f, g), op))
            want = [] if t0 is None else [f"not jointly {prop} at {t0.descriptor}"]
            assert [d["detail"] for d in jointly_failures(inst, f, g, 3, op)] == want, (f, g)
            failed_at[t0] += 1
    assert sum(failed_at.values()) == 3396
    assert set(failed_at) == {None, PI.fset(1)}


@pytest.mark.parametrize("op", [False, True], ids=["monic", "epic"])
def test_pinj_single_hom_failures_name_the_first_catalog_failure(op):
    catalog = PI.enumerate_objects_up_to(3)
    failed_at = collections.Counter()
    for a, b in itertools.product(catalog, repeat=2):
        for f in PI.enumerate_homs(a, b):
            injective_at = _injective_at(PI, (f,), op)
            t0 = _first_failure(catalog, injective_at)
            assert _first_failure(PI.scan_objects(f.cod if op else f.dom, 3), injective_at) == t0, f
            failed_at[t0] += 1
    assert set(failed_at) == {None, PI.fset(1)}


def _pinj_squares(objs):
    """Every commuting pinj square with corners in objs: each (right, top)
    pair meets the (bottom, left) pairs with the same composite."""
    homs = PI.enumerate_homs
    for w, y, z, x in itertools.product(objs, repeat=4):
        lower = collections.defaultdict(list)
        for bottom, left in itertools.product(homs(z, w), homs(x, z)):
            lower[PI.compose(bottom, left).payload].append((bottom, left))
        for right, top in itertools.product(homs(y, w), homs(x, y)):
            for bottom, left in lower.get(PI.compose(right, top).payload, ()):
                yield Square(top, left, right, bottom)


def pinj_decisions_against_the_catalog(step):
    """Decide every step-th commuting square with corners of size <= 3 in
    both directions, and compare each answer with the bijection at every
    catalog object up to size 3.  Returns (squares, pullbacks, pushouts,
    disagreements); step 1 is the full sweep of all 277,200 squares."""
    catalog = PI.enumerate_objects_up_to(3)
    counts = collections.Counter()
    for sq in itertools.islice(_pinj_squares(catalog), 0, None, step):
        counts["squares"] += 1
        for op, decide, name in ((False, is_pullback, "pullbacks"), (True, is_pushout, "pushouts")):
            got = decide(PI, sq, 3)
            counts[name] += got
            counts["disagreements"] += got != all(
                reference_bijection_at(PI, sq, t, op) for t in catalog)
    return counts["squares"], counts["pullbacks"], counts["pushouts"], counts["disagreements"]


def test_pinj_decisions_match_the_bijection_at_the_catalog():
    # a fixed slice of the sweep; the full sweep, step 1, gives
    # (277200, 5502, 5502, 0)
    assert pinj_decisions_against_the_catalog(50) == (5544, 103, 107, 0)


# ---------------------------------------------------------------------------
# the decisions table
# ---------------------------------------------------------------------------


def _parts(x):
    """x and everything inside it, tuples opened."""
    yield x
    if isinstance(x, tuple):
        for y in x:
            yield from _parts(y)


@pytest.mark.parametrize("op", [False, True], ids=["pullback", "pushout"])
def test_decisions_table_answers_as_direct_decisions(finab_square_pool, monkeypatch, op):
    # each square asked twice, the second a hit of the table; then all
    # again, after the first ones have been pushed out of it
    cases = [(FA, sq, 4) for sq in finab_square_pool] + [(PI, sq, 3) for sq in SQUARE_POOL]
    assert len(cases) > DECISIONS_CAPACITY
    direct = [all(reference_bijection_at(inst, sq, t, op)
                  for t in inst.decision_objects(sq, bound, op)) for inst, sq, bound in cases]
    assert set(direct) == {False, True}
    decide = is_pushout if op else is_pullback
    made = []
    bijection = axioms._pullback_bijection_at
    monkeypatch.setattr(axioms, "_pullback_bijection_at",
                        lambda *args: made.append(args) or bijection(*args))
    for inst in (FA, PI):
        inst.memo.decisions.clear()
    for (inst, sq, bound), expect in zip(cases, direct):
        assert decide(inst, sq, bound) == expect, sq
        before = len(made)
        assert decide(inst, sq, bound) == expect, sq
        assert len(made) == before, sq
    before = len(made)
    for (inst, sq, bound), expect in zip(cases, direct):
        assert decide(inst, sq, bound) == expect, sq
    assert len(made) > before
    for inst in (FA, PI):
        table = inst.memo.decisions
        assert len(table) == DECISIONS_CAPACITY
        held = {type(x) for key in table for x in _parts(key)}
        assert not held & {Mor, ObjHandle, Square}, held


class _CatalogPInj(PInjInstance):
    """pinj deciding over the bounded catalog, so that a decision reads its
    bound."""

    def decision_objects(self, sq, bound, op=False):
        return self.enumerate_objects_up_to(bound)


def test_decisions_are_told_apart_by_corners_bound_and_op():
    # the identity square on Z/2 and the square of Z/4's two reductions onto
    # Z/2 have the same four payloads, ((1,),); the latter is a pushout
    # but no pullback
    inst = FinAbInstance()
    z4, z2 = inst.group(4), inst.group(2)
    one, onto = inst.identity(z2), inst.hom(z4, z2, [[1]])
    assert {f.payload for f in (one, onto)} == {((1,),)}
    assert is_pullback(inst, Square(top=one, left=one, right=one, bottom=one), 8)
    reductions = Square(top=onto, left=onto, right=one, bottom=one)
    assert not is_pullback(inst, reductions, 8)
    assert is_pushout(inst, reductions, 8)
    # a square that the cone at the one-point set tells from a pullback,
    # which the catalog up to bound 0 leaves out
    pinj = _CatalogPInj()
    two, point = pinj.fset(2), pinj.fset(1)
    m = pinj.pinj(point, point, (0,))
    small = Square(top=m, left=pinj.pinj(point, two, (0,)), right=m,
                   bottom=pinj.pinj(two, point, (0, None)))
    assert is_pullback(pinj, small, 0)
    assert not is_pullback(pinj, small, 2)


# ---------------------------------------------------------------------------
# the walks table
# ---------------------------------------------------------------------------


def _walk_cases(finab_square_pool):
    """(a new instance, its squares, bound): every square of the finab pool
    and the pinj squares that pinj_decisions_against_the_catalog decides."""
    pinj_squares = itertools.islice(_pinj_squares(PI.enumerate_objects_up_to(3)), 0, None, 50)
    return [(FinAbInstance(), finab_square_pool, 4), (PInjInstance(), list(pinj_squares), 3)]


@pytest.mark.parametrize("capacity", [WALKS_CAPACITY, 5], ids=["kept", "evicted"])
def test_decisions_over_kept_walks_answer_as_fresh_walks(finab_square_pool, monkeypatch,
                                                         capacity):
    # each square is decided both ways on one instance, so the pushout
    # decision reads walks of the pullback decision's legs at the same test
    # objects, and a walk kept under a key short of op or t gives the wrong
    # walk; at capacity 5 walks are let go inside one decision
    monkeypatch.setattr(axioms, "WALKS_CAPACITY", capacity)
    kept = []
    for inst, squares, bound in _walk_cases(finab_square_pool):
        answers = collections.Counter()
        for sq in squares:
            for op, decide in ((False, is_pullback), (True, is_pushout)):
                objs = inst.decision_objects(sq, bound, op)
                want = [reference_bijection_at(inst, sq, t, op) for t in objs]
                assert [_pullback_bijection_at(inst, sq, t, op) for t in objs] == want, (sq, op)
                assert decide(inst, sq, bound) == all(want), (sq, op)
                assert len(inst.memo.walks) <= capacity
                answers[op, all(want)] += 1
        assert len(answers) == 4, answers
        walks = inst.memo.walks
        kept.append(len(walks))
        held = {type(x) for key in walks for x in _parts(key)}
        assert not held & {Mor, ObjHandle, Square}, held
        assert {type(i) for ids in walks.values() for i in ids} == {int}
    # the finab squares walk 320 legs at their test objects, the pinj 360
    assert kept == [min(capacity, 320), min(capacity, 360)]


def test_walks_table_holds_at_most_its_capacity(monkeypatch):
    # the suite's decisions and scans walk more legs than the table keeps;
    # each read leaves its walk the most recently used, and the table never
    # grows past its capacity
    read = axioms._walk
    sizes = []

    def recording(inst, g, t, op):
        out = read(inst, g, t, op)
        walks = inst.memo.walks
        assert next(reversed(walks)) == (g.dom.obj_key, g.cod.obj_key, g.payload, t.obj_key, op)
        assert walks[next(reversed(walks))] is out
        sizes.append(len(walks))
        return out

    monkeypatch.setattr(axioms, "_walk", recording)
    assert all(r.ok for r in run_axiom_suite(FinAbInstance(), 0, 1000, 8))
    assert max(sizes) == WALKS_CAPACITY and sizes.count(WALKS_CAPACITY) > 100


@pytest.mark.parametrize("make,bound", [(FinAbInstance, 4), (PInjInstance, 3)],
                         ids=["finab", "pinj"])
def test_composites_share_an_id_exactly_when_equal_in_one_hom_set(finab_square_pool, make,
                                                                  bound):
    # the decisions match ids of composites in one hom set, hom(t, cod g)
    # or with op hom(dom g, t), so an id must stand for one payload there,
    # across walks too; ids are numbered in order of first sight
    inst = make()
    pool = finab_square_pool if make is FinAbInstance else SQUARE_POOL
    hom_sets = collections.defaultdict(set)
    for sq in pool[::3]:
        for op in (False, True):
            for t in inst.decision_objects(sq, bound, op):
                for g in (sq.top, sq.left, sq.right, sq.bottom):
                    ids = axioms._walk(inst, g, t, op)
                    payloads = inst.compose_all(g, t, op)
                    assert len(ids) == len(payloads)
                    home = (op, t.obj_key, (g.dom if op else g.cod).obj_key)
                    hom_sets[home].update(zip(ids, payloads))
    for pairs in hom_sets.values():
        ids, payloads = zip(*pairs)
        assert len(set(ids)) == len(set(payloads)) == len(pairs)
    assert len(hom_sets) > 10
    numbered = inst.memo.composite_ids
    assert sorted(numbered.values()) == list(range(len(numbered)))


class _WalkCountingFinAb(FinAbInstance):
    """Counts its compose_all calls by leg, test object and op."""

    def __init__(self):
        super().__init__()
        self.walked = collections.Counter()

    def compose_all(self, g, t, op=False, cls="any"):
        self.walked[g.dom, g.cod, g.payload, t, op, cls] += 1
        return super().compose_all(g, t, op, cls)


def test_each_leg_is_walked_once_per_test_object_while_kept(finab_square_pool, monkeypatch):
    # with room for every walk, no decision or scan walks a leg twice at
    # one test object; the decisions read 4 walks per test object
    monkeypatch.setattr(axioms, "WALKS_CAPACITY", 10**6)
    inst = _WalkCountingFinAb()
    for sq in finab_square_pool:
        is_pullback(inst, sq, 4)
        is_pushout(inst, sq, 4)
    for check in ("jointly", "properness"):
        assert AXIOM_CHECKS[check](inst, 0, 30, 8).ok
    assert set(inst.walked.values()) == {1}
    assert len(inst.walked) == len(inst.memo.walks) > 300


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "inst,bound",
    [(FA, 6), (PI, 3), (S3, 1)],
    ids=["finab", "pinj", "groupoid-s3"],
)
def test_suite_small_all_green(inst, bound):
    reports = run_axiom_suite(inst, seed=0, samples=60, bound=bound)
    assert [r.check_name for r in reports] == sorted(r.check_name for r in reports)
    for r in reports:
        assert r.ok, (r.check_name, r.failures[:1])
        assert r.passes == r.samples
        assert r.instance == inst.name


def test_suite_is_deterministic():
    a = run_axiom_suite(PI, seed=7, samples=25, bound=3)
    b = run_axiom_suite(PI, seed=7, samples=25, bound=3)
    assert [r.as_dict() for r in a] == [r.as_dict() for r in b]


def test_report_dict_shape():
    (rep,) = run_axiom_suite(S3, seed=1, samples=5, bound=1, checks=["fs2"])
    d = rep.as_dict()
    assert set(d) == {
        "check_name",
        "instance",
        "samples",
        "passes",
        "failures",
        "seed",
        "bound",
    }
    assert d["check_name"] == "fs2"
    assert d["seed"] == 1


class _ZeroConeFinAb(FinAbInstance):
    """A broken instance: the first leg of each pullback cone is the zero
    map, so the cone square commutes only when the second leg is zero."""

    def pullback_along_M(self, f, m):
        cone = super().pullback_along_M(f, m)
        p, a = cone.apex, cone.leg1.cod
        zero = self.hom(p, a, [[0] * len(p.obj_key) for _ in a.obj_key])
        return ConeResult(p, zero, cone.leg2)


def test_sfs1_validates_the_instance_cone(monkeypatch, capsys):
    # the decisions trust their squares, so SFS1 checks the cone it decides
    with pytest.raises(ShapeViolation, match="does not commute"):
        run_axiom_suite(_ZeroConeFinAb(), seed=0, samples=50, bound=6, checks=["sfs1"])
    # the whole suite runs SFS1-SFS4 first, so the broken cone is reported
    # as such, not as a class precondition of a draw built on it
    monkeypatch.setattr(cli, "load_instance", lambda cfg: _ZeroConeFinAb())
    rc = cli.main(["check-axioms", "--max-order", "6", "--samples", "20"])
    assert rc == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "does not commute" in err


# check -> (passes, samples) on _AnyClassFinAb at seed 0, bound 6, 40 samples
_ANY_CLASS_OUTCOMES = {
    "fs1": (6, 16), "fs2": (2, 40), "jointly": (5, 16), "properness": (1, 16), "sfs5": (26, 40),
}


def _dumped_mors(dump):
    """The morphism dumps of a failure record: its own and its square's."""
    for key, value in dump.items():
        if key == "square":
            yield from value.values()
        elif key != "detail":
            yield value


def _injective_at(inst, legs, op):
    """Whether the hom-set map of the legs, w |-> (g . w for g in legs) or
    with op w |-> (w . g for g in legs), is one-to-one at a test object."""
    def at(t):
        walks = [inst.compose_all(g, t, op) for g in legs]
        return len(set(zip(*walks))) == len(walks[0])

    return at


def test_law_failures_are_recorded_and_replayable():
    # with every hom in every class, each law fails on some draws; each
    # failure record must replay, and the scans must name the first
    # catalog object at which they fail
    inst = _AnyClassFinAb()
    reports = run_axiom_suite(inst, seed=0, samples=40, bound=6, checks=list(_ANY_CLASS_OUTCOMES))
    assert {r.check_name: (r.passes, r.samples) for r in reports} == _ANY_CLASS_OUTCOMES
    catalog = inst.enumerate_objects_up_to(6)
    dumps = 0
    for r in reports:
        assert len(r.failures) == min(r.samples - r.passes, MAX_FAILURE_DUMPS)
        for dump in r.failures:
            for data in _dumped_mors(dump):
                assert inst.mor_json(parse_mor(inst, data)) == data
                dumps += 1
            mors = {k: parse_mor(inst, v) for k, v in dump.items() if k not in ("detail", "square")}
            op = "e" in mors
            prop = "epic" if op else "monic"
            if r.check_name == "jointly":
                legs = (mors["m"], mors["e"]) if op else (mors["d"], mors["m"])
                t0 = _first_failure(catalog, _injective_at(inst, legs, op))
                assert dump["detail"] == f"not jointly {prop} at {t0.descriptor}"
            elif r.check_name == "properness":
                t0 = _first_failure(catalog, _injective_at(inst, tuple(mors.values()), op))
                assert dump["detail"] == f"not {prop} at {t0.descriptor}"
    assert dumps == 138


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_axiom_suite(PI, seed=0, samples=5, bound=2, checks=["nope"])


def _draw_failures(drawn):
    """A run_sampled body that gives each input 0, 1 or 2 failure dumps,
    drawn from the sampler, and records the count in drawn."""

    def body(smp):
        n = smp.rng.randrange(3)
        drawn.append(n)
        return [{"input": len(drawn), "detail": f"failure {i}"} for i in range(n)]

    return body


def test_run_sampled_counts_failed_inputs_and_caps_dumps():
    two = run_sampled("demo", PI, 0, 1, 2, lambda smp: [{"detail": "a"}, {"detail": "b"}])
    assert (two.samples, two.passes, len(two.failures)) == (1, 0, 2)

    drawn: list = []
    rep = run_sampled("demo", PI, 3, 60, 2, _draw_failures(drawn))
    assert rep.samples == len(drawn) == 60
    assert rep.passes == drawn.count(0)
    assert drawn.count(2) > 0 and sum(drawn) > MAX_FAILURE_DUMPS
    every_dump = [
        {"input": k + 1, "detail": f"failure {i}"}
        for k, n in enumerate(drawn) for i in range(n)
    ]
    assert rep.failures == every_dump[:MAX_FAILURE_DUMPS]
    assert (rep.check_name, rep.instance, rep.seed, rep.bound) == ("demo", PI.name, 3, 2)

    again = run_sampled("demo", PI, 3, 60, 2, _draw_failures([]))
    assert again.as_dict() == rep.as_dict()
