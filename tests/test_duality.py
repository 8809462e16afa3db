"""Duality oracles for the E side.

finab is self-dual by Pontryagin duality and pinj by reversal: in each, a
contravariant involution D on morphisms fixes every object and swaps E and
M.  So every construction read in C^op (the pushout decision, compose_all
with op, pushout_along_E) must agree with its dual read in C through D.  D
lives here alone: no production path calls it.
"""
from __future__ import annotations

import itertools

import pytest

from spancat.axioms import is_pullback, is_pushout
from spancat.core import Mor, Square, validate_square
from spancat.finab import FinAbInstance
from spancat.gen import Sampler
from spancat.pinj import PInjInstance, reverse_assign


def finab_dual(f: Mor) -> Mor:
    """The Pontryagin dual: for f with matrix M from (a_j) to (b_i), entry
    (j, i) of D(f) is M[i][j] * a_j / b_i mod a_j."""
    a, b = f.dom.obj_key, f.cod.obj_key
    mat = f.payload
    return Mor(f.cod, f.dom, tuple(tuple((mat[i][j] * aj // bi) % aj for i, bi in enumerate(b))
                                   for j, aj in enumerate(a)))


def pinj_dual(f: Mor) -> Mor:
    """The reversal: the same (input, output) pairs read backwards."""
    return Mor(f.cod, f.dom, reverse_assign(f.payload, f.cod.obj_key))


# (instance class, D, catalog bound for the exhaustive checks, sampler bound)
CASES = {
    "finab": (FinAbInstance, finab_dual, 4, 8),
    "pinj": (PInjInstance, pinj_dual, 3, 3),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    cls, dual, small, bound = CASES[request.param]
    return cls(), dual, small, bound


def all_homs(inst, bound):
    objs = inst.enumerate_objects_up_to(bound)
    return [f for a in objs for b in objs for f in inst.enumerate_homs(a, b)]


def dual_square(dual, sq: Square) -> Square:
    """D(sq) drawn in C: apex and bottom-right corner trade places."""
    return Square(top=dual(sq.right), left=dual(sq.bottom), right=dual(sq.top),
                  bottom=dual(sq.left))


def test_finab_dual_of_a_known_hom():
    # Z/2 -> Z/4, 1 |-> 2, is dual to Z/4 -> Z/2, 1 |-> 1
    fa = FinAbInstance()
    f = fa.hom(fa.group(2), fa.group(4), [[2]])
    assert finab_dual(f) == fa.hom(fa.group(4), fa.group(2), [[1]])


# every hom between groups of order <= 8, and between sets of size <= 4
@pytest.mark.parametrize("name,bound,count", [("finab", 8, 1128), ("pinj", 4, 499)])
def test_dual_is_an_involution_swapping_e_and_m(name, bound, count):
    cls, dual, _, _ = CASES[name]
    inst = cls()
    homs = all_homs(inst, bound)
    assert len(homs) == count
    for f in homs:
        d = dual(f)
        inst.validate_mor(d)
        assert (d.dom, d.cod) == (f.cod, f.dom)
        assert dual(d) == f
        c, dc = inst.classify(f), inst.classify(d)
        assert (dc.in_E, dc.in_M) == (c.in_M, c.in_E)


def test_dual_is_contravariant(case):
    inst, dual, small, _ = case
    objs = inst.enumerate_objects_up_to(small)
    for a, b, c in itertools.product(objs, repeat=3):
        for f in inst.enumerate_homs(a, b):
            df = dual(f)
            for g in inst.enumerate_homs(b, c):
                assert dual(inst.compose(g, f)) == inst.compose(df, dual(g))
    for a in objs:
        assert dual(inst.identity(a)) == inst.identity(a)


def test_pushout_decision_is_the_dual_pullback_decision(case):
    inst, dual, _, bound = case
    smp = Sampler(inst, "duality", bound)
    outcomes = set()
    for _ in range(2000):
        sq = smp.mixed_square()
        dsq = dual_square(dual, sq)
        validate_square(inst, dsq)
        pushout = is_pushout(inst, sq, bound)
        assert pushout == is_pullback(inst, dsq, bound), sq
        outcomes.add(pushout)
    assert outcomes == {False, True}


def test_dual_of_each_pushout_cone_is_a_pullback(case):
    # for f: A -> B and e: A ->> C with pushout legs leg1: B -> P and
    # leg2: C -> P, the dual square over the cospan (D f, D e) has apex P
    inst, dual, small, bound = case
    objs = inst.enumerate_objects_up_to(small)
    cones = 0
    for a, b, c in itertools.product(objs, repeat=3):
        for e in inst.class_homs(a, c, "E"):
            de = dual(e)
            for f in inst.enumerate_homs(a, b):
                cone = inst.pushout_along_E(f, e)
                pushout = Square(top=f, left=e, right=cone.leg1, bottom=cone.leg2)
                sq = dual_square(dual, pushout)
                assert (sq.right, sq.bottom) == (dual(f), de)
                validate_square(inst, sq)
                assert inst.classify(sq.top).in_M
                assert is_pullback(inst, sq, bound) and is_pushout(inst, pushout, bound)
                cones += 1
    assert cones > 100


def test_dual_of_each_factorization_is_one_of_the_dual(case):
    # f = m . e with e in E and m in M gives D f = D e . D m with D m in E
    # and D e in M, through the same middle object
    inst, dual, small, _ = case
    for f in all_homs(inst, small):
        fac = inst.factorize(f)
        de, dm = dual(fac.e), dual(fac.m)
        assert inst.classify(dm).in_E and inst.classify(de).in_M
        assert inst.compose(de, dm) == dual(f)
        assert inst.factorize(dual(f)).mid == fac.mid
