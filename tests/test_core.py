"""Tests for the shared kernel: squares and their validation, diagonal
fills, the post-composition solver, iso inversion, and the table-backed
one-object groupoid."""
from __future__ import annotations

import itertools

import pytest

from spancat.core import (
    ClassViolation,
    CrossInstance,
    EndpointMismatch,
    GroupoidInstance,
    Mor,
    ObjHandle,
    ShapeViolation,
    SpanCatError,
    Square,
    ValidationFailure,
    symmetric_group_table,
    validate_square,
)
from spancat.finab import FinAbInstance
from spancat.pinj import PInjInstance

FA = FinAbInstance()
PI = PInjInstance()
S3 = GroupoidInstance(symmetric_group_table(3), name="groupoid:s3")


# ---------------------------------------------------------------------------
# handles and squares
# ---------------------------------------------------------------------------


def test_descriptor_is_not_part_of_identity():
    a = ObjHandle("i", (2,), "one name")
    b = ObjHandle("i", (2,), "another name")
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("inst,key", [(FinAbInstance(), (2, 4)), (PInjInstance(), 3)],
                         ids=["finab", "pinj"])
def test_obj_interns_one_handle_per_key(inst, key):
    a = inst.obj(key)
    assert inst.obj(key) is a
    assert inst.obj(list(key) if isinstance(key, tuple) else key) is a
    assert inst.memo.handles == {a.obj_key: a}


def test_groupoid_star_is_the_interned_handle():
    assert S3.obj("*") is S3.star


def test_instances_share_no_handles():
    one, two = PInjInstance(), PInjInstance()
    a, b = one.fset(2), two.fset(2)
    assert a == b and a is not b
    assert one.memo.handles[2] is a and two.memo.handles[2] is b


@pytest.mark.parametrize("inst,good,bad", [
    (FinAbInstance(), (2,), (0, 2)),
    (PInjInstance(), 1, -1),
    (PInjInstance(), 1, True),  # equal to 1 and hashed alike, but not a size
], ids=["finab", "pinj", "pinj-bool"])
def test_bad_object_keys_raise_on_every_call(inst, good, bad):
    a = inst.obj(good)
    for _ in range(3):
        with pytest.raises(ValidationFailure):
            inst.obj(bad)
    assert inst.memo.handles == {good: a}


def test_factorization_mid_is_the_middle_object():
    f = FA.hom(FA.group(4), FA.group(8), [[2]])
    fac = FA.factorize(f)
    assert fac.mid == fac.e.cod == fac.m.dom


def test_square_corners():
    z2, z4 = FA.group(2), FA.group(4)
    e = FA.hom(z4, z2, [[1]])
    m = FA.hom(z2, z4, [[2]])
    sq = Square(top=FA.identity(z4), left=e, right=e, bottom=FA.identity(z2))
    validate_square(FA, sq)
    assert sq.apex == z4
    assert sq.bottom_right == z2
    assert m.dom == z2  # anchor for the misalignment case below
    with pytest.raises(EndpointMismatch):
        validate_square(FA, Square(top=FA.identity(z4), left=e, right=m, bottom=FA.identity(z2)))


def test_square_must_commute():
    z3 = FA.group(3)
    twist = FA.hom(z3, z3, [[2]])
    bad = Square(top=FA.identity(z3), left=FA.identity(z3), right=twist, bottom=FA.identity(z3))
    with pytest.raises(ShapeViolation):
        validate_square(FA, bad)


@pytest.mark.parametrize("inst, bound", [(FA, 8), (PI, 3), (S3, 1)],
                         ids=["finab", "pinj", "groupoid"])
def test_any_class_pool_reads_enumerate_homs_order(inst, bound):
    # the sampler draws a morphism of class any by index from this pool
    objs = inst.enumerate_objects_up_to(bound)
    for a, b in itertools.product(objs, repeat=2):
        pool = inst.class_homs(a, b, "any")
        homs = list(inst.enumerate_homs(a, b))
        assert len(pool) == len(homs)
        assert [pool[i] for i in range(len(pool))] == homs


@pytest.mark.parametrize("inst", [FA, PI, S3], ids=["finab", "pinj", "groupoid"])
def test_unknown_class_raises(inst):
    a = inst.enumerate_objects_up_to(1)[-1]
    for hook in (inst.class_homs, inst.has_class_hom):
        with pytest.raises(ValueError, match="unknown class"):
            hook(a, a, "epi")


@pytest.mark.parametrize("inst", [FA, PI, S3], ids=["finab", "pinj", "groupoid"])
def test_validate_mor_rejects_other_instances(inst):
    # a morphism of another instance, and one with an endpoint of another
    # instance at either end, whatever its payload
    f = inst.identity(inst.enumerate_objects_up_to(1)[-1])
    inst.validate_mor(f)
    z2 = GroupoidInstance(symmetric_group_table(2), name="groupoid:z2")
    for other in (FA, PI, S3, z2):
        if other is inst:
            continue
        g = other.identity(other.enumerate_objects_up_to(1)[-1])
        for bad in (g, Mor(f.dom, g.cod, f.payload), Mor(g.dom, f.cod, f.payload)):
            with pytest.raises(CrossInstance):
                inst.validate_mor(bad)


# ---------------------------------------------------------------------------
# diagonal fills and the post solver
# ---------------------------------------------------------------------------


def test_fill_diagonal_finds_the_unique_witness():
    z2, z4, z8 = FA.group(2), FA.group(4), FA.group(8)
    e = FA.hom(z8, z4, [[1]])
    m = FA.hom(z2, z8, [[4]])
    left = FA.hom(z8, z2, [[1]])
    right = FA.hom(z4, z8, [[4]])
    # top in E, bottom in M, filled by the mod-two map w: Z/4 -> Z/2
    w = FA.fill_diagonal(Square(top=e, left=left, right=right, bottom=m))
    assert w.dom == z4 and w.cod == z2
    assert FA.compose(w, e) == left
    assert FA.compose(m, w) == right


def test_fill_diagonal_guards():
    z2, z4 = FA.group(2), FA.group(4)
    m = FA.hom(z2, z4, [[2]])
    e = FA.hom(z4, z2, [[1]])
    with pytest.raises(ClassViolation):
        FA.fill_diagonal(Square(top=m, left=m, right=FA.identity(z4), bottom=FA.identity(z4)))
    with pytest.raises(ClassViolation):
        FA.fill_diagonal(Square(top=FA.identity(z4), left=FA.identity(z4), right=e, bottom=e))


def test_fill_diagonal_reports_missing_witness():
    # top surjection Z/4 ->> Z/2 against bottom Z/4 >-> Z/8 admits no fill
    # making both triangles commute with these outer legs
    z2, z4, z8 = FA.group(2), FA.group(4), FA.group(8)
    e = FA.hom(z4, z2, [[1]])
    m = FA.hom(z4, z8, [[2]])
    left = FA.hom(z4, z4, [[1]])
    right = FA.hom(z2, z8, [[4]])
    with pytest.raises(SpanCatError):
        FA.fill_diagonal(Square(top=e, left=left, right=right, bottom=m))


def em_squares(inst, objects):
    """Every commuting square with top in E and bottom in M whose four
    corners are among objects."""
    out = []
    for a, b, c, d in itertools.product(objects, repeat=4):
        for e in inst.class_homs(a, b, "E"):
            for m in inst.class_homs(c, d, "M"):
                for u in inst.enumerate_homs(a, c):
                    for v in inst.enumerate_homs(b, d):
                        if inst.compose(m, u) == inst.compose(v, e):
                            out.append(Square(top=e, left=u, right=v, bottom=m))
    return out


def enumerated_fill(inst, sq):
    """The reference diagonal: the one w in hom(cod top, dom bottom) with
    w . top == left and bottom . w == right, found by enumeration."""
    (w,) = [w for w in inst.enumerate_homs(sq.top.cod, sq.bottom.dom)
            if inst.compose(w, sq.top) == sq.left and inst.compose(sq.bottom, w) == sq.right]
    return w


@pytest.mark.parametrize("inst,bound,count", [(FA, 6, 2113), (PI, 3, 3744), (S3, 1, 216)],
                         ids=["finab", "pinj", "groupoid"])
def test_fill_diagonal_agrees_with_enumeration(inst, bound, count):
    squares = em_squares(inst, inst.enumerate_objects_up_to(bound))
    assert len(squares) == count
    for sq in squares:
        assert inst.fill_diagonal(sq) == enumerated_fill(inst, sq), sq


def test_solve_post_system_counts_solutions():
    z2, z4 = FA.group(2), FA.group(4)
    m = FA.hom(z2, z4, [[2]])
    found, count = FA.solve_post_system(z2, z2, [(m, m)])
    assert count == 1
    assert found == FA.identity(z2)
    # zero postcomposition constrains nothing: every hom solves
    zero = FA.hom(z2, z4, [[0]])
    found, count = FA.solve_post_system(z2, z2, [(zero, zero)])
    assert count == len(list(FA.enumerate_homs(z2, z2))) == 2


@pytest.mark.parametrize("inst,a,b", [(FA, (2,), (4,)), (PI, 1, 2)], ids=["finab", "pinj"])
def test_a_mismatched_equation_is_rejected(inst, a, b):
    # Instance checks each equation's ends before any solver runs: post
    # must leave cod, rhs leave dom, and both land in one object
    x, y = inst.obj(a), inst.obj(b)
    zero = {(s, t): inst.enumerate_homs(s, t)[0] for s in (x, y) for t in (x, y)}
    for post, rhs in [(zero[y, x], zero[x, x]), (zero[x, y], zero[y, y]),
                      (zero[x, y], zero[x, x])]:
        with pytest.raises(EndpointMismatch):
            inst.solve_post_system(x, x, [(post, rhs)])


def test_groupoid_solves_post_systems_off_its_table(pool_walk):
    # every system of 0, 1 and 2 equations over S3 against the reference
    # walk of its six elements; solution and count must both agree
    homs = S3.enumerate_homs(S3.star, S3.star)
    eqs = list(itertools.product(homs, repeat=2))
    systems = [[]] + [[e] for e in eqs] + [list(p) for p in itertools.product(eqs, repeat=2)]
    assert len(systems) == 1 + 36 + 36 ** 2
    for system in systems:
        want = pool_walk(S3, S3.star, S3.star, system)
        assert S3.solve_post_system(S3.star, S3.star, system) == want, system
    assert S3.solve_post_system(S3.star, S3.star, []) == (homs[0], 6)


def test_iso_inverse_round_trips():
    z3 = FA.group(3)
    twist = FA.hom(z3, z3, [[2]])
    inv = FA.inverse(twist)
    assert FA.compose(inv, twist) == FA.identity(z3)
    assert FA.compose(twist, inv) == FA.identity(z3)
    with pytest.raises(ClassViolation):
        FA.inverse(FA.hom(z3, FA.group(), ()))


# ---------------------------------------------------------------------------
# the table-backed groupoid
# ---------------------------------------------------------------------------


def test_symmetric_group_table_shape():
    table = symmetric_group_table(3)
    assert len(table) == 6 and all(len(row) == 6 for row in table)
    # identity is the first permutation in lexicographic order
    assert table[0] == [0, 1, 2, 3, 4, 5]
    assert [row[0] for row in table] == [0, 1, 2, 3, 4, 5]
    # closure and cancellation: every row and column is a permutation
    for row in table:
        assert sorted(row) == list(range(6))
    for col in zip(*table):
        assert sorted(col) == list(range(6))


def test_groupoid_rejects_non_group_tables():
    with pytest.raises(ValidationFailure):
        GroupoidInstance([[0, 0], [0, 0]])
    # associative magma with no inverses (left zero semigroup) also fails
    with pytest.raises(ValidationFailure):
        GroupoidInstance([[0, 1], [0, 1]])


def test_groupoid_everything_is_iso():
    star = S3.obj("*")
    for k in range(6):
        f = Mor(star, star, k)
        cls = S3.classify(f)
        assert cls.in_E and cls.in_M
        inv = S3.inverse(f)
        assert S3.compose(inv, f) == S3.identity(star)
    f = Mor(star, star, 3)
    fac = S3.factorize(f)
    assert fac.e == f
    assert fac.m == S3.identity(star)


def test_groupoid_cones_commute():
    m, f, e = (Mor(S3.star, S3.star, k) for k in (1, 4, 2))
    cone = S3.pullback_along_M(f, m)
    assert S3.compose(f, cone.leg1) == S3.compose(m, cone.leg2)
    po = S3.pushout_along_E(f, e)
    assert S3.compose(po.leg1, f) == S3.compose(po.leg2, e)


def test_groupoid_catalog():
    assert S3.enumerate_objects_up_to(5) == [S3.obj("*")]
    homs = list(S3.enumerate_homs(S3.obj("*"), S3.obj("*")))
    assert len(homs) == 6
