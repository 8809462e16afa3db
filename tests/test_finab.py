"""Tests for the finite abelian group instance.

Expected values were derived by hand (kernels, images and normal forms of
2x2 integer matrices) and frozen here; the hypothesis tests check the
algebraic laws against brute-force enumeration oracles.
"""
from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spancat.core import (
    ClassViolation,
    EndpointMismatch,
    Square,
    ValidationFailure,
)
from spancat.finab import (
    FinAbInstance,
    ab_factorize,
    ab_pullback,
    ab_pushout,
    all_subgroups,
    apply_hom,
    close_elements,
    cokernel_data,
    cokernel_size,
    diagonal_subgroup,
    elements_of,
    freeze,
    group_size,
    hom_classify,
    hom_compose,
    hom_group,
    image_subgroup,
    integer_kernel_basis,
    invariant_factor_groups,
    kernel_subgroup,
    mat_mul,
    smith_normal_form,
    solve_congruence,
    solve_hom_equations,
    subgroup_compose,
    subgroup_from_gens,
    validate_hom,
)

INST = FinAbInstance()


def brute_kernel(dom, cod, mat):
    return {x for x in elements_of(dom) if not any(apply_hom(mat, x, cod))}


def brute_image(dom, cod, mat):
    return {apply_hom(mat, x, cod) for x in elements_of(dom)}


def presented(sub, ambient):
    """The element set of a subgroup presented as (orders, embedding)."""
    orders, emb = sub
    return {apply_hom(emb, v, ambient) for v in elements_of(orders)}


def canonical_orders(orders):
    """The invariant factors of Z/orders[0] + ... + Z/orders[n-1], read off
    the Smith normal form of diag(orders)."""
    if not orders:
        return ()
    n = len(orders)
    s = smith_normal_form([[orders[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return tuple(d for d in s.diag if d > 1)


# ---------------------------------------------------------------------------
# frozen normal-form values
# ---------------------------------------------------------------------------

def test_snf_diag_2_3():
    s = smith_normal_form([[2, 0], [0, 3]])
    assert s.diag == (1, 6)


def test_snf_transforms_multiply_out():
    mat = [[4, 2], [2, 2]]
    s = smith_normal_form(mat)
    assert freeze(mat_mul(mat_mul(s.U, mat), s.V)) == s.D
    assert s.diag == (2, 2)


def test_snf_empty_and_zero():
    assert smith_normal_form([]).diag == ()
    assert smith_normal_form([[0, 0]]).diag == (0,)


def test_integer_kernel_basis_members_annihilate():
    mat = [[2, 4]]
    for v in integer_kernel_basis(mat):
        assert all(x == 0 for x in (sum(mat[i][j] * v[j] for j in range(2)) for i in range(1)))
    assert len(integer_kernel_basis(mat)) == 1


# ---------------------------------------------------------------------------
# frozen group/morphism arithmetic
# ---------------------------------------------------------------------------

def test_double_twice_on_z4_is_zero():
    two = ((2,),)
    assert hom_compose(two, two, (4,)) == ((0,),)


def test_kernel_of_double_on_z4():
    orders, emb = kernel_subgroup((4,), (4,), ((2,),))
    assert presented((orders, emb), (4,)) == {(0,), (2,)}
    assert orders == (2,)


def test_classify_examples():
    # doubling Z/4 -> Z/4: neither injective nor surjective
    c = hom_classify((4,), (4,), ((2,),))
    assert (c.in_E, c.in_M) == (False, False)
    # inclusion Z/2 -> Z/4
    c = hom_classify((2,), (4,), ((2,),))
    assert (c.in_E, c.in_M) == (False, True)
    # projection Z/4 -> Z/2
    c = hom_classify((4,), (2,), ((1,),))
    assert (c.in_E, c.in_M) == (True, False)
    # identity
    c = hom_classify((4,), (4,), ((1,),))
    assert (c.in_E, c.in_M) == (True, True)


def test_factorize_double_on_z4():
    mid, e, m = ab_factorize((4,), (4,), ((2,),))
    assert mid == (2,)
    assert e == ((1,),)
    assert m == ((2,),)


def test_factorize_zero_map_through_trivial_group():
    mid, e, m = ab_factorize((2,), (3,), ((0,),))
    assert mid == ()
    assert e == ()
    assert m == ((),)


def test_pullback_of_mod2_cospan_is_z4():
    # Z/4 --mod 2--> Z/2 <--id-- Z/2
    apex, leg1, leg2 = ab_pullback((4,), (2,), (2,), ((1,),), ((1,),))
    assert apex == (4,)
    pairs = {
        (apply_hom(leg1, x, (4,)), apply_hom(leg2, x, (2,)))
        for x in elements_of(apex)
    }
    assert pairs == {((a,), (a % 2,)) for a in range(4)}


def test_pushout_of_z2_inclusion_along_collapse():
    # Z/4 <--x2-- Z/2 --!--> 0  gives  Z/4 / <2> = Z/2
    apex, leg1, leg2 = ab_pushout((2,), (4,), (), ((2,),), ())
    assert apex == (2,)
    assert leg1 == ((1,),)
    assert leg2 == ((),)


def test_canonical_orders_frozen():
    assert canonical_orders((4, 2)) == (2, 4)
    assert canonical_orders((2, 3)) == (6,)
    assert canonical_orders((1, 5)) == (5,)
    assert canonical_orders(()) == ()


def test_catalog_up_to_8():
    cat = invariant_factor_groups(8)
    assert cat == [
        (), (2,), (3,), (2, 2), (4,), (5,), (6,), (7,),
        (2, 2, 2), (2, 4), (8,),
    ]


def test_subgroup_counts():
    assert len(all_subgroups((4,))) == 3
    assert len(all_subgroups((2, 2))) == 5
    assert len(all_subgroups((2, 4))) == 8


def test_close_elements():
    assert close_elements((4,), [(2,)]) == frozenset({(0,), (2,)})


def test_subgroup_compose_diagonals():
    d = diagonal_subgroup((2,))
    assert subgroup_compose((2,), (2,), (2,), d, d) == d


def test_subgroup_compose_matches_manual():
    # S = graph of doubling Z/4 -> Z/4, T = graph of mod 2
    s = frozenset((x, 2 * x % 4) for x in range(4))
    s = frozenset(((x,) + (2 * x % 4,)) for x in range(4))
    t = frozenset(((x,) + (x % 2,)) for x in range(4))
    out = subgroup_compose((4,), (4,), (2,), s, t)
    assert out == frozenset({(x, 0) for x in range(4)})


def test_validate_hom_rejects_ill_defined():
    with pytest.raises(ValidationFailure):
        validate_hom((2,), (4,), ((1,),))  # 1 does not kill the order-2 generator
    with pytest.raises(ValidationFailure):
        validate_hom((2,), (4,), ((1, 2),))  # wrong shape


def test_hom_group_size_frozen():
    assert hom_group((4,), (2, 4)).size == 8
    assert hom_group((2,), (3,)).size == 1  # only the zero map
    assert hom_group((), (4,)).size == 1


# ---------------------------------------------------------------------------
# instance surface
# ---------------------------------------------------------------------------

def test_instance_compose_and_identity():
    z4 = INST.group(4)
    f = INST.hom(z4, z4, [[2]])
    assert INST.compose(f, f).payload == ((0,),)
    assert INST.compose(f, INST.identity(z4)).payload == f.payload


def test_instance_compose_endpoint_mismatch():
    z4, z2 = INST.group(4), INST.group(2)
    f = INST.hom(z4, z2, [[1]])
    with pytest.raises(EndpointMismatch):
        INST.compose(f, f)


def test_instance_inverse():
    a = INST.group(2, 4)
    f = INST.hom(a, a, [[1, 0], [2, 1]])
    assert INST.is_iso(f)
    g = INST.inverse(f)
    assert INST.mor_eq(INST.compose(g, f), INST.identity(a))
    with pytest.raises(ClassViolation):
        INST.inverse(INST.hom(a, a, [[0, 0], [0, 0]]))


def test_instance_fill_diagonal_unique():
    # e: Z/4 ->> Z/2, m: Z/2 >-> Z/4, square for the doubling map
    z4, z2 = INST.group(4), INST.group(2)
    e = INST.hom(z4, z2, [[1]])
    m = INST.hom(z2, z4, [[2]])
    sq = Square(top=e, left=e, right=m, bottom=m)
    w = INST.fill_diagonal(sq)
    assert w.payload == ((1,),)
    bad = Square(top=m, left=m, right=e, bottom=e)
    with pytest.raises(ClassViolation):
        INST.fill_diagonal(bad)


def test_instance_pullback_requires_M():
    z4, z2 = INST.group(4), INST.group(2)
    f = INST.hom(z4, z2, [[1]])
    with pytest.raises(ClassViolation):
        INST.pullback_along_M(f, f)  # f is not mono


def test_enumerate_homs_counts():
    a, b = INST.group(4), INST.group(2, 4)
    homs = INST.enumerate_homs(a, b)
    assert len(homs) == 8
    assert len({h.payload for h in homs}) == 8


@pytest.mark.parametrize("op", [False, True])
def test_compose_all_matches_compose_loop_on_order_8_catalog(op):
    objs = INST.enumerate_objects_up_to(8)
    mors = [g for a in objs for b in objs for g in INST.enumerate_homs(a, b)]
    assert len(mors) * len(objs) == 12408
    for g in mors:
        for t in objs:
            if op:
                loop = [INST.compose(u, g).payload for u in INST.enumerate_homs(g.cod, t)]
            else:
                loop = [INST.compose(g, u).payload for u in INST.enumerate_homs(t, g.dom)]
            assert INST.compose_all(g, t, op) == loop, (g, t)


CLASS_FLAGS = {"E": lambda c: c.in_E, "M": lambda c: c.in_M,
               "iso": lambda c: c.in_E and c.in_M}


def classify_scan(a, b):
    """Each hom a -> b, in enumerate_homs order, with its class by
    hom_classify: the cokernel-size oracle, which the class hooks must agree
    with and never call.  A throwaway instance keeps the homs out of INST."""
    return [(f, hom_classify(a.obj_key, b.obj_key, f.payload))
            for f in FinAbInstance().enumerate_homs(a, b)]


@pytest.mark.parametrize("cls", sorted(CLASS_FLAGS))
def test_has_class_hom_matches_classify_scan_up_to_order_16(cls):
    inst, objs, flag = FinAbInstance(), INST.enumerate_objects_up_to(16), CLASS_FLAGS[cls]
    assert len(objs) == 25
    for a in objs:
        for b in objs:
            scan = any(flag(hom_classify(a.obj_key, b.obj_key, f.payload))
                       for f in FinAbInstance().enumerate_homs(a, b))
            assert inst.has_class_hom(a, b, cls) == scan, (a, b)


def test_class_homs_match_classify_filter_up_to_order_16():
    # every E, M and iso pool of the order-16 catalog: the same Mors in the
    # same order as the filtered hom set
    inst, objs = FinAbInstance(), INST.enumerate_objects_up_to(16)
    sizes = {}
    for a in objs:
        for b in objs:
            scan = classify_scan(a, b)
            for cls, flag in CLASS_FLAGS.items():
                want = tuple(f for f, c in scan if flag(c))
                assert inst.class_homs(a, b, cls) == want, (a, b, cls)
                sizes[a.obj_key, b.obj_key, cls] = len(want)
    assert len(sizes) == 3 * 625
    assert sizes[(2, 2, 2, 2), (2, 2, 2, 2), "E"] == 20160  # |GL(4, 2)|
    assert sizes[(2, 2, 2, 2), (2, 2, 2), "E"] == 2520


def test_class_hooks_on_keys_not_in_invariant_form():
    # Z/2 + Z/3 is Z/6 written otherwise, and a Z/1 summand is trivial: the
    # invariant-factor test does not apply to such keys, the rank test does
    inst = FinAbInstance()
    for x, y in [((2, 3), (6,)), ((3, 2), (2, 3)), ((1, 4), (2, 2)), ((4, 2), (2, 4)),
                 ((6,), (2, 3)), ((1,), ())]:
        a, b = inst.obj(x), inst.obj(y)
        scan = classify_scan(a, b)
        for cls, flag in CLASS_FLAGS.items():
            want = tuple(f for f, c in scan if flag(c))
            assert inst.class_homs(a, b, cls) == want, (x, y, cls)
            assert inst.has_class_hom(a, b, cls) == bool(want), (x, y, cls)


def test_catalog_is_kept_per_bound_and_copied_per_call():
    inst = FinAbInstance()
    first = inst.enumerate_objects_up_to(8)
    first.append(inst.group(3, 3))
    again = inst.enumerate_objects_up_to(8)
    assert again == first[:-1]
    assert again[0] is first[0]


def test_describe_obj():
    assert INST.describe_obj(()) == "0"
    assert INST.describe_obj((2, 4)) == "Z/2+Z/4"


def test_validate_obj_rejects_nonpositive():
    with pytest.raises(ValidationFailure):
        INST.obj((0,))
    with pytest.raises(ValidationFailure):
        INST.obj((-3,))


# ---------------------------------------------------------------------------
# property tests against brute-force oracles
# ---------------------------------------------------------------------------

small_orders = st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=0, max_size=2).map(tuple)


@st.composite
def group_pair_with_hom(draw):
    dom = draw(small_orders)
    cod = draw(small_orders)
    hg = hom_group(dom, cod)
    coords = tuple(draw(st.integers(0, g - 1)) for g in hg.orders)
    return dom, cod, hg.from_coords(coords)


@st.composite
def int_matrix(draw):
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 3))
    return [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)]


@settings(max_examples=60, deadline=None)
@given(int_matrix())
def test_snf_properties(mat):
    s = smith_normal_form(mat)
    m = len(mat)
    n = len(mat[0]) if m else 0
    assert freeze(mat_mul(mat_mul(s.U, mat), s.V)) == s.D
    assert freeze(mat_mul(s.U, s.Uinv)) == freeze(
        [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    )
    diag = s.diag
    assert all(d >= 0 for d in diag)
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        # off-diagonal entries vanish
    for i in range(m):
        for j in range(n):
            if i != j:
                assert s.D[i][j] == 0


@settings(max_examples=50, deadline=None)
@given(group_pair_with_hom())
def test_classify_matches_brute_force(data):
    dom, cod, mat = data
    c = hom_classify(dom, cod, mat)
    img = brute_image(dom, cod, mat)
    ker = brute_kernel(dom, cod, mat)
    assert c.in_E == (len(img) == group_size(cod))
    assert c.in_M == (len(ker) == 1)


def brute_homs(dom, cod):
    """Every matrix dom -> cod with reduced entries that kill the domain
    generators' orders, enumerated entry by entry."""
    entries = [
        [x for x in range(b) if (a * x) % b == 0] for b in cod for a in dom
    ]
    for flat in itertools.product(*entries):
        yield tuple(tuple(flat[i * len(dom):(i + 1) * len(dom)]) for i in range(len(cod)))


def test_cokernel_size_and_classify_exhaustive_up_to_order_8():
    groups = invariant_factor_groups(8)
    homs = 0
    for dom in groups:
        for cod in groups:
            for mat in brute_homs(dom, cod):
                img = len(brute_image(dom, cod, mat))
                ker = len(brute_kernel(dom, cod, mat))
                assert cokernel_size(dom, cod, mat) == group_size(cod) // img
                c = hom_classify(dom, cod, mat)
                assert (c.in_E, c.in_M) == (img == group_size(cod), ker == 1)
                homs += 1
    assert (len(groups), homs) == (11, 1128)


@settings(max_examples=50, deadline=None)
@given(group_pair_with_hom())
def test_factorize_properties(data):
    dom, cod, mat = data
    mid, e, m = ab_factorize(dom, cod, mat)
    assert hom_compose(m, e, cod, len(dom)) == validate_hom(dom, cod, mat)
    ce = hom_classify(dom, mid, e)
    cm = hom_classify(mid, cod, m)
    assert ce.in_E and cm.in_M
    assert group_size(mid) == len(brute_image(dom, cod, mat))
    assert mid == canonical_orders(mid)


@settings(max_examples=50, deadline=None)
@given(group_pair_with_hom())
def test_kernel_and_image_match_brute_force(data):
    dom, cod, mat = data
    assert presented(kernel_subgroup(dom, cod, mat), dom) == brute_kernel(dom, cod, mat)
    assert presented(image_subgroup(dom, cod, mat), cod) == brute_image(dom, cod, mat)


@settings(max_examples=50, deadline=None)
@given(group_pair_with_hom())
def test_cokernel_properties(data):
    dom, cod, mat = data
    q, quot = cokernel_data(dom, cod, mat)
    img = brute_image(dom, cod, mat)
    assert group_size(q) * len(img) == group_size(cod)
    # the quotient map kills exactly the image
    killed = {x for x in elements_of(cod) if not any(apply_hom(quot, x, q))}
    assert killed == img


def test_subgroup_presentation_matches_elements():
    # every subgroup H of every X + Z with |X|.|Z| <= 16, generated by its
    # elements as subgroup_to_zigzag does
    groups = invariant_factor_groups(16)
    ambients = sorted({
        x + z for x in groups for z in groups if group_size(x) * group_size(z) <= 16
    })
    subgroups = 0
    for ambient in ambients:
        for h in all_subgroups(ambient):
            orders, emb = subgroup_from_gens(ambient, sorted(h))
            assert orders == canonical_orders(orders)
            assert group_size(orders) == len(h)
            assert presented((orders, emb), ambient) == h
            subgroups += 1
    assert (len(ambients), subgroups) == (42, 362)


@st.composite
def pullback_inputs(draw):
    a = draw(small_orders)
    b = draw(small_orders)
    c = draw(small_orders)
    hf = hom_group(a, c)
    hg = hom_group(b, c)
    f = hf.from_coords(tuple(draw(st.integers(0, g - 1)) for g in hf.orders))
    g = hg.from_coords(tuple(draw(st.integers(0, g - 1)) for g in hg.orders))
    return a, b, c, f, g


@settings(max_examples=40, deadline=None)
@given(pullback_inputs())
def test_pullback_matches_brute_force(data):
    a, b, c, f, g = data
    apex, leg1, leg2 = ab_pullback(a, b, c, f, g)
    realized = {
        apply_hom(leg1, x, a) + apply_hom(leg2, x, b) for x in elements_of(apex)
    }
    brute = {
        xa + xb
        for xa in elements_of(a)
        for xb in elements_of(b)
        if apply_hom(f, xa, c) == apply_hom(g, xb, c)
    }
    assert realized == brute
    assert group_size(apex) == len(brute)


@st.composite
def pushout_inputs(draw):
    c = draw(small_orders)
    a = draw(small_orders)
    b = draw(small_orders)
    assume(group_size(a) * group_size(b) <= 36)
    hf = hom_group(c, a)
    hg = hom_group(c, b)
    f = hf.from_coords(tuple(draw(st.integers(0, g - 1)) for g in hf.orders))
    g = hg.from_coords(tuple(draw(st.integers(0, g - 1)) for g in hg.orders))
    return c, a, b, f, g


@settings(max_examples=25, deadline=None)
@given(pushout_inputs())
def test_pushout_universal_property_bounded(data):
    c, a, b, f, g = data
    apex, leg1, leg2 = ab_pushout(c, a, b, f, g)
    nc = len(c)
    assert hom_compose(leg1, f, apex, nc) == hom_compose(leg2, g, apex, nc)
    for t_orders in [(), (2,), (3,), (4,), (2, 2), (6,)]:
        ht = hom_group(apex, t_orders)
        hu = hom_group(a, t_orders)
        hv = hom_group(b, t_orders)
        seen = 0
        for u in hu.all_matrices():
            for v in hv.all_matrices():
                if hom_compose(u, f, t_orders, nc) != hom_compose(v, g, t_orders, nc):
                    continue
                seen += 1
                mediators = [
                    w for w in ht.all_matrices()
                    if hom_compose(w, leg1, t_orders, len(a)) == u
                    and hom_compose(w, leg2, t_orders, len(b)) == v
                ]
                assert len(mediators) == 1
                if seen > 20:
                    break
            if seen > 20:
                break


@st.composite
def equation_instance(draw):
    x = draw(small_orders)
    b = draw(small_orders)
    c = draw(small_orders)
    y = draw(small_orders)
    assume(group_size(b) * group_size(c) <= 36)
    def draw_hom(dom, cod):
        hg = hom_group(dom, cod)
        return hg.from_coords(tuple(draw(st.integers(0, g - 1)) for g in hg.orders))
    pre = draw_hom(x, b)
    post = draw_hom(c, y)
    w0 = draw_hom(b, c)
    return x, b, c, y, pre, post, w0


@settings(max_examples=30, deadline=None)
@given(equation_instance())
def test_solve_hom_equations_matches_enumeration(data):
    x, b, c, y, pre, post, w0 = data
    nx, nb = len(x), len(b)

    def whole(w):
        return hom_compose(hom_compose(post, w, y, nb), pre, y, nx)

    rhs = whole(w0)
    sol, count = solve_hom_equations(
        b, c, [((c, y, post), (x, b, pre), (x, y, rhs))]
    )
    assert sol is not None
    hbc = hom_group(b, c)
    brute = [w for w in hbc.all_matrices() if whole(w) == rhs]
    assert count == len(brute)
    assert whole(sol) == rhs


@settings(max_examples=30, deadline=None)
@given(group_pair_with_hom())
def test_solve_congruence_agrees_with_brute(data):
    dom, cod, mat = data
    assume(group_size(dom) <= 36)
    targets = {apply_hom(mat, x, cod) for x in elements_of(dom)}
    missed = [t for t in elements_of(cod) if t not in targets]
    for t in list(targets)[:5]:
        x = solve_congruence(mat, dom, cod, t)
        assert x is not None
        assert apply_hom(mat, x, cod) == tuple(t)
    for t in missed[:5]:
        assert solve_congruence(mat, dom, cod, t) is None
