"""Tests for the finite abelian group instance.

Expected values were derived by hand (kernels, images and normal forms of
2x2 integer matrices) and frozen here; the hypothesis tests check the
algebraic laws against brute-force enumeration oracles.
"""
from __future__ import annotations

import gc
import itertools
import random
import tracemalloc
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spancat import finab
from spancat.axioms import run_axiom_suite
from spancat.core import (
    ClassViolation,
    EndpointMismatch,
    Mor,
    Square,
    ValidationFailure,
)
from spancat.finab import (
    FinAbInstance,
    IndexedHoms,
    ab_factorize,
    ab_pullback_along_M,
    ab_pushout_along_E,
    all_subgroups,
    apply_hom,
    close_elements,
    cokernel_data,
    cokernel_order,
    diagonal_subgroup,
    elements_of,
    freeze,
    from_columns,
    group_size,
    hom_classify,
    hom_compose,
    hom_group,
    image_subgroup,
    integer_kernel_basis,
    joint_image,
    invariant_factor_groups,
    invariant_factors,
    kernel_gens,
    mat_mul,
    primary_factors,
    reduce_matrix,
    smith_normal_form,
    solve_congruence,
    solve_hom_equations,
    subgroup_compose,
    subgroup_from_gens,
    validate_hom,
)
from spancat.gen import Sampler
from spancat.relations import run_associativity_suite
from test_snf import generators_in, reference_ab_pullback

INST = FinAbInstance()


def all_matrices(hg):
    """Every matrix of the hom group hg, its coordinates by
    itertools.product: the reference for matrix_at's index order, which
    reads no matrix_at."""
    return [hg.from_coords(c) for c in itertools.product(*(range(g) for g in hg.orders))]


def brute_kernel(dom, cod, mat):
    return {x for x in elements_of(dom) if not any(apply_hom(mat, x, cod))}


def brute_image(dom, cod, mat):
    return {apply_hom(mat, x, cod) for x in elements_of(dom)}


def kernel_subgroup(dom, cod, mat):
    """The kernel of mat: dom -> cod, presented by subgroup_from_gens."""
    return subgroup_from_gens(dom, tuple(kernel_gens(dom, cod, mat)))


def presented(sub, ambient):
    """The element set of a subgroup presented as (orders, embedding, ...)."""
    orders, emb = sub[:2]
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
    s = smith_normal_form(mat, U=True, V=True)
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
    orders, emb, _ = kernel_subgroup((4,), (4,), ((2,),))
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
    apex, leg1, leg2 = ab_pullback_along_M((4,), (2,), (2,), ((1,),), ((1,),))
    assert apex == (4,)
    pairs = {
        (apply_hom(leg1, x, (4,)), apply_hom(leg2, x, (2,)))
        for x in elements_of(apex)
    }
    assert pairs == {((a,), (a % 2,)) for a in range(4)}


def test_pushout_of_z2_inclusion_along_collapse():
    # Z/4 <--x2-- Z/2 --!--> 0  gives  Z/4 / <2> = Z/2
    apex, leg1, leg2 = ab_pushout_along_E((2,), (4,), (), ((2,),), ())
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


def reference_close_elements(ambient, gens):
    """close_elements as a breadth-first walk: each element found adds
    every generator, so each is built once per generator."""
    zero = tuple(0 for _ in ambient)
    seen = {zero}
    frontier = [zero]
    gen_list = [tuple(g[i] % ambient[i] for i in range(len(ambient))) for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gen_list:
            y = tuple((x[i] + g[i]) % ambient[i] for i in range(len(ambient)))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def assert_closes_as_reference(ambient, gens):
    got = close_elements(ambient, iter(gens))  # read once, as joint_image's zip
    assert type(got) is frozenset
    assert got == reference_close_elements(ambient, gens), (ambient, gens)


def test_close_elements_matches_the_walk_on_generator_pairs_up_to_order_16():
    cases = 0
    for ambient in invariant_factor_groups(16):
        elems = list(elements_of(ambient))
        for g, h in itertools.product(elems, repeat=2):
            assert_closes_as_reference(ambient, [g, h])
            cases += 1
    assert cases == 2889


def test_close_elements_on_edge_inputs():
    assert close_elements((), []) == close_elements((), [(), ()]) == frozenset({()})
    assert close_elements((2, 4), []) == frozenset({(0, 0)})
    # unreduced and negative entries, and generators already in the group
    for gens in ([(3, -2)], [(-1, 6), (1, 2), (0, 0)], [(0, 2), (0, 2), (0, -6), (2, 4)],
                 [(1, 1), (2, 2), (-1, -1), (5, 7)]):
        assert_closes_as_reference((2, 4), gens)
    gens = [(1, 0), (0, 1)]
    assert close_elements((2, 4), iter(gens)) == frozenset(elements_of((2, 4)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(6, 12), (2, 6, 12), (2, 2, 4), (3, 9), (4, 4)]).flatmap(
    lambda ambient: st.tuples(st.just(ambient), st.lists(
        st.tuples(*(st.integers(-2 * o, 2 * o) for o in ambient)), max_size=5))))
def test_close_elements_matches_the_walk_on_composite_orders(case):
    assert_closes_as_reference(*case)


def test_joint_image_closes_a_zip_of_its_legs():
    # joint_image hands close_elements the columns of both legs as one zip
    for a, x, z in [((2, 4), (4,), (2, 2)), ((6,), (2,), (3,)), ((), (4,), (2,)),
                    ((2,), (), (4,)), ((4,), (), ())]:
        for to_x in all_matrices(hom_group(a, x)):
            for to_z in all_matrices(hom_group(a, z)):
                cols = list(zip(*to_x, *to_z))
                assert joint_image(x, z, to_x, to_z) == (
                    x, z, reference_close_elements(x + z, cols))


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


@pytest.mark.parametrize("dom,cod", [
    ((2, 4), (2, 4, 4)), ((4,), (2, 4)), ((6,), (2, 3)), ((2, 2), (4, 8)),
    ((2,), (3,)),  # no positions: only the zero map
    ((), (4,)), ((2, 4), ()), ((), ()),  # to or from the trivial group
])
def test_matrix_at_reads_all_matrices_order(dom, cod):
    hg = hom_group(dom, cod)
    matrices = all_matrices(hg)
    assert len(matrices) == hg.size
    assert [hg.matrix_at(i) for i in range(hg.size)] == matrices
    a, b = INST.group(*dom), INST.group(*cod)
    assert [f.payload for f in INST.enumerate_homs(a, b)] == matrices


def test_indexed_homs_read_matrix_at_in_index_order():
    hg = hom_group((2, 4), (4,))
    a, b = INST.group(2, 4), INST.group(4)
    pool = IndexedHoms(hg, a, b, [5, 0, 3])
    matrices = all_matrices(hg)
    want = tuple(Mor(a, b, matrices[i]) for i in (5, 0, 3))
    assert len(pool) == 3 and pool[-1] == want[2] and pool[1] is pool[1]
    with pytest.raises(IndexError):
        pool[3]
    assert tuple(pool) == want and list(pool) == list(want)
    assert pool[0] is next(iter(pool))


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
    assert INST.compose(g, f) == INST.identity(a)
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


def _all_homs(inst, bound):
    objs = inst.enumerate_objects_up_to(bound)
    return [f for a in objs for b in objs for f in inst.enumerate_homs(a, b)]


def test_tables_answer_as_fresh_constructions_up_to_order_4():
    # each input twice, so that the second answer is a hit of the table
    inst = FinAbInstance()
    homs = _all_homs(inst, 4)
    assert len(homs) == 60
    cones = 0
    for f in homs:
        for _ in range(2):
            fac = inst.factorize(f)
            assert (fac.mid.obj_key, fac.e.payload, fac.m.payload) == ab_factorize(
                f.dom.obj_key, f.cod.obj_key, f.payload)
        for m in homs:
            if m.cod == f.cod and inst.classify(m).in_M:
                for _ in range(2):
                    cone = inst.pullback_along_M(f, m)
                    assert (cone.apex.obj_key, cone.leg1.payload, cone.leg2.payload) == (
                        ab_pullback_along_M(f.dom.obj_key, m.dom.obj_key, f.cod.obj_key,
                                            f.payload, m.payload))
                cones += 1
        for e in homs:
            if e.dom == f.dom and inst.classify(e).in_E:
                for _ in range(2):
                    cone = inst.pushout_along_E(f, e)
                    assert (cone.apex.obj_key, cone.leg1.payload, cone.leg2.payload) == (
                        ab_pushout_along_E(f.dom.obj_key, f.cod.obj_key, e.cod.obj_key,
                                           f.payload, e.payload))
                cones += 1
    info = inst._constructions.cache_info()
    assert (cones, info.misses, info.hits) == (708, 768, 768)


def test_tables_hold_at_most_their_capacity():
    # every hom up to order 12 factorized, pulled back along the identity
    # and solved for the w with f . w == f: more constructions than the one
    # table holds, more kernels and images than the next, and more post
    # systems than the forms table
    inst = FinAbInstance()
    homs = _all_homs(inst, 12)
    assert len(homs) > finab.CONSTRUCTIONS_CAPACITY
    for f in homs:
        inst.factorize(f)
        inst.pullback_along_M(f, inst.identity(f.cod))
        inst.solve_post_system(f.dom, f.dom, [(f, f)])
    for table, capacity in ((inst._constructions, finab.CONSTRUCTIONS_CAPACITY),
                            (inst._present, finab.PRESENTATIONS_CAPACITY),
                            (inst._forms, finab.FORMS_CAPACITY)):
        info = table.cache_info()
        assert info.maxsize == capacity
        assert info.currsize == capacity < info.misses
    assert inst._constructions.cache_info().misses == 2 * len(homs)


def _presentation_inputs(inst, bound):
    """(ambient, gens) of the kernel and the image of every hom up to
    bound, as a pullback's kernel and image_subgroup hand them to
    present."""
    out = []
    for f in _all_homs(inst, bound):
        dom, cod, mat = f.dom.obj_key, f.cod.obj_key, f.payload
        out.append((dom, tuple(finab.kernel_gens(dom, cod, mat))))
        out.append((cod, tuple(tuple(row[j] for row in mat) for j in range(len(dom)))))
    return out


def test_presentation_table_answers_as_fresh_presentations():
    # each input twice, the second a hit; then all again, after the first
    # ones have been pushed out
    inst = FinAbInstance()
    inputs = _presentation_inputs(inst, 8)
    assert len(set(inputs)) > finab.PRESENTATIONS_CAPACITY
    for ambient, gens in inputs + inputs[::-1]:
        for _ in range(2):
            assert inst._present(ambient, gens) == subgroup_from_gens(ambient, list(gens))
    info = inst._present.cache_info()
    assert info.currsize == finab.PRESENTATIONS_CAPACITY and info.hits >= len(inputs)


def test_kernels_and_images_present_through_the_table():
    inst = FinAbInstance()
    f = inst.hom(inst.group(2, 4), inst.group(4), [[2, 1]])
    dom, cod, mat = f.dom.obj_key, f.cod.obj_key, f.payload
    kernel = tuple(kernel_gens(dom, cod, mat))
    assert inst._present(dom, kernel) == kernel_subgroup(dom, cod, mat)
    assert image_subgroup(dom, cod, mat, inst._present) == image_subgroup(dom, cod, mat)
    assert inst._present.cache_info().misses == 2
    # factorize presents the image again; the pullback along the identity
    # presents all of dom, a new input
    inst.factorize(f)
    inst.pullback_along_M(f, inst.identity(f.cod))
    assert inst._present.cache_info()[:2] == (1, 3)  # (hits, misses)


def test_class_indices_leave_no_garbage():
    # the count table of End(Z2^3)'s onto homs and what its build makes
    # hold no cycle: the build's spans and sums go when it returns, and the
    # table goes with its last reference, so the collector finds nothing
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        members = finab.ClassIndices(hom_group((2, 2, 2), (2, 2, 2)), True)
        n = len(members)
        del members
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert n == 168  # |GL(3, 2)|
    assert garbage == []


def reference_class_members(hg, in_E):
    """The matrix_at indices of the class, in increasing order, by a walk
    of the whole hom group: one walk keys every hom of hg by its digits mod
    each prime, and a hom is kept when its key is among the keys of the
    full-rank matrices.  Its rank enumeration lists every independent
    choice of vectors, apart from the counting it checks."""
    dom, cod = hg.dom, hg.cod
    side, other = (cod, dom) if in_E else (dom, cod)
    values = [[0] * g for g in hg.orders]
    members, weight = {0}, 1
    for p in finab._primes(group_size(side)):
        line_at = {n: k for k, n in enumerate(i for i, o in enumerate(side) if o % p == 0)}
        coord_at = {n: k for k, n in enumerate(j for j, o in enumerate(other) if o % p == 0)}
        cells = [[] for _ in line_at]
        for k, (i, j, step, g) in enumerate(hg.positions):
            line, s = (i, j) if in_E else (j, i)
            mult = (step if in_E else dom[j] // g) % p
            if line in line_at and s in coord_at and mult:
                cells[line_at[line]].append((coord_at[s], weight))
                for c in range(g):
                    values[k][c] += c * mult % p * weight
                weight *= p
        keys = _reference_independent_keys(p, cells, len(coord_at))
        members = {x + y for x in members for y in keys}
        if not members:
            return []
    # each sum is below the last weight, so reducing by it changes nothing
    sums = hg.walk([(k, vals) for k, vals in enumerate(values) if any(vals)], weight)
    return [n for n, x in enumerate(sums) if x in members]


def _reference_independent_keys(p, lines, width):
    """The keys sum(d * w) of every choice of a vector per line, (s, w) a
    cell at coordinate s, such that the vectors are linearly independent:
    each drawn outside the span of those before it."""
    def keys_after(k, span):
        if k == len(lines):
            return [0]
        out = []
        for digits in itertools.product(range(p), repeat=len(lines[k])):
            vec = [0] * width
            for (s, _), d in zip(lines[k], digits):
                vec[s] = d
            vec = tuple(vec)
            if vec not in span:
                grown = frozenset(tuple((x + t * y) % p for x, y in zip(u, vec))
                                  for u in span for t in range(p))
                add = sum(d * w for (_, w), d in zip(lines[k], digits))
                out.extend(add + rest for rest in keys_after(k + 1, grown))
        return out
    return keys_after(0, frozenset([(0,) * width]))


def _shared_positions(hg, in_E):
    """The positions of hg whose coordinate is read mod two or more primes:
    those (i, j, step, g) where several primes p | g leave the multiplier
    (step, or dom[j] / g for one-to-one) nonzero mod p."""
    return [k for k, (i, j, step, g) in enumerate(hg.positions)
            if sum((step if in_E else hg.dom[j] // g) % p != 0 for p in finab._primes(g)) > 1]


def assert_class_indices_match(hg, in_E, rng):
    """ClassIndices(hg, in_E) against the oracle: its length, each index
    (500 drawn by rng from a class of more than 3,000) and its walk."""
    members, want = finab.ClassIndices(hg, in_E), reference_class_members(hg, in_E)
    assert len(members) == len(want), (hg.dom, hg.cod, in_E)
    ks = range(len(want)) if len(want) <= 3000 else rng.sample(range(len(want)), 500)
    assert [members[k] for k in ks] == [want[k] for k in ks], (hg.dom, hg.cod, in_E)
    assert list(members) == want, (hg.dom, hg.cod, in_E)
    return want


def test_class_members_match_the_walk_up_to_order_16():
    objs = [a.obj_key for a in INST.enumerate_objects_up_to(16)]
    rng = random.Random(0)
    shared = []  # the cases whose members some coordinate's residues mod two primes fix
    for x in objs:
        for y in objs:
            hg = hom_group(x, y)
            for in_E in (True, False):
                if assert_class_indices_match(hg, in_E, rng) and _shared_positions(hg, in_E):
                    shared.append((x, y, in_E))
    assert len(objs) ** 2 * 2 == 1250
    assert len(shared) == 16
    assert {((6,), (6,), True), ((2, 6), (2, 6), False), ((15,), (15,), True)} <= set(shared)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4, 5, 6, 10, 12, 15, 30]), max_size=2),
       st.lists(st.sampled_from([2, 3, 4, 5, 6, 10, 12, 15, 30]), max_size=2),
       st.booleans())
def test_class_members_match_the_walk_on_composite_orders(dom, cod, in_E):
    hg = hom_group(tuple(dom), tuple(cod))
    assume(hg.size <= 20_000)
    assert_class_indices_match(hg, in_E, random.Random(0))


def test_class_pools_are_sequences_up_to_order_16():
    # past the end raises, negative indices count from it, and a walk ends
    # after len members, also where the hom set has no matrix position
    inst = FinAbInstance()
    objs = inst.enumerate_objects_up_to(16)
    for a in objs:
        for b in objs:
            for cls in ("E", "M"):
                pool = inst.class_homs(a, b, cls)
                n = len(pool)
                for k in (n, -n - 1):
                    with pytest.raises(IndexError):
                        pool[k]
                if n:
                    assert pool[-1] is pool[n - 1] and pool[-n] is pool[0]
                assert len(list(itertools.islice(pool.indices, n + 1))) == n, (a, b, cls)
    no_positions = [(INST.group(2), INST.group(3)), (INST.group(2, 4), INST.group()),
                    (INST.group(), INST.group(3)), (INST.group(), INST.group())]
    for a, b in no_positions:
        assert hom_group(a.obj_key, b.obj_key).positions == ()
        for cls in ("E", "M", "iso"):
            pool = inst.class_homs(a, b, cls)
            members = list(itertools.islice(pool, len(pool) + 1))
            assert members == [pool[k] for k in range(len(pool))], (a, b, cls)


def test_a_class_pool_is_counted_and_drawn_without_a_listing(monkeypatch):
    # Aut(Z2^4): its length is the table's count and a draw one descent;
    # neither walks the table, and the draw builds one morphism
    hg = hom_group((2, 2, 2, 2), (2, 2, 2, 2))
    monkeypatch.setattr(finab.ClassIndices, "__iter__", lambda self: pytest.fail("listed"))
    inst = FinAbInstance()
    a = inst.group(2, 2, 2, 2)
    pool = inst.class_homs(a, a, "E")
    assert len(pool) == 20160
    k = random.Random(0).randrange(20160)
    assert pool[k].payload == hg.matrix_at(reference_class_members(hg, True)[k])
    assert len(pool._built) == 1


def test_class_members_of_the_largest_order_16_pool_stay_small():
    # Aut(Z2^4): 20,160 members of 65,536 homs.  Their listing kept 0.92 MB
    # of indices; the count table keeps a state per span of the rows so far
    hg = hom_group((2, 2, 2, 2), (2, 2, 2, 2))
    tracemalloc.start()
    try:
        members = finab.ClassIndices(hg, True)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(members) == 20160
    assert kept < 512 * 1024


def test_the_class_table_of_aut_z2_5_is_built_in_little_memory():
    # Aut(Z2^5): 9,999,360 members, whose listing took the order-32 run to
    # 900 MB of RSS; the table peaks near 0.6 MB
    tracemalloc.start()
    try:
        members = finab.ClassIndices(hom_group((2,) * 5, (2,) * 5), True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(members) == 9999360
    assert peak < 8 * 1024 * 1024


@pytest.mark.parametrize("op", [False, True])
@pytest.mark.parametrize("cls", ["E", "M", "iso"])
def test_compose_all_of_a_class_matches_compose_loop_on_order_8_catalog(op, cls):
    # every seventh morphism of the order-8 catalog against every object
    inst, objs = FinAbInstance(), INST.enumerate_objects_up_to(8)
    mors = [g for a in objs for b in objs for g in INST.enumerate_homs(a, b)][::7]
    for g in mors:
        for t in objs:
            if op:
                loop = [inst.compose(u, g).payload for u in inst.class_homs(g.cod, t, cls)]
            else:
                loop = [inst.compose(g, u).payload for u in inst.class_homs(t, g.dom, cls)]
            assert inst.compose_all(g, t, op, cls) == tuple(loop), (g, t)


def test_has_class_hom_reads_invariant_factors_once_per_object(monkeypatch):
    calls = []
    monkeypatch.setattr(finab, "invariant_factors",
                        lambda orders: calls.append(orders) or invariant_factors(orders))
    inst, objs = FinAbInstance(), INST.enumerate_objects_up_to(16)
    for a in objs:
        for b in objs:
            for cls in ("any", "E", "M", "iso"):
                inst.has_class_hom(a, b, cls)
    assert sorted(calls) == sorted(a.obj_key for a in objs)


def test_finab_instance_is_freed_by_reference_counting():
    # the instance's pools hold hom groups, not the instance, so after a run
    # of each suite nothing the instance keeps refers back to it, and it
    # goes at del with the collector off
    gc.disable()
    try:
        inst = FinAbInstance()
        run_axiom_suite(inst, 0, 100, 8)
        run_associativity_suite(inst, 0, 20, 8)
        ref = weakref.ref(inst)
        del inst
        assert ref() is None
    finally:
        gc.enable()


def test_rejected_cones_raise_on_every_call():
    inst = FinAbInstance()
    z4, z2 = inst.group(4), inst.group(2)
    onto = inst.hom(z4, z2, [[1]])
    into = inst.hom(z2, z4, [[2]])
    for _ in range(2):
        with pytest.raises(ClassViolation):
            inst.pullback_along_M(onto, onto)
        with pytest.raises(ClassViolation):
            inst.pushout_along_E(into, into)
    assert inst._constructions.cache_info().currsize == 0


def test_compose_all_results_are_read_only():
    inst = FinAbInstance()
    z2, z2_4 = inst.group(2), inst.group(2, 4)
    g = inst.hom(z2_4, z2, [[1, 1]])
    out = inst.compose_all(g, z2)
    assert type(out) is tuple and all(type(k) is tuple for k in out)
    with pytest.raises(TypeError):
        out[0] = out[1]
    assert inst.compose_all(g, z2) == out


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
            assert INST.compose_all(g, t, op) == tuple(loop), (g, t)


@pytest.mark.parametrize("op", [False, True])
@pytest.mark.parametrize("cls", ["any", "E", "M", "iso"])
def test_compose_all_through_a_hom_set_of_the_zero_map_alone(op, cls, monkeypatch):
    # Z/2 -> Z/3 and the maps into or out of the trivial group: the hom set
    # holds one member, whose composites are zero matrices read without a walk
    inst = FinAbInstance()
    z0, z2, z3, z4, z6 = (inst.group(*o) for o in [(), (2,), (3,), (4,), (6,)])
    z24 = inst.group(2, 4)
    if op:  # u . g for u: g.cod -> t
        cases = [(inst.hom(z4, z2, [[1]]), z3), (inst.hom(z24, z2, [[1, 1]]), z3),
                 (inst.hom(z2, z0, []), z4), (inst.hom(z3, z6, [[2]]), z0),
                 (inst.hom(z0, z0, []), z0)]
    else:  # g . u for u: t -> g.dom
        cases = [(inst.hom(z2, z6, [[3]]), z3), (inst.hom(z2, z24, [[1], [2]]), z0),
                 (inst.hom(z0, z4, [[]]), z2), (inst.hom(z2, z0, []), z3),
                 (inst.hom(z0, z0, []), z0)]
    expect = {}
    for g, t in cases:
        us = (inst.enumerate_homs(g.cod, t) if cls == "any" else inst.class_homs(g.cod, t, cls)
              ) if op else (inst.enumerate_homs(t, g.dom) if cls == "any"
                            else inst.class_homs(t, g.dom, cls))
        assert len(inst.enumerate_homs(*((g.cod, t) if op else (t, g.dom)))) == 1
        loop = tuple((inst.compose(u, g) if op else inst.compose(g, u)).payload for u in us)
        assert all(not any(map(any, mat)) for mat in loop)
        expect[g, t] = loop
    monkeypatch.setattr(finab.HomGroup, "walk", None)
    for (g, t), loop in expect.items():
        got = inst.compose_all(g, t, op, cls)
        assert got == loop and type(got) is tuple, (g, t)
        assert all(type(mat) is tuple and all(type(row) is tuple for row in mat) for mat in got)


def test_hom_compose_matches_mat_mul_on_order_8_catalog():
    # the reference product: mat_mul, then each row reduced mod its order;
    # through the trivial group it is the zero matrix
    groups = invariant_factor_groups(8)
    homs = {(a, b): all_matrices(hom_group(a, b)) for a in groups for b in groups}
    pairs = 0
    for a, b, c in itertools.product(groups, repeat=3):
        fs, gs = homs[a, b], homs[b, c]
        got = [hom_compose(g, f, c, len(a)) for f in fs for g in gs]
        if b:
            expect = [reduce_matrix(mat_mul(g, f), c) for f in fs for g in gs]
        else:
            expect = [((0,) * len(a),) * len(c)] * len(got)
        assert got == expect, (a, b, c)
        pairs += len(got)
    assert pairs == 495728


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-12, 12), min_size=n, max_size=n),
                       min_size=m, max_size=m))),
       st.booleans(), st.booleans(), st.booleans())
def test_trimmed_smith_forms_equal_the_full_one(mat, u, v, uinv):
    # the pivots read the matrix alone, so a transform is the same whether
    # or not the others are computed
    full = smith_normal_form(mat, U=True, V=True, Uinv=True)
    s = smith_normal_form(mat, U=u, V=v, Uinv=uinv)
    assert s.D == full.D
    assert s.U == (full.U if u else None)
    assert s.V == (full.V if v else None)
    assert s.Uinv == (full.Uinv if uinv else None)


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
    # same order as the filtered hom set (a pool is a Sequence, not a tuple)
    inst, objs = FinAbInstance(), INST.enumerate_objects_up_to(16)
    sizes = {}
    for a in objs:
        for b in objs:
            scan = classify_scan(a, b)
            for cls, flag in CLASS_FLAGS.items():
                want = tuple(f for f, c in scan if flag(c))
                assert tuple(inst.class_homs(a, b, cls)) == want, (a, b, cls)
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
            assert tuple(inst.class_homs(a, b, cls)) == want, (x, y, cls)
            assert inst.has_class_hom(a, b, cls) == bool(want), (x, y, cls)


def reference_pair_key(d1, m1, d2, m2):
    """The zig-zag key as the pullback gives it: the apex and legs of the
    reference pullback of the E-legs, each leg composed with its M-leg, and
    the joint image of the two composites."""
    x, z = m1.cod.obj_key, m2.cod.obj_key
    apex, leg1, leg2 = reference_ab_pullback(d1.dom.obj_key, d2.dom.obj_key, d1.cod.obj_key,
                                             d1.payload, d2.payload)
    return joint_image(x, z, hom_compose(m1.payload, leg1, x, len(apex)),
                       hom_compose(m2.payload, leg2, z, len(apex)))


def test_rel_pair_key_matches_pullback_reference_up_to_order_4():
    # every pair of EM-spans out of one source, over the order-4 catalog
    inst = FinAbInstance()
    objs = inst.enumerate_objects_up_to(4)
    pairs = 0
    for q in objs:
        spans = [(d, m) for r in objs for x in objs
                 for d in inst.class_homs(r, q, "E") for m in inst.class_homs(r, x, "M")]
        for (d1, m1), (d2, m2) in itertools.product(spans, repeat=2):
            assert inst.rel_pair_key(d1, m1, d2, m2) == reference_pair_key(d1, m1, d2, m2)
            pairs += 1
    assert pairs == 2353


def test_rel_pair_key_matches_pullback_reference_at_order_16():
    inst = FinAbInstance()
    smp = Sampler(inst, "pair-keys", 16)
    for _ in range(200):
        q = smp.obj()
        (d1, m1), (d2, m2) = smp.em_span_legs(src=q), smp.em_span_legs(src=q)
        assert inst.rel_pair_key(d1, m1, d2, m2) == reference_pair_key(d1, m1, d2, m2)


def test_catalog_is_kept_per_bound_and_copied_per_call():
    inst = FinAbInstance()
    first = inst.enumerate_objects_up_to(8)
    first.append(inst.group(3, 3))
    again = inst.enumerate_objects_up_to(8)
    assert again == first[:-1]
    assert again[0] is first[0]


def test_summands_split_into_primary_cyclic_groups():
    # primary_factors gives the orders of the primary cyclic summands
    assert primary_factors(()) == ()
    assert primary_factors((12, 2)) == (4, 3, 2)
    assert primary_factors((8,)) == (8,)


def test_summands_sum_to_their_group_up_to_order_64():
    # the summands' direct sum is the group again, by its Smith normal form,
    # and each summand is cyclic of prime-power order
    for orders in invariant_factor_groups(64):
        qs = primary_factors(orders)
        assert canonical_orders(qs) == orders
        assert invariant_factors(qs) == invariant_factors(orders)
        for q in qs:
            primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % r for r in range(2, p))]
            assert len(primes) == 1, (orders, q)


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
    s = smith_normal_form(mat, U=True, V=True, Uinv=True)
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


def test_cokernel_classify_and_factorize_exhaustive_up_to_order_8():
    # every hom of the order-8 catalog against the brute image and kernel:
    # the cokernel's order, the class, and the image factorization
    groups = invariant_factor_groups(8)
    homs = 0
    for dom in groups:
        for cod in groups:
            for mat in brute_homs(dom, cod):
                img = len(brute_image(dom, cod, mat))
                ker = len(brute_kernel(dom, cod, mat))
                assert group_size(cokernel_data(dom, cod, mat)[0]) == group_size(cod) // img
                c = hom_classify(dom, cod, mat)
                assert (c.in_E, c.in_M) == (img == group_size(cod), ker == 1)
                mid, e, m = ab_factorize(dom, cod, mat)
                assert hom_compose(m, e, cod, len(dom)) == mat
                assert len(brute_image(dom, mid, e)) == group_size(mid) == img
                assert len(brute_kernel(mid, cod, m)) == 1
                homs += 1
    assert (len(groups), homs) == (11, 1128)


def test_cokernel_order_agrees_with_cokernel_data_up_to_order_8():
    # hom_classify reads the order off a Smith form without transforms;
    # cokernel_data builds the group and the quotient map from one with U
    groups = invariant_factor_groups(8)
    homs = 0
    for dom in groups:
        for cod in groups:
            for mat in brute_homs(dom, cod):
                assert cokernel_order(cod, mat) == group_size(cokernel_data(dom, cod, mat)[0])
                homs += 1
    assert homs == 1128


def test_factorize_and_equation_solving_read_one_smith_form(monkeypatch):
    # a cost guard: ab_factorize presents the image (a kernel basis, then the
    # Smith form of the generators' relations) and reads e off that form;
    # solve_hom_equations reads a solution and the count off one Smith form
    calls = []
    snf = finab.smith_normal_form
    monkeypatch.setattr(finab, "smith_normal_form",
                        lambda mat, **kw: calls.append(mat) or snf(mat, **kw))
    groups = invariant_factor_groups(8)
    worst = 0
    for dom in groups:
        for cod in groups:
            for mat in brute_homs(dom, cod):
                calls.clear()
                ab_factorize(dom, cod, mat)
                worst = max(worst, len(calls))
    assert worst == 2
    calls.clear()
    # w: Z/4 -> Z/2 + Z/4 with (0 1) . w == 2 into Z/4 and (0 1) . w == 0
    # into Z/2: the Z/4 entry is 2, the Z/2 entry is free
    sol, count = solve_hom_equations((4,), (2, 4), [
        ((4,), ((0, 1),), ((2,),)),
        ((2,), ((0, 1),), ((0,),)),
    ], hom_group)
    assert len(calls) == 1
    assert sol is not None and count == 2


def test_fill_diagonal_builds_each_hom_group_once(monkeypatch):
    # a cost guard: the equation solver reads its hom groups from the
    # instance's cache, so repeated fills build one group per (dom, cod)
    built = []
    build = finab.hom_group
    monkeypatch.setattr(
        finab, "hom_group", lambda dom, cod: built.append((dom, cod)) or build(dom, cod)
    )
    inst = FinAbInstance()
    z2, z4 = inst.group(2), inst.group(4)
    e = inst.hom(z4, z2, [[1]])
    m = inst.hom(z2, z4, [[2]])
    for k in (0, 1):
        u = inst.hom(z4, z2, [[k]])
        v = inst.hom(z2, z4, [[2 * k]])
        for _ in range(3):
            w = inst.fill_diagonal(Square(top=e, left=u, right=v, bottom=m))
            assert w == inst.hom(z2, z2, [[k]])
    assert built and len(built) == len(set(built))


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
            orders, emb, _ = subgroup_from_gens(ambient, sorted(h))
            assert orders == canonical_orders(orders)
            assert group_size(orders) == len(h)
            assert presented((orders, emb), ambient) == h
            subgroups += 1
    assert (len(ambients), subgroups) == (42, 362)


@st.composite
def pullback_inputs(draw):
    # g: b -> c the inclusion of a drawn subgroup
    a = draw(small_orders)
    c = draw(small_orders)
    hf = hom_group(a, c)
    f = hf.from_coords(tuple(draw(st.integers(0, g - 1)) for g in hf.orders))
    b, g, _ = subgroup_from_gens(c, draw(generators_in(c)))
    return a, b, c, f, g


@settings(max_examples=40, deadline=None)
@given(pullback_inputs())
def test_pullback_matches_brute_force(data):
    a, b, c, f, g = data
    apex, leg1, leg2 = ab_pullback_along_M(a, b, c, f, g)
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
    # g: c -> b the quotient by a drawn subgroup
    c = draw(small_orders)
    a = draw(small_orders)
    b, g = cokernel_data(c, c, from_columns(draw(generators_in(c)), len(c)))
    assume(group_size(a) * group_size(b) <= 36)
    hf = hom_group(c, a)
    f = hf.from_coords(tuple(draw(st.integers(0, g - 1)) for g in hf.orders))
    return c, a, b, f, g


@settings(max_examples=25, deadline=None)
@given(pushout_inputs())
def test_pushout_universal_property_bounded(data):
    c, a, b, f, g = data
    apex, leg1, leg2 = ab_pushout_along_E(c, a, b, f, g)
    nc = len(c)
    assert hom_compose(leg1, f, apex, nc) == hom_compose(leg2, g, apex, nc)
    for t_orders in [(), (2,), (3,), (4,), (2, 2), (6,)]:
        ht = hom_group(apex, t_orders)
        hu = hom_group(a, t_orders)
        hv = hom_group(b, t_orders)
        seen = 0
        for u in all_matrices(hu):
            for v in all_matrices(hv):
                if hom_compose(u, f, t_orders, nc) != hom_compose(v, g, t_orders, nc):
                    continue
                seen += 1
                mediators = [
                    w for w in all_matrices(ht)
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
    b = draw(small_orders)
    c = draw(small_orders)
    ys = draw(st.lists(small_orders, min_size=1, max_size=2))
    assume(group_size(b) * group_size(c) <= 36)
    def draw_hom(dom, cod):
        hg = hom_group(dom, cod)
        return hg.from_coords(tuple(draw(st.integers(0, g - 1)) for g in hg.orders))
    posts = [(y, draw_hom(c, y)) for y in ys]
    w0 = draw_hom(b, c)
    return b, c, posts, w0


@settings(max_examples=30, deadline=None)
@given(equation_instance())
def test_solve_hom_equations_matches_enumeration(data):
    b, c, posts, w0 = data

    def images(w):
        return [hom_compose(post, w, y, len(b)) for y, post in posts]

    rhs = images(w0)
    sol, count = solve_hom_equations(
        b, c, [(y, post, r) for (y, post), r in zip(posts, rhs)], hom_group
    )
    assert sol is not None
    hbc = hom_group(b, c)
    brute = [w for w in all_matrices(hbc) if images(w) == rhs]
    assert count == len(brute)
    assert images(sol) == rhs


@settings(max_examples=30, deadline=None)
@given(group_pair_with_hom())
def test_solve_congruence_agrees_with_brute(data):
    dom, cod, mat = data
    assume(group_size(dom) <= 36)
    targets = {apply_hom(mat, x, cod) for x in elements_of(dom)}
    missed = [t for t in elements_of(cod) if t not in targets]
    order = group_size(cod) // len(targets)
    for t in list(targets)[:5]:
        x, coker = solve_congruence(mat, dom, cod, t)
        assert x is not None and coker == order
        assert apply_hom(mat, x, cod) == tuple(t)
    for t in missed[:5]:
        assert solve_congruence(mat, dom, cod, t) == (None, order)
