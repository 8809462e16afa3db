"""finab's Smith normal form, and the integer helpers around it, against
reference copies of them.

smith_normal_form must pick the same pivots and apply the same row and
column operations as the reference below, the form it had when each
operation was a closure, so that U, D, V and Uinv stay the same matrices
and no construction read off them moves.  The inputs are every matrix the
two finab benchmark units hand it (recorded from in-process runs) and
small matrices drawn by hypothesis.

The helpers that build the forms' inputs and read their answers (products,
kernels, presentations and cokernels) must return what the index-loop
copies below return, with the same tuple and list types, since callers
hash them: on every hom of the order-8 catalog, on hypothesis inputs and
on the empty shapes.

The cones, a pullback along a one-to-one leg and a pushout along an onto
one, are built in one corner rather than in the sum of two, so they
present their apex on other generators than the references below, the
general pullback and pushout on that sum.  They must match them up to the
one iso of cones: the same apex order, homs for legs, a commuting square,
and the same joint image of the legs in a pullback's base sum, or kernel
of the legs on a pushout's.  On larger ambients, where the references
stall, an elementwise oracle takes their place.
"""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancat import finab
from spancat.cli import EXIT_OK, main
from spancat.core import SpanCatError
from spancat.finab import (
    SNF,
    ab_pullback_along_M,
    ab_pushout_along_E,
    apply_hom,
    augmented,
    close_elements,
    cokernel_data,
    difference_map,
    elements_of,
    freeze,
    from_columns,
    group_size,
    hom_compose,
    hom_group,
    identity_matrix,
    integer_kernel_basis,
    invariant_factor_groups,
    kernel_gens,
    mat_mul,
    mat_vec,
    reduce_matrix,
    smith_normal_form,
    subgroup_from_gens,
    validate_hom,
)

FLAGS = list(itertools.product([False, True], repeat=3))  # (U, V, Uinv)


def reference_smith_normal_form(mat, *, U=False, V=False, Uinv=False) -> SNF:
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(row) for row in mat]
    rows = [A] + ([identity_matrix(m)] if U else [])
    cols = [A] + ([identity_matrix(n)] if V else [])
    Ui = identity_matrix(m) if Uinv else None

    def row_add(i, j, c):
        for X in rows:
            X[i] = [x + c * y for x, y in zip(X[i], X[j])]
        if Ui is not None:
            for r in Ui:
                r[j] -= c * r[i]

    def row_swap(i, j):
        for X in rows:
            X[i], X[j] = X[j], X[i]
        if Ui is not None:
            for r in Ui:
                r[i], r[j] = r[j], r[i]

    def row_neg(i):
        for X in rows:
            X[i] = [-x for x in X[i]]
        if Ui is not None:
            for r in Ui:
                r[i] = -r[i]

    def col_add(j, i, c):
        for X in cols:
            for r in X:
                r[j] += c * r[i]

    def col_swap(i, j):
        for X in cols:
            for r in X:
                r[i], r[j] = r[j], r[i]

    def col_neg(j):
        for X in cols:
            for r in X:
                r[j] = -r[j]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while True:
        piv = find_pivot(t)
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if A[t][t] < 0:
            row_neg(t)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, -q)
                    if A[i][t] != 0:
                        row_swap(t, i)
                        if A[t][t] < 0:
                            row_neg(t)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, -q)
                    if A[t][j] != 0:
                        col_swap(t, j)
                        if A[t][t] < 0:
                            col_neg(t)
                        dirty = True
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1
    return SNF(freeze(rows[1]) if U else None, freeze(A), freeze(cols[1]) if V else None,
               freeze(Ui) if Uinv else None)


def assert_same_forms(mat) -> None:
    for u, v, uinv in FLAGS:
        got = smith_normal_form(mat, U=u, V=v, Uinv=uinv)
        assert got == reference_smith_normal_form(mat, U=u, V=v, Uinv=uinv), (mat, u, v, uinv)


@pytest.fixture(scope="module")
def unit_inputs(tmp_path_factory):
    """Every distinct matrix that smith_normal_form is handed by the finab
    axiom suite at order 8 (1000 samples) and the finab associativity
    suite at order 16 (50 samples), both at seed 0."""
    seen: set = set()
    snf = finab.smith_normal_form

    def recording(mat, **kw):
        seen.add(freeze(mat))
        return snf(mat, **kw)

    out = tmp_path_factory.mktemp("units") / "report.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finab, "smith_normal_form", recording)
        for args in (["check-axioms", "--instance", "finab", "--max-order", "8",
                      "--samples", "1000"],
                     ["suite", "--suite", "associativity", "--instance", "finab",
                      "--max-order", "16", "--samples", "50"]):
            assert main([*args, "--seed", "0", "--out", str(out)]) == EXIT_OK
    return sorted(seen)


def test_forms_match_the_reference_on_the_units_inputs(unit_inputs):
    assert len(unit_inputs) > 1000
    assert {len(mat) for mat in unit_inputs} >= {1, 2, 3, 4}
    for mat in unit_inputs:
        assert_same_forms(mat)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-30, 30), min_size=n, max_size=n), max_size=4)))
def test_forms_match_the_reference_on_small_matrices(mat):
    assert_same_forms(mat)


# ---------------------------------------------------------------------------
# the helpers around the forms
# ---------------------------------------------------------------------------

def reference_mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = []
    for i in range(rows):
        ai = a[i]
        row = []
        for j in range(cols):
            row.append(sum(ai[k] * b[k][j] for k in range(inner)))
        out.append(row)
    return out


def reference_mat_vec(a, v):
    return [sum(ai[k] * v[k] for k in range(len(v))) for ai in a]


def reference_augmented(mat, cod):
    m = len(cod)
    return [list(mat[i]) + [cod[i] if k == i else 0 for k in range(m)] for i in range(m)]


def reference_integer_kernel_basis(mat):
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    s = reference_smith_normal_form(mat, V=True)
    diag = s.diag
    rank = sum(1 for d in diag if d != 0)
    basis = []
    for j in range(rank, n):
        basis.append(tuple(s.V[i][j] for i in range(n)))
    return basis


def reference_reduce_matrix(mat, cod):
    return tuple(
        tuple(x % cod[i] for x in row) for i, row in enumerate(mat)
    )


def reference_subgroup_from_gens(ambient, gens):
    n = len(ambient)
    if n == 0:
        gens = []
    k = len(gens)
    if k == 0:
        return (), tuple(() for _ in range(n)), ()
    gen_mat = [[gens[j][i] % ambient[i] for j in range(k)] for i in range(n)]
    rel_rows = [gen_mat[i] + [ambient[i] if t == i else 0 for t in range(n)] for i in range(n)]
    kernel = reference_integer_kernel_basis(rel_rows)
    rel = [[vec[j] for vec in kernel] for j in range(k)]
    s = reference_smith_normal_form(rel, U=True, Uinv=True)
    diag = s.diag
    if len(diag) < k or any(d == 0 for d in diag):
        raise SpanCatError("subgroup relation lattice is not full rank")
    kept = [i for i in range(k) if diag[i] > 1]
    orders = tuple(diag[i] for i in kept)
    h = reference_mat_mul(gen_mat, s.Uinv)
    embedding = tuple(tuple(h[r][i] % ambient[r] for i in kept) for r in range(n))
    coords = tuple(tuple(x % diag[i] for x in s.U[i]) for i in kept)
    return orders, embedding, coords


def reference_kernel_gens(dom, cod, mat):
    n = len(dom)
    rows = reference_augmented(mat, cod)
    if not rows:
        basis = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    else:
        basis = [vec[:n] for vec in reference_integer_kernel_basis(rows)]
    return [tuple(v[i] % dom[i] for i in range(n)) for v in basis]


def reference_cokernel_data(dom, cod, mat):
    m = len(cod)
    if m == 0:
        return (), ()
    s = reference_smith_normal_form(reference_augmented(mat, cod), U=True)
    diag = s.diag
    kept = [i for i in range(m) if diag[i] > 1]
    q_orders = tuple(diag[i] for i in kept)
    quot = tuple(tuple(s.U[i][j] % diag[i] for j in range(m)) for i in kept)
    return q_orders, quot


def reference_difference_map(c, f, g):
    return tuple(tuple(x % ci for x in fi) + tuple(-x % ci for x in gi)
                 for fi, gi, ci in zip(f, g, c))


def reference_ab_pullback(a, b, c, f, g):
    na, nb = len(a), len(b)
    gens = tuple(reference_kernel_gens(a + b, c, reference_difference_map(c, f, g)))
    apex, emb, _ = reference_subgroup_from_gens(a + b, gens)
    k = len(apex)
    leg1 = reference_reduce_matrix([[emb[i][j] for j in range(k)] for i in range(na)], a)
    leg2 = reference_reduce_matrix([[emb[na + i][j] for j in range(k)] for i in range(nb)], b)
    return apex, leg1, leg2


def reference_ab_pushout(a, b, c, f, g):
    nb, nc = len(b), len(c)
    both = b + c
    pairing = tuple(
        tuple(f[i]) for i in range(nb)
    ) + tuple(
        tuple((-g[i][j]) % c[i] for j in range(len(a))) for i in range(nc)
    )
    q_orders, quot = reference_cokernel_data(a, both, reference_reduce_matrix(pairing, both))
    leg1 = reference_reduce_matrix(
        [[quot[i][j] for j in range(nb)] for i in range(len(q_orders))], q_orders)
    leg2 = reference_reduce_matrix(
        [[quot[i][nb + j] for j in range(nc)] for i in range(len(q_orders))], q_orders)
    return q_orders, leg1, leg2


def is_one_to_one(dom, cod, mat) -> bool:
    """Whether mat: dom -> cod is one-to-one, by the order of the subgroup
    its columns generate."""
    return len(close_elements(cod, zip(*mat))) == group_size(dom)


def is_onto(dom, cod, mat) -> bool:
    """Whether mat: dom -> cod is onto, by the same order."""
    return len(close_elements(cod, zip(*mat))) == group_size(cod)


def assert_pullback_matches(a, b, c, f, m, got) -> None:
    """got is the pullback of f: a -> c along the one-to-one m: b -> c, as
    the reference builds it up to the one iso of cones: the apexes have
    one order, the legs are homs, the square commutes, and the legs trace
    out the reference's subgroup of a + b."""
    apex, leg1, leg2 = got
    expect = reference_ab_pullback(a, b, c, f, m)
    assert apex == expect[0]
    assert validate_hom(apex, a, leg1) == leg1 and validate_hom(apex, b, leg2) == leg2
    assert hom_compose(f, leg1, c, len(apex)) == hom_compose(m, leg2, c, len(apex))
    assert close_elements(a + b, zip(*leg1, *leg2)) == close_elements(a + b, zip(*expect[1], *expect[2]))


def legs_kernel(b, c, cone):
    """The kernel of [leg1 | leg2]: b + c -> apex of a pushout cone, as an
    element set."""
    apex, leg1, leg2 = cone
    joined = tuple([r1 + r2 for r1, r2 in zip(leg1, leg2)])
    return close_elements(b + c, reference_kernel_gens(b + c, apex, joined))


def assert_pushout_matches(a, b, c, f, e, got) -> None:
    """got is the pushout of f: a -> b along the onto e: a -> c, as the
    reference builds it up to the one iso of cones: the apexes have one
    order, the legs are homs, the square commutes, and the legs kill the
    reference's subgroup of b + c."""
    apex, leg1, leg2 = got
    expect = reference_ab_pushout(a, b, c, f, e)
    assert apex == expect[0]
    assert validate_hom(b, apex, leg1) == leg1 and validate_hom(c, apex, leg2) == leg2
    assert hom_compose(leg1, f, apex, len(a)) == hom_compose(leg2, e, apex, len(a))
    assert legs_kernel(b, c, got) == legs_kernel(b, c, expect)


def assert_same(got, expect) -> None:
    """Equal, with the same tuple, list and int types all the way down."""
    assert got == expect
    assert type(got) is type(expect), (got, expect)
    if isinstance(got, (tuple, list)):
        for x, y in zip(got, expect):
            assert_same(x, y)


def assert_hom_helpers_match(dom, cod, mat) -> None:
    """Every one-hom helper on mat: dom -> cod."""
    assert_same(reduce_matrix(mat, cod), reference_reduce_matrix(mat, cod))
    assert_same(augmented(mat, cod), reference_augmented(mat, cod))
    rows = augmented(mat, cod)
    assert_same(integer_kernel_basis(rows), reference_integer_kernel_basis(rows))
    assert_same(kernel_gens(dom, cod, mat), reference_kernel_gens(dom, cod, mat))
    assert_same(cokernel_data(dom, cod, mat), reference_cokernel_data(dom, cod, mat))
    for x in ([1] * len(dom), list(range(len(dom)))):
        assert_same(mat_vec(mat, x), reference_mat_vec(mat, x))
    images = tuple(zip(*mat)) if mat else ((),) * len(dom)
    kernel = tuple(kernel_gens(dom, cod, mat))
    for ambient, gens in ((cod, images), (dom, kernel)):
        assert_same(subgroup_from_gens(ambient, gens), reference_subgroup_from_gens(ambient, gens))


def catalog_homs(bound):
    groups = invariant_factor_groups(bound)
    return {(a, b): [hg.matrix_at(i) for i in range(hg.size)]
            for a in groups for b in groups for hg in [hom_group(a, b)]}


def test_hom_helpers_match_the_references_on_the_order_8_catalog():
    homs = catalog_homs(8)
    count = 0
    for (a, b), mats in homs.items():
        for f in mats:
            assert_hom_helpers_match(a, b, f)
            count += 1
    assert count == 1128


def test_products_and_cones_match_the_references_on_the_order_8_catalog():
    # every 13th product of composable catalog homs through each middle
    # group, every 101st cospan of them for the difference map, and along
    # each one-to-one (onto) catalog hom every 41st cospan (span) that it
    # closes
    homs = catalog_homs(8)
    groups = invariant_factor_groups(8)
    products = differences = cones = 0
    for b in groups:
        into = [f for a in groups for f in homs[a, b]]
        out = [g for c in groups for g in homs[b, c]]
        for f, g in list(itertools.product(into, out))[::13]:
            assert_same(mat_mul(g, f), reference_mat_mul(g, f))
            products += 1
    for c in groups:
        into = [(a, f) for a in groups for f in homs[a, c]]
        for (a, f), (b, g) in list(itertools.product(into, repeat=2))[::101]:
            assert_same(difference_map(c, f, g), reference_difference_map(c, f, g))
            differences += 1
        monos = [(b, m) for b, m in into if is_one_to_one(b, c, m)]
        for i, (b, m) in enumerate(monos):
            for a, f in into[i % len(into)::41]:
                assert_pullback_matches(a, b, c, f, m, ab_pullback_along_M(a, b, c, f, m))
                cones += 1
    for a in groups:
        out = [(b, f) for b in groups for f in homs[a, b]]
        epis = [(c, e) for c, e in out if is_onto(a, c, e)]
        for i, (c, e) in enumerate(epis):
            for b, f in out[i % len(out)::41]:
                assert_pushout_matches(a, b, c, f, e, ab_pushout_along_E(a, b, c, f, e))
                cones += 1
    assert (products, differences, cones) == (38139, 4914, 6550)


def test_helpers_on_empty_shapes():
    # zero rows, zero columns, no generators, a trivial apex or cokernel
    for mat in ([], [[]], [[], []], ((), ())):
        assert_same(mat_mul(mat, []), reference_mat_mul(mat, []))
        assert_same(mat_vec(mat, []), reference_mat_vec(mat, []))
        assert_same(integer_kernel_basis(mat), reference_integer_kernel_basis(mat))
    assert_same(mat_mul([[1, 2]], [[], []]), reference_mat_mul([[1, 2]], [[], []]))
    for dom, cod in (((), ()), ((), (4,)), ((2, 4), ()), ((2,), (3,))):
        mat = ((0,) * len(dom),) * len(cod)
        assert_hom_helpers_match(dom, cod, mat)
    for ambient in ((), (2, 4)):
        assert_same(subgroup_from_gens(ambient, ()), reference_subgroup_from_gens(ambient, ()))
    zero = ((0,),)
    assert ab_pullback_along_M((2,), (3,), (6,), ((3,),), ((2,),))[0] == ()
    assert ab_pushout_along_E((2,), (2,), (), ((1,),), ())[0] == ()
    # the second leg one-to-one or onto; a trivial corner with no factor or
    # with the factor 1
    for a, b, c, f, m in (((2,), (3,), (6,), ((3,),), ((2,),)), ((), (), (), (), ()),
                          ((2,), (), (2,), ((1,),), ((),)), ((3,), (), (2,), zero, ((),)),
                          ((2,), (), (), (), ()), ((2,), (1,), (), (), ()),
                          ((2,), (1,), (2,), ((1,),), zero)):
        assert_pullback_matches(a, b, c, f, m, ab_pullback_along_M(a, b, c, f, m))
    for a, b, c, f, e in (((2,), (2,), (), ((1,),), ()), ((), (), (), (), ()),
                          ((), (2,), (), ((),), ()), ((), (2,), (1,), ((),), ((),)),
                          ((2,), (3,), (2,), zero, ((1,),)), ((2,), (), (1,), (), zero)):
        assert_pushout_matches(a, b, c, f, e, ab_pushout_along_E(a, b, c, f, e))


GROUPS_16 = invariant_factor_groups(16)
# the ambients that subgroups are presented in: a group, or a sum of two
AMBIENTS = sorted({x + z for x in GROUPS_16 for z in GROUPS_16
                   if group_size(x) * group_size(z) <= 64})
small_ints = st.integers(-30, 30)


@st.composite
def hom_of(draw, dom, cod):
    hg = hom_group(dom, cod)
    return hg.matrix_at(draw(st.integers(0, hg.size - 1)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_helpers_match_the_references_on_drawn_inputs(data):
    a, b, c = (data.draw(st.sampled_from(GROUPS_16)) for _ in range(3))
    f, g = data.draw(hom_of(a, c)), data.draw(hom_of(b, c))
    assert_hom_helpers_match(a, c, f)
    assert_same(difference_map(c, f, g), reference_difference_map(c, f, g))
    if is_one_to_one(b, c, g):
        assert_pullback_matches(a, b, c, f, g, ab_pullback_along_M(a, b, c, f, g))
    f, g = data.draw(hom_of(c, a)), data.draw(hom_of(c, b))
    if is_onto(c, b, g):
        assert_pushout_matches(c, a, b, f, g, ab_pushout_along_E(c, a, b, f, g))
    # unreduced integer matrices and generator lists
    m, n, k = (data.draw(st.integers(0, 4)) for _ in range(3))
    x = data.draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=m, max_size=m))
    y = data.draw(st.lists(st.lists(small_ints, min_size=k, max_size=k), min_size=n, max_size=n))
    assert_same(mat_mul(x, y), reference_mat_mul(x, y))
    v = data.draw(st.lists(small_ints, min_size=n, max_size=n))
    assert_same(mat_vec(x, v), reference_mat_vec(x, v))
    assert_same(integer_kernel_basis(x), reference_integer_kernel_basis(x))
    ambient = tuple(data.draw(st.lists(st.integers(1, 12), min_size=m, max_size=m)))
    assert_same(augmented(x, ambient), reference_augmented(x, ambient))
    assert_same(reduce_matrix(x, ambient), reference_reduce_matrix(x, ambient))
    assert_same(cokernel_data((0,) * n, ambient, x), reference_cokernel_data((0,) * n, ambient, x))
    ambient = data.draw(st.sampled_from(AMBIENTS))
    gens = tuple(data.draw(st.lists(st.tuples(*(small_ints for _ in ambient)), max_size=4)))
    assert_same(subgroup_from_gens(ambient, gens), reference_subgroup_from_gens(ambient, gens))


# two corners whose sum has up to four cyclic factors of order <= 60, such
# as (2, 60, 2, 60), where the general pullback stalled in the Smith form
# of its presentation
corners = st.lists(st.integers(1, 60), max_size=2).map(tuple)


@st.composite
def generators_in(draw, ambient):
    """Up to three elements of ambient, to generate a subgroup."""
    return tuple(draw(st.lists(st.tuples(*(st.integers(0, o - 1) for o in ambient)), max_size=3)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cones_match_elementwise_oracles_on_larger_ambients(data):
    # a pullback along the inclusion of a drawn subgroup, against the pairs
    # (x, y) with f x == m y; a pushout along the quotient by a drawn
    # subgroup, whose legs must kill exactly the (f x, -e x): they kill its
    # generators and have the right kernel order, as leg1 is onto
    a, c = data.draw(corners), data.draw(corners)
    b, m, _ = subgroup_from_gens(c, data.draw(generators_in(c)))
    f = data.draw(hom_of(a, c))
    apex, leg1, leg2 = ab_pullback_along_M(a, b, c, f, m)
    assert validate_hom(apex, a, leg1) == leg1 and validate_hom(apex, b, leg2) == leg2
    preimage = {apply_hom(m, y, c): y for y in elements_of(b)}
    pairs = {x + preimage[fx] for x in elements_of(a) if (fx := apply_hom(f, x, c)) in preimage}
    assert group_size(apex) == len(pairs)
    assert close_elements(a + b, zip(*leg1, *leg2)) == pairs

    a, b = data.draw(corners), data.draw(corners)
    c, e = cokernel_data(a, a, from_columns(data.draw(generators_in(a)), len(a)))
    f = data.draw(hom_of(a, b))
    apex, leg1, leg2 = ab_pushout_along_E(a, b, c, f, e)
    assert validate_hom(b, apex, leg1) == leg1 and validate_hom(c, apex, leg2) == leg2
    assert hom_compose(leg1, f, apex, len(a)) == hom_compose(leg2, e, apex, len(a))
    assert is_onto(b, apex, leg1)
    glued = close_elements(b + c, [apply_hom(f, x, b) + apply_hom(e, [-v for v in x], c)
                                   for x in identity_matrix(len(a))])
    assert len(glued) * group_size(apex) == group_size(b) * group_size(c)
