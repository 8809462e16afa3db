"""Finite abelian groups in invariant-factor presentation.

A group is a tuple of positive integers ``orders`` standing for
Z/orders[0] + ... + Z/orders[n-1]; a morphism from ``dom`` to ``cod`` is an
integer matrix with len(cod) rows and len(dom) columns, entries reduced mod
the codomain order of their row.  All arithmetic is exact (Python ints).

The factorization system takes E = surjective morphisms and M = injective
ones.  A pullback along a one-to-one m is the preimage of im m inside the
domain of f, the kernel of f followed by the quotient by im m; a pushout
along an onto e is the codomain of f modulo f(ker e).  Both read the
quotient or kernel of the leg they hold fixed, and lift through it, off one
Smith form of that leg, which the instance keeps.  Factorizations are
images, and classification reads the order of a cokernel: each
construction reads its answer off the Smith normal forms over Z it
computes, with no second algorithm beside them.
"""
from __future__ import annotations

import bisect
import collections.abc
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .core import (
    Instance,
    Mor,
    ObjHandle,
    OrthClass,
    SpanCatError,
    Square,
    ValidationFailure,
    json_ints,
    json_list,
    require,
)

Matrix = tuple[tuple[int, ...], ...]
Orders = tuple[int, ...]
Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def identity_matrix(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def freeze(mat: Iterable[Iterable[int]]) -> Matrix:
    return tuple(map(tuple, mat))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    mul = operator.mul
    return [[sum(map(mul, ai, col)) for col in cols] for ai in a]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    mul = operator.mul
    return [sum(map(mul, ai, v)) for ai in a]


@dataclass(frozen=True)
class SNF:
    """U @ A @ V == D with U, V unimodular and D diagonal with
    d1 | d2 | ... ; nonzero entries first, all non-negative.  Uinv is the
    inverse of U.  Only the transforms the caller of smith_normal_form
    names are computed; the others are None."""

    U: Optional[Matrix]
    D: Matrix
    V: Optional[Matrix]
    Uinv: Optional[Matrix]

    @property
    def diag(self) -> tuple[int, ...]:
        D = self.D
        return tuple(map(operator.getitem, D, range(len(D[0])))) if D else ()


def smith_normal_form(mat: Sequence[Sequence[int]], *, U: bool = False, V: bool = False,
                      Uinv: bool = False) -> SNF:
    """Smith normal form, with those of the transforms U, V and the inverse
    of U that are asked for.  The pivots are chosen from the matrix alone,
    so each transform is the same whichever others are asked for.

    >>> s = smith_normal_form([[2, 0], [0, 3]], V=True)
    >>> s.diag, s.V, s.U
    ((1, 6), ((-1, 3), (1, -2)), None)
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(row) for row in mat]
    if any(map(n.__ne__, map(len, A))):
        raise ValidationFailure("ragged matrix")
    # the row operations act on A and U by rows; the column operations on A
    # and V by columns, and the inverse of each row operation on Uinv
    rows = [A, identity_matrix(m)] if U else [A]
    cols = [A, identity_matrix(n)] if V else [A]
    Ui = identity_matrix(m) if Uinv else []
    t = 0
    while True:
        # the pivot: the first entry, row by row, of least nonzero size;
        # none is smaller than a first 1
        size = pi = pj = 0
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                x = abs(Ai[j])
                if x and (not size or x < size):
                    size, pi, pj = x, i, j
            if size == 1:
                break
        if not size:
            break
        if pi != t:
            for X in rows:
                X[t], X[pi] = X[pi], X[t]
            for r in Ui:
                r[t], r[pi] = r[pi], r[t]
        if pj != t:
            for X in cols:
                for r in X:
                    r[t], r[pj] = r[pj], r[t]
        if A[t][t] < 0:
            for X in rows:
                X[t] = [-x for x in X[t]]
            for r in Ui:
                r[t] = -r[t]
        # clear column t by row operations and row t by column operations;
        # a nonzero remainder becomes the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    for X in rows:
                        X[i] = [x - q * y for x, y in zip(X[i], X[t])]
                    for r in Ui:
                        r[t] += q * r[i]
                    if A[i][t]:
                        for X in rows:
                            X[t], X[i] = X[i], X[t]
                        for r in Ui:
                            r[t], r[i] = r[i], r[t]
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for X in cols:
                        for r in X:
                            r[j] -= q * r[t]
                    if A[t][j]:
                        for X in cols:
                            for r in X:
                                r[t], r[j] = r[j], r[t]
                        dirty = True
        # divisibility: the pivot must divide every remaining entry; else
        # add the first offending row to row t and pivot again
        d = A[t][t]
        offender = None if d == 1 else next(
            (i for i in range(t + 1, m) if any(x % d for x in A[i][t + 1:])), None)
        if offender is None:
            t += 1
            continue
        for X in rows:
            X[t] = [x + y for x, y in zip(X[t], X[offender])]
        for r in Ui:
            r[offender] -= r[t]
    return SNF(freeze(rows[1]) if U else None, freeze(A), freeze(cols[1]) if V else None,
               freeze(Ui) if Uinv else None)


def augmented(mat: Sequence[Sequence[int]], cod: Orders) -> list[list[int]]:
    """[mat | diag(cod)]: mat's rows, each followed by its modulus on the
    diagonal, so that congruences mod cod become equations over Z."""
    m = len(cod)
    return [[*row, *[0] * i, c, *[0] * (m - i - 1)] for i, (row, c) in enumerate(zip(mat, cod))]


def integer_kernel_basis(mat: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis vectors of {x : mat @ x == 0} over Z."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    s = smith_normal_form(mat, V=True)
    diag = s.diag
    return list(zip(*s.V))[len(diag) - diag.count(0):]


# ---------------------------------------------------------------------------
# groups and morphisms (raw level: orders tuples and matrices)
# ---------------------------------------------------------------------------

def validate_orders(orders: Iterable[int]) -> Orders:
    out = tuple(int(o) for o in orders)
    if any(o < 1 for o in out):
        raise ValidationFailure(f"group orders must be positive: {out}")
    return out


def group_size(orders: Orders) -> int:
    return math.prod(orders)


def elements_of(orders: Orders) -> Iterable[Vector]:
    return itertools.product(*(range(o) for o in orders))


def reduce_matrix(mat: Sequence[Sequence[int]], cod: Orders) -> Matrix:
    return tuple([tuple([x % c for x in row]) for row, c in zip(mat, cod)])


def validate_hom(dom: Orders, cod: Orders, mat: Sequence[Sequence[int]]) -> Matrix:
    if len(mat) != len(cod) or any(len(row) != len(dom) for row in mat):
        raise ValidationFailure("matrix shape does not match dom/cod")
    m = reduce_matrix(mat, cod)
    for i, b in enumerate(cod):
        for j, a in enumerate(dom):
            if (a * m[i][j]) % b != 0:
                raise ValidationFailure(
                    f"entry ({i},{j}) = {m[i][j]} does not kill the order-{a} generator mod {b}"
                )
    return m


def hom_compose(g_mat: Matrix, f_mat: Matrix, cod: Orders, ncols: Optional[int] = None) -> Matrix:
    """g . f reduced mod cod, built row by row: entry (i, j) is row i of g
    times column j of f, mod cod[i].  reduce_matrix(mat_mul(g, f), cod) is
    the same product, kept as the tests' reference.

    ncols is the number of columns of f (the size of the overall domain);
    it is only needed when f has zero rows, where it cannot be inferred.
    """
    if not f_mat:
        n = ncols if ncols is not None else 0
        return tuple((0,) * n for _ in cod)
    cols = list(zip(*f_mat))
    mul = operator.mul
    return tuple([tuple([sum(map(mul, row, col)) % c for col in cols])
                  for row, c in zip(g_mat, cod)])


def apply_hom(mat: Matrix, x: Sequence[int], cod: Orders) -> Vector:
    return tuple(map(operator.mod, mat_vec(mat, x), cod))


def hom_identity(orders: Orders) -> Matrix:
    n = len(orders)
    return tuple(
        tuple((1 % orders[i]) if i == j else 0 for j in range(n)) for i in range(n)
    )


def hom_classify(dom: Orders, cod: Orders, mat: Matrix) -> OrthClass:
    """Onto iff the cokernel is trivial, one-to-one iff |dom| . |coker| ==
    |cod|.

    >>> hom_classify((4,), (4,), ((2,),))
    OrthClass(in_E=False, in_M=False)
    """
    c = cokernel_order(cod, mat)
    return OrthClass(in_E=c == 1, in_M=group_size(dom) * c == group_size(cod))


def cokernel_order(cod: Orders, mat: Sequence[Sequence[int]]) -> int:
    """The order of the cokernel of mat: the product of the diagonal of the
    Smith form of [mat | diag(cod)], which has no zero since diag(cod)
    makes that matrix full rank.  No transform is needed for it, and no
    form at all for the trivial cod."""
    return math.prod(smith_normal_form(augmented(mat, cod)).diag) if cod else 1


def augmented_form(mat: Matrix, cod: Orders) -> SNF:
    """The Smith form, with U and V, of [mat | diag(cod)] for a nonempty
    cod, mat a tuple of tuples so that a table can key on it.  It gives the
    quotient by mat's image (``quotient``), its kernel (``kernel_gens``)
    and its solutions (``solve_congruence``)."""
    return smith_normal_form(augmented(mat, cod), U=True, V=True)


def solve_congruence(
    mat: Matrix, dom: Orders, cod: Orders, target: Sequence[int],
    form: Callable[[Matrix, Orders], SNF] = augmented_form,
) -> tuple[Optional[Vector], int]:
    """(one x (mod dom) with mat @ x == target (mod cod), or None; the order
    of the cokernel of mat).  Both come from form(mat, cod), the Smith form
    of [mat | diag(cod)] (augmented_form, or a table of it): the cokernel's
    order is the product of its diagonal.

    >>> solve_congruence(((2,),), (4,), (4,), (2,)), solve_congruence(((2,),), (4,), (4,), (1,))
    (((1,), 2), (None, 2))
    """
    n = len(dom)
    if not cod:
        return tuple(0 for _ in range(n)), 1
    s = form(mat, cod)
    t = mat_vec(s.U, list(target))
    diag = s.diag
    order = math.prod(diag)
    if any(map(operator.mod, t, diag)):
        return None, order
    x_full = mat_vec(s.V, [*map(operator.floordiv, t, diag), *[0] * n])
    return tuple(map(operator.mod, x_full, dom)), order


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def close_elements(ambient: Orders, gens: Iterable[Vector]) -> frozenset[Vector]:
    """The element set of the subgroup of ambient generated by gens, read
    once and reduced mod ambient.  It grows by cosets: a generator g
    outside the group H so far adds t.g + H for 0 < t < r, where r.g is
    the first multiple in H, so each element is built once.

    >>> sorted(close_elements((2, 4), iter([(1, 2), (0, 6), (3, -2)])))
    [(0, 0), (0, 2), (1, 0), (1, 2)]
    """
    seen = {(0,) * len(ambient)}
    cols = [[0] for _ in ambient]  # coordinate i of each element of H
    for g in gens:
        g = x = tuple([g[i] % o for i, o in enumerate(ambient)])
        steps = []
        while x not in seen:
            steps.append(x)
            x = tuple([(a + b) % o for a, b, o in zip(x, g, ambient)])
        if steps:
            cosets = [[(t + h) % o for t in ts for h in col]
                      for ts, col, o in zip(zip(*steps), cols, ambient)]
            seen.update(zip(*cosets))
            for col, coset in zip(cols, cosets):
                col += coset
    return frozenset(seen)


def joint_image(
    x: Orders, z: Orders, to_x: Matrix, to_z: Matrix
) -> tuple[Orders, Orders, frozenset[Vector]]:
    """(x, z, H) for the subgroup H of x + z traced out by the pair of homs
    to_x, to_z out of one apex.  It keys spans and zig-zags: two with
    jointly monic legs are isomorphic iff their keys agree."""
    return x, z, close_elements(x + z, zip(*to_x, *to_z))


def subgroup_from_gens(
    ambient: Orders, gens: Sequence[Vector]
) -> tuple[Orders, Matrix, Matrix]:
    """The subgroup of ambient generated by gens, presented as (orders,
    embedding, coords): orders in invariant-factor form, the matrix of an
    injective hom from that group onto the subgroup, and the matrix whose
    column j is the coordinates of gens[j] in that group.

    With U . rel . V == D the Smith form of the generators' relations, the
    new generators are h = gens . U^-1, so gens[j] is the sum of U[i][j] h_i
    and coordinate i is read mod d_i."""
    n = len(ambient)
    if n == 0:
        gens = []
    k = len(gens)
    if k == 0:
        return (), tuple(() for _ in range(n)), ()
    gen_mat = [[x % o for x in row] for row, o in zip(zip(*gens), ambient)]
    # relation lattice of the chosen generators: k x s, columns are relations
    rel = list(zip(*integer_kernel_basis(augmented(gen_mat, ambient))))[:k]
    s = smith_normal_form(rel, U=True, Uinv=True)
    diag = s.diag
    if len(diag) < k or 0 in diag:
        raise SpanCatError("subgroup relation lattice is not full rank")
    orders = tuple([d for d in diag if d > 1])
    embedding = tuple([tuple([x % o for x, d in zip(row, diag) if d > 1])
                       for row, o in zip(mat_mul(gen_mat, s.Uinv), ambient)])
    coords = tuple([tuple([x % d for x in u]) for u, d in zip(s.U, diag) if d > 1])
    return orders, embedding, coords


def kernel_form(mat: Matrix, cod: Orders) -> SNF:
    return smith_normal_form(augmented(mat, cod), V=True)


def kernel_gens(dom: Orders, cod: Orders, mat: Matrix,
                form: Callable[[Matrix, Orders], SNF] = kernel_form) -> list[Vector]:
    """Generators of the kernel of mat: dom -> cod, reduced mod dom: the
    columns of V past the first len(cod) in form(mat, cod), the Smith form
    of [mat | diag(cod)], which has no zero on its diagonal."""
    basis = list(zip(*form(mat, cod).V))[len(cod):] if cod else identity_matrix(len(dom))
    return [tuple(map(operator.mod, v, dom)) for v in basis]


def quotient(s: SNF) -> tuple[Orders, Matrix]:
    """The cokernel group and the quotient matrix cod -> coker of mat, read
    off the rows of U in the form s of [mat | diag(cod)]."""
    diag = s.diag
    return (tuple([d for d in diag if d > 1]),
            tuple([tuple([x % d for x in u]) for u, d in zip(s.U, diag) if d > 1]))


def cokernel_data(dom: Orders, cod: Orders, mat: Matrix) -> tuple[Orders, Matrix]:
    """The cokernel group and the quotient matrix cod -> coker."""
    if not cod:
        return (), ()
    return quotient(smith_normal_form(augmented(mat, cod), U=True))


# Each of image_subgroup, ab_factorize and ab_pullback_along_M presents its
# subgroup through present(ambient, gens), given gens as a tuple:
# subgroup_from_gens, or a table of it; each cone reads its fixed leg's
# form through form(mat, cod): augmented_form, or a table of it.

def image_subgroup(dom: Orders, cod: Orders, mat: Matrix,
                   present: Callable = subgroup_from_gens) -> tuple[Orders, Matrix, Matrix]:
    return present(cod, tuple(tuple(mat[i][j] for i in range(len(cod))) for j in range(len(dom))))


def ab_factorize(dom: Orders, cod: Orders, mat: Matrix,
                 present: Callable = subgroup_from_gens) -> tuple[Orders, Matrix, Matrix]:
    """(image orders, e: dom -> image, m: image -> cod) with mat == m . e:
    the image is presented on mat's columns, so their coordinates are e."""
    mid, m, e = image_subgroup(dom, cod, mat, present)
    return mid, e, m


def difference_map(c: Orders, f: Matrix, g: Matrix) -> Matrix:
    """[f | -g] mod c: the map a + b -> c that is f on a and -g on b, for
    f: a -> c and g: b -> c.  Its kernel is their pullback."""
    return tuple([tuple([x % ci for x in fi] + [-x % ci for x in gi])
                  for fi, gi, ci in zip(f, g, c)])


def from_columns(cols: Sequence[Vector], nrows: int) -> Matrix:
    """The matrix of nrows rows with the given columns."""
    return tuple(zip(*cols)) if cols else ((),) * nrows


def ab_pullback_along_M(
    a: Orders, b: Orders, c: Orders, f: Matrix, m: Matrix,
    form: Callable[[Matrix, Orders], SNF] = augmented_form,
    present: Callable = subgroup_from_gens,
) -> tuple[Orders, Matrix, Matrix]:
    """Pullback of f: a -> c along the one-to-one m: b -> c.

    Returns (apex orders, leg to a, leg to b).  As m is one-to-one, the
    apex is f^-1(im m) inside a (Cohen, A Course in Computational Algebraic
    Number Theory, 1993, 2.4): the kernel of q . f, for the quotient
    q: c -> coker m read off m's form, presented in a as leg1.  leg2 sends
    each apex generator h to the one y with m y == f h, solved through the
    same form.
    """
    k_orders, q = quotient(form(m, c)) if c else ((), ())
    apex, leg1, _ = present(a, tuple(kernel_gens(a, k_orders, hom_compose(q, f, k_orders, len(a)))))
    lifts = [solve_congruence(m, b, c, apply_hom(f, h, c), form)[0] for h in zip(*leg1)]
    return apex, leg1, from_columns(lifts, len(b))


def ab_pushout_along_E(
    a: Orders, b: Orders, c: Orders, f: Matrix, e: Matrix,
    form: Callable[[Matrix, Orders], SNF] = augmented_form,
) -> tuple[Orders, Matrix, Matrix]:
    """Pushout of f: a -> b along the onto e: a -> c.

    Returns (apex orders, leg from b, leg from c).  As e is onto, the apex
    is b / f(ker e) (Cohen, 2.4): leg1 is the quotient of b by f of the
    generators of ker e read off e's form.  leg2 sends each generator of c
    to leg1 . f of a preimage under e, solved through the same form.
    """
    kernel = kernel_gens(a, c, e, form)
    p_orders, leg1 = cokernel_data(a, b, hom_compose(f, from_columns(kernel, len(a)), b, len(kernel)))
    preimages = [solve_congruence(e, a, c, unit, form)[0] for unit in identity_matrix(len(c))]
    via_b = hom_compose(f, from_columns(preimages, len(a)), b, len(c))
    return p_orders, leg1, hom_compose(leg1, via_b, p_orders, len(c))


def all_subgroups(ambient: Orders) -> list[frozenset[Vector]]:
    """Every subgroup of the ambient group, as element sets, smallest first."""
    trivial = close_elements(ambient, [])
    found = {trivial}
    frontier = [trivial]
    universe = list(elements_of(ambient))
    while frontier:
        h = frontier.pop()
        for x in universe:
            if x in h:
                continue
            h2 = close_elements(ambient, list(h) + [x])
            if h2 not in found:
                found.add(h2)
                frontier.append(h2)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def subgroup_compose(
    x: Orders, y: Orders, z: Orders,
    s_elems: frozenset[Vector], t_elems: frozenset[Vector],
) -> frozenset[Vector]:
    """Relation composition of S <= X + Y and T <= Y + Z, elementwise.

    This is deliberately computed by enumeration, with no categorical
    machinery, so it can serve as an independent oracle.
    """
    nx = len(x)
    ny = len(y)
    by_y: dict[Vector, list[Vector]] = {}
    for t in t_elems:
        by_y.setdefault(t[:ny], []).append(t[ny:])
    out = set()
    for s in s_elems:
        for zz in by_y.get(s[nx:], ()):  # middle components must agree
            out.add(s[:nx] + zz)
    return frozenset(out)


def diagonal_subgroup(x: Orders) -> frozenset[Vector]:
    return frozenset(e + e for e in elements_of(x))


# ---------------------------------------------------------------------------
# the hom group Hom(dom, cod) as a finite abelian group, and equation solving
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomGroup:
    dom: Orders
    cod: Orders
    orders: Orders  # one invariant per stored position
    positions: tuple[tuple[int, int, int, int], ...]  # (row, col, step, gcd)

    @functools.cached_property
    def size(self) -> int:
        return group_size(self.orders)

    def to_coords(self, mat: Matrix) -> Vector:
        out = []
        for (i, j, step, g) in self.positions:
            entry = mat[i][j]
            if entry % step != 0:
                raise ValidationFailure("matrix is not a well-defined morphism")
            out.append((entry // step) % g)
        return tuple(out)

    def from_coords(self, coords: Sequence[int]) -> Matrix:
        rows = [[0] * len(self.dom) for _ in self.cod]
        for c, (i, j, step, g) in zip(coords, self.positions):
            rows[i][j] = (c % g) * step % self.cod[i]
        return freeze(rows)

    def generator(self, k: int) -> Matrix:
        coords = [0] * len(self.positions)
        coords[k] = 1
        return self.from_coords(coords)

    @functools.cached_property
    def runs(self) -> tuple[int, ...]:
        """runs[k] is the number of coordinate tuples of positions < k."""
        return tuple(itertools.accumulate(self.orders, operator.mul, initial=1))

    @functools.cached_property
    def lines(self) -> tuple[tuple[tuple[tuple[int, int, int, int], ...], ...], ...]:
        """The positions (k, i, j, step, order) of each row, then of each
        column, of the matrices."""
        rows = tuple(tuple((k,) + pos for k, pos in enumerate(self.positions) if pos[0] == i)
                     for i in range(len(self.cod)))
        cols = tuple(tuple((k,) + pos for k, pos in enumerate(self.positions) if pos[1] == j)
                     for j in range(len(self.dom)))
        return rows, cols

    def walk(self, live: Sequence[tuple[int, Sequence[int]]], mod: int) -> list[int]:
        """For each coordinate tuple c, in matrix_at index order, the sum of
        values[c[k]] over the pairs (k, values) of live, reduced mod `mod`.
        The positions k of live increase; the others add nothing, so a run
        of them only repeats each sum found so far.

        >>> hom_group((2, 2, 2), (2,)).walk([(0, [0, 1]), (2, [0, 5])], 7)
        [0, 5, 0, 5, 1, 6, 1, 6]
        """
        runs = self.runs
        sums, done = [0], 0
        for k, vals in live:
            if k > done:
                sums = _repeat_each(sums, runs[k] // runs[done])
            done = k + 1
            sums = [(x + v) % mod for x in sums for v in vals]
        return _repeat_each(sums, runs[-1] // runs[done]) if done < len(self.orders) else sums

    def matrix_at(self, i: int) -> Matrix:
        """The matrix at index i, 0 <= i < size: its coordinates are the
        mixed-radix digits of i, the last position's the fastest.  This
        index order is the hom group's one order of its homs.

        >>> hom_group((2, 4), (4,)).matrix_at(5)
        ((2, 1),)
        """
        coords = [0] * len(self.orders)
        for k in reversed(range(len(self.orders))):
            i, coords[k] = divmod(i, self.orders[k])
        return self.from_coords(coords)


def _repeat_each(values: list[int], times: int) -> list[int]:
    if len(values) == 1:
        return values * times
    return [x for x in values for _ in range(times)]


def hom_group(dom: Orders, cod: Orders) -> HomGroup:
    positions = []
    orders = []
    for i, b in enumerate(cod):
        for j, a in enumerate(dom):
            g = math.gcd(a, b)
            if g == 1:
                continue
            positions.append((i, j, b // g, g))
            orders.append(g)
    return HomGroup(dom, cod, tuple(orders), tuple(positions))


# ---------------------------------------------------------------------------
# which homs are onto or one-to-one, from the invariant factors and mod p
# ---------------------------------------------------------------------------

def _primes(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def primary_factors(orders: Orders) -> Orders:
    """The orders of the primary cyclic summands of Z/orders[0] + ...: the
    prime-power parts of each order in turn, by increasing prime.  The
    trivial group has none.

    >>> primary_factors((12, 2)), primary_factors((1,)), primary_factors((8, 6))
    ((4, 3, 2), (), (8, 2, 3))
    """
    out = []
    for o in orders:
        for p in _primes(o):
            q = p
            while o % (q * p) == 0:
                q *= p
            out.append(q)
    return tuple(out)


def invariant_factors(orders: Orders) -> Orders:
    """The invariant factors of Z/orders[0] + ...: each > 1 and dividing the
    next.  The k-th largest is the product of the k-th largest power of each
    prime among the orders' primary factors.

    >>> invariant_factors((6, 2, 1)), invariant_factors((2, 4))
    ((2, 6), (2, 4))
    """
    powers: dict[int, list[int]] = {}
    for q in primary_factors(orders):
        powers.setdefault(_primes(q)[0], []).append(q)
    out = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            out[k] *= q
    return tuple(reversed(out))


def embeds(a: Orders, b: Orders) -> bool:
    """Whether the group a is isomorphic to a subgroup of b, for invariant
    factors: the k-th largest factor of a divides the k-th largest of b
    (Butler, Subgroup Lattices and Symmetric Functions, 1994).  A finite
    abelian group is a quotient of b exactly when it embeds in b.

    >>> embeds((2, 2), (2, 4)), embeds((4,), (2, 2))
    (True, False)
    """
    return len(a) <= len(b) and all(b[-k] % a[-k] == 0 for k in range(1, len(a) + 1))


def prime_tops(orders: Orders) -> tuple[tuple[int, int], ...]:
    """(p, the largest power of p among the primary factors) for each prime
    p dividing the order of the group, by increasing p.

    >>> prime_tops((2, 12))
    ((2, 4), (3, 3))
    """
    top: dict[int, int] = {}
    for q in primary_factors(orders):
        p = _primes(q)[0]
        top[p] = max(top.get(p, q), q)
    return tuple(top.items())


def _steps(span: int, plus: list[list[int]], least: int, vs: Iterable[int]) -> dict[int, int]:
    """For each v of vs, the span of span and v, or 0 where its order is
    not a multiple of least.  A vector of the sum of F_p^w over some primes
    p is numbered by its digits, plus[u][x] numbers u + x, and a span is
    the bitmask of the numbers of its vectors.  Each s + t.v, s in span and
    t prime to the order of v, gives the span v gives, made once."""
    members = list(itertools.compress(itertools.count(), map(int, bin(span)[:1:-1])))
    steps = dict.fromkeys(members, 0 if span.bit_count() % least else span)
    for v in vs:
        if v not in steps:
            grown, same, x, order = span, [], v, 1
            while x:
                x, order = plus[x][v], order + 1
            for t in range(1, order):
                x = plus[x][v]
                coset = list(map(plus[x].__getitem__, members))
                grown = functools.reduce(operator.or_, map((1).__lshift__, coset), grown)
                if math.gcd(t, order) == 1:
                    same += coset
            steps.update(dict.fromkeys(same, 0 if grown.bit_count() % least else grown))
    return steps


class ClassIndices(collections.abc.Sequence):
    """The matrix_at indices of the homs of hg that are onto (in_E) or
    one-to-one, in increasing order.  The length is a count and the k-th
    index a descent of a table of counts, so no index is listed (Kreher
    and Stinson, Combinatorial Algorithms, 1999, ch. 2).

    f is onto iff, for each prime p dividing |cod|, the map dom/p.dom ->
    cod/p.cod it induces is onto (Nakayama): f's entries mod p, on the rows
    with p | cod[i] and the columns with p | dom[j], make a matrix of full
    row rank.  f is one-to-one iff, for each prime p dividing |dom|, it is
    one-to-one on the socles dom[p] -> cod[p]: the same matrix, with entry
    c * dom[j] / gcd mod p at coordinate c where onto reads c * step, has
    full column rank.

    An index orders the coordinates row by row of cod, so the table reads
    one row at a time, each row a vector mod every prime at once.  A state,
    one per span of the rows before it, keeps (counts, row indices,
    states): each tuple of the row's coordinates, in index order, that
    leaves every full rank within reach, the cumulative count of the
    members below it and the state it leads to.

    >>> onto = ClassIndices(hom_group((2, 2), (2, 2)), True)
    >>> len(onto), onto[2], onto[-1], list(onto)
    (6, 9, 14, [6, 7, 9, 11, 13, 14])
    >>> list(ClassIndices(hom_group((6,), (6,)), True)), list(ClassIndices(hom_group((6,), (6,)), False))
    ([1, 5], [1, 5])
    """

    __slots__ = ("_start", "_len", "_sizes")

    def __init__(self, hg: HomGroup, in_E: bool) -> None:
        dom, cod = hg.dom, hg.cod
        ps = _primes(group_size(cod if in_E else dom))
        radices, weights, reaches = [], [], []  # digits, least first; per prime
        for p in ps:
            cols = [j for j, o in enumerate(dom) if o % p == 0]
            weights.append({j: p ** s * math.prod(radices) for s, j in enumerate(cols)})
            radices += [p] * len(cols)
            # reach[i] is p to the number of rows from i on that p divides: a span of
            # p^d vectors before row i can reach rank r iff p^d * reach[i] >= p^r
            reaches.append(list(itertools.accumulate(
                (p if o % p == 0 else 1 for o in reversed(cod)), operator.mul, initial=1))[::-1])
        plus = [[0]]  # plus[u][x] numbers u + x, one digit more each pass
        for p in reversed(radices):
            plus = [[(d + e) % p + p * y for y in row for e in range(p)]
                    for row in plus for d in range(p)]
        fulls = [r[0] if in_E else p ** radices.count(p) for p, r in zip(ps, reaches)]
        layers: list[dict] = [{1: None} if all(r[0] >= f for r, f in zip(reaches, fulls)) else {}]
        for i, line in enumerate(hg.lines[0]):
            keys = [0]  # the number of each coordinate tuple's row vector
            for _, _, j, step, g in line:
                parts = [(p, (step if in_E else dom[j] // g) % p, w.get(j, 0))
                         for p, w in zip(ps, weights) if cod[i] % p == 0]
                adds = [sum(c * m % p * w for p, m, w in parts) for c in range(g)]
                keys = [x + a for x in keys for a in adds]
            # a span after row i keeps every rank within reach iff its order
            # is a multiple of least
            least = math.prod(max(f // r[i + 1], 1) for f, r in zip(fulls, reaches))
            here, there, vs = layers[-1], {}, dict.fromkeys(keys)
            for span in here:
                nexts = list(map(_steps(span, plus, least, vs).__getitem__, keys))
                there.update(dict.fromkeys(filter(None, nexts)))
                here[span] = list(itertools.compress(enumerate(nexts), nexts))
            layers.append(there)
        states = dict.fromkeys(layers.pop(), ((1,), (0,), (None,)))  # past the last row
        while layers:
            here = layers.pop()
            for span, out in here.items():
                live = [(r, states[after]) for r, after in out if states[after]]
                counts = tuple(itertools.accumulate(state[0][-1] for _, state in live))
                here[span] = (counts, *zip(*live)) if live else None
            states = here
        self._start = states.get(1)
        self._len = self._start[0][-1] if self._start else 0
        self._sizes = tuple(math.prod(g for *_, g in line) for line in hg.lines[0])

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> int:
        if not -self._len <= k < self._len:
            raise IndexError("class index out of range")
        k, state, index = k % self._len, self._start, 0
        for size in self._sizes:
            counts, rs, nexts = state
            t = bisect.bisect_right(counts, k)
            if t:
                k -= counts[t - 1]
            index, state = index * size + rs[t], nexts[t]
        return index

    def __iter__(self) -> Iterator[int]:
        return map(self.__getitem__, range(self._len))


def solve_hom_equations(
    dom: Orders,
    cod: Orders,
    eqs: Sequence[tuple[Orders, Matrix, Matrix]],
    groups: Callable[[Orders, Orders], HomGroup],
    form: Callable[[Matrix, Orders], SNF] = augmented_form,
) -> tuple[Optional[Matrix], int]:
    """Solve for w: dom -> cod subject to post . w == rhs equations.

    Each equation is (y, post, rhs) with post: cod -> y and rhs: dom -> y
    matrices; groups(x, y) gives the hom group of x -> y (hom_group, or a
    cache of it).  They make one system of congruences on w's coordinates
    in that group, solved through form (augmented_form, or a table of it):
    its matrix depends on the posts alone, so other right-hand sides read
    the same form.  Returns (one solution or None, number of solutions if
    one exists else 0).
    """
    hg = groups(dom, cod)
    k = len(hg.orders)
    big_orders: list[int] = []
    big_target: list[int] = []
    columns: list[list[int]] = [[] for _ in range(k)]
    for y, post, rhs in eqs:
        hg_y = groups(dom, y)
        big_target.extend(hg_y.to_coords(validate_hom(dom, y, rhs)))
        big_orders.extend(hg_y.orders)
        for t in range(k):
            columns[t].extend(hg_y.to_coords(hom_compose(post, hg.generator(t), y, len(dom))))
    mat = tuple([tuple([columns[t][r] for t in range(k)]) for r in range(len(big_orders))])
    x, coker = solve_congruence(mat, hg.orders, tuple(big_orders), big_target, form)
    if x is None:
        return None, 0
    return hg.from_coords(x), hg.size * coker // math.prod(big_orders)


# ---------------------------------------------------------------------------
# the instance
# ---------------------------------------------------------------------------

class IndexedHoms(collections.abc.Sequence):
    """The morphisms a -> b with matrices hg.matrix_at(i) for i in indices,
    in that order: a pool read by index.  indices is a range or a
    ClassIndices, so neither lists an index.  A member is built when it is
    first read, by index or by iteration, and kept once in ``_built``; no
    other copy is made.  So a draw of one member builds one morphism,
    however large the pool.  It holds the hom group, not the instance, so a
    pool kept by the instance makes no reference cycle."""

    __slots__ = ("_hg", "_a", "_b", "indices", "_len", "_built")

    def __init__(self, hg: HomGroup, a: ObjHandle, b: ObjHandle,
                 indices: Sequence[int]) -> None:
        self._hg, self._a, self._b = hg, a, b
        self.indices, self._len = indices, len(indices)
        self._built: dict[int, Mor] = {}  # by position in the pool

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> Mor:
        hit = self._built.get(k)
        if hit is None:
            i = self.indices[k]
            hit = self._built.setdefault(k % self._len, Mor(self._a, self._b, self._hg.matrix_at(i)))
        return hit


# The capacities of FinAbInstance's three bounded tables.
CONSTRUCTIONS_CAPACITY = 512
PRESENTATIONS_CAPACITY = 512
FORMS_CAPACITY = 512


class FinAbInstance(Instance):
    """Finite abelian groups with E = onto and M = one-to-one homs.

    Its tables live as long as the instance, and all are
    ``functools.lru_cache``s; its pools are kept in ``memo.pools`` (see
    ``core.Memo``).  Those keyed by catalog objects (hom groups,
    invariant factors, prime tops, subgroups) are unbounded, since the
    bound of a run caps them, and so is ``_classify``, of hom_classify:
    its keys are single morphisms, few per run, with two flags each.
    has_class_hom keeps nothing of its own: it reads ``_invariants``, and
    each sampler keeps its answers.  The three tables that grow with the
    samples of a run are bounded, least recently used first out, by the
    capacities above:
    - ``_constructions`` holds ab_pullback_along_M, ab_pushout_along_E and
      ab_factorize by their raw inputs, for pullback_along_M,
      pushout_along_E and factorize.  The class checks run in front of it,
      so a rejected input raises on every call; a construction that raises
      stores nothing.
    - ``_present`` holds subgroup_from_gens by (ambient, gens), for the
      kernels and images that ab_pullback_along_M and ab_factorize
      present.  Two different inputs to these often present the same
      subgroup on the same generators, and each presentation reads two
      Smith forms.
    - ``_forms`` holds augmented_form by (matrix, cod), for the matrix a
      construction holds fixed: the m of a pullback, the e of a pushout
      and the system of solve_post_payloads.  A cone reads its fixed leg's
      quotient or kernel and every lift through that leg off one form, and
      a leg or system met again with other inputs makes no new one.
    compose_all keeps nothing: the decisions and scans keep its walks, as
    ids, in ``memo.walks`` (see ``core.Memo``).

    ``Instance`` checks the ends and classes of every construction and of
    solve_post_system, and keeps every pool; the hooks here compute only
    payloads and pools.  solve_post_payloads solves by congruences.

    Its pools are ``IndexedHoms``, which build a morphism when it is
    read.  enumerate_homs reads the hom group through a range and is made
    on each call; class_homs keeps it in ``memo.pools`` as the pool of
    class any.  class_pool makes the E, M and iso pools, one object under
    all three keys between groups of one order.  These read a
    ClassIndices, which counts the full-rank matrices mod each prime, so no
    index is listed and no hom outside the class is made: a draw from
    Aut(Z2^5) builds one of its 9,999,360 members.  compose_all with a
    class reads the composites of a kept pool off its walk at the pool's
    indices, so the sampler's commuting pair builds only the two members
    it draws.
    """

    name = "finab"

    def __init__(self) -> None:
        self._constructions = functools.lru_cache(maxsize=CONSTRUCTIONS_CAPACITY)(
            lambda build, *args: build(*args))
        self._hom_group = functools.lru_cache(maxsize=None)(hom_group)
        self._invariants = functools.lru_cache(maxsize=None)(invariant_factors)
        self._present = functools.lru_cache(maxsize=PRESENTATIONS_CAPACITY)(subgroup_from_gens)
        self._forms = functools.lru_cache(maxsize=FORMS_CAPACITY)(augmented_form)
        self._classify = functools.lru_cache(maxsize=None)(hom_classify)
        self._prime_tops = functools.lru_cache(maxsize=None)(prime_tops)
        self.subgroups = functools.lru_cache(maxsize=None)(all_subgroups)

    # objects
    def validate_obj(self, key: Any) -> Orders:
        return validate_orders(key)

    def describe_obj(self, key: Orders) -> str:
        if not key:
            return "0"
        return "+".join(f"Z/{o}" for o in key)

    def group(self, *orders: int) -> ObjHandle:
        return self.obj(tuple(orders))

    def decision_objects(self, sq: Square, bound: int, op: bool = False) -> list[ObjHandle]:
        """Z/p^e(p) for each prime p dividing the order of a corner of sq,
        by increasing p, where p^e(p) is the largest power of p among the
        corners' primary factors; the bound is not read.  The bijection at
        these alone decides the square exactly, in both directions (see the
        axioms module)."""
        top: dict[int, int] = {}
        for corner in (sq.apex, sq.top.cod, sq.left.cod, sq.bottom_right):
            for p, q in self._prime_tops(corner.obj_key):
                if q > top.get(p, 1):
                    top[p] = q
        return [self.obj((top[p],)) for p in sorted(top)]

    def scan_objects(self, a: ObjHandle, bound: int) -> list[ObjHandle]:
        """Z/p for each prime p dividing the order of a, by increasing p; the
        bound is not read.  A hom is one-to-one exactly when no Z/p maps
        into its kernel, and onto exactly when its cokernel maps onto no
        Z/p (see the axioms module)."""
        return [self.obj((p,)) for p in _primes(group_size(a.obj_key))]

    # morphisms
    def hom(self, a: ObjHandle, b: ObjHandle, rows: Sequence[Sequence[int]]) -> Mor:
        return Mor(a, b, validate_hom(a.obj_key, b.obj_key, rows))

    def check_payload(self, f: Mor) -> None:
        # a payload is reduced mod cod, so that equal homs have equal payloads
        if validate_hom(f.dom.obj_key, f.cod.obj_key, f.payload) != f.payload:
            raise ValidationFailure(f"matrix {f.payload!r} is not reduced mod {f.cod.obj_key}")

    def compose_payloads(self, g: Mor, f: Mor) -> Matrix:
        return hom_compose(g.payload, f.payload, g.cod.obj_key, len(f.dom.obj_key))

    def identity(self, a: ObjHandle) -> Mor:
        return Mor(a, a, hom_identity(a.obj_key))

    def compose_all(self, g: Mor, t: ObjHandle, op: bool = False, cls: str = "any") -> tuple:
        # u |-> g . u (u . g with op) is additive, and the hom group generator
        # at position (i, j, step) is step in entry (i, j) and zero elsewhere,
        # so its image is step times column i (row j with op) of g.  Each
        # entry of the composite is then a walk of the hom group's
        # coordinates by additions of those images alone.  A class pool's
        # composites are those at its indices, picked from each entry's walk.
        # A hom group of one member, and so a class pool of it that is not
        # empty, holds the zero map alone.
        indices = None
        if cls != "any":
            pool = self.class_homs(*((g.cod, t) if op else (t, g.dom)), cls)
            if not pool:
                return ()
            indices = list(pool.indices)
        mat = g.payload
        if op:
            hg = self._hom_group(g.cod.obj_key, t.obj_key)
            mods, width = t.obj_key, len(g.dom.obj_key)
        else:
            hg = self._hom_group(t.obj_key, g.dom.obj_key)
            mods, width = g.cod.obj_key, len(t.obj_key)
        if hg.size == 1:
            return (((0,) * width,) * len(mods),)
        n = hg.size if indices is None else len(indices)
        lines = hg.lines[0 if op else 1]
        rows = []
        for r, m in enumerate(mods):
            entries = []
            for c in range(width):
                live = []
                for k, i, j, step, order in lines[r if op else c]:
                    v = step * (mat[j][c] if op else mat[r][i]) % m
                    if v:
                        live.append((k, [x * v % m for x in range(order)]))
                walk = hg.walk(live, m)
                entries.append(walk if indices is None else list(map(walk.__getitem__, indices)))
            rows.append(list(zip(*entries)) if entries else [()] * n)
        return tuple(zip(*rows)) if rows else ((),) * n

    def has_class_hom(self, a: ObjHandle, b: ObjHandle, cls: str = "any") -> bool:
        # an onto a -> b exists iff b embeds in a, a one-to-one one iff a
        # embeds in b; the invariant factors decide both
        if cls == "any":
            return True  # the zero map
        x, y = self._invariants(a.obj_key), self._invariants(b.obj_key)
        if cls == "iso":
            return x == y
        if cls == "E":
            return embeds(y, x)
        if cls == "M":
            return embeds(x, y)
        return super().has_class_hom(a, b, cls)

    def class_pool(self, a: ObjHandle, b: ObjHandle, cls: str) -> Sequence[Mor]:
        if cls not in ("E", "M", "iso"):
            return super().class_pool(a, b, cls)
        x, y = a.obj_key, b.obj_key
        # between groups of one order E, M and the isos are all Aut: one
        # test finds them, and one pool serves all three
        if group_size(x) == group_size(y) and cls != "E":
            return self.class_homs(a, b, "E")
        if cls == "iso":
            return ()
        hg = self._hom_group(x, y)
        return IndexedHoms(hg, a, b, ClassIndices(hg, cls == "E"))

    def classify(self, f: Mor) -> OrthClass:
        return self._classify(f.dom.obj_key, f.cod.obj_key, f.payload)

    def factor_payloads(self, f: Mor) -> tuple[Orders, Matrix, Matrix]:
        return self._constructions(ab_factorize, f.dom.obj_key, f.cod.obj_key, f.payload,
                                   self._present)

    def solve_post_payloads(self, dom: ObjHandle, cod: ObjHandle,
                            eqs: Sequence[tuple[Mor, Mor]]) -> tuple[Optional[Matrix], int]:
        sys_eqs = [(post.cod.obj_key, post.payload, rhs.payload) for post, rhs in eqs]
        return solve_hom_equations(dom.obj_key, cod.obj_key, sys_eqs, self._hom_group,
                                   self._forms)

    def pullback_payloads(self, f: Mor, m: Mor) -> tuple[Orders, Matrix, Matrix]:
        return self._constructions(ab_pullback_along_M, f.dom.obj_key, m.dom.obj_key,
                                   f.cod.obj_key, f.payload, m.payload, self._forms, self._present)

    def pushout_payloads(self, f: Mor, e: Mor) -> tuple[Orders, Matrix, Matrix]:
        return self._constructions(ab_pushout_along_E, f.dom.obj_key, f.cod.obj_key,
                                   e.cod.obj_key, f.payload, e.payload, self._forms)

    def enumerate_objects_up_to(self, bound: int) -> list[ObjHandle]:
        return [self.obj(o) for o in invariant_factor_groups(bound)]

    def enumerate_homs(self, a: ObjHandle, b: ObjHandle) -> Sequence[Mor]:
        hg = self._hom_group(a.obj_key, b.obj_key)
        return IndexedHoms(hg, a, b, range(hg.size))

    def span_iso_key(self, d: Mor, m: Mor) -> Any:
        return joint_image(d.cod.obj_key, m.cod.obj_key, d.payload, m.payload)

    def rel_pair_key(self, d1: Mor, m1: Mor, d2: Mor, m2: Mor) -> Any:
        # the pullback of the two E-legs over the middle is the kernel of
        # their difference map; its generators, sent along the M-legs,
        # generate the subgroup that keys the pairing of the M-legs on it
        a, b, q = d1.dom.obj_key, d2.dom.obj_key, d1.cod.obj_key
        x, z = m1.cod.obj_key, m2.cod.obj_key
        n = len(a)
        gens = [apply_hom(m1.payload, k[:n], x) + apply_hom(m2.payload, k[n:], z)
                for k in kernel_gens(a + b, q, difference_map(q, d1.payload, d2.payload))]
        return x, z, close_elements(x + z, gens)

    def obj_json(self, a: ObjHandle) -> dict:
        """{"orders": [...]}, the invariant factors."""
        return {"orders": list(a.obj_key)}

    def mor_json(self, f: Mor) -> dict:
        """{"dom", "cod", "matrix"}: the endpoints' orders and the rows."""
        return {"dom": list(f.dom.obj_key), "cod": list(f.cod.obj_key),
                "matrix": [list(row) for row in f.payload]}

    def parse_obj_json(self, data: dict) -> ObjHandle:
        require("orders" in data, "finab object needs an 'orders' field")
        return self.obj(json_ints(data["orders"], "'orders'"))

    def parse_mor_json(self, data: dict) -> Mor:
        for field in ("dom", "cod", "matrix"):
            require(field in data, f"finab morphism needs a {field!r} field")
        dom = self.obj(json_ints(data["dom"], "'dom'"))
        cod = self.obj(json_ints(data["cod"], "'cod'"))
        rows = json_list(data["matrix"], "'matrix'")
        return self.hom(dom, cod, [json_ints(row, "'matrix' row") for row in rows])


def invariant_factor_groups(bound: int) -> list[Orders]:
    """All abelian groups of order <= bound in invariant-factor form,
    including the trivial group, ordered by (size, factors)."""
    out: list[Orders] = [()]

    def extend(prefix: tuple[int, ...], size: int) -> None:
        start = 2
        for d in range(start, bound // size + 1):
            if prefix and d % prefix[-1] != 0:
                continue
            cand = prefix + (d,)
            out.append(cand)
            extend(cand, size * d)

    extend((), 1)
    return sorted(out, key=lambda o: (group_size(o), o))

