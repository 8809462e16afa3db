"""Finite abelian groups in invariant-factor presentation.

A group is a tuple of positive integers ``orders`` standing for
Z/orders[0] + ... + Z/orders[n-1]; a morphism from ``dom`` to ``cod`` is an
integer matrix with len(cod) rows and len(dom) columns, entries reduced mod
the codomain order of their row.  All arithmetic is exact (Python ints).

The factorization system takes E = surjective morphisms and M = injective
ones.  Pullbacks are kernels of difference maps, pushouts are cokernels of
pairing maps, and everything reduces to Smith normal form over Z.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from .core import (
    ClassViolation,
    ConeResult,
    CrossInstance,
    EndpointMismatch,
    Factorization,
    Instance,
    Mor,
    ObjHandle,
    OrthClass,
    SpanCatError,
    Square,
    ValidationFailure,
    validate_square,
)

Matrix = tuple[tuple[int, ...], ...]
Orders = tuple[int, ...]
Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def freeze(mat: Iterable[Iterable[int]]) -> Matrix:
    return tuple(tuple(row) for row in mat)


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
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


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(ai[k] * v[k] for k in range(len(v))) for ai in a]


@dataclass(frozen=True)
class SNF:
    """U @ A @ V == D with U, V unimodular and D diagonal with
    d1 | d2 | ... ; nonzero entries first, all non-negative."""

    U: Matrix
    D: Matrix
    V: Matrix
    Uinv: Matrix

    @property
    def diag(self) -> tuple[int, ...]:
        m = len(self.D)
        n = len(self.D[0]) if m else 0
        return tuple(self.D[i][i] for i in range(min(m, n)))


def smith_normal_form(mat: Sequence[Sequence[int]]) -> SNF:
    """Smith normal form with both transforms and the inverse of U.

    >>> s = smith_normal_form([[2, 0], [0, 3]])
    >>> s.diag
    (1, 6)
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(row) for row in mat]
    if any(len(row) != n for row in A):
        raise ValidationFailure("ragged matrix")
    U = identity_matrix(m)
    Ui = identity_matrix(m)
    V = identity_matrix(n)

    def row_add(i: int, j: int, c: int) -> None:
        # row i += c * row j ; Uinv column j -= c * column i
        for k in range(n):
            A[i][k] += c * A[j][k]
        for k in range(m):
            U[i][k] += c * U[j][k]
        for k in range(m):
            Ui[k][j] -= c * Ui[k][i]

    def row_swap(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for k in range(m):
            Ui[k][i], Ui[k][j] = Ui[k][j], Ui[k][i]

    def row_neg(i: int) -> None:
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for k in range(m):
            Ui[k][i] = -Ui[k][i]

    def col_add(j: int, i: int, c: int) -> None:
        # col j += c * col i
        for k in range(m):
            A[k][j] += c * A[k][i]
        for k in range(n):
            V[k][j] += c * V[k][i]

    def col_swap(i: int, j: int) -> None:
        for k in range(m):
            A[k][i], A[k][j] = A[k][j], A[k][i]
        for k in range(n):
            V[k][i], V[k][j] = V[k][j], V[k][i]

    def col_neg(j: int) -> None:
        for k in range(m):
            A[k][j] = -A[k][j]
        for k in range(n):
            V[k][j] = -V[k][j]

    def find_pivot(t: int) -> Optional[tuple[int, int]]:
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
        # clear row t and column t
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
        # divisibility: pivot must divide every remaining entry
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
    return SNF(freeze(U), freeze(A), freeze(V), freeze(Ui))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def integer_kernel_basis(mat: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis vectors of {x : mat @ x == 0} over Z."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    s = smith_normal_form(mat)
    diag = s.diag
    rank = sum(1 for d in diag if d != 0)
    basis = []
    for j in range(rank, n):
        basis.append(tuple(s.V[i][j] for i in range(n)))
    return basis


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
    return tuple(
        tuple(x % cod[i] for x in row) for i, row in enumerate(mat)
    )


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
    """g . f reduced mod cod.

    ncols is the number of columns of f (the size of the overall domain);
    it is only needed when f has zero rows, where it cannot be inferred.
    """
    if f_mat:
        n = len(f_mat[0])
    else:
        n = ncols if ncols is not None else 0
    if not f_mat or not g_mat or len(g_mat[0]) == 0:
        return tuple(tuple(0 for _ in range(n)) for _ in range(len(cod)))
    return reduce_matrix(mat_mul(g_mat, f_mat), cod)


def apply_hom(mat: Matrix, x: Sequence[int], cod: Orders) -> Vector:
    return tuple(v % cod[i] for i, v in enumerate(mat_vec(mat, x)))


def hom_identity(orders: Orders) -> Matrix:
    n = len(orders)
    return tuple(
        tuple((1 % orders[i]) if i == j else 0 for j in range(n)) for i in range(n)
    )


def cokernel_size(dom: Orders, cod: Orders, mat: Matrix) -> int:
    """Order of the cokernel of mat: dom -> cod.

    The cokernel is Z^m / L with L the column lattice of [mat | diag(cod)],
    so its order is the index of L, the |determinant| of any triangular
    basis of L (Cohen, A Course in Computational Algebraic Number Theory,
    section 2.4).  A column echelon form without transforms gives one: row r
    gcd-folds columns r+1.. into column r, touching only rows >= r.  The
    diag(cod) columns make L full rank, so no pivot is zero.

    >>> cokernel_size((4,), (4,), ((2,),))
    2
    """
    m = len(cod)
    cols = [[mat[i][j] for i in range(m)] for j in range(len(dom))]
    cols += [[c if i == k else 0 for i in range(m)] for k, c in enumerate(cod)]
    det = 1
    for r in range(m):
        piv = cols[r]
        for col in cols[r + 1:]:
            b = col[r]
            if b:
                a = piv[r]
                g, x, y = _xgcd(a, b)
                p, q = a // g, b // g
                for k in range(r, m):
                    ak, bk = piv[k], col[k]
                    piv[k] = x * ak + y * bk
                    col[k] = p * bk - q * ak
        det *= abs(piv[r])
    return det


def hom_classify(dom: Orders, cod: Orders, mat: Matrix) -> OrthClass:
    c = cokernel_size(dom, cod, mat)
    surj = c == 1
    inj = group_size(dom) * c == group_size(cod)
    return OrthClass(in_E=surj, in_M=inj)


def solve_congruence(
    mat: Sequence[Sequence[int]], dom: Orders, cod: Orders, target: Sequence[int]
) -> Optional[Vector]:
    """One x (mod dom) with mat @ x == target (mod cod), or None."""
    m, n = len(cod), len(dom)
    if m == 0:
        return tuple(0 for _ in range(n))
    aug = [list(mat[i]) + [cod[i] if k == i else 0 for k in range(m)] for i in range(m)]
    s = smith_normal_form(aug)
    t = mat_vec(s.U, list(target))
    y = [0] * (n + m)
    diag = s.diag
    for i in range(m):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if t[i] != 0:
                return None
        else:
            if t[i] % d != 0:
                return None
            y[i] = t[i] // d
    x_full = mat_vec(s.V, y)
    return tuple(x_full[j] % dom[j] if dom[j] else x_full[j] for j in range(n))


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def close_elements(ambient: Orders, gens: Iterable[Vector]) -> frozenset[Vector]:
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


def joint_image(
    x: Orders, z: Orders, to_x: Matrix, to_z: Matrix
) -> tuple[Orders, Orders, frozenset[Vector]]:
    """(x, z, H) for the subgroup H of x + z traced out by the pair of homs
    to_x, to_z out of one apex.  It keys spans and zig-zags: two with
    jointly monic legs are isomorphic iff their keys agree."""
    return x, z, close_elements(x + z, zip(*to_x, *to_z))


def subgroup_from_gens(ambient: Orders, gens: Sequence[Vector]) -> tuple[Orders, Matrix]:
    """The subgroup of ambient generated by gens, presented as (orders,
    embedding): orders in invariant-factor form, and the matrix of an
    injective hom from that group onto the subgroup."""
    n = len(ambient)
    if n == 0:
        gens = []
    k = len(gens)
    if k == 0:
        return (), tuple(() for _ in range(n))
    gen_mat = [[gens[j][i] % ambient[i] for j in range(k)] for i in range(n)]
    # relation lattice of the chosen generators
    rel_rows = [gen_mat[i] + [ambient[i] if t == i else 0 for t in range(n)] for i in range(n)]
    kernel = integer_kernel_basis(rel_rows)
    rel = [[vec[j] for vec in kernel] for j in range(k)]  # k x s, columns are relations
    s = smith_normal_form(rel)
    diag = s.diag
    if len(diag) < k or any(d == 0 for d in diag):
        raise SpanCatError("subgroup relation lattice is not full rank")
    kept = [i for i in range(k) if diag[i] > 1]
    orders = tuple(diag[i] for i in kept)
    emb_cols = []
    for i in kept:
        combo = [s.Uinv[r][i] for r in range(k)]
        col = mat_vec(gen_mat, combo)
        emb_cols.append(tuple(col[r] % ambient[r] for r in range(n)))
    embedding = tuple(tuple(c[r] for c in emb_cols) for r in range(n))
    return orders, embedding


def kernel_gens(dom: Orders, cod: Orders, mat: Matrix) -> list[Vector]:
    n = len(dom)
    m = len(cod)
    rows = [list(mat[i]) + [cod[i] if k == i else 0 for k in range(m)] for i in range(m)]
    if not rows:
        basis = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    else:
        basis = [vec[:n] for vec in integer_kernel_basis(rows)]
    return [tuple(v[i] % dom[i] for i in range(n)) for v in basis]


def kernel_subgroup(dom: Orders, cod: Orders, mat: Matrix) -> tuple[Orders, Matrix]:
    return subgroup_from_gens(dom, kernel_gens(dom, cod, mat))


def image_subgroup(dom: Orders, cod: Orders, mat: Matrix) -> tuple[Orders, Matrix]:
    cols = [tuple(mat[i][j] for i in range(len(cod))) for j in range(len(dom))]
    return subgroup_from_gens(cod, cols)


def cokernel_data(dom: Orders, cod: Orders, mat: Matrix) -> tuple[Orders, Matrix]:
    """The cokernel group and the quotient matrix cod -> coker."""
    m = len(cod)
    if m == 0:
        return (), ()
    aug = [list(mat[i]) + [cod[i] if k == i else 0 for k in range(m)] for i in range(m)]
    s = smith_normal_form(aug)
    diag = s.diag
    kept = [i for i in range(m) if diag[i] > 1]
    q_orders = tuple(diag[i] for i in kept)
    quot = tuple(tuple(s.U[i][j] % diag[i] for j in range(m)) for i in kept)
    return q_orders, quot


def ab_factorize(dom: Orders, cod: Orders, mat: Matrix) -> tuple[Orders, Matrix, Matrix]:
    """(image orders, e: dom -> image, m: image -> cod) with mat == m . e."""
    mid, emb = image_subgroup(dom, cod, mat)
    e_cols = []
    for j in range(len(dom)):
        col = tuple(mat[i][j] for i in range(len(cod)))
        x = solve_congruence(emb, mid, cod, col)
        if x is None:
            raise SpanCatError("factorize: column not in image (internal error)")
        e_cols.append(x)
    e = tuple(tuple(e_cols[j][i] for j in range(len(dom))) for i in range(len(mid)))
    return mid, reduce_matrix(e, mid), emb


def ab_pullback(
    a: Orders, b: Orders, c: Orders, f: Matrix, g: Matrix
) -> tuple[Orders, Matrix, Matrix]:
    """Pullback of f: a -> c against g: b -> c.

    Returns (apex orders, leg to a, leg to b); the apex is the kernel of the
    difference map a + b -> c in canonical form.
    """
    na, nb = len(a), len(b)
    both = a + b
    diff = tuple(
        tuple(list(f[i]) + [-g[i][j] % c[i] for j in range(nb)]) for i in range(len(c))
    )
    apex, emb = kernel_subgroup(both, c, reduce_matrix(diff, c))
    k = len(apex)
    leg1 = reduce_matrix([[emb[i][j] for j in range(k)] for i in range(na)], a)
    leg2 = reduce_matrix([[emb[na + i][j] for j in range(k)] for i in range(nb)], b)
    return apex, leg1, leg2


def ab_pushout(
    a: Orders, b: Orders, c: Orders, f: Matrix, g: Matrix
) -> tuple[Orders, Matrix, Matrix]:
    """Pushout of f: a -> b against g: a -> c.

    Returns (apex orders, leg from b, leg from c); the apex is the cokernel
    of the pairing map a -> b + c.
    """
    nb, nc = len(b), len(c)
    both = b + c
    pairing = tuple(
        tuple(f[i]) for i in range(nb)
    ) + tuple(
        tuple((-g[i][j]) % c[i] for j in range(len(a))) for i in range(nc)
    )
    q_orders, quot = cokernel_data(a, both, reduce_matrix(pairing, both))
    leg1 = reduce_matrix([[quot[i][j] for j in range(nb)] for i in range(len(q_orders))], q_orders)
    leg2 = reduce_matrix([[quot[i][nb + j] for j in range(nc)] for i in range(len(q_orders))], q_orders)
    return q_orders, leg1, leg2


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

    @property
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

    def all_matrices(self) -> Iterable[Matrix]:
        for coords in itertools.product(*(range(g) for g in self.orders)):
            yield self.from_coords(coords)

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

    def walk(self, live: Sequence[tuple[int, Sequence[int]]], mod: int = 0) -> list[int]:
        """For each coordinate tuple c, in all_matrices order, the sum of
        values[c[k]] over the pairs (k, values) of live, reduced mod `mod`
        unless it is 0.  The positions k of live increase; the others add
        nothing, so a run of them only repeats each sum found so far.

        >>> hom_group((2, 2, 2), (2,)).walk([(0, [0, 1]), (2, [0, 5])])
        [0, 5, 0, 5, 1, 6, 1, 6]
        """
        runs = self.runs
        sums, done = [0], 0
        for k, vals in live:
            if k > done:
                sums = _repeat_each(sums, runs[k] // runs[done])
            done = k + 1
            if mod:
                sums = [(x + v) % mod for x in sums for v in vals]
            else:
                sums = [x + v for x in sums for v in vals]
        return _repeat_each(sums, runs[-1] // runs[done]) if done < len(self.orders) else sums

    def matrices_at(self, indices: Sequence[int]) -> list[Matrix]:
        """The matrices at these indices of all_matrices, in that order.

        Positions run row by row, so an index is a mixed-radix number whose
        digits index the rows each row's positions can make; each such row
        is built once and shared by the matrices that hold it."""
        columns, weight = [], 1
        for i in reversed(range(len(self.cod))):
            cells = [(j, [c * step % self.cod[i] for c in range(g)])
                     for _, _, j, step, g in self.lines[0][i]]
            table = []
            for entries in itertools.product(*(vals for _, vals in cells)):
                row = [0] * len(self.dom)
                for (j, _), x in zip(cells, entries):
                    row[j] = x
                table.append(tuple(row))
            size = len(table)
            columns.append([table[n // weight % size] for n in indices])
            weight *= size
        if not columns:
            return [()] * len(indices)
        return list(zip(*reversed(columns)))


def _repeat_each(values: list[int], times: int) -> list[int]:
    if times == 1:
        return values
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


def invariant_factors(orders: Orders) -> Orders:
    """The invariant factors of Z/orders[0] + ...: each > 1 and dividing the
    next.  The k-th largest is the product of the k-th largest power of each
    prime among the orders' prime-power parts.

    >>> invariant_factors((6, 2, 1)), invariant_factors((2, 4))
    ((2, 6), (2, 4))
    """
    powers: dict[int, list[int]] = {}
    for o in orders:
        for p in _primes(o):
            q = p
            while o % (q * p) == 0:
                q *= p
            powers.setdefault(p, []).append(q)
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


def _independent_keys(p: int, lines: list[list[tuple[int, int]]], width: int) -> list[int]:
    """The keys of every way to give each line a vector in F_p^width, zero
    off the line's cells, so that the vectors are linearly independent.

    A cell (s, w) is coordinate s of its line's vector; its digit d adds
    d * w to the key.  Each vector is drawn outside the span of those before
    it, so only members are ever made, and the keys of the later lines are
    made once per span."""
    choices = []
    for cells in lines:
        opts = []
        for digits in itertools.product(range(p), repeat=len(cells)):
            vec = [0] * width
            for (s, _), d in zip(cells, digits):
                vec[s] = d
            opts.append((tuple(vec), sum(d * w for (_, w), d in zip(cells, digits))))
        choices.append(opts)

    @functools.cache
    def keys(k: int, span: frozenset) -> list[int]:
        if k == len(choices):
            return [0]
        out = []
        for vec, add in choices[k]:
            if vec not in span:
                grown = frozenset(tuple((x + t * y) % p for x, y in zip(u, vec))
                                  for u in span for t in range(p))
                out.extend(add + rest for rest in keys(k + 1, grown))
        return out

    return keys(0, frozenset([(0,) * width]))


def class_members(hg: HomGroup, in_E: bool) -> list[int]:
    """The all_matrices indices of the homs of hg that are onto (in_E) or
    one-to-one.

    f is onto iff, for each prime p dividing |cod|, the map dom/p.dom ->
    cod/p.cod it induces is onto (Nakayama): f's entries mod p, on the rows
    with p | cod[i] and the columns with p | dom[j], make a matrix of full
    row rank.  f is one-to-one iff, for each prime p dividing |dom|, it is
    one-to-one on the socles dom[p] -> cod[p]: on the same rows and columns,
    the entry c * dom[j] / gcd mod p at coordinate c makes a matrix of full
    column rank.  Each entry of these matrices depends on one coordinate of
    f, so one walk packs every hom's matrices into a key, and f is a member
    iff its key is among those of the full-rank matrices, which
    _independent_keys makes directly."""
    dom, cod = hg.dom, hg.cod
    side, other = (cod, dom) if in_E else (dom, cod)
    values = [[0] * g for g in hg.orders]
    members, weight = {0}, 1
    for p in _primes(group_size(side)):
        line_at = {n: k for k, n in enumerate(i for i, o in enumerate(side) if o % p == 0)}
        coord_at = {n: k for k, n in enumerate(j for j, o in enumerate(other) if o % p == 0)}
        cells: list[list[tuple[int, int]]] = [[] for _ in line_at]
        for k, (i, j, step, g) in enumerate(hg.positions):
            line, s = (i, j) if in_E else (j, i)
            mult = (step if in_E else dom[j] // g) % p
            if line in line_at and s in coord_at and mult:
                cells[line_at[line]].append((coord_at[s], weight))
                for c in range(g):
                    values[k][c] += c * mult % p * weight
                weight *= p
        keys = _independent_keys(p, cells, len(coord_at))
        members = {x + y for x in members for y in keys}
        if not members:
            return []
    sums = hg.walk([(k, vals) for k, vals in enumerate(values) if any(vals)])
    return [n for n, x in enumerate(sums) if x in members]


def solve_hom_equations(
    dom: Orders,
    cod: Orders,
    eqs: Sequence[tuple[Optional[tuple[Orders, Orders, Matrix]],
                        Optional[tuple[Orders, Orders, Matrix]],
                        tuple[Orders, Orders, Matrix]]],
) -> tuple[Optional[Matrix], int]:
    """Solve for w: dom -> cod subject to post . w . pre == rhs equations.

    Each equation is (post, pre, rhs) where post/pre are (dom, cod, matrix)
    triples or None for an identity.  Returns (one solution or None, number
    of solutions if one exists else 0).
    """
    hg = hom_group(dom, cod)
    k = len(hg.orders)
    big_orders: list[int] = []
    big_target: list[int] = []
    columns: list[list[int]] = [[] for _ in range(k)]
    for post, pre, rhs in eqs:
        x_ord = pre[0] if pre else dom
        y_ord = post[1] if post else cod
        hg_xy = hom_group(x_ord, y_ord)
        rhs_coords = hg_xy.to_coords(validate_hom(x_ord, y_ord, rhs[2]))
        big_target.extend(rhs_coords)
        big_orders.extend(hg_xy.orders)
        for t in range(k):
            gmat = hg.generator(t)
            val = gmat
            if pre:
                val = hom_compose(val, pre[2], cod, len(x_ord))
            if post:
                val = hom_compose(post[2], val, y_ord, len(x_ord))
            else:
                val = reduce_matrix(val, y_ord)
            columns[t].extend(hg_xy.to_coords(val))
    mat = [[columns[t][r] for t in range(k)] for r in range(len(big_orders))]
    x = solve_congruence(mat, hg.orders, tuple(big_orders), big_target)
    if x is None:
        return None, 0
    coker = cokernel_size(hg.orders, tuple(big_orders), freeze(mat)) if big_orders else 1
    big_size = math.prod(big_orders)
    count = hg.size * coker // big_size if big_size else hg.size
    return hg.from_coords(x), count


# ---------------------------------------------------------------------------
# the instance
# ---------------------------------------------------------------------------

class FinAbInstance(Instance):
    name = "finab"

    def __init__(self) -> None:
        self._hom_cache: dict[tuple[Orders, Orders], tuple[Mor, ...]] = {}
        self._classify_cache: dict[tuple[Orders, Orders, Matrix], OrthClass] = {}
        self._subgroup_cache: dict[Orders, list[frozenset[Vector]]] = {}
        self._hom_group_cache: dict[tuple[Orders, Orders], HomGroup] = {}
        self._catalogs: dict[int, list[ObjHandle]] = {}
        self._exists_cache: dict[tuple[Orders, Orders, str], bool] = {}
        self._class_cache: dict[tuple[Orders, Orders, bool], tuple[Mor, ...]] = {}

    # objects
    def validate_obj(self, key: Any) -> Orders:
        return validate_orders(key)

    def describe_obj(self, key: Orders) -> str:
        if not key:
            return "0"
        return "+".join(f"Z/{o}" for o in key)

    def group(self, *orders: int) -> ObjHandle:
        return self.obj(tuple(orders))

    # morphisms
    def hom(self, a: ObjHandle, b: ObjHandle, rows: Sequence[Sequence[int]]) -> Mor:
        mat = validate_hom(a.obj_key, b.obj_key, rows)
        return Mor(a, b, mat)

    def validate_mor(self, f: Mor) -> None:
        if f.dom.instance_id != self.name or f.cod.instance_id != self.name:
            raise CrossInstance("morphism does not belong to the finab instance")
        validate_hom(f.dom.obj_key, f.cod.obj_key, f.payload)

    def compose(self, g: Mor, f: Mor) -> Mor:
        if f.cod != g.dom:
            raise EndpointMismatch(f"compose: {f.cod} != {g.dom}")
        payload = hom_compose(g.payload, f.payload, g.cod.obj_key, len(f.dom.obj_key))
        return Mor(f.dom, g.cod, payload)

    def identity(self, a: ObjHandle) -> Mor:
        return Mor(a, a, hom_identity(a.obj_key))

    def compose_all(self, g: Mor, t: ObjHandle, op: bool = False) -> list:
        # u |-> g . u (u . g with op) is additive, and the hom group generator
        # at position (i, j, step) is step in entry (i, j) and zero elsewhere,
        # so its image is step times column i (row j with op) of g.  Each
        # entry of the composite is then a walk of the hom group's
        # coordinates by additions of those images alone.
        mat = g.payload
        if op:
            hg = self._hom_group(g.cod.obj_key, t.obj_key)
            mods, width = t.obj_key, len(g.dom.obj_key)
        else:
            hg = self._hom_group(t.obj_key, g.dom.obj_key)
            mods, width = g.cod.obj_key, len(t.obj_key)
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
                entries.append(hg.walk(live, m))
            rows.append(list(zip(*entries)) if entries else [()] * hg.size)
        return list(zip(*rows)) if rows else [()] * hg.size

    def _hom_group(self, dom: Orders, cod: Orders) -> HomGroup:
        hg = self._hom_group_cache.get((dom, cod))
        if hg is None:
            hg = self._hom_group_cache[dom, cod] = hom_group(dom, cod)
        return hg

    def has_class_hom(self, a: ObjHandle, b: ObjHandle, cls: str = "any") -> bool:
        key = (a.obj_key, b.obj_key, cls)
        hit = self._exists_cache.get(key)
        if hit is None:
            hit = self._exists_cache[key] = self._class_exists(a, b, cls)
        return hit

    def _class_exists(self, a: ObjHandle, b: ObjHandle, cls: str) -> bool:
        # an onto a -> b exists iff b embeds in a, a one-to-one one iff a
        # embeds in b; the invariant factors decide both
        x, y = invariant_factors(a.obj_key), invariant_factors(b.obj_key)
        if cls == "any":
            return True  # the zero map
        if cls == "iso":
            return x == y
        if cls == "E":
            return embeds(y, x)
        if cls == "M":
            return embeds(x, y)
        return super().has_class_hom(a, b, cls)

    def class_homs(self, a: ObjHandle, b: ObjHandle, cls: str = "any") -> Sequence[Mor]:
        x, y = a.obj_key, b.obj_key
        same_size = group_size(x) == group_size(y)
        if cls == "any":
            return self.enumerate_homs(a, b)
        if cls not in ("E", "M", "iso"):
            return super().class_homs(a, b, cls)
        if cls == "iso" and not same_size:
            return ()
        # between groups of one order E, M and the isos are all Aut: one
        # test finds them, and one pool serves all three
        key = (x, y, cls == "E" or same_size)
        hit = self._class_cache.get(key)
        if hit is None:
            hg = self._hom_group(x, y)
            members = hg.matrices_at(class_members(hg, key[2]))
            hit = self._class_cache[key] = tuple(Mor(a, b, m) for m in members)
        return hit

    def classify(self, f: Mor) -> OrthClass:
        key = (f.dom.obj_key, f.cod.obj_key, f.payload)
        hit = self._classify_cache.get(key)
        if hit is None:
            hit = hom_classify(*key)
            self._classify_cache[key] = hit
        return hit

    def factorize(self, f: Mor) -> Factorization:
        mid, e, m = ab_factorize(f.dom.obj_key, f.cod.obj_key, f.payload)
        mid_h = self.obj(mid)
        return Factorization(Mor(f.dom, mid_h, e), Mor(mid_h, f.cod, m))

    def fill_diagonal(self, sq: Square) -> Mor:
        validate_square(self, sq)
        if not self.classify(sq.top).in_E:
            raise ClassViolation("fill_diagonal: top edge must be in E")
        if not self.classify(sq.bottom).in_M:
            raise ClassViolation("fill_diagonal: bottom edge must be in M")
        dom, cod = sq.top.cod.obj_key, sq.bottom.dom.obj_key
        w, count = solve_hom_equations(
            dom,
            cod,
            [
                (None, (sq.top.dom.obj_key, dom, sq.top.payload),
                 (sq.top.dom.obj_key, cod, sq.left.payload)),
                ((cod, sq.bottom.cod.obj_key, sq.bottom.payload), None,
                 (dom, sq.bottom.cod.obj_key, sq.right.payload)),
            ],
        )
        if w is None:
            raise SpanCatError("fill_diagonal: no diagonal exists")
        if count != 1:
            raise SpanCatError(f"fill_diagonal: expected a unique diagonal, found {count}")
        return Mor(sq.top.cod, sq.bottom.dom, w)

    def solve_post_system(self, dom: ObjHandle, cod: ObjHandle,
                          eqs: Sequence[tuple[Mor, Mor]]) -> tuple[Optional[Mor], int]:
        sys_eqs = []
        for post, rhs in eqs:
            if post.dom != cod or rhs.dom != dom or rhs.cod != post.cod:
                raise EndpointMismatch("solve_post_system: equation endpoints")
            sys_eqs.append((
                (post.dom.obj_key, post.cod.obj_key, post.payload),
                None,
                (rhs.dom.obj_key, rhs.cod.obj_key, rhs.payload),
            ))
        w, count = solve_hom_equations(dom.obj_key, cod.obj_key, sys_eqs)
        if w is None:
            return None, 0
        return Mor(dom, cod, w), count

    def pullback_along_M(self, f: Mor, m: Mor) -> ConeResult:
        if f.cod != m.cod:
            raise EndpointMismatch("pullback cospan endpoints differ")
        if not self.classify(m).in_M:
            raise ClassViolation("pullback_along_M: second argument must be in M")
        apex, leg1, leg2 = ab_pullback(
            f.dom.obj_key, m.dom.obj_key, f.cod.obj_key, f.payload, m.payload
        )
        apex_h = self.obj(apex)
        return ConeResult(apex_h, Mor(apex_h, f.dom, leg1), Mor(apex_h, m.dom, leg2))

    def pushout_along_E(self, f: Mor, e: Mor) -> ConeResult:
        if f.dom != e.dom:
            raise EndpointMismatch("pushout span endpoints differ")
        if not self.classify(e).in_E:
            raise ClassViolation("pushout_along_E: second argument must be in E")
        apex, leg1, leg2 = ab_pushout(
            f.dom.obj_key, f.cod.obj_key, e.cod.obj_key, f.payload, e.payload
        )
        apex_h = self.obj(apex)
        return ConeResult(apex_h, Mor(f.cod, apex_h, leg1), Mor(e.cod, apex_h, leg2))

    def enumerate_objects_up_to(self, bound: int) -> list[ObjHandle]:
        hit = self._catalogs.get(bound)
        if hit is None:
            hit = self._catalogs[bound] = [self.obj(o) for o in invariant_factor_groups(bound)]
        return list(hit)

    def enumerate_homs(self, a: ObjHandle, b: ObjHandle) -> Sequence[Mor]:
        key = (a.obj_key, b.obj_key)
        hit = self._hom_cache.get(key)
        if hit is None:
            hg = hom_group(*key)
            hit = tuple(Mor(a, b, m) for m in hg.all_matrices())
            self._hom_cache[key] = hit
        return hit

    def span_iso_key(self, d: Mor, m: Mor) -> Any:
        return joint_image(d.cod.obj_key, m.cod.obj_key, d.payload, m.payload)

    def rel_pair_key(self, d1: Mor, m1: Mor, d2: Mor, m2: Mor) -> Any:
        # pull the two E-legs back over the middle, then key the pairing of
        # the M-legs composed with the pullback legs
        x_ord, z_ord = m1.cod.obj_key, m2.cod.obj_key
        p_ord, leg1, leg2 = ab_pullback(
            d1.dom.obj_key, d2.dom.obj_key, d1.cod.obj_key, d1.payload, d2.payload
        )
        comp1 = hom_compose(m1.payload, leg1, x_ord, ncols=len(p_ord))
        comp2 = hom_compose(m2.payload, leg2, z_ord, ncols=len(p_ord))
        return joint_image(x_ord, z_ord, comp1, comp2)

    def subgroups(self, orders: Orders) -> list[frozenset[Vector]]:
        hit = self._subgroup_cache.get(orders)
        if hit is None:
            hit = all_subgroups(orders)
            self._subgroup_cache[orders] = hit
        return hit


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

