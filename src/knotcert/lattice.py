"""Exact arithmetic for integral quadratic forms.

All arithmetic is on integers and exact, and nothing here uses `Fraction`.
There are two fraction-free (Bareiss) elimination kernels.  Both rescale
lazily, and every division is exact, since it yields a minor.  The dense one,
`_bareiss`, runs in natural order and serves both `det_int` and the
Fincke-Pohst weights, whose refusal is also the decomposition's
definiteness test.  The sparse one, `_sylvester`, gives
inertia: it eliminates sparse rows in least-degree order, so a Goeritz form
of hundreds of faces, a sparse planar Laplacian, costs about its fill-in.
The enumerations work on definite Gram matrices; the search is a loop, not
a recursion, so its depth, the rank, is bounded only by time.  The one
nontrivial operation is `indecomposable_summands`, which splits a definite
lattice L into its orthogonally indecomposable summands.

Call a nonzero v *decomposable* if v = x + y with x, y nonzero and x.y = 0.
Then u = x - y lies in the coset v + 2L and |u|^2 = |x|^2 + |y|^2 = |v|^2;
conversely any u != +-v in that coset with |u|^2 = |v|^2 gives
x = (v + u)/2, y = (v - u)/2 in L with 4 x.y = |v|^2 - |u|^2 = 0.  So one
integer Fincke-Pohst search over u = v (mod 2L) with bound |v|^2 decides v,
and every search on L shares the weights of one `_bareiss` run.  Starting
from the greedy-reduced basis, each vector that splits is replaced by its
two strictly shorter parts, which ends in a generating set of
indecomposable vectors.  By Eichler's theorem L is the orthogonal sum of
unique indecomposable summands and each indecomposable vector lies in one
of them, so the classes of the transitive closure of "non-orthogonal" among
the generators span exactly those summands (two classes in one summand
would split it).  Each summand's basis is the Hermite normal form of its
sublattice, so the output does not depend on which generators were found.
The integer basis-change witness is re-verified before it is handed back.
"""

from __future__ import annotations

import heapq
import math
from operator import index, itemgetter, mul
from typing import NamedTuple

from .errors import (
    DegenerateFormError,
    InconsistencyError,
    RankCapExceededError,
)

DEFAULT_RANK_CAP = 12

Matrix = tuple[tuple[int, ...], ...]


class _GramFields(NamedTuple):
    matrix: Matrix


class GramForm(_GramFields):
    """Symmetric integer Gram matrix.

    The matrix is stored row-major as nested tuples and validated on
    construction: integer entries (a float or a string raises ValueError, it
    is not truncated) and symmetry.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so `_replace` checks too

    def __new__(cls, matrix):
        try:
            m = tuple(tuple(map(index, row)) for row in matrix)
        except TypeError as exc:
            raise ValueError(f"Gram matrix entries must be integers: {exc}") from None
        if any(len(row) != len(m) for row in m):
            raise ValueError("Gram matrix must be square")
        if m != tuple(zip(*m)):
            raise ValueError("Gram matrix must be symmetric")
        return super().__new__(cls, m)

    @property
    def rank(self) -> int:
        return len(self.matrix)


class Decomposition(NamedTuple):
    """Orthogonal splitting of a definite form.

    `witness` is a unimodular integer matrix U (rows of tuples, columns = new
    basis vectors in the original coordinates) such that U^T Q U is block
    diagonal with blocks `summands`, in order.
    """

    summands: tuple[GramForm, ...]
    witness: Matrix


# ---------------------------------------------------------------------------
# small exact matrix helpers


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b) -> list[list]:
    if not a or not b:
        return []
    b_cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in b_cols] for row in a]


def _bareiss(m) -> tuple[int, list[int], list[list[int]]]:
    """Fraction-free (Bareiss) elimination of a square integer matrix in
    natural order, a row at a time; a zero pivot is swapped with the next row
    that has a nonzero entry in its column.  Returns (swaps, pivots, rows):
    step k pivots on pivots[k] and leaves rows[k] holding the entries right of
    it in its row, and after step k the rows below keep only the columns
    right of k.  With no swap, pivots[k] is the leading principal minor of
    order k + 1.  Stops early, with fewer pivots than rows, at a column that
    has no nonzero entry left.  Rescaling is lazy: a row keeps the scale p_s
    of the step s that last updated it (p_{-1} = 1).  Step k brings its pivot
    row to scale p_{k-1}, and turns a row with f != 0 in its column into
    (v p_k - f y) / p_s, a minor, so every division is exact."""
    n = len(m)
    a = [list(row) for row in m]
    scale = [1] * n
    pivots: list[int] = []
    swaps = 0
    prev = 1
    for k in range(n):
        if a[k][0] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][0] != 0), None)
            if pivot is None:
                break
            a[k], a[pivot], scale[k], scale[pivot] = a[pivot], a[k], scale[pivot], scale[k]
            swaps += 1
        rest = a[k]
        if scale[k] != prev:
            rest = a[k] = [x * prev // scale[k] for x in rest]
        p = rest.pop(0)
        pivots.append(p)
        for i in range(k + 1, n):
            row = a[i]
            f = row.pop(0)
            if f:
                a[i] = [(x * p - f * y) // scale[i] for x, y in zip(row, rest)]
                scale[i] = p
        prev = p
    return swaps, pivots, a


def det_int(m) -> int:
    """Determinant of an integer matrix: the last `_bareiss` pivot, signed
    by the row swaps, or 0 when the elimination stops early."""
    swaps, pivots, _ = _bareiss(m)
    if len(pivots) < len(m):
        return 0
    return (-1 if swaps % 2 else 1) * pivots[-1] if pivots else 1


def connected_classes(n: int, pairs, linked=None) -> list[int]:
    """Union-find over 0..n-1 joined along `pairs`; returns each element's
    class label, labels numbered 0, 1, ... by first appearance.  With
    `linked`, a pair joins only if linked(x, y) holds, which is asked only
    for pairs not yet in one class."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry and (linked is None or linked(x, y)):
            parent[rx] = ry
    labels: dict[int, int] = {}
    return [labels.setdefault(find(x), len(labels)) for x in range(n)]


def gram_image(gram, v) -> tuple[int, ...]:
    """G v; the form's value on (v, w) is then dot(G v, w)."""
    return tuple(sum(map(mul, row, v)) for row in gram)


def dot(a, b) -> int:
    return sum(map(mul, a, b))


def congruence(u_cols, gram) -> list[list[int]]:
    """U^T G U where the columns of `u_cols` are the new basis vectors."""
    return mat_mul(mat_mul(transpose(u_cols), gram), u_cols)


# ---------------------------------------------------------------------------
# inertia / definiteness / signature


def _sylvester(rows) -> tuple[int, int, int, int]:
    """(positive, negative, zero, last pivot) of a symmetric matrix given by
    its nonzero entries as rows {column: value} (consumed: eliminated rows
    are emptied), by fraction-free (Bareiss) elimination in least-degree
    order: each step pivots on the live row of least length with a nonzero
    diagonal, ties to the least index.  When the whole remaining diagonal
    vanishes, e_k += e_j on an entry a_kj != 0 makes the pivot 2 a_kj; an
    all-zero remaining block is the kernel.  Both moves are congruences of
    determinant +-1, so each pivot p_k is a leading principal minor of a
    congruent matrix, d_k has the sign of p_k p_{k-1} (Sylvester's rule) and
    the last pivot of a nondegenerate matrix is its determinant.  Rescaling
    is lazy: a row keeps the scale p_s of the step that last updated it, and
    an entry untouched since is worth v p_k / p_s at step k, a minor, so
    every division is exact."""
    n = len(rows)
    scale = [1] * n
    heap = [(len(row), i) for i, row in enumerate(rows) if i in row]
    heapq.heapify(heap)
    rank = neg = 0
    prev = 1
    while rank < n:
        while heap:
            length, k = heapq.heappop(heap)
            top = rows[k]
            if length == len(top) and k in top:
                s = scale[k]
                if s != prev:
                    top = {c: x * prev // s for c, x in top.items()}
                break
        else:
            k = next((i for i, row in enumerate(rows) if row), None)
            if k is None:
                break
            j = min(rows[k])
            top, rj = ({c: x * prev // scale[i] for c, x in rows[i].items()} for i in (k, j))
            for c, x in rj.items():
                top[c] = top.get(c, 0) + x
                if c != k and c != j:
                    row = rows[c]
                    row[k] = row.get(k, 0) + row[j]
                    if not row[k]:
                        del row[k]
            top[k] += top[j]
            top = {c: x for c, x in top.items() if x}
        rows[k] = {}
        p = top.pop(k)
        for i, f in top.items():
            row = rows[i]
            del row[k]
            s = scale[i]
            if s != prev:
                row = {j: x * prev // s for j, x in row.items()}
            new = {j: x * p // prev for j, x in row.items() if j not in top}
            for j, b in top.items():
                v = (row.get(j, 0) * p - f * b) // prev
                if v:
                    new[j] = v
            rows[i] = new
            scale[i] = p
            if i in new:
                heapq.heappush(heap, (len(new), i))
        neg += (p > 0) != (prev > 0)
        rank += 1
        prev = p
    return rank - neg, neg, n - rank, prev


def inertia(matrix) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix,
    such as a `GramForm`'s (`_sylvester`)."""
    return _sylvester([{j: x for j, x in enumerate(row) if x} for row in matrix])[:3]


def definiteness(q: GramForm) -> str:
    """Classify as 'positive_definite' | 'negative_definite' | 'indefinite'
    | 'degenerate'.  The empty form counts as positive definite."""
    pos, neg, zero = inertia(q.matrix)
    if zero:
        return "degenerate"
    if neg == 0:
        return "positive_definite"
    if pos == 0:
        return "negative_definite"
    return "indefinite"


def signature_det(rows: list[dict[int, int]]) -> tuple[int, int]:
    """Signature and determinant of a nondegenerate form given by the sparse
    rows of its symmetric matrix (consumed), from one `_sylvester` pass;
    raises DegenerateFormError on a degenerate form."""
    pos, neg, zero, det = _sylvester(rows)
    if zero:
        raise DegenerateFormError(f"form of rank {len(rows)} has {zero}-dimensional kernel")
    return pos - neg, det


# ---------------------------------------------------------------------------
# basis reduction


def round_div(a: int, b: int) -> int:
    """round(Fraction(a, b)) in integers: the nearest integer, ties to even."""
    if b < 0:
        a, b = -a, -b
    q, r = divmod(a, b)
    return q + (2 * r > b or (2 * r == b and q % 2 == 1))


def greedy_reduce(gram) -> tuple[list[list[int]], list[list[int]]]:
    """Greedy pairwise size reduction of a positive definite Gram matrix.

    Repeatedly replaces b_j by b_j + t*b_i (t the nearest integer to
    -G_ij/G_ii, for G_ii > 0) whenever that leaves |b_j|^2 positive and
    strictly smaller.  Each step lowers the sum of the positive diagonal
    entries, a nonnegative integer, so the loop ends on any symmetric form.
    Returns (reduced_gram, u_cols) with reduced = U^T G U; U unimodular by
    construction.  Not LLL -- just enough to start the decomposition from
    short vectors, which keeps its coset searches small.
    """
    n = len(gram)
    g = [list(row) for row in gram]
    u = identity(n)
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j or g[i][i] <= 0:
                    continue
                t = -round_div(g[i][j], g[i][i])
                if t == 0:
                    continue
                new_jj = g[j][j] + 2 * t * g[i][j] + t * t * g[i][i]
                if not 0 < new_jj < g[j][j]:
                    continue
                # b_j += t * b_i
                for r in range(n):
                    u[r][j] += t * u[r][i]
                    g[r][j] += t * g[r][i]
                g[j] = [x + t * y for x, y in zip(g[j], g[i])]
                improved = True
    return g, u


# ---------------------------------------------------------------------------
# Fincke-Pohst enumeration on a fraction-free LDL^T, in integer arithmetic


def _fincke_pohst(gram):
    """The enumeration data (pivots, weights, scale, columns) of a positive
    definite Gram matrix, from its `_bareiss` steps.  The form is positive
    definite exactly when the elimination needs no swap and every pivot, a
    leading principal minor, is positive (Sylvester's criterion); anything
    else raises ValueError, `indecomposable_summands`' definiteness test.
    By symmetry row k then holds the entries b_ik below pivot p_k of the
    fraction-free LDL^T, d_k = p_k / p_{k-1} and L_ik = b_ik / p_k
    (p_{-1} = 1)."""
    swaps, pivots, rows = _bareiss(gram)
    if swaps or len(pivots) < len(gram) or any(p <= 0 for p in pivots):
        raise ValueError("Fincke-Pohst enumeration requires a positive definite matrix")
    # x^T G x = sum_k z_k^2 / (p_{k-1} p_k) with z_k = p_k x_k + sum_{i>k} b_ik x_i;
    # times scale = lcm(p_{k-1} p_k) that is sum_k w_k z_k^2, all in integers.
    # cols[k] holds b_ik at index i and zeros up to k, where x is still 0.
    dens = [p * q for p, q in zip([1] + pivots, pivots)]
    scale = math.lcm(*dens)
    cols = [[0] * (k + 1) + row for k, row in enumerate(rows)]
    return pivots, [scale // d for d in dens], scale, cols


def _enumerate(fp, bound: int, parity=None):
    """Yield (x, scale * (bound - x^T G x)) for each nonzero x with
    x^T G x <= bound, one of every +-pair (its last nonzero coordinate
    positive), and with x = parity (mod 2) when `parity` is given, depth
    first from coordinate n-1 down to 0.  `x` is one list, changed in place
    after each yield: a caller copies it before it advances the generator."""
    pivots, w, scale, cols = fp
    n = len(pivots)
    step = 1 if parity is None else 2
    x = [0] * n
    # level i: centre s[i] = sum_{j>i} b_ji x_j and last value hi[i] of x_i;
    # rem[i + 1] is the budget left for levels <= i, and top[i + 1] says
    # x_j = 0 for all j > i, so that x_i >= 0 visits each +-pair once;
    # fresh: level i is entered from above, not resumed from below
    s, hi = [0] * n, [0] * n
    rem = [0] * n + [bound * scale]
    top = [False] * n + [True]
    i, fresh = n - 1, True
    while i < n:
        if i < 0:
            if not top[0]:
                yield x, rem[0]
            i, fresh = 0, False
            continue
        p = pivots[i]
        if fresh:
            s[i] = sum(map(mul, cols[i], x))
            # w_i z_i^2 <= rem  <=>  |z_i| <= t, since z_i is an integer
            t = math.isqrt(rem[i + 1] // w[i])
            xi = 0 if top[i + 1] else -((t + s[i]) // p)
            if parity is not None:
                xi += (xi - parity[i]) % 2
            hi[i] = (t - s[i]) // p
        else:
            xi = x[i] + step
        if xi > hi[i]:
            x[i] = 0
            i, fresh = i + 1, False
            continue
        x[i] = xi
        z = xi * p + s[i]
        rem[i] = rem[i + 1] - w[i] * z * z
        top[i] = top[i + 1] and not xi
        i, fresh = i - 1, True


def short_vectors(gram, bound: int) -> list[tuple[tuple[int, ...], int]]:
    """All nonzero vectors x (up to sign) with x^T G x <= bound, G positive
    definite.  Returns (vector, norm) pairs sorted by (norm, vector); of every
    +-pair only the lexicographically larger representative is kept."""
    if not gram or bound <= 0:
        return []
    fp = _fincke_pohst(gram)
    return sorted([(tuple(x) if next(filter(None, x)) > 0 else tuple(-c for c in x),
                    bound - remaining // fp[2]) for x, remaining in _enumerate(fp, bound)],
                  key=itemgetter(1, 0))


# ---------------------------------------------------------------------------
# Hermite normal form


def lattice_row_basis(vectors) -> list[list[int]]:
    """Basis of the sublattice of Z^n generated by `vectors`, as the rows of
    its Hermite normal form: echelon rows with positive pivots, and every
    entry above a pivot in [0, pivot).  The form is unique, so equal
    sublattices give equal rows."""
    rows = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    for col in range(len(rows[0]) if rows else 0):
        nz = [r for r in rows if r[col]]
        if not nz:
            continue
        while len(nz) > 1:  # Euclid on the column
            p = min(nz, key=lambda r: abs(r[col]))
            for r in nz:
                if r is not p:
                    q = r[col] // p[col]
                    r[:] = [a - q * b for a, b in zip(r, p)]
            nz = [r for r in nz if r[col]]
        p = nz[0]
        rows = [r for r in rows if r is not p and any(r)]
        if p[col] < 0:
            p[:] = [-a for a in p]
        for r in basis:
            q = r[col] // p[col]
            r[:] = [a - q * b for a, b in zip(r, p)]
        basis.append(p)
    return basis


# ---------------------------------------------------------------------------
# indecomposable orthogonal summands


def _orthogonal_split(fp, gram, v):
    """(x, y) with x + y = v, x.y = 0 and x, y nonzero, from a u != +-v in
    v + 2L with |u|^2 = |v|^2 (module docstring); None if v is indecomposable."""
    nv = dot(gram_image(gram, v), v)
    neg = [-c for c in v]
    for u, remaining in _enumerate(fp, nv, parity=v):
        if remaining == 0 and u != v and u != neg:
            return [(a + b) // 2 for a, b in zip(v, u)], [(a - b) // 2 for a, b in zip(v, u)]
    return None


def _indecomposable_generators(gram) -> list[tuple[int, ...]]:
    """Orthogonally indecomposable vectors that generate the lattice of a
    positive definite Gram matrix, one of each +-pair (first nonzero
    coordinate positive).  Starting from the unit vectors, every vector that
    splits is replaced by its two strictly shorter parts, so this ends; all
    coset searches share one set of Fincke-Pohst weights."""
    fp = _fincke_pohst(gram)
    n = len(gram)
    todo = [[int(i == j) for j in range(n)] for i in range(n)]
    seen: set[tuple[int, ...]] = set()
    kept: list[tuple[int, ...]] = []
    while todo:
        v = todo.pop()
        key = tuple(v) if next(filter(None, v)) > 0 else tuple(-c for c in v)
        if key in seen:
            continue
        seen.add(key)
        parts = _orthogonal_split(fp, gram, v)
        if parts is None:
            kept.append(key)
        else:
            todo.extend(parts)
    return kept


def check_rank_cap(rank: int, rank_cap: int):
    """Refuse a lattice of rank above `rank_cap` (RankCapExceededError)."""
    if rank > rank_cap:
        raise RankCapExceededError(rank, rank_cap)


def indecomposable_summands(
    q: GramForm, rank_cap: int = DEFAULT_RANK_CAP
) -> Decomposition:
    """Split a definite form into its indecomposable orthogonal summands.

    Accepts positive or negative definite input: the form times the sign of
    its first diagonal entry is greedy-reduced, and the Fincke-Pohst
    elimination of that refuses it unless it is positive definite.  The
    returned witness U is unimodular and U^T Q U is block diagonal with the
    summand blocks in order.  Each summand's basis is the Hermite normal
    form of its sublattice in the coordinates of `greedy_reduce`'s basis,
    and the summands are ordered by those forms, so a form with one summand
    has `greedy_reduce`'s U as its witness.  A refused form raises
    DegenerateFormError if its determinant is 0, else ValueError; a rank
    above the cap raises RankCapExceededError.
    """
    n = q.rank
    check_rank_cap(n, rank_cap)
    if n == 0:
        return Decomposition(summands=(), witness=())
    sign = 1 if q.matrix[0][0] > 0 else -1
    g_red, u_red = greedy_reduce([[sign * x for x in row] for row in q.matrix])
    try:
        gens = _indecomposable_generators(g_red)
    except ValueError:  # not definite; det is kept by unimodular congruence
        if det_int(g_red) == 0:
            raise DegenerateFormError("cannot decompose a degenerate form") from None
        raise ValueError("indecomposable_summands requires a definite form") from None
    images = [gram_image(g_red, v) for v in gens]
    # the Eichler summands: classes of the transitive closure of non-orthogonality
    labels = connected_classes(
        len(gens),
        ((i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))),
        lambda i, j: dot(images[i], gens[j]) != 0,
    )
    classes: dict[int, list[tuple[int, ...]]] = {}
    for label, v in zip(labels, gens):
        classes.setdefault(label, []).append(v)
    bases = sorted(lattice_row_basis(c) for c in classes.values())
    sizes = [len(b) for b in bases]
    if sum(sizes) != n:  # pragma: no cover - guarded by the theory
        raise InconsistencyError(f"indecomposable vectors span rank {sum(sizes)} != {n}")

    u_cols = mat_mul(u_red, transpose([row for b in bases for row in b]))  # columns = final basis
    if abs(det_int(u_cols)) != 1:  # pragma: no cover - guarded by the theory
        raise InconsistencyError("decomposition witness is not unimodular")
    final = congruence(u_cols, q.matrix)

    # verify block-diagonal structure and carve out the summands
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    if any(final[i][j] for i in range(n) for j in range(n) if block_of[i] != block_of[j]):
        raise InconsistencyError("summands are not orthogonal")  # pragma: no cover
    summands = []
    offset = 0
    for size in sizes:
        block = tuple(tuple(row[offset : offset + size]) for row in final[offset : offset + size])
        summands.append(GramForm(block))
        offset += size

    witness = tuple(tuple(row) for row in u_cols)
    return Decomposition(summands=tuple(summands), witness=witness)
