"""Classical invariants computed from diagram combinatorics.

Everything here is exact integer arithmetic:

* Goeritz matrices for both checkerboard colors, and the knot signature via
  the Goeritz matrix corrected by the misoriented-crossing count (computed
  for both surface choices and required to agree).  Each Goeritz matrix's
  signature and determinant come from one symmetric elimination.
* A Seifert matrix for special diagrams, built on the checkerboard surface
  realized by Seifert's algorithm, in closed form: the basis curves are the
  boundaries of the faces of the orientable color's Tait graph, a curve
  links its pushoff -e/2 in each band of sign e along it, and two curves
  cross once in each band they share, counted in one of their two entries.
* The Alexander polynomial by two independent backends (Seifert matrix /
  Wirtinger-Fox calculus), with determinant, genus and fiberedness data
  derived from it.

Both backends take one Laurent determinant (`_laurent_det`), and it works in
integer arithmetic.  The matrix (the Fox matrix, or t V - V^T) is first
Tietze-reduced over Z[t, t^-1]: eliminating on its unit entries +-t^e (least
Markowitz cost first, from a heap of the unit entries' costs; each step scales
the pivot row once and updates the other rows' entries in place) changes the
determinant by a unit only, so what is left is sized by the knot, not by the
crossing count or the genus.  That residue is evaluated once, by
Kronecker substitution: shift each row to a polynomial, bound every
coefficient of the determinant by Hadamard's bound on the unit circle, take
one fraction-free (Bareiss) determinant at t = 2^b with 2^b more than twice
that bound, and read the coefficients off as the balanced base-2^b digits of
the value.
"""

from __future__ import annotations

import heapq
import math
import re
from typing import NamedTuple

from .diagram import (
    Diagram,
    SpecialityReport,
    cached_on_instance,
    checkerboard,
    classify_special,
    orient,
    seifert_stats,
)
from .errors import InconsistencyError
from .lattice import GramForm, Matrix, connected_classes, det_int, signature_det
from .tait import TaitGraph, orientable_tait_graph, tait_graphs

# ---------------------------------------------------------------------------
# Laurent polynomials over the integers


class LaurentPolynomial(NamedTuple):
    """An integer Laurent polynomial, coefficients stored sparsely.

    coeffs is a tuple of (exponent, coefficient) pairs with nonzero
    coefficients, sorted by decreasing exponent.
    """

    coeffs: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "LaurentPolynomial":
        return cls(tuple(sorted(((e, c) for e, c in d.items() if c), reverse=True)))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, exp: int) -> int:
        for e, c in self.coeffs:
            if e == exp:
                return c
        return 0

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.coeffs[0][0]

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.coeffs[-1][0]

    def span(self) -> int:
        return self.max_exp() - self.min_exp() if self.coeffs else 0

    def leading_coefficient(self) -> int:
        return self.coeffs[0][1] if self.coeffs else 0

    def shift(self, k: int) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple((e + k, c) for e, c in self.coeffs))

    def reciprocal(self) -> "LaurentPolynomial":
        """The substitution t -> 1/t."""
        return LaurentPolynomial.from_dict({-e: c for e, c in self.coeffs})

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple((e, -c) for e, c in self.coeffs))

    def __call__(self, x: int) -> int:
        """Value at x = +-1, where t^-1 = t (the only points evaluated)."""
        if x not in (1, -1):
            raise ValueError(f"evaluation only at t = +-1, not {x}")
        return sum(c * x ** (e % 2) for e, c in self.coeffs)

    def is_symmetric(self) -> bool:
        return self == self.reciprocal()

    def divides(self, other: "LaurentPolynomial") -> bool:
        """True when other = q * self with q an integer Laurent polynomial."""
        if not self.coeffs:
            return not other.coeffs
        if not other.coeffs:
            return True
        rem = [other.coefficient(e) for e in range(other.min_exp(), other.max_exp() + 1)]
        den = [self.coefficient(e) for e in range(self.min_exp(), self.max_exp() + 1)]
        for k in range(len(rem) - len(den), -1, -1):
            q, r = divmod(rem[k + len(den) - 1], den[-1])
            if r:
                return False
            for i, dc in enumerate(den):
                rem[k + i] -= q * dc
        return not any(rem)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.coeffs):
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                term = var if mag == 1 else f"{mag}{var}"
            if i == 0:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    _TERM_RE = re.compile(r"^([+-]?\d*)(t(?:\^(-?\d+))?)?$")

    @classmethod
    def from_string(cls, text: str) -> "LaurentPolynomial":
        s = text.replace(" ", "")
        if not s or s == "0":
            return cls(())
        s = s.replace("^-", "^~").replace("-", "+-").replace("^~", "^-")
        d: dict[int, int] = {}
        for tok in s.split("+"):
            if not tok:
                continue
            m = cls._TERM_RE.match(tok)
            if not m or (m.group(1) in ("", "+", "-") and not m.group(2)):
                raise ValueError(f"bad Laurent polynomial term {tok!r} in {text!r}")
            coeff_s, has_t, exp_s = m.group(1), m.group(2), m.group(3)
            coeff = int(coeff_s + "1") if coeff_s in ("", "+", "-") else int(coeff_s)
            exp = (int(exp_s) if exp_s else 1) if has_t else 0
            d[exp] = d.get(exp, 0) + coeff
        return cls.from_dict(d)


# ---------------------------------------------------------------------------
# Goeritz matrices and the signature

def _goeritz_rows(g: TaitGraph) -> list[dict[int, int]]:
    """The Goeritz matrix of a Tait graph as rows {column: value} of its
    nonzero entries: the signed Laplacian, each edge weighted by its sign and
    loops skipped, without the last vertex's row and column (the matrix on
    all vertices is singular)."""
    m = g.num_vertices - 1
    rows: list[dict[int, int]] = [{} for _ in range(m + 1)]
    for (u, v), eta in zip(g.edges, g.edge_signs):
        if u != v:
            for a, b, x in ((u, u, eta), (v, v, eta), (u, v, -eta), (v, u, -eta)):
                rows[a][b] = rows[a].get(b, 0) + x
    return [{j: x for j, x in row.items() if x and j < m} for row in rows[:m]]


def goeritz_matrix(d: Diagram, color: int) -> GramForm:
    """Goeritz matrix of the faces of the given color (last face deleted) as
    a dense form, built only on request: the invariants eliminate the sparse
    `_goeritz_rows` instead (`_goeritz_signature_det`)."""
    rows = _goeritz_rows(tait_graphs(d)[color])
    return GramForm(tuple(tuple(row.get(j, 0) for j in range(len(rows))) for row in rows))


@cached_on_instance
def _goeritz_signature_det(d: Diagram) -> tuple[tuple[int, int], tuple[int, int]]:
    """(signature, determinant) of each color's Goeritz matrix, from one
    sparse elimination of its rows each."""
    return tuple(signature_det(_goeritz_rows(g)) for g in tait_graphs(d))


def _correction_term(d: Diagram, surface_color: int) -> int:
    """Sum of signs of crossings whose smoothing disagrees with the surface
    color, that is, whose sign differs from the color's Tait edge sign."""
    edge_signs = tait_graphs(d)[surface_color].edge_signs
    return sum(s for s, e in zip(orient(d).signs, edge_signs) if s != e)


@cached_on_instance
def gl_signature(d: Diagram) -> int:
    """Signature of the knot: sig(Goeritz of the other color) minus the correction.

    Computed for both choices of spanning-surface color; the two must agree.
    """
    results = []
    for surface_color in (0, 1):
        sig = _goeritz_signature_det(d)[1 - surface_color][0]
        results.append(sig - _correction_term(d, surface_color))
    if results[0] != results[1]:
        raise InconsistencyError(
            f"signature routes disagree: {results[0]} (white surface) vs {results[1]} (black surface)"
        )
    return results[0]


# ---------------------------------------------------------------------------
# Seifert matrix for special diagrams


def seifert_matrix_special(d: Diagram) -> Matrix:
    """Seifert matrix of a special diagram on its checkerboard Seifert surface,
    in the basis of the face boundaries of the orientable color's Tait graph g.

    The surface is the orientable color: its faces are the disks and the
    crossings are half-twisted bands, and the faces of g are the faces of the
    other color.  Face f's boundary is the cycle x_f over g's edges: its
    half-edge (c, s) adds +1 when corner (s - 1) mod 4 is the one just
    counterclockwise of end 0 of edge c, else -1, so an edge that f runs
    along both ways cancels.  All faces but the one with the most half-edges
    (the first on a tie) are a basis of H_1.  With e_c the sign of crossing
    c, a boundary pushed off the surface links itself -(sum of e_c over the
    support of x_f) / 2 times.  Two boundaries meet only in the bands they
    share, and each such band c adds e_c to one entry: to (f, h) when
    x_f(c) e_c o = -1, else to (h, f), where o is one sign for the whole
    surface: +1 when disk 0 is at end 0 of its bands, else -1.

    Unimodularity of V - V^T is not checked here: `alexander_via_seifert`
    checks it as Delta(1) = det(V - V^T) = +-1.
    """
    g = orientable_tait_graph(d)  # ClassificationError unless special
    if g.cycle_rank() == 0:
        return ()

    # Being special means the orientable color occupies the smoothing corner
    # pair at every crossing, which is the same as each edge sign matching
    # the crossing sign.
    signs = orient(d).signs
    if g.edge_signs != signs:
        raise InconsistencyError("orientable color's edge signs differ from the crossing signs")
    # So the disk at end 0 of band c sits at slot 1 with the over-strand
    # entering at slot 3 (e_c = +1), or at slot 2 with it entering at slot 1
    # (e_c = -1): either way the arc there leaves c, so that disk's boundary
    # runs with the knot.  A disk is a Seifert circle, one way at all its
    # bands, so it is end 0 of all or none: o is read off disk 0's first dart.
    o = 1 if g.rotations[0][0][1] == 0 else -1
    faces = checkerboard(d)[1 - classify_special(d).orientable_color]
    drop = max(range(len(faces)), key=lambda f: len(faces[f]))
    basis = faces[:drop] + faces[drop + 1:]

    V = [[0] * len(basis) for _ in basis]
    rows: dict[int, int] = {}  # band c: the basis face f along it with x_f(c) e_c o = -1
    cols: dict[int, int] = {}  # band c: the basis face f along it with x_f(c) e_c o = +1
    for f, face in enumerate(basis):
        x: dict[int, int] = {}
        for c, s in face:  # corner 1 (e_c = +1) or 2 (e_c = -1) is just ccw of end 0
            x[c] = x.get(c, 0) + (1 if (s - 1) % 4 == (3 - signs[c]) // 2 else -1)
        x = {c: xc for c, xc in x.items() if xc}
        total = sum(signs[c] for c in x)
        if total % 2:
            raise InconsistencyError(f"basis face {f} links itself {-total}/2 times")
        V[f][f] = -total // 2
        for c, xc in x.items():
            (rows if xc * signs[c] * o == -1 else cols)[c] = f
    for c in rows.keys() & cols.keys():
        V[rows[c]][cols[c]] += signs[c]
    return tuple(map(tuple, V))


# ---------------------------------------------------------------------------
# Alexander polynomial


def _normalize_alexander(raw: LaurentPolynomial, source: str) -> LaurentPolynomial:
    if not raw:
        raise InconsistencyError(f"{source}: Alexander polynomial vanished")
    hi, lo = raw.max_exp(), raw.min_exp()
    if (hi + lo) % 2:
        raise InconsistencyError(f"{source}: exponent range {lo}..{hi} cannot be centered")
    centered = raw.shift(-(hi + lo) // 2)
    if not centered.is_symmetric():
        raise InconsistencyError(f"{source}: {centered} is not symmetric under t -> 1/t")
    at_one = centered(1)
    if at_one == -1:
        centered = -centered
    elif at_one != 1:
        raise InconsistencyError(f"{source}: value at t=1 is {at_one}, expected a unit")
    return centered


def _unit_residue(rows: list[dict[int, dict[int, int]]]) -> list[list[dict[int, int]]]:
    """Tietze-reduce a square matrix of Laurent entries, given as sparse rows
    {column: {exponent: coefficient}} (zeros dropped, consumed), to the
    dense square matrix left over.

    While some entry is a unit +-t^e, the one of least Markowitz cost (ties to
    the least (row, column)) clears its column and its row and column are
    dropped; that changes the determinant by a unit only.  Rows keep their
    original indices, and a heap holds a (cost, row, column) key per unit
    entry: each step pushes fresh keys for the rows it updated and for the
    pivot row's columns, whose counts changed, and a popped key that no
    longer matches its entry is skipped.  Each step scales the pivot row by
    -(u t^lo)^-1 once and updates the entries of the other rows in place.
    """
    live = dict(enumerate(rows))
    in_col: dict[int, set[int]] = {}
    for i, row in live.items():
        for j in row:
            in_col.setdefault(j, set()).add(i)
    heap = [((len(row) - 1) * (len(in_col[j]) - 1), i, j) for i, row in live.items()
            for j, e in row.items() if len(e) == 1 and abs(*e.values()) == 1]
    heapq.heapify(heap)
    while heap:
        cost, i, j = heapq.heappop(heap)
        row = live.get(i)
        e = row.get(j) if row else None
        if (e is None or len(e) != 1 or abs(*e.values()) != 1
                or cost != (len(row) - 1) * (len(in_col[j]) - 1)):
            continue  # a key that a later step left stale
        pivot_row = live.pop(i)
        for k in pivot_row:
            in_col[k].discard(i)
        ((lo, u),) = pivot_row.pop(j).items()
        updated = in_col.pop(j)
        # row -= f (u t^lo)^-1 pivot_row, that is row += f pivot
        pivot = [(k, [(b - lo, -u * y) for b, y in g.items()]) for k, g in pivot_row.items()]
        for r in updated:
            row = live[r]
            f = row.pop(j).items()
            for k, g in pivot:
                e = row.get(k)
                if e is None:
                    e = row[k] = {}
                    in_col[k].add(r)
                for a, x in f:
                    for b, y in g:
                        e[a + b] = c = e.get(a + b, 0) + x * y
                        if not c:
                            del e[a + b]
                if not e:
                    del row[k]
                    in_col[k].discard(r)
        # costs changed in the updated rows and in the pivot row's columns
        for r in updated:
            row = live[r]
            for k, e in row.items():
                if len(e) == 1 and abs(*e.values()) == 1:
                    heapq.heappush(heap, ((len(row) - 1) * (len(in_col[k]) - 1), r, k))
        for k in pivot_row:
            for r in in_col[k] - updated:
                row = live[r]
                e = row[k]
                if len(e) == 1 and abs(*e.values()) == 1:
                    heapq.heappush(heap, ((len(row) - 1) * (len(in_col[k]) - 1), r, k))
    rows = list(live.values())
    cols = sorted({j for row in rows for j in row})
    if len(cols) != len(rows) or not all(rows):
        raise InconsistencyError(f"Laurent residue of {len(rows)} rows on {len(cols)} "
                                 "columns is not square or has a zero row")
    return [[row.get(j, {}) for j in cols] for row in rows]


def _laurent_det(rows: list[dict[int, dict[int, int]]]) -> LaurentPolynomial:
    """Determinant, up to a unit, of a square matrix of Laurent entries given
    as sparse rows (`_unit_residue`); the empty matrix has determinant 1.

    The unit residue is evaluated once, by Kronecker substitution: each row
    is shifted to a polynomial.  Its determinant's coefficients are integers
    no larger than its max on |t| = 1, so than Hadamard's bound there, the
    isqrt of prod_rows sum |e|_1^2.  At t = 2^b with 2^b > 2 bound, one
    integer determinant holds the coefficients as balanced base-2^b digits.
    """
    m = _unit_residue(rows)
    square = math.prod(sum(sum(map(abs, e.values())) ** 2 for e in row) for row in m)
    b = (2 * math.isqrt(square)).bit_length()
    mat = []
    for row in m:
        lo = min(k for e in row for k in e)
        mat.append([sum(c << (b * (k - lo)) for k, c in e.items()) for e in row])
    value, half, coeffs = det_int(mat), 1 << (b - 1), []
    while value:  # value = digit + 2^b rest, with -2^(b-1) <= digit < 2^(b-1)
        coeffs.append(((value + half) & ((1 << b) - 1)) - half)
        value = (value + half) >> b
    return LaurentPolynomial.from_dict(dict(enumerate(coeffs)))


def alexander_via_seifert(d: Diagram) -> LaurentPolynomial:
    """det(t V - V^T), centered; only available for special diagrams."""
    v = seifert_matrix_special(d)
    rows = []
    for row, col in zip(v, zip(*v)):
        entries = ({k: c for k, c in ((1, a), (0, -b)) if c} for a, b in zip(row, col))
        rows.append({j: e for j, e in enumerate(entries) if e})
    return _normalize_alexander(_laurent_det(rows), "seifert backend")


# Fox derivatives (as c0 + c1 t) of a crossing's Wirtinger relation by its
# overstrand, incoming and outgoing understrand, per crossing sign.  Rows of
# negative crossings are premultiplied by t to stay polynomial (a unit).
_FOX_ROW = {1: ((1, -1), (0, 1), (-1, 0)), -1: ((-1, 1), (1, 0), (0, -1))}
_FOX_ENTRIES = {s: [{k: x for k, x in enumerate(p) if x} for p in ps] for s, ps in _FOX_ROW.items()}


def _fox_rows(d: Diagram) -> list[dict[int, dict[int, int]]]:
    """The Fox matrix of the Wirtinger presentation with its last row and
    column deleted, as sparse rows {overstrand: {exponent: coefficient}}."""
    n = d.n
    signs = orient(d).signs
    # overstrands: arcs joined through the over-slots of each crossing
    col = connected_classes(2 * n, ((c[1] - 1, c[3] - 1) for c in d.crossings))
    if max(col, default=-1) + 1 != n:
        raise InconsistencyError(
            f"expected {n} overstrands for a knot diagram, found {max(col) + 1}"
        )
    rows: list[dict[int, dict[int, int]]] = []
    for c, sign in zip(d.crossings[: n - 1], signs):
        row: dict[int, dict[int, int]] = {}
        for j, entry in zip((col[c[1] - 1], col[c[0] - 1], col[c[2] - 1]), _FOX_ENTRIES[sign]):
            if j in row:  # a kink: two of the arcs (all three only if n = 1) are one overstrand
                entry = {k: x for k in (0, 1) if (x := row[j].get(k, 0) + entry.get(k, 0))}
            row[j] = entry.copy()
        row.pop(n - 1, None)  # the deleted column
        rows.append(row)
    return rows


def alexander_via_wirtinger(d: Diagram) -> LaurentPolynomial:
    """Determinant of the Fox matrix (`_fox_rows`)."""
    return _normalize_alexander(_laurent_det(_fox_rows(d)), "wirtinger backend")


def alexander(d: Diagram) -> LaurentPolynomial:
    """Alexander polynomial; on special diagrams both backends run and must agree."""
    rep = classify_special(d)
    aw = alexander_via_wirtinger(d)
    if rep.is_special:
        asf = alexander_via_seifert(d)
        if asf != aw:
            raise InconsistencyError(
                f"Alexander backends disagree: seifert {asf} vs wirtinger {aw}"
            )
    return aw


# ---------------------------------------------------------------------------
# bundled invariants


class InvariantBundle(NamedTuple):
    speciality: SpecialityReport
    signature: int
    alexander: LaurentPolynomial
    determinant: int
    genus: int
    genus_is_exact: bool
    leading_coefficient: int
    fibered: bool | None


def invariant_bundle(d: Diagram) -> InvariantBundle:
    rep = classify_special(d)
    sig = gl_signature(d)
    alex = alexander(d)

    det = abs(alex(-1))
    for color, (_, gdet) in enumerate(_goeritz_signature_det(d)):
        if abs(gdet) != det:
            raise InconsistencyError(
                f"Goeritz determinant on color {color} is {abs(gdet)}, "
                f"but the Alexander polynomial gives {det}"
            )

    _circles, surface_genus = seifert_stats(d)
    span = alex.span()
    if rep.is_alternating:
        genus = span // 2
        exact = True
        if genus != surface_genus:
            raise InconsistencyError(
                f"alternating diagram surface genus {surface_genus} "
                f"differs from Alexander genus {genus}"
            )
    else:
        genus = surface_genus
        exact = False
        if span // 2 > genus:
            raise InconsistencyError(
                f"Alexander span {span} exceeds twice the surface genus {surface_genus}"
            )
    if rep.is_special and rep.is_alternating and not (abs(sig) == 2 * genus == span):
        raise InconsistencyError(
            f"special diagram with |signature| {abs(sig)}, genus {genus}, span {span}"
        )

    lead = alex.leading_coefficient()
    fibered = (abs(lead) == 1) if exact else None
    return InvariantBundle(
        speciality=rep,
        signature=sig,
        alexander=alex,
        determinant=det,
        genus=genus,
        genus_is_exact=exact,
        leading_coefficient=lead,
        fibered=fibered,
    )
