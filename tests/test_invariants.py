"""Signature, Alexander polynomial (two backends), determinant, genus."""

from __future__ import annotations

import copy
import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    alexander_dense_seifert,
    alexander_dense_wirtinger,
    corpus_entry,
    crossing_changed,
    face_vectors,
    fox_matrix_dense,
    goeritz_by_corner_pairs,
    interpolate_int_poly,
    laurent_det_leibniz,
    load_corpus,
    necklace,
    plane_graph_from_multigraph,
    poly_value,
    random_draws,
    seifert_disk_classes,
    seifert_matrix_chords,
    theta,
    trefoil_chain,
    two_coloring,
    unit_residue_rescan,
    wide_necklace,
)
from knotcert import invariants
from knotcert.cli import _invariants
from knotcert.diagram import (
    _trace_faces,
    checkerboard,
    classify_special,
    is_alternating,
    mirror_diagram,
    orient,
    parse_pd,
)
from knotcert.errors import ClassificationError, InconsistencyError
from knotcert.invariants import (
    LaurentPolynomial,
    _fox_rows,
    _laurent_det,
    alexander,
    alexander_via_seifert,
    alexander_via_wirtinger,
    gl_signature,
    goeritz_matrix,
    invariant_bundle,
    seifert_matrix_special,
)
from knotcert.lattice import det_int, mat_mul, transpose
from knotcert.medial import PlaneGraph, medial_diagram
from knotcert.tait import fundamental_cycles, orientable_tait_graph

LEFT_TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
RIGHT_TREFOIL_ROTATED = "X(1,4,2,3) X(3,6,4,5) X(5,2,6,1)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"
KINK = "X(1,2,2,1)"
GRANNY = "X(9,1,10,12) X(1,11,2,10) X(11,3,12,2) X(3,7,4,6) X(7,5,8,4) X(5,9,6,8)"

L = LaurentPolynomial.from_string


# ---------------------------------------------------------------------------
# Laurent polynomials


def test_laurent_string_roundtrip():
    for s in ["2t - 3 + 2t^-1", "t^2 - t + 1 - t^-1 + t^-2", "1", "-t + 3 - t^-1",
              "0", "t", "-7t^-3 + t^2"]:
        assert L(str(L(s))) == L(s)
    assert str(L("3 + t")) == "t + 3"
    assert str(L("t - t")) == "0"


def test_laurent_string_errors():
    with pytest.raises(ValueError):
        L("2x + 1")
    with pytest.raises(ValueError):
        L("t^")


def test_laurent_arithmetic():
    a = L("t - 1 + t^-1")
    assert (-a)(1) == -1
    assert a(-1) == -3 and type(a(-1)) is int and type(a(1)) is int
    with pytest.raises(ValueError):
        a(2)
    assert a.shift(2) == L("t^3 - t^2 + t")
    assert a.reciprocal() == a and a.is_symmetric()
    assert not L("2t - 3").is_symmetric()
    assert a.span() == 2 and a.max_exp() == 1 and a.min_exp() == -1
    assert a.leading_coefficient() == 1
    assert L("2t - 3 + 2t^-1").leading_coefficient() == 2
    assert a.coefficient(0) == -1 and a.coefficient(5) == 0
    with pytest.raises(ValueError):
        L("0").max_exp()


def test_laurent_divides():
    a = L("t - 1 + t^-1")
    b = L("2t - 3 + 2t^-1")
    ab = L("2t^2 - 5t + 7 - 5t^-1 + 2t^-2")
    assert a.divides(ab)
    assert b.divides(ab)
    assert not a.divides(b)
    assert not b.divides(L("t^2 - 2t + 3 - 2t^-1 + t^-2"))  # content obstruction
    assert L("1").divides(a)
    assert a.divides(L("0"))
    assert not L("0").divides(a)
    # unit shifts are absorbed
    assert a.shift(3).divides(ab)


def test_laurent_to_json():
    b = invariant_bundle(parse_pd(corpus_entry("5_2").pd))
    assert b.alexander == L("2t - 3 + 2t^-1")
    assert _invariants(b)["alexander"] == [[1, 2], [0, -3], [-1, 2]]


# ---------------------------------------------------------------------------
# exact helpers


def test_interpolation_roundtrip():
    rng = random.Random(6)
    for _ in range(20):
        deg = rng.randint(0, 6)
        coeffs = [rng.randint(-5, 5) for _ in range(deg + 1)]
        xs = list(range(2, 2 + deg + 1))
        ys = [Fraction(sum(c * x**k for k, c in enumerate(coeffs))) for x in xs]
        got = interpolate_int_poly(xs, ys)
        want = coeffs[:]
        while want and want[-1] == 0:
            want.pop()
        assert got == want


def test_interpolation_roundtrip_high_degree_large_coefficients():
    rng = random.Random(40)
    for deg in (0, 1, 7, 20, 40):
        coeffs = [rng.randint(-10**12, 10**12) for _ in range(deg)] + [rng.choice((-1, 1)) * 10**15]
        xs = list(range(2, 2 + deg + 1))
        got = interpolate_int_poly(xs, [poly_value(coeffs, x) for x in xs])
        assert got == coeffs and all(type(c) is int for c in got)


def test_interpolation_on_negative_and_non_consecutive_points():
    rng = random.Random(41)
    for _ in range(50):
        deg = rng.randint(0, 12)
        coeffs = [rng.randint(-50, 50) for _ in range(deg + 1)]
        xs = rng.sample(range(-40, 40), deg + 1 + rng.randint(0, 3))
        want = coeffs[:]
        while want and want[-1] == 0:
            want.pop()
        assert interpolate_int_poly(xs, [poly_value(coeffs, x) for x in xs]) == want


def test_interpolation_rejects_values_of_a_non_integer_polynomial():
    # t(t - 1)/2 is integer-valued but has non-integer coefficients
    xs = [-3, 1, 4]
    with pytest.raises(InconsistencyError):
        interpolate_int_poly(xs, [x * (x - 1) // 2 for x in xs])


def test_interpolation_rejects_non_integer():
    with pytest.raises(InconsistencyError):
        interpolate_int_poly([0, 2], [Fraction(0), Fraction(1)])


# ---------------------------------------------------------------------------
# Goeritz and signature


def test_goeritz_trefoil():
    d = parse_pd(RIGHT_TREFOIL_ROTATED)
    dets = sorted(abs(det_int(goeritz_matrix(d, c).matrix)) for c in (0, 1))
    assert dets == [3, 3]
    mats = {goeritz_matrix(d, c).matrix for c in (0, 1)}
    assert ((-2, 1), (1, -2)) in mats or ((-2, -1), (-1, -2)) in mats


def test_goeritz_determinants_match():
    for text, det in [(LEFT_TREFOIL, 3), (FIG8, 5), (KINK, 1), (GRANNY, 9)]:
        d = parse_pd(text)
        for c in (0, 1):
            assert abs(det_int(goeritz_matrix(d, c).matrix)) == det


def test_goeritz_matches_corner_pair_oracle():
    """The Goeritz matrix is the reduced signed Laplacian of the Tait graph,
    entry for entry the matrix read off the checkerboard's corner pairs."""
    texts = ["", KINK, FIG8, GRANNY] + [entry.pd for entry in load_corpus()]
    for text in texts:
        d = parse_pd(text)
        for dd in (d, mirror_diagram(d)):
            for c in (0, 1):
                assert goeritz_matrix(dd, c).matrix == goeritz_by_corner_pairs(dd, c), (text, c)


def test_signature_anchors():
    assert gl_signature(parse_pd(RIGHT_TREFOIL_ROTATED)) == -2
    assert gl_signature(parse_pd(LEFT_TREFOIL)) == 2
    assert gl_signature(parse_pd(FIG8)) == 0
    assert gl_signature(parse_pd(KINK)) == 0
    assert gl_signature(parse_pd(GRANNY)) == -4
    assert gl_signature(parse_pd("")) == 0


def test_signature_negates_under_mirror():
    for text in (LEFT_TREFOIL, FIG8, GRANNY):
        d = parse_pd(text)
        assert gl_signature(mirror_diagram(d)) == -gl_signature(d)


# ---------------------------------------------------------------------------
# Seifert matrices


def test_seifert_matrix_5_1():
    theta5 = PlaneGraph(
        tuple(((0, 1),) * 5),
        (tuple((e, 0) for e in range(5)), tuple((e, 1) for e in reversed(range(5)))),
    )
    d, comps = medial_diagram(theta5, 1)
    assert comps == 1
    v = seifert_matrix_special(d)
    assert v == (
        (-1, 0, 0, 1),
        (0, -1, 0, 0),
        (0, 1, -1, 0),
        (0, 0, 1, -1),
    )
    # the faces are five bigons and the basis drops the first; V + V^T is
    # minus their Gram form for a positive special diagram
    faces = face_vectors(d)
    assert faces == [{0: 1, 4: -1}, {1: -1, 2: 1}, {2: -1, 3: 1}, {3: -1, 4: 1}]
    for i, x in enumerate(faces):
        for j, y in enumerate(faces):
            assert v[i][j] + v[j][i] == -sum(x[c] * y.get(c, 0) for c in x)


def test_seifert_matrix_is_the_chord_count_in_the_face_basis():
    """V is P^T V_chords P: V_chords counts the chord crossings of the
    fundamental cycles inside each disk (`seifert_matrix_chords`), and P's
    column for face f holds the face cycle x_f at the cotree edges, which
    are its coordinates when x_f is a cycle and P is unimodular.  Backend
    agreement cannot catch a transposed V, since det(t V^T - V) is
    det(t V - V^T); this does.  On the corpus, and on seeded special draws of
    both signs, with some crossings changed too (not alternating)."""
    rng = random.Random(21)
    diagrams = [(parse_pd(e.pd), 0) for e in load_corpus()]
    for draw in itertools.islice(random_draws(rng, 9, links=False), 300):
        diagrams += [(draw.d, 0), (crossing_changed(draw.d, rng), draw.sign)]
    checked, changed = 0, {1: 0, -1: 0}
    for d, sign in diagrams:
        if not classify_special(d).is_special:
            continue
        g = orientable_tait_graph(d)
        walks = fundamental_cycles(g)
        faces = face_vectors(d)
        for x in faces:
            boundary = [0] * g.num_vertices
            for c, xc in x.items():
                boundary[g.edges[c][0]] -= xc
                boundary[g.edges[c][1]] += xc
            assert not any(boundary), d.pd_text()
        p = [[x.get(walk[0][0], 0) for x in faces] for walk in walks]
        assert abs(det_int(p)) == 1, d.pd_text()
        want = mat_mul(mat_mul(transpose(p), seifert_matrix_chords(d)), p)
        assert seifert_matrix_special(d) == tuple(map(tuple, want)), d.pd_text()
        checked += 1
        if sign and not is_alternating(d):
            changed[sign] += 1
    assert checked >= 300 and min(changed.values()) >= 40, (checked, changed)


def test_seifert_matrix_needs_special():
    with pytest.raises(ClassificationError):
        seifert_matrix_special(parse_pd(FIG8))


def test_seifert_matrix_unknot():
    assert seifert_matrix_special(parse_pd("")) == ()


def test_seifert_skew_is_unimodular():
    for text in (LEFT_TREFOIL, RIGHT_TREFOIL_ROTATED, GRANNY):
        v = seifert_matrix_special(parse_pd(text))
        r = len(v)
        skew = tuple(tuple(v[i][j] - v[j][i] for j in range(r)) for i in range(r))
        assert abs(det_int(skew)) == 1


# ---------------------------------------------------------------------------
# Alexander polynomial


def test_alexander_anchors():
    assert alexander(parse_pd(LEFT_TREFOIL)) == L("t - 1 + t^-1")
    assert alexander(parse_pd(RIGHT_TREFOIL_ROTATED)) == L("t - 1 + t^-1")
    assert alexander(parse_pd(FIG8)) == L("-t + 3 - t^-1")
    assert alexander(parse_pd(KINK)) == L("1")
    assert alexander(parse_pd("")) == L("1")
    assert alexander(parse_pd(GRANNY)) == L("t^2 - 2t + 3 - 2t^-1 + t^-2")


def test_alexander_backends_agree_on_special():
    for text in (LEFT_TREFOIL, RIGHT_TREFOIL_ROTATED, KINK, GRANNY):
        d = parse_pd(text)
        assert alexander_via_seifert(d) == alexander_via_wirtinger(d)


def test_alexander_wirtinger_handles_non_special():
    assert alexander_via_wirtinger(parse_pd(FIG8)) == L("-t + 3 - t^-1")
    with pytest.raises(ClassificationError):
        alexander_via_seifert(parse_pd(FIG8))


def test_alexander_is_mirror_invariant():
    for text in (LEFT_TREFOIL, FIG8, GRANNY):
        d = parse_pd(text)
        assert alexander(mirror_diagram(d)) == alexander(d)


def _torus_alexander(k):
    return LaurentPolynomial.from_dict({e: (-1) ** (k // 2 - e) for e in range(-(k // 2), k // 2 + 1)})


def test_wirtinger_matches_dense_on_corpus_and_mirrors():
    for entry in load_corpus():
        d = parse_pd(entry.pd)
        for o in (d, mirror_diagram(d)):
            assert alexander_via_wirtinger(o) == alexander_dense_wirtinger(o), entry.name


def test_wirtinger_matches_closed_form_on_torus_knots():
    for k in range(3, 42, 2):
        for sign in (1, -1):
            d = medial_diagram(theta(k), sign)[0]
            want = _torus_alexander(k)
            assert alexander_via_wirtinger(d) == want, k
            if k <= 15:
                assert alexander_dense_wirtinger(d) == want


def test_wirtinger_matches_dense_on_necklaces():
    for sides in ([3, 3, 3], [3, 5, 7], [3, 3, 3, 3, 3], [5, 7, 9], [9, 3, 5, 3, 7], [3, 11, 5, 7, 3]):
        for sign in (1, -1):
            d, comps = medial_diagram(necklace(sides), sign)
            assert comps == 1
            assert alexander_via_wirtinger(d) == alexander_dense_wirtinger(d), sides


def test_wirtinger_matches_dense_on_random_and_non_alternating_diagrams():
    rng = random.Random(404)
    non_alternating = 0
    for draw in itertools.islice(random_draws(rng, 9, links=False), 60):
        for dd in (draw.d, crossing_changed(draw.d, rng)):
            assert alexander_via_wirtinger(dd) == alexander_dense_wirtinger(dd), dd.pd_text()
            non_alternating += len(set(orient(dd).signs)) == 2
    assert non_alternating >= 20


def test_seifert_matches_dense_on_corpus_and_mirrors():
    for entry in load_corpus():
        d = parse_pd(entry.pd)
        if not classify_special(d).is_special:
            continue
        for o in (d, mirror_diagram(d)):
            assert alexander_via_seifert(o) == alexander_dense_seifert(o), entry.name


def test_seifert_matches_closed_form_on_torus_knots():
    for k in range(3, 42, 2):
        for sign in (1, -1):
            d = medial_diagram(theta(k), sign)[0]
            want = _torus_alexander(k)
            assert alexander_via_seifert(d) == want, k
            if k <= 15:
                assert alexander_dense_seifert(d) == want


def test_fox_rows_are_the_dense_fox_matrix_entries():
    """`_fox_rows` holds exactly the nonzero entries of the dense Fox matrix
    without its last row and column, kinks (where two arcs of a crossing
    are one overstrand and their entries merge) included: on the corpus and
    its mirrors, random medial knots and wide necklaces."""
    rng = random.Random(25)
    diagrams = [o for e in load_corpus() for o in (parse_pd(e.pd), mirror_diagram(parse_pd(e.pd)))]
    diagrams += [draw.d for draw in itertools.islice(random_draws(rng, 9, links=False), 300)]
    diagrams += [wide_necklace(rng) for _ in range(25)]
    kinks = 0
    for d in diagrams:
        m = fox_matrix_dense(d)
        want = [{j: e for j, e in enumerate(row[:-1]) if e} for row in m[:-1]]
        assert _fox_rows(d) == want, d.pd_text()
        kinks += any(len(list(filter(None, row))) < 3 for row in m)
    assert kinks > 200


def _residue_rows(monkeypatch, backend, d):
    """Rows of the unit residue that `backend` evaluates for d."""
    sizes = []

    def spy(rows, _real=invariants._unit_residue):
        m = _real(rows)
        sizes.append(len(m))
        return m

    monkeypatch.setattr(invariants, "_unit_residue", spy)
    backend(d)
    monkeypatch.undo()
    (size,) = sizes
    return size


def test_wirtinger_residue_is_sized_by_the_knot(monkeypatch):
    """A 41-crossing necklace reduces to a residue of at most 6 rows (the
    dense minor has 40); a fallback to dense elimination fails here."""
    for sign in (1, -1):
        d = medial_diagram(necklace([5, 7, 9, 11, 9]), sign)[0]
        assert d.n == 41
        assert 1 <= _residue_rows(monkeypatch, alexander_via_wirtinger, d) <= 6


def test_seifert_residue_is_sized_by_the_knot(monkeypatch):
    """T(2,41) and T(2,101) have 40 x 40 and 100 x 100 Seifert matrices,
    and both a residue of two rows."""
    for k in (41, 101):
        for sign in (1, -1):
            d = medial_diagram(theta(k), sign)[0]
            assert _residue_rows(monkeypatch, alexander_via_seifert, d) == 2, (k, sign)


def _seifert_rows(d, seifert=seifert_matrix_special):
    """The sparse rows of t V - V^T that `alexander_via_seifert` reduces, or
    those of another Seifert matrix of d."""
    v = seifert(d)
    rows = []
    for row, col in zip(v, zip(*v)):
        entries = ({k: c for k, c in ((1, a), (0, -b)) if c} for a, b in zip(row, col))
        rows.append({j: e for j, e in enumerate(entries) if e})
    return rows


def _random_laurent_rows(rng):
    """A sparse matrix of small Laurent entries, about half of them units;
    one in ten is not square."""
    n = rng.randint(0, 9)
    k = n if rng.random() < 0.9 else rng.randint(0, 9)
    density = rng.choice((0.3, 0.45, 0.7))
    rows = []
    for _ in range(k):
        row = {}
        for j in range(n):
            if rng.random() < density:
                e = {}
                for _ in range(rng.choice((1, 1, 1, 2))):
                    e[rng.randint(-1, 2)] = rng.choice((1, -1, 1, -1, 2, -3))
                if any(e.values()):
                    row[j] = {a: x for a, x in e.items() if x}
        rows.append(row)
    return rows


def test_unit_residue_heap_matches_rescan():
    """The heap picks the same pivots as rescanning every unit entry, so the
    residues are identical; malformed input raises in both."""
    def laurent_families():
        rng = random.Random(13)
        for entry in load_corpus():
            d = parse_pd(entry.pd)
            yield from (_fox_rows(o) for o in (d, mirror_diagram(d)))
            if classify_special(d).is_special:
                yield from (_seifert_rows(o) for o in (d, mirror_diagram(d)))
        diagrams = [medial_diagram(theta(k), k % 4 - 2)[0] for k in range(3, 62, 2)]
        diagrams += [wide_necklace(rng) for _ in range(25)]
        diagrams += [draw.d for draw in itertools.islice(random_draws(rng, 9, links=False), 300)]
        for d in diagrams:
            yield _fox_rows(d)
            if classify_special(d).is_special:
                yield _seifert_rows(d)
        for _ in range(2000):
            yield _random_laurent_rows(rng)
        # the Fox rows of two CI rows: a 301-crossing necklace, and the
        # connected sum of 30 trefoils
        yield _fox_rows(medial_diagram(necklace([61, 59, 61, 59, 61]), 1)[0])
        yield _fox_rows(medial_diagram(trefoil_chain(30), 1)[0])
        # dense: T(2,21) and T(2,41) in the chord basis, where t V - V^T has
        # no zero entry and the first pivots' rows and columns are full
        for k in (21, 41):
            yield _seifert_rows(medial_diagram(theta(k), 1)[0], seifert_matrix_chords)

    same = malformed = eliminated = 0
    for rows in laurent_families():
        try:
            want = unit_residue_rescan(copy.deepcopy(rows))
        except InconsistencyError:
            with pytest.raises(InconsistencyError):
                invariants._unit_residue(copy.deepcopy(rows))
            malformed += 1
            continue
        assert invariants._unit_residue(copy.deepcopy(rows)) == want, rows
        same += 1
        eliminated += len(rows) - len(want)
    assert same > 1800 and malformed > 500 and eliminated > 7000


def test_laurent_det_of_empty_and_malformed_matrices():
    assert _laurent_det([]) == L("1")
    for rows in (
        [{0: {1: 2}, 1: {1: 2}}, {}],  # a zero row
        [{0: {1: 2}}, {0: {0: 2}}],  # a zero column
        [{0: {1: 2}, 1: {0: 2}}],  # not square
    ):
        with pytest.raises(InconsistencyError):
            _laurent_det(rows)


def _up_to_unit(p: LaurentPolynomial) -> LaurentPolynomial:
    """p times the unit +-t^k that makes it a polynomial with a positive
    constant term (0 stays 0)."""
    if not p:
        return p
    p = p.shift(-p.min_exp())
    return -p if p.coefficient(0) < 0 else p


def test_laurent_det_matches_leibniz_up_to_a_unit():
    """Matrices with no unit entry (so the residue is the whole matrix) and
    large coefficients, against the Leibniz expansion.  On diag(3t^2,
    -5t^-1, 7) and on 2 H_4 (the order-4 Hadamard matrix doubled) the
    determinant's coefficient, 105 and 256, meets the bound (Hadamard's on
    the unit circle: isqrt of the product over rows of the summed squared
    1-norms), so reading the digits at a point below 2 * bound + 1 gets it
    wrong: with bound - 1 in its place, 256 reads as the digits [-256, 1]."""
    h4 = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))
    cases = [[[{2: 3}, {}, {}], [{}, {-1: -5}, {}], [{}, {}, {0: 7}]],
             [[{0: 2 * x} for x in row] for row in h4]]
    rng = random.Random(19)
    while len(cases) < 400:
        n = rng.randint(0, 5)
        m = []
        for _ in range(n):
            row = []
            for _ in range(n):
                e = {}
                if rng.random() < 0.8:
                    for _ in range(rng.randint(1, 3)):
                        e[rng.randint(-3, 3)] = rng.randint(-10**6, 10**6)
                e = {a: x for a, x in e.items() if x}
                if len(e) == 1 and abs(*e.values()) == 1:
                    e = {}
                row.append(e)
            m.append(row)
        if all(any(row) for row in m) and all(any(col) for col in zip(*m)):
            cases.append(m)
    for m in cases:
        rows = [{j: dict(e) for j, e in enumerate(row) if e} for row in m]
        want = LaurentPolynomial.from_dict(laurent_det_leibniz(m))
        assert _up_to_unit(_laurent_det(rows)) == _up_to_unit(want), m


def test_each_laurent_determinant_takes_one_integer_determinant(monkeypatch):
    """Kronecker substitution: one `det_int` call per Laurent determinant,
    whatever the residue's size or degree."""
    sizes = []

    def spy(m, _real=det_int):
        sizes.append(len(m))
        return _real(m)

    monkeypatch.setattr(invariants, "det_int", spy)
    diagrams = [parse_pd(entry.pd) for entry in load_corpus()]
    diagrams += [medial_diagram(theta(k), 1)[0] for k in (21, 41)]
    for d in diagrams:
        families = [_fox_rows(d)] + ([_seifert_rows(d)] if classify_special(d).is_special else [])
        for rows in families:
            sizes.clear()
            _laurent_det(rows)
            assert len(sizes) == 1, d.pd_text()
    sizes.clear()
    assert _laurent_det([]) == L("1") and sizes == [0]


# ---------------------------------------------------------------------------
# bundles


def test_bundle_trefoil():
    b = invariant_bundle(parse_pd(RIGHT_TREFOIL_ROTATED))
    assert b.signature == -2
    assert b.determinant == 3
    assert b.genus == 1 and b.genus_is_exact
    assert b.leading_coefficient == 1 and b.fibered is True
    assert b.speciality.is_special
    j = _invariants(b)
    assert j["alexander_str"] == "t - 1 + t^-1"
    assert j["determinant"] == 3


def test_bundle_fig8():
    b = invariant_bundle(parse_pd(FIG8))
    assert (b.signature, b.determinant, b.genus) == (0, 5, 1)
    assert not b.speciality.is_special
    assert b.fibered is True  # monic and alternating


def test_bundle_granny():
    b = invariant_bundle(parse_pd(GRANNY))
    assert (b.signature, b.determinant, b.genus) == (-4, 9, 2)
    assert b.speciality.is_special
    assert abs(b.signature) == 2 * b.genus == b.alexander.span()


def test_bundle_unknot_and_kink():
    for text in ("", KINK):
        b = invariant_bundle(parse_pd(text))
        assert (b.signature, b.determinant, b.genus) == (0, 1, 0)
        assert b.alexander == L("1")


def test_bundle_5_2():
    g52 = plane_graph_from_multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])
    d, comps = medial_diagram(g52, -1)
    assert comps == 1
    b = invariant_bundle(d)
    assert b.determinant == 7
    assert abs(b.signature) == 2
    assert b.alexander in (L("2t - 3 + 2t^-1"),)
    assert b.genus == 1
    assert b.leading_coefficient == 2 and b.fibered is False
    assert b.speciality.is_special


def test_bundle_consistency_on_random_special_knots():
    """Positive/negative special knots from random bipartite-ish plane graphs:
    every internal cross-check (backend agreement, Goeritz determinants,
    genus, the signature law) must pass."""
    rng = random.Random(777)
    knots = 0
    for draw in random_draws(rng, 7, links=False, tries=500):
        d = draw.d
        b = invariant_bundle(d)
        if not b.speciality.is_special:
            continue
        knots += 1
        assert abs(b.signature) == 2 * b.genus == b.alexander.span()
        assert b.determinant >= 1
        assert alexander_via_seifert(d) == alexander_dense_seifert(d)
        v = seifert_matrix_special(d)
        faces = face_vectors(d)
        s = b.speciality.uniform_sign
        for i, x in enumerate(faces):
            for j, y in enumerate(faces):
                assert v[i][j] + v[j][i] == -s * sum(x[c] * y.get(c, 0) for c in x)
        if knots == 12:
            break
    assert knots >= 12


def test_checkerboard_and_seifert_disk_classes_match_a_two_coloring():
    """The checkerboard's colors are the search 2-coloring of the faces
    across arcs, face 0 in color 0, and a special diagram's Seifert disk
    classes are that of its orientable Tait graph, disk 0 in class 0: on the
    corpus, wide-diagrams necklaces, 300 random medials (links too) and
    those with some crossings changed.  The classes are those of the
    runs-with rule (`seifert_disk_classes`)."""
    rng = random.Random(16)
    diagrams = [parse_pd(e.pd) for e in load_corpus()]
    diagrams += [wide_necklace(rng) for _ in range(25)]
    for draw in itertools.islice(random_draws(rng, 9), 300):
        diagrams += [draw.d, crossing_changed(draw.d, rng)]
    special = non_alternating = 0
    for d in diagrams[1:]:  # the corpus' first entry is the 0-crossing unknot
        faces = _trace_faces(d)
        sides: dict[int, list[int]] = {}
        for fi, face in enumerate(faces):
            for ci, s in face:
                sides.setdefault(d.crossings[ci][s], []).append(fi)
        colors = two_coloring(len(faces), sides.values())
        assert checkerboard(d) == tuple(
            tuple(f for f, c in zip(faces, colors) if c == k) for k in (0, 1)
        ), d.pd_text()
        if orient(d).components == 1 and classify_special(d).is_special:
            g = orientable_tait_graph(d)
            assert seifert_disk_classes(d, g) == two_coloring(g.num_vertices, g.edges), d.pd_text()
            special += 1
            non_alternating += not is_alternating(d)
    assert special >= 200 and non_alternating >= 50, (special, non_alternating)
    d = parse_pd(LEFT_TREFOIL)
    g = orientable_tait_graph(d)
    looped = g._replace(edges=g.edges[:-1] + ((0, 0),))  # a band from disk 0 to itself
    with pytest.raises(InconsistencyError, match="not bipartite"):
        seifert_disk_classes(d, looped)


def test_every_seifert_disk_is_at_one_end_of_all_its_bands():
    """`seifert_matrix_special` reads one sign off disk 0's first dart: each
    disk of a special diagram is end 0 of all its bands or end 1 of all of
    them, and the end-0 disks are those whose boundary runs with the knot,
    so a disk's class by the runs-with rule (`seifert_disk_classes`) is
    whether its end differs from disk 0's.  On the corpus, wide-diagrams
    necklaces, random medial knots, those with some crossings changed, and
    the mirrors of all of them; disk 0 is at end 0 on some and end 1 on
    others."""
    rng = random.Random(23)
    diagrams = [parse_pd(e.pd) for e in load_corpus()]
    diagrams += [wide_necklace(rng) for _ in range(25)]
    for draw in itertools.islice(random_draws(rng, 9, links=False), 300):
        diagrams += [draw.d, crossing_changed(draw.d, rng)]
    special = non_alternating = 0
    first_end = {0: 0, 1: 0}
    for d in diagrams + [mirror_diagram(d) for d in diagrams]:
        if d.n == 0 or orient(d).components != 1 or not classify_special(d).is_special:
            continue
        g = orientable_tait_graph(d)
        ends = []
        for rot in g.rotations:
            assert len({end for _, end in rot}) == 1, d.pd_text()
            ends.append(rot[0][1])
        assert seifert_disk_classes(d, g) == [int(e != ends[0]) for e in ends], d.pd_text()
        special += 1
        non_alternating += not is_alternating(d)
        first_end[ends[0]] += 1
    assert special >= 700 and non_alternating >= 150 and min(first_end.values()) >= 300, (
        special, non_alternating, first_end)


def test_alexander_via_seifert_refuses_a_seifert_form_without_unimodular_skew(monkeypatch):
    """`seifert_matrix_special` does not check det(V - V^T) = +-1 itself: the
    Seifert backend checks it as Delta(1).  A trefoil's V with one entry moved
    by +-1 or +-2 is refused whenever that breaks unimodularity."""
    refused = 0
    for text in (LEFT_TREFOIL, RIGHT_TREFOIL_ROTATED):
        d = parse_pd(text)
        v = seifert_matrix_special(d)
        for i, j in itertools.product(range(len(v)), repeat=2):
            for delta in (-2, -1, 1, 2):
                w = [list(row) for row in v]
                w[i][j] += delta
                if abs(det_int([[a - b for a, b in zip(row, col)] for row, col in zip(w, zip(*w))])) == 1:
                    continue
                monkeypatch.setattr(invariants, "seifert_matrix_special",
                                    lambda _d, w=tuple(map(tuple, w)): w)
                with pytest.raises(InconsistencyError):
                    alexander_via_seifert(d)
                refused += 1
    assert refused == 12
