"""Exact quadratic-form machinery: definiteness, decomposition, isometry."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from helpers import (
    bareiss_eager,
    congruent_scramble,
    crossing_changed,
    cycle_vectors,
    decomposable_bruteforce,
    det_fraction,
    enumerate_recursive,
    indecomposable_vectors,
    inertia_fraction,
    inverse_fraction,
    isometric,
    load_corpus,
    necklace,
    random_draws,
    random_unimodular,
    short_vectors_bruteforce,
    short_vectors_fraction,
    sparse_rows,
    summand_sublattices_shortvectors,
    sylvester_dense,
    theta,
    trefoil_chain,
)
import knotcert.lattice
from knotcert.errors import DegenerateFormError, InconsistencyError, RankCapExceededError
from knotcert.lattice import (
    GramForm,
    congruence,
    connected_classes,
    definiteness,
    dot,
    det_int,
    greedy_reduce,
    _bareiss,
    _enumerate,
    _fincke_pohst,
    _indecomposable_generators,
    _orthogonal_split,
    indecomposable_summands,
    inertia,
    _sylvester,
    lattice_row_basis,
    mat_mul,
    round_div,
    short_vectors,
    signature_det,
    transpose,
)
from knotcert import invariants
from knotcert.diagram import classify_special, parse_pd
from knotcert.invariants import alexander_via_wirtinger, goeritz_matrix
from knotcert.medial import medial_diagram
from knotcert.tait import (
    TaitGraph, flow_lattice, fundamental_cycles, orientable_tait_graph, tait_graph,
)

A2 = GramForm(((2, 1), (1, 2)))


def test_gramform_validation():
    with pytest.raises(ValueError):
        GramForm(((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        GramForm(((1, 2),))
    assert GramForm(()).rank == 0


@pytest.mark.parametrize("matrix", [((2.9, 1), (1, 2.9)), ((2, 1.0), (1.0, 2)), ((2, "1"), ("1", 2))])
def test_gramform_rejects_entries_that_are_not_integers(matrix):
    """A float or a string entry is refused, not truncated: ((2.9, 1), (1, 2.9))
    used to become A_2 and be called positive definite."""
    with pytest.raises(ValueError, match="integers"):
        GramForm(matrix)


def test_definiteness_examples():
    assert definiteness(A2) == "positive_definite"
    assert definiteness(GramForm(((0,),))) == "degenerate"
    assert definiteness(GramForm(((1, 0), (0, -1)))) == "indefinite"
    assert definiteness(GramForm(((-2, 1), (1, -2)))) == "negative_definite"
    # empty form counts as positive definite
    assert definiteness(GramForm(())) == "positive_definite"


def test_signature_examples():
    assert signature_det(sparse_rows(A2.matrix)) == (2, 3)
    assert signature_det(sparse_rows(((-3,),))) == (-1, -3)
    assert signature_det(sparse_rows(((1, 0), (0, -1)))) == (0, -1)
    assert signature_det(sparse_rows(())) == (0, 1)
    with pytest.raises(DegenerateFormError):
        signature_det(sparse_rows(((0,),)))


def test_inertia_zero_diagonal_hyperbolic():
    # antidiagonal pairing: no nonzero diagonal entry to pivot on
    assert inertia(((0, 1), (1, 0))) == (1, 1, 0)


def test_det_int():
    assert det_int(()) == 1
    assert det_int(((2, 1), (1, 2))) == 3
    assert det_int(((1, 2), (2, 4))) == 0
    m = ((3, 1, 0), (1, 4, 2), (0, 2, 5))
    # cofactor check by hand: 3*(20-4) - 1*(5-0) + 0 = 43
    assert det_int(m) == 43
    # pivot 1, then a zero pivot: one row swap, so the sign flips
    assert det_int(((1, 1, 0), (1, 1, 1), (0, 1, 1))) == -1
    assert det_int(((0, 1), (1, 0))) == -1


def test_det_int_and_fincke_pohst_share_one_elimination(monkeypatch):
    """`det_int` and the Fincke-Pohst weights each read one `_bareiss` run."""
    calls = []
    bareiss = knotcert.lattice._bareiss
    monkeypatch.setattr(knotcert.lattice, "_bareiss", lambda m: calls.append(m) or bareiss(m))
    assert det_int(A2.matrix) == 3
    assert len(short_vectors(A2.matrix, 2)) == 3
    assert calls == [A2.matrix, A2.matrix]
    swaps, pivots, rows = bareiss(((2, 1, 0), (1, 2, 1), (0, 1, 4)))
    # no swap: the leading principal minors 2, 3, 10, each with the entries
    # right of it in its row
    assert (swaps, pivots, rows) == (0, [2, 3, 10], [[1, 0], [2], []])
    assert bareiss(((1, 2), (2, 4)))[:2] == (0, [1])  # stops early


def test_short_vectors_a2():
    vecs = short_vectors(A2.matrix, 2)
    assert len(vecs) == 3  # the three root pairs of the hexagonal lattice
    assert all(norm == 2 for _, norm in vecs)
    assert short_vectors(A2.matrix, 1) == []
    # the natural-order elimination meets a pivot that is not positive, stops
    # early or needs a row swap
    forms = (((1, 0), (0, -1)), ((0, 1), (1, 0)), ((1, 1), (1, 1)), ((-2,),),
             ((1, 1, 0), (1, 1, 1), (0, 1, 1)))
    for m in forms:
        with pytest.raises(ValueError, match="positive definite"):
            short_vectors(m, 3)


def test_short_vectors_exactness():
    rng = random.Random(7)
    for _ in range(20):
        scrambled, _ = congruent_scramble([[1, 0], [0, 1]], rng)
        vecs = short_vectors(scrambled, 4)
        norms = sorted(n for _, n in vecs)
        # Z^2 has 2 pairs of norm 1, 2 pairs of norm 2, 2 of norm 4 (<=4: +...)
        # count vectors with x^2+y^2 <= 4 up to sign: (1,0),(0,1),(1,1),(1,-1),
        # (2,0),(0,2) -> 6
        assert len(vecs) == 6
        assert norms == [1, 1, 2, 2, 4, 4]


def test_greedy_reduce_recovers_small_diagonal():
    rng = random.Random(21)
    base = [[2, 1], [1, 2]]
    for _ in range(25):
        scrambled, _ = congruent_scramble(base, rng)
        red, u = greedy_reduce(scrambled)
        assert congruence(u, scrambled) == red
        assert max(red[i][i] for i in range(2)) <= 4


def test_lattice_row_basis():
    assert lattice_row_basis([(0, 0)]) == []
    assert lattice_row_basis([(2, 0), (3, 0)]) == [[1, 0]]
    b = lattice_row_basis([(1, 1, 0), (0, 1, 1), (1, 0, -1)])
    assert len(b) == 2  # third vector is dependent


def test_indecomposable_a2():
    dec = indecomposable_summands(A2)
    assert len(dec.summands) == 1
    assert dec.summands[0].matrix == A2.matrix or det_int(dec.summands[0].matrix) == 3


def test_decomposition_diag33():
    dec = indecomposable_summands(GramForm(((3, 0), (0, 3))))
    assert [s.matrix for s in dec.summands] == [((3,),), ((3,),)]
    # witness re-verification
    u_cols = [list(r) for r in dec.witness]
    assert abs(det_int(u_cols)) == 1
    assert congruence(u_cols, ((3, 0), (0, 3))) == [[3, 0], [0, 3]]


def test_decomposition_negative_definite():
    dec = indecomposable_summands(GramForm(((-3, 0), (0, -3))))
    assert [s.matrix for s in dec.summands] == [((-3,),), ((-3,),)]


def test_decomposition_rejects_indefinite_and_degenerate():
    with pytest.raises(ValueError):
        indecomposable_summands(GramForm(((1, 0), (0, -1))))
    with pytest.raises(DegenerateFormError):
        indecomposable_summands(GramForm(((0,),)))


@pytest.mark.parametrize(
    "matrix, error",
    [
        (((0, 1), (1, 0)), ValueError),
        (((-1, 0), (0, 1)), ValueError),
        (((1, 1), (1, 1)), DegenerateFormError),
        (((-1, -1), (-1, -1)), DegenerateFormError),
    ],
)
def test_decomposition_refuses_forms_whose_first_entry_misleads(matrix, error):
    """The sign is read off the first diagonal entry, which any definite
    form shares with its whole diagonal; the Fincke-Pohst elimination still
    refuses a form that is not definite, whatever that entry says."""
    with pytest.raises(error):
        indecomposable_summands(GramForm(matrix))


_DEFINITE_BLOCKS = ([[1]], [[3]], [[2, 1], [1, 2]], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
                    [[4, 1], [1, 2]], [[2, 1, 1], [1, 2, 1], [1, 1, 5]])


def _scrambled_definite(rng, sign):
    """A congruence-scrambled orthogonal sum of one to three definite
    blocks, times sign."""
    m: list[list[int]] = []
    for block in rng.choices(_DEFINITE_BLOCKS, k=rng.randint(1, 3)):
        k, n = len(block), len(m)
        m = [row + [0] * k for row in m] + [[0] * n + list(row) for row in block]
    scrambled, _ = congruent_scramble(m, rng)
    return [[sign * x for x in row] for row in scrambled]


def test_decomposition_refusals_match_definiteness():
    """Seeded sweep: indecomposable_summands raises DegenerateFormError
    exactly on the forms `definiteness` (the sparse Sylvester pass) calls
    degenerate and ValueError exactly on the indefinite ones; on a definite
    form its summands carry the form's sign."""
    rng = random.Random(37)
    kinds = ("dense", "zero-diagonal", "hyperbolic", "rank-deficient", "large")
    seen = Counter()
    for trial in range(1500):
        if trial % 3:
            m = _random_symmetric(rng, rng.randint(1, 6), kinds[trial % len(kinds)])
        else:
            m = _scrambled_definite(rng, rng.choice((1, -1)))
        q = GramForm(tuple(map(tuple, m)))
        kind = definiteness(q)
        if kind == "degenerate":
            with pytest.raises(DegenerateFormError):
                indecomposable_summands(q)
        elif kind == "indefinite":
            with pytest.raises(ValueError):
                indecomposable_summands(q)
        else:
            dec = indecomposable_summands(q)
            assert {definiteness(s) for s in dec.summands} == {kind}, m
        seen[kind, (m[0][0] > 0) - (m[0][0] < 0)] += 1
    assert min(seen.values()) > 20 and len(seen) == 8, seen


def test_decomposition_scrambled_blocks():
    rng = random.Random(99)
    base = [
        [2, 1, 0, 0],
        [1, 2, 0, 0],
        [0, 0, 3, 0],
        [0, 0, 0, 5],
    ]
    for _ in range(15):
        scrambled, _ = congruent_scramble(base, rng)
        dec = indecomposable_summands(GramForm(tuple(map(tuple, scrambled))))
        dets = sorted(det_int(s.matrix) for s in dec.summands)
        assert dets == [3, 3, 5]
        u_cols = [list(r) for r in dec.witness]
        got = congruence(u_cols, scrambled)
        # block diagonal with the summand blocks in order
        off = 0
        for s in dec.summands:
            r = s.rank
            for i in range(r):
                for j in range(r):
                    assert got[off + i][off + j] == s.matrix[i][j]
            off += r


def test_isometric_examples():
    ok, witness = isometric(A2, GramForm(((2, -1), (-1, 2))))
    assert ok
    u_cols = [list(r) for r in witness]
    assert congruence(u_cols, A2.matrix) == [[2, -1], [-1, 2]]
    assert abs(det_int(u_cols)) == 1

    ok, witness = isometric(A2, GramForm(((1, 0), (0, 3))))
    assert not ok and witness is None


def test_isometric_rejects_a_wrong_witness(monkeypatch):
    # the oracle re-checks its witness with the package's congruence
    monkeypatch.setattr(knotcert.lattice, "congruence", lambda u, g: [[0, 0], [0, 0]])
    with pytest.raises(InconsistencyError):
        isometric(A2, GramForm(((2, -1), (-1, 2))))


def test_isometric_rank_mismatch_and_empty():
    assert isometric(GramForm(()), GramForm(())) == (True, ())
    assert isometric(A2, GramForm(((2,),)))[0] is False


def test_isometric_random_congruence():
    rng = random.Random(5)
    base = GramForm(((2, 1, 0), (1, 2, 1), (0, 1, 4)))
    for _ in range(15):
        scrambled, _ = congruent_scramble(base.matrix, rng)
        ok, witness = isometric(base, GramForm(tuple(map(tuple, scrambled))))
        assert ok
        u_cols = [list(r) for r in witness]
        assert congruence(u_cols, base.matrix) == scrambled


def test_isometric_distinguishes_forms_with_equal_det():
    # diag(1, 16) vs diag(4, 4): same determinant, different minimal norms
    ok, _ = isometric(GramForm(((1, 0), (0, 16))), GramForm(((4, 0), (0, 4))))
    assert not ok


def test_rank_cap():
    big = GramForm(tuple(tuple(2 if i == j else 0 for j in range(13)) for i in range(13)))
    with pytest.raises(RankCapExceededError):
        indecomposable_summands(big)
    # explicit override allows it
    dec = indecomposable_summands(big, rank_cap=13)
    assert len(dec.summands) == 13


def test_unimodular_helper_is_unimodular():
    rng = random.Random(3)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            u = random_unimodular(n, rng)
            assert abs(det_int(u)) == 1


# ---------------------------------------------------------------------------
# kernels against independent reference implementations (tests/helpers.py)


def _random_int_matrix(rng, n, density, lo=-9, hi=9):
    return [[rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)]


def test_det_int_matches_fraction_elimination():
    rng = random.Random(2024)
    for trial in range(300):
        n = rng.randint(1, 9)
        m = _random_int_matrix(rng, n, rng.choice((0.2, 0.5, 1.0)))
        if trial % 3 == 0 and n > 1:  # zero leading pivot: forces a row swap
            m[0][0] = 0
        if trial % 5 == 0 and n > 2:  # rank deficient
            m[-1] = [a + b for a, b in zip(m[0], m[1])]
        assert det_int(m) == det_fraction(m), m


def test_det_int_on_sparse_fox_like_rows():
    """Rows with three nonzero entries c0 + c1 x at a point x, like a Fox
    matrix evaluated at an integer, and with large entries."""
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 14)
        x = rng.choice((2, 5, 41, 10**6))
        m = [[0] * n for _ in range(n)]
        for row in m:
            for j, (c0, c1) in zip(rng.sample(range(n), 3 if n >= 3 else n),
                                   ((1, -1), (0, 1), (-1, 0))):
                row[j] += c0 + c1 * x
        assert det_int(m) == det_fraction(m)


def test_bareiss_matches_eager_oracle(monkeypatch):
    """Lazy rescaling changes no step of `_bareiss`: it gives the swaps, the
    pivots and the pivot rows of the eager oracle, on seeded random matrices
    of size 0-8 (zero pivot columns, forced swaps, early stops), on the flow
    Grams of the corpus, their negatives and greedy-reduced forms, and on
    the Fox residue of the connected sum of 30 trefoils at its Kronecker
    point (checked last: a wrong scale makes its entries blow up)."""
    counts = Counter()

    def check(m):
        swaps, pivots, rows = bareiss_eager(m)
        lazy = _bareiss(m)
        assert lazy[:2] == (swaps, pivots) and lazy[2][: len(pivots)] == rows[: len(pivots)], m
        counts.update(matrices=1, swapped=swaps > 0, stopped=len(pivots) < len(m))

    rng = random.Random(31)
    for trial in range(3000):
        n = rng.randint(0, 8)
        m = _random_int_matrix(rng, n, rng.choice((0.2, 0.4, 0.7, 1.0)), -3, 3)
        if trial % 3 == 0 and n > 1:  # zero leading pivot: forces a row swap
            m[0][0] = 0
        if trial % 5 == 0 and n > 2:  # rank deficient: stops early
            m[-1] = [a - b for a, b in zip(m[0], m[1])]
        if trial % 7 == 0 and n:  # a zero column
            c = rng.randrange(n)
            for row in m:
                row[c] = 0
        check(m)
    for entry in load_corpus():
        d = parse_pd(entry.pd)
        if classify_special(d).is_special:
            gram = [list(row) for row in flow_lattice(orientable_tait_graph(d)).matrix]
            for m in (gram, [[-x for x in row] for row in gram], greedy_reduce(gram)[0]):
                check(m)
    assert counts["matrices"] > 3080 and counts["swapped"] > 1000 and counts["stopped"] > 1000
    kronecker = []
    monkeypatch.setattr(invariants, "det_int", lambda m: kronecker.append(m) or det_int(m))
    alexander_via_wirtinger(medial_diagram(trefoil_chain(30), 1)[0])
    monkeypatch.undo()
    (m,) = kronecker
    assert len(m) == 30 and max(abs(x) for row in m for x in row).bit_length() > 400
    check(m)


def _random_definite(rng, n):
    """B^T B for a random nonsingular integer B, or an orthogonal sum of
    A_k blocks scrambled by a unimodular change of basis."""
    if rng.random() < 0.5:
        while True:
            b = _random_int_matrix(rng, n, 0.6, -2, 2)
            if det_fraction(b):
                return [list(r) for r in mat_mul(transpose(b), b)]
    blocks, left = [], n
    while left:
        k = rng.randint(1, left)
        blocks.append(k)
        left -= k
    g = [[0] * n for _ in range(n)]
    off = 0
    for k in blocks:
        for i in range(k):
            g[off + i][off + i] = 2
            if i:
                g[off + i][off + i - 1] = g[off + i - 1][off + i] = -1
        off += k
    return congruent_scramble(g, rng)[0]


def test_short_vectors_match_box_scan():
    rng = random.Random(12)
    for _ in range(40):
        gram = _random_definite(rng, rng.randint(1, 4))
        bound = rng.randint(1, max(gram[i][i] for i in range(len(gram))))
        assert short_vectors(gram, bound) == short_vectors_bruteforce(gram, bound)


def _root_lattice(kind, n):
    """Cartan matrix of A_n, D_n or E_8: 2 on the diagonal, -1 per edge of
    the Dynkin diagram."""
    edges = [(i, i + 1) for i in range(n - 1)]
    if kind == "D":
        edges[-1] = (n - 3, n - 1)
    elif kind == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
    g = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def _random_form_and_bound(rng, trial):
    """A seeded positive definite form of rank 1-12 with an enumeration
    bound: a scrambled orthogonal sum of A_n/D_n/E_8 blocks (bound 2, the
    roots, above rank 6, and 1-4 below), B^T B (bound near its least
    diagonal entry), or B^T B times c plus a diagonal perturbation below c,
    so that entries reach 10^6."""
    n = rng.randint(1, 12)
    if trial % 3 == 0:
        g = [[0] * n for _ in range(n)]
        off = 0
        while off < n:
            left = n - off
            kind = rng.choice("A" + "D" * (left >= 4) + "E" * (left >= 8))
            k = 8 if kind == "E" else rng.randint(4 if kind == "D" else 1, left)
            for i, row in enumerate(_root_lattice(kind, k)):
                g[off + i][off:off + k] = row
            off += k
        bound = 2 if n > 6 else rng.randint(1, 4)
    else:
        g = _random_definite(rng, n)
        least = min(g[i][i] for i in range(n))
        bound = rng.randint(max(1, least - 2), least + 1)
    if trial % 3 == 2:
        c = rng.randint(1, 10**6 // max(max(map(abs, row)) for row in g))
        g = [[c * x + (i == j) * rng.randrange(c) for j, x in enumerate(row)]
             for i, row in enumerate(g)]
        bound = c * (bound + 1) + rng.randrange(c)
    elif trial % 3 == 0:
        g = congruent_scramble(g, rng)[0]
    return g, bound


def test_short_vectors_match_fraction_ldl_on_random_forms():
    rng = random.Random(5)
    ranks, largest = set(), 0
    for trial in range(540):
        gram, bound = _random_form_and_bound(rng, trial)
        ranks.add(len(gram))
        largest = max(largest, *(abs(x) for row in gram for x in row))
        assert short_vectors(gram, bound) == short_vectors_fraction(gram, bound), (gram, bound)
    assert ranks == set(range(1, 13)) and largest >= 10**5


def _knot_flow_lattices():
    """Flow lattices of both Tait graphs of every bundled diagram, of the
    orientable color of T(2,k), k = 3..25, and of necklaces."""
    for entry in load_corpus():
        d = parse_pd(entry.pd)
        for color in (0, 1):
            yield flow_lattice(tait_graph(d, color))
    for g in [theta(k) for k in range(3, 26, 2)] + [necklace(s) for s in ([3, 3, 3], [3, 5, 7], [3, 3, 3, 3, 3], [9, 3, 5, 3, 7])]:
        yield flow_lattice(orientable_tait_graph(medial_diagram(g, 1)[0]))


def test_short_vectors_match_fraction_ldl_on_knot_lattices():
    for form in _knot_flow_lattices():
        gram = [list(r) for r in form.matrix]
        if not gram:
            continue
        for g in (gram, greedy_reduce(gram)[0]):
            bound = max(g[i][i] for i in range(len(g)))
            assert short_vectors(g, bound) == short_vectors_fraction(g, bound)


def _same_visits(gram, bound, parity=None):
    """The coset search yields the (x, remaining) pairs of the recursive
    oracle in the same order; returns how many."""
    fp = _fincke_pohst(gram)
    want = []
    enumerate_recursive(fp, bound, lambda x, r: want.append((tuple(x), r)), parity)
    assert [(tuple(x), r) for x, r in _enumerate(fp, bound, parity)] == want, (gram, bound, parity)
    return len(want)


def test_coset_search_visits_in_the_recursive_order_on_random_forms():
    rng = random.Random(29)
    plain = coset = 0
    for trial in range(540):
        gram, bound = _random_form_and_bound(rng, trial)
        n = len(gram)
        i = rng.randrange(n)
        plain += _same_visits(gram, bound)
        coset += _same_visits(gram, 2 * bound, [rng.randint(-1, 1) for _ in range(n)])
        coset += _same_visits(gram, gram[i][i], [int(i == j) for j in range(n)])
    assert plain > 5_000 and coset > 1_000, (plain, coset)


def test_coset_search_visits_in_the_recursive_order_on_knot_lattices():
    for form in _knot_flow_lattices():
        if not form.rank:
            continue
        gram = greedy_reduce([list(r) for r in form.matrix])[0]
        n = len(gram)
        _same_visits(gram, max(gram[i][i] for i in range(n)))
        for i in range(n):
            _same_visits(gram, gram[i][i], [int(i == j) for j in range(n)])


def test_coset_search_is_not_bounded_by_the_recursion_limit():
    """2I of rank 1,100 is deeper than Python's default recursion limit:
    e_0 does not split, and e_0 + e_1 splits into e_0 and e_1."""
    n = 1100
    gram = [[2 * (i == j) for j in range(n)] for i in range(n)]
    fp = _fincke_pohst(gram)
    e = [[int(i == j) for j in range(n)] for i in range(2)]
    assert _orthogonal_split(fp, gram, e[0]) is None
    parts = _orthogonal_split(fp, gram, [a + b for a, b in zip(*e)])
    assert sorted(parts) == sorted(e)


def _filter_agrees(gram):
    g_red, _ = greedy_reduce(gram)
    shorts = short_vectors(g_red, max(g_red[i][i] for i in range(len(g_red))))
    kept = [v for v, _ in indecomposable_vectors(g_red, shorts)]
    dropped = decomposable_bruteforce(g_red, shorts)
    assert sorted(kept + dropped) == sorted(v for v, _ in shorts)
    assert not set(kept) & set(dropped)
    for v, gv in indecomposable_vectors(g_red, shorts):
        assert list(gv) == [sum(r * x for r, x in zip(row, v)) for row in g_red]
    return len(kept), len(dropped)


def test_indecomposable_filter_matches_definition_on_random_forms():
    rng = random.Random(31)
    dropped_any = False
    for _ in range(40):
        _kept, dropped = _filter_agrees(_random_definite(rng, rng.randint(1, 6)))
        dropped_any |= dropped > 0
    assert dropped_any


@pytest.mark.parametrize(
    "graph",
    [theta(k) for k in (3, 5, 9, 13)] + [necklace(s) for s in ([3, 3, 3], [3, 5, 3], [3, 3, 3, 3, 3])],
    ids=lambda g: f"{g.num_edges}edges-{g.num_vertices}vertices",
)
def test_indecomposable_filter_matches_definition_on_knot_lattices(graph):
    d = medial_diagram(graph, 1)[0]
    gram = flow_lattice(orientable_tait_graph(d))
    _filter_agrees([list(r) for r in gram.matrix])


# ---------------------------------------------------------------------------
# the coset-enumerated decomposition against the short-vector route, the
# graph's cycles and the Hermite normal form


def _summand_sublattices(gram):
    """The summands of `indecomposable_summands`, each as the Hermite normal
    form of its witness columns (original coordinates), sorted."""
    dec = indecomposable_summands(GramForm(tuple(map(tuple, gram))), rank_cap=len(gram))
    cols = transpose(dec.witness)
    out, off = [], 0
    for s in dec.summands:
        out.append(lattice_row_basis(cols[off:off + s.rank]))
        off += s.rank
    return sorted(out)


def test_summands_match_short_vector_route_on_random_forms():
    rng = random.Random(17)
    several = 0
    for trial in range(510):
        gram, _bound = _random_form_and_bound(rng, trial)
        want = summand_sublattices_shortvectors(gram)
        assert _summand_sublattices(gram) == want, gram
        several += len(want) > 1
    assert several > 150, several


def test_summands_match_short_vector_route_on_knot_lattices():
    for form in _knot_flow_lattices():
        if form.rank:
            want = summand_sublattices_shortvectors(form.matrix)
            assert _summand_sublattices(form.matrix) == want


def _is_hermite(rows):
    """Echelon rows with positive pivots, each entry above a pivot in [0, pivot)."""
    pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
    return (
        all(a < b for a, b in zip(pivots, pivots[1:]))
        and all(r[p] > 0 for r, p in zip(rows, pivots))
        and all(0 <= rows[i][p] < rows[k][p] for k, p in enumerate(pivots) for i in range(k))
    )


def test_lattice_row_basis_is_the_hermite_normal_form():
    rng = random.Random(41)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 8)
        vecs = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        h = lattice_row_basis(vecs)
        assert _is_hermite(h), h
        # unique: the same rows for the same sublattice from other generators
        assert lattice_row_basis(h) == h
        assert lattice_row_basis(h + vecs) == h
        assert lattice_row_basis(mat_mul(transpose(random_unimodular(m, rng)), vecs)) == h


def test_summand_bases_are_hermite_normal_forms_in_the_reduced_basis():
    rng = random.Random(23)
    for trial in range(150):
        gram, _bound = _random_form_and_bound(rng, trial)
        dec = indecomposable_summands(GramForm(tuple(map(tuple, gram))))
        _g_red, u_red = greedy_reduce(gram)
        rows = transpose(mat_mul(inverse_fraction(u_red), [list(r) for r in dec.witness]))
        blocks, off = [], 0
        for s in dec.summands:
            blocks.append(rows[off:off + s.rank])
            off += s.rank
        assert all(_is_hermite(b) for b in blocks), blocks
        assert blocks == sorted(blocks)


def test_one_summand_witness_is_the_reduced_basis():
    seen = 0
    for form in _knot_flow_lattices():
        dec = indecomposable_summands(form, rank_cap=max(form.rank, 1))
        if len(dec.summands) == 1:
            g_red, u_red = greedy_reduce(form.matrix)
            assert [list(r) for r in dec.witness] == u_red
            assert [list(r) for r in dec.summands[0].matrix] == g_red
            seen += 1
    assert seen > 40, seen


def _is_simple_cycle(g, vec):
    """vec, over the edges of g, is +-1 on the edges of one simple cycle and 0
    elsewhere (a loop is a cycle of length one)."""
    if any(abs(c) > 1 for c in vec):
        return False
    support = [g.edges[e] for e, c in enumerate(vec) if c]
    degree = Counter(v for edge in support for v in edge)
    verts = {v: i for i, v in enumerate(degree)}
    return set(degree.values()) == {2} and set(
        connected_classes(len(verts), ((verts[a], verts[b]) for a, b in support))
    ) == {0}


def _cycle_oracle_graphs():
    """Tait graphs of the bundled diagrams, T(2,k) and necklaces, and random
    connected multigraphs with loops and parallel edges (the rotation system
    plays no part in the cycle space, so those need not be planar)."""
    for entry in load_corpus():
        d = parse_pd(entry.pd)
        yield from (tait_graph(d, color) for color in (0, 1))
    for g in [theta(k) for k in (3, 9, 25)] + [necklace(s) for s in ([3, 5, 7], [9, 3, 5, 3, 7])]:
        yield orientable_tait_graph(medial_diagram(g, 1)[0])
    rng = random.Random(2)
    for _ in range(250):
        nv = rng.randint(1, 9)
        edges = [(rng.randrange(v), v) for v in range(1, nv)]
        edges += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 14))]
        rotations = tuple(tuple((e, end) for e, uv in enumerate(edges) for end in (0, 1) if uv[end] == v)
                          for v in range(nv))
        yield TaitGraph(tuple(edges), rotations, (1,) * len(edges))


def test_kept_generators_are_simple_cycles_of_the_graph():
    """The irreducible flows of a graph are its cycles (Greene, "Lattices,
    graphs, and Conway mutation", 2013); every generator that the coset
    search keeps is one, in edge coordinates."""
    kept = 0
    for g in _cycle_oracle_graphs():
        gram, basis = flow_lattice(g), fundamental_cycles(g)
        if not gram.rank:
            continue
        g_red, u_red = greedy_reduce(gram.matrix)
        for v in _indecomposable_generators(g_red):
            coeffs = [dot(row, v) for row in u_red]
            edge_vec = [dot(coeffs, col) for col in zip(*cycle_vectors(g, basis))]
            assert _is_simple_cycle(g, edge_vec), (g.edges, edge_vec)
            kept += 1
    assert kept > 1500, kept


def _random_symmetric(rng, n, kind):
    """A seeded symmetric integer matrix of one of five kinds."""
    big = 10**6 if kind == "large" else 6
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.6:
                m[i][j] = m[j][i] = rng.randint(-big, big)
    if kind == "zero-diagonal":
        for i in range(n):
            m[i][i] = 0
    elif kind == "hyperbolic":
        # hyperbolic planes, +-1 and 0 summands, scrambled by a congruence
        m = [[0] * n for _ in range(n)]
        i = 0
        while i < n:
            if i + 1 < n and rng.random() < 0.6:
                m[i][i + 1] = m[i + 1][i] = rng.choice((1, -1, 2))
                i += 2
            else:
                m[i][i] = rng.choice((1, -1, 0))
                i += 1
        m = congruent_scramble(m, rng)[0]
    elif kind == "rank-deficient":
        # C^T D C with C of k < n rows
        k = rng.randint(0, max(0, n - 1))
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        d = [rng.choice((1, -1, 2)) for _ in c]  # one factor per row of C
        dc = [[di * x for x in row] for di, row in zip(d, c)]
        m = mat_mul(transpose(c), dc) if k else [[0] * n for _ in range(n)]
    assert m == transpose(m), (kind, m)
    return m


def test_inertia_matches_fraction_elimination():
    rng = random.Random(4)
    kinds = ("dense", "zero-diagonal", "hyperbolic", "rank-deficient", "large")
    seen_kernel = seen_swap = 0
    for trial in range(2000):
        kind = kinds[trial % len(kinds)]
        m = _random_symmetric(rng, rng.randint(0, 7), kind)
        got = inertia(m)
        assert got == inertia_fraction(m), (kind, m)
        assert sum(got) == len(m)
        seen_kernel += got[2] > 0
        seen_swap += bool(m) and m[0][0] == 0
    assert seen_kernel > 300 and seen_swap > 300


def test_inertia_needs_e_i_plus_e_j_midway():
    # after one pivot the remaining diagonal vanishes but the block does not
    m = [[1, 1, 1], [1, 1, 2], [1, 2, 1]]
    assert inertia(m) == inertia_fraction(m) == (2, 1, 0)


def test_signature_det_matches_det_int():
    """The determinant read off the symmetric pass is det_int's, also after
    swaps and e_i += e_j steps; a degenerate form (det_int 0) raises."""
    rng = random.Random(5)
    kinds = ("dense", "zero-diagonal", "hyperbolic", "rank-deficient", "large")
    seen_degenerate = seen_swap = seen_sum = 0
    for trial in range(2000):
        kind = kinds[trial % len(kinds)]
        m = _random_symmetric(rng, rng.randint(0, 7), kind)
        pos, neg, zero = inertia_fraction(m)
        if zero:
            assert det_int(m) == 0, m
            with pytest.raises(DegenerateFormError):
                signature_det(sparse_rows(m))
            seen_degenerate += 1
            continue
        assert signature_det(sparse_rows(m)) == (pos - neg, det_int(m)), (kind, m)
        seen_swap += bool(m) and m[0][0] == 0
        seen_sum += len(m) > 1 and not any(m[i][i] for i in range(len(m)))
    assert seen_degenerate > 300 and seen_swap > 100 and seen_sum > 100
    m = ((1, 1, 1), (1, 1, 2), (1, 2, 1))  # e_i += e_j midway
    assert signature_det(sparse_rows(m)) == (1, det_int(m)) == (1, -1)


def test_greedy_reduce_ends_on_indefinite_and_degenerate_forms():
    """A step needs G_ii > 0 and leaves G_jj positive and smaller, so the
    sum of the positive diagonal entries falls at each step and the loop
    ends on any symmetric form; the result is U^T G U with U unimodular."""
    rng = random.Random(23)
    kinds = ("dense", "zero-diagonal", "hyperbolic", "rank-deficient", "large")
    stepped = 0
    for trial in range(1000):
        kind = kinds[trial % len(kinds)]
        m = _random_symmetric(rng, rng.randint(0, 7), kind)
        red, u = greedy_reduce(m)
        assert congruence(u, m) == red, (kind, m)
        assert abs(det_int(u)) == 1, (kind, m)
        positive = lambda g: sum(g[i][i] for i in range(len(g)) if g[i][i] > 0)
        assert positive(red) <= positive(m), (kind, m)
        stepped += red != m
    assert stepped > 100


def _signed_laplacian(n, edges, signs):
    """The signed Laplacian of a multigraph on n vertices, loops skipped,
    with the last vertex's row and column dropped."""
    m = [[0] * n for _ in range(n)]
    for (u, v), s in zip(edges, signs):
        if u != v:
            m[u][v] -= s
            m[v][u] -= s
            m[u][u] += s
            m[v][v] += s
    return [row[:-1] for row in m[:-1]]


def _kernel_inputs(rng):
    """(kind, symmetric matrix) pairs for the sparse Sylvester kernel."""
    yield "hyperbolic plane", [[0, 1], [1, 0]]
    yield "e_i += e_j midway", [[1, 1, 1], [1, 1, 2], [1, 2, 1]]
    for k in range(4):
        yield "all-zero block", [[0] * k for _ in range(k)]
        m = [[0] * (k + 2) for _ in range(k + 2)]
        m[0][:2], m[1][:2] = [2, 1], [1, 2]
        yield "A_2 + zero block", m
    graphs = random_draws(rng, 9, 7, stage="graph")
    for n, edges, *_ in itertools.islice(graphs, 200):
        s = rng.choice((1, -1))
        yield "definite", _signed_laplacian(n, edges, [s] * len(edges))
        yield "mixed signs", _signed_laplacian(n, edges, [rng.choice((1, -1)) for _ in edges])
        n2, edges2, *_ = next(graphs)
        union = edges + [(u + n, v + n) for u, v in edges2]
        yield "disconnected", _signed_laplacian(n + n2, union, [rng.choice((1, -1)) for _ in union])
    for _ in range(200):
        # closed walks of even length with alternating edge signs and no
        # loops: every vertex's signed degree, so the whole diagonal, is zero
        n = rng.randint(3, 7)
        edges = []
        for _ in range(rng.randint(1, 3)):
            length = 2 * rng.randint(2, 4)
            walk = [rng.randrange(n)]
            while len(walk) < length:
                ends = {walk[-1], walk[0]} if len(walk) == length - 1 else {walk[-1]}
                walk.append(rng.choice([v for v in range(n) if v not in ends]))
            edges += zip(walk, walk[1:] + walk[:1])
        yield "zero diagonal", _signed_laplacian(n, edges, [(-1) ** i for i in range(len(edges))])
    for draw in itertools.islice(random_draws(rng, 12), 150):
        changed = crossing_changed(draw.d, rng)
        for c in (0, 1):
            yield "crossings changed", transpose(goeritz_matrix(changed, c).matrix)


def test_sparse_kernel_matches_fraction_and_dense_elimination():
    """The least-degree sparse kernel gives the inertia of Fraction
    elimination and the determinant of Fraction Gaussian elimination, and the
    same counts and last pivot as the dense natural-order pass, on signed
    Laplacians (definite, indefinite, degenerate, disconnected), Goeritz
    matrices of diagrams with crossings changed, the hyperbolic plane and
    all-zero blocks.  A matrix with a vanishing diagonal and a nonzero entry
    needs the e_i += e_j repair at the first step."""
    rng = random.Random(17)
    seen = Counter()
    for kind, m in _kernel_inputs(rng):
        assert m == transpose(m), (kind, m)
        pos, neg, zero = inertia_fraction(m)
        got = _sylvester(sparse_rows(m))
        dense = sylvester_dense(m)
        assert got[:3] == dense[:3] == (pos, neg, zero), (kind, m)
        if zero:
            assert det_fraction(m) == 0
            with pytest.raises(DegenerateFormError):
                signature_det(sparse_rows(m))
            seen["degenerate"] += 1
        else:
            assert got[3] == dense[3] == det_fraction(m), (kind, m)
            assert signature_det(sparse_rows(m)) == (pos - neg, got[3])
            seen["indefinite"] += bool(pos and neg)
        seen[kind] += 1
        seen["repair"] += any(map(any, m)) and not any(m[i][i] for i in range(len(m)))
    assert min(seen.values()) >= 1, seen
    assert seen["degenerate"] > 100 and seen["indefinite"] > 100 and seen["repair"] > 100, seen


def test_sparse_kernel_matches_dense_pass_on_large_goeritz_forms():
    """Goeritz forms of 300+ dimensions: both colors of a 311-crossing
    necklace knot, and an indefinite one of the same diagram with crossings
    changed, against the dense pass and det_int."""
    d, comps = medial_diagram(necklace([63, 61, 63, 61, 63]), 1)
    assert comps == 1
    forms = [goeritz_matrix(d, c).matrix for c in (0, 1)]
    forms.append(goeritz_matrix(crossing_changed(d, random.Random(3)), 0).matrix)
    assert [len(m) for m in forms] == [307, 4, 307]
    for m in forms:
        got = _sylvester(sparse_rows(m))
        assert got == sylvester_dense(m)
        assert got[2] == 0 and got[3] == det_int(m)
    assert 0 < _sylvester(sparse_rows(forms[2]))[0] < 307


def test_round_div_matches_fraction_rounding():
    from fractions import Fraction

    for a in range(-60, 61):
        for b in range(1, 61):
            assert round_div(a, b) == round(Fraction(a, b)), (a, b)
            assert round_div(a, -b) == round(Fraction(a, -b)), (a, -b)


def test_connected_classes_asks_linked_only_across_classes():
    asked = []

    def linked(x, y):
        asked.append((x, y))
        return True

    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert connected_classes(5, pairs, linked) == [0] * 5
    # a spanning tree's worth of questions: every later pair is already joined
    assert asked == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert connected_classes(4, [(0, 1), (2, 3)], lambda x, y: x == 2) == [0, 1, 2, 2]


def test_indecomposable_summands_skips_joined_pairs(monkeypatch):
    """T(2,9)'s flow lattice is A_8: its reduced basis is 8 indecomposable
    roots in one class, so the clustering asks about few of their pairs."""
    d = medial_diagram(theta(9), 1)[0]
    gram = flow_lattice(orientable_tait_graph(d))
    calls = []
    real_dot = knotcert.lattice.dot

    def counting_dot(a, b):
        calls.append(1)
        return real_dot(a, b)

    monkeypatch.setattr(knotcert.lattice, "dot", counting_dot)
    dec = indecomposable_summands(gram)
    assert len(dec.summands) == 1
    assert len(calls) < 36 * 35 // 4, len(calls)

