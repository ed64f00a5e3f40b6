"""Exact quadratic-form machinery: definiteness, decomposition, isometry."""

from __future__ import annotations

import random

import pytest

from helpers import congruent_scramble, random_unimodular
import knotcert.lattice
from knotcert.errors import DegenerateFormError, InconsistencyError, RankCapExceededError
from knotcert.lattice import (
    Decomposition,
    GramForm,
    congruence,
    definiteness,
    det_int,
    greedy_reduce,
    indecomposable_summands,
    inertia,
    isometric,
    lattice_row_basis,
    short_vectors,
    signature,
)

A2 = GramForm(((2, 1), (1, 2)))


def test_gramform_validation():
    with pytest.raises(ValueError):
        GramForm(((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        GramForm(((1, 2),))
    assert GramForm(()).rank == 0


def test_definiteness_examples():
    assert definiteness(A2) == "positive_definite"
    assert definiteness(GramForm(((0,),))) == "degenerate"
    assert definiteness(GramForm(((1, 0), (0, -1)))) == "indefinite"
    assert definiteness(GramForm(((-2, 1), (1, -2)))) == "negative_definite"
    # empty form counts as positive definite
    assert definiteness(GramForm(())) == "positive_definite"


def test_signature_examples():
    assert signature(A2) == 2
    assert signature(GramForm(((-3,),))) == -1
    assert signature(GramForm(((1, 0), (0, -1)))) == 0
    assert signature(GramForm(())) == 0
    with pytest.raises(DegenerateFormError):
        signature(GramForm(((0,),)))


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


def test_short_vectors_a2():
    vecs = short_vectors(A2.matrix, 2)
    assert len(vecs) == 3  # the three root pairs of the hexagonal lattice
    assert all(norm == 2 for _, norm in vecs)
    assert short_vectors(A2.matrix, 1) == []


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
    assert dec.summands[0].matrix == A2.matrix or dec.summands[0].det() == 3


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
        dets = sorted(s.det() for s in dec.summands)
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
    # the witness check must hold under python -O too, so it is no assert
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
    with pytest.raises(RankCapExceededError):
        isometric(big, big)
    # explicit override allows it
    dec = indecomposable_summands(big, rank_cap=13)
    assert len(dec.summands) == 13


def test_unimodular_helper_is_unimodular():
    rng = random.Random(3)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            u = random_unimodular(n, rng)
            assert abs(det_int(u)) == 1


def test_decomposition_json_roundtrippable():
    dec = indecomposable_summands(GramForm(((3, 0), (0, 3)), provenance="demo"))
    blob = dec.to_json()
    assert isinstance(dec, Decomposition)
    assert blob["summands"][0]["matrix"] == [[3]]
    assert blob["summands"][0]["provenance"] == "demo"
