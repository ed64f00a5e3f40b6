"""Thin knot Floer homology tables built from (Alexander polynomial, signature)."""

import random
from fractions import Fraction

import pytest

from knotcert.cli import _hfk
from knotcert.errors import InconsistencyError
from knotcert.hfk import hfk_isomorphic, thin_hfk
from knotcert.invariants import LaurentPolynomial, invariant_bundle

from helpers import euler_characteristic, random_draws, total_rank

TREFOIL_DELTA = LaurentPolynomial.from_string("t - 1 + t^-1")
FIG8_DELTA = LaurentPolynomial.from_string("-t + 3 - t^-1")
GRANNY_DELTA = LaurentPolynomial.from_string("t^2 - 2t + 3 - 2t^-1 + t^-2")


def test_trefoil_table():
    t = thin_hfk(TREFOIL_DELTA, -2)
    assert t.delta_grading == Fraction(-1)
    assert t.entries == (
        (1, Fraction(0), 1),
        (0, Fraction(-1), 1),
        (-1, Fraction(-2), 1),
    )
    assert total_rank(t) == 3
    assert (1, 0, 1) in t.entries
    assert not any((a, m) in ((1, -1), (5, 0)) for a, m, _ in t.entries)


def test_unknot_table():
    t = thin_hfk(LaurentPolynomial.from_string("1"), 0)
    assert t.entries == ((0, Fraction(0), 1),)
    assert total_rank(t) == 1
    assert t.delta_grading == 0


def test_figure_eight_table():
    t = thin_hfk(FIG8_DELTA, 0)
    assert [(a, r) for a, _, r in t.entries] == [(1, 1), (0, 3), (-1, 1)]
    assert total_rank(t) == 5
    assert t.delta_grading == 0
    # Maslov = Alexander along the diagonal here
    assert (1, 1, 1) in t.entries
    assert (0, 0, 3) in t.entries


def test_euler_characteristic_rebuilds_alexander():
    for delta, sigma in [(TREFOIL_DELTA, -2), (FIG8_DELTA, 0), (GRANNY_DELTA, -4)]:
        t = thin_hfk(delta, sigma)
        assert euler_characteristic(t) == delta


def test_granny_total_rank():
    t = thin_hfk(GRANNY_DELTA, -4)
    assert total_rank(t) == 9
    assert t.delta_grading == Fraction(-2)


def test_wrong_signature_is_refused():
    # the sign pattern of a thin table forces (-1)^(A + sigma/2) = sign(a_A)
    with pytest.raises(InconsistencyError):
        thin_hfk(TREFOIL_DELTA, 0)
    with pytest.raises(InconsistencyError):
        thin_hfk(FIG8_DELTA, -2)


def test_odd_signature_is_refused():
    with pytest.raises(InconsistencyError):
        thin_hfk(TREFOIL_DELTA, -1)


def test_unnormalized_delta_is_refused():
    with pytest.raises(InconsistencyError):
        thin_hfk(LaurentPolynomial.from_string("t - 1"), 0)  # not symmetric
    with pytest.raises(InconsistencyError):
        thin_hfk(LaurentPolynomial.from_string("2t - 3 + 2t^-1"), 0)  # value 1 at t=1
    with pytest.raises(InconsistencyError):
        thin_hfk(LaurentPolynomial.from_string("0"), 0)


def test_isomorphism_predicate():
    t1 = thin_hfk(TREFOIL_DELTA, -2)
    t2 = thin_hfk(TREFOIL_DELTA, -2)
    assert hfk_isomorphic(t1, t2)
    assert not hfk_isomorphic(t1, thin_hfk(LaurentPolynomial.from_string("1"), 0))
    assert not hfk_isomorphic(t1, thin_hfk(FIG8_DELTA, 0))


def test_json_shape():
    t = thin_hfk(TREFOIL_DELTA, -2)
    j = _hfk(t)
    assert j["delta_grading"] == -1
    assert j["entries"][0] == {"alexander": 1, "maslov": 0, "rank": 1}
    assert len(j["entries"]) == 3


def test_random_alternating_knots_total_rank_equals_determinant():
    rng = random.Random(424242)
    seen = 0
    for draw in random_draws(rng, 7, links=False, tries=200):
        b = invariant_bundle(draw.d)
        t = thin_hfk(b.alexander, b.signature)
        assert total_rank(t) == b.determinant
        assert euler_characteristic(t) == b.alexander
        seen += 1
        if seen == 10:
            break
    assert seen == 10
