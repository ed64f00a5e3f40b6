"""Certificates: band primeness, minimality evidence, pairwise obstructions."""

import itertools
import json
import random

import pytest

from helpers import corpus_entry, crossing_changed, load_corpus, random_draws, total_rank, wide_necklace
from knotcert.cli import _analysis, _json_text
from knotcert.diagram import (
    checkerboard, classify_special, is_alternating, mirror_diagram, orient, parse_pd,
    seifert_circle_partition,
)
from knotcert.errors import ClassificationError, RankCapExceededError
from knotcert.hfk import thin_hfk
from knotcert.invariants import invariant_bundle
from knotcert.lattice import definiteness
from knotcert.obstruct import (
    DEFAULT_RANK_CAP,
    anisotropy_check,
    band_prime_certificate,
    concordance_pair_obstructions,
    minimality_evidence,
    _is_prime_power,
)
from knotcert.tait import orientable_tait_graph

LEFT_TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"
HOPF = "X(4,1,3,2) X(2,3,1,4)"


def _bundle_hfk(pd):
    b = invariant_bundle(parse_pd(pd))
    return b, thin_hfk(b.alexander, b.signature)


# -- band primeness ----------------------------------------------------------


def test_rank_read_off_the_faces_is_the_orientable_cycle_rank():
    """On a special diagram, n + 1 minus the number of orientable faces is
    the orientable Tait graph's cycle rank, as it has one edge per crossing
    and one vertex per face of its color.  The certificate's cap reads the
    same rank off the Seifert circles, which are those faces
    (`test_rank_cap_gate_is_exactly_special_alternating`)."""
    rng = random.Random(26)
    diagrams = [parse_pd(e.pd) for e in load_corpus()]
    diagrams += [draw.d for draw in itertools.islice(random_draws(rng, 9, links=False), 200)]
    diagrams += [wide_necklace(rng) for _ in range(10)]
    special = [d for d in diagrams if classify_special(d).is_special]
    assert len(special) > 120
    for d in special:
        color = classify_special(d).orientable_color
        assert d.n + 1 - len(checkerboard(d)[color]) == orientable_tait_graph(d).cycle_rank()


def test_rank_cap_gate_is_exactly_special_alternating():
    """The certificate refuses an over-cap input before `classify_special`
    when the diagram has one component and one crossing sign and is
    alternating.  That holds exactly when `classify_special` reports special
    alternating, and there n + 1 minus the number of Seifert circles is the
    orientable Tait graph's cycle rank, the rank the cap bounds.  Links
    never reach the gate's rank: `classify_special` refuses them."""
    rng = random.Random(33)
    diagrams = [parse_pd(e.pd) for e in load_corpus()]
    diagrams += [mirror_diagram(d) for d in diagrams]
    draws = [draw.d for draw in itertools.islice(random_draws(rng, 9, links=False), 200)]
    diagrams += draws + [wide_necklace(rng) for _ in range(10)]
    # the corpus and the draws are alternating; a switched crossing makes most not
    diagrams += [crossing_changed(d, rng) for d in draws[:60]]
    gated = 0
    for d in diagrams:
        ori = orient(d)
        gate = ori.components == 1 and len(set(ori.signs)) == 1 and is_alternating(d)
        rep = classify_special(d)
        assert gate == (d.n > 0 and rep.is_special and rep.is_alternating), d.pd_text()
        if gate:
            gated += 1
            rank = d.n + 1 - len(seifert_circle_partition(d))
            assert rank == orientable_tait_graph(d).cycle_rank(), d.pd_text()
    assert 120 < gated < len(diagrams) - 60
    hopf = parse_pd(HOPF)  # alternating with one sign, but a link
    assert orient(hopf).components == 2 and set(orient(hopf).signs) == {-1}
    assert is_alternating(hopf)
    with pytest.raises(ClassificationError):
        classify_special(hopf)


def test_trefoil_certificate():
    rep = band_prime_certificate(parse_pd(LEFT_TREFOIL))
    assert rep.verdict == "band_prime_certified"
    assert len(rep.factors) == 1 and rep.trivial_factors == 0
    f = rep.factors[0]
    assert f.gram.matrix == ((2, 1), (1, 2))
    assert definiteness(f.gram) == "positive_definite"
    assert len(f.decomposition.summands) == 1
    assert f.signature == 2  # left-handed
    assert f.gram.rank // 2 == 1
    assert len(_report(LEFT_TREFOIL)["band_primeness"]["pd_sha256"]) == 64


def test_granny_certificate_two_factors():
    rep = band_prime_certificate(parse_pd(corpus_entry("3_1#3_1").pd))
    assert rep.verdict == "band_prime_certified"
    assert len(rep.factors) == 2
    for f in rep.factors:
        assert f.gram.matrix == ((2, 1), (1, 2))
        assert f.signature == -2
        assert len(f.decomposition.summands) == 1


def test_figure_eight_not_applicable():
    rep = band_prime_certificate(parse_pd(FIG8))
    assert rep.verdict == "not_applicable"
    assert rep.factors == ()
    assert "not special" in rep.notes[0]


def test_unknot_certificate_is_vacuous():
    rep = band_prime_certificate(parse_pd(""))
    assert rep.verdict == "band_prime_certified"
    assert rep.factors == ()
    assert any("trivial" in n for n in rep.notes)


def test_kinked_trefoil_ignores_genus_zero_factor():
    # medial of a triangle with a loop attached: a trefoil with one nugatory
    # crossing of matching handedness, so the diagram stays special and has
    # one substantial factor plus one genus-zero factor
    kinked = "X(8,5,1,6) X(6,1,7,2) X(2,7,3,8) X(4,3,5,4)"
    rep = band_prime_certificate(parse_pd(kinked))
    assert rep.verdict == "band_prime_certified"
    assert len(rep.factors) == 1
    assert rep.trivial_factors == 1
    assert rep.factors[0].gram.rank // 2 == 1
    assert any("genus-zero" in n for n in rep.notes)


def test_multi_component_input_rejected():
    with pytest.raises(ClassificationError):
        band_prime_certificate(parse_pd(HOPF))


def test_rank_cap_propagates():
    with pytest.raises(RankCapExceededError):
        band_prime_certificate(parse_pd(corpus_entry("3_1#3_1").pd), rank_cap=3)


def _report(pd):
    """The `analyze` report of a PD text, as built by the CLI."""
    return _analysis(parse_pd(pd), DEFAULT_RANK_CAP, False)[0]


def test_certificate_json_is_deterministic():
    a = _json_text(_report(LEFT_TREFOIL))
    b = _json_text(_report(LEFT_TREFOIL))
    assert a == b
    j = json.loads(a)["band_primeness"]
    assert j["schema"] == "knotcert-report/3"
    assert j["kind"] == "band_prime_certificate"
    assert j["verdict"] == "band_prime_certified"


def test_all_corpus_specials_certify():
    for e in load_corpus():
        rep = band_prime_certificate(parse_pd(e.pd))
        if rep.speciality.is_special and rep.speciality.is_alternating:
            assert rep.verdict == "band_prime_certified", e.name
            for f in rep.factors:
                assert definiteness(f.gram) == "positive_definite", e.name
                assert len(f.decomposition.summands) == 1, e.name
                assert f.signature != 0, e.name
        else:
            assert rep.verdict == "not_applicable", e.name


# -- anisotropy + minimality -------------------------------------------------


def test_anisotropy():
    b, _ = _bundle_hfk(LEFT_TREFOIL)
    assert anisotropy_check(b) is True and b.alexander.span() == 2
    b, _ = _bundle_hfk(FIG8)
    assert anisotropy_check(b) is False and (b.signature, b.alexander.span()) == (0, 2)


def test_anisotropy_reported_on_every_special_alternating_entry():
    """invariant_bundle refuses a special alternating diagram whose |sigma|,
    2g and span differ, so the anisotropy field of every such report holds."""
    seen = 0
    for e in load_corpus():
        rep, bundle = _analysis(parse_pd(e.pd), DEFAULT_RANK_CAP, False)
        sp = bundle.speciality
        if sp.is_special and sp.is_alternating:
            assert rep["minimality"]["anisotropy"] == {
                "holds": True,
                "sigma": bundle.signature,
                "span": bundle.alexander.span(),
            }, e.name
            seen += 1
    assert seen == 29


def test_prime_power_helper():
    assert [_is_prime_power(n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 9)] == [
        True, True, True, True, True, False, True, True, True,
    ]
    assert not _is_prime_power(12)
    assert not _is_prime_power(0)
    assert _is_prime_power(121)


def test_minimality_trefoil_fibered():
    ev = minimality_evidence(parse_pd(LEFT_TREFOIL))
    assert ev.verdict == "minimal_certified"
    assert ev.bundle.fibered is True
    assert ev.anisotropy is True
    assert ev.hfk is not None and total_rank(ev.hfk) == 3


def test_minimality_5_2_prime_power_leading():
    ev = minimality_evidence(parse_pd(corpus_entry("5_2").pd))
    assert ev.verdict == "minimal_certified"
    assert ev.bundle.fibered is False
    assert ev.prime_power_leading  # leading coefficient 2


def test_minimality_9_5_needs_two_bridge_assertion():
    # leading coefficient 6 is not a prime power and the knot is not fibered
    d = parse_pd(corpus_entry("9_5").pd)
    ev = minimality_evidence(d)
    assert ev.verdict == "evidence_only"
    assert not ev.prime_power_leading
    ev2 = minimality_evidence(d, assert_two_bridge=True)
    assert ev2.verdict == "minimal_certified"
    assert ev2.two_bridge_asserted


def test_minimality_not_applicable_for_non_special():
    ev = minimality_evidence(parse_pd(FIG8), assert_two_bridge=True)
    assert ev.verdict == "not_applicable"
    assert ev.hfk is not None  # alternating, so the table still exists


def test_minimality_json_shape():
    j = _report(LEFT_TREFOIL)["minimality"]
    assert j["kind"] == "minimality_evidence"
    assert j["conditions"] == {
        "fibered": True, "prime_power_leading": True, "two_bridge_asserted": False,
    }
    json.dumps(j)


# -- pairwise obstructions ---------------------------------------------------


def test_unknot_under_trefoil_is_obstructed():
    lo, lh = _bundle_hfk("")
    up, uh = _bundle_hfk(LEFT_TREFOIL)
    codes = {f.code for f in concordance_pair_obstructions(lo, lh, up, uh, True)}
    assert {"hfk_mismatch", "determinant_mismatch", "genus_mismatch"} <= codes


def test_knot_under_itself_no_findings():
    b, h = _bundle_hfk(LEFT_TREFOIL)
    assert concordance_pair_obstructions(b, h, b, h, True) == ()
    b, h = _bundle_hfk(FIG8)
    assert concordance_pair_obstructions(b, h, b, h, False) == ()


def test_trefoil_under_figure_eight():
    lo, lh = _bundle_hfk(LEFT_TREFOIL)
    up, uh = _bundle_hfk(FIG8)
    codes = {f.code for f in concordance_pair_obstructions(lo, lh, up, uh, False)}
    assert "signature_mismatch" in codes
    assert "alexander_not_dividing" in codes


def test_trefoil_under_granny_divisibility_holds():
    granny = corpus_entry("3_1#3_1")
    # use the right-handed trefoil so the signatures are comparable in sign
    lo, lh = _bundle_hfk(corpus_entry("3_1").pd)
    up, uh = _bundle_hfk(granny.pd)
    findings = concordance_pair_obstructions(lo, lh, up, uh, True)
    codes = {f.code for f in findings}
    assert "alexander_not_dividing" not in codes  # (t - 1 + t^-1) divides its square
    assert "genus_violation" not in codes  # genus 1 <= 2
    assert {"signature_mismatch", "determinant_mismatch", "hfk_mismatch"} <= codes


def test_genus_violation_direction():
    lo, lh = _bundle_hfk(corpus_entry("5_1").pd)  # genus 2
    up, uh = _bundle_hfk(corpus_entry("3_1").pd)  # genus 1
    codes = {f.code for f in concordance_pair_obstructions(lo, lh, up, uh, True)}
    assert "genus_violation" in codes
