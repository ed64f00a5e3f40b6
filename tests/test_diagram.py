"""PD parsing, face tracing, checkerboard colors, orientation, speciality."""

from __future__ import annotations

import itertools
import random

import pytest

from helpers import (
    MISORIENTED,
    canonical_pd,
    check_orientation,
    crossing_changed,
    load_corpus,
    occurrences,
    orientable_by_parity,
    random_draws,
    seifert_partition_by_union_find,
    strands_by_tuples,
    trace_faces_by_tuples,
    wide_necklace,
)
from knotcert.cli import _invariants
from knotcert.diagram import (
    Diagram,
    Orientation,
    _mates,
    _strands,
    _trace_faces,
    build_diagram,
    checkerboard,
    classify_special,
    connected_sum_factors,
    is_alternating,
    mirror_diagram,
    orient,
    parse_pd,
    seifert_circle_partition,
    seifert_stats,
)
from knotcert.errors import ClassificationError, DiagramError, PDSyntaxError
from knotcert.invariants import invariant_bundle

# Standard-table left trefoil and figure eight, in the usual conventions
# (first entry = incoming understrand, then counterclockwise).
LEFT_TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"
KINK = "X(1,2,2,1)"
# Right trefoil written in the rotated-tuple dialect that some sources use
# (tuples cycled so the understrand pair sits in slots 0 and 2 differently);
# the parser detects and converts it.
RIGHT_TREFOIL_ROTATED = "X(1,4,2,3) X(3,6,4,5) X(5,2,6,1)"
# Granny knot (two right trefoils), produced by the medial construction.
GRANNY = "X(9,1,10,12) X(1,11,2,10) X(11,3,12,2) X(3,7,4,6) X(7,5,8,4) X(5,9,6,8)"
HOPF = "X(4,1,3,2) X(2,3,1,4)"
OVER_ONLY_LINK = "X(4,2,3,1) X(3,2,4,1)"


def test_parse_basic():
    d = parse_pd(LEFT_TREFOIL)
    assert d.n == 3
    assert sorted({a for c in d.crossings for a in c}) == list(range(1, 2 * d.n + 1))
    assert d.crossings[0] == (1, 4, 2, 5)
    assert parse_pd(d.pd_text()).crossings == d.crossings


def test_parse_json_array():
    d = parse_pd("[[1,4,2,5],[3,6,4,1],[5,2,6,3]]")
    assert d.crossings == parse_pd(LEFT_TREFOIL).crossings


def test_parse_empty_is_unknot():
    d = parse_pd("")
    assert d.n == 0
    assert d.pd_text() == ""


def test_parse_case_and_whitespace():
    d = parse_pd("x( 1,4,2,5 )\nX(3,6,4,1)  x(5,2,6,3)")
    assert d.crossings == parse_pd(LEFT_TREFOIL).crossings


@pytest.mark.parametrize(
    "text",
    [
        "X(1,2,3)",
        "X(1,2,3,4,5)",
        "waffle",
        "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) junk",
        "[[true,4,2,5],[3,6,4,1],[5,2,6,3]]",
    ],
)
def test_syntax_errors(text):
    with pytest.raises(PDSyntaxError):
        parse_pd(text)


@pytest.mark.parametrize(
    "crossings",
    [
        [(1.9, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, "3")],
        [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, "3")],
        [(1.0, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)],
        [1, 2],
    ],
)
def test_build_diagram_rejects_labels_that_are_not_integers(crossings):
    """A float or a string label is refused, not truncated: the first list
    used to become a trefoil that was certified band prime."""
    with pytest.raises(PDSyntaxError, match="integers"):
        build_diagram(crossings)


def test_label_multiplicity_error():
    with pytest.raises(DiagramError, match="labels"):
        parse_pd("X(1,4,2,3) X(3,6,4,5)")
    with pytest.raises(DiagramError):
        parse_pd("X(1,1,1,1)")


def test_disconnected_error():
    two_pieces = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)"
    with pytest.raises(DiagramError, match="disconnected"):
        parse_pd(two_pieces)


def test_nonplanar_error():
    with pytest.raises(DiagramError, match="not planar"):
        parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,6,2,3)")


# One case per input error: the text, and the exception type and exact
# message it raises (parse_pd, or orient for the last).
INPUT_ERRORS = {
    "label-out-of-range": ("X(1,4,2,7) X(3,6,4,1) X(5,2,6,3)", DiagramError,
                           "arc labels must be 1..6; problems at [7]"),
    "label-negative": ("[[-1,4,2,5],[3,6,4,1],[5,2,6,3]]", DiagramError,
                       "arc labels must be 1..6; problems at [-1]"),
    "label-missing": ("X(1,2,3,4)", DiagramError, "arc labels must be 1..2; problems at [3, 4]"),
    "label-seen-once": ("X(3,4,2,5) X(1,6,4,1) X(5,2,6,1)", DiagramError,
                        "arc 3 appears 1 times (want 2)"),
    "label-seen-three-times": ("X(1,4,2,5) X(3,6,4,1) X(5,2,6,1)", DiagramError,
                               "arc 1 appears 3 times (want 2)"),
    "disconnected": ("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)",
                     DiagramError, "diagram is disconnected"),
    # its dialect reading fails too, so the standard reading's error stands
    "non-planar": ("X(1,4,2,5) X(3,6,4,1) X(5,6,2,3)", DiagramError,
                   "rotation system is not planar: 3 faces instead of 5"),
    "unparsable-suffix": ("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) junk", PDSyntaxError,
                          "unparsable PD fragment: 'junk'"),
    "unparsable-crossing": ("X(1,2,3,X(4,5,6,7), x", PDSyntaxError,
                            "unparsable PD fragment: 'X(1 2 3   x'"),
    "unparsable-sign": ("X(-1,4,2,5) X(3,6,4,1) X(5,2,6,3)", PDSyntaxError,
                        "unparsable PD fragment: 'X(-1 4 2 5)'"),
    "enters-at-slot-2": (MISORIENTED[0], ClassificationError,
                         "strand enters the under-strand of crossing 2 at slot 2"),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_input_error_messages(case):
    text, exc, message = INPUT_ERRORS[case]
    with pytest.raises(exc) as ex:
        orient(parse_pd(text))
    assert type(ex.value) is exc and str(ex.value) == message


def test_non_planar_code_read_in_the_dialect():
    """A code that is not planar under the standard reading raises there,
    and parse_pd accepts its valid dialect reading instead."""
    crossings = parse_pd(RIGHT_TREFOIL_ROTATED).crossings
    assert crossings == ((1, 3, 4, 2), (3, 5, 6, 4), (5, 1, 2, 6))
    with pytest.raises(DiagramError) as ex:
        build_diagram([(1, 4, 2, 3), (3, 6, 4, 5), (5, 2, 6, 1)])
    assert str(ex.value) == "rotation system is not planar: 3 faces instead of 5"


def test_flat_kernels_match_the_tuple_kernels():
    """The mate array, faces (in order), strand walks, orientations and
    Seifert partitions read off one flat half-edge array are those of the
    (crossing, slot) tuple kernels, on knots, links, non-alternating and
    wide diagrams; a code that cannot be oriented raises the same error."""
    rng = random.Random(26)
    diagrams = [parse_pd(e.pd) for e in load_corpus()]
    for draw in itertools.islice(random_draws(rng, 9), 200):
        diagrams += [draw.d, crossing_changed(draw.d, rng)]
    diagrams += [wide_necklace(rng) for _ in range(10)]
    for d in diagrams:
        mate = _mates(d)
        for u, v in occurrences(d).values():
            assert mate[4 * u[0] + u[1]] == 4 * v[0] + v[1]
            assert mate[4 * v[0] + v[1]] == 4 * u[0] + u[1]
        assert _trace_faces(d) == trace_faces_by_tuples(d)
        walks = strands_by_tuples(d)
        assert _strands(d) == walks
        over_in = [0] * d.n
        for ci, s in (he for walk in walks for he in walk if he[1] % 2):
            over_in[ci] = s
        signs = tuple(1 if s == 3 else -1 for s in over_in)
        assert orient(d) == Orientation(tuple(over_in), signs, len(walks) if d.n else 1)
        assert seifert_circle_partition(d) == seifert_partition_by_union_find(d)
    for text in MISORIENTED:
        d = parse_pd(text)
        with pytest.raises(ClassificationError) as flat:
            _strands(d)
        with pytest.raises(ClassificationError) as tuples:
            strands_by_tuples(d)
        assert str(flat.value) == str(tuples.value)


def test_rotated_tuple_dialect():
    d = parse_pd(RIGHT_TREFOIL_ROTATED)
    assert d.n == 3
    # normalized to the standard convention
    assert d.pd_text() == "X(1,3,4,2) X(3,5,6,4) X(5,1,2,6)"
    # it is the mirror of the table's left trefoil, as a diagram
    left = parse_pd(LEFT_TREFOIL)
    assert canonical_pd(d) == canonical_pd(mirror_diagram(left))
    assert canonical_pd(d) != canonical_pd(left)


@pytest.mark.parametrize("text", [LEFT_TREFOIL, FIG8, KINK, GRANNY, RIGHT_TREFOIL_ROTATED])
def test_faces_count_and_coverage(text):
    d = parse_pd(text)
    faces = [face for color_class in checkerboard(d) for face in color_class]
    assert len(faces) == d.n + 2
    # every half-edge lies on exactly one face
    seen = [he for face in faces for he in face]
    assert len(seen) == 4 * d.n
    assert len(set(seen)) == 4 * d.n


@pytest.mark.parametrize("text", [LEFT_TREFOIL, FIG8, GRANNY])
def test_checkerboard_alternates_around_each_crossing(text):
    d = parse_pd(text)
    # the face owning half-edge (c, s) sits at corner (s - 1) mod 4 of c
    cols = [[None] * 4 for _ in range(d.n)]
    for color, faces in enumerate(checkerboard(d)):
        for ci, s in (he for face in faces for he in face):
            assert cols[ci][(s - 1) % 4] is None
            cols[ci][(s - 1) % 4] = color
    for ci in range(d.n):
        assert sorted(cols[ci]) == [0, 0, 1, 1] and cols[ci][0] == cols[ci][2], cols[ci]


def test_orientation_signs_and_writhe():
    od = orient(parse_pd(LEFT_TREFOIL))
    assert od.signs == (-1, -1, -1)
    assert od.writhe == -3
    assert od.components == 1

    od8 = orient(parse_pd(FIG8))
    assert od8.signs == (1, 1, -1, -1)
    assert od8.writhe == 0

    odr = orient(parse_pd(RIGHT_TREFOIL_ROTATED))
    assert odr.signs == (1, 1, 1)

    assert orient(parse_pd(KINK)).signs == (-1,)


def _random_medial_diagrams(count=40):
    draws = random_draws(random.Random(8), 9)  # knots and links
    return [draw.d for draw in itertools.islice(draws, count)]


def test_orientation_arc_heads_consistent():
    diagrams = [parse_pd(t) for t in (FIG8, KINK, GRANNY, HOPF, OVER_ONLY_LINK)]
    for e in load_corpus():
        diagrams += [parse_pd(e.pd), mirror_diagram(parse_pd(e.pd))]
    diagrams += _random_medial_diagrams()
    for d in diagrams:
        assert orientable_by_parity(d)
        check_orientation(d)


@pytest.mark.parametrize("text", MISORIENTED)
def test_misoriented_codes_are_rejected(text):
    d = parse_pd(text)  # a valid planar code, whose strands cannot be oriented
    assert not orientable_by_parity(d)
    with pytest.raises(ClassificationError, match="slot 2"):
        orient(d)
    with pytest.raises(ClassificationError, match="slot 2"):
        is_alternating(d)


def test_over_only_component_is_oriented_as_a_link():
    # the strand over arcs 1 and 2 passes under nowhere: its walk starts at
    # its highest half-edge, and the code is a two-component link
    d = parse_pd(OVER_ONLY_LINK)
    od = orient(d)
    assert od.components == 2
    assert od.over_in_slot == (1, 3) and od.signs == (-1, 1)
    with pytest.raises(ClassificationError, match="knot"):
        classify_special(d)


def test_hopf_link_is_rejected_for_knot_work():
    h = parse_pd(HOPF)
    assert orient(h).components == 2
    with pytest.raises(ClassificationError, match="knot"):
        classify_special(h)


def test_alternating_detection():
    assert is_alternating(parse_pd(LEFT_TREFOIL))
    assert is_alternating(parse_pd(FIG8))
    assert is_alternating(parse_pd(KINK))
    # rotating one tuple by a quarter turn flips who is on top there
    tweaked = parse_pd("X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(7,3,8,2)")
    assert not is_alternating(tweaked)
    assert orient(tweaked).signs == (1, 1, -1, 1)


def test_seifert_circles_and_genus():
    assert seifert_stats(parse_pd(LEFT_TREFOIL)) == (2, 1)
    assert seifert_stats(parse_pd(FIG8)) == (3, 1)
    assert seifert_stats(parse_pd(KINK)) == (2, 0)
    assert seifert_stats(parse_pd(GRANNY)) == (3, 2)
    assert seifert_stats(parse_pd("")) == (1, 0)


def test_seifert_partition_respects_arcs():
    part = seifert_circle_partition(parse_pd(LEFT_TREFOIL))
    assert len(part) == 2
    assert set().union(*part) == set(range(1, 7))


def test_classify_special():
    rep = classify_special(parse_pd(LEFT_TREFOIL))
    assert rep.is_alternating and rep.is_special
    assert rep.uniform_sign == -1

    repr_ = classify_special(parse_pd(RIGHT_TREFOIL_ROTATED))
    assert repr_.is_special and repr_.uniform_sign == 1

    rep8 = classify_special(parse_pd(FIG8))
    assert rep8.is_alternating and not rep8.is_special

    repk = classify_special(parse_pd(KINK))
    assert repk.is_special

    repg = classify_special(parse_pd(GRANNY))
    assert repg.is_special and repg.uniform_sign == 1

    rep0 = classify_special(parse_pd(""))
    assert rep0.is_special and rep0.uniform_sign == 1

    j = _invariants(invariant_bundle(parse_pd(LEFT_TREFOIL)))["speciality"]
    assert j == rep._asdict()
    assert j["is_special"] is True and "orientable_color" in j


def test_mirror_is_an_involution_and_flips_signs():
    d = parse_pd(FIG8)
    m = mirror_diagram(d)
    assert canonical_pd(mirror_diagram(m)) == canonical_pd(d)
    assert orient(m).signs == tuple(-s for s in orient(d).signs)
    # mirror of an alternating diagram is alternating
    assert is_alternating(m)


def test_connected_sum_factors_prime_and_unknot():
    d = parse_pd(LEFT_TREFOIL)
    (f,) = connected_sum_factors(d)
    assert canonical_pd(f) == canonical_pd(d)
    u = parse_pd("")
    assert connected_sum_factors(u) == (u,)


def test_connected_sum_factors_granny():
    d = parse_pd(GRANNY)
    facs = connected_sum_factors(d)
    assert len(facs) == 2
    rt = parse_pd(RIGHT_TREFOIL_ROTATED)
    for f in facs:
        assert f.n == 3
        assert canonical_pd(f) == canonical_pd(rt)


def test_connected_sum_factors_requires_alternating():
    tweaked = parse_pd("X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(7,3,8,2)")
    with pytest.raises(ClassificationError):
        connected_sum_factors(tweaked)


def test_kink_factor_is_not_dropped():
    # a reducible diagram: the nugatory crossing lives in its own block
    d = parse_pd(KINK)
    facs = connected_sum_factors(d)
    assert len(facs) == 1 and facs[0].n == 1
