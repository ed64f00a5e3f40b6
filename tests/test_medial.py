"""Plane multigraphs, the medial diagram construction, factor rebuilding."""

from __future__ import annotations

import itertools
import random

import pytest

from helpers import (
    canonical_pd,
    face_count,
    plane_graph_from_multigraph,
    random_draws,
    spanning_tree_count,
    theta,
    two_coloring,
)
from knotcert.diagram import (
    classify_special,
    connected_sum_factors,
    is_alternating,
    mirror_diagram,
    orient,
    parse_pd,
)
from knotcert.errors import DiagramError, InconsistencyError
from knotcert.invariants import invariant_bundle
from knotcert.medial import PlaneGraph, medial_diagram, rebuild_factors, subgraph_plane
from knotcert.tait import tait_graphs

RIGHT_TREFOIL_ROTATED = "X(1,4,2,3) X(3,6,4,5) X(5,2,6,1)"
GRANNY = "X(9,1,10,12) X(1,11,2,10) X(11,3,12,2) X(3,7,4,6) X(7,5,8,4) X(5,9,6,8)"


BOUQUET = PlaneGraph(
    ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)),
    (
        ((0, 0), (2, 1), (3, 0), (5, 1)),
        ((0, 1), (1, 0)),
        ((1, 1), (2, 0)),
        ((3, 1), (4, 0)),
        ((4, 1), (5, 0)),
    ),
)


def test_plane_graph_validate():
    theta(3).validate()
    BOUQUET.validate()
    # same rotation order at both ends of a parallel class is not spherical
    bad = PlaneGraph(
        tuple(((0, 1),) * 3),
        (tuple((e, 0) for e in range(3)), tuple((e, 1) for e in range(3))),
    )
    bad.validate()
    with pytest.raises(DiagramError, match="not planar"):
        medial_diagram(bad, 1)


def test_plane_graph_validate_dart_errors():
    with pytest.raises(DiagramError):
        PlaneGraph(((0, 1),), (((0, 0), (0, 0)), ((0, 1),))).validate()
    with pytest.raises(DiagramError):  # dart at the wrong vertex
        PlaneGraph(((0, 1),), (((0, 0), (0, 1)), ())).validate()
    with pytest.raises(DiagramError, match="connected"):
        PlaneGraph((), ((), ())).validate()


def test_medial_rejects_exactly_the_non_spherical_rotation_systems():
    """The medial of g has g's vertices and faces as its faces, so its Euler
    check (E + 2 faces) holds exactly when V - E + F = 2 for g.  Seeded
    random rotation systems of random connected multigraphs, against the
    face-count oracle."""
    rng = random.Random(20261018)
    outcomes = {True: 0, False: 0}
    for n, edges, *_ in itertools.islice(random_draws(rng, 9, stage="edges"), 1500):
        rotations = [[] for _ in range(n)]
        for ei, (u, v) in enumerate(edges):
            rotations[u].append((ei, 0))
            rotations[v].append((ei, 1))
        for rot in rotations:
            rng.shuffle(rot)
        g = PlaneGraph(tuple(edges), tuple(map(tuple, rotations)))
        g.validate()
        spherical = n - len(edges) + face_count(g) == 2
        try:
            medial_diagram(g, rng.choice((1, -1)))
        except DiagramError as ex:
            assert not spherical and "not planar" in str(ex), (n, edges, rotations)
        else:
            assert spherical, (n, edges, rotations)
        outcomes[spherical] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_medial_of_theta3_is_right_trefoil():
    d, comps = medial_diagram(theta(3), 1)
    assert comps == 1
    assert d.pd_text() == "X(6,4,1,3) X(2,6,3,5) X(4,2,5,1)"
    assert orient(d).signs == (1, 1, 1)
    assert canonical_pd(d) == canonical_pd(parse_pd(RIGHT_TREFOIL_ROTATED))


def test_medial_sign_flip_is_mirror():
    # theta(4) is omitted: its medial is a two-component link
    for g in (theta(3), theta(5), BOUQUET):
        dp, _ = medial_diagram(g, 1)
        dm, _ = medial_diagram(g, -1)
        assert canonical_pd(dm) == canonical_pd(mirror_diagram(dp))


def test_medial_of_theta5_is_5_1():
    d, comps = medial_diagram(theta(5), 1)
    assert comps == 1
    assert orient(d).signs == (1, 1, 1, 1, 1)
    b = invariant_bundle(d)
    assert (b.signature, b.determinant, b.genus) == (-4, 5, 2)


def test_medial_of_theta4_is_a_link():
    _, comps = medial_diagram(theta(4), 1)
    assert comps == 2


def test_medial_of_bouquet_is_granny():
    d, comps = medial_diagram(BOUQUET, -1)
    assert comps == 1
    assert d.pd_text() == GRANNY
    assert orient(d).signs == (1,) * 6


def test_medial_crossing_count_is_edge_count():
    for g in (theta(3), theta(5), BOUQUET):
        d, _ = medial_diagram(g, 1)
        assert d.n == len(g.edges)
        assert is_alternating(d)


def test_subgraph_plane_restricts_to_triangle():
    sub, emap = subgraph_plane(BOUQUET, (0, 1, 2))
    sub.validate()
    assert sorted(emap) == [0, 1, 2]
    d, comps = medial_diagram(sub, -1)
    assert comps == 1
    assert canonical_pd(d) == canonical_pd(parse_pd(RIGHT_TREFOIL_ROTATED))


def test_rebuild_factors_prime_roundtrip():
    d = parse_pd(RIGHT_TREFOIL_ROTATED)
    (f,) = rebuild_factors(d)
    assert canonical_pd(f) == canonical_pd(d)


def test_rebuild_factors_granny():
    facs = rebuild_factors(parse_pd(GRANNY))
    assert sorted(f.n for f in facs) == [3, 3]
    rt = canonical_pd(parse_pd(RIGHT_TREFOIL_ROTATED))
    assert all(canonical_pd(f) == rt for f in facs)


@pytest.mark.parametrize("pd", [RIGHT_TREFOIL_ROTATED, GRANNY], ids=["prime", "composite"])
def test_factor_split_checks_edge_signs_on_every_diagram(pd):
    """A color-0 edge sign that differs from the rest is a bug; the split
    checks for it before it knows whether the diagram is prime, so it fires
    on a prime diagram too, which is its own factor and is not rebuilt."""
    d = parse_pd(pd)
    g0, g1 = tait_graphs(d)
    d.__dict__["_cached_tait_graphs"] = (
        g0._replace(edge_signs=(-g0.edge_signs[0],) + g0.edge_signs[1:]), g1
    )
    with pytest.raises(InconsistencyError, match="non-constant edge sign"):
        connected_sum_factors(d)
    with pytest.raises(InconsistencyError, match="non-constant edge sign"):
        rebuild_factors(d)


def test_three_summand_chain():
    chain = plane_graph_from_multigraph(
        7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5), (5, 6), (6, 4)]
    )
    chain.validate()
    d, comps = medial_diagram(chain, -1)
    assert comps == 1 and d.n == 9
    facs = connected_sum_factors(d)
    assert [f.n for f in facs] == [3, 3, 3]
    b = invariant_bundle(d)
    assert b.determinant == 27 and abs(b.signature) == 6 and b.genus == 3


def test_random_planar_medials_det_counts_trees():
    """Medial knots of random planar multigraphs are alternating, their
    determinant equals the number of spanning trees of the graph, and they
    are special exactly when one checkerboard graph is bipartite (the graph
    itself or its plane dual).  On every draw, links included, the medial
    walk's component count is that of the strand walk of `orient`."""
    from knotcert.tait import tait_graph

    knots = 0
    for n, edges, g, d, comps, sign in random_draws(random.Random(1234), 7, tries=400):
        g.validate()
        assert d.n == len(edges)
        assert is_alternating(d)
        assert comps == orient(d).components, (n, edges, sign)
        if comps != 1:
            continue
        knots += 1
        rep = classify_special(d)
        bip = [
            two_coloring(t.num_vertices, t.edges) is not None
            for t in (tait_graph(d, 0), tait_graph(d, 1))
        ]
        assert rep.is_special == (bip[0] or bip[1]), (n, edges, sign)
        b = invariant_bundle(d)  # runs every internal cross-check
        assert b.determinant == spanning_tree_count(n, edges), (n, edges, sign)
        if rep.is_special:
            assert abs(b.signature) == 2 * b.genus
        total = sum(f.n for f in connected_sum_factors(d))
        assert total == d.n
        if knots == 25:
            break
    assert knots >= 25
