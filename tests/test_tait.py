"""Tait graphs, block decomposition, fundamental cycles, flow lattices."""

from __future__ import annotations

import itertools
import random

import pytest

from helpers import (
    block_partition_oracle,
    cycle_vectors,
    fundamental_cycles_scan,
    load_corpus,
    random_draws,
    spanning_tree_count,
)
from knotcert.diagram import checkerboard, classify_special, parse_pd
from knotcert.errors import DiagramError, InconsistencyError
from knotcert.lattice import definiteness, det_int
from knotcert.tait import (
    TaitGraph,
    blocks,
    flow_lattice,
    fundamental_cycles,
    tait_graph,
    tait_graphs,
)

LEFT_TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
RIGHT_TREFOIL_ROTATED = "X(1,4,2,3) X(3,6,4,5) X(5,2,6,1)"
GRANNY = "X(9,1,10,12) X(1,11,2,10) X(11,3,12,2) X(3,7,4,6) X(7,5,8,4) X(5,9,6,8)"
KINK = "X(1,2,2,1)"


def taits(text):
    d = parse_pd(text)
    return tait_graph(d, 0), tait_graph(d, 1)


def make_tait(n_vertices, edges):
    """Synthetic TaitGraph for pure-graph algorithms (rotation order is
    arbitrary; nothing in this file reads it beyond dart coverage)."""
    rot = [[] for _ in range(n_vertices)]
    for ei, (u, v) in enumerate(edges):
        rot[u].append((ei, 0))
        rot[v].append((ei, 1))
    return TaitGraph(
        edges=tuple(tuple(e) for e in edges),
        edge_signs=(1,) * len(edges),
        rotations=tuple(tuple(r) for r in rot),
    )


def corpus_tait_graphs():
    """Both Tait graphs of every bundled corpus diagram."""
    return [g for e in load_corpus() for g in tait_graphs(parse_pd(e.pd))]


def test_trefoil_tait_shapes():
    g0, g1 = taits(RIGHT_TREFOIL_ROTATED)
    sizes = sorted((g.num_vertices, g.num_edges) for g in (g0, g1))
    assert sizes == [(2, 3), (3, 3)]
    theta = g0 if g0.num_vertices == 2 else g1
    cycle_graph = g1 if theta is g0 else g0
    assert theta.cycle_rank() == 2
    assert cycle_graph.cycle_rank() == 1
    # one color sits on the sweep pair everywhere, the other never does
    assert {theta.edge_signs, cycle_graph.edge_signs} == {(1, 1, 1), (-1, -1, -1)}


def test_trefoil_tait_signs_follow_mirror():
    g0, g1 = taits(LEFT_TREFOIL)
    assert {g0.edge_signs, g1.edge_signs} == {(1, 1, 1), (-1, -1, -1)}
    # edge signs of the orientable color match the uniform crossing sign
    d = parse_pd(LEFT_TREFOIL)
    rep = classify_special(d)
    go = tait_graph(d, rep.orientable_color)
    assert go.edge_signs == (rep.uniform_sign,) * 3


def test_dart_coverage():
    for g in taits(GRANNY):
        darts = [dd for r in g.rotations for dd in r]
        assert sorted(darts) == sorted(
            (ei, end) for ei in range(g.num_edges) for end in (0, 1)
        )


@pytest.mark.parametrize("move", [0, 1], ids=["color-0-face-moved", "color-1-face-moved"])
def test_tait_graph_rejects_corners_that_do_not_alternate(move):
    """A face moved to the other color class leaves a crossing whose colors
    do not alternate; reading a Tait graph off those classes is a bug."""
    d = parse_pd(GRANNY)
    classes = [list(c) for c in checkerboard(d)]
    classes[1 - move].append(classes[move].pop(0))
    d.__dict__["_cached_checkerboard"] = tuple(map(tuple, classes))
    for color in (0, 1):
        with pytest.raises(InconsistencyError, match="not alternating"):
            tait_graph(d, color)


def test_flow_lattice_trefoil():
    g0, g1 = taits(RIGHT_TREFOIL_ROTATED)
    theta = g0 if g0.num_vertices == 2 else g1
    other = g1 if theta is g0 else g0
    gram_t, basis_t = flow_lattice(theta), fundamental_cycles(theta)
    gram_o = flow_lattice(other)
    assert gram_t.matrix == ((2, 1), (1, 2))
    assert gram_o.matrix == ((3,),)
    assert det_int(gram_t.matrix) == det_int(gram_o.matrix) == 3
    assert len(cycle_vectors(theta, basis_t)) == 2


def test_granny_flow_gram_splits():
    d = parse_pd(GRANNY)
    rep = classify_special(d)
    g = tait_graph(d, rep.orientable_color)
    gram = flow_lattice(g)
    assert gram.matrix == ((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 2, 1), (0, 0, 1, 2))
    assert definiteness(gram) == "positive_definite"


def test_blocks_granny_and_kink():
    d = parse_pd(GRANNY)
    rep = classify_special(d)
    g = tait_graph(d, rep.orientable_color)
    dec = blocks(g)
    assert len(dec) == 2
    assert sorted(len(b) for b in dec) == [3, 3]

    for g in taits(KINK):
        assert len(blocks(g)) == 1  # a single crossing is its own block


def test_blocks_loop_bridge_triangle():
    g = make_tait(4, [(0, 0), (0, 1), (1, 2), (2, 3), (3, 1)])
    assert sorted(tuple(sorted(b)) for b in blocks(g)) == [(0,), (1,), (2, 3, 4)]


def test_blocks_match_oracle_on_random_multigraphs():
    rng = random.Random(20260814)
    graphs = [make_tait(n, edges)
              for n, edges, *_ in itertools.islice(random_draws(rng, 20, 12, stage="graph"), 400)]
    seen = dict.fromkeys(("loop", "parallel", "bridge"), 0)
    for g in graphs + corpus_tait_graphs():
        mine = blocks(g)
        assert sorted(mine) == block_partition_oracle(g.num_vertices, g.edges), g.edges
        assert [min(b) for b in mine] == sorted(min(b) for b in mine)
        seen["loop"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len(set(g.edges)) < g.num_edges
        seen["bridge"] += any(len(b) == 1 and len(set(g.edges[b[0]])) == 2 for b in mine)
    assert min(seen.values()) >= 50, seen
    # every Tait graph is connected; blocks refuses a graph that is not
    with pytest.raises(DiagramError, match="disconnected"):
        blocks(make_tait(4, [(0, 1), (1, 0), (2, 3), (3, 2)]))


def test_blocks_are_the_same_for_both_colors():
    """The two Tait graphs of a diagram are plane duals on the same edges
    (its crossings).  The blocks of a graph are the components of its cycle
    matroid, and a matroid and its dual have the same components, so both
    colors split a diagram along the same blocks."""
    rng = random.Random(20261020)
    diagrams = [parse_pd(e.pd) for e in load_corpus()]
    diagrams += [draw.d for draw in random_draws(rng, 9, tries=3000)]
    assert len(diagrams) > 2900
    for d in diagrams:
        g0, g1 = tait_graphs(d)
        assert blocks(g0) == blocks(g1), d.pd_text()


def test_fundamental_cycles_match_edge_scan():
    """The adjacency-list BFS grows the tree of the edge-scanning BFS, so
    the walks agree, and with them every Gram matrix and witness in a
    report.  The scan shares the climb to the root, so each walk is also
    checked on its own: it starts at the tail of its cotree edge, each step
    leaves the vertex the one before reached, it ends where it started, and
    it repeats no edge."""
    rng = random.Random(20261019)
    graphs = [make_tait(n, edges)
              for n, edges, *_ in itertools.islice(random_draws(rng, 20, 12, stage="graph"), 500)]
    for g in graphs + corpus_tait_graphs():
        walks = fundamental_cycles(g)
        assert walks == fundamental_cycles_scan(g), g.edges
        for walk in walks:
            assert walk[0][1] == 1, (g.edges, walk)
            start = cur = g.edges[walk[0][0]][0]
            for e, s in walk:
                tail, head = g.edges[e] if s == 1 else g.edges[e][::-1]
                assert tail == cur, (g.edges, walk)
                cur = head
            assert cur == start, (g.edges, walk)
            assert len({e for e, _ in walk}) == len(walk), (g.edges, walk)


def test_fundamental_cycles_structure():
    g = make_tait(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (2, 2)])
    walks = fundamental_cycles(g)
    vectors = cycle_vectors(g, walks)
    r = g.cycle_rank()
    assert r == 3 == len(vectors)
    # cycle i starts on its own cotree edge; the other edges form the tree
    cotree_edges = [walk[0][0] for walk in walks]
    tree_edges = sorted(set(range(g.num_edges)) - set(cotree_edges))
    assert len(tree_edges) == g.num_vertices - 1
    for i, cot in enumerate(cotree_edges):
        assert vectors[i][cot] != 0
        for j in range(r):
            if j != i:
                assert vectors[j][cot] == 0
    # every vector is a flow: signed degree balances at each vertex
    for vec in vectors:
        bal = [0] * g.num_vertices
        for ei, coef in enumerate(vec):
            u, v = g.edges[ei]
            bal[u] -= coef
            bal[v] += coef
        assert bal == [0] * g.num_vertices


def test_flow_gram_counts_spanning_trees():
    cases = [
        (2, [(0, 1)] * 3),
        (3, [(0, 1), (1, 2), (2, 0)]),
        (5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),
        (1, [(0, 0), (0, 0)]),
    ]
    for n, edges in cases:
        gram = flow_lattice(make_tait(n, edges))
        assert det_int(gram.matrix) == spanning_tree_count(n, edges)


def test_flow_gram_counts_spanning_trees_random():
    rng = random.Random(99)
    for n, edges, *_ in itertools.islice(random_draws(rng, 8, stage="graph"), 60):
        gram = flow_lattice(make_tait(n, edges))
        assert det_int(gram.matrix) == spanning_tree_count(n, edges), (n, edges)


def test_flow_gram_definite():
    rng = random.Random(4)
    for n, edges, *_ in itertools.islice(random_draws(rng, 8, stage="graph"), 40):
        g = make_tait(n, edges)
        gram, basis = flow_lattice(g), fundamental_cycles(g)
        if g.cycle_rank() == 0:
            assert gram.rank == 0
        else:
            assert definiteness(gram) == "positive_definite"
            assert gram.rank == g.cycle_rank() == len(cycle_vectors(g, basis))
