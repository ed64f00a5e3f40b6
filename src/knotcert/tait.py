"""Tait graphs: the plane multigraphs dual to a checkerboard coloring.

For a fixed color, vertices are the faces of that color (`checkerboard`,
in face order) and every crossing contributes one edge joining the two
same-colored faces at its opposite corners.  `tait_graph` reads both from
one pass over the faces: half-edge (c, s) sits at corner (s - 1) mod 4,
which is end 0 of edge c at corners 0 and 1 and end 1 at corners 2 and 3,
and the order of a face's half-edges is the rotation system.  It is the one
place that checks that the colors alternate around each crossing.  A
`TaitGraph` is a `PlaneGraph` with one edge sign per crossing, and `medial`
rebuilds diagrams from its plane subgraphs.

Edge signs record where the color sits: +1 when the colored faces occupy the
sweep pair {corner 0, corner 2}, -1 when they occupy {corner 1, corner 3}.
An alternating diagram has constant edge sign for each color.  A crossing's
edge sign equals its crossing sign exactly when the oriented smoothing runs
through that color's corners.

`tait_graphs` builds both colors' graphs once per diagram, memoised on it.
The Goeritz matrices, the signature correction, the Seifert matrix and the
connected-sum split (`factor_blocks`, edge sets of the 2-connected blocks)
all read them.  The faces of one color's graph are the faces of the other
color, and the Seifert matrix takes its basis from those face boundaries.

The flow lattice of the graph is the integer cycle space with the Gram form
inherited from the edge basis; its basis is the fundamental cycles of a
spanning tree, kept as closed walks: a cotree edge and the tree paths from
its ends to their lowest common ancestor, simple and closed by construction.
Its determinant is the number of spanning trees, which for an alternating
diagram equals the knot determinant; the acceptance suite leans on that
cross-check.  The form (`flow_lattice`), the walks (`fundamental_cycles`)
and the blocks are memoised on the graph.

The same fundamental cycles give the blocks.  Each is a simple cycle, so it
lies inside one block, and those inside a 2-connected block span its cycle
space and cannot fall into two groups sharing no edge; so the blocks are the
classes of a union-find joining the edges of each cycle, with every bridge
and loop a class of its own.  That route reads no Gram form, so the
certificate's lattice summands and graph blocks stay two derivations.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import Diagram, cached_on_instance, checkerboard, classify_special, orient
from .errors import ClassificationError, DiagramError, InconsistencyError
from .lattice import GramForm, connected_classes

Dart = tuple[int, int]  # (edge index, end 0 or 1)


class _PlaneGraphFields(NamedTuple):
    edges: tuple[tuple[int, int], ...]
    rotations: tuple[tuple[Dart, ...], ...]


class PlaneGraph(_PlaneGraphFields):
    """A connected plane multigraph given by edges and vertex rotations.

    `rotations[v]` lists the darts (edge, end) around vertex v in consistent
    cyclic order; dart (e, 0) lives at edges[e][0] and (e, 1) at edges[e][1].
    Loops contribute both of their darts to the same rotation.
    """

    @property
    def num_vertices(self) -> int:
        return len(self.rotations)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def validate(self):
        """Check that the rotations list each dart once, at its own vertex,
        and that the graph is connected.  Whether the rotation system is
        spherical is checked by `medial.medial_diagram`, whose diagram has
        E + 2 faces exactly when V - E + F = 2."""
        want: dict[Dart, int] = {}
        for ei, (u, v) in enumerate(self.edges):
            for end, w in ((0, u), (1, v)):
                if not 0 <= w < self.num_vertices:
                    raise DiagramError(f"edge {ei} touches missing vertex {w}")
                want[(ei, end)] = w
        seen: set[Dart] = set()
        for v, rot in enumerate(self.rotations):
            for dart in rot:
                if dart in seen:
                    raise DiagramError(f"dart {dart} listed twice")
                if want.get(dart) != v:
                    raise DiagramError(f"dart {dart} misplaced at vertex {v}")
                seen.add(dart)
        if len(seen) != 2 * self.num_edges:
            raise DiagramError("rotation system does not cover all edge ends")
        if max(connected_classes(self.num_vertices, self.edges), default=0):
            raise DiagramError("plane graph is disconnected")


class _TaitGraphFields(NamedTuple):
    edges: tuple[tuple[int, int], ...]
    rotations: tuple[tuple[Dart, ...], ...]
    edge_signs: tuple[int, ...]


class TaitGraph(_TaitGraphFields, PlaneGraph):
    """A Tait graph: vertex i is the i-th face of its color and edge i is
    crossing i."""

    def cycle_rank(self) -> int:
        return self.num_edges - self.num_vertices + 1


def tait_graph(d: Diagram, color: int) -> TaitGraph:
    """The Tait graph of `color`, read off that color's faces in one pass.

    Half-edge (c, s) of a face sits at corner k = (s - 1) mod 4 of crossing
    c, which is end k // 2 of edge c; the edge sign is +1 when its ends sit
    at even corners.  Each edge must get end 0 and end 1 once, at corners of
    the same parity: that is, the colors alternate around the crossing.
    """
    ends: list[list[tuple[int, int] | None]] = [[None, None] for _ in range(d.n)]
    rotations = []
    for v, face in enumerate(checkerboard(d)[color]):
        rot = []
        for ci, s in face:
            k = (s - 1) % 4
            if ends[ci][k // 2] is not None:
                raise InconsistencyError(f"corner colors at crossing {ci} not alternating")
            ends[ci][k // 2] = (v, k)
            rot.append((ci, k // 2))
        rotations.append(tuple(rot))
    edges = []
    signs = []
    for ci, (e0, e1) in enumerate(ends):
        if e0 is None or e1 is None or (e1[1] - e0[1]) % 2:
            raise InconsistencyError(f"corner colors at crossing {ci} not alternating")
        edges.append((e0[0], e1[0]))
        signs.append(1 if e0[1] == 0 else -1)
    return TaitGraph(tuple(edges), tuple(rotations), tuple(signs))


@cached_on_instance
def tait_graphs(d: Diagram) -> tuple[TaitGraph, TaitGraph]:
    """The Tait graphs of both colors, built once per diagram."""
    return tait_graph(d, 0), tait_graph(d, 1)


# ---------------------------------------------------------------------------
# cycle space and blocks


Walk = tuple[tuple[int, int], ...]  # (edge, direction) steps of a closed walk


@cached_on_instance
def fundamental_cycles(g: TaitGraph) -> tuple[Walk, ...]:
    """Fundamental cycles of a BFS spanning tree (root 0, each vertex's edges
    in index order), as closed walks: direction +1 traverses an edge from
    endpoint 0 to endpoint 1.  Cycle i starts by traversing the i-th cotree
    edge forward, and no edge repeats in a walk."""
    nv = g.num_vertices
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(nv)]  # (edge, far end, dir)
    for ei, (a, b) in enumerate(g.edges):
        if a != b:
            adj[a].append((ei, b, 1))
            adj[b].append((ei, a, -1))
    parent: list[tuple[int, int, int] | None] = [None] * nv  # (vertex, edge, dir)
    in_tree = set()
    order = [0]
    seen = {0}
    for v in order:  # order grows as it is read: the BFS queue
        for ei, w, direction in adj[v]:
            if w not in seen:
                parent[w] = (v, ei, direction)
                in_tree.add(ei)
                seen.add(w)
                order.append(w)
    if len(seen) != nv:
        raise DiagramError("Tait graph is disconnected")

    def climb(v: int) -> list[tuple[int, int]]:
        # steps (edge, dir) from v toward the root
        steps = []
        while parent[v] is not None:
            v, ei, direction = parent[v]
            steps.append((ei, -direction))
        return steps

    walks = []
    for ei in range(g.num_edges):
        if ei in in_tree:
            continue
        u, v = g.edges[ei]
        walk = [(ei, 1)]
        if u != v:
            up_v = climb(v)
            up_u = climb(u)
            while up_v and up_u and up_v[-1][0] == up_u[-1][0]:
                up_v.pop()
                up_u.pop()
            walk.extend(up_v)
            walk.extend((e, -s) for (e, s) in reversed(up_u))
        walks.append(tuple(walk))
    return tuple(walks)


@cached_on_instance
def blocks(g: TaitGraph) -> tuple[tuple[int, ...], ...]:
    """Blocks of the underlying multigraph, each as its sorted edge indices,
    ordered by least edge: the classes of the edges that the fundamental
    cycles join.  A loop or a bridge is a block of its own.

    A simple cycle lies inside one block, and the fundamental cycles inside
    a block span its cycle space.  Were they to fall into two groups sharing
    no edge, a simple cycle through an edge of each group would split into
    two nonzero cycles with disjoint supports.  The graph must be connected
    (DiagramError otherwise), as every Tait graph is.
    """
    walks = fundamental_cycles(g)
    labels = connected_classes(g.num_edges, ((w[0][0], e) for w in walks for e, _ in w))
    parts: dict[int, list[int]] = {}
    for e, label in enumerate(labels):
        parts.setdefault(label, []).append(e)
    return tuple(map(tuple, parts.values()))


@cached_on_instance
def factor_blocks(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """The blocks, one per prime factor, of a nonempty alternating diagram: those
    of the color whose edge sign is the first crossing's sign (orientable if special;
    both colors have the same blocks), once color 0's edge signs are checked constant."""
    g = tait_graphs(d)[0]
    sign0 = g.edge_signs[0]
    if any(s != sign0 for s in g.edge_signs):
        raise InconsistencyError("alternating diagram with non-constant edge sign")
    return blocks(tait_graphs(d)[sign0 != orient(d).signs[0]])


@cached_on_instance
def flow_lattice(g: TaitGraph) -> GramForm:
    """Gram form of the cycle space, inherited from the edge basis, in the
    basis of the walks of `fundamental_cycles`.  A simple cycle's walk lists
    its edge vector's support, so entry (i, j) sums over the edges that
    cycles i and j share."""
    walks = fundamental_cycles(g)
    through: list[list[tuple[int, int]]] = [[] for _ in range(g.num_edges)]
    for i, walk in enumerate(walks):
        for e, s in walk:
            through[e].append((i, s))
    form = [[0] * len(walks) for _ in walks]
    for cycles in through:
        for i, si in cycles:
            for j, sj in cycles:
                form[i][j] += si * sj
    return GramForm(form)


def orientable_tait_graph(d: Diagram) -> TaitGraph:
    """Tait graph of a special diagram's orientable color (the faces of its
    Seifert surface)."""
    rep = classify_special(d)
    if not rep.is_special:
        raise ClassificationError("only a special diagram has an orientable color")
    return tait_graphs(d)[rep.orientable_color]

