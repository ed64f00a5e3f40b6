"""Building alternating diagrams from plane multigraphs (medial construction).

Every edge of a plane multigraph becomes a crossing of the medial diagram;
the arcs of the diagram are the corners of the graph.  Picture an edge drawn
horizontally with its endpoints east and west: the four medial arcs around
the crossing sit NW, SW, SE, NE, and the two strands run NW-SE and SW-NE.
Choosing which strand goes over is the one degree of freedom; making the
SW-NE strand the over-strand puts the *vertex* faces of the graph on the
sweep pair {corner 0, corner 2}, i.e. gives Tait edge sign +1 (and the
opposite choice gives -1).  Applied to every edge uniformly this yields the
two alternating diagrams whose Tait graph (for the vertex color) is the input
graph.

Corner (vertex, i) is the gap after the i-th dart in the rotation at that
vertex, numbered vertex by vertex.  A corner is incident to exactly two
crossing slots, so the corners are literally the PD arcs, and the strands
are walked as in `diagram`, on slots h = 4 e + s of edge (crossing) e.  The medial's faces are the graph's
vertices and faces, so its Euler check in `build_diagram` (E + 2 faces) is
the graph's (V - E + F = 2): the one test that a rotation system is spherical.

The input type is `tait.PlaneGraph`, of which a Tait graph is one; factor
rebuilding takes the medial of each block of a diagram's Tait graph.
"""

from __future__ import annotations

from .diagram import Diagram, build_diagram, is_alternating, orient
from .errors import DiagramError, InconsistencyError
from .tait import PlaneGraph, factor_blocks, tait_graphs


def medial_diagram(g: PlaneGraph, vertex_sign: int) -> tuple[Diagram, int]:
    """The alternating medial diagram of g, and its link component count.

    vertex_sign is the Tait edge sign the vertex faces should get: +1 puts
    them on the sweep pair {corner 0, corner 2} of every crossing.  A
    rotation system that is not spherical gives a code that `build_diagram`
    rejects as not planar.
    """
    g.validate()
    if vertex_sign not in (1, -1):
        raise ValueError("vertex_sign must be +1 or -1")
    if g.num_edges == 0:
        raise DiagramError("medial of an edgeless graph is not a diagram")
    # corner_of[4 e + s]: the corner at slot s of crossing e, slots (A1, A2,
    # A3, A4) in ccw order; corners numbered vertex by vertex in rotation order
    corner_of = [0] * (4 * g.num_edges)
    base = 0
    for rot in g.rotations:
        for i, (ei, end) in enumerate(rot):
            corner_of[4 * ei + 2 * end] = base + i
            corner_of[4 * ei + 2 * end + 1] = base + (i - 1) % len(rot)
        base += len(rot)
    # each corner occurs at exactly two slots overall: mate joins them
    first, mate = [-1] * base, [0] * len(corner_of)
    for h, corner in enumerate(corner_of):
        if first[corner] < 0:
            first[corner] = h
        else:
            mate[first[corner]], mate[h] = h, first[corner]
    # strands pair opposite slots; under-strand = slots {0, 2} iff the SW-NE
    # strand {1, 3} is over iff vertex faces take the sweep pair (sign +1)
    under_parity = 0 if vertex_sign == 1 else 1
    labels = [0] * base  # corners labelled 1, 2, ... as the strands first leave by them
    under_in = [0] * g.num_edges
    seen = bytearray(len(corner_of))
    components = next_label = 0
    for start in range(len(corner_of)):
        if seen[start]:
            continue
        components += 1
        h = start
        while not seen[h]:
            seen[h] = seen[h ^ 2] = 1
            if h & 1 == under_parity:
                under_in[h >> 2] = h & 3
            corner = corner_of[h ^ 2]
            if not labels[corner]:
                next_label += 1
                labels[corner] = next_label
            h = mate[h ^ 2]
    crossings = [
        tuple(labels[corner_of[4 * ei + (u + k) % 4]] for k in range(4))
        for ei, u in enumerate(under_in)
    ]
    return build_diagram(crossings), components


# ---------------------------------------------------------------------------
# connected-sum factor rebuilding


def subgraph_plane(g: PlaneGraph, edge_subset) -> tuple[PlaneGraph, dict[int, int]]:
    """Plane subgraph induced by a set of edges (rotations filtered).

    Returns the subgraph and the map from new edge index to old.
    """
    keep = sorted(edge_subset)
    new_of_old = {old: new for new, old in enumerate(keep)}
    kept = [g.edges[ei] for ei in keep]
    verts = sorted({w for e in kept for w in e})
    vmap = {old: new for new, old in enumerate(verts)}
    edges = tuple((vmap[u], vmap[v]) for u, v in kept)
    rotations = tuple(
        tuple(
            (new_of_old[ei], end)
            for (ei, end) in g.rotations[old_v]
            if ei in new_of_old
        )
        for old_v in verts
    )
    return PlaneGraph(edges, rotations), {new: old for old, new in new_of_old.items()}


def rebuild_factors(d: Diagram) -> tuple[Diagram, ...]:
    """Diagrammatic prime factors of a nonempty alternating diagram, one per
    block of `tait.factor_blocks`, each rebuilt from color 0's Tait graph."""
    parts = factor_blocks(d)
    if len(parts) <= 1:
        return (d,)
    g = tait_graphs(d)[0]
    sign0 = g.edge_signs[0]
    signs = orient(d).signs
    factors = []
    for blk in parts:
        sub, old_edge = subgraph_plane(g, blk)
        factor, comps = medial_diagram(sub, sign0)
        if comps != 1:
            raise InconsistencyError("connected-sum factor is not a knot diagram")
        if not is_alternating(factor):
            raise InconsistencyError("rebuilt factor is not alternating")
        want_writhe = sum(signs[old_edge[i]] for i in range(len(blk)))
        if orient(factor).writhe != want_writhe:
            raise InconsistencyError(
                "rebuilt factor writhe disagrees with its crossings in the parent"
            )
        factors.append(factor)
    return tuple(factors)
