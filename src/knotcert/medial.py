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

Corners are indexed (vertex, i): the gap after the i-th dart in the rotation
at that vertex.  A corner is incident to exactly two crossing slots, so the
corners are literally the PD arcs.  The medial's faces are the graph's
vertices and faces, so its Euler check in `build_diagram` (E + 2 faces) is
the graph's (V - E + F = 2): the one test that a rotation system is spherical.

The input type is `tait.PlaneGraph`, of which a Tait graph is one; factor
rebuilding takes the medial of each block of a diagram's Tait graph.
"""

from __future__ import annotations

from .diagram import Diagram, build_diagram, is_alternating, orient
from .errors import DiagramError, InconsistencyError
from .tait import Dart, PlaneGraph, blocks, tait_graphs


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
    pos: dict[Dart, tuple[int, int]] = {}
    for v, rot in enumerate(g.rotations):
        for i, dart in enumerate(rot):
            pos[dart] = (v, i)

    def corner_before(dart: Dart) -> tuple[int, int]:
        v, i = pos[dart]
        return (v, (i - 1) % len(g.rotations[v]))

    # slots[e] lists the corners at slots (A1, A2, A3, A4) = ccw order
    slots = []
    for ei in range(g.num_edges):
        d0, d1 = (ei, 0), (ei, 1)
        slots.append((pos[d0], corner_before(d0), pos[d1], corner_before(d1)))
    # each corner occurs at exactly two slots overall
    corner_slots: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ei, quad in enumerate(slots):
        for si, corner in enumerate(quad):
            corner_slots.setdefault(corner, []).append((ei, si))
    # strands pair opposite slots; under-strand = slots {0, 2} iff the SW-NE
    # strand {1, 3} is over iff vertex faces take the sweep pair (sign +1)
    under_slots = (0, 2) if vertex_sign == 1 else (1, 3)
    labels: dict[tuple[int, int], int] = {}
    entry_of: dict[int, list[int]] = {ei: [] for ei in range(g.num_edges)}
    next_label = 1
    components = 0
    consumed: set[tuple[int, int]] = set()
    for e0 in range(g.num_edges):
        for s0 in range(4):
            start = (e0, s0)
            if start in consumed:
                continue
            components += 1
            cur = start
            while cur not in consumed:
                consumed.add(cur)
                ei, si = cur
                entry_of[ei].append(si)
                out_slot = (si + 2) % 4
                consumed.add((ei, out_slot))
                corner = slots[ei][out_slot]
                occ1, occ2 = corner_slots[corner]
                if corner not in labels:
                    labels[corner] = next_label
                    next_label += 1
                cur = occ2 if occ1 == (ei, out_slot) else occ1
    crossings = []
    for ei in range(g.num_edges):
        under_in = next(s for s in entry_of[ei] if s in under_slots)
        quad = slots[ei]
        crossings.append(tuple(labels[quad[(under_in + k) % 4]] for k in range(4)))
    return build_diagram(crossings), components


# ---------------------------------------------------------------------------
# connected-sum factor rebuilding


def subgraph_plane(g: PlaneGraph, edge_subset) -> tuple[PlaneGraph, dict[int, int]]:
    """Plane subgraph induced by a set of edges (rotations filtered).

    Returns the subgraph and the map from new edge index to old.
    """
    keep = sorted(edge_subset)
    new_of_old = {old: new for new, old in enumerate(keep)}
    verts = sorted({w for ei in keep for w in g.edges[ei]})
    vmap = {old: new for new, old in enumerate(verts)}
    edges = tuple((vmap[g.edges[ei][0]], vmap[g.edges[ei][1]]) for ei in keep)
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
    """Diagrammatic prime factors of an alternating diagram via Tait blocks,
    read off the color whose edge sign is the first crossing's sign (on a
    special diagram the orientable color, whose cycle basis the certificate
    reads; both colors have the same blocks), each rebuilt from color 0."""
    g = tait_graphs(d)[0]
    sign0 = g.edge_signs[0]
    if any(s != sign0 for s in g.edge_signs):
        raise InconsistencyError("alternating diagram with non-constant edge sign")
    signs = orient(d).signs
    parts = blocks(tait_graphs(d)[sign0 != signs[0]])
    if len(parts) <= 1:
        return (d,)
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
