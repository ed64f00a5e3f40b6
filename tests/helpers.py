"""Shared helpers for the test-suite: random unimodular matrices and random
connected planar multigraphs (the latter via networkx, which is a test-only
dependency)."""

from __future__ import annotations

import random
from typing import NamedTuple

from knotcert.corpus import BUNDLED, corpus_rows, row_values
from knotcert.diagram import Diagram
from knotcert.invariants import LaurentPolynomial
from knotcert.lattice import identity, mat_mul, transpose
from knotcert.medial import PlaneGraph, medial_diagram


def random_unimodular(n: int, rng: random.Random, steps: int = 12,
                      max_entry: int = 40) -> list[list[int]]:
    """Product of elementary integer row operations; determinant is +-1.

    Entries are kept small so that congruence-scrambled Gram matrices stay
    within comfortable exact-enumeration range.
    """
    u = identity(n)
    if n <= 1:
        return u
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        if op == 0:
            t = rng.choice((-1, 1))
            cand = [row[:] for row in u]
            for k in range(n):
                cand[k][j] += t * cand[k][i]
            if max(abs(x) for row in cand for x in row) <= max_entry:
                u = cand
        elif op == 1:
            for k in range(n):
                u[k][i], u[k][j] = u[k][j], u[k][i]
        else:
            for k in range(n):
                u[k][i] = -u[k][i]
    return u


def congruent_scramble(matrix, rng: random.Random):
    """U^T M U for a random unimodular U; returns (scrambled, U)."""
    n = len(matrix)
    u = random_unimodular(n, rng)
    m = mat_mul(mat_mul(transpose(u), [list(r) for r in matrix]), u)
    return [list(map(int, row)) for row in m], u


class Draw(NamedTuple):
    """One draw of `random_draws`: the multigraph, and as far as its stage
    goes, its plane embedding, medial diagram, component count and sign."""

    n: int
    edges: list[tuple[int, int]]
    g: PlaneGraph | None = None
    d: Diagram | None = None
    comps: int = 0
    sign: int = 0


def random_draws(rng: random.Random, max_edges: int, max_vertices: int = 6, *,
                 stage: str = "medial", links: bool = True, tries: int | None = None):
    """Seeded random connected multigraphs, taken through the stages up to
    `stage` and yielded as `Draw`s, skipping the draws a stage filters out:

    * "graph": every draw, a random spanning tree on 1..max_vertices
      vertices plus extra edges (possibly parallel, possibly loops), at most
      max_edges in all;
    * "edges": the draws with at least one edge;
    * "plane": of those the planar ones, embedded (`plane_graph_from_multigraph`);
    * "medial": their medial diagrams, vertex sign rng.choice((1, -1)); with
      links=False only knots (one component) are kept.

    Draws are made lazily, so a caller that uses `rng` between them sees the
    same draws as a loop written out by hand.  `tries` caps the number of
    draws made, kept or not.
    """
    level = ("graph", "edges", "plane", "medial").index(stage)
    made = 0
    while tries is None or made < tries:
        made += 1
        n = rng.randint(1, max_vertices)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randint(0, max(0, max_edges - len(edges)))):
            u, v = rng.randrange(n), rng.randrange(n)
            edges.append((min(u, v), max(u, v)))
        if level and not edges:
            continue
        g = plane_graph_from_multigraph(n, edges) if level >= 2 else None
        if level >= 2 and g is None:
            continue
        if level < 3:
            yield Draw(n, edges, g)
            continue
        sign = rng.choice((1, -1))
        d, comps = medial_diagram(g, sign)
        if links or comps == 1:
            yield Draw(n, edges, g, d, comps, sign)


# Planar codes whose strands cannot be oriented: the trefoil and figure eight
# with one crossing's tuple turned by a half turn, and two seeded fuzz codes.
MISORIENTED = [
    "X(2,5,1,4) X(3,6,4,1) X(5,2,6,3)",
    "X(4,2,5,1) X(1,5,8,6) X(6,3,7,4) X(2,7,3,8)",
    "X(4,1,3,3) X(2,4,1,2)",
    "X(3,4,2,3) X(1,4,1,2)",
]


def canonical_pd(d):
    """Minimum relabeling of the PD tuples over all strand starts/directions.

    Two diagrams of the same knot get equal canonical forms exactly when they
    differ by arc relabeling (including reversing the traversal direction),
    which is what reading the same picture off from a different start gives.
    """
    from knotcert.diagram import orient

    n = d.n
    if n == 0:
        return ()
    od = orient(d)
    nxt = {}
    for ci, c in enumerate(d.crossings):
        nxt[c[0]] = c[2]
        s = od.over_in_slot[ci]
        nxt[c[s]] = c[(s + 2) % 4]
    seq = [1]
    while len(seq) < 2 * n:
        seq.append(nxt[seq[-1]])
    assert nxt[seq[-1]] == 1 and len(set(seq)) == 2 * n
    best = None
    for rev in (False, True):
        order = list(reversed(seq)) if rev else seq
        for k in range(2 * n):
            lab = {order[(k + i) % (2 * n)]: i + 1 for i in range(2 * n)}
            tuples = []
            for c in d.crossings:
                cc = (c[2], c[3], c[0], c[1]) if rev else c
                tuples.append((lab[cc[0]], lab[cc[1]], lab[cc[2]], lab[cc[3]]))
            cand = tuple(sorted(tuples))
            if best is None or cand < best:
                best = cand
    return best


def orientable_by_parity(d) -> bool:
    """Whether arc directions exist with every slot 0 incoming, every slot 2
    outgoing and one over-strand end incoming at each crossing.

    Independent of the strand walk: each arc's direction is a bit (which of
    its two half-edges it points into), each crossing gives parity
    constraints between those bits, and a parity union-find decides them.
    """
    occ = {}
    for ci, c in enumerate(d.crossings):
        for s, a in enumerate(c):
            occ.setdefault(a, []).append((ci, s))
    parent = {}  # node -> (parent, parity to parent); node 0 is the constant 0

    def find(x):
        p, par = parent.get(x, (x, 0))
        if p == x:
            return x, 0
        root, rpar = find(p)
        parent[x] = (root, par ^ rpar)
        return root, par ^ rpar

    def equate(x, y, parity):  # bit(x) ^ bit(y) == parity; False on conflict
        (rx, px), (ry, py) = find(x), find(y)
        if rx == ry:
            return px ^ py == parity
        parent[rx] = (ry, px ^ py ^ parity)
        return True

    def end(ci, s):  # the arc at (ci, s) and the bit value pointing into it
        a = d.crossings[ci][s]
        return a, occ[a].index((ci, s))

    ok = True
    for ci in range(d.n):
        a0, b0 = end(ci, 0)
        a2, b2 = end(ci, 2)
        a1, b1 = end(ci, 1)
        a3, b3 = end(ci, 3)
        ok &= equate(a0, 0, b0)  # arc labels are >= 1, so 0 is free
        ok &= equate(a2, 0, 1 - b2)
        ok &= equate(a1, a3, 1 ^ b1 ^ b3)  # exactly one of them points in
    return bool(ok)


def check_orientation(d):
    """Over-strand slots and signs of `orient(d)` agree crossing by crossing,
    every arc points into exactly one of its two ends (slot 0 or the
    over-strand's in-slot), and the component count matches a union-find over
    the strands."""
    from knotcert.diagram import orient
    from knotcert.lattice import connected_classes

    od = orient(d)
    heads: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(d.crossings):
        s = od.over_in_slot[ci]
        assert s in (1, 3)
        assert od.signs[ci] == (1 if s == 3 else -1)
        for k in (0, s):
            heads.setdefault(c[k], []).append((ci, k))
    assert sorted(heads) == list(range(1, 2 * d.n + 1))
    assert all(len(h) == 1 for h in heads.values()), heads
    if d.n:
        strands = [(c[k] - 1, c[k + 2] - 1) for c in d.crossings for k in (0, 1)]
        assert od.components == 1 + max(connected_classes(2 * d.n, strands))


def crossing_changed(d, rng: random.Random):
    """The diagram with a random nonempty set of crossings switched, each
    rotated so that its old over-strand becomes the incoming under-strand."""
    from knotcert.diagram import build_diagram, orient

    od = orient(d)
    flip = set(rng.sample(range(d.n), rng.randint(1, d.n)))
    out = []
    for ci, c in enumerate(d.crossings):
        k = od.over_in_slot[ci] if ci in flip else 0
        out.append(c[k:] + c[:k])
    return build_diagram(out)


def theta(k):
    """Two vertices joined by k parallel edges, nested planar rotation.

    Its medial diagram is the torus knot or link T(2,k)."""
    return PlaneGraph(
        tuple(((0, 1),) * k),
        (tuple((e, 0) for e in range(k)), tuple((e, 1) for e in reversed(range(k)))),
    )


def plane_graph_from_multigraph(n_vertices, edges):
    """Embed a connected multigraph in the plane; None if nonplanar.

    networkx only embeds simple graphs, so every edge is subdivided first
    (loops twice); the rotation at each original vertex is then read off the
    embedding through the midpoint vertices.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n_vertices))
    dart_of = {}
    nxt_node = n_vertices
    for ei, (u, v) in enumerate(edges):
        if u == v:
            m1, m2 = nxt_node, nxt_node + 1
            nxt_node += 2
            g.add_edge(u, m1)
            g.add_edge(m1, m2)
            g.add_edge(m2, v)
            dart_of[(u, m1)] = (ei, 0)
            dart_of[(v, m2)] = (ei, 1)
        else:
            m = nxt_node
            nxt_node += 1
            g.add_edge(u, m)
            g.add_edge(m, v)
            dart_of[(u, m)] = (ei, 0)
            dart_of[(v, m)] = (ei, 1)
    ok, emb = nx.check_planarity(g)
    if not ok:
        return None
    rotations = []
    for v in range(n_vertices):
        order = list(emb.neighbors_cw_order(v)) if g[v] else []
        rotations.append(tuple(dart_of[(v, w)] for w in order))
    return PlaneGraph(tuple(tuple(e) for e in edges), tuple(rotations))


def face_count(g):
    """Faces of a plane graph's rotation system: the orbits of (reverse the
    dart, then take its rotation successor).  The system is spherical
    exactly when V - E + F = 2."""
    succ = {}
    for rot in g.rotations:
        for i, dart in enumerate(rot):
            succ[dart] = rot[(i + 1) % len(rot)]
    faces = 0
    seen = set()
    for dart in succ:
        if dart in seen:
            continue
        faces += 1
        cur = dart
        while cur not in seen:
            seen.add(cur)
            e, end = cur
            cur = succ[(e, 1 - end)]
    return faces


def cycle_vectors(g, walks):
    """Each closed walk of `tait.fundamental_cycles` as its vector over the
    edge basis."""
    vectors = []
    for walk in walks:
        vec = [0] * g.num_edges
        for e, s in walk:
            vec[e] += s
        vectors.append(tuple(vec))
    return tuple(vectors)


def fundamental_cycles_scan(g):
    """The closed walks of `tait.fundamental_cycles`, with the BFS spanning
    tree (root 0, each vertex's edges in index order) found by scanning
    every edge for each vertex instead of reading adjacency lists."""
    parent = [None] * g.num_vertices  # (vertex, edge, dir)
    in_tree = set()
    order = [0]
    seen = {0}
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for ei, (a, b) in enumerate(g.edges):
            if a == b or ei in in_tree:
                continue
            w = None
            if a == v and b not in seen:
                w, direction = b, 1
            elif b == v and a not in seen:
                w, direction = a, -1
            if w is not None:
                parent[w] = (v, ei, direction)
                in_tree.add(ei)
                seen.add(w)
                order.append(w)
    assert len(seen) == g.num_vertices

    def climb(v):
        steps = []
        while parent[v] is not None:
            pv, ei, direction = parent[v]
            steps.append((ei, -direction))
            v = pv
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


def spanning_tree_count(n_vertices, edges):
    """Count spanning trees by brute force over edge subsets."""
    from itertools import combinations

    if n_vertices == 1:
        return 1
    count = 0
    for sub in combinations(range(len(edges)), n_vertices - 1):
        parent = list(range(n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for ei in sub:
            ru, rv = find(edges[ei][0]), find(edges[ei][1])
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        count += ok
    return count


def block_partition_oracle(n_vertices, edges):
    """Edge partition into biconnected blocks via networkx on a subdivision."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n_vertices))
    half = {}
    nxt = n_vertices
    for ei, (u, v) in enumerate(edges):
        if u == v:
            m1, m2 = nxt, nxt + 1
            nxt += 2
            g.add_edge(u, m1)
            g.add_edge(m1, m2)
            g.add_edge(m2, v)
            half[(m1,)] = ei
            half[(m2,)] = ei
        else:
            m = nxt
            nxt += 1
            g.add_edge(u, m)
            g.add_edge(m, v)
            half[(m,)] = ei
    comp_of = {}
    for comp in nx.biconnected_component_edges(g):
        key = frozenset(comp)
        for (a, b) in comp:
            m = a if a >= n_vertices else b
            comp_of.setdefault(half[(m,)], set()).add(key)
    groups = {}
    for ei in range(len(edges)):
        keys = comp_of[ei]
        assert len(keys) >= 1
        groups.setdefault(frozenset().union(*keys), set()).add(ei)
    return sorted(tuple(sorted(s)) for s in groups.values())


def necklace(sides):
    """A cycle whose i-th side is a bundle of sides[i] parallel edges, with
    the bundles nested as in `theta`."""
    m = len(sides)
    edges, bundles = [], []
    for i, p in enumerate(sides):
        bundles.append(range(len(edges), len(edges) + p))
        edges.extend((i, (i + 1) % m) for _ in range(p))
    rotations = tuple(
        tuple((e, 0) for e in bundles[i]) + tuple((e, 1) for e in reversed(bundles[i - 1]))
        for i in range(m)
    )
    return PlaneGraph(tuple(edges), rotations)


def trefoil_chain(k):
    """A path of k bundles of three parallel edges, each nested as in
    `theta`: its medial diagram is the connected sum of k trefoils."""
    edges = tuple((i, i + 1) for i in range(k) for _ in range(3))
    rotations = tuple(
        tuple([(3 * (v - 1) + j, 1) for j in (2, 1, 0) if v > 0]
              + [(3 * v + j, 0) for j in (0, 1, 2) if v < k])
        for v in range(k + 1)
    )
    return PlaneGraph(edges, rotations)


def wide_necklace(rng: random.Random):
    """A seeded necklace knot of 25-41 crossings, as the wide-diagrams
    benchmark draws them."""
    m, n = rng.choice(((3, 25), (5, 29), (3, 33), (7, 37), (5, 41)))
    sides = [3] * m
    for _ in range((n - 3 * m) // 2):
        sides[rng.randrange(m)] += 2
    return medial_diagram(necklace(sides), rng.choice((1, -1)))[0]


def two_coloring(n: int, edges) -> list[int] | None:
    """Colors 0/1 of the vertices 0..n-1 of a connected graph, vertex 0
    colored 0, such that every edge joins two colors, found by a depth-first
    search; None when an odd cycle (a loop included) makes that impossible."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colors = [-1] * n
    colors[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if colors[v] < 0:
                colors[v] = 1 - colors[u]
                stack.append(v)
            elif colors[v] == colors[u]:
                return None
    return colors


# ---------------------------------------------------------------------------
# independent reference implementations of the exact kernels


def poly_value(coeffs, x):
    """Value at x of the polynomial with ascending coefficients `coeffs`."""
    return sum(c * x**k for k, c in enumerate(coeffs))


def interpolate_int_poly(xs: list[int], ys: list[int]) -> list[int]:
    """Integer coefficients (ascending degree) of the polynomial through the points.

    Newton divided differences at distinct integer points, then Horner
    expansion of the Newton form.  The divided differences are integers
    exactly when the values come from an integer polynomial of degree
    < len(xs); a division with a remainder raises InconsistencyError.
    """
    from knotcert.errors import InconsistencyError

    n = len(xs)
    dd = list(ys)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            q, r = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - k])
            if r:
                raise InconsistencyError(
                    f"divided difference {dd[i] - dd[i - 1]}/{xs[i] - xs[i - k]} "
                    "is not an integer"
                )
            dd[i] = q
    out = dd[-1:]
    for k in range(n - 2, -1, -1):
        # out <- out * (t - xs[k]) + dd[k]
        x = xs[k]
        out = (
            [dd[k] - x * out[0]]
            + [out[j - 1] - x * out[j] for j in range(1, len(out))]
            + [out[-1]]
        )
    while out and out[-1] == 0:
        out.pop()
    return out


def det_fraction(m):
    """Determinant by Gaussian elimination over Fractions."""
    from fractions import Fraction

    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return int(det)


def indecomposable_vectors(gram, shorts):
    """(v, G v) for each v of `shorts` (short_vectors output, sorted by norm)
    that is not x + y with x, y nonzero and orthogonal.

    Such a split has x.v = |x|^2, and one of the two parts has at most half
    the norm of v, so testing the vectors x with |x|^2 <= |v|^2 / 2 (and,
    through the absolute value, their negatives) is exhaustive.
    """
    from bisect import bisect_right

    from knotcert.lattice import dot, gram_image

    images = [gram_image(gram, v) for v, _ in shorts]
    norms = [nv for _, nv in shorts]
    return [
        (v, images[k])
        for k, (v, nv) in enumerate(shorts)
        if not any(abs(dot(images[i], v)) == norms[i] for i in range(bisect_right(norms, nv // 2)))
    ]


def summand_sublattices_shortvectors(gram):
    """The indecomposable summands of a positive definite form, each as the
    Hermite normal form of its sublattice (rows, original coordinates), in
    sorted order, by the short-vector route: every indecomposable vector up
    to the largest diagonal entry of the greedy-reduced basis (those vectors
    span the lattice), grouped by the transitive closure of non-orthogonality."""
    from knotcert.lattice import dot, greedy_reduce, lattice_row_basis, short_vectors

    g_red, u_red = greedy_reduce(gram)
    bound = max(g_red[i][i] for i in range(len(g_red)))
    classes = []  # lists of (v, G v)
    for v, gv in indecomposable_vectors(g_red, short_vectors(g_red, bound)):
        apart, joined = [], [(v, gv)]
        for c in classes:
            if any(dot(gv, w) for w, _ in c):
                joined += c
            else:
                apart.append(c)
        classes = apart + [joined]
    return sorted(
        lattice_row_basis([[dot(row, v) for row in u_red] for v, _ in c]) for c in classes
    )


def isometric(q1, q2):
    """Decide Z-equivalence of two positive definite `GramForm`s.

    Returns (True, U) with U^T Q1 U = Q2 (U unimodular, rows of tuples), or
    (False, None).  Exhaustive backtracking over short vectors of Q1 whose
    norms match diag(Q2); completeness follows because any isometry must send
    the i-th basis vector of Q2 to a vector of norm Q2[i][i].  A found
    witness is re-checked, congruence and unimodularity, with the package's
    `congruence` and `det_int`, and a failed check raises InconsistencyError.
    """
    from knotcert.errors import InconsistencyError
    from knotcert.lattice import congruence, definiteness, det_int, dot, gram_image, short_vectors

    n = q1.rank
    if n != q2.rank:
        return False, None
    if n == 0:
        return True, ()
    if definiteness(q1) != "positive_definite" or definiteness(q2) != "positive_definite":
        raise ValueError("isometric() compares positive definite forms")
    g1, target = q1.matrix, q2.matrix
    if det_int(g1) != det_int(target):
        return False, None
    # candidates of each norm, both signs, with G v precomputed
    by_norm = {}
    for v, nv in short_vectors(g1, max(target[i][i] for i in range(n))):
        gv = gram_image(g1, v)
        by_norm.setdefault(nv, []).extend(
            [(v, gv), (tuple(-c for c in v), tuple(-c for c in gv))]
        )
    chosen = []

    def rec(k):
        if k == n:
            return True
        for cand, gcand in by_norm.get(target[k][k], ()):
            if all(dot(gcand, chosen[j]) == target[k][j] for j in range(k)):
                chosen.append(cand)
                if rec(k + 1):
                    return True
                chosen.pop()
        return False

    if not rec(0):
        return False, None
    u_cols = transpose(chosen)  # columns = images
    if congruence(u_cols, g1) != [list(r) for r in target]:
        raise InconsistencyError("isometry witness does not carry one form to the other")
    if abs(det_int(u_cols)) != 1:
        raise InconsistencyError("isometry witness is not unimodular")
    return True, tuple(tuple(row) for row in u_cols)


def inverse_fraction(m):
    """Inverse of a nonsingular matrix by Gauss-Jordan elimination over
    Fractions; entries are ints when m is unimodular."""
    from fractions import Fraction

    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k])
        a[k], a[p] = a[p], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [[int(x) if x.denominator == 1 else x for x in row[n:]] for row in a]


def decomposable_bruteforce(gram, shorts):
    """The vectors of `shorts` that split as v = x + y with x, y nonzero and
    x.y = 0, by the definition: x over every short vector of either sign
    with |x|^2 < |v|^2 (full quadratic-form evaluations, no precomputation)."""
    n = len(gram)

    def form(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(n) for j in range(n))

    signed = [v for v, _ in shorts] + [tuple(-c for c in v) for v, _ in shorts]
    out = []
    for v, nv in shorts:
        for x in signed:
            y = tuple(a - b for a, b in zip(v, x))
            if form(x, x) < nv and any(y) and form(x, y) == 0:
                out.append(v)
                break
    return out


def short_vectors_bruteforce(gram, bound):
    """short_vectors by scanning a box: for positive definite G,
    x^T G x <= bound forces x_i^2 <= bound * (G^-1)_ii."""
    import itertools
    import math

    n = len(gram)
    det = det_fraction(gram)
    ranges = []
    for i in range(n):
        minor = [[gram[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
        k = math.isqrt(bound * det_fraction(minor) // det)
        ranges.append(range(-k, k + 1))
    out = []
    for v in itertools.product(*ranges):
        norm = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        if any(v) and norm <= bound and v > tuple(-c for c in v):
            out.append((v, norm))
    return sorted(out, key=lambda p: (p[1], p[0]))


def short_vectors_fraction(gram, bound):
    """short_vectors with its LDL^T over Fractions and both signs of every
    vector enumerated, keeping the lexicographically larger one."""
    import math
    from fractions import Fraction

    n = len(gram)
    if n == 0 or bound <= 0:
        return []
    a = [[Fraction(x) for x in row] for row in gram]
    L = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    for k in range(n):
        d[k] = a[k][k] - sum(L[k][j] * L[k][j] * d[j] for j in range(k))
        assert d[k] > 0, "not positive definite"
        for i in range(k + 1, n):
            L[i][k] = (a[i][k] - sum(L[i][j] * L[k][j] * d[j] for j in range(k))) / d[k]
    # The norm is sum_i d_i (x_i + c_i)^2 with c_i = sum_{j>i} L_ji x_j.  In
    # integers: x_i + c_i = z_i / den_i with z_i = x_i den_i + sum num_ij x_j,
    # and scale * norm = sum_i w_i z_i^2.
    den = [math.lcm(*(L[j][i].denominator for j in range(i + 1, n))) for i in range(n)]
    num = [[int(L[j][i] * den[i]) for j in range(n)] for i in range(n)]
    weights = [d[i] / den[i] ** 2 for i in range(n)]
    scale = math.lcm(*(wi.denominator for wi in weights))
    w = [int(wi * scale) for wi in weights]
    out = []
    x = [0] * n

    def rec(i, remaining):
        if i < 0:
            if any(x):
                v = tuple(x)
                if v > tuple(-c for c in v):
                    out.append((v, bound - remaining // scale))
            return
        s = sum(num[i][j] * x[j] for j in range(i + 1, n))
        t = math.isqrt(remaining // w[i])
        for xi in range(-((t + s) // den[i]), (t - s) // den[i] + 1):
            z = xi * den[i] + s
            x[i] = xi
            rec(i - 1, remaining - w[i] * z * z)
        x[i] = 0

    rec(n - 1, bound * scale)
    out.sort(key=lambda p: (p[1], p[0]))
    return out


def enumerate_recursive(fp, bound: int, leaf, parity=None) -> bool:
    """The coset search `lattice._enumerate` as one recursive call per level:
    call leaf(x, scale * (bound - x^T G x)) on each nonzero x with
    x^T G x <= bound, one of every +-pair (its last nonzero coordinate
    positive), and with x = parity (mod 2) when `parity` is given; stop, and
    return True, as soon as leaf returns a true value.  `x` is reused.  Its
    depth is the rank, so it stays below Python's recursion limit."""
    import math
    from operator import mul

    pivots, w, scale, cols = fp
    n = len(pivots)
    x = [0] * n

    def rec(i: int, remaining: int, top: bool) -> bool:
        # top: x_j = 0 for all j > i, so x_i >= 0 visits each +-pair once
        if i < 0:
            return not top and leaf(x, remaining)
        s = sum(map(mul, cols[i], x))
        p = pivots[i]
        # w_i z_i^2 <= remaining  <=>  |z_i| <= t, since z_i is an integer
        t = math.isqrt(remaining // w[i])
        lo = 0 if top else -((t + s) // p)
        step = 1
        if parity is not None:
            lo += (lo - parity[i]) % 2
            step = 2
        for xi in range(lo, (t - s) // p + 1, step):
            z = xi * p + s
            x[i] = xi
            if rec(i - 1, remaining - w[i] * z * z, top and not xi):
                return True
        x[i] = 0
        return False

    return rec(n - 1, bound * scale, True)


def inertia_fraction(matrix):
    """(positive, negative, zero) counts by congruence diagonalization over
    Fractions: a symmetric pivot swap, or e_i += e_j when the remaining
    diagonal vanishes."""
    from fractions import Fraction

    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    pos = neg = zero = 0
    k = 0
    while k < n:
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                found = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0),
                    None,
                )
                if found is None:
                    zero += n - k
                    break
                i, j = found
                for col in range(n):
                    a[i][col] += a[j][col]
                for row in a:
                    row[i] += row[j]
                if i != k:
                    a[k], a[i] = a[i], a[k]
                    for row in a:
                        row[k], row[i] = row[i], row[k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / d
                for col in range(n):
                    a[i][col] -= f * a[k][col]
                for row in a:
                    row[i] -= f * row[k]
        k += 1
    return pos, neg, zero


def sparse_rows(matrix) -> list[dict[int, int]]:
    """The nonzero entries of a matrix as rows {column: value}."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def sylvester_dense(matrix):
    """(positive, negative, zero, last pivot) of a symmetric integer matrix by
    dense symmetric fraction-free (Bareiss) elimination in natural order, a
    row at a time on the upper triangle: d_k has the sign of p_k p_{k-1}, and
    each step is a congruence of determinant +-1, so the last pivot of a
    nondegenerate matrix is its determinant.  A zero pivot is swapped
    symmetrically with a later nonzero diagonal entry, or made by
    e_i += e_j when the whole remaining diagonal vanishes; an all-zero
    remaining block is the kernel."""
    n = len(matrix)
    a = [list(row[i:]) for i, row in enumerate(matrix)]
    pos = neg = 0
    prev = 1
    while a:
        if not a[0][0]:
            m = len(a)
            full = [[a[min(i, j)][abs(i - j)] for j in range(m)] for i in range(m)]
            k = next((i for i, row in enumerate(full) if row[i]), None)
            if k is None:
                ij = next(((i, j) for i in range(m) for j in range(i + 1, m) if full[i][j]), None)
                if ij is None:
                    break
                k, j = ij
                for row in full:
                    row[k] += row[j]
                full[k] = [x + y for x, y in zip(full[k], full[j])]
            full[0], full[k] = full[k], full[0]
            for row in full:
                row[0], row[k] = row[k], row[0]
            a = [row[i:] for i, row in enumerate(full)]
        top = a[0]
        p = top[0]
        a = [
            [(x * p - f * y) // prev for x, y in zip(row, top[i:])] if f
            else row if p == prev else [x * p // prev for x in row]
            for i, (row, f) in enumerate(zip(a[1:], top[1:]), 1)
        ]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        prev = p
    return pos, neg, n - pos - neg, prev


def bareiss_eager(m):
    """The Bareiss elimination of `lattice._bareiss` with eager rescaling:
    every step brings every row below it to the step's scale, so a row with
    a 0 in the pivot column is multiplied by p_k / p_{k-1}.  Returns (swaps,
    pivots, rows) as `_bareiss` does."""
    n = len(m)
    a = [list(row) for row in m]
    pivots = []
    swaps = 0
    prev = 1
    for k in range(n):
        if a[k][0] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][0] != 0), None)
            if pivot is None:
                break
            a[k], a[pivot] = a[pivot], a[k]
            swaps += 1
        rest = a[k]
        p = rest.pop(0)
        pivots.append(p)
        for i in range(k + 1, n):
            row = a[i]
            f = row.pop(0)
            if f:
                a[i] = [(x * p - f * y) // prev for x, y in zip(row, rest)]
            elif p != prev:
                a[i] = [x * p // prev for x in row]
        prev = p
    return swaps, pivots, a


def unit_residue_rescan(rows):
    """The unit elimination of `invariants._unit_residue` without its heap:
    every step rescans all unit entries for the least (cost, row, column).

    Tietze-reduce a square matrix of Laurent entries, given as sparse rows
    {column: {exponent: coefficient}} (zeros dropped, consumed), to the
    dense square matrix left over.

    While some entry is a unit +-t^e, the one of least Markowitz cost (ties to
    the least (row, column)) clears its column and its row and column are
    dropped; that changes the determinant by a unit only.
    """
    from collections import Counter

    from knotcert.errors import InconsistencyError

    col_count = Counter(j for row in rows for j in row)
    while rows:
        best = min(
            (
                ((len(row) - 1) * (col_count[j] - 1), i, j)
                for i, row in enumerate(rows)
                for j, e in row.items()
                if len(e) == 1 and abs(*e.values()) == 1
            ),
            default=None,
        )
        if best is None:
            break
        _, i, j = best
        col_count.subtract(rows[i].keys())
        pivot_row = rows.pop(i)
        ((lo, u),) = pivot_row.pop(j).items()
        for row in rows:
            f = row.pop(j, None)
            if f is None:
                continue
            # row -= f (u t^lo)^-1 pivot_row
            col_count.subtract(row.keys())
            for k, g in pivot_row.items():
                e = row.setdefault(k, {})
                for a, x in f.items():
                    for b, y in g.items():
                        e[a + b - lo] = e.get(a + b - lo, 0) - u * x * y
                e = {a: x for a, x in e.items() if x}
                if e:
                    row[k] = e
                else:
                    del row[k]
            col_count.update(row.keys())
    cols = sorted({j for row in rows for j in row})
    if len(cols) != len(rows) or not all(rows):
        raise InconsistencyError(
            f"Laurent residue of {len(rows)} rows on {len(cols)} columns "
            "is not square or has a zero row"
        )
    return [[row.get(j, {}) for j in cols] for row in rows]


def occurrences(d) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
    """The two half-edges (crossing, slot) of each arc label, by label in
    order of first use: `diagram._mates` as a dict of tuple pairs."""
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(d.crossings):
        for slot, a in enumerate(c):
            occ.setdefault(a, []).append((ci, slot))
    return {a: tuple(v) for a, v in occ.items()}


def mate_of(d, occ, he):
    """The other end of the arc at half-edge `he`, looked up in `occ`."""
    u, v = occ[d.crossings[he[0]][he[1]]]
    return v if he == u else u


def trace_faces_by_tuples(d):
    """`diagram._trace_faces` on (crossing, slot) tuples and a set: the
    orbits of (c, s) -> rotate(mate(c, s)), each from its least half-edge."""
    occ = occurrences(d)
    faces = []
    seen = set()
    for ci in range(d.n):
        for slot in range(4):
            he = (ci, slot)
            if he in seen:
                continue
            face = []
            cur = he
            while cur not in seen:
                seen.add(cur)
                face.append(cur)
                mc, ms = mate_of(d, occ, cur)
                cur = (mc, (ms + 1) % 4)
            faces.append(tuple(face))
    return tuple(faces)


def strands_by_tuples(d):
    """`diagram._strands` on (crossing, slot) tuples and a set: walks from
    each unvisited slot 0, then from the highest unvisited half-edge, each
    leaving through (c, s + 2); a walk entering at slot 2 raises
    ClassificationError."""
    from knotcert.errors import ClassificationError

    occ = occurrences(d)
    seen = set()
    walks = []
    half_edges = [(ci, s) for ci in range(d.n) for s in range(4)]
    for start in half_edges[::4] + half_edges[::-1]:
        if start in seen:
            continue
        walk, cur = [], start
        while True:
            ci, s = cur
            if s == 2:
                raise ClassificationError(
                    f"strand enters the under-strand of crossing {ci} at slot 2")
            out = (ci, (s + 2) % 4)
            walk.append(cur)
            seen.update((cur, out))
            cur = mate_of(d, occ, out)
            if cur == start:
                break
        walks.append(tuple(walk))
    return tuple(walks)


def seifert_partition_by_union_find(d):
    """`diagram.seifert_circle_partition` by a union-find over the 2n arcs,
    joined through the corners the oriented smoothing passes."""
    from knotcert.diagram import orient
    from knotcert.lattice import connected_classes

    over_in_slot = orient(d).over_in_slot
    pairs = []
    for ci, c in enumerate(d.crossings):
        if over_in_slot[ci] == 3:
            pairs += [(c[0], c[1]), (c[3], c[2])]
        else:
            pairs += [(c[0], c[3]), (c[1], c[2])]
    labels = connected_classes(2 * d.n, ((x - 1, y - 1) for x, y in pairs))
    groups: dict[int, set[int]] = {}
    for a, label in enumerate(labels, 1):
        groups.setdefault(label, set()).add(a)
    return frozenset(frozenset(g) for g in groups.values())


def laurent_det_leibniz(m):
    """Determinant of a dense square matrix of Laurent entries {exponent:
    coefficient} by the Leibniz expansion over all permutations, as a dict
    {exponent: coefficient} without zeros."""
    import itertools

    out = {}
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = {0: -1 if inversions % 2 else 1}
        for row, j in zip(m, perm):
            prod = {}
            for a, x in term.items():
                for b, y in row[j].items():
                    prod[a + b] = prod.get(a + b, 0) + x * y
            term = prod
        for a, x in term.items():
            out[a] = out.get(a, 0) + x
    return {a: x for a, x in out.items() if x}


def fox_matrix_dense(d):
    """The dense n x n Fox matrix of the Wirtinger presentation of a knot
    diagram, entries {exponent: coefficient} without zeros: row c holds the
    Fox derivatives of crossing c's relation by the overstrands."""
    from knotcert.invariants import _FOX_ROW
    from knotcert.diagram import orient
    from knotcert.lattice import connected_classes

    n = d.n
    col = connected_classes(2 * n, ((c[1] - 1, c[3] - 1) for c in d.crossings))
    assert max(col, default=-1) + 1 == n
    m = [[[0, 0] for _ in range(n)] for _ in range(n)]
    for ci, c in enumerate(d.crossings):
        for arc, (c0, c1) in zip((c[1], c[0], c[2]), _FOX_ROW[orient(d).signs[ci]]):
            entry = m[ci][col[arc - 1]]
            entry[0] += c0
            entry[1] += c1
    return [[{k: x for k, x in enumerate(e) if x} for e in row] for row in m]


def alexander_dense_wirtinger(d):
    """Alexander polynomial from the dense (n-1)x(n-1) Fox matrix of the
    Wirtinger presentation (last row and column deleted), one determinant per
    interpolation point."""
    from knotcert.invariants import LaurentPolynomial, _normalize_alexander
    from knotcert.lattice import det_int

    if d.n <= 1:
        return LaurentPolynomial.from_string("1")
    size = d.n - 1
    rows = [row[:size] for row in fox_matrix_dense(d)[:size]]
    xs = list(range(2, 2 + size + 1))
    ys = [det_int([[sum(c * x ** k for k, c in e.items()) for e in row] for row in rows])
          for x in xs]
    coeffs = interpolate_int_poly(xs, ys)
    raw = LaurentPolynomial.from_dict(dict(enumerate(coeffs)))
    return _normalize_alexander(raw, "dense wirtinger")


def alexander_dense_seifert(d):
    """Alexander polynomial det(t V - V^T) of a special diagram from its dense
    Seifert matrix V, one determinant per interpolation point."""
    from knotcert.invariants import (
        LaurentPolynomial,
        _normalize_alexander,
        seifert_matrix_special,
    )
    from knotcert.lattice import det_int

    v = seifert_matrix_special(d)
    xs = list(range(2, 2 + len(v) + 1))
    ys = [
        det_int([[x * a - b for a, b in zip(row, col)] for row, col in zip(v, zip(*v))])
        for x in xs
    ]
    raw = LaurentPolynomial.from_dict(dict(enumerate(interpolate_int_poly(xs, ys))))
    return _normalize_alexander(raw, "dense seifert")


def goeritz_by_corner_pairs(d, color):
    """The reduced Goeritz matrix read straight off the checkerboard corners.

    Vertices are the faces of `color` in face order; the face owning
    half-edge (c, s) sits at corner (s - 1) mod 4 of crossing c.  Each
    crossing where those faces sit in the corner pair (0, 2) counts +1, in
    (1, 3) counts -1; off-diagonal entries are minus those counts, diagonal
    entries make rows sum to zero, and the last face's row and column are
    dropped.
    """
    from knotcert.diagram import checkerboard

    faces = checkerboard(d)[color]
    at = {(ci, (s - 1) % 4): v for v, face in enumerate(faces) for ci, s in face}
    m = len(faces)
    full = [[0] * m for _ in range(m)]
    for ci in range(d.n):
        pair = (0, 2) if (ci, 0) in at else (1, 3)
        u, v = at[(ci, pair[0])], at[(ci, pair[1])]
        eta = 1 if pair == (0, 2) else -1
        if u != v:
            full[u][v] -= eta
            full[v][u] -= eta
    for i in range(m):
        full[i][i] = -sum(full[i][j] for j in range(m) if j != i)
    return tuple(tuple(row[: m - 1]) for row in full[: m - 1])


def cycles_through(g, walks) -> list[list[tuple[int, int]]]:
    """Per edge, the (cycle, direction) pairs of the cycles using it, in
    cycle order."""
    through: list[list[tuple[int, int]]] = [[] for _ in range(g.num_edges)]
    for i, walk in enumerate(walks):
        for e, s in walk:
            through[e].append((i, s))
    return through


def _chord_cross_sign(n_slots: int, a1: int, b1: int, a2: int, b2: int) -> int:
    """0 if the chords a1->b1 and a2->b2 of a circle with n_slots marked
    points do not interleave; otherwise +1 when the counterclockwise order
    is a1, a2, b1, b2 and -1 when it is a1, b2, b1, a2."""
    rel = lambda x: (x - a1) % n_slots
    u, p, q = rel(b1), rel(a2), rel(b2)
    if (p < u) == (q < u):
        return 0
    return 1 if p < u else -1


def seifert_disk_classes(d, g):
    """Each disk's class (a vertex of the orientable color's Tait graph g):
    0 when its boundary runs with the knot at its first half-edge as disk
    0's does, else 1.  A face leaves half-edge (c, s) along the arc there,
    which points into c at slot 0 and at the over-strand's entry slot.
    InconsistencyError when a band joins two disks of one class."""
    from knotcert.diagram import checkerboard, classify_special, orient
    from knotcert.errors import InconsistencyError

    over_in_slot = orient(d).over_in_slot
    disks = checkerboard(d)[classify_special(d).orientable_color]
    runs_with = [s not in (0, over_in_slot[ci]) for ci, s in (disk[0] for disk in disks)]
    cls = [int(w != runs_with[0]) for w in runs_with]
    if any(cls[u] == cls[v] for u, v in g.edges):
        raise InconsistencyError("checkerboard graph of the orientable color is not bipartite")
    return cls


def seifert_matrix_chords(d):
    """Seifert matrix of a special diagram in the fundamental-cycle basis of
    the flow lattice of its orientable color's Tait graph, by counting the
    crossings of the basis curves and their pushoffs.

    For basis curves x_i, x_j the linking number of pushoffs decomposes into a
    band part (one term per shared band, -sign(crossing) per coincidence) and
    a disk part (chord crossings inside each disk, signed by the disk's class
    in the bipartition); V is half of (band part + disk part), which is
    integral exactly when the diagram is special.
    """
    from knotcert.diagram import orient
    from knotcert.tait import fundamental_cycles, orientable_tait_graph

    g = orientable_tait_graph(d)
    walks = fundamental_cycles(g)
    r = len(walks)
    if r == 0:
        return ()
    signs = orient(d).signs
    cls = seifert_disk_classes(d, g)
    users = cycles_through(g, walks)

    # Band part: crossings shared by two basis curves.
    band = [[0] * r for _ in range(r)]
    for sign, cycles in zip(signs, users):
        for i, si in cycles:
            for j, sj in cycles:
                band[i][j] -= sign * si * sj

    # Disk part: inside each disk the basis curves appear as chords between
    # band attachment slots.  Slots are ordered by the rotation system, with
    # the curves using an edge fanned out in basis order at both ends.
    slot_pos: list[dict[tuple[int, int], int]] = []
    slot_count: list[int] = []
    for v in range(g.num_vertices):
        pos: dict[tuple[int, int], int] = {}
        k = 0
        for (e, _end) in g.rotations[v]:
            for cyc, _ in users[e]:
                pos[(e, cyc)] = k
                k += 1
        slot_pos.append(pos)
        slot_count.append(k)

    legs: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(g.num_vertices)}
    for i, walk in enumerate(walks):
        for j, (e_in, s_in) in enumerate(walk):
            e_out, _s_out = walk[(j + 1) % len(walk)]
            u, v = g.edges[e_in]
            at = v if s_in == 1 else u
            legs[at].append((i, slot_pos[at][(e_in, i)], slot_pos[at][(e_out, i)]))

    disk = [[0] * r for _ in range(r)]
    for v in range(g.num_vertices):
        eps = 1 if cls[v] == 0 else -1
        here = legs[v]
        for a in range(len(here)):
            i, a1, b1 = here[a]
            for b in range(a + 1, len(here)):
                j, a2, b2 = here[b]
                if i != j:
                    s = _chord_cross_sign(slot_count[v], a1, b1, a2, b2)
                    disk[i][j] += eps * s
                    disk[j][i] -= eps * s

    total = [[b + k for b, k in zip(brow, krow)] for brow, krow in zip(band, disk)]
    assert all(x % 2 == 0 for row in total for x in row), "odd linking count"
    return tuple(tuple(x // 2 for x in row) for row in total)


def face_vectors(d):
    """The face basis of `seifert_matrix_special`: the faces of the color
    other than the orientable one, but the one with the most half-edges (the
    first on a tie), each as its boundary cycle {crossing: +-1} over the
    orientable Tait graph's edges.  Half-edge (c, s) counts +1 when it sits
    at the corner just counterclockwise of end 0 of edge c, else -1; an
    edge run along both ways cancels."""
    from knotcert.diagram import checkerboard, classify_special
    from knotcert.tait import orientable_tait_graph

    g = orientable_tait_graph(d)
    faces = checkerboard(d)[1 - classify_special(d).orientable_color]
    drop = max(range(len(faces)), key=lambda f: len(faces[f]))
    vectors = []
    for f, face in enumerate(faces):
        if f != drop:
            x: dict[int, int] = {}
            for c, s in face:
                ccw = 1 if g.edge_signs[c] == 1 else 2
                x[c] = x.get(c, 0) + (1 if (s - 1) % 4 == ccw else -1)
            vectors.append({c: v for c, v in x.items() if v})
    return vectors


def total_rank(table) -> int:
    """The total rank of an `HfkTable`: |Delta(-1)|, the determinant, for a
    thin knot."""
    return sum(r for _, _, r in table.entries)


def euler_characteristic(table):
    """The graded Euler characteristic of an `HfkTable`, sum over gradings of
    (-1)^maslov rank t^alexander: Delta for a thin knot."""
    coeffs: dict[int, int] = {}
    for a, m, r in table.entries:
        sign = -1 if m % 2 else 1
        coeffs[a] = coeffs.get(a, 0) + sign * r
    return LaurentPolynomial.from_dict(coeffs)


class CorpusEntry(NamedTuple):
    """One row of the bundled corpus, its stored values parsed."""

    name: str
    pd: str
    sigma: int
    det: int
    alexander: LaurentPolynomial
    genus: int


def load_corpus() -> tuple[CorpusEntry, ...]:
    """The bundled corpus, read by `corpus_rows` and `row_values` as `batch`
    reads it."""
    entries = []
    for row in corpus_rows(BUNDLED):
        pd, stored = row_values(row)
        entries.append(CorpusEntry(row["name"], pd, **{c: v for c, _, v in stored}))
    return tuple(entries)


def corpus_entry(name: str) -> CorpusEntry:
    for e in load_corpus():
        if e.name == name:
            return e
    raise KeyError(name)
