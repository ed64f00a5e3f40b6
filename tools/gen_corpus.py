"""Regenerate src/knotcert/data/corpus.csv.

Every reduced alternating diagram is the medial of a loopless bridgeless
connected plane multigraph (its checkerboard graph), and a diagram with at
most 9 crossings has a checkerboard graph with at most 5 vertices on one of
the two sides (vertices + faces = crossings + 2 <= 11, and the two sides give
mirror knots).  So: enumerate those multigraphs up to isomorphism, take the
medial of each, keep the knots (one link component), dedupe by
(crossings, signature, determinant, Alexander polynomial), and mirror every
diagram whose signature came out positive so the stored chirality is
consistent.

Kept entries: all special alternating knots found (<= 9 crossings), the
non-special alternating knots with <= 6 crossings, and the 0-crossing unknot.
Named with standard table names where the invariants identify them, composite
sums by their factor names.

Run from the repository root:  python3 tools/gen_corpus.py
"""

from __future__ import annotations

import csv
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from helpers import plane_graph_from_multigraph  # noqa: E402

from knotcert.diagram import connected_sum_factors, mirror_diagram  # noqa: E402
from knotcert.invariants import invariant_bundle  # noqa: E402
from knotcert.lattice import connected_classes  # noqa: E402
from knotcert.medial import medial_diagram  # noqa: E402

MAX_VERTICES = 5
MAX_EDGES = 9

# standard table names for the prime entries, keyed by
# (crossings, determinant, genus); composites are named from their factors
PRIME_NAMES = {
    (3, 3, 1): "3_1",
    (4, 5, 1): "4_1",
    (5, 5, 2): "5_1",
    (5, 7, 1): "5_2",
    (6, 9, 1): "6_1",
    (6, 11, 2): "6_2",
    (6, 13, 2): "6_3",
    (7, 7, 3): "7_1",
    (7, 11, 1): "7_2",
    (7, 13, 2): "7_3",
    (7, 15, 1): "7_4",
    (7, 17, 2): "7_5",
    (8, 33, 2): "8_15",
    (9, 9, 4): "9_1",
    (9, 15, 1): "9_2",
    (9, 19, 3): "9_3",
    (9, 21, 2): "9_4",
    (9, 23, 1): "9_5",
    (9, 27, 3): "9_6",
    (9, 29, 2): "9_7",
    (9, 31, 3): "9_9",
    (9, 33, 2): "9_10",
    (9, 37, 2): "9_13",
    (9, 39, 3): "9_16",
    (9, 41, 2): "9_18",
    (9, 45, 2): "9_23",
    (9, 27, 1): "9_35",
    (9, 57, 2): "9_38",
}


def base_graphs(n: int):
    """Connected simple graphs on vertices 0..n-1 using all n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for r in range(n - 1, len(pairs) + 1):
        for subset in itertools.combinations(pairs, r):
            if _connected(n, subset):
                yield subset


def _connected(n: int, edges) -> bool:
    return max(connected_classes(n, edges), default=0) == 0


def _bridges(n: int, edges) -> set[int]:
    """Indices of bridge edges in a simple graph (edges distinct pairs)."""
    out = set()
    for i in range(len(edges)):
        rest = edges[:i] + edges[i + 1 :]
        if not _connected(n, rest):
            out.add(i)
    return out


def canonical_multigraph(n: int, edges) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or key < best:
            best = key
    return (n, best)


def enumerate_multigraphs():
    seen = set()
    for n in range(2, MAX_VERTICES + 1):
        for base in base_graphs(n):
            k = len(base)
            if k > MAX_EDGES:
                continue
            bridges = _bridges(n, list(base))
            # multiplicity >= 2 on every bridge keeps the multigraph bridgeless
            ranges = [
                range(2 if i in bridges else 1, MAX_EDGES - k + 2)
                for i in range(k)
            ]
            for mult in itertools.product(*ranges):
                if sum(mult) > MAX_EDGES:
                    continue
                edges = []
                for (u, v), m in zip(base, mult):
                    edges.extend([(u, v)] * m)
                key = canonical_multigraph(n, edges)
                if key in seen:
                    continue
                seen.add(key)
                yield n, edges


def alexander_key(poly) -> tuple:
    return poly.coeffs


def main() -> None:
    rows = {}
    graphs = 0
    for n, edges in enumerate_multigraphs():
        graphs += 1
        g = plane_graph_from_multigraph(n, edges)
        if g is None:
            raise RuntimeError(f"no planar embedding for {n} {edges}")
        d, comps = medial_diagram(g, -1)
        if comps != 1:
            continue
        b = invariant_bundle(d)
        if b.signature > 0:
            d = mirror_diagram(d)
            b = invariant_bundle(d)
        special = b.speciality.is_special and b.speciality.is_alternating
        if not special and d.n > 6:
            continue
        key = (d.n, b.signature, b.determinant, alexander_key(b.alexander))
        if key in rows:
            continue
        nfac = len(connected_sum_factors(d))
        rows[key] = (d, b, special, nfac)

    named = []
    for (nc, sig, det, _ak), (d, b, special, nfac) in rows.items():
        if nc == 0:
            continue
        if nfac > 1:
            parts = []
            for f in connected_sum_factors(d):
                fb = invariant_bundle(f)
                base = PRIME_NAMES.get((f.n, fb.determinant, fb.genus))
                if base is None:
                    base = f"p{f.n}_{fb.determinant}_{fb.genus}"
                if fb.signature > 0:
                    base = "m" + base
                parts.append((f.n, fb.determinant, base))
            name = "#".join(p[2] for p in sorted(parts))
        else:
            name = PRIME_NAMES.get((nc, det, b.genus))
            if name is None:
                name = f"k{nc}_{det}_{b.genus}"
        named.append((nc, det, b.genus, name, d, b, special))

    named.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    out = ROOT / "src" / "knotcert" / "data" / "corpus.csv"
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "pd", "sigma", "det", "alexander", "genus"])
        w.writerow(["0_1", "", 0, 1, "1", 0])
        for nc, det, genus, name, d, b, special in named:
            w.writerow([name, d.pd_text(), b.signature, det, str(b.alexander), genus])

    n_special = sum(1 for r in named if r[6])
    n_other = len(named) - n_special
    n_comp = sum(1 for r in named if "#" in r[3])
    print(f"graphs examined: {graphs}")
    print(f"entries: {len(named) + 1} (unknot + {n_special} special + {n_other} non-special)")
    print(f"composite entries: {n_comp}")
    for nc, det, genus, name, d, b, special in named:
        tag = "S" if special else " "
        print(f"  {tag} {name:<14} n={nc} det={det} g={genus} sig={b.signature} "
              f"lc={b.leading_coefficient} alex={b.alexander}")


if __name__ == "__main__":
    main()
