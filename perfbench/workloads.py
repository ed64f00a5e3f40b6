"""Seeded workload generators and the output oracle.

Every input is built here, before any timed child starts, from the seed alone.
The expected values attached to each op are derived here too, in plain integer
arithmetic on the generating plane graph or on the stored corpus columns; the
oracle never calls knotcert.  Only `knotcert.medial.PlaneGraph` and
`medial_diagram` are used, to turn a generated graph into PD text.
"""

from __future__ import annotations

import csv
import json
import random
import re
from collections import Counter
from pathlib import Path

from knotcert.medial import PlaneGraph, medial_diagram

# Each workload: the rank cap passed on every op and the generator parameters
# (BENCHMARK.json says why each workload exists).  Pinning the cap keeps a
# later change to the library's default from silently turning refusals into
# certificates.  corpus-batch refuses T(2,17) twice, so that its
# refusal_p50_s, the median op, is the mean of two.  rank-ladder is not listed
# in BENCHMARK.json: its 8-11 s passes leave too few passes per run to be
# steady on a shared host, so it serves traced runs (where lattice dominates)
# and manual comparisons.
WORKLOADS = {
    "corpus-batch": {
        "rank_cap": 12,
        "params": {"copies_per_entry": 4, "refused_torus_k": [15, 17, 17, 19]},
    },
    "rank-ladder": {
        "rank_cap": 16,
        "params": {
            "torus_k": [9, 11, 13, 15, 17],
            "random_ranks": [6, 6, 8, 8, 10, 10],
            "random_subdivisions": 4,
            "random_max_edge_girth": 4,
            "refused_torus_k": [19, 21, 23],
        },
    },
    "wide-diagrams": {
        "rank_cap": 12,
        "params": {
            "necklaces": [[3, 25], [5, 29], [3, 33], [7, 37], [5, 41]],
            "refused_torus_k": [21, 23, 25],
        },
    },
}

_CROSSING = re.compile(r"X\((\d+),(\d+),(\d+),(\d+)\)")


def relabel(pd: str, rng: random.Random) -> str:
    """Cyclic arc relabeling a -> (a-1+s) mod 2n + 1 plus a seeded crossing order.

    Both describe the same diagram, so stored invariants stay valid, but the
    Diagram and Tait-graph keys the library caches on change.
    """
    crossings = [tuple(map(int, m)) for m in _CROSSING.findall(pd)]
    if not crossings:
        return pd
    arcs = 2 * len(crossings)
    s = rng.randrange(arcs)
    crossings = [tuple((a - 1 + s) % arcs + 1 for a in c) for c in crossings]
    rng.shuffle(crossings)
    return " ".join("X(%d,%d,%d,%d)" % c for c in crossings)


# ---------------------------------------------------------------------------
# plane graph generators


def theta(k: int) -> PlaneGraph:
    """Two vertices joined by k parallel edges; its medial is T(2,k)."""
    return PlaneGraph(
        tuple((0, 1) for _ in range(k)),
        (tuple((e, 0) for e in range(k)), tuple((e, 1) for e in reversed(range(k)))),
    )


def necklace(sides: list[int]) -> PlaneGraph:
    """A cycle whose i-th side is a bundle of sides[i] parallel edges."""
    m = len(sides)
    edges: list[tuple[int, int]] = []
    bundles = []
    for i, p in enumerate(sides):
        bundles.append(range(len(edges), len(edges) + p))
        edges.extend((i, (i + 1) % m) for _ in range(p))
    rotations = tuple(
        tuple((e, 0) for e in bundles[i]) + tuple((e, 1) for e in reversed(bundles[i - 1]))
        for i in range(m)
    )
    return PlaneGraph(tuple(edges), rotations)


def grow_bipartite(rng: random.Random, rank: int, subdivisions: int) -> PlaneGraph:
    """A 2-connected bipartite plane multigraph grown from a digon.

    Parallel-edge insertion raises the cycle rank by one; length-3
    subdivision keeps it and keeps every cycle even.
    """
    edges = [[0, 1], [0, 1]]
    rot = [[(0, 0), (1, 0)], [(1, 1), (0, 1)]]
    ops = ["parallel"] * (rank - 1) + ["subdivide"] * subdivisions
    rng.shuffle(ops)
    for op in ops:
        e = rng.randrange(len(edges))
        u, v = edges[e]
        if op == "parallel":
            f = len(edges)
            edges.append([u, v])
            rot[u].insert(rot[u].index((e, 0)) + 1, (f, 0))
            rot[v].insert(rot[v].index((e, 1)), (f, 1))
        else:
            a, b = len(rot), len(rot) + 1
            f, h = len(edges), len(edges) + 1
            edges[e] = [u, a]
            edges.extend(([a, b], [b, v]))
            rot[v][rot[v].index((e, 1))] = (h, 1)
            rot.extend(([(e, 1), (f, 0)], [(f, 1), (h, 0)]))
    return PlaneGraph(tuple(map(tuple, edges)), tuple(map(tuple, rot)))


def max_edge_girth(g: PlaneGraph) -> int:
    """Largest, over edges e, of the shortest cycle through e.

    Bounding it keeps the flow lattice's reduced basis short, which keeps the
    short-vector count (and the analysis time) of same-rank graphs close.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for ei, (u, v) in enumerate(g.edges):
        adj.setdefault(u, []).append((v, ei))
        adj.setdefault(v, []).append((u, ei))
    worst = 0
    for ei, (u, v) in enumerate(g.edges):
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for x in frontier:
                for y, ej in adj[x]:
                    if ej != ei and y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        worst = max(worst, dist[v] + 1)
    return worst


# ---------------------------------------------------------------------------
# oracle arithmetic (never calls knotcert)


def _det_bareiss(m: list[list[int]]) -> int:
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def spanning_trees(g: PlaneGraph) -> int:
    """Matrix-tree theorem: the knot determinant of the medial diagram."""
    n = g.num_vertices
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    return _det_bareiss([row[1:] for row in lap[1:]])


def _is_bipartite(g: PlaneGraph) -> bool:
    color = {0: 0}
    stack = [0]
    adj: dict[int, list[int]] = {}
    for u, v in g.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    while stack:
        x = stack.pop()
        for y in adj.get(x, ()):
            if y not in color:
                color[y] = 1 - color[x]
                stack.append(y)
            elif color[y] == color[x]:
                return False
    return True


def special_genus(g: PlaneGraph) -> int:
    """Half the cycle rank of whichever of g and its dual is bipartite.

    The dual of a plane graph is bipartite iff every vertex degree is even,
    and its cycle rank is then V - 1.
    """
    if _is_bipartite(g):
        return (g.num_edges - g.num_vertices + 1) // 2
    degree = Counter(w for e in g.edges for w in e)
    if all(d % 2 == 0 for d in degree.values()):
        return (g.num_vertices - 1) // 2
    raise ValueError("neither the graph nor its dual is bipartite")


def torus_alexander(k: int) -> dict[int, int]:
    h = (k - 1) // 2
    return {i: (-1) ** (i + h) for i in range(-h, h + 1)}


# ---------------------------------------------------------------------------
# workloads


def _graph_op(g: PlaneGraph, rng: random.Random, rank_cap: int, label: str,
              alexander: dict[int, int] | None = None) -> dict:
    d, components = medial_diagram(g, rng.choice((1, -1)))
    if components != 1:
        raise ValueError(f"{label}: medial has {components} components")
    genus = special_genus(g)
    refused = 2 * genus > rank_cap
    expect = {"exit": 3 if refused else 0}
    if not refused:
        expect.update(
            verdict="band_prime_certified",
            determinant=spanning_trees(g),
            genus=genus,
            alexander=alexander,
        )
    pd = relabel(d.pd_text(), rng)
    return {
        "label": label,
        "kind": "refusal" if refused else "verdict",
        "argv": ["analyze", "--pd", pd, "--json", "--rank-cap", str(rank_cap)],
        "pd": pd,
        "expect": expect,
    }


def _random_graph(rng: random.Random, rank: int, subdivisions: int, girth: int) -> PlaneGraph:
    while True:
        g = grow_bipartite(rng, rank, subdivisions)
        if max_edge_girth(g) <= girth and medial_diagram(g, 1)[1] == 1:
            return g


def _odd_parts(rng: random.Random, m: int, n: int) -> list[int]:
    """n split into m odd parts, each at least 3."""
    parts = [3] * m
    for _ in range((n - 3 * m) // 2):
        parts[rng.randrange(m)] += 2
    return parts


def corpus_rows(corpus_csv: Path, rng: random.Random, copies: int) -> list[dict]:
    """Seeded relabeled copies of every corpus row, with distinct PD texts.

    Each row keeps up to `copies` distinct texts (the 0-crossing unknot has
    only one).  The expected verdict is derived from the stored columns: for
    these alternating diagrams |sigma| = 2 genus holds exactly for the
    special ones, and those are certified.
    """
    with corpus_csv.open(newline="") as fh:
        base = list(csv.DictReader(fh))
    verdicts = Counter(
        "band_prime_certified" if abs(int(r["sigma"])) == 2 * int(r["genus"]) else "not_applicable"
        for r in base
    )
    if verdicts != Counter(band_prime_certified=29, not_applicable=5):
        raise ValueError(f"bundled corpus changed: base verdicts {dict(verdicts)}")
    out = []
    for r in base:
        texts: list[str] = []
        for _ in range(4 * copies):
            t = relabel(r["pd"], rng)
            if t not in texts:
                texts.append(t)
            if len(texts) == copies:
                break
        special = abs(int(r["sigma"])) == 2 * int(r["genus"])
        for j, t in enumerate(texts):
            out.append(
                dict(r, name=f"{r['name']}~{j}", pd=t,
                     expect="band_prime_certified" if special else "not_applicable")
            )
    return out


def build(workload: str, seed: int, corpus_csv: Path) -> dict:
    """The ops of one pass of `workload`, fixed by `seed`."""
    spec = WORKLOADS[workload]
    cap = spec["rank_cap"]
    p = spec["params"]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus-batch":
        rows = corpus_rows(corpus_csv, rng, p["copies_per_entry"])
        ops = [{"label": "batch", "kind": "batch", "rows": rows,
                "argv": ["batch", "{corpus}", "--json", "--out", "{out}", "--rank-cap", str(cap)]}]
    elif workload == "rank-ladder":
        ops = [_graph_op(theta(k), rng, cap, f"T(2,{k})", torus_alexander(k)) for k in p["torus_k"]]
        for i, rank in enumerate(p["random_ranks"]):
            g = _random_graph(rng, rank, p["random_subdivisions"], p["random_max_edge_girth"])
            ops.append(_graph_op(g, rng, cap, f"bipartite-r{rank}-{i}"))
    else:
        ops = []
        for m, n in p["necklaces"]:
            sides = _odd_parts(rng, m, n)
            ops.append(_graph_op(necklace(sides), rng, cap, f"necklace{sides}"))
    ops += [_graph_op(theta(k), rng, cap, f"T(2,{k})#{j}")
            for j, k in enumerate(p["refused_torus_k"])]
    pds = [r["pd"] for op in ops for r in op.get("rows", [op])]
    if len(set(pds)) != len(pds):
        raise ValueError("generated PD texts are not distinct")
    return {"workload": workload, "seed": seed, "rank_cap": cap, "params": p, "ops": ops}


# ---------------------------------------------------------------------------
# checking


def _json(text: str) -> dict:
    try:
        obj = json.loads(text)
    except ValueError:
        return {}
    return obj if isinstance(obj, dict) else {}


def _check_report(rep: dict, expect: dict) -> list[str]:
    if not rep:
        return ["no JSON report"]
    inv = rep.get("invariants") or {}
    verdict = (rep.get("band_primeness") or {}).get("verdict")
    bad = []
    if verdict != expect["verdict"]:
        bad.append(f"verdict {verdict!r}")
    if inv.get("determinant") != expect["determinant"]:
        bad.append(f"determinant {inv.get('determinant')} != {expect['determinant']}")
    if inv.get("genus") != expect["genus"]:
        bad.append(f"genus {inv.get('genus')} != {expect['genus']}")
    if not isinstance(inv.get("signature"), int) or abs(inv["signature"]) != 2 * expect["genus"]:
        bad.append(f"|signature| {inv.get('signature')} != 2 genus")
    if expect.get("alexander") is not None:
        got = {e: c for e, c in inv.get("alexander") or []}
        if got != expect["alexander"]:
            bad.append("alexander differs from the torus-knot closed form")
    return bad


def check_batch(op: dict, rc, stdout: str, outdir: Path) -> list[tuple[str, list[str]]]:
    """(row name, problems) for every corpus row of one batch op."""
    rows = op["rows"]
    summary = _json(stdout)
    whole = []
    if rc != 0:
        whole.append(f"exit status {rc}")
    want = Counter(r["expect"] for r in rows)
    if summary.get("counts") != dict(want) or summary.get("entries") != len(rows):
        whole.append(f"summary {summary.get('counts')} != {dict(want)}")
    out = []
    for r in rows:
        bad = list(whole)
        path = outdir / f"{r['name']}.json"
        rep = _json(path.read_text("utf-8")) if path.exists() else {}
        if not rep:
            bad.append("no report file")
        else:
            inv = rep.get("invariants") or {}
            if rep.get("status") != r["expect"]:
                bad.append(f"status {rep.get('status')!r} != {r['expect']!r}")
            for key, stored in (("determinant", "det"), ("genus", "genus")):
                if inv.get(key) != int(r[stored]):
                    bad.append(f"{key} {inv.get(key)} != stored {r[stored]}")
            if not isinstance(inv.get("signature"), int) or abs(inv["signature"]) != abs(int(r["sigma"])):
                bad.append(f"|signature| {inv.get('signature')} != stored |{r['sigma']}|")
        out.append((r["name"], bad))
    return out


def check_analyze(op: dict, rc, stdout: str) -> list[str]:
    expect = op["expect"]
    if rc != expect["exit"]:
        return [f"exit status {rc} != {expect['exit']}"]
    if expect["exit"] == 3:
        return ["refusal printed a report"] if stdout.strip() else []
    return _check_report(_json(stdout), expect)
