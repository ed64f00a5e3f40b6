"""Acceptance checks, one test per numbered criterion.

Each test prints a single `criterion N: PASS -- ...` line on success (visible
with `pytest -s` or in the verbose test listing via the test names).  All
arithmetic is exact; no tolerances anywhere.
"""

import itertools
import random
import time

from helpers import (
    block_partition_oracle,
    congruent_scramble,
    corpus_entry,
    euler_characteristic,
    isometric,
    load_corpus,
    random_draws,
    spanning_tree_count,
    total_rank,
)
from test_tait import make_tait

from knotcert.diagram import (
    classify_special,
    mirror_diagram,
    parse_pd,
)
from knotcert.hfk import thin_hfk
from knotcert.invariants import (
    alexander_via_seifert,
    alexander_via_wirtinger,
    goeritz_matrix,
    invariant_bundle,
    seifert_matrix_special,
)
from knotcert.lattice import (
    GramForm,
    congruence,
    definiteness,
    det_int,
    indecomposable_summands,
)
from knotcert.obstruct import band_prime_certificate, minimality_evidence
from knotcert.tait import flow_lattice, tait_graph

CORPUS = load_corpus()


def _is_special(d):
    rep = classify_special(d)
    return rep.is_special and rep.is_alternating, rep


SPECIALS = []
NON_SPECIALS = []
for _e in CORPUS:
    _d = parse_pd(_e.pd)
    _sp, _rep = _is_special(_d)
    if _e.pd and _sp:
        SPECIALS.append((_e, _d, _rep))
    elif _e.pd:
        NON_SPECIALS.append((_e, _d, _rep))


def test_criterion_1_seifert_form_isometric_to_flow_lattice():
    """Symmetrized Seifert form, up to sign, is isometric to the flow lattice
    of the orientable-color checkerboard graph, with an explicit verified
    witness, for every special alternating corpus diagram, in under 60 s.
    The flow Gram is scrambled by a random change of basis first so the
    isometry search cannot succeed by construction."""
    rng = random.Random(11)
    t0 = time.time()
    for e, d, rep in SPECIALS:
        v = seifert_matrix_special(d)
        n = len(v)
        sym = tuple(
            tuple(v[i][j] + v[j][i] for j in range(n)) for i in range(n)
        )
        g = tait_graph(d, rep.orientable_color)
        gram = flow_lattice(g)
        scrambled, _u = congruent_scramble(gram.matrix, rng)
        target = GramForm(scrambled)
        # "up to sign": exactly one of +-(V + V^T) is positive definite
        neg = tuple(tuple(-x for x in row) for row in sym)
        q = GramForm(sym) if definiteness(GramForm(sym)) == "positive_definite" else GramForm(neg)
        assert definiteness(q) == "positive_definite", e.name
        ok, wit = isometric(q, target)
        assert ok, e.name
        rebuilt = tuple(tuple(row) for row in congruence(wit, q.matrix))
        assert rebuilt == target.matrix, e.name
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        f"criterion 1: PASS -- {len(SPECIALS)} special diagrams, witnessed "
        f"isometry after scramble, {elapsed:.1f}s"
    )


def test_criterion_2_summands_match_positive_rank_blocks():
    """>= 1000 random connected planar multigraphs with <= 10 edges: the
    number of indecomposable flow-lattice summands after a random unimodular
    scramble equals the number of blocks of positive cycle rank (networkx
    block oracle), in 100% of cases."""
    rng = random.Random(20240809)
    done = 0
    for n, edges, *_ in itertools.islice(random_draws(rng, 10, stage="plane"), 1000):
        g = make_tait(n, edges)
        gram = flow_lattice(g)
        if gram.rank == 0:
            # no cycles: zero summands, every block is a bridge
            blocks = block_partition_oracle(n, edges)
            positive = sum(
                1
                for b in blocks
                if len(b) - len({v for ei in b for v in edges[ei]}) + 1 > 0
            )
            assert positive == 0, (n, edges)
            done += 1
            continue
        scrambled, _u = congruent_scramble(gram.matrix, rng)
        dec = indecomposable_summands(GramForm(scrambled))
        blocks = block_partition_oracle(n, edges)
        positive = sum(
            1
            for b in blocks
            if len(b) - len({v for ei in b for v in edges[ei]}) + 1 > 0
        )
        assert len(dec.summands) == positive, (n, edges)
        done += 1
    print(f"criterion 2: PASS -- {done} random planar multigraphs, 100% match")


def test_criterion_3_signature_genus_span_identity():
    """|sigma| = 2*genus = span(alexander) on every special corpus entry; the
    identity fails on every non-special alternating corpus entry (all of
    which have sigma != +-2*genus, e.g. figure-eight 0 != 2)."""
    for e, d, _rep in SPECIALS:
        b = invariant_bundle(d)
        assert abs(b.signature) == 2 * b.genus == b.alexander.span(), e.name
    for e, d, _rep in NON_SPECIALS:
        b = invariant_bundle(d)
        assert abs(b.signature) != 2 * b.genus, e.name
    f8 = invariant_bundle(parse_pd(corpus_entry("4_1").pd))
    assert (abs(f8.signature), 2 * f8.genus) == (0, 2)
    print(
        f"criterion 3: PASS -- identity holds on {len(SPECIALS)} specials, "
        f"fails on {len(NON_SPECIALS)} non-specials"
    )


def test_criterion_4_hfk_rank_and_euler():
    """Total HFK rank = determinant and graded Euler characteristic = Delta
    for every corpus alternating knot (all corpus entries are alternating)."""
    for e in CORPUS:
        b = invariant_bundle(parse_pd(e.pd))
        table = thin_hfk(b.alexander, b.signature)
        assert total_rank(table) == b.determinant, e.name
        assert euler_characteristic(table) == b.alexander, e.name
    print(f"criterion 4: PASS -- {len(CORPUS)} corpus entries, rank=det and Euler=Delta")


def test_criterion_5_band_primeness_certified_for_all_specials():
    """band_prime_certificate certifies 100% of special alternating corpus
    entries, including the composite ones; the granny knot splits into two
    factors, each flow lattice isometric to [[2,1],[1,2]] with signature -2."""
    certified = 0
    for e, d, _rep in SPECIALS:
        rep = band_prime_certificate(d)
        assert rep.verdict == "band_prime_certified", (e.name, rep.notes)
        certified += 1
    unknot = band_prime_certificate(parse_pd(corpus_entry("0_1").pd))
    assert unknot.verdict == "band_prime_certified"

    granny = band_prime_certificate(parse_pd(corpus_entry("3_1#3_1").pd))
    assert granny.verdict == "band_prime_certified"
    assert len(granny.factors) == 2
    a2 = GramForm(((2, 1), (1, 2)))
    for f in granny.factors:
        ok, _w = isometric(f.gram, a2)
        assert ok
        assert f.signature == -2 != 0
    print(f"criterion 5: PASS -- {certified}/{len(SPECIALS)} specials certified, granny 2xA2")


def test_criterion_6_minimality_dispatch():
    """Trefoil certified minimal via fiberedness; 5_2 via prime-power leading
    coefficient 2; 9_5 (leading coefficient 6, non-monic) is evidence_only
    without the two-bridge assertion."""
    tre = minimality_evidence(parse_pd(corpus_entry("3_1").pd))
    assert tre.verdict == "minimal_certified" and tre.bundle.fibered is True

    five2 = minimality_evidence(parse_pd(corpus_entry("5_2").pd))
    assert five2.verdict == "minimal_certified"
    assert five2.bundle.fibered is False and five2.prime_power_leading
    assert abs(five2.bundle.leading_coefficient) == 2

    nine5 = minimality_evidence(parse_pd(corpus_entry("9_5").pd))
    assert nine5.verdict == "evidence_only"
    assert abs(nine5.bundle.leading_coefficient) == 6
    assert not nine5.prime_power_leading and nine5.bundle.fibered is False
    asserted = minimality_evidence(parse_pd(corpus_entry("9_5").pd), assert_two_bridge=True)
    assert asserted.verdict == "minimal_certified"
    print("criterion 6: PASS -- trefoil fibered, 5_2 prime-power, 9_5 evidence_only")


def test_criterion_7_oracle_equivalence():
    """(a) both Alexander backends agree on every special corpus diagram;
    (b) |det Goeritz| = |Delta(-1)| for both colors on every corpus diagram;
    (c) brute-force spanning-tree count = det(flow lattice) for every
    connected multigraph (loops allowed) on <= 4 vertices with <= 8 edges."""
    for e, d, _rep in SPECIALS:
        assert alexander_via_seifert(d) == alexander_via_wirtinger(d), e.name

    for e in CORPUS:
        d = parse_pd(e.pd)
        b = invariant_bundle(d)
        at_minus1 = abs(int(b.alexander(-1)))
        for color in (0, 1):
            gm = goeritz_matrix(d, color)
            assert abs(det_int(gm.matrix)) == at_minus1, (e.name, color)

    checked = 0
    seen = set()
    for n in range(1, 5):
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        for k in range(1, 9):
            for combo in itertools.combinations_with_replacement(slots, k):
                edges = list(combo)
                verts = {v for uv in edges for v in uv}
                if len(verts) != n or not _connected(n, edges):
                    continue
                key = min(
                    tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                    for p in itertools.permutations(range(n))
                )
                if (n, key) in seen:
                    continue
                seen.add((n, key))
                gram = flow_lattice(make_tait(n, edges))
                assert det_int(gram.matrix) == spanning_tree_count(n, edges), (n, edges)
                checked += 1
    assert checked >= 1000
    print(
        f"criterion 7: PASS -- backends agree, Goeritz dets match, "
        f"Kirchhoff on {checked} graphs"
    )


def _connected(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def test_criterion_8_mirror_behavior():
    """Mirroring every corpus diagram negates sigma and preserves det,
    span(Delta), genus, and the band-primeness verdict."""
    for e in CORPUS:
        d = parse_pd(e.pd)
        m = mirror_diagram(d)
        b = invariant_bundle(d)
        mb = invariant_bundle(m)
        assert mb.signature == -b.signature, e.name
        assert mb.determinant == b.determinant, e.name
        assert mb.alexander.span() == b.alexander.span(), e.name
        assert mb.genus == b.genus, e.name
        assert (
            band_prime_certificate(m).verdict
            == band_prime_certificate(d).verdict
        ), e.name
    print(f"criterion 8: PASS -- {len(CORPUS)} diagrams mirrored, all invariants behaved")
