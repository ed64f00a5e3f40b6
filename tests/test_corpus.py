"""The bundled corpus: shape, naming, and stored-vs-recomputed invariants."""

import os

from helpers import corpus_entry, load_corpus
from knotcert import cli
from knotcert.corpus import row_values
from knotcert.diagram import classify_special, connected_sum_factors, parse_pd
from knotcert.invariants import invariant_bundle

CORPUS = load_corpus()


def _special(e):
    rep = classify_special(parse_pd(e.pd))
    return rep.is_special and rep.is_alternating


def test_corpus_shape():
    assert len(CORPUS) == 34
    names = [e.name for e in CORPUS]
    assert len(set(names)) == len(names)
    assert names[0] == "0_1"
    specials = [e for e in CORPUS if e.pd and _special(e)]
    assert len(specials) == 28
    composites = [e for e in CORPUS if "#" in e.name]
    assert sorted(e.name for e in composites) == [
        "3_1#3_1", "3_1#3_1#3_1", "3_1#5_1", "3_1#5_2", "3_1#m3_1",
    ]
    non_special = sorted(e.name for e in CORPUS if e.pd and not _special(e))
    assert non_special == ["3_1#m3_1", "4_1", "6_1", "6_2", "6_3"]


def test_expected_prime_names_present():
    names = {e.name for e in CORPUS}
    for expected in [
        "3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3",
        "7_1", "7_2", "7_3", "7_4", "7_5", "8_15",
        "9_1", "9_2", "9_3", "9_4", "9_5", "9_6", "9_7", "9_9", "9_10",
        "9_13", "9_16", "9_18", "9_23", "9_35", "9_38",
    ]:
        assert expected in names, expected


def test_anchor_values():
    e = corpus_entry("3_1")
    assert (e.sigma, e.det, e.genus) == (-2, 3, 1)
    assert str(e.alexander) == "t - 1 + t^-1"
    e = corpus_entry("4_1")
    assert (e.sigma, e.det, e.genus) == (0, 5, 1)
    e = corpus_entry("5_2")
    assert (e.sigma, e.det, e.genus) == (-2, 7, 1)
    assert e.alexander.leading_coefficient() == 2
    e = corpus_entry("9_5")
    assert (e.det, e.alexander.leading_coefficient()) == (23, 6)
    e = corpus_entry("3_1#3_1")
    assert (e.sigma, e.det, e.genus) == (-4, 9, 2)


def test_stored_invariants_match_recomputation():
    for e in CORPUS:
        b = invariant_bundle(parse_pd(e.pd))
        assert b.signature == e.sigma, e.name
        assert b.determinant == e.det, e.name
        assert b.alexander == e.alexander, e.name
        assert b.genus == e.genus, e.name
        assert b.genus_is_exact, e.name


def test_chirality_normalized_and_reduced():
    for e in CORPUS:
        assert e.sigma <= 0, e.name
        d = parse_pd(e.pd)
        # reduced: every factor of every diagram has its crossing count
        # preserved, and 1-crossing (kink) factors never appear
        if d.n:
            for f in connected_sum_factors(d):
                assert f.n >= 3, e.name


def test_composite_factor_counts():
    assert len(connected_sum_factors(parse_pd(corpus_entry("3_1#3_1").pd))) == 2
    assert len(connected_sum_factors(parse_pd(corpus_entry("3_1#3_1#3_1").pd))) == 3
    assert len(connected_sum_factors(parse_pd(corpus_entry("9_5").pd))) == 1


def test_batch_bundled_reads_what_load_corpus_reads(monkeypatch, capsys):
    """`batch bundled` reads the names, PD codes and stored values that
    `load_corpus()` holds, in its order."""
    seen = []

    def recorded(row):
        pd, stored = row_values(row)
        seen.append((row["name"], pd, {attr: value for _, attr, value in stored}))
        return pd, stored

    monkeypatch.setattr(cli, "row_values", recorded)
    # one CPU, so one process: a spy sees only the rows of its own process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.main(["batch", "bundled", "--json"]) == 0
    capsys.readouterr()
    assert seen == [
        (e.name, e.pd, {"signature": e.sigma, "determinant": e.det,
                        "alexander": e.alexander, "genus": e.genus})
        for e in CORPUS
    ]
