"""Seeded fuzz of `knotcert analyze`: random PD texts (mostly invalid, some
near-valid mutations of corpus diagrams) and medial diagrams of random plane
graphs.  Every input must end in a report or a documented error: only
KnotCertError subclasses may escape the library, and a diagram that parses
must never trigger an InconsistencyError (exit 1 of the CLI)."""

from __future__ import annotations

import itertools
import json
import random

import pytest

from helpers import (
    check_orientation,
    load_corpus,
    orientable_by_parity,
    random_draws,
)
from knotcert.cli import _analysis, _json_text
from knotcert.diagram import is_alternating, orient, parse_pd
from knotcert.errors import ClassificationError, InconsistencyError, KnotCertError


def _random_pd(rng: random.Random) -> str:
    n = rng.randint(1, 6)
    labels = [a for a in range(1, 2 * n + 1) for _ in (0, 1)]
    rng.shuffle(labels)
    return " ".join("X({},{},{},{})".format(*labels[4 * i: 4 * i + 4]) for i in range(n))


def _mutated_pd(rng: random.Random, crossings) -> str:
    """A corpus diagram with one crossing rotated, reversed or relabelled."""
    cs = [list(c) for c in crossings]
    c = rng.choice(cs)
    op = rng.randrange(3)
    if op == 0:
        k = rng.randint(1, 3)
        c[:] = c[k:] + c[:k]
    elif op == 1:
        c.reverse()
    else:
        i = rng.randrange(4)
        c[i] = rng.randint(1, 2 * len(cs))
    rng.shuffle(cs)
    return " ".join("X({},{},{},{})".format(*c) for c in cs)


def _outcome(text: str) -> str:
    try:
        d = parse_pd(text)
    except KnotCertError:
        return "rejected"
    try:
        rep, _bundle = _analysis(d, 6, False)
    except InconsistencyError as ex:
        raise AssertionError(f"inconsistency on valid diagram {text!r}: {ex}") from ex
    except KnotCertError:
        return "error"
    # the report writer gives json.dumps's bytes
    assert _json_text(rep) == json.dumps(rep, sort_keys=True, indent=2) + "\n"
    return "report"


def _fuzz_texts() -> list[str]:
    rng = random.Random(20261018)
    corpus = [parse_pd(e.pd).crossings for e in load_corpus() if e.pd]
    texts = [_random_pd(rng) for _ in range(250)]
    texts += [_mutated_pd(rng, rng.choice(corpus)) for _ in range(250)]
    texts += [draw.d.pd_text() for draw in itertools.islice(random_draws(rng, 8), 60)]
    return texts


def test_fuzz_analyze_only_documented_errors():
    seen = {}
    for text in _fuzz_texts():
        out = _outcome(text)
        seen[out] = seen.get(out, 0) + 1
    # the fuzz reaches every outcome, so it exercises the whole pipeline
    assert set(seen) == {"rejected", "error", "report"}, seen


def test_fuzz_orientation_matches_parity_oracle():
    """On every fuzz text that parses, the strand walk orients the code
    exactly when the parity oracle finds an orientation, and consistently."""
    seen = {True: 0, False: 0}
    for text in _fuzz_texts():
        try:
            d = parse_pd(text)
        except KnotCertError:
            continue
        ok = orientable_by_parity(d)
        seen[ok] += 1
        if ok:
            check_orientation(d)
            is_alternating(d)
            continue
        with pytest.raises(ClassificationError, match="slot 2"):
            orient(d)
        with pytest.raises(ClassificationError, match="slot 2"):
            is_alternating(d)
    assert seen[True] and seen[False], seen
