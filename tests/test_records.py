"""The library's records are immutable named tuples, and start-up stays lean.

Each record compares and hashes by its fields; `Diagram`, `PlaneGraph` and
`TaitGraph` are subclasses of a named tuple that keep their memos in their
own ``__dict__``, which equality ignores and `_replace` does not copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotcert
from knotcert import (
    band_prime_certificate,
    concordance_pair_obstructions,
    minimality_evidence,
    orient,
    parse_pd,
)
from knotcert.lattice import GramForm
from knotcert.tait import PlaneGraph, TaitGraph, blocks, flow_lattice, tait_graphs

TREFOIL = "X(1,4,2,3) X(3,6,4,5) X(5,2,6,1)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"
GRANNY = "X(9,1,10,12) X(1,11,2,10) X(11,3,12,2) X(3,7,4,6) X(7,5,8,4) X(5,9,6,8)"


def _records():
    """One record of each of the library's record types."""
    d = parse_pd(TREFOIL)
    cert = band_prime_certificate(d)
    factor = cert.factors[0]
    ev = minimality_evidence(d)
    fig8 = minimality_evidence(parse_pd(FIG8))
    (finding, *_) = concordance_pair_obstructions(fig8.bundle, fig8.hfk, ev.bundle, ev.hfk, True)
    g = tait_graphs(d)[0]
    return [
        d, orient(d), cert.speciality, g, PlaneGraph(g.edges, g.rotations),
        factor.gram, factor.decomposition, factor, cert,
        ev.bundle, ev.bundle.alexander, ev.hfk, ev, finding,
    ]


def test_every_record_type_is_covered():
    assert len({type(r) for r in _records()}) == 14


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_fields_cannot_be_assigned(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_with_equal_fields_are_equal_and_hash_equal(record):
    copy = type(record)(*record)
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)
    assert repr(copy) == repr(record)


def test_repr_names_the_class_and_its_fields():
    assert repr(parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")) == (
        "Diagram(crossings=((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)))"
    )
    assert repr(GramForm([[2, 1], [1, 2]])) == "GramForm(matrix=((2, 1), (1, 2)))"
    assert repr(tait_graphs(parse_pd(TREFOIL))[0]).startswith("TaitGraph(edges=")


@pytest.mark.parametrize("matrix, message", [
    ([[1.5]], r"^Gram matrix entries must be integers: "),
    ([["1"]], r"^Gram matrix entries must be integers: "),
    (5, r"^Gram matrix entries must be integers: "),
    ([[1, 2]], r"^Gram matrix must be square$"),
    ([[1, 2], [3]], r"^Gram matrix must be square$"),
    ([[1, 2], [3, 4]], r"^Gram matrix must be symmetric$"),
])
def test_gram_form_raises_the_same_value_errors(matrix, message):
    with pytest.raises(ValueError, match=message):
        GramForm(matrix)
    with pytest.raises(ValueError, match=message):
        GramForm(matrix=matrix)
    with pytest.raises(ValueError, match=message):
        GramForm([[2]])._replace(matrix=matrix)


def test_gram_form_stores_rows_as_tuples():
    form = GramForm([[2, -1], [-1, True]])
    assert form.matrix == ((2, -1), (-1, 1)) and type(form.matrix[1][1]) is int
    assert form == GramForm(((2, -1), (-1, 1))) and form.rank == 2


def test_replace_on_a_tait_graph_carries_no_memos():
    g = tait_graphs(parse_pd(GRANNY))[1]
    lattice, parts = flow_lattice(g), blocks(g)
    assert g.__dict__
    h = g._replace()
    assert type(h) is TaitGraph and h is not g and h == g
    assert h.__dict__ == {}
    assert flow_lattice(h) == lattice and flow_lattice(h) is not lattice
    assert blocks(h) == parts
    looped = g._replace(edges=g.edges[:-1] + ((0, 0),))
    assert type(looped) is TaitGraph and looped.__dict__ == {} and looped != g


def _run(script: str) -> list:
    """The JSON a fresh interpreter prints after running `script`."""
    env = dict(os.environ, PYTHONPATH=str(Path(knotcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_medial():
    """Nor OpenSSL's `hashlib`, neither at import nor to hash a report's PD."""
    script = f"""
import contextlib, io, json, sys, knotcert.cli
loaded = sorted(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = knotcert.cli.main(["analyze", "--pd", {TREFOIL!r}, "--json"])
print(json.dumps([code, loaded, sorted(sys.modules)]))
"""
    code, loaded, after_analyze = _run(script)
    assert code == 0 and "knotcert.obstruct" in loaded
    heavy = ("dataclasses", "inspect", "knotcert.medial", "hashlib", "_hashlib")
    assert [m for m in heavy if m in loaded] == []
    assert [m for m in ("hashlib", "_hashlib") if m in after_analyze] == []


_PD_HASH = """
import contextlib, io, json, sys
{prelude}
from knotcert import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["analyze", "--pd", {pd!r}, "--json"])
print(json.dumps([code, json.loads(out.getvalue())["pd_sha256"], "hashlib" in sys.modules]))
"""


def test_without_a_builtin_sha256_module_the_pd_hash_comes_from_hashlib():
    """On a build with neither `_sha2` nor `_sha256`, `hashlib` gives the
    same `pd_sha256`."""
    digest = hashlib.sha256(GRANNY.encode()).hexdigest()
    assert _run(_PD_HASH.format(prelude="", pd=GRANNY)) == [0, digest, False]
    blocked = 'sys.modules["_sha2"] = sys.modules["_sha256"] = None'
    assert _run(_PD_HASH.format(prelude=blocked, pd=GRANNY)) == [0, digest, True]


def test_medial_is_imported_only_to_split_a_composite_diagram():
    script = f"""
import contextlib, io, json, sys
from knotcert.cli import main
seen = []
for pd in ({TREFOIL!r}, {GRANNY!r}):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["analyze", "--pd", pd, "--json"])
    seen.append([code, "knotcert.medial" in sys.modules])
print(json.dumps(seen))
"""
    assert _run(script) == [[0, False], [0, True]]
