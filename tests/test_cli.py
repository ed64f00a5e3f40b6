"""CLI behavior: subcommands, exit statuses, determinism, batch handling."""

import argparse
import errno
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import knotcert
from helpers import MISORIENTED, corpus_entry, load_corpus, necklace, sparse_rows, theta
from knotcert import cli, lattice, obstruct, tait
from knotcert.cli import _json_text, main
from knotcert.diagram import connected_sum_factors, mirror_diagram, parse_pd
from knotcert.lattice import Decomposition, GramForm, greedy_reduce
from knotcert.medial import medial_diagram
from knotcert.tait import flow_lattice, orientable_tait_graph

TREFOIL = "X(1,4,2,3) X(3,6,4,5) X(5,2,6,1)"
LEFT_TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"  # orientable color 0
HOPF = "X(4,1,3,2) X(2,3,1,4)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"
GRANNY = "X(9,1,10,12) X(1,11,2,10) X(11,3,12,2) X(3,7,4,6) X(7,5,8,4) X(5,9,6,8)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_trefoil_json(capsys):
    code, out, _ = run(capsys, "analyze", "--pd", TREFOIL, "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["band_primeness"]["verdict"] == "band_prime_certified"
    assert rep["minimality"]["verdict"] == "minimal_certified"
    assert rep["invariants"]["determinant"] == 3
    assert rep["schema"] == "knotcert-report/3"


def test_analyze_unknot(capsys):
    code, out, _ = run(capsys, "analyze", "--pd", "", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["band_primeness"]["verdict"] == "band_prime_certified"
    assert rep["invariants"]["determinant"] == 1


def test_analyze_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "--pd", "X(1,2,3)")
    assert code == 2
    assert "error" in err


def test_analyze_link_rejected_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "--pd", HOPF)
    assert code == 2
    assert "components" in err


@pytest.mark.parametrize("pd", MISORIENTED)
def test_analyze_misoriented_code_exit_2(capsys, pd):
    code, out, err = run(capsys, "analyze", "--pd", pd, "--json")
    assert code == 2 and out == ""
    assert "slot 2" in err


def test_analyze_pd_file_not_utf8_exit_2(tmp_path, capsys):
    f = tmp_path / "pd.txt"
    f.write_bytes(b"\xff\xfeX(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    code, out, err = run(capsys, "analyze", "--pd-file", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(f) in err


@pytest.mark.parametrize(
    "argv", [["analyze", "--pd", ""], ["batch", "bundled"]], ids=["analyze", "batch"]
)
def test_negative_rank_cap_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as ex:
        main([*argv, "--rank-cap", "-1"])
    assert ex.value.code == 2
    assert "--rank-cap" in capsys.readouterr().err
    code, _, _ = run(capsys, "analyze", "--pd", "", "--rank-cap", "0")
    assert code == 0


def test_analyze_rank_cap_exit_3(capsys):
    granny = corpus_entry("3_1#3_1").pd
    code, _, err = run(capsys, "analyze", "--pd", granny, "--rank-cap", "3")
    assert code == 3
    assert "cap" in err


def test_analyze_special_non_alternating_is_not_applicable(capsys):
    # |signature| = 2 genus = span holds for special alternating diagrams
    # only; this special, non-alternating unknot diagram has genus bound 1.
    pd = "X(6,4,3,1) X(2,5,6,1) X(4,5,2,3)"
    code, out, _ = run(capsys, "analyze", "--pd", pd)
    assert code == 0
    assert "genus: 1 (upper bound)" in out
    assert "band primeness: not_applicable" in out


# One fault per case in a function the certificate imports, each making one
# of its checks fire on the left trefoil: (name in obstruct, the fault made
# from the real function, the notes of the report).
_NO_FACTOR = ["whole-diagram lattice has 1 summands but 0 nontrivial factors",
              "whole-diagram block count disagrees with factor count"]
CERTIFICATE_FAULTS = {
    "signature-negated": (
        "gl_signature", lambda real: lambda f: -real(f),
        ["factor signature -2 != 2 (sign -1, rank 2)"]),
    # rank > 0 and the sign is +-1, so a zero signature fails the one check
    "signature-zero": (
        "gl_signature", lambda real: lambda f: 0,
        ["factor signature 0 != 2 (sign -1, rank 2)"]),
    "factor-mirrored": (
        "connected_sum_factors", lambda real: lambda d: (mirror_diagram(d),),
        ["factor sign 1 differs from diagram sign -1", *_NO_FACTOR]),
    "factor-not-special": (
        "connected_sum_factors", lambda real: lambda d: (parse_pd(FIG8),),
        [f"factor {FIG8!r} is not special", *_NO_FACTOR]),
    "singleton-blocks": (
        "blocks", lambda real: lambda g: tuple((e,) for e in range(g.num_edges)),
        ["factor graph has 0 positive-rank blocks, expected 1", _NO_FACTOR[1]]),
    "two-summands": (
        "indecomposable_summands",
        lambda real: lambda q, **kw: Decomposition(real(q, **kw).summands * 2, ()),
        ["factor flow lattice split into 2 summands",
         "whole-diagram lattice has 2 summands but 1 nontrivial factors"]),
    "odd-flow-rank": (
        "flow_lattice", lambda real: lambda g: GramForm(((1,),)),
        [f"factor {LEFT_TREFOIL!r} has odd flow rank 1", *_NO_FACTOR]),
    # a flow Gram that `indecomposable_summands` refuses, as indefinite or degenerate:
    # the refusal is the one note, as the factor count it leaves is no evidence
    "indefinite-flow-gram": (
        "flow_lattice", lambda real: lambda g: GramForm(((1, 2), (2, 1))),
        [f"flow lattice of {LEFT_TREFOIL!r} refused: "
         "indecomposable_summands requires a definite form"]),
    "degenerate-flow-gram": (
        "flow_lattice", lambda real: lambda g: GramForm(((1, 1), (1, 1))),
        [f"flow lattice of {LEFT_TREFOIL!r} refused: cannot decompose a degenerate form"]),
}


@pytest.mark.parametrize("fault", CERTIFICATE_FAULTS)
def test_analyze_reports_a_certificate_inconsistency_exit_1(monkeypatch, capsys, fault):
    """Each check of `band_prime_certificate` fires on its own fault: the
    verdict is inconsistency with the notes of the checks that failed, and
    `analyze --json` still prints the whole report, then exits 1."""
    name, make, notes = CERTIFICATE_FAULTS[fault]
    monkeypatch.setattr(obstruct, name, make(getattr(obstruct, name)))
    rep = obstruct.band_prime_certificate(parse_pd(LEFT_TREFOIL))
    assert (rep.verdict, list(rep.notes)) == ("inconsistency", notes)
    code, out, err = run(capsys, "analyze", "--pd", LEFT_TREFOIL, "--json")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["band_primeness"] == cli._certificate(rep, rep.speciality._asdict())
    assert report["minimality"]["verdict"] == "minimal_certified"


def test_batch_counts_a_certificate_inconsistency_and_runs_on(monkeypatch, tmp_path, capsys):
    """An entry whose certificate finds an inconsistency is counted as one,
    its report is written, and the rows after it still run."""
    real = obstruct.gl_signature
    monkeypatch.setattr(
        obstruct, "gl_signature", lambda f: -real(f) if f.pd_text() == LEFT_TREFOIL else real(f)
    )
    f = tmp_path / "c.csv"
    f.write_text(f'name,pd\nleft,"{LEFT_TREFOIL}"\ngranny,"{GRANNY}"\nfig8,"{FIG8}"\n')
    code, out, _ = run(capsys, "batch", str(f), "--json", "--out", str(tmp_path / "reports"))
    assert code == 1
    assert json.loads(out)["counts"] == {
        "band_prime_certified": 1, "inconsistency": 1, "not_applicable": 1
    }
    status = {p.stem: json.loads(p.read_text())["status"] for p in (tmp_path / "reports").iterdir()}
    assert status == {"left": "inconsistency", "granny": "band_prime_certified",
                      "fig8": "not_applicable"}


def test_batch_counts_a_refused_flow_gram_as_inconsistency_and_runs_on(
        monkeypatch, tmp_path, capsys):
    """A flow Gram that `indecomposable_summands` refuses makes its entry an
    inconsistency, not a traceback or an input error; the rows after it
    still run."""
    real = obstruct.flow_lattice
    monkeypatch.setattr(  # the trefoil's orientable Tait graph has three edges
        obstruct, "flow_lattice",
        lambda g: GramForm(((1, 2), (2, 1))) if g.num_edges == 3 else real(g))
    t25 = medial_diagram(theta(5), 1)[0].pd_text()
    f = tmp_path / "c.csv"
    f.write_text(f'name,pd\nleft,"{LEFT_TREFOIL}"\nt25,"{t25}"\nfig8,"{FIG8}"\n')
    code, out, _ = run(capsys, "batch", str(f), "--json", "--out", str(tmp_path / "reports"))
    assert code == 1
    assert json.loads(out)["counts"] == {
        "band_prime_certified": 1, "inconsistency": 1, "not_applicable": 1
    }
    status = {p.stem: json.loads(p.read_text())["status"] for p in (tmp_path / "reports").iterdir()}
    assert status == {"left": "inconsistency", "t25": "band_prime_certified",
                      "fig8": "not_applicable"}


def _wrap_calls(monkeypatch, qualnames, wrap):
    """Replace each named knotcert function by wrap(name, fn), wherever a
    module binds it."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "knotcert"]
    for qualname in qualnames:
        module, attr = qualname.rsplit(".", 1)
        fn = getattr(sys.modules[f"knotcert.{module}"], attr)
        wrapper = wrap(qualname, fn)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, name, wrapper)


def _count_calls(monkeypatch, *qualnames):
    """Count calls of knotcert functions, patched wherever a module binds them."""
    counts = dict.fromkeys(qualnames, 0)

    def wrap(qualname, fn):
        def counted(*args, **kwargs):
            counts[qualname] += 1
            return fn(*args, **kwargs)
        return counted

    _wrap_calls(monkeypatch, qualnames, wrap)
    return counts


def _results(monkeypatch, *qualnames):
    """The results of calls of knotcert functions, kept alive so that each
    distinct object built keeps its own id."""
    results = {name: [] for name in qualnames}

    def wrap(qualname, fn):
        def recorded(*args, **kwargs):
            results[qualname].append(fn(*args, **kwargs))
            return results[qualname][-1]
        return recorded

    _wrap_calls(monkeypatch, qualnames, wrap)
    return results


def test_analyze_computes_each_piece_once(monkeypatch, capsys):
    names = (
        "invariants.invariant_bundle",
        "hfk.thin_hfk",
        "lattice.indecomposable_summands",
    )
    counts = _count_calls(monkeypatch, *names)
    code, _, _ = run(capsys, "analyze", "--pd", TREFOIL, "--json")
    assert code == 0
    assert counts == dict.fromkeys(names, 1)

    # an over-cap diagram is refused before its Tait graphs, its lattice or
    # any invariant work
    names = ("invariants.invariant_bundle", "tait.flow_lattice", "tait.fundamental_cycles",
             "tait.tait_graph")
    counts = _count_calls(monkeypatch, *names)
    t213, _ = medial_diagram(theta(13), 1)
    code, _, err = run(capsys, "analyze", "--pd", t213.pd_text(), "--rank-cap", "4")
    assert code == 3 and "cap" in err
    assert counts == dict.fromkeys(names, 0)


def test_analyze_orients_each_diagram_once(monkeypatch, capsys):
    """The granny knot and its two trefoil factors are three diagrams: each
    gets one orientation record and one Seifert circle partition."""
    names = ("diagram.orient", "diagram.seifert_circle_partition")
    results = _results(monkeypatch, *names)
    code, _, _ = run(capsys, "analyze", "--pd", GRANNY, "--json")
    assert code == 0
    built = {name: len({id(r) for r in results[name]}) for name in names}
    assert built == dict.fromkeys(names, 3)


def test_analyze_counts_graph_blocks_once(monkeypatch, capsys):
    """A prime diagram is its own single factor: one block count of its
    orientable Tait graph serves the factor and the whole-diagram check."""
    counts = _count_calls(monkeypatch, "obstruct._positive_rank_blocks")
    code, _, _ = run(capsys, "analyze", "--pd", TREFOIL, "--json")
    assert code == 0
    assert counts == {"obstruct._positive_rank_blocks": 1}


def test_analyze_builds_each_tait_graph_once(monkeypatch, capsys):
    """The Goeritz matrices, the signature correction, the Seifert sign check,
    the certificate and the factor split all read one Tait graph per color.
    On this trefoil the orientable color is 0; the factor split reads its
    blocks off the orientable color and rebuilds factors from color 0."""
    built = []
    real = tait.tait_graph

    def spy(d, color):
        built.append(color)
        return real(d, color)

    monkeypatch.setattr(tait, "tait_graph", spy)
    code, out, _ = run(capsys, "analyze", "--pd", LEFT_TREFOIL, "--json")
    assert code == 0
    assert json.loads(out)["speciality"]["orientable_color"] == 0
    assert sorted(built) == [0, 1]


def test_analyze_builds_each_cycle_basis_once(monkeypatch, capsys):
    """The certificate and the factor split read the blocks of the orientable
    color's Tait graph, so on the granny knot (orientable color 1) and its
    two trefoil factors each orientable Tait graph gets one cycle basis, one
    flow Gram and one set of blocks, and no color-0 graph gets any."""
    color_of = {}  # id of each Tait graph built -> its color
    real = tait.tait_graph

    def spy(d, color):
        g = real(d, color)
        color_of[id(g)] = color
        return g

    monkeypatch.setattr(tait, "tait_graph", spy)
    built = {"tait.fundamental_cycles": [], "tait.flow_lattice": [], "tait.blocks": []}

    def wrap(qualname, fn):
        memo = "_cached_" + qualname.rsplit(".", 1)[1]

        def recorded(g):
            if memo not in g.__dict__:
                built[qualname].append(g)
            return fn(g)
        return recorded

    _wrap_calls(monkeypatch, built, wrap)
    code, out, _ = run(capsys, "analyze", "--pd", GRANNY, "--json")
    assert code == 0
    assert json.loads(out)["speciality"]["orientable_color"] == 1
    graphs = built["tait.fundamental_cycles"]
    assert len({id(g) for g in graphs}) == len(graphs) == 3
    assert [color_of[id(g)] for g in graphs] == [1, 1, 1]
    assert sorted(map(id, built["tait.flow_lattice"])) == sorted(map(id, graphs))
    assert sorted(map(id, built["tait.blocks"])) == sorted(map(id, graphs))


def test_analyze_eliminates_each_flow_lattice_once(monkeypatch, capsys):
    """Each flow lattice the certificate decomposes (the granny knot's and
    its two trefoil factors') is eliminated once: the Fincke-Pohst
    `_bareiss` run on its greedy-reduced form is also its definiteness test,
    and the witness `det_int` is the only other elimination in
    `indecomposable_summands`.  `_sylvester` sees only the Goeritz rows of
    the diagram and its factors, each once."""
    from knotcert.invariants import goeritz_matrix

    d = parse_pd(GRANNY)
    diagrams = [d, *connected_sum_factors(d)]
    lattices = [flow_lattice(orientable_tait_graph(x)).matrix for x in diagrams]
    goeritz = [sparse_rows(goeritz_matrix(x, c).matrix) for x in diagrams for c in (0, 1)]
    decomposed = []  # [gram, result, _bareiss runs, _sylvester runs] per call
    runs = {"_bareiss": [], "_sylvester": []}

    def spy(name, real):
        def recorded(m):
            seen = m if name == "_bareiss" else [dict(row) for row in m]
            if decomposed and decomposed[-1][1] is None:
                decomposed[-1][2 if name == "_bareiss" else 3].append(seen)
            runs[name].append(seen)
            return real(m)
        monkeypatch.setattr(lattice, name, recorded)

    spy("_bareiss", lattice._bareiss)
    spy("_sylvester", lattice._sylvester)

    def wrap(qualname, fn):
        def recorded(q, **kwargs):
            decomposed.append([q.matrix, None, [], []])
            decomposed[-1][1] = fn(q, **kwargs)
            return decomposed[-1][1]
        return recorded

    _wrap_calls(monkeypatch, ["lattice.indecomposable_summands"], wrap)
    code, _, _ = run(capsys, "analyze", "--pd", GRANNY, "--json")
    assert code == 0
    assert sorted(gram for gram, *_ in decomposed) == sorted(lattices)
    reduced = [greedy_reduce(gram)[0] for gram, *_ in decomposed]
    for (_, dec, bareiss, sylvester), red in zip(decomposed, reduced):
        assert bareiss == [red, [list(row) for row in dec.witness]]
        assert sylvester == []
    assert sorted(m for m in runs["_bareiss"] if m in reduced) == sorted(reduced)
    entries = lambda rows: [sorted(row.items()) for row in rows]
    assert sorted(map(entries, runs["_sylvester"])) == sorted(map(entries, goeritz))


def test_analyze_eliminates_each_goeritz_matrix_once(monkeypatch, capsys):
    """Each color's Goeritz signature and determinant come from one sparse
    elimination of rows read off its Tait graph: the dense `goeritz_matrix`
    is never built, and det_int never sees a Goeritz matrix."""
    from knotcert.invariants import goeritz_matrix

    d = medial_diagram(necklace([5, 7, 9, 11, 9]), 1)[0]
    assert d.n == 41
    dense = [goeritz_matrix(d, c).matrix for c in (0, 1)]
    sparse = [[sorted(row.items()) for row in sparse_rows(m)] for m in dense]
    seen = {"lattice.det_int": [], "lattice._sylvester": [], "invariants.goeritz_matrix": []}

    def wrap(qualname, fn):
        def recorded(m, *args):
            if qualname == "lattice._sylvester":
                seen[qualname].append([sorted(row.items()) for row in m])
            else:
                seen[qualname].append(m)
            return fn(m, *args)
        return recorded

    _wrap_calls(monkeypatch, seen, wrap)
    code, _, _ = run(capsys, "analyze", "--pd", d.pd_text(), "--json")
    assert code == 0
    assert seen["invariants.goeritz_matrix"] == []
    assert [seen["lattice._sylvester"].count(rows) for rows in sparse] == [1, 1]
    assert not set(dense) & {tuple(map(tuple, m)) for m in seen["lattice.det_int"]}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_json_text_matches_json_dumps_on_bundled_reports(tmp_path, capsys):
    code, out, _ = run(capsys, "batch", "bundled", "--json", "--out", str(tmp_path))
    assert code == 0
    assert out == _dumps(json.loads(out))
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 34
    for f in files:
        text = f.read_text("utf-8")
        obj = json.loads(text)
        assert text == _dumps(obj) == _json_text(obj), f.name


class _Int(int):
    pass


class _Str(str):
    pass


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}]},
        "na\u00efve \u2713 \u2028 \x00 \"q\" \\ \n\t",
        {"\u043a\u043b\u044e\u0447": "\u00e9", "z": ["\U0001f600"]},
        -(10**40),
        [10**30, -1, 0, 7],
        True,
        False,
        None,
        {"t": True, "f": False, "n": None, "i": -3, "s": ""},
        [[[[{"deep": [1, [2, [3]]]}]]]],
    ],
)
def test_json_text_matches_json_dumps_on_edge_cases(obj):
    assert _json_text(obj) == _dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [
        (1, [2, 3]),
        {"x": 1.5, "y": [0.1, -2e30]},
        {1: "int key", 2: []},
        {"k": (1, {"t": ()})},
        [_Int(5), _Str("s"), True],
    ],
    ids=["tuple", "float", "int-key", "nested-tuple", "subclass"],
)
def test_json_text_rejects_what_no_report_holds(obj):
    """Reports hold only dicts with str keys, lists, str, int, bool and None;
    anything else is a TypeError, not a silent second encoder."""
    with pytest.raises(TypeError):
        _json_text(obj)


def test_every_report_is_plain_json_data(tmp_path, capsys, monkeypatch):
    """The analyze, batch entry (with stored-value mismatches), batch summary
    and pair reports reach `_json_text` as plain data, which it writes as
    json.dumps does; `_json` refuses a tuple."""
    seen = []

    def spy(obj, _real=cli._json_text):
        seen.append(obj)
        return _real(obj)

    monkeypatch.setattr(cli, "_json_text", spy)
    # one CPU, so one process: a spy sees only the rows of its own process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    f = tmp_path / "c.csv"
    f.write_text(f'name,pd,det\nwrong,"{LEFT_TREFOIL}",99\nplain,"{GRANNY}",\n')
    assert run(capsys, "analyze", "--pd", TREFOIL, "--json")[0] == 0
    assert run(capsys, "batch", str(f), "--json", "--out", str(tmp_path / "out"))[0] == 1
    assert run(capsys, "pair", "--lower", "", "--upper", TREFOIL, "--json")[0] == 0
    kinds = [obj["kind"] for obj in seen]
    assert kinds == ["analysis", "analysis", "analysis", "batch_summary", "pair_obstructions"]
    assert "expected_mismatches" in seen[1]
    for obj in seen:
        assert _json_text(obj) == _dumps(obj)
    with pytest.raises(TypeError):
        cli._json((1, 2), "\n")


def test_json_output_is_byte_identical(capsys):
    _, out1, _ = run(capsys, "analyze", "--pd", TREFOIL, "--json")
    _, out2, _ = run(capsys, "analyze", "--pd", TREFOIL, "--json")
    assert out1 == out2


def test_main_builds_one_parser_per_process(monkeypatch, capsys, tmp_path):
    """main() builds its parser on its first call and reuses it: the root
    parser and its three subparsers, however often main runs, and nothing
    parsed by one call carries over to the next."""
    cli.build_parser.cache_clear()
    built = []
    real_init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    corpus = tmp_path / "c.csv"
    corpus.write_text(f'name,pd\ntrefoil,"{TREFOIL}"\n', "utf-8")
    code, first, _ = run(capsys, "analyze", "--pd", TREFOIL, "--json")
    assert code == 0
    assert run(capsys, "batch", str(corpus), "--json")[0] == 0
    assert run(capsys, "pair", "--lower", "", "--upper", TREFOIL)[0] == 0
    with pytest.raises(SystemExit) as ex:
        main(["analyze", "--pd", "", "--rank-cap", "-1"])
    assert ex.value.code == 2
    with pytest.raises(SystemExit) as ex:
        main(["--help"])
    assert ex.value.code == 0
    capsys.readouterr()
    code, again, _ = run(capsys, "analyze", "--pd", TREFOIL, "--json")
    assert code == 0 and again == first
    assert len(built) == 4, built
    # a cap given to one call does not stay for the next
    assert run(capsys, "analyze", "--pd", GRANNY, "--rank-cap", "3")[0] == 3
    assert run(capsys, "analyze", "--pd", GRANNY)[0] == 0
    assert len(built) == 4, built


@pytest.mark.parametrize("fmt", [["--json"], []], ids=["json", "text"])
def test_analyze_out_serialises_the_report_once(monkeypatch, capsys, tmp_path, fmt):
    """With --out the report is serialised once, as the JSON file, whose
    bytes are what --json prints; the text report, never printed, is not built."""
    names = ("cli._json_text", "cli._analysis_text")
    counts = _count_calls(monkeypatch, *names)
    code, out, _ = run(capsys, "analyze", "--pd", TREFOIL, *fmt, "--out", str(tmp_path))
    assert code == 0 and out.startswith("report written to ")
    assert counts == {"cli._json_text": 1, "cli._analysis_text": 0}
    (path,) = tmp_path.glob("analysis-*.json")
    code, printed, _ = run(capsys, "analyze", "--pd", TREFOIL, "--json")
    assert path.read_text("utf-8") == printed


def test_analyze_hashes_the_pd_once(monkeypatch, capsys):
    """The certificate and the minimality evidence share one PD hash, and an
    over-cap refusal hashes nothing."""
    hashed = []

    def sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(obstruct, "sha256", sha256)
    code, out, _ = run(capsys, "analyze", "--pd", GRANNY, "--json")
    assert code == 0
    assert hashed == [GRANNY.encode()]
    assert json.loads(out)["pd_sha256"] == hashlib.sha256(GRANNY.encode()).hexdigest()
    hashed.clear()
    code, _, err = run(capsys, "analyze", "--pd", GRANNY, "--rank-cap", "3")
    assert code == 3 and "cap" in err
    assert hashed == []


def test_analyze_builds_each_repeated_section_once():
    """The report repeats its speciality, invariants and HFK sections; each
    is one dict, built once and shared wherever it appears."""
    rep, _ = cli._analysis(parse_pd(GRANNY), lattice.DEFAULT_RANK_CAP, False)
    assert rep["invariants"] is rep["minimality"]["bundle"]
    assert rep["hfk"] is rep["minimality"]["hfk"] and rep["hfk"] is not None
    sp = rep["speciality"]
    assert sp is rep["invariants"]["speciality"]
    assert sp is rep["band_primeness"]["speciality"]
    assert sp is rep["minimality"]["bundle"]["speciality"]


def test_analyze_out_dir(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", "--pd", TREFOIL, "--out", str(tmp_path))
    assert code == 0
    files = list(tmp_path.glob("analysis-*.json"))
    assert len(files) == 1
    rep = json.loads(files[0].read_text())
    assert rep["band_primeness"]["verdict"] == "band_prime_certified"


def test_batch_bundled_corpus(tmp_path, capsys):
    code, out, err = run(capsys, "batch", "bundled", "--json", "--out", str(tmp_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["entries"] == 34
    assert summary["counts"]["band_prime_certified"] == 29
    assert summary["counts"]["not_applicable"] == 5
    assert summary["failures"] == 0
    assert len(list(tmp_path.glob("*.json"))) == 34
    # the report bytes; a change that alters them on purpose updates this digest
    blob = b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in sorted(tmp_path.glob("*.json")))
    assert hashlib.sha256(blob).hexdigest() == (
        "3efc865e4c510681d962559420579428ac0f96a3ac42cae10bbc3310cefadd31"
    )


def test_analyze_bytes_on_torus_knots_and_necklaces(capsys):
    """The report bytes beyond the corpus: exit code and stdout of `analyze
    --json --rank-cap 24` on T(2,k), k = 3..25 odd, on some necklace knots
    (up to 35 crossings), and on their mirrors.  A change that alters them
    on purpose updates this digest."""
    graphs = [theta(k) for k in range(3, 26, 2)]
    graphs += [necklace(s) for s in ([3, 3, 3], [3, 5, 7], [5, 7, 9], [9, 3, 5, 3, 7],
                                     [3, 3, 3, 3, 3], [5, 9, 13], [5] * 7)]
    digest = hashlib.sha256()
    for g in graphs:
        d, components = medial_diagram(g, 1)
        assert components == 1
        for dd in (d, mirror_diagram(d)):
            code, out, _ = run(capsys, "analyze", "--pd", dd.pd_text(), "--json", "--rank-cap", "24")
            digest.update(f"{code}\n{out}\0".encode())
    assert digest.hexdigest() == (
        "e462de80d1dd6323b0f01144cc84ba4f76dc8bda70e6927ce207a8183aa1cd4c"
    )


def test_pair_bytes_on_corpus_pairs(capsys):
    """The report bytes of `pair`: exit code and stdout of `pair --json` on
    every ordered pair of some bundled entries, among them the unknot, a
    composite and non-special ones.  A change that alters them on purpose
    updates this digest."""
    entries = [corpus_entry(name) for name in ("0_1", "3_1", "4_1", "5_2", "3_1#3_1", "3_1#m3_1")]
    digest = hashlib.sha256()
    for lower in entries:
        for upper in entries:
            code, out, _ = run(capsys, "pair", "--lower", lower.pd, "--upper", upper.pd, "--json")
            digest.update(f"{code}\n{out}\0".encode())
    assert digest.hexdigest() == (
        "9e82a0b9fbe9470cfdbd8d8e7c517d7bc6c6986b36d4b5f3e558cd73f1f0920c"
    )


def test_batch_empty_corpus(tmp_path, capsys):
    f = tmp_path / "empty.csv"
    f.write_text("name,pd\n")
    code, out, _ = run(capsys, "batch", str(f))
    assert code == 0
    assert "entries: 0" in out


def test_analyze_pd_file_with_a_byte_order_mark(tmp_path, capsys):
    f = tmp_path / "pd.txt"
    f.write_text(TREFOIL, "utf-8-sig")
    code, out, _ = run(capsys, "analyze", "--pd-file", str(f), "--json")
    assert code == 0
    assert json.loads(out)["invariants"]["determinant"] == 3


def _batch_peak(tmp_path, capsys, rows):
    """Exit code and tracemalloc peak of `batch --json` on `rows` trefoils."""
    f = tmp_path / f"trefoils{rows}.csv"
    f.write_text("name,pd\n" + "".join(f't{i},"{TREFOIL}"\n' for i in range(rows)))
    gc.collect()
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "batch", str(f), "--json")
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_runs_in_bounded_memory(tmp_path, capsys):
    """A batch keeps a count, not its reports.  A kept trefoil report costs
    about 9 KB, so 180 more rows would add about 1.7 MB to the peak.  Rows
    are read as they run; what the peak still gains here, about 0.34 MB,
    stops growing by 600 rows (0.55 MB at 600 rows and at 2,000)."""
    _batch_peak(tmp_path, capsys, 20)  # lazy imports and first-use caches
    assert _batch_peak(tmp_path, capsys, 20)[0] == 0
    small = _batch_peak(tmp_path, capsys, 20)[1]
    code, big = _batch_peak(tmp_path, capsys, 200)
    assert code == 0
    assert big - small < 1_000_000, (small, big)


def _failing_rows_peak(tmp_path, rows):
    """Exit code and tracemalloc peak of `batch --json` on `rows` rows that
    each fail at once on a bad stored sigma.  Their warnings go to
    os.devnull, which keeps nothing, unlike a capture."""
    f = tmp_path / f"bad{rows}.csv"
    f.write_text("name,pd,sigma\n" + "".join(f't{i},"{TREFOIL}",abc\n' for i in range(rows)))
    gc.collect()
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull), redirect_stderr(devnull):
        tracemalloc.start()
        try:
            return main(["batch", str(f), "--json"]), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_batch_reads_csv_rows_as_they_run(tmp_path):
    """A CSV corpus is read one row at a time, so the peak does not grow
    with the row count.  Reading all rows first peaked at about 0.8 MB for
    2,000 of these rows and 7.6 MB for 20,000."""
    _failing_rows_peak(tmp_path, 200)  # lazy imports and first-use caches
    code, small = _failing_rows_peak(tmp_path, 2_000)
    assert code == 0
    code, big = _failing_rows_peak(tmp_path, 20_000)
    assert code == 0
    assert big - small < 100_000, (small, big)


def _cpus(monkeypatch, n):
    """Make `batch` see n CPUs in its affinity set, so it runs n stripes,
    and count its forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


# a stored-value mismatch, a bad stored value, a repeated name, a name with a
# slash, a row over --rank-cap 2 (the granny), an unparsable PD, a report path
# that is a directory, an unnamed row, then good rows, padded past the 8 KB
# that the text reader decodes at a time
MIXED = (
    "name,pd,sigma,det,pad\n"
    f't0,"{TREFOIL}",,\nwrong,"{LEFT_TREFOIL}",,99\nbadsigma,"{TREFOIL}",abc,\n'
    f't0,"{TREFOIL}",,\nd/e,"{TREFOIL}",,\ngranny,"{GRANNY}",,\njunk,"X(1,2",,\n'
    f'blocked,"{TREFOIL}",,\n,"{FIG8}",,\n'
    + "".join(f't{i},"{TREFOIL}",,,{"." * 2000}\n' for i in range(1, 6))
)


@pytest.mark.parametrize("corpus", ["bundled", "mixed", "mixed-then-unreadable"])
def test_batch_stripes_give_what_one_process_gives(tmp_path, capsys, monkeypatch, corpus):
    """Three stripes give the exit status, stdout, stderr (lines and their
    order) and report files of one process."""
    if corpus == "bundled":
        argv = ["batch", "bundled", "--json"]
    else:
        f = tmp_path / "c.csv"
        tail = f'bad\xff,"{TREFOIL}",,,\nt9,"{TREFOIL}",,,\n'.encode("latin-1")
        f.write_bytes(MIXED.encode() + (tail if corpus == "mixed-then-unreadable" else b""))
        argv = ["batch", str(f), "--json", "--rank-cap", "2"]
    seen = []
    out = tmp_path / "out"
    for cpus in (3, 1):
        forks = _cpus(monkeypatch, cpus)
        shutil.rmtree(out, ignore_errors=True)
        (out / "blocked.json").mkdir(parents=True)
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        assert len(forks) == cpus - 1
        reports = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
        seen.append((code, stdout, stderr, reports))
    assert seen[0] == seen[1]
    code, stdout, stderr, reports = seen[0]
    if corpus == "bundled":
        assert code == 0 and len(reports) == 34
    elif corpus == "mixed":
        assert code == 1 and json.loads(stdout)["entries"] == 14
        assert stderr.count("\n") == 6 and len(reports) == 8
    else:
        # the error comes partway: at the first row past the decoded text
        assert code == 2 and stdout == "" and 3 < len(reports) < 8
        assert stderr.count("\n") == 7
        assert stderr.splitlines()[-1].startswith("error: cannot read corpus: ")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", ["normal", "read-error", "parent-interrupt", "child-dies"])
def test_batch_leaves_no_child_process(tmp_path, capsys, monkeypatch, case):
    """Whatever ends a batch of three stripes, no child outlives main(): the
    end of the rows, a read error, which every stripe meets at the same row,
    a KeyboardInterrupt in the parent (in row 3, which stripe 0 owns), or a
    child that dies without its record (in row 4, which stripe 1 owns)."""
    rows = [TREFOIL] * 9
    rows[3 if case == "parent-interrupt" else 4] = GRANNY
    f = tmp_path / "c.csv"
    tail = b"bad\xff,\n" if case == "read-error" else b""
    f.write_bytes(("name,pd\n" + "".join(f't{i},"{pd}"\n' for i, pd in enumerate(rows))).encode() + tail)
    granny = parse_pd(GRANNY).pd_text()

    def analysis(d, *args, _real=cli._analysis):
        if d.pd_text() == granny:
            if case == "parent-interrupt":
                raise KeyboardInterrupt
            if case == "child-dies":
                os._exit(3)
        return _real(d, *args)

    monkeypatch.setattr(cli, "_analysis", analysis)
    forks = _cpus(monkeypatch, 3)
    if case == "parent-interrupt":
        with pytest.raises(KeyboardInterrupt):
            main(["batch", str(f), "--json"])
    elif case == "child-dies":
        with pytest.raises(RuntimeError, match="^batch stripe 1 ended before its row 4$"):
            main(["batch", str(f), "--json"])
    else:
        code, out, err = run(capsys, "batch", str(f), "--json")
        assert (code, err.count("\n")) == ((0, 0) if case == "normal" else (2, 1))
    assert len(forks) == 2
    _no_child_left()


def test_batch_child_exception_ends_the_batch_with_its_traceback(tmp_path):
    """An exception that a child does not handle ends the batch as one in a
    single process does: its traceback on stderr, once, and exit status 1,
    with no child left."""
    f = tmp_path / "c.csv"
    f.write_text("name,pd\n" + "".join(f't{i},"{GRANNY if i == 4 else TREFOIL}"\n' for i in range(9)))
    script = f"""
import os, sys
from knotcert import cli
from knotcert.diagram import parse_pd

granny = parse_pd({GRANNY!r}).pd_text()

def analysis(d, *args, _real=cli._analysis):
    if d.pd_text() == granny:
        raise RuntimeError("stripe one fails on the granny")
    return _real(d, *args)

cli._analysis = analysis
os.sched_getaffinity = lambda pid: {{0, 1, 2}}
try:
    cli.main(["batch", {str(f)!r}, "--json"])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(knotcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == "no child left\n"
    assert proc.stderr.count("stripe one fails on the granny") == 1
    assert proc.stderr.rstrip().endswith("RuntimeError: stripe one fails on the granny")


def test_batch_runs_alone_when_a_fork_fails(tmp_path, capsys, monkeypatch):
    """Where the second of two forks fails (EAGAIN, as under a process
    limit), the child forked so far is ended and the batch runs in this
    process alone, with the output of a one-process run."""
    f = tmp_path / "c.csv"
    f.write_bytes(MIXED.encode())
    seen = []
    for cpus in (3, 1):
        forks = _cpus(monkeypatch, cpus)
        counted = os.fork

        def fork():
            if forks:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return counted()

        monkeypatch.setattr(os, "fork", fork)
        out = tmp_path / f"out{cpus}"
        code, stdout, stderr = run(capsys, "batch", str(f), "--json", "--rank-cap", "2",
                                   "--out", str(out))
        assert len(forks) == min(1, cpus - 1)
        _no_child_left()
        seen.append((code, stdout, stderr, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert seen[0] == seen[1]
    assert seen[0][0] == 1 and json.loads(seen[0][1])["entries"] == 14


@pytest.mark.parametrize("text, stripes", [
    ("name,pd\n", 1),
    (f'name,pd\nt0,"{TREFOIL}"', 1),
    (f'name,pd\nt0,"{TREFOIL}"\nt1,"{TREFOIL}"\n', 2),
    (f'name,pd\r\nt0,"{TREFOIL}"\r\nt1,"{TREFOIL}"\r\n', 2),
    (f'name,pd\nt0,"{TREFOIL}"\n\n\n\n', 4),  # blank lines may be rows, as far as a count of lines knows
], ids=["no-row", "one-row", "two-rows", "two-rows-crlf", "blank-lines"])
def test_batch_forks_no_more_stripes_than_rows(tmp_path, capsys, monkeypatch, text, stripes):
    """With 8 CPUs, a batch runs no more stripes than its corpus has lines
    after the header, and gives the output of one process."""
    f = tmp_path / "c.csv"
    f.write_bytes(text.encode())
    seen = []
    for cpus in (8, 1):
        forks = _cpus(monkeypatch, cpus)
        seen.append(run(capsys, "batch", str(f), "--json"))
        assert len(forks) == min(stripes, cpus) - 1
    assert seen[0] == seen[1]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_batch_reads_a_pipe_in_one_process(tmp_path, capsys, monkeypatch):
    """A corpus that is not a regular file, here a pipe read through
    /dev/stdin, runs in one process whatever the CPU count, with the output
    that the same bytes in a file give: stripes would split its bytes."""
    f = tmp_path / "c.csv"
    f.write_bytes(MIXED.encode())
    script = f"""
import os
from knotcert import cli

os.sched_getaffinity = lambda pid: {{0, 1, 2}}
raise SystemExit(cli.main(["batch", "/dev/stdin", "--json", "--rank-cap", "2",
                           "--out", {str(tmp_path / "piped")!r}]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(knotcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, input=f.read_bytes(),
                          capture_output=True, timeout=60)
    _cpus(monkeypatch, 1)
    code, out, err = run(capsys, "batch", str(f), "--json", "--rank-cap", "2",
                         "--out", str(tmp_path / "file"))
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out, err)
    assert code == 1 and json.loads(out)["entries"] == 14

    def reports(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    assert reports(tmp_path / "piped") == reports(tmp_path / "file")


@pytest.mark.parametrize("why", [
    "a thread runs",
    pytest.param("a C thread runs", marks=pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="no kernel list of threads")),
    "no os.fork",
    "a JSON corpus",
])
def test_batch_stays_in_one_process_where_it_should_not_fork(tmp_path, capsys, monkeypatch, why):
    """With other threads running, without os.fork, or on a JSON corpus,
    which each process would parse whole, a batch runs in one process
    whatever the CPU count.  faulthandler's watchdog is a thread that C code
    starts, which `threading` does not count."""
    import faulthandler
    import threading

    if why == "a JSON corpus":
        f = tmp_path / "c.json"
        f.write_text(json.dumps([{"name": f"t{i}", "pd": TREFOIL} for i in range(4)], indent=1))
    else:
        f = tmp_path / "c.csv"
        f.write_text("name,pd\n" + "".join(f't{i},"{TREFOIL}"\n' for i in range(4)))
    forks = _cpus(monkeypatch, 3)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if why == "a thread runs":
        thread.start()
    elif why == "a C thread runs":
        watchdog_out = open(os.devnull, "w")
        faulthandler.dump_traceback_later(600, file=watchdog_out)
        assert threading.active_count() == 1
    elif why == "no os.fork":
        monkeypatch.delattr(os, "fork")
    try:
        code, out, err = run(capsys, "batch", str(f), "--json")
    finally:
        done.set()
        if why == "a thread runs":
            thread.join(10)
            assert not thread.is_alive()
        elif why == "a C thread runs":
            faulthandler.cancel_dump_traceback_later()
            watchdog_out.close()
            for _ in range(1000):  # the watchdog's end, so later tests fork
                if len(os.listdir("/proc/self/task")) == 1:
                    break
                time.sleep(0.01)
    assert (code, json.loads(out)["entries"], err) == (0, 4, "")
    assert forks == []


@pytest.mark.parametrize("before", ["", f'good,"{TREFOIL}"\n'], ids=["first-row", "after-a-good-row"])
def test_batch_csv_that_is_not_utf8_is_an_input_error(tmp_path, capsys, before):
    """Bytes that are not UTF-8 make the corpus unreadable (exit 2, no
    summary), not one failed row, though UnicodeDecodeError is a ValueError."""
    f = tmp_path / "c.csv"
    f.write_bytes(f"name,pd\n{before}".encode() + b'bad\xff,"X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"\n')
    code, out, err = run(capsys, "batch", str(f), "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read corpus: ") and err.count("\n") == 1


DEEP = "[" * 100_000  # JSON nested past the parser's recursion limit


@pytest.mark.parametrize("how", ["pd-file", "pd", "pair"])
def test_deeply_nested_json_pd_is_a_syntax_error(tmp_path, capsys, how):
    """Exit 2 and one stderr line, not a RecursionError traceback."""
    f = tmp_path / "deep.pd"
    f.write_text(DEEP)
    argv = {"pd-file": ["analyze", "--pd-file", str(f)], "pd": ["analyze", "--pd", DEEP],
            "pair": ["pair", "--lower", DEEP, "--upper", TREFOIL]}[how]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: bad JSON PD code: ") and err.count("\n") == 1


def test_batch_deeply_nested_json_corpus_is_a_read_error(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text(DEEP)
    code, out, err = run(capsys, "batch", str(f), "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read corpus: ") and err.count("\n") == 1


def test_batch_csv_row_with_a_deeply_nested_pd_fails_only_that_row(tmp_path, capsys):
    f = tmp_path / "c.csv"
    f.write_text(f'name,pd\ndeep,{DEEP}\ngood,"{TREFOIL}"\n')
    code, out, err = run(capsys, "batch", str(f), "--json")
    assert code == 0
    assert err.startswith("warning: deep: bad JSON PD code: ") and err.count("\n") == 1
    assert json.loads(out)["counts"] == {"band_prime_certified": 1, "failed": 1}


def test_batch_csv_field_over_the_csv_limit_fails_only_that_row(tmp_path, capsys):
    """The PD text of T(2,6001) is 139,814 characters, over `csv`'s 131,072
    per field.  The row fails under its number, as its name is not read,
    and the reader goes on at the next line; `csv.field_size_limit` stays."""
    long_pd = medial_diagram(theta(6001), 1)[0].pd_text()
    f = tmp_path / "c.csv"
    f.write_text(f'name,pd\ntrefoil,"{TREFOIL}"\ntorus,"{long_pd}"\nfig8,"{FIG8}"\n')
    code, out, err = run(capsys, "batch", str(f), "--json")
    assert code == 0
    assert err == "warning: entry1: field larger than field limit (131072)\n"
    summary = json.loads(out)
    assert summary["entries"] == 3
    assert summary["counts"] == {"band_prime_certified": 1, "failed": 1, "not_applicable": 1}


def _batch_cyclic_garbage(tmp_path, capsys, copies):
    """Objects the cyclic garbage collector finds after `batch` on `copies`
    copies of the bundled corpus."""
    f = tmp_path / f"corpus{copies}.csv"
    f.write_text(
        "name,pd\n"
        + "".join(f'{e.name}~{k},"{e.pd}"\n' for k in range(copies) for e in load_corpus())
    )
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code, _, _ = run(capsys, "batch", str(f), "--json")
        assert code == 0
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_batch_entries_leave_no_reference_cycles(tmp_path, capsys):
    """Each entry's diagram, orientation, checkerboard, lattice and enumeration
    objects are freed by reference counting when the entry ends, so the
    cyclic garbage of a batch does not grow with its number of rows."""
    once = _batch_cyclic_garbage(tmp_path, capsys, 1)
    assert _batch_cyclic_garbage(tmp_path, capsys, 3) == once


def test_batch_malformed_entry_warns_and_continues(tmp_path, capsys):
    f = tmp_path / "c.csv"
    f.write_text(
        'name,pd\ngood,"X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"\nbad,"X(1,2,3)"\n'
    )
    code, out, err = run(capsys, "batch", str(f), "--json")
    assert code == 0
    assert "warning" in err and "bad" in err
    summary = json.loads(out)
    assert summary["failures"] == 1
    assert summary["counts"]["failed"] == 1
    assert summary["counts"]["band_prime_certified"] == 1


@pytest.mark.parametrize(
    "filename, text, bad_name",
    [
        ("c.csv", f'name,pd,sigma\nbad,"{TREFOIL}",abc\ngood,"{TREFOIL}",\n', "bad"),
        ("c.csv", f'name,pd,alexander\nbad,"{TREFOIL}",2x + 1\ngood,"{TREFOIL}",\n', "bad"),
        ("c.json", json.dumps(["not an object", {"name": "good", "pd": TREFOIL}]), "entry0"),
        ("c.json", json.dumps([{"name": "bad"}, {"name": "good", "pd": TREFOIL}]), "bad"),
        ("c.json", json.dumps([{"name": "bad", "pd": None}, {"name": "good", "pd": TREFOIL}]), "bad"),
        ("c.csv", f'name,pd,sigma\nbad\ngood,"{TREFOIL}"\n', "bad"),
    ],
    ids=["bad-sigma", "bad-alexander", "json-row-not-object", "json-no-pd", "json-null-pd",
         "csv-short-row"],
)
def test_batch_malformed_row_fails_only_that_entry(tmp_path, capsys, filename, text, bad_name):
    f = tmp_path / filename
    f.write_text(text)
    code, out, err = run(capsys, "batch", str(f), "--json")
    assert code == 0
    assert f"warning: {bad_name}:" in err
    summary = json.loads(out)
    assert summary["failures"] == 1
    assert summary["counts"] == {"band_prime_certified": 1, "failed": 1}


def test_batch_corpus_without_a_pd_column_fails_every_row(tmp_path, capsys):
    """A row with no pd value fails; only an empty one is the unknot.  With
    a `PD` header no row has one."""
    f = tmp_path / "c.csv"
    f.write_text(f'name,PD\ntrefoil,"{TREFOIL}"\nunknot,\n')
    code, out, err = run(capsys, "batch", str(f), "--json")
    assert code == 0
    assert err == "".join(f"warning: {name}: corpus row has no pd field\n" for name in ("trefoil", "unknot"))
    assert json.loads(out)["counts"] == {"failed": 2}


@pytest.mark.parametrize(
    "filename, text",
    [
        ("c.csv", f'pd,name\n"{TREFOIL}",trefoil\n'),
        ("c.json", json.dumps([{"name": "trefoil", "pd": TREFOIL}])),
    ],
    ids=["csv-pd-first", "json"],
)
def test_batch_reads_a_corpus_with_a_byte_order_mark(tmp_path, capsys, filename, text):
    f = tmp_path / filename
    f.write_text(text, "utf-8-sig")
    outdir = tmp_path / "out"
    code, out, err = run(capsys, "batch", str(f), "--json", "--out", str(outdir))
    assert code == 0 and err == ""
    assert [p.name for p in outdir.iterdir()] == ["trefoil.json"]
    assert json.loads((outdir / "trefoil.json").read_text())["invariants"]["determinant"] == 3


def test_batch_names_that_are_not_file_names_fail_only_that_entry(tmp_path, capsys):
    f = tmp_path / "c.csv"
    f.write_text(f'name,pd\na/b,"{TREFOIL}"\n../x,"{TREFOIL}"\ntrefoil,"{TREFOIL}"\n')
    outdir = tmp_path / "box" / "out"
    code, out, err = run(capsys, "batch", str(f), "--json", "--out", str(outdir))
    assert code == 0
    assert "warning: a/b:" in err and "warning: ../x:" in err
    assert json.loads(out)["counts"] == {"band_prime_certified": 1, "failed": 2}
    assert sorted(p.name for p in outdir.iterdir()) == ["trefoil.json"]
    assert sorted(p.name for p in (tmp_path / "box").iterdir()) == ["out"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["box", "c.csv"]


def test_batch_out_fails_a_name_an_earlier_row_used(tmp_path, capsys):
    """With --out, each name gets one report file: a later row with a name
    already used fails, and the earlier row's report stays."""
    f = tmp_path / "c.csv"
    f.write_text(f'name,pd\ndup,"{TREFOIL}"\ndup,""\n')
    outdir = tmp_path / "out"
    code, out, err = run(capsys, "batch", str(f), "--json", "--out", str(outdir))
    assert code == 0
    assert "warning: dup:" in err
    assert json.loads(out)["counts"] == {"band_prime_certified": 1, "failed": 1}
    assert [p.name for p in outdir.iterdir()] == ["dup.json"]
    rep = json.loads((outdir / "dup.json").read_text())
    assert rep["invariants"]["determinant"] == 3  # the trefoil's, not the unknot's


def test_batch_unwritable_report_fails_only_that_entry(tmp_path, capsys):
    """A report that cannot be written (here a name longer than the file
    system allows) fails that entry, counted once; later rows still run."""
    f = tmp_path / "c.csv"
    f.write_text(f'name,pd\n{"x" * 300},"{TREFOIL}"\nplain,"{TREFOIL}"\n')
    outdir = tmp_path / "out"
    code, out, err = run(capsys, "batch", str(f), "--json", "--out", str(outdir))
    assert code == 0
    assert err.startswith("warning: xxx")
    assert json.loads(out)["counts"] == {"band_prime_certified": 1, "failed": 1}
    assert [p.name for p in outdir.iterdir()] == ["plain.json"]


def test_batch_stored_value_mismatch_is_inconsistency(tmp_path, capsys):
    f = tmp_path / "c.csv"
    f.write_text('name,pd,det\nwrong,"X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",99\n')
    code, out, _ = run(capsys, "batch", str(f), "--json")
    assert code == 1
    summary = json.loads(out)
    assert summary["counts"]["inconsistency"] == 1


def test_batch_reads_csv_corpus_as_utf8(tmp_path):
    """A CSV corpus is read as UTF-8, like a JSON corpus, whatever the locale:
    here a C locale whose encoding is ASCII."""
    f = tmp_path / "c.csv"
    f.write_text(f'name,pd\ntr\u00e8fle,"{TREFOIL}"\n', "utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(knotcert.__file__).resolve().parents[1]))
    env.pop("PYTHONUTF8", None)
    script = ("import locale, sys; from knotcert.cli import main; "
              "print(locale.getpreferredencoding(False)); sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c", script, "batch", str(f), "--json"],
        env=env, capture_output=True, text=True, encoding="utf-8",
    )
    encoding, _, summary = proc.stdout.partition("\n")
    assert encoding.lower().replace("-", "") != "utf8"  # the locale is not UTF-8
    assert proc.returncode == 0, proc.stderr
    assert json.loads(summary)["counts"] == {"band_prime_certified": 1}


def test_batch_name_the_file_system_cannot_encode_fails_only_that_entry(tmp_path):
    """With --out, an entry name that the file-system encoding (here ASCII,
    in a C locale) cannot encode fails that entry; the rest are written."""
    f = tmp_path / "c.csv"
    f.write_text(f'name,pd\ntr\u00e8fle,"{TREFOIL}"\nplain,"{TREFOIL}"\n', "utf-8")
    outdir = tmp_path / "out"
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(knotcert.__file__).resolve().parents[1]))
    env.pop("PYTHONUTF8", None)
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "knotcert.cli",
         "batch", str(f), "--json", "--out", str(outdir)],
        env=env, capture_output=True, text=True, encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("warning: tr")
    assert json.loads(proc.stdout)["counts"] == {"band_prime_certified": 1, "failed": 1}
    assert [p.name for p in outdir.iterdir()] == ["plain.json"]


def test_batch_json_corpus_format(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text(json.dumps([{"name": "t", "pd": TREFOIL, "det": 3}]))
    code, out, _ = run(capsys, "batch", str(f), "--json")
    assert code == 0
    assert json.loads(out)["counts"]["band_prime_certified"] == 1


def test_batch_missing_file(capsys):
    code, _, err = run(capsys, "batch", "/nonexistent/corpus.csv")
    assert code == 2
    assert "not found" in err


def test_batch_directory_corpus_makes_no_output_directory(tmp_path, capsys):
    (tmp_path / "adir").mkdir()
    out = tmp_path / "out-adir"
    code, stdout, err = run(capsys, "batch", str(tmp_path / "adir"), "--json", "--out", str(out))
    assert code == 2 and stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists()


def test_pair_obstructed(capsys):
    code, out, _ = run(capsys, "pair", "--lower", "", "--upper", TREFOIL, "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "obstructed"
    codes = {f["code"] for f in rep["findings"]}
    assert {"hfk_mismatch", "determinant_mismatch", "genus_mismatch"} <= codes


def test_pair_no_obstruction(capsys):
    code, out, _ = run(capsys, "pair", "--lower", TREFOIL, "--upper", TREFOIL)
    assert code == 0
    assert "no obstruction found" in out


@pytest.mark.parametrize(
    "flag", [["--rank-cap", "5"], ["--out", "reports"]], ids=["rank-cap", "out"]
)
def test_pair_rejects_lattice_flags(capsys, flag):
    with pytest.raises(SystemExit) as ex:
        main(["pair", "--lower", "", "--upper", TREFOIL, *flag])
    assert ex.value.code == 2


def test_pair_parse_error(capsys):
    code, _, err = run(capsys, "pair", "--lower", "nope", "--upper", TREFOIL)
    assert code == 2
