"""Command-line front end.

Three subcommands:

  analyze  one diagram -> speciality, invariants, HFK table, band-primeness
           certificate, minimality evidence (text or JSON)
  batch    a CSV/JSON corpus -> one report per entry (written with --out),
           verdict-count summary on stdout
  pair     two diagrams -> ribbon-concordance obstruction findings

Exit statuses (stable): 0 success, 1 inconsistency detected, 2 input error,
3 resource cap exceeded.  JSON output is byte-identical across runs for
identical inputs: keys are sorted and all report content is derived by pure
functions of the input text.  The report format (`SCHEMA`) is defined here
alone: the library's records carry data, and each section is built from
their fields.
"""

from __future__ import annotations

import argparse
import csv
import functools
from json.encoder import encode_basestring_ascii as _quote
import marshal
import os
import sys
from pathlib import Path

from .corpus import BUNDLED, corpus_rows, row_values
from .diagram import Diagram, parse_pd
from .errors import (
    ClassificationError,
    DiagramError,
    InconsistencyError,
    KnotCertError,
    PDSyntaxError,
    RankCapExceededError,
)
from .hfk import HfkTable
from .invariants import InvariantBundle
from .lattice import DEFAULT_RANK_CAP
from .obstruct import (
    CertificateReport,
    band_prime_certificate,
    concordance_pair_obstructions,
    minimality_evidence,
)

SCHEMA = "knotcert-report/3"

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _json(o, nl: str) -> str:
    """The text of `json.dumps(o, sort_keys=True, indent=2)` with `nl` as
    its line break and indentation; TypeError on anything but dicts with str
    keys, lists, str, int, bool and None."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is int:
        return int.__repr__(o)
    if o is None or t is bool:
        return "null" if o is None else "true" if o else "false"
    inner = nl + "  "
    if t is list:
        items = [_json(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if o else "[]"
    if t is dict and all(type(k) is str for k in o):
        items = [_quote(k) + ": " + _json(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if o else "{}"
    raise TypeError(t)


def _json_text(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` and a newline, for report
    data (`_json`).  With an indent, `json` uses its pure-Python encoder, so
    the text is built here instead, with its C string quoting."""
    return _json(obj, "\n") + "\n"


def _rows(m) -> list:
    return [list(r) for r in m]


def _invariants(b: InvariantBundle) -> dict:
    """The `invariants` section: the bundle's fields, with the Alexander
    polynomial as [exponent, coefficient] pairs and as text."""
    return {**b._asdict(), "speciality": b.speciality._asdict(),
            "alexander": _rows(b.alexander.coeffs), "alexander_str": str(b.alexander)}


def _hfk(t: HfkTable | None) -> dict | None:
    if t is None:
        return None
    return {"delta_grading": t.delta_grading,
            "entries": [{"alexander": a, "maslov": m, "rank": r} for a, m, r in t.entries]}


def _certificate(c: CertificateReport, speciality: dict) -> dict:
    """The `band_primeness` section, sharing the report's `speciality` dict."""
    return {
        "schema": SCHEMA,
        "kind": "band_prime_certificate",
        "pd_sha256": c.pd_sha256,
        "speciality": speciality,
        "factors": [{
            "pd": f.pd,
            "crossings": f.crossings,
            "tait": {"vertices": f.tait_vertices, "edges": f.tait_edges,
                     "cycle_rank": f.gram.rank},
            "gram": _rows(f.gram.matrix),
            # only a lattice that indecomposable_summands found positive definite makes a factor
            "lattice_definiteness": "positive_definite",
            "summands": [_rows(s.matrix) for s in f.decomposition.summands],
            "witness": _rows(f.decomposition.witness),
            "signature": f.signature,
            "genus": f.gram.rank // 2,
        } for f in c.factors],
        "trivial_factors": c.trivial_factors,
        "verdict": c.verdict,
        "notes": list(c.notes),
    }


def _analysis(d: Diagram, rank_cap: int, assert_two_bridge: bool) -> tuple[dict, InvariantBundle]:
    """The report of one diagram and its invariant bundle.  The certificate
    runs first, so an over-cap lattice is refused before any invariant work.
    Each section is built once: the `speciality`, `invariants` and `hfk`
    dicts are shared wherever the report repeats them."""
    cert = band_prime_certificate(d, rank_cap=rank_cap)
    ev = minimality_evidence(d, assert_two_bridge=assert_two_bridge)
    inv = _invariants(ev.bundle)
    hfk = _hfk(ev.hfk)
    rep = {
        "schema": SCHEMA,
        "kind": "analysis",
        "pd": d.pd_text(),
        "pd_sha256": cert.pd_sha256,
        "speciality": inv["speciality"],
        "invariants": inv,
        "hfk": hfk,
        "band_primeness": _certificate(cert, inv["speciality"]),
        "minimality": {
            "schema": SCHEMA,
            "kind": "minimality_evidence",
            "pd_sha256": ev.pd_sha256,
            "bundle": inv,
            "hfk": hfk,
            "anisotropy": ev.anisotropy._asdict(),
            "conditions": {
                "fibered": ev.bundle.fibered,
                "prime_power_leading": ev.prime_power_leading,
                "two_bridge_asserted": ev.two_bridge_asserted,
            },
            "verdict": ev.verdict,
        },
    }
    return rep, ev.bundle


def _yesno(v) -> str:
    if v is None:
        return "unknown"
    return "yes" if v else "no"


def _analysis_text(rep: dict) -> str:
    sp = rep["speciality"]
    inv = rep["invariants"]
    cert = rep["band_primeness"]
    ev = rep["minimality"]
    lines = [f"pd: {rep['pd'] or '(unknot, 0 crossings)'}"]
    if sp["is_special"] and sp["is_alternating"]:
        lines.append(
            f"special alternating: yes (sign {sp['uniform_sign']:+d}, "
            f"orientable color {sp['orientable_color']})"
        )
    else:
        lines.append(f"special alternating: no (alternating: {_yesno(sp['is_alternating'])})")
    genus_tag = "exact" if inv["genus_is_exact"] else "upper bound"
    lines.append(
        f"signature: {inv['signature']}   determinant: {inv['determinant']}   "
        f"genus: {inv['genus']} ({genus_tag})"
    )
    lines.append(
        f"alexander: {inv['alexander_str']}   "
        f"(leading coefficient {inv['leading_coefficient']}, "
        f"fibered: {_yesno(inv['fibered'])})"
    )
    if rep["hfk"] is not None:
        total = sum(e["rank"] for e in rep["hfk"]["entries"])
        lines.append(f"hfk: thin, total rank {total}, delta grading {rep['hfk']['delta_grading']}")
    else:
        lines.append("hfk: not computed (diagram is not alternating)")
    lines.append(
        f"band primeness: {cert['verdict']} "
        f"({len(cert['factors'])} substantial factor(s), "
        f"{cert['trivial_factors']} trivial)"
    )
    for i, f in enumerate(cert["factors"], 1):
        lines.append(
            f"  factor {i}: {f['crossings']} crossings, gram {f['gram']}, "
            f"{f['lattice_definiteness']}, {len(f['summands'])} summand(s), "
            f"signature {f['signature']}"
        )
    for note in cert["notes"]:
        lines.append(f"  note: {note}")
    c = ev["conditions"]
    lines.append(
        f"minimality: {ev['verdict']} (fibered={_yesno(c['fibered'])}, "
        f"prime_power_leading={_yesno(c['prime_power_leading'])}, "
        f"two_bridge_asserted={_yesno(c['two_bridge_asserted'])})"
    )
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    if args.pd_file is not None:
        try:
            pd_text = Path(args.pd_file).read_text("utf-8-sig").strip()
        except UnicodeDecodeError as ex:
            raise PDSyntaxError(f"{args.pd_file} is not UTF-8 text: {ex.reason}") from None
    else:
        pd_text = args.pd
    rep, _bundle = _analysis(parse_pd(pd_text), args.rank_cap, args.assert_two_bridge)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / f"analysis-{rep['pd_sha256'][:16]}.json"
        path.write_text(_json_text(rep), "utf-8")
        print(f"report written to {path}")
    else:
        sys.stdout.write(_json_text(rep) if args.json else _analysis_text(rep))
    if rep["band_primeness"]["verdict"] == "inconsistency":
        return EXIT_INCONSISTENT
    return EXIT_OK


def _batch_rows(path: Path, outdir: Path | None, rank_cap: int, stripe: int, stripes: int):
    """The outcomes of a corpus's rows, in order, as stripe `stripe` of
    `stripes` runs them: row i is stripe i % stripes's.  Every stripe reads,
    numbers and names every row, so each settles a row whose name is
    refused alike; only a row's owner runs the rest of it.  Yields (owner,
    outcome) per row: owner None for a row that every stripe settles, and
    outcome (status, stderr line or None), or None for another stripe's
    row.  A read error ends the rows with (None, (None, its stderr line))."""
    rows = corpus_rows(path)
    entries = 0
    names_used: set[str] = set()  # with --out: one report file per name

    def give_up(name: str, status: str, ex: Exception) -> tuple[str, str]:
        level = "error" if status == "inconsistency" else "warning"
        return status, f"{level}: {name}: {ex}"

    while True:
        try:
            row = next(rows)
        except StopIteration:
            return
        except (OSError, ValueError, csv.Error, RecursionError) as ex:  # a read error, not a bad row
            yield None, (None, f"error: cannot read corpus: {ex}")
            return
        name = f"entry{entries}"
        owner = entries % stripes
        entries += 1
        try:
            if isinstance(row, csv.Error):  # a row the CSV reader refused
                raise row
            if not isinstance(row, dict):
                raise ValueError(f"corpus row is not an object: {row!r}")
            name = str(row.get("name") or "").strip() or name
            if name in (".", "..") or any(
                sep and sep in name for sep in ("/", os.sep, os.altsep, "\0")
            ):
                raise ValueError(f"entry name {name!r} is not a plain file name")
            if outdir is not None:
                try:
                    os.fsencode(name)
                except UnicodeEncodeError:
                    raise ValueError(
                        f"entry name {name!r} cannot be encoded as a file name"
                    ) from None
                if name in names_used:
                    raise ValueError(f"entry name {name!r} is used by an earlier row")
                names_used.add(name)
        except (ValueError, csv.Error) as ex:
            yield None, give_up(name, "failed", ex)
            continue
        if owner != stripe:
            yield owner, None
            continue
        try:
            pd, stored = row_values(row)
        except ValueError as ex:
            yield owner, give_up(name, "failed", ex)
            continue
        try:
            rep, bundle = _analysis(parse_pd(pd), rank_cap, False)
            mism = [
                f"{column}: stored {value}, computed {getattr(bundle, attr)}"
                for column, attr, value in stored
                if value != getattr(bundle, attr)
            ]
            status = rep["band_primeness"]["verdict"]
            if mism:
                status = "inconsistency"
                rep["expected_mismatches"] = mism
            rep["name"] = name
            rep["status"] = status
            outcome = status, None
            if outdir is not None:
                try:
                    (outdir / f"{name}.json").write_text(_json_text(rep), "utf-8")
                except OSError as ex:  # this report only; later rows still run
                    outcome = give_up(name, "failed", ex)
        except (PDSyntaxError, DiagramError, ClassificationError) as ex:
            outcome = give_up(name, "failed", ex)
        except RankCapExceededError as ex:
            outcome = give_up(name, "rank_capped", ex)
        except InconsistencyError as ex:
            outcome = give_up(name, "inconsistency", ex)
        yield owner, outcome


def _one_thread() -> bool:
    """Whether this process runs no thread but its main one, as the kernel
    counts them: a thread that C code started may hold a lock that a forked
    child then waits on for ever, as a Python thread may.  False where the
    kernel's list of threads cannot be read."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _stripes(path: Path) -> int:
    """How many processes run a batch of `path`: one per CPU that this one
    may run on, but no more than the rows could fill, as a CSV row takes a
    line after the header.  One where this process cannot fork, or runs
    other threads, which a forked child could deadlock on; where the corpus
    is not a regular file, as its processes would split one pipe's bytes;
    and for a JSON corpus, which each process would parse whole."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if not path.is_file() or path.suffix.lower() == ".json" or not _one_thread():
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cpus == 1:
        return 1
    ends, last = 0, b"\n"  # line ends (a \r\n split by a block counts twice)
    try:
        with path.open("rb") as fh:
            while ends <= cpus:
                block = fh.read(1 << 16)
                if not block:
                    break
                ends += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
                last = block[-1:]
    except OSError:  # for the batch's own read to report
        return 1
    lines = ends + (last not in b"\r\n")
    return max(1, min(cpus, lines - 1))


def _stripe_child(inherited: list, w: int, path: Path, outdir: Path | None, rank_cap: int,
                  stripe: int, stripes: int):
    """The forked child that runs stripe `stripe`: it closes the pipes it
    inherited, sends pipe end `w` the outcome of each row it owns, or the
    traceback of an exception it does not handle, and ends without
    returning or writing anything else."""
    try:
        for fh in inherited:
            fh.close()
        with open(w, "wb") as out:
            try:
                for owner, outcome in _batch_rows(path, outdir, rank_cap, stripe, stripes):
                    if owner == stripe:
                        out.write(marshal.dumps(outcome))
                        out.flush()
            except BaseException:  # for the parent to raise
                import traceback

                out.write(marshal.dumps((None, traceback.format_exc())))
    finally:
        os._exit(0)


def cmd_batch(args) -> int:
    """Runs the rows in the processes that `_stripes` counts, striped as
    `_batch_rows` says: stripe 0 here, each other in a forked child that
    sends this process one marshal record, (status, stderr line or None),
    per row it owns.  This process writes every line and count in row
    order, reading another stripe's record when it reaches that row.  Where
    a fork or a pipe fails, the children made so far are ended and the
    batch runs here alone."""
    path = BUNDLED if args.corpus == "bundled" else Path(args.corpus)
    if not path.exists() or path.is_dir():  # before --out makes a directory
        print(f"error: corpus file not found: {path}", file=sys.stderr)
        return EXIT_INPUT
    outdir = Path(args.out) if args.out else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    stripes = _stripes(path)
    if stripes > 1:
        sys.stdout.flush()
        sys.stderr.flush()
    entries = 0
    counts: dict[str, int] = {}
    pids: list[int] = []
    pipes: list = []  # the read end of stripe k's pipe at k - 1

    def end_children(kill: bool) -> None:
        if kill:  # a child may be deep in a row that no one will read
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        while pipes:
            pipes.pop().close()
        while pids:
            os.waitpid(pids.pop(), 0)

    try:
        try:
            for stripe in range(1, stripes):
                r, w = os.pipe()
                pipes.append(open(r, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _stripe_child(pipes, w, path, outdir, args.rank_cap, stripe, stripes)
                    pids.append(pid)
                finally:
                    os.close(w)
        except OSError:  # no process or pipe to be had: stripes are for speed alone
            end_children(kill=True)
            stripes = 1
        for owner, outcome in _batch_rows(path, outdir, args.rank_cap, 0, stripes):
            if outcome is None:  # another stripe's row
                try:
                    outcome = marshal.load(pipes[owner - 1])
                except EOFError:
                    outcome = None, f"batch stripe {owner} ended before its row {entries}"
                if outcome[0] is None:
                    raise RuntimeError(outcome[1])
            status, line = outcome
            if line is not None:
                print(line, file=sys.stderr)
            if status is None:  # the corpus could not be read
                return EXIT_INPUT
            entries += 1
            counts[status] = counts.get(status, 0) + 1
    except BaseException:
        end_children(kill=True)
        raise
    finally:
        end_children(kill=False)

    summary = {
        "schema": SCHEMA,
        "kind": "batch_summary",
        "entries": entries,
        "counts": dict(sorted(counts.items())),
        "failures": counts.get("failed", 0) + counts.get("rank_capped", 0),
    }
    if args.json:
        sys.stdout.write(_json_text(summary))
    else:
        print(f"entries: {entries}")
        for k, v in sorted(counts.items()):
            print(f"  {k}: {v}")
        if outdir is not None:
            print(f"reports written to {outdir}")
    return EXIT_INCONSISTENT if counts.get("inconsistency") else EXIT_OK


def cmd_pair(args) -> int:
    lo_d = parse_pd(args.lower)
    up_d = parse_pd(args.upper)
    lo, up = minimality_evidence(lo_d), minimality_evidence(up_d)
    upper_special = up.bundle.speciality.is_special and up.bundle.speciality.is_alternating
    findings = concordance_pair_obstructions(lo.bundle, lo.hfk, up.bundle, up.hfk, upper_special)
    rep = {
        "schema": SCHEMA,
        "kind": "pair_obstructions",
        "lower": {"pd": lo_d.pd_text(), "invariants": _invariants(lo.bundle)},
        "upper": {"pd": up_d.pd_text(), "invariants": _invariants(up.bundle)},
        "upper_is_special_alternating": upper_special,
        "findings": [f._asdict() for f in findings],
        "verdict": "obstructed" if findings else "no_obstruction_found",
    }
    if args.json:
        sys.stdout.write(_json_text(rep))
    else:
        print(f"upper is special alternating: {_yesno(upper_special)}")
        if findings:
            print("obstructed:")
            for f in findings:
                print(f"  {f.code}: {f.detail}")
        else:
            print("no obstruction found (this does not certify a concordance)")
    return EXIT_OK


def nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


@functools.lru_cache(maxsize=1)  # built on the first main() call, then shared
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="knotcert",
        description="band-primeness certificates and concordance obstructions "
        "for alternating knot diagrams",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument(
            "--rank-cap",
            type=nonnegative_int,
            default=DEFAULT_RANK_CAP,
            metavar="N",
            help="refuse the certificate's lattice work above this rank (exit 3)",
        )
        sp.add_argument("--out", metavar="DIR", help="directory for report files")

    a = sub.add_parser("analyze", help="analyze one PD diagram")
    g = a.add_mutually_exclusive_group(required=True)
    g.add_argument("--pd", help='PD text, e.g. "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"')
    g.add_argument("--pd-file", help="file containing PD text")
    a.add_argument(
        "--assert-two-bridge",
        action="store_true",
        help="caller asserts the knot is two-bridge (not verified here)",
    )
    common(a)
    a.set_defaults(func=cmd_analyze)

    b = sub.add_parser("batch", help="process a corpus CSV/JSON file")
    b.add_argument(
        "corpus",
        help="corpus file (columns: name,pd[,sigma,det,alexander,genus]) "
        "or the literal word 'bundled' for the packaged corpus",
    )
    common(b)
    b.set_defaults(func=cmd_batch)

    q = sub.add_parser("pair", help="obstructions to 'lower under upper' concordance")
    q.add_argument("--lower", required=True, help="PD text of the candidate smaller knot")
    q.add_argument("--upper", required=True, help="PD text of the candidate larger knot")
    q.add_argument("--json", action="store_true", help="emit JSON")
    q.set_defaults(func=cmd_pair)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PDSyntaxError, DiagramError, ClassificationError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except RankCapExceededError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_RESOURCE
    except InconsistencyError as ex:
        print(f"internal inconsistency: {ex}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except KnotCertError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
