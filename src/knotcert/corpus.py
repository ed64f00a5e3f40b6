"""Corpus files, read here only: the CSV or JSON files `batch` runs and the
bundled corpus (data/corpus.csv, regenerated by tools/gen_corpus.py from an
enumeration of small checkerboard graphs).  A row's stored
sigma/det/alexander/genus values are read back as integers and a Laurent
polynomial so that recomputed values can be compared against them; README
"Corpus format" gives the fields.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .invariants import LaurentPolynomial

BUNDLED = Path(__file__).with_name("data") / "corpus.csv"

# optional stored columns: (column, InvariantBundle attribute, parser)
_STORED_COLUMNS = (
    ("sigma", "signature", int),
    ("det", "determinant", int),
    ("alexander", "alexander", LaurentPolynomial.from_string),
    ("genus", "genus", int),
)


def corpus_rows(path: Path):
    """The rows of a corpus file as they are read: a CSV one row at a time,
    a JSON list after parsing it whole.  A CSV row that `csv` refuses (a
    field over its size limit) comes as that csv.Error, and reading goes on
    at the next line; a header line it refuses raises the csv.Error."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        if path.suffix.lower() != ".json":
            rows = csv.DictReader(fh)
            rows.fieldnames  # reads the header line
            while True:
                try:
                    yield next(rows)
                except StopIteration:
                    return
                except csv.Error as ex:
                    yield ex
        rows = json.load(fh)
        if not isinstance(rows, list):
            raise ValueError("a JSON corpus must be a list of objects")
        yield from rows


def row_values(row: dict) -> tuple[str, list[tuple[str, str, object]]]:
    """The PD text of a corpus row, and (column, bundle attribute, parsed
    value) for each of its stored values.  ValueError when the row has no
    pd value (an empty one is the unknot) or, naming the column, when a
    stored value does not parse."""
    if row.get("pd") is None:
        raise ValueError("corpus row has no pd field")
    stored = []
    for column, attr, parse in _STORED_COLUMNS:
        if row.get(column) not in (None, ""):
            try:
                stored.append((column, attr, parse(str(row[column]))))
            except ValueError as ex:
                raise ValueError(f"bad stored {column} {row[column]!r}: {ex}") from None
    return str(row["pd"]), stored
