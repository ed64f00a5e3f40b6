"""Bigraded homology tables for thin knots.

For an alternating knot the whole bigraded group is forced by the Alexander
polynomial and the signature: writing Delta = sum a_s t^s, there is rank
|a_s| at Alexander grading s and Maslov grading s + sigma/2, everything
sitting in the single delta-grading sigma/2.  Ranks are F_2 dimensions.

The construction refuses inputs that cannot come from a thin knot: the signs
of the coefficients must alternate the right way for the graded Euler
characteristic to reproduce Delta.  Once they do, the Euler characteristic
is Delta and the total rank is |Delta(-1)| by construction, so neither is
checked again here.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InconsistencyError
from .invariants import LaurentPolynomial


class HfkTable(NamedTuple):
    # (alexander grading, maslov grading) -> rank, sorted by alexander desc
    entries: tuple[tuple[int, int, int], ...]
    delta_grading: int


def thin_hfk(delta: LaurentPolynomial, sigma: int) -> HfkTable:
    """Thin table for a knot with Alexander polynomial `delta`, signature `sigma`.

    Raises InconsistencyError when (delta, sigma) cannot belong to a thin
    knot: delta must be normalized (symmetric, delta(1) = 1), sigma even,
    and the coefficient signs must make the graded Euler characteristic work
    out.
    """
    if sigma % 2:
        raise InconsistencyError(f"signature {sigma} is odd")
    if not delta or delta(1) != 1 or not delta.is_symmetric():
        raise InconsistencyError(f"Alexander polynomial {delta} is not normalized")
    half = sigma // 2
    entries = []
    for s, a_s in delta.coeffs:
        maslov = s + half
        want_sign = -1 if maslov % 2 else 1
        if (1 if a_s > 0 else -1) != want_sign:
            raise InconsistencyError(
                f"coefficient {a_s} t^{s} has the wrong sign for a thin knot "
                f"with signature {sigma}"
            )
        entries.append((s, maslov, abs(a_s)))
    return HfkTable(tuple(entries), half)


def hfk_isomorphic(a: HfkTable, b: HfkTable) -> bool:
    """Equality of the bigraded rank functions."""
    return sorted(a.entries) == sorted(b.entries)
