"""Exception hierarchy.

Everything raised on purpose by this package derives from KnotCertError, so the
CLI can map failures onto its exit codes (input error vs. internal inconsistency
vs. resource cap) without string matching.
"""

from __future__ import annotations


class KnotCertError(Exception):
    """Base class for all errors raised by knotcert."""


class PDSyntaxError(KnotCertError):
    """The PD text/JSON could not be parsed at all."""


class DiagramError(KnotCertError):
    """Structurally invalid diagram: bad arc multiplicities, disconnected
    crossing graph, or a rotation system that fails the Euler face count."""


class ClassificationError(KnotCertError):
    """Input outside the supported class (links, non-alternating input to an
    alternating-only routine, inconsistent orientations)."""


class DegenerateFormError(KnotCertError):
    """A symmetric form required to be nondegenerate has a kernel."""


class RankCapExceededError(KnotCertError):
    """`band_prime_certificate` refused a diagram because its flow rank
    exceeds the cap (`--rank-cap`)."""

    def __init__(self, rank: int, cap: int):
        super().__init__(f"lattice rank {rank} exceeds cap {cap}")
        self.rank = rank
        self.cap = cap


class InconsistencyError(KnotCertError):
    """Two independent computation routes disagreed.  This always indicates a
    bug (or corrupted input data), never a normal negative result."""
