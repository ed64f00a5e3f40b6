"""knotcert: exact combinatorial certificates for band-primeness of special
alternating knots.

The package turns a planar diagram (PD) code into checkerboard/Tait data,
computes flow lattices and classical invariants in exact arithmetic, and
assembles band-primeness certificates and ribbon-concordance obstruction
reports on top of them.  See README.md for the CLI and file formats.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .diagram import (
    classify_special,
    connected_sum_factors,
    mirror_diagram,
    orient,
    parse_pd,
)
from .errors import (
    ClassificationError,
    DegenerateFormError,
    DiagramError,
    InconsistencyError,
    KnotCertError,
    PDSyntaxError,
    RankCapExceededError,
)
from .hfk import HfkTable, hfk_isomorphic, thin_hfk
from .invariants import (
    InvariantBundle,
    LaurentPolynomial,
    alexander,
    gl_signature,
    goeritz_matrix,
    invariant_bundle,
    seifert_matrix_special,
)
from .lattice import Decomposition, GramForm, definiteness, indecomposable_summands
from .obstruct import (
    DEFAULT_RANK_CAP,
    CertificateReport,
    Finding,
    MinimalityEvidence,
    anisotropy_check,
    band_prime_certificate,
    concordance_pair_obstructions,
    minimality_evidence,
)
from .tait import TaitGraph, blocks, flow_lattice, tait_graph

__all__ = [
    "CertificateReport",
    "ClassificationError",
    "DEFAULT_RANK_CAP",
    "Decomposition",
    "DegenerateFormError",
    "DiagramError",
    "Finding",
    "GramForm",
    "HfkTable",
    "InconsistencyError",
    "InvariantBundle",
    "KnotCertError",
    "LaurentPolynomial",
    "MinimalityEvidence",
    "PDSyntaxError",
    "RankCapExceededError",
    "TaitGraph",
    "alexander",
    "anisotropy_check",
    "band_prime_certificate",
    "blocks",
    "classify_special",
    "concordance_pair_obstructions",
    "connected_sum_factors",
    "definiteness",
    "flow_lattice",
    "gl_signature",
    "goeritz_matrix",
    "hfk_isomorphic",
    "indecomposable_summands",
    "invariant_bundle",
    "minimality_evidence",
    "mirror_diagram",
    "orient",
    "parse_pd",
    "seifert_matrix_special",
    "tait_graph",
    "thin_hfk",
    "__version__",
]
