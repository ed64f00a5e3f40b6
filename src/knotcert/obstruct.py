"""Certificates and obstruction reports.

Three kinds of verdict come out of here:

* band_prime_certificate: for a special alternating knot diagram, factor it
  along its connected-sum structure and re-derive, per factor, everything a
  skeptical reader needs: the orientable-color graph, its flow lattice, the
  definiteness and indecomposability of that lattice (with a unimodular
  witness), and the nonzero signature.  The lattice decomposition is
  cross-checked against the graph's block structure; those two must agree,
  so any mismatch is reported as an inconsistency rather than a mere
  failure.

* minimality_evidence: the invariant package relevant to whether a knot can
  sit strictly below another in a ribbon concordance, together with the
  sufficient conditions this library can actually certify (fibered via monic
  Alexander polynomial on an alternating diagram, prime-power leading
  coefficient, or a user-supplied two-bridge assertion).

* concordance_pair_obstructions: every violated necessary condition for
  "lower sits under upper in a ribbon concordance".  An empty list never
  means a concordance exists, only that these invariants do not rule it out.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .diagram import (
    Diagram, SpecialityReport, classify_special, connected_sum_factors, is_alternating, orient,
    seifert_circle_partition,
)
from .errors import DegenerateFormError, RankCapExceededError
from .hfk import HfkTable, hfk_isomorphic, thin_hfk
from .invariants import InvariantBundle, gl_signature, invariant_bundle
from .lattice import Decomposition, GramForm, indecomposable_summands
from .tait import TaitGraph, blocks, flow_lattice, orientable_tait_graph

DEFAULT_RANK_CAP = 12


def _positive_rank_blocks(g: TaitGraph) -> int:
    # a block's cycle rank, edges - vertices + 1, is positive when edges >= vertices
    edges = g.edges
    return sum(len(b) >= len({w for ei in b for w in edges[ei]}) for b in blocks(g))


# ---------------------------------------------------------------------------
# band primeness


class FactorRecord(NamedTuple):
    pd: str
    crossings: int
    tait_vertices: int
    gram: GramForm
    decomposition: Decomposition
    signature: int


class CertificateReport(NamedTuple):
    speciality: SpecialityReport
    factors: tuple[FactorRecord, ...]
    trivial_factors: int
    verdict: str  # band_prime_certified / not_applicable / inconsistency
    notes: tuple[str, ...]


def band_prime_certificate(d: Diagram, rank_cap: int = DEFAULT_RANK_CAP) -> CertificateReport:
    """Certify that the knot of a special alternating diagram is band prime.

    Non-special (or non-alternating) inputs get verdict not_applicable.
    A factor whose flow lattice is not definite, splits into several
    summands, disagrees with the block count, or has the wrong signature
    produces verdict 'inconsistency' (the underlying theory forbids all of
    those, so they indicate a bug, not a property of the knot).

    A knot diagram that is alternating with one crossing sign is special,
    its Seifert circles being the faces of one color, so the whole
    diagram's flow rank is n + 1 minus the number of Seifert circles.  It
    bounds every factor's, and an input above `rank_cap` is refused on it
    (RankCapExceededError) before the checkerboard, the speciality
    cross-check or any lattice work.  This gate is the package's one cap
    check: `indecomposable_summands` takes any rank.  Links, the 0-crossing
    unknot and non-alternating or mixed-sign input go straight to
    `classify_special`.
    """
    ori = orient(d)
    if ori.components == 1 and len(set(ori.signs)) == 1 and is_alternating(d):
        rank = d.n + 1 - len(seifert_circle_partition(d))
        if rank > rank_cap:
            raise RankCapExceededError(rank, rank_cap)
    rep = classify_special(d)
    if not (rep.is_special and rep.is_alternating):
        why = "not alternating" if not rep.is_alternating else "alternating but not special"
        return CertificateReport(rep, (), 0, "not_applicable", (why,))

    g_full = orientable_tait_graph(d)
    notes: list[str] = []
    problems: list[str] = []
    factors: list[FactorRecord] = []
    trivial = 0
    refused = False

    def decompose(f: Diagram, gram: GramForm) -> Decomposition | None:  # None if refused
        nonlocal refused
        try:  # a flow lattice is positive definite, so a refusal is a bug
            return indecomposable_summands(gram)
        except (ValueError, DegenerateFormError) as ex:
            refused = True
            problems.append(f"flow lattice of {f.pd_text()!r} refused: {ex}")

    dec_full = decompose(d, flow_lattice(g_full))
    blocks_full = _positive_rank_blocks(g_full)
    for f in connected_sum_factors(d):
        frep = classify_special(f)
        if not frep.is_special:
            problems.append(f"factor {f.pd_text()!r} is not special")
            continue
        if f.n and frep.uniform_sign != rep.uniform_sign:
            problems.append(
                f"factor sign {frep.uniform_sign} differs from diagram sign {rep.uniform_sign}"
            )
            continue
        g = orientable_tait_graph(f)
        gram = flow_lattice(g)
        rank = gram.rank
        if rank == 0:
            trivial += 1
            continue
        if rank % 2:
            problems.append(f"factor {f.pd_text()!r} has odd flow rank {rank}")
            continue
        # a prime diagram is its own single factor: reuse the whole's lattice
        dec = dec_full if f is d else decompose(f, gram)
        if dec is None:
            continue
        sig = gl_signature(f)
        factors.append(FactorRecord(
            pd=f.pd_text(), crossings=f.n, tait_vertices=g.num_vertices, gram=gram,
            decomposition=dec, signature=sig))
        if len(dec.summands) != 1:
            problems.append(f"factor flow lattice split into {len(dec.summands)} summands")
        nblocks = blocks_full if f is d else _positive_rank_blocks(g)
        if nblocks != 1:
            problems.append(f"factor graph has {nblocks} positive-rank blocks, expected 1")
        if sig != -frep.uniform_sign * rank:
            problems.append(
                f"factor signature {sig} != {-frep.uniform_sign * rank} "
                f"(sign {frep.uniform_sign}, rank {rank})"
            )

    # whole-diagram cross-check: summands of the full flow lattice and blocks
    # of its graph match the number of nontrivial factors; after a refusal
    # the factor count is short by the refused ones, so nothing is compared
    if not refused and len(dec_full.summands) != len(factors):
        problems.append(
            f"whole-diagram lattice has {len(dec_full.summands)} summands "
            f"but {len(factors)} nontrivial factors"
        )
    if not refused and blocks_full != len(factors):
        problems.append("whole-diagram block count disagrees with factor count")

    if problems:
        return CertificateReport(rep, tuple(factors), trivial, "inconsistency", tuple(problems))
    if not factors:
        notes.append("no nontrivial factors: the knot is trivial, certificate is vacuous")
    if trivial:
        notes.append(f"{trivial} genus-zero factor(s) ignored")
    return CertificateReport(rep, tuple(factors), trivial, "band_prime_certified", tuple(notes))


# ---------------------------------------------------------------------------
# anisotropy and minimality


def anisotropy_check(bundle: InvariantBundle) -> bool:
    """|signature| = span(Alexander): definiteness of the middle-cover form."""
    return abs(bundle.signature) == bundle.alexander.span()


def _is_prime_power(n: int) -> bool:
    """True for 1 (a unit) and p^k; False otherwise."""
    if n < 1:
        return False
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)  # least prime factor
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


class MinimalityEvidence(NamedTuple):
    bundle: InvariantBundle
    hfk: HfkTable | None
    anisotropy: bool
    prime_power_leading: bool
    two_bridge_asserted: bool
    verdict: str  # minimal_certified / evidence_only / not_applicable


def minimality_evidence(d: Diagram, assert_two_bridge: bool = False) -> MinimalityEvidence:
    """Evidence that no distinct knot sits under this one in a ribbon concordance.

    minimal_certified needs the diagram to be special alternating plus one of:
    fibered (monic Alexander polynomial, genus exact), prime-power leading
    coefficient, or the caller asserting the knot is two-bridge.  Two-bridge
    detection is deliberately not computed here.
    """
    bundle = invariant_bundle(d)
    table = (
        thin_hfk(bundle.alexander, bundle.signature)
        if bundle.speciality.is_alternating
        else None
    )
    # invariant_bundle has already checked |sigma| = span on special alternating input
    aniso = anisotropy_check(bundle)
    ppl = _is_prime_power(abs(bundle.leading_coefficient))
    special = bundle.speciality.is_special and bundle.speciality.is_alternating
    if not special:
        verdict = "not_applicable"
    elif bundle.fibered is True or ppl or assert_two_bridge:
        verdict = "minimal_certified"
    else:
        verdict = "evidence_only"
    return MinimalityEvidence(
        bundle=bundle,
        hfk=table,
        anisotropy=aniso,
        prime_power_leading=ppl,
        two_bridge_asserted=assert_two_bridge,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# pairwise obstructions


class Finding(NamedTuple):
    code: str
    detail: str


def concordance_pair_obstructions(
    lower: InvariantBundle,
    lower_hfk: HfkTable | None,
    upper: InvariantBundle,
    upper_hfk: HfkTable | None,
    upper_is_special_alternating: bool,
) -> tuple[Finding, ...]:
    """Violated necessary conditions for `lower <= upper` under a ribbon
    concordance.  Empty output means no obstruction found, nothing more."""
    findings: list[Finding] = []
    if lower.signature != upper.signature:
        findings.append(
            Finding(
                "signature_mismatch",
                f"signature must be preserved: {lower.signature} vs {upper.signature}",
            )
        )
    if not lower.alexander.divides(upper.alexander):
        findings.append(
            Finding(
                "alexander_not_dividing",
                f"({lower.alexander}) does not divide ({upper.alexander})",
            )
        )
    lower_genus_min = lower.alexander.span() // 2
    if upper.genus_is_exact and lower_genus_min > upper.genus:
        findings.append(
            Finding(
                "genus_violation",
                f"lower genus is at least {lower_genus_min}, upper genus is {upper.genus}",
            )
        )
    if upper_is_special_alternating:
        # the bigraded groups must agree completely
        if lower.determinant != upper.determinant:
            findings.append(
                Finding(
                    "determinant_mismatch",
                    f"{lower.determinant} vs {upper.determinant}",
                )
            )
        if lower.genus_is_exact and upper.genus_is_exact and lower.genus != upper.genus:
            findings.append(Finding("genus_mismatch", f"{lower.genus} vs {upper.genus}"))
        if (
            lower_hfk is not None
            and upper_hfk is not None
            and not hfk_isomorphic(lower_hfk, upper_hfk)
        ):
            findings.append(
                Finding(
                    "hfk_mismatch",
                    "bigraded homology tables differ where equality is forced",
                )
            )
    return tuple(findings)
