"""Planar diagram (PD) codes and their checkerboard combinatorics.

A diagram is a list of crossings ``X(a,b,c,d)``: the four arc labels around
the crossing in counterclockwise order, starting with the *incoming under*
strand.  Arc labels run 1..2n and each label appears exactly twice.  The
cyclic order at every crossing is a rotation system, so the code determines a
4-valent graph embedded in the sphere; we validate that the induced face count
satisfies Euler's formula (faces = crossings + 2) and reject anything else.

Half-edge (c, s), slot s of crossing c, is the integer h = 4c + s, so h
increases in (crossing, slot) order, and `_mates(d)` is one flat list of 4n
entries: mate[h] is the other end of the arc at h.  Faces, strands and
Seifert circles are orbits of three maps on it, where m = mate[h]: the face
successor h -> (m & ~3) | ((m + 1) & 3); the strand step h -> mate[h ^ 2],
leaving by the opposite slot; and the Seifert step h -> m ^ 1 or m ^ 3, the
smoothing partner of slot m as the over-strand enters at slot 3 or 1.  Faces
and strands are returned as tuples of (crossing, slot) pairs.  A code whose
strand walks (`_strands`) cannot orient it is rejected.  The mates, faces,
orientation (`orient`), checkerboard, Seifert circles and speciality are
memoised in the diagram's ``__dict__`` (a `Diagram` is an immutable named
tuple's subclass): every layer takes the `Diagram` itself and derives each
once.  The checkerboard is the faces split into their two color classes;
`tait.tait_graph` reads each class and checks that the colors alternate
around every crossing.

Grammar for the text form (whitespace/comma separated, case-insensitive `X`)::

    pd        = crossing* ;
    crossing  = "X" "(" label "," label "," label "," label ")" ;
    label     = positive integer ;

The empty string denotes the 0-crossing unknot.  A JSON array of [a,b,c,d]
quadruples is accepted as an equivalent input form.

Local geometry used throughout the package: at a crossing drawn with the
incoming under-strand entering from the west (slot 0), the slots sit at
W, S, E, N (counterclockwise), and corner k lies between slots k and k+1:

    corner 3 = NW   corner 2 = NE
             \\  over  /
    under ->  crossing    (slot 0 = W, 1 = S, 2 = E, 3 = N)
             /        \\
    corner 0 = SW   corner 1 = SE

A face's half-edge (c, s) sits at corner (s - 1) mod 4 of crossing c.
The *sweep pair* {corner 0, corner 2} is the pair of opposite quadrants swept
when the under-strand is rotated counterclockwise onto the over-strand.  It is
independent of strand orientations and is the combinatorial backbone for
crossing signs, Goeritz signs, and Seifert smoothings.
"""

from __future__ import annotations

import functools
import json
import operator
import re
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .errors import ClassificationError, DiagramError, InconsistencyError, PDSyntaxError
from .lattice import connected_classes

Crossing = tuple[int, int, int, int]
HalfEdge = tuple[int, int]  # (crossing index, slot 0..3)
Face = tuple[HalfEdge, ...]  # the half-edges around a face, in travel order


def cached_on_instance(fn):
    """Memoise fn(obj) in obj's own ``__dict__`` (obj subclasses an immutable
    named tuple), freed with obj; equal instances and `_replace` copies do not share it."""
    key = f"_cached_{fn.__name__}"

    @functools.wraps(fn)
    def wrapper(obj):
        if key not in obj.__dict__:
            obj.__dict__[key] = fn(obj)
        return obj.__dict__[key]

    return wrapper


class _DiagramFields(NamedTuple):
    crossings: tuple[Crossing, ...]


class Diagram(_DiagramFields):
    """A validated PD code.  Immutable; everything else is derived from it."""

    @property
    def n(self) -> int:
        return len(self.crossings)

    def pd_text(self) -> str:
        return " ".join("X({},{},{},{})".format(*c) for c in self.crossings)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.pd_text() or "<unknot>"


_CROSSING = r"[Xx]\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)"
_CROSSING_RE = re.compile(_CROSSING)
# a whole PD text: crossings, separated by any run of whitespace and commas
_PD_RE = re.compile(r"[\s,]*(?:%s[\s,]*)*" % _CROSSING.replace(r"(\d+)", r"\d+"))


def parse_pd(text: str) -> Diagram:
    """Parse and validate a PD code (text form or JSON quadruple array).

    The primary reading is the standard one described in the module docstring.
    Some sources instead list a crossing as (under-in, under-out, over-in,
    over-out); codes in that dialect fail the Euler face check under the
    standard reading, so when that specific check fails the parser retries
    with the dialect conversion (a,b,c,d) -> (a,d,b,c) and accepts the result
    if it validates completely.  A code valid under the standard reading is
    never reinterpreted.
    """
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise PDSyntaxError(f"bad JSON PD code: {exc}") from exc
        if not isinstance(data, list) or not all(
            isinstance(q, list) and len(q) == 4 and all(type(x) is int for x in q)
            for q in data
        ):
            raise PDSyntaxError("JSON PD code must be an array of [a,b,c,d] quadruples")
        crossings = tuple(tuple(q) for q in data)
    else:
        if not _PD_RE.fullmatch(stripped):
            leftover = _CROSSING_RE.sub("", stripped).replace(",", " ").strip()
            raise PDSyntaxError(f"unparsable PD fragment: {leftover!r}")
        crossings = [tuple(map(int, g)) for g in _CROSSING_RE.findall(stripped)]
    try:
        return build_diagram(crossings)
    except DiagramError as primary_err:
        if "not planar" not in str(primary_err):
            raise
        try:
            return build_diagram((a, d, b, c) for (a, b, c, d) in crossings)
        except (DiagramError, ClassificationError):
            raise primary_err from None


def build_diagram(crossings) -> Diagram:
    """Validate crossing tuples (standard convention) and return a Diagram.
    Labels must be integers: a float or a string raises PDSyntaxError."""
    try:
        crossings = tuple(tuple(map(operator.index, c)) for c in crossings)
    except TypeError as exc:
        raise PDSyntaxError(f"crossing labels must be integers: {exc}") from None
    for c in crossings:
        if len(c) != 4:
            raise PDSyntaxError(f"crossing {c} does not have four arc labels")
    d = Diagram(crossings)
    _validate(d)
    return d


def _validate(d: Diagram):
    n = d.n
    if n == 0:
        return
    mate = _mates(d)
    # connectivity of the 4-valent graph
    if max(connected_classes(n, ((h >> 2, m >> 2) for h, m in enumerate(mate) if h < m))):
        raise DiagramError("diagram is disconnected")
    # Euler check: tracing faces of the rotation system must give n + 2
    faces = len(_trace_faces(d))
    if faces != n + 2:
        raise DiagramError(f"rotation system is not planar: {faces} faces instead of {n + 2}")


@cached_on_instance
def _mates(d: Diagram) -> list[int]:
    """mate[h], the other end of the arc at half-edge h = 4c + s, checking in
    the same pass that the arc labels are 1..2n, each used twice."""
    labels = list(chain.from_iterable(d.crossings))
    top = len(labels) // 2
    first = [-1] * (top + 1)  # the first half-edge of each label, by label
    mate = [-1] * len(labels)
    if labels and min(labels) > 0 and max(labels) <= top:
        for h, a in enumerate(labels):
            g = first[a]
            if g < 0:
                first[a] = h
            else:
                mate[g], mate[h] = h, g
    # every label in 1..2n is there and none is used once: so each is used twice
    if -1 in mate or first.count(-1) > 1:
        counts = Counter(labels)  # labels in order of first use
        bad = sorted(set(counts) ^ set(range(1, top + 1)))
        if bad:
            raise DiagramError(f"arc labels must be 1..{top}; problems at {bad}")
        a, k = next((a, k) for a, k in counts.items() if k != 2)
        raise DiagramError(f"arc {a} appears {k} times (want 2)")
    return mate


@cached_on_instance
def _trace_faces(d: Diagram) -> tuple[Face, ...]:
    """Faces of the underlying 4-valent plane graph: the orbits of the face
    successor, each from its least half-edge; the face owning half-edge
    (c, s) occupies corner (s - 1) mod 4 at crossing c."""
    mate = _mates(d)
    seen = bytearray(len(mate))
    faces = []
    for h in range(len(mate)):
        if seen[h]:
            continue
        face = []
        while not seen[h]:
            seen[h] = 1
            face.append((h >> 2, h & 3))
            m = mate[h]
            h = (m & ~3) | ((m + 1) & 3)
        faces.append(tuple(face))
    return tuple(faces)


@cached_on_instance
def checkerboard(d: Diagram) -> tuple[tuple[Face, ...], tuple[Face, ...]]:
    """The faces of color 0 and the faces of color 1, each in face order:
    the classes of the faces joined at opposite corners of each crossing,
    color 0 being face 0's.  The unknot has one empty face of each color."""
    faces = _trace_faces(d)
    if d.n == 0:
        return ((),), ((),)
    owner = [0] * (4 * d.n)  # the face of half-edge (c, s) at 4 c + s
    for fi, face in enumerate(faces):
        for ci, s in face:
            owner[4 * ci + s] = fi
    # half-edges (c, s) and (c, s + 2) sit at opposite corners of crossing c
    colors = connected_classes(
        len(faces), zip(owner[0::4] + owner[1::4], owner[2::4] + owner[3::4])
    )
    if max(colors) != 1:
        raise DiagramError("faces are not checkerboard 2-colorable")
    return tuple(tuple(face for face, c in zip(faces, colors) if c == color) for color in (0, 1))


# ---------------------------------------------------------------------------
# orientation


@cached_on_instance
def _strands(d: Diagram) -> tuple[tuple[HalfEdge, ...], ...]:
    """The strand components, each as the half-edges through which it enters
    its crossings, in travel order: orbits of the strand step.

    Walks start at each unvisited slot 0 (an incoming under-strand), so they
    follow the orientation the PD code fixes; a component that passes under
    nowhere (only in a link) starts at its highest unvisited half-edge.  A
    walk's exits are the entries of its reverse, so walks close up without
    meeting; the code cannot be oriented exactly when a walk enters an
    under-strand at slot 2, which raises ClassificationError.
    """
    mate = _mates(d)
    seen = bytearray(len(mate))
    walks = []
    for start in chain(range(0, len(mate), 4), reversed(range(len(mate)))):  # slots 0, then highest first
        if seen[start]:
            continue
        walk, h = [], start
        while True:
            if h & 3 == 2:
                raise ClassificationError(f"strand enters the under-strand of crossing {h >> 2} at slot 2")
            walk.append((h >> 2, h & 3))
            seen[h] = seen[h ^ 2] = 1
            h = mate[h ^ 2]
            if h == start:
                break
        walks.append(tuple(walk))
    return tuple(walks)


class Orientation(NamedTuple):
    """The strand orientations a diagram's PD code fixes.

    `over_in_slot[ci]` is 1 or 3: the slot where the over-strand enters, so
    the arcs pointing into crossing ci are those at slot 0 and this slot.
    `signs[ci]` follows the right-hand convention: +1 exactly when the
    over-strand runs from slot 3 to slot 1.  It holds no reference to the
    diagram, so memoising it there makes no reference cycle.
    """

    over_in_slot: tuple[int, ...]
    signs: tuple[int, ...]
    components: int

    @property
    def writhe(self) -> int:
        return sum(self.signs)


@cached_on_instance
def orient(d: Diagram) -> Orientation:
    """Orient the strands by walking them (`_strands`): the over-strand
    enters each crossing at slot 1 or slot 3, and the walks are the components."""
    if d.n == 0:
        return Orientation((), (), 1)
    walks = _strands(d)
    over_in = [0] * d.n
    for ci, s in (he for walk in walks for he in walk):
        if s % 2:
            over_in[ci] = s
    signs = tuple(1 if s == 3 else -1 for s in over_in)
    return Orientation(tuple(over_in), signs, len(walks))


def is_alternating(d: Diagram) -> bool:
    """True when every strand alternates over/under passages (cyclically);
    raises ClassificationError when the strands cannot be oriented."""
    return all((walk[i - 1][1] - walk[i][1]) % 2 for walk in _strands(d) for i in range(len(walk)))


# ---------------------------------------------------------------------------
# Seifert smoothing and speciality


@cached_on_instance
def seifert_circle_partition(d: Diagram) -> frozenset[frozenset[int]]:
    """Partition of arcs into Seifert circles (oriented smoothing): orbits
    of the Seifert step, the other end of each arc marked as it is passed."""
    mate = _mates(d)
    labels = list(chain.from_iterable(d.crossings))
    flip = [1 if s == 3 else 3 for s in orient(d).over_in_slot]
    seen = bytearray(len(mate))
    circles = []
    for h in range(len(mate)):
        if seen[h]:
            continue
        circle = []
        while not seen[h]:
            m = mate[h]
            seen[h] = seen[m] = 1
            circle.append(labels[h])
            h = m ^ flip[m >> 2]
        circles.append(frozenset(circle))
    return frozenset(circles)


def seifert_stats(d: Diagram) -> tuple[int, int]:
    """(number of Seifert circles, genus of the Seifert-algorithm surface)."""
    if d.n == 0:
        return 1, 0
    circles = len(seifert_circle_partition(d))
    num = 2 + d.n - circles - orient(d).components
    if num % 2:
        raise InconsistencyError("Seifert surface Euler characteristic is odd")
    return circles, num // 2


class SpecialityReport(NamedTuple):
    is_alternating: bool
    is_special: bool
    orientable_color: int | None
    uniform_sign: int | None


@cached_on_instance
def classify_special(d: Diagram) -> SpecialityReport:
    """Is the diagram special (Seifert circles = one color class's faces)?

    Two independent routes are evaluated: (a) the Seifert circle partition is
    compared against both checkerboard color classes, and (b) for alternating
    diagrams, speciality is equivalent to all crossing signs being equal.
    Disagreement raises InconsistencyError.  Multi-component input is
    rejected.
    """
    ori = orient(d)
    if ori.components != 1:
        raise ClassificationError(f"expected a knot, got {ori.components} components")
    alt = is_alternating(d)
    if d.n == 0:
        # 0-crossing unknot: special by convention, sign +1 by convention
        return SpecialityReport(True, True, 0, 1)
    seifert = seifert_circle_partition(d)
    orientable_color: int | None = None
    crossings = d.crossings
    for color, faces in enumerate(checkerboard(d)):
        faces_arcs = frozenset(
            frozenset(crossings[ci][slot] for ci, slot in face) for face in faces
        )
        if faces_arcs == seifert:
            orientable_color = color
            break
    special_a = orientable_color is not None
    uniform = ori.signs[0] if len(set(ori.signs)) == 1 else None
    if alt:
        special_b = uniform is not None
        if special_a != special_b:
            raise InconsistencyError(
                "speciality routes disagree: faces-vs-Seifert says "
                f"{special_a}, uniform-sign says {special_b}"
            )
    return SpecialityReport(
        is_alternating=alt,
        is_special=special_a,
        orientable_color=orientable_color,
        uniform_sign=uniform,
    )


# ---------------------------------------------------------------------------
# mirroring


def mirror_diagram(d: Diagram) -> Diagram:
    """Swap over- and under-strands at every crossing.

    The tuple for each crossing is rotated so the old over-in arc becomes the
    new under-in arc; arc directions are preserved, all crossing signs flip.
    """
    return build_diagram(c[k:] + c[:k] for c, k in zip(d.crossings, orient(d).over_in_slot))


# ---------------------------------------------------------------------------
# connected sum factorization (continued in `tait` and `medial`, which import this module)


def connected_sum_factors(d: Diagram) -> tuple[Diagram, ...]:
    """Split an alternating diagram into its diagrammatic prime summands.

    Factors correspond to the blocks of a Tait graph (`tait.factor_blocks`).
    A prime diagram is its own factor, and `medial` is imported only to
    rebuild those of a composite one, each from its block's plane subgraph
    with the parent's alternating handedness: factors of a special alternating
    diagram stay special with the same uniform sign, and crossing counts add up.
    """
    from .tait import factor_blocks

    if not is_alternating(d):
        raise ClassificationError("connected-sum factorization requires an alternating diagram")
    if d.n == 0 or len(factor_blocks(d)) <= 1:
        return (d,)
    from .medial import rebuild_factors

    return rebuild_factors(d)
