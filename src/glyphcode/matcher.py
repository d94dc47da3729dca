"""Tolerance-based equivalence, subset, and match relations over codes.

All relations are position-independent: `p` is ignored for lines and the
center is ignored for arcs, so parallel line segments of the same length
(and congruent arcs anywhere on the page) compare as equivalent.

A Freeman direction of 9 on the *probe* side of a subset/match check acts
as a wildcard (missing successor information); equivalence compares all
directions exactly, including 9s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .encoder import (
    FREEMAN_NULL,
    CodedElement,
    EllipseArcCode,
    LineSegmentCode,
    PointCode,
    freeman_direction,
)

__all__ = [
    "MatchTolerances",
    "angdist180",
    "angdist360",
    "line_equiv",
    "line_subset",
    "arc_equiv",
    "arc_subset",
    "primitive_equiv",
    "primitive_subset",
    "freeman_sum",
    "element_equiv",
    "element_subset",
    "element_match",
    "sequence_equiv",
    "sequence_subset",
    "subset_alignment",
]


@dataclass(frozen=True)
class MatchTolerances:
    """Accuracy factors for code comparison.

    Lengths and axes are in the unit of the codes compared: the glyph size
    for every codebook, which holds codes scaled by 1/size.  Angles are in
    degrees.  `dpt` is accepted for config compatibility but unused:
    points compare position-independently like every other primitive.
    """

    dl: float = 0.08
    dalpha: float = 6.0
    da: float = 0.04
    db: float = 0.04
    dphi: float = 12.0
    dbeta: float = 15.0
    dgamma: float = 15.0
    dpt: float = 0.05


def angdist180(a: float, b: float) -> float:
    """Angular distance modulo 180 degrees (undirected lines)."""
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


def angdist360(a: float, b: float) -> float:
    """Angular distance modulo 360 degrees (directed arc endpoints)."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def line_equiv(i: LineSegmentCode, j: LineSegmentCode, t: MatchTolerances) -> bool:
    return abs(i.l - j.l) < t.dl and angdist180(i.alpha, j.alpha) < t.dalpha


def line_subset(i: LineSegmentCode, j: LineSegmentCode, t: MatchTolerances) -> bool:
    """Not longer than `j` beyond dl, and within dalpha of its angle; the
    length is checked first and angdist180 is written out inline."""
    if not i.l <= j.l + t.dl:
        return False
    d = abs(i.alpha - j.alpha) % 180.0
    return d < t.dalpha or 180.0 - d < t.dalpha


def _phi_flip(i: EllipseArcCode, j: EllipseArcCode) -> float:
    """Arc-angle offset reconciling the two rotation representations.

    phi and phi+180 describe the same axis with beta/gamma shifted by 180;
    fits near a horizontal axis land on either representation, so arc
    angles are compared after aligning the representations.
    """
    return 180.0 if angdist360(i.phi, j.phi) > 90.0 else 0.0


def _closed(i: EllipseArcCode, j: EllipseArcCode) -> bool:
    """Both arcs sweep (nearly) the full ellipse, so endpoints carry no
    information and the representation shift must not reject them."""
    return (i.gamma - i.beta) % 360.0 >= 349.0 and (
        j.gamma - j.beta
    ) % 360.0 >= 349.0


def _same_axes(i: EllipseArcCode, j: EllipseArcCode, t: MatchTolerances) -> bool:
    return (
        abs(i.a - j.a) < t.da
        and abs(i.b - j.b) < t.db
        and angdist180(i.phi, j.phi) < t.dphi
    )


def arc_equiv(i: EllipseArcCode, j: EllipseArcCode, t: MatchTolerances) -> bool:
    if not _same_axes(i, j, t):
        return False
    if _closed(i, j):
        return True
    s = _phi_flip(i, j)
    return (
        angdist360(i.beta + s, j.beta) < t.dbeta
        and angdist360(i.gamma + s, j.gamma) < t.dgamma
    )


def arc_subset(i: EllipseArcCode, j: EllipseArcCode, t: MatchTolerances) -> bool:
    """Axis/rotation agreement plus anticlockwise interval containment.

    The arc [beta_i -> gamma_i] must lie inside [beta_j -> gamma_j] on the
    circle, with dbeta/dgamma slack at the two ends.
    """
    if not _same_axes(i, j, t):
        return False
    if _closed(i, j):
        return True
    s = _phi_flip(i, j)
    span_j = (j.gamma - j.beta) % 360.0
    span_i = (i.gamma - i.beta) % 360.0
    u = (i.beta + s - j.beta) % 360.0
    if u > 360.0 - t.dbeta:
        u -= 360.0  # start slightly before the container start, within slack
    return u >= -t.dbeta and u + span_i <= span_j + t.dgamma


def _points(i: PointCode, j: PointCode, t: MatchTolerances) -> bool:
    """Equivalence and subset of dots alike: positions are ignored, as for
    every primitive, so two dots always relate."""
    return True


_EQUIV = {LineSegmentCode: line_equiv, EllipseArcCode: arc_equiv, PointCode: _points}
_SUBSET = {LineSegmentCode: line_subset, EllipseArcCode: arc_subset, PointCode: _points}


def primitive_equiv(i, j, t: MatchTolerances) -> bool:
    """Kind-respecting equivalence; cross-kind comparisons are false."""
    return type(i) is type(j) and _EQUIV[type(i)](i, j, t)


def primitive_subset(i, j, t: MatchTolerances) -> bool:
    return type(i) is type(j) and _SUBSET[type(i)](i, j, t)


def freeman_sum(dirs) -> int:
    """Direction of the vector sum of the codes' unit vectors; 9 if null."""
    sx = sy = 0.0
    for d in dirs:
        if d == FREEMAN_NULL:
            continue
        ang = math.radians(45.0 * d)
        sx += math.cos(ang)
        sy -= math.sin(ang)  # screen coordinates: y grows down
    if math.hypot(sx, sy) < 1e-9:
        return FREEMAN_NULL
    return freeman_direction((0.0, 0.0), (sx, sy))


def element_equiv(ci: CodedElement, cj: CodedElement, t: MatchTolerances) -> bool:
    return ci.dirs == cj.dirs and primitive_equiv(ci.code, cj.code, t)


def element_subset(ci: CodedElement, cj: CodedElement, t: MatchTolerances) -> bool:
    """The three directions agree (9 on the probe side is a wildcard),
    and the primitives are of one kind with `ci`'s a subset of `cj`'s.

    The directions are checked first, and a pair that differs returns
    False before the kind and parameters are looked at.
    """
    (p1, p2, p3), (q1, q2, q3) = ci.dirs, cj.dirs
    if (
        (p1 != q1 and p1 != FREEMAN_NULL)
        or (p2 != q2 and p2 != FREEMAN_NULL)
        or (p3 != q3 and p3 != FREEMAN_NULL)
    ):
        return False
    code = ci.code
    kind = type(code)
    return kind is type(cj.code) and _SUBSET[kind](code, cj.code, t)


def element_match(ci: CodedElement, dseq, q: int, k: int, t: MatchTolerances) -> bool:
    """Does `ci` match d[q+k], absorbing d[q+1..q+k-1] via direction sums?

    The element's primitive must be a subset of d[q+k]'s primitive, and
    each of its directions must equal the Freeman sum of the corresponding
    directions of d[q+1..q+k] (9 on the probe side is a wildcard).  The
    chaining of the previous element to d[q] is the caller's concern.
    """
    if k < 1:
        raise IndexError("k must be at least 1")
    if q < 0 or q + k >= len(dseq):
        raise IndexError("q or q + k outside the target sequence")
    if not primitive_subset(ci.code, dseq[q + k].code, t):
        return False
    for j in range(3):
        if ci.dirs[j] == FREEMAN_NULL:
            continue
        summed = freeman_sum(dseq[q + r].dirs[j] for r in range(1, k + 1))
        if ci.dirs[j] != summed:
            return False
    return True


def sequence_equiv(cseq, dseq, t: MatchTolerances) -> bool:
    return len(cseq) == len(dseq) and all(
        element_equiv(c, d, t) for c, d in zip(cseq, dseq)
    )


def subset_alignment(cseq, dseq, t: MatchTolerances, anchor: int | None = None):
    """Monotone alignment witnessing `cseq` subset-of `dseq`, or None.

    Positions r_1 < r_2 < ... < r_n are searched exhaustively: c_1 must be
    an element subset of d[r_1] (r_1 = `anchor` when given), and each
    later c_i must be an element subset of d[r_i] or match d[r_i] through
    the direction sum over d[r_{i-1}+1 .. r_i].  The search is depth-first
    over an explicit stack and returns the earliest alignment; `dead`
    holds the (element index, previous position) states that have no
    completion.  A negative `anchor` raises IndexError.  An anchor past
    m - n gives None, and so does one where c_1 is not an element subset
    of d[anchor]; both return before any search state is built.
    """
    if anchor is not None and anchor < 0:
        raise IndexError("anchor must be at least 0")
    n, m = len(cseq), len(dseq)
    if n == 0:
        return []
    if anchor is None:
        starts = (j for j in range(m - n + 1) if element_subset(cseq[0], dseq[j], t))
    elif anchor > m - n or not element_subset(cseq[0], dseq[anchor], t):
        return None
    else:
        starts = (anchor,)
    dead: set[tuple[int, int]] = set()
    for j in starts:
        path = [j]  # positions chosen so far, one per aligned element
        nxt = [j + 1]  # per open state, the next position to try
        while path:
            i = len(path)
            if i == n:
                return path
            ci, prev, r, last = cseq[i], path[-1], nxt[-1], m - n + i
            while r <= last and not (
                element_subset(ci, dseq[r], t)
                or element_match(ci, dseq, prev, r - prev, t)
            ):
                r += 1
            if r > last:
                dead.add((i, prev))
                path.pop()
                nxt.pop()
            else:
                nxt[-1] = r + 1
                if (i + 1, r) not in dead:
                    path.append(r)
                    nxt.append(r + 1)
    return None


def sequence_subset(cseq, dseq, t: MatchTolerances) -> bool:
    return subset_alignment(cseq, dseq, t) is not None
