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
from dataclasses import dataclass, replace

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
    "find_matches",
]


@dataclass(frozen=True)
class MatchTolerances:
    """Accuracy factors for code comparison.

    Lengths/axes in px, angles in degrees.  `dpt` is accepted for config
    compatibility but unused: points compare position-independently like
    every other primitive.
    """

    dl: float = 2.0
    dalpha: float = 5.0
    da: float = 2.0
    db: float = 2.0
    dphi: float = 5.0
    dbeta: float = 5.0
    dgamma: float = 5.0
    dpt: float = 2.0

    def scaled(self, factor: float) -> "MatchTolerances":
        """Length-like tolerances multiplied by `factor`; angles unchanged."""
        return replace(
            self,
            dl=self.dl * factor,
            da=self.da * factor,
            db=self.db * factor,
            dpt=self.dpt * factor,
        )


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
    return i.l <= j.l + t.dl and angdist180(i.alpha, j.alpha) < t.dalpha


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


def _dirs_subset(probe_dirs, target_dirs) -> bool:
    """Direction agreement with 9-wildcard on the probe side."""
    return all(p == FREEMAN_NULL or p == q for p, q in zip(probe_dirs, target_dirs))


def element_equiv(ci: CodedElement, cj: CodedElement, t: MatchTolerances) -> bool:
    return ci.dirs == cj.dirs and primitive_equiv(ci.code, cj.code, t)


def element_subset(ci: CodedElement, cj: CodedElement, t: MatchTolerances) -> bool:
    return _dirs_subset(ci.dirs, cj.dirs) and primitive_subset(ci.code, cj.code, t)


def element_match(ci: CodedElement, dseq, q: int, k: int, t: MatchTolerances) -> bool:
    """Does `ci` match d[q+k], absorbing d[q+1..q+k-1] via direction sums?

    The element's primitive must be a subset of d[q+k]'s primitive, and
    each of its directions must equal the Freeman sum of the corresponding
    directions of d[q+1..q+k] (9 on the probe side is a wildcard).  The
    chaining of the previous element to d[q] is the caller's concern.
    """
    if k < 1:
        raise IndexError("k must be at least 1")
    if not 0 <= q + k < len(dseq):
        raise IndexError("q + k outside the target sequence")
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
    completion.
    """
    n, m = len(cseq), len(dseq)
    if n == 0:
        return []
    if n > m:
        return None
    dead: set[tuple[int, int]] = set()
    for j in [anchor] if anchor is not None else range(m - n + 1):
        if j > m - n or not element_subset(cseq[0], dseq[j], t):
            continue
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


def find_matches(word, target, t: MatchTolerances):
    """All (sub-word index, anchor offset) where `target` occurs in `word`.

    `target` is a SubWordCode; an occurrence is a subset alignment of its
    elements into a sub-word's element sequence, anchored at the offset.
    """
    hits = []
    telems = target.elements
    for si, entry in enumerate(word.subwords):
        delems = entry.code.elements
        for j in range(len(delems) - len(telems) + 1):
            if subset_alignment(telems, delems, t, anchor=j) is not None:
                hits.append((si, j))
    return hits
