"""Output checks made apart from the program under test.

The alignment check re-implements the documented matching relations
(tolerance tests on primitives, Freeman directions with a 9 wildcard on
the probe side, direction sums over absorbed elements) and enumerates
every monotone alignment; it shares no code with ``glyphcode.matcher``.
"""

from __future__ import annotations

import difflib
import itertools
import math

from glyphcode import EllipseArcCode, LineSegmentCode, PointCode

FREEMAN = frozenset(range(8)) | {9}


def glyph_accuracy(pairs) -> float:
    """Per-glyph rate over (truth, got) label lists, as criterion 7 scores it."""
    correct = total = 0
    for truth, got in pairs:
        matcher = difflib.SequenceMatcher(None, list(truth), list(got))
        correct += sum(block.size for block in matcher.get_matching_blocks())
        total += len(truth)
    return correct / total


# ---------------------------------------------------------------------------
# well-formed codes


def element_faults(word) -> list[str]:
    """Every element with bad directions, non-finite parameters or bad sizes."""
    faults = []
    for si, entry in enumerate(word.subwords):
        if len(entry.dirs) != 3 or not set(entry.dirs) <= FREEMAN:
            faults.append(f"sub-word {si}: directions {entry.dirs}")
        faults.extend(f"sub-word {si}: {f}" for f in code_faults(entry.code))
    return faults


def code_faults(code) -> list[str]:
    faults = []
    for k, el in enumerate(code.elements):
        c = el.code
        if len(el.dirs) != 3 or not set(el.dirs) <= FREEMAN:
            faults.append(f"element {k}: directions {el.dirs}")
        if not all(math.isfinite(v) for v in vars(c).values()):
            faults.append(f"element {k}: non-finite {c}")
        elif isinstance(c, LineSegmentCode) and not c.l > 0:
            faults.append(f"element {k}: line length {c.l}")
        elif isinstance(c, EllipseArcCode) and not c.a >= c.b > 0:
            faults.append(f"element {k}: arc axes {c.a}, {c.b}")
    return faults


# ---------------------------------------------------------------------------
# matching relations, written from their documented definitions


def _ang180(a, b):
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


def _ang360(a, b):
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def _primitive_within(i, j, t) -> bool:
    """Probe primitive `i` is a subset of target primitive `j`."""
    if isinstance(i, PointCode) and isinstance(j, PointCode):
        return True
    if isinstance(i, LineSegmentCode) and isinstance(j, LineSegmentCode):
        return i.l <= j.l + t.dl and _ang180(i.alpha, j.alpha) < t.dalpha
    if isinstance(i, EllipseArcCode) and isinstance(j, EllipseArcCode):
        if not (
            abs(i.a - j.a) < t.da
            and abs(i.b - j.b) < t.db
            and _ang180(i.phi, j.phi) < t.dphi
        ):
            return False
        span_i = (i.gamma - i.beta) % 360.0
        span_j = (j.gamma - j.beta) % 360.0
        if span_i >= 349.0 and span_j >= 349.0:
            return True
        flip = 180.0 if _ang360(i.phi, j.phi) > 90.0 else 0.0
        start = (i.beta + flip - j.beta) % 360.0
        if start > 360.0 - t.dbeta:
            start -= 360.0
        return start >= -t.dbeta and start + span_i <= span_j + t.dgamma
    return False


def _direction_sum(codes) -> int:
    """Freeman code of the sum of unit vectors; 9 when they cancel."""
    sx = sum(math.cos(math.radians(45.0 * d)) for d in codes if d != 9)
    sy = sum(math.sin(math.radians(45.0 * d)) for d in codes if d != 9)
    if math.hypot(sx, sy) < 1e-9:
        return 9
    q = (math.degrees(math.atan2(sy, sx)) % 360.0 + 22.5) / 45.0
    k = math.floor(q)
    if q == k:  # on a sector boundary: the lower code
        k -= 1
    return k % 8


def _element_fits(c, dseq, prev, cur, t) -> bool:
    """Element `c` placed on dseq[cur], right after dseq[prev] was used."""
    d = dseq[cur]
    if not _primitive_within(c.code, d.code, t):
        return False
    if all(p == 9 or p == q for p, q in zip(c.dirs, d.dirs)):
        return True
    if prev is None or cur - prev < 2:
        return False
    return all(
        p == 9 or p == _direction_sum(dseq[r].dirs[j] for r in range(prev + 1, cur + 1))
        for j, p in enumerate(c.dirs)
    )


def alignments(cseq, dseq, anchor: int, t):
    """Every monotone alignment of `cseq` into `dseq` whose first slot is `anchor`."""
    n, m = len(cseq), len(dseq)
    if n == 0 or not 0 <= anchor < m or not _element_fits(cseq[0], dseq, None, anchor, t):
        return
    for rest in itertools.combinations(range(anchor + 1, m), n - 1):
        slots = (anchor,) + rest
        if all(
            _element_fits(cseq[i], dseq, slots[i - 1], slots[i], t) for i in range(1, n)
        ):
            yield slots


def placement_faults(word, placements, codes, t) -> list[str]:
    """Placements that no set of disjoint monotone alignments can explain.

    `codes` maps (glyph, position) to the entry's SubWordCode.  Every
    placement must align at its (sub-word, offset), and the placements in
    one sub-word must be satisfiable by pairwise disjoint alignments.
    """
    faults = []
    per_subword: dict[int, list] = {}
    for glyph, pos, (si, j) in placements:
        if (glyph, pos) not in codes or not 0 <= si < len(word.subwords):
            faults.append(f"{glyph}/{pos} at {(si, j)}: no such entry or sub-word")
            continue
        found = list(
            alignments(codes[glyph, pos].elements, word.subwords[si].code.elements, j, t)
        )
        if not found:
            faults.append(f"{glyph}/{pos} at {(si, j)}: no alignment")
        per_subword.setdefault(si, []).append(found)
    for si, options in per_subword.items():
        if not _disjoint_choice(options, frozenset()):
            faults.append(f"sub-word {si}: placements overlap")
    return faults


def _disjoint_choice(options, used) -> bool:
    if not options:
        return True
    return any(
        _disjoint_choice(options[1:], used | set(slots))
        for slots in options[0]
        if used.isdisjoint(slots)
    )
