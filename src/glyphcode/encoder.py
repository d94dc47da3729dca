"""Stroke decomposition into point/line/arc primitives with Freeman relations.

A thinned stroke is decomposed by first harvesting straight pixel runs
(greedy growth under a distance budget), then clustering the leftover
pixels into ellipse-arc runs.  Each resulting primitive carries three
Freeman directions toward the next three primitives; sub-words carry the
same relation between their centroids at word level.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, fields, replace
from itertools import chain, combinations, count
from operator import itemgetter

import numpy as np

from .geomfit import (
    DegenerateInputError,
    EllipseArcCode,
    EllipseCoefficients,
    LineSegmentCode,
    Moments,
    NonEllipseError,
    arc_angles,
    conic_to_geometric,
    fit_ellipse,
    fit_line,
    point_line_distance,
    sampson_residual,
)
from .raster import BinaryRaster, Stroke, component_paths, pixel_centroid, segment, thin

__all__ = [
    "FREEMAN_NULL",
    "PointCode",
    "CodedElement",
    "SubWordCode",
    "WordEntry",
    "WordCode",
    "EncoderConfig",
    "EllipseArcCode",
    "LineSegmentCode",
    "freeman_direction",
    "order_strokes",
    "neighbor_directions",
    "extract_lines",
    "cluster_ellipses",
    "encode_stroke",
    "encode_word",
    "scale_subword",
    "scale_word",
    "word_to_json",
    "word_from_json",
    "subword_to_obj",
    "subword_from_obj",
]

FREEMAN_NULL = 9


@dataclass(frozen=True)
class PointCode:
    """A dot, represented by its centroid."""

    x: float
    y: float


@dataclass(frozen=True)
class CodedElement:
    """One primitive plus Freeman directions to the next three elements.

    `anchor` is the centroid of the pixels that produced the primitive;
    it drives ordering and direction computation and is not part of the
    serialized code.
    """

    code: PointCode | LineSegmentCode | EllipseArcCode
    dirs: tuple[int, int, int]
    anchor: tuple[float, float] | None = None


@dataclass(frozen=True)
class SubWordCode:
    elements: tuple[CodedElement, ...]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class WordEntry:
    code: SubWordCode
    dirs: tuple[int, int, int]


@dataclass(frozen=True)
class WordCode:
    subwords: tuple[WordEntry, ...]

    def __len__(self) -> int:
        return len(self.subwords)


@dataclass(frozen=True)
class EncoderConfig:
    """Decomposition knobs.

    dd      -- line accuracy factor: max point-to-line distance, px
    l_min   -- minimum kept segment length, px
    e_res   -- max mean squared normalized algebraic distance for arc runs
               (gradient-weighted, approximately px^2)
    dot_max -- max pixel count for a stroke to be coded as a dot
    """

    dd: float = 1.0
    l_min: float = 22.0
    e_res: float = 0.5
    dot_max: int = 9


def freeman_direction(src, dst) -> int:
    """Freeman code of the direction src -> dst in screen coordinates.

    0=E, 1=NE, 2=N, ... anticlockwise, with the image y-axis pointing
    down compensated; 9 when the points coincide.  Sector boundaries
    round toward the lower code.
    """
    dx = dst[0] - src[0]
    dy = dst[1] - src[1]
    if math.hypot(dx, dy) < 1e-12:
        return FREEMAN_NULL
    ang = math.degrees(math.atan2(-dy, dx)) % 360.0
    q = (ang + 22.5) / 45.0
    k = math.floor(q)
    if q == k:  # exactly on a sector boundary
        k -= 1
    return int(k) % 8


def order_strokes(strokes) -> list[Stroke]:
    """Left-to-right, top-to-bottom by centroid; bigger strokes first on ties."""
    return sorted(
        strokes, key=lambda s: (s.centroid[0], s.centroid[1], -len(s.pixels))
    )


def neighbor_directions(anchors) -> list[tuple[int, int, int]]:
    """Freeman directions from each anchor to the following three anchors."""
    n = len(anchors)
    return [
        tuple(
            freeman_direction(anchors[i], anchors[i + j]) if i + j < n else FREEMAN_NULL
            for j in (1, 2, 3)
        )
        for i in range(n)
    ]


# A screened distance this close to dd is decided by fit_line and
# point_line_distance.  Their p and normal (taken back from degrees) round
# with errors that grow with the distance from the origin: about 1e-12 px
# at coordinates near 1e3 and 2e-11 px near 2e4, 50 times inside the band.
_TIE_BAND = 1e-9


def extract_lines(stroke: Stroke, cfg: EncoderConfig):
    """Harvest straight runs from the stroke's skeleton pixels.

    Walks the stroke's maximal paths (`Stroke.paths`, as
    `raster.walk_paths` gives them); each run seeds on two
    pixels and grows while the next path pixel stays within `dd` of the
    best-fit line of the run so far.  Each step is screened in floats from the run's integer sums:
    the pixel's distance from the centroid along `fit_line`'s normal
    angle, with no `Moments` or `PolarLine` built.  Only a screened
    distance within `_TIE_BAND` (1e-9 px) of `dd` is decided by
    `fit_line` and `point_line_distance`, so the runs are exactly those
    of refitting after every append.  `fit_line` builds every run's line
    where it stops and again after each trim cut.  Runs whose projected
    extent exceeds `l_min` are kept as segments and claim their pixels
    (the terminating corner pixel stays with the just-closed run);
    everything else ends up in the residual set.  Staircase pixels beside
    a run need no handling here: `thin` has already pruned them.
    """
    dd = cfg.dd
    out = []
    residual: set[tuple[int, int]] = set()
    for path in stroke.paths:
        i = 0
        n = len(path)
        while i < n:
            if n - i < 2:
                residual.update(path[i:])
                break
            # the integer sums n, Sx, Sy, Sxx, Sxy, Syy of the run path[i:j]
            k, sx, sy, sxx, sxy, syy = Moments.of(path[i : i + 2]).sums
            j = i + 2
            while j < n:
                x, y = path[j]
                cxx, cxy, cyy = k * sxx - sx * sx, k * sxy - sx * sy, k * syy - sy * sy
                a = 0.5 * math.atan2(-2 * cxy, cyy - cxx)  # as in fit_line
                d = abs((k * x - sx) * math.cos(a) + (k * y - sy) * math.sin(a)) / k
                if abs(d - dd) <= _TIE_BAND:
                    line = fit_line(Moments((k, sx, sy, sxx, sxy, syy)))
                    d = point_line_distance((x, y), line)
                if d > dd:
                    break
                k, sx, sy = k + 1, sx + x, sy + y
                sxx, sxy, syy = sxx + x * x, sxy + x * y, syy + y * y
                j += 1
            # the fit can drift as the run grows: trim the tail until every
            # claimed pixel really is within dd of the run's own line (the
            # arithmetic of point_line_distance and, below, segment_extent)
            while True:
                line = fit_line(Moments((k, sx, sy, sxx, sxy, syy)))
                (c, s), p = line.normal, line.p
                if j - i == 2 or all(abs(x * c + y * s - p) <= dd for x, y in path[i:j]):
                    break
                j -= 1
                x, y = path[j]
                k, sx, sy = k - 1, sx - x, sy - y
                sxx, sxy, syy = sxx - x * x, sxy - x * y, syy - y * y
            run = path[i:j]
            along = [x * -s + y * c for x, y in run]
            length = max(along) - min(along)
            if length > cfg.l_min:
                out.append((LineSegmentCode(p, line.alpha, length), frozenset(run)))
            else:
                residual.update(run)
            i = j
    return out, residual


def _arc_from_run(run, coef: EllipseCoefficients | None) -> EllipseArcCode | None:
    """Code the arc of the run's fitted ellipse, if it has one."""
    if coef is None:
        return None
    try:
        geo = conic_to_geometric(coef)
    except NonEllipseError:
        return None
    # the arc endpoints are wherever the pixels leave the largest angular
    # gap around the fitted center (robust to arbitrary run ordering)
    x0, y0, _, _, phi = geo

    # a stable sort by angle alone: equal angles keep the set's order
    by_angle = sorted(
        (((math.degrees(math.atan2(y - y0, x - x0)) - phi) % 360.0, (x, y))
         for x, y in set(run)),
        key=itemgetter(0),
    )
    gaps = [
        ((by_angle[(k + 1) % len(by_angle)][0] - ang) % 360.0, k)
        for k, (ang, _) in enumerate(by_angle)
    ]
    _, k = max(gaps)
    start, end = by_angle[(k + 1) % len(by_angle)][1], by_angle[k][1]
    try:  # raises on a one-pixel run too, where start == end
        beta, gamma = arc_angles(geo, start, end)
    except DegenerateInputError:
        return None
    # a closed curve has no meaningful endpoints: canonicalize so equal
    # shapes produce equal codes regardless of where the tiny gap fell
    if (gamma - beta) % 360.0 >= 350.0:
        beta, gamma = 0.0, 359.0
    return EllipseArcCode(geo[0], geo[1], geo[2], geo[3], phi, beta, gamma)


# candidate ends in a run's first growth block; each later block doubles
_FIRST_BLOCK = 4


def _join(a, b):
    """Two runs (pixels, moments) as one."""
    return a[0] + b[0], a[1] + b[1]


def _merged_arc(a, b, cfg: EncoderConfig):
    """The union of two runs with its arc code, if one ellipse fits it
    within `e_res`; otherwise None."""
    union = pixels, moments = _join(a, b)
    coef = fit_ellipse([moments])[0]
    if coef is None:
        return None
    # the union's float points in one flat pass, not one tuple at a time
    pts = np.fromiter(chain.from_iterable(pixels), float, 2 * len(pixels)).reshape(-1, 2)
    if sampson_residual(pts, coef) > cfg.e_res:
        return None
    code = _arc_from_run(pixels, coef)
    return None if code is None else (union, code)


def _rejoin_arcs(arcs, cfg: EncoderConfig) -> None:
    """Merge (run, arc code) pairs in place, first pair first in the
    order of `combinations`, while a union fits one ellipse; the union
    takes the first run's place.

    After a merge into index ia, every earlier pair without the union has
    already failed, so the scan tries the pairs (x, ia), x < ia, and then
    resumes at (ia, ia + 1).  A union depends only on its two runs, so a
    failed pair is remembered by the runs' serial numbers (ids get reused)
    and never refitted.
    """
    serials = list(range(len(arcs)))
    fresh = count(len(arcs))
    failed: set[tuple[int, int]] = set()
    start = 0
    while True:
        n = len(arcs)
        pairs = chain(((x, start) for x in range(start)), combinations(range(start, n), 2))
        for ia, ib in pairs:
            key = (serials[ia], serials[ib])
            if key not in failed:
                if merged := _merged_arc(arcs[ia][0], arcs[ib][0], cfg):
                    break
                failed.add(key)
        else:
            return
        arcs[ia], serials[ia] = merged, next(fresh)
        del arcs[ib], serials[ib]
        start = ia


def cluster_ellipses(residual, cfg: EncoderConfig):
    """Group leftover pixels into ellipse-arc runs.

    The residual is split into 8-connected components, each walked as
    `raster.walk_paths` does (`raster.component_paths` reads each pixel's
    ring once for both); along a path, runs seed on 5 pixels and grow
    greedily, one pixel at a time, while the gradient-weighted fit
    residual stays within `e_res`; a run that cannot be fitted yet keeps
    growing.  The growth is evaluated in blocks of candidate ends,
    `_FIRST_BLOCK` at first and doubling: one `fit_ellipse` call fits
    every candidate of a block with one stacked eigensolve, one
    `sampson_residual` call measures each on its own prefix, and the run
    stops before the first candidate over `e_res`.  Each candidate reads
    exactly the numbers a one-pixel step would, so the runs are those of
    the one-step loop; the candidates past the stop are the only extra
    work, fewer than the block that holds it.

    A run that cannot host an ellipse is joined to the accepted run of
    its component whose centroid is nearest its own, if that union still
    codes an arc, and is otherwise returned as a leftover group for the
    caller to degrade into a point.  A run carries its pixels and their
    moments about the component's bounding-box corner, so joining two
    runs is one addition.

    Returns (arcs, leftovers): arcs as (EllipseArcCode, pixel set) pairs.
    """
    arcs: list[tuple[EllipseArcCode, frozenset]] = []
    leftovers: list[frozenset] = []
    for comp, paths in component_paths(residual):
        origin = (min(x for x, _ in comp), min(y for _, y in comp))
        comp_arcs: list[tuple[tuple, EllipseArcCode]] = []  # (run, arc code)
        comp_small: list[tuple] = []
        for path in paths:
            rows = Moments.prefix(path, 4, origin)
            pts = np.array(path, dtype=float)
            i = 0
            n = len(path)
            while i < n:
                if n - i < 5:
                    comp_small.append((path[i:], rows[n] - rows[i]))
                    break
                j = i + 5
                coef = None  # the fit of path[i:j] once the run has grown
                size = _FIRST_BLOCK
                while j < n:
                    ends = range(j + 1, min(j + size, n) + 1)
                    fits = fit_ellipse([rows[e] - rows[i] for e in ends])
                    res = sampson_residual(pts[i : ends[-1]], fits)
                    # the first fitted run over e_res stops the growth; a run
                    # that cannot be fitted yet keeps growing
                    over = [
                        k for k, r in enumerate(res) if r is not None and r > cfg.e_res
                    ]
                    grown = over[0] if over else len(fits)
                    if grown:
                        coef = fits[grown - 1]
                    j += grown
                    if over:
                        break
                    size *= 2
                if j == i + 5:
                    coef = fit_ellipse([rows[j] - rows[i]])[0]
                run = (path[i:j], rows[j] - rows[i])
                code = _arc_from_run(run[0], coef)
                if code is not None:
                    comp_arcs.append((run, code))
                else:
                    comp_small.append(run)
                i = j
        # incremental growth is brittle on shallow partial arcs: re-join
        # runs, first pair first, while a union still fits a single ellipse
        _rejoin_arcs(comp_arcs, cfg)
        # merge undersized runs into the nearest accepted run in the component
        for small in comp_small:
            if comp_arcs:
                sc = pixel_centroid(small[0])
                nearest = min(
                    range(len(comp_arcs)),
                    key=lambda k: math.dist(sc, pixel_centroid(comp_arcs[k][0][0])),
                )
                merged = _join(comp_arcs[nearest][0], small)
                coef = fit_ellipse([merged[1]])[0]
                if (code := _arc_from_run(merged[0], coef)) is not None:
                    comp_arcs[nearest] = (merged, code)
                    continue
            leftovers.append(frozenset(small[0]))
        arcs.extend((code, frozenset(run[0])) for run, code in comp_arcs)
    return arcs, leftovers


def encode_stroke(stroke: Stroke, cfg: EncoderConfig) -> SubWordCode:
    """Code one stroke as an ordered primitive sequence with directions."""
    if len(stroke.pixels) <= cfg.dot_max:  # a dot: one leftover group
        segments, arcs, leftovers = [], [], [stroke.pixels]
    else:
        segments, residual = extract_lines(stroke, cfg)
        arcs, leftovers = cluster_ellipses(residual, cfg)
    primitives = [(code, pixel_centroid(pixels)) for code, pixels in segments + arcs]
    primitives += [(PointCode(*c), c) for c in map(pixel_centroid, leftovers)]
    # same ordering rule as strokes: left-to-right, top-to-bottom
    primitives.sort(key=lambda pr: (pr[1][0], pr[1][1]))
    anchors = [pr[1] for pr in primitives]
    dirs = neighbor_directions(anchors)
    return SubWordCode(
        tuple(
            CodedElement(code, d, anchor)
            for (code, anchor), d in zip(primitives, dirs)
        )
    )


def encode_word(image: BinaryRaster, cfg: EncoderConfig = EncoderConfig()) -> WordCode:
    """Full pipeline: thin, segment, order, encode, relate sub-words."""
    skeleton = thin(image)
    strokes = order_strokes(segment(skeleton))
    codes = [encode_stroke(s, cfg) for s in strokes]
    dirs = neighbor_directions([s.centroid for s in strokes])
    return WordCode(
        tuple(WordEntry(code, d) for code, d in zip(codes, dirs))
    )


# ---------------------------------------------------------------------------
# scaling (used for size normalization when building codebooks)

# the length-like fields of each primitive kind
_SCALED = {
    PointCode: ("x", "y"),
    LineSegmentCode: ("p", "l"),
    EllipseArcCode: ("x0", "y0", "a", "b"),
}


def _scale_primitive(code, f: float):
    return replace(code, **{k: getattr(code, k) * f for k in _SCALED[type(code)]})


def scale_subword(code: SubWordCode, f: float) -> SubWordCode:
    """Scale all lengths/axes/positions by `f`; angles and directions stay."""
    return SubWordCode(
        tuple(
            CodedElement(
                _scale_primitive(el.code, f),
                el.dirs,
                None if el.anchor is None else (el.anchor[0] * f, el.anchor[1] * f),
            )
            for el in code.elements
        )
    )


def scale_word(word: WordCode, f: float) -> WordCode:
    return WordCode(
        tuple(
            WordEntry(scale_subword(e.code, f), e.dirs) for e in word.subwords
        )
    )


# ---------------------------------------------------------------------------
# JSON forms: lines [p, alpha, l], arcs [x0, y0, a, b, phi, beta, gamma],
# points [x, y]; elements {"code": ..., "dirs": [F1, F2, F3]}

_KIND_BY_ARITY = {
    len(fields(k)): k for k in (PointCode, LineSegmentCode, EllipseArcCode)
}


def _number_from_obj(v) -> float:
    """`v` as a float when it is a JSON number; a bool, a string or an
    integer too large for a float is not."""
    if type(v) not in (int, float):
        raise ValueError(f"expected a JSON number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"number too large for a float: {v}") from None


def _primitive_from_obj(obj):
    """A primitive the encoder can emit: finite parameters, lines of
    positive length, arcs with a >= b > 0."""
    vals = [_number_from_obj(v) for v in obj]
    if len(vals) not in _KIND_BY_ARITY:
        raise ValueError(f"primitive arity {len(vals)} not recognized")
    code = _KIND_BY_ARITY[len(vals)](*vals)
    if not (
        all(map(math.isfinite, vals))
        and (not isinstance(code, LineSegmentCode) or code.l > 0)
        and (not isinstance(code, EllipseArcCode) or code.a >= code.b > 0)
    ):
        raise ValueError(f"no encoder emits {code}")
    return code


def _dirs_from_obj(obj) -> tuple[int, int, int]:
    dirs = tuple(obj)
    if len(dirs) != 3 or not all(
        type(d) in (int, float) and (d in range(8) or d == FREEMAN_NULL) for d in dirs
    ):
        raise ValueError(f"Freeman directions must be three of 0-7 or 9, got {obj!r}")
    return tuple(map(int, dirs))


def subword_to_obj(code: SubWordCode):
    return [
        {"code": list(astuple(el.code)), "dirs": list(el.dirs)}
        for el in code.elements
    ]


def subword_from_obj(obj) -> SubWordCode:
    return SubWordCode(
        tuple(
            CodedElement(
                _primitive_from_obj(el["code"]),
                _dirs_from_obj(el["dirs"]),
            )
            for el in obj
        )
    )


def word_to_json(word: WordCode, indent=None) -> str:
    obj = [
        {"elements": subword_to_obj(e.code), "dirs": list(e.dirs)}
        for e in word.subwords
    ]
    return json.dumps(obj, indent=indent)


def word_from_json(text: str) -> WordCode:
    obj = json.loads(text)
    return WordCode(
        tuple(
            WordEntry(
                subword_from_obj(e["elements"]),
                _dirs_from_obj(e["dirs"]),
            )
            for e in obj
        )
    )
