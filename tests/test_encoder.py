"""Encoder: Freeman directions, decomposition, sub-word/word codes, JSON."""

import gc
import json
import math
import random

import numpy as np
import pytest
from scipy import ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from glyphcode import (
    BinaryRaster,
    CodedElement,
    EncoderConfig,
    EllipseArcCode,
    LineSegmentCode,
    PointCode,
    Stroke,
    WordCode,
    encode_stroke,
    encode_word,
    fit_line,
    freeman_direction,
    neighbor_directions,
    order_strokes,
    point_line_distance,
    scale_word,
    segment_extent,
    word_from_json,
    word_to_json,
)
from glyphcode import encoder, segment, thin
from glyphcode.raster import neighbors
from glyphcode.encoder import _arc_from_run, _walk_paths, cluster_ellipses, extract_lines
from glyphcode.geomfit import EllipseCoefficients
from glyphcode.render import DEMO_GLYPHS, render_glyph, render_word_image
from conftest import (
    random_blob,
    random_pixel_run,
    reference_cluster_ellipses,
    reference_walk_paths,
    sample_ellipse,
)


# ---------------------------------------------------------------------------
# freeman_direction


def test_freeman_cardinals():
    assert freeman_direction((0, 0), (5, 0)) == 0
    assert freeman_direction((0, 0), (0, -3)) == 2  # screen north
    assert freeman_direction((0, 0), (-4, 0)) == 4
    assert freeman_direction((0, 0), (0, 6)) == 6


def test_freeman_diagonals():
    assert freeman_direction((0, 0), (1, -1)) == 1
    assert freeman_direction((0, 0), (-1, -1)) == 3
    assert freeman_direction((0, 0), (-1, 1)) == 5
    assert freeman_direction((0, 0), (1, 1)) == 7


def test_freeman_null():
    assert freeman_direction((3, 3), (3, 3)) == 9


def test_freeman_boundary_rounds_down():
    # 22.5 degrees is the boundary between sectors 0 and 1
    assert freeman_direction((0, 0), (math.cos(math.radians(22.5)),
                                      -math.sin(math.radians(22.5)))) == 0


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0, max_value=359.999, allow_nan=False))
def test_freeman_sector_membership(angle):
    # direction code equals the 45-degree sector of the mathematical angle
    dx = math.cos(math.radians(angle))
    dy = -math.sin(math.radians(angle))  # screen y
    code = freeman_direction((0.0, 0.0), (dx, dy))
    expected = math.floor((angle + 22.5) / 45.0)
    if (angle + 22.5) / 45.0 == expected:
        expected -= 1
    assert code == expected % 8


# ---------------------------------------------------------------------------
# ordering and directions


def test_order_strokes_by_centroid():
    a = Stroke(((5, 1),))
    b = Stroke(((2, 9),))
    assert order_strokes([a, b]) == [b, a]


def test_order_strokes_tie_on_x():
    a = Stroke(((2, 9),))
    b = Stroke(((2, 1),))
    assert order_strokes([a, b]) == [b, a]


def test_order_single():
    s = Stroke(((1, 1),))
    assert order_strokes([s]) == [s]


def test_neighbor_directions_basic():
    assert neighbor_directions([(0, 0), (5, 0)]) == [(0, 9, 9), (9, 9, 9)]
    assert neighbor_directions([(0, 0)]) == [(9, 9, 9)]


def test_neighbor_directions_three_ahead():
    dirs = neighbor_directions([(0, 0), (5, 0), (5, -5), (10, -5)])
    assert dirs[0] == (0, 1, 1)
    assert dirs[-1] == (9, 9, 9)


# ---------------------------------------------------------------------------
# extract_lines


def _line_pixels(n):
    return tuple((x, 5) for x in range(n))


def test_extract_lines_straight_path():
    cfg = EncoderConfig(dd=1.0, l_min=5.0)
    segs, residual = extract_lines(Stroke(_line_pixels(20)), cfg)
    assert len(segs) == 1
    assert not residual
    code, pixels = segs[0]
    assert code.l == pytest.approx(19.0)
    assert len(pixels) == 20


def test_extract_lines_right_angle():
    arm1 = [(x, 0) for x in range(15)]
    arm2 = [(14, y) for y in range(1, 15)]
    cfg = EncoderConfig(dd=0.8, l_min=5.0)
    segs, residual = extract_lines(Stroke(tuple(arm1 + arm2)), cfg)
    assert len(segs) == 2
    assert not residual
    # corner pixel belongs to the first-claimed segment
    sets = [px for _, px in segs]
    assert sum((14, 0) in s for s in sets) == 1


def test_extract_lines_circle_all_residual():
    pts = sorted(
        {
            (round(6 + 6 * math.cos(t)), round(6 + 6 * math.sin(t)))
            for t in np.linspace(0, 2 * math.pi, 60)
        }
    )
    cfg = EncoderConfig(dd=0.5, l_min=5.0)
    segs, residual = extract_lines(Stroke(tuple(pts)), cfg)
    assert segs == []
    assert residual == set(pts)


def test_extract_lines_claimed_within_dd():
    cfg = EncoderConfig(dd=1.0, l_min=10.0)
    stroke = Stroke(tuple(set(render_glyph("zig", 60).foreground())))
    from glyphcode.geomfit import PolarLine, point_line_distance

    segs, _ = extract_lines(stroke, cfg)
    for code, pixels in segs:
        line = PolarLine(code.p, code.alpha)
        assert all(point_line_distance(p, line) <= cfg.dd + 1e-9 for p in pixels)


def _polyline(*corners):
    """8-connected pixels along straight pieces between the corners."""
    pixels = [corners[0]]
    for (x0, y0), (x1, y1) in zip(corners, corners[1:]):
        n = max(abs(x1 - x0), abs(y1 - y0))
        pixels += [
            (x0 + round((x1 - x0) * k / n), y0 + round((y1 - y0) * k / n))
            for k in range(1, n + 1)
        ]
    return pixels


@pytest.mark.parametrize(
    "end, stray, absorbed", [((18, -1), (8, 3), True), ((16, 8), (13, 3), False)]
)
def test_extract_lines_absorbs_strays_within_half_a_pixel_of_the_extent(
    end, stray, absorbed
):
    """The walk strands `stray` beside one straight run, within `dd` of its
    line and past the last pixel's projection; it joins the run when it
    projects within 0.5 px of the run's extent, and stays residual past
    that."""
    cfg = EncoderConfig(dd=1.2, l_min=4.0)
    stroke = Stroke(tuple(_polyline((0, 0), (10, 2), end) + [stray]))
    segs, residual = extract_lines(stroke, cfg)
    (run,) = [sorted(px - {stray}) for _, px in segs if neighbors(stray, px)]
    line = fit_line(run)  # exact moments: the line the run was claimed with
    lo, hi = segment_extent(run, line)
    t = segment_extent([stray, stray], line)[0]
    assert point_line_distance(stray, line) <= cfg.dd
    assert hi < t <= hi + 0.5 if absorbed else hi + 0.5 < t < hi + 1
    assert (stray in residual) is not absorbed
    assert residual == (set() if absorbed else {stray})


# ---------------------------------------------------------------------------
# cluster_ellipses


def test_cluster_half_circle():
    pts = {
        (round(20 + 10 * math.cos(t)), round(20 + 10 * math.sin(t)))
        for t in np.linspace(0, math.pi, 40)
    }
    arcs, leftovers = cluster_ellipses(pts, EncoderConfig(e_res=0.5))
    assert len(arcs) == 1
    assert not leftovers
    code, pixels = arcs[0]
    span = (code.gamma - code.beta) % 360.0
    assert span == pytest.approx(180.0, abs=14.0)


def test_arc_from_run_keeps_equal_angles_in_run_order():
    # a circle of radius 5 about (10, 10), and a lower half-circle run that
    # also holds the centre, whose angle reads 0 like that of (15, 10)
    coef = EllipseCoefficients(0.5, 0.0, 0.5, -10.0, -10.0, 87.5)
    half = {
        (10 + round(5 * math.cos(t)), 10 + round(5 * math.sin(t)))
        for t in map(math.radians, range(0, 181, 10))
    }
    run = sorted(half) + [(10, 10)]
    # the arc starts at the first pixel at angle 0 in set order: (15, 10)
    # here, while an (angle, pixel) sort would pick the centre and fail
    tied = [p for p in set(run) if math.atan2(p[1] - 10, p[0] - 10) == 0.0]
    assert tied == [(15, 10), (10, 10)]
    want = EllipseArcCode(10.0, 10.0, 5.0, 5.0, 0.0, 0.0, 180.0)
    assert _arc_from_run(run, coef) == want


def test_cluster_empty():
    assert cluster_ellipses(set(), EncoderConfig()) == ([], [])


def test_cluster_two_blobs():
    def ring(cx):
        return {
            (round(cx + 8 * math.cos(t)), round(20 + 6 * math.sin(t)))
            for t in np.linspace(0, 2 * math.pi, 50)
        }

    arcs, leftovers = cluster_ellipses(
        ring(20) | ring(60), EncoderConfig(e_res=0.5)
    )
    assert len(arcs) == 2
    assert not leftovers


def test_cluster_pixel_conservation():
    pts = {
        (round(20 + 10 * math.cos(t)), round(20 + 8 * math.sin(t)))
        for t in np.linspace(0, 2 * math.pi, 70)
    }
    arcs, leftovers = cluster_ellipses(pts, EncoderConfig(e_res=0.5))
    claimed = set()
    for _, px in arcs:
        claimed |= set(px)
    for group in leftovers:
        claimed |= set(group)
    assert claimed == pts


# ---------------------------------------------------------------------------
# encode_stroke / encode_word


def test_encode_dot():
    code = encode_stroke(Stroke(((4, 4), (5, 4))), EncoderConfig())
    assert len(code.elements) == 1
    el = code.elements[0]
    assert isinstance(el.code, PointCode)
    assert el.dirs == (9, 9, 9)
    assert el.code.x == pytest.approx(4.5)


def test_encode_straight_line_stroke():
    cfg = EncoderConfig(dd=1.0, l_min=5.0, dot_max=9)
    code = encode_stroke(Stroke(_line_pixels(20)), cfg)
    assert len(code.elements) == 1
    assert isinstance(code.elements[0].code, LineSegmentCode)
    assert code.elements[0].dirs == (9, 9, 9)


def test_encode_l_shape_directions():
    arm1 = [(x, 0) for x in range(15)]
    arm2 = [(14, y) for y in range(1, 15)]
    cfg = EncoderConfig(dd=0.8, l_min=5.0)
    code = encode_stroke(Stroke(tuple(arm1 + arm2)), cfg)
    kinds = [type(el.code) for el in code.elements]
    assert kinds == [LineSegmentCode, LineSegmentCode]
    first, second = code.elements
    assert first.dirs[0] == freeman_direction(first.anchor, second.anchor)
    assert second.dirs == (9, 9, 9)


def test_encode_word_blank():
    img = BinaryRaster(np.zeros((10, 10), dtype=bool))
    assert encode_word(img) == WordCode(())


def test_encode_word_single_dot():
    img = BinaryRaster.from_pixels([(3, 3), (4, 3)], 8, 8)
    word = encode_word(img)
    assert len(word.subwords) == 1
    assert isinstance(word.subwords[0].code.elements[0].code, PointCode)
    assert word.subwords[0].dirs == (9, 9, 9)


def test_encode_word_two_strokes_directions():
    img = BinaryRaster.from_pixels(
        [(x, 10) for x in range(12)] + [(x, 10) for x in range(20, 32)], 40, 20
    )
    cfg = EncoderConfig(dd=1.0, l_min=5.0)
    word = encode_word(img, cfg)
    assert len(word.subwords) == 2
    # second stroke is due east of the first
    assert word.subwords[0].dirs == (0, 9, 9)
    assert word.subwords[1].dirs == (9, 9, 9)


def test_encode_word_trailing_nulls():
    for name in ("zig", "seven", "jay"):
        cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
        word = encode_word(render_glyph(name, 60), cfg)
        assert word.subwords[-1].dirs == (9, 9, 9)
        for entry in word.subwords:
            assert entry.code.elements[-1].dirs == (9, 9, 9)


def test_encode_word_deterministic():
    cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
    img = render_glyph("vee", 75)
    assert word_to_json(encode_word(img, cfg)) == word_to_json(
        encode_word(img, cfg)
    )


def test_encode_word_translation_covariant():
    cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
    base = render_glyph("seven", 60)
    shifted = BinaryRaster.from_pixels(
        [(x + 7, y + 5) for x, y in base.foreground()],
        base.width + 10,
        base.height + 10,
    )
    w1 = encode_word(base, cfg)
    w2 = encode_word(shifted, cfg)
    assert len(w1.subwords) == len(w2.subwords)
    for e1, e2 in zip(w1.subwords, w2.subwords):
        assert e1.dirs == e2.dirs
        for c1, c2 in zip(e1.code.elements, e2.code.elements):
            assert c1.dirs == c2.dirs
            assert isinstance(c2.code, type(c1.code))
            # geometry is covariant up to decisions made exactly at the
            # dd threshold, where absolute-coordinate rounding can flip a
            # single boundary pixel between primitives
            if isinstance(c1.code, LineSegmentCode):
                assert c1.code.l == pytest.approx(c2.code.l, abs=1.5)
                assert c1.code.alpha == pytest.approx(c2.code.alpha, abs=0.5)
            elif isinstance(c1.code, PointCode):
                assert c2.code.x - c1.code.x == pytest.approx(7.0, abs=1.5)
                assert c2.code.y - c1.code.y == pytest.approx(5.0, abs=1.5)
            else:
                assert c2.code.x0 - c1.code.x0 == pytest.approx(7.0, abs=1.5)
                assert c1.code.a == pytest.approx(c2.code.a, abs=1.5)
                assert c1.code.beta == pytest.approx(c2.code.beta, abs=5.0)


def test_pixel_conservation_on_fixtures():
    cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
    for name in DEMO_GLYPHS:
        img = render_glyph(name, 60)
        from glyphcode import segment, thin

        for stroke in segment(thin(img)):
            if len(stroke) <= cfg.dot_max:
                continue
            segs, residual = extract_lines(stroke, cfg)
            arcs, leftovers = cluster_ellipses(residual, cfg)
            claimed = set()
            for _, px in segs:
                claimed |= set(px)
            for _, px in arcs:
                claimed |= set(px)
            for g in leftovers:
                claimed |= set(g)
            dropped = len(set(stroke.pixels) - claimed)
            assert dropped <= 0.05 * len(stroke.pixels)


def test_walk_paths_matches_reference_walk():
    rng = random.Random(29)
    images = [random_blob(rng) for _ in range(20)]
    images += [render_glyph(name, size) for name in DEMO_GLYPHS for size in (50, 120)]
    for img in images:
        pixels = thin(img).foreground()
        assert _walk_paths(pixels) == reference_walk_paths(pixels)


def test_block_growth_matches_one_step_reference():
    """Arc runs grown in blocks are the runs of one-pixel growth steps."""
    rng = random.Random(31)
    lines_cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
    residuals = [thin(random_blob(rng)).foreground() for _ in range(6)]
    for _ in range(24):  # curvy and straight stretches, some touching
        runs = [random_pixel_run(rng, 5, 80, 60) for _ in range(3)]
        residuals.append(set().union(*runs))
    for name in DEMO_GLYPHS:
        for size in (60, 120):
            bits = render_glyph(name, size).bits
            for grow in range(4):  # dilated by 0-3 px
                if grow:
                    bits = ndimage.binary_dilation(bits, np.ones((3, 3), bool))
                for stroke in segment(thin(BinaryRaster(bits))):
                    residuals.append(extract_lines(stroke, lines_cfg)[1])
    for e_res in (0.1, 0.5, 2.0):
        cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=e_res)
        for residual in residuals if e_res == 0.5 else residuals[:30]:
            want = reference_cluster_ellipses(residual, cfg)
            assert cluster_ellipses(residual, cfg) == want


def test_encoding_leaves_no_reference_cycles():
    """Cyclic garbage would make the collector run during later work."""
    cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
    image = render_word_image(("oval", "jay", "zig"), 60)
    gc.collect()
    gc.disable()
    try:
        encode_word(image, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_encoder_calls_the_names_the_benchmark_traces(monkeypatch):
    """bench/tracing.py times these by wrapping the encoder's attributes."""
    names = ("thin", "segment", "fit_line", "fit_ellipse", "sampson_residual")
    counts = dict.fromkeys(names, 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(encoder, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(encoder, name, counted)
    cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
    encode_word(render_word_image(("oval", "zig"), 60), cfg)
    assert all(counts.values()), counts


# ---------------------------------------------------------------------------
# scaling and JSON


def test_scale_word_scales_lengths_not_angles():
    cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
    word = encode_word(render_glyph("jay", 60), cfg)
    scaled = scale_word(word, 0.5)
    for e1, e2 in zip(word.subwords, scaled.subwords):
        for c1, c2 in zip(e1.code.elements, e2.code.elements):
            if isinstance(c1.code, LineSegmentCode):
                assert c2.code.l == pytest.approx(c1.code.l * 0.5)
                assert c2.code.alpha == c1.code.alpha
            elif isinstance(c1.code, EllipseArcCode):
                assert c2.code.a == pytest.approx(c1.code.a * 0.5)
                assert c2.code.phi == c1.code.phi
                assert c2.code.beta == c1.code.beta


def test_word_json_roundtrip():
    cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
    for name in ("vline", "zig", "jay", "oval"):
        word = encode_word(render_glyph(name, 60), cfg)
        back = word_from_json(word_to_json(word))
        assert len(back.subwords) == len(word.subwords)
        for e1, e2 in zip(word.subwords, back.subwords):
            assert e1.dirs == e2.dirs
            for c1, c2 in zip(e1.code.elements, e2.code.elements):
                assert c1.dirs == c2.dirs
                assert isinstance(c2.code, type(c1.code))


@pytest.mark.parametrize(
    "code, dirs",
    [
        ([float("nan"), 5.0, 4.0, 2.0, 0.0, 10.0, 200.0], [9, 9, 9]),
        ([20.0, 20.0, 2.0, 4.0, 0.0, 10.0, 200.0], [9, 9, 9]),
        ([3.0, 90.0, 0.0], [9, 9, 9]),
        ([float("inf"), 2.0], [9, 9, 9]),
        ([3.0, 4.0], [1e400, 9, 9]),
        ([3.0, 4.0], [2.5, 9, 9]),
        ([3.0, 4.0], [8, 9, 9]),
    ],
    ids=[
        "arc-nan-x0", "arc-a-below-b", "line-zero-l", "point-inf",
        "dir-overflow", "dir-fraction", "dir-8",
    ],
)
def test_word_from_json_rejects_what_no_encoder_emits(code, dirs):
    """word_from_json checks primitives as load_codebook does, and raises
    ValueError for every bad value."""
    obj = [{"elements": [{"code": code, "dirs": dirs}], "dirs": [9, 9, 9]}]
    with pytest.raises(ValueError):
        word_from_json(json.dumps(obj))


def test_json_schema_shapes():
    cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
    obj = json.loads(word_to_json(encode_word(render_glyph("jay", 60), cfg)))
    arities = {
        len(el["code"]) for entry in obj for el in entry["elements"]
    }
    assert arities <= {2, 3, 7}
    for entry in obj:
        assert set(entry) == {"elements", "dirs"}
        assert len(entry["dirs"]) == 3
