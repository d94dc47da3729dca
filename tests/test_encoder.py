"""Encoder: Freeman directions, decomposition, sub-word/word codes, JSON."""

import gc
import itertools
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
from glyphcode.raster import rowmajor, walk_paths
from glyphcode.encoder import _arc_from_run, cluster_ellipses, extract_lines
from glyphcode.geomfit import EllipseCoefficients, Moments
from glyphcode.render import DEMO_GLYPHS, render_glyph, render_word_image
from conftest import (
    neighbors,
    random_blob,
    random_pixel_run,
    reference_cluster_ellipses,
    reference_extract_lines,
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
    "end, stray, within_half", [((18, -1), (8, 3), True), ((16, 8), (13, 3), False)]
)
def test_extract_lines_leaves_strays_beside_a_run_in_the_residual(
    end, stray, within_half
):
    """The walk strands `stray` beside one straight run, within `dd` of its
    line and past the last pixel's projection, within 0.5 px of the run's
    extent or beyond that.  Either way it stays residual: staircase
    pixels are removed by `thin`, not folded into runs."""
    cfg = EncoderConfig(dd=1.2, l_min=4.0)
    stroke = Stroke(tuple(_polyline((0, 0), (10, 2), end) + [stray]))
    segs, residual = extract_lines(stroke, cfg)
    assert residual == {stray}
    (run,) = [sorted(px) for _, px in segs if neighbors(stray, px)]
    line = fit_line(run)
    lo, hi = segment_extent(run, line)
    t = segment_extent([stray, stray], line)[0]
    assert point_line_distance(stray, line) <= cfg.dd
    assert hi < t <= hi + 0.5 if within_half else hi + 0.5 < t < hi + 1


# zig has a junction pixel beside a run at 31 px with 1 px of dilation
@pytest.mark.parametrize("size", (30, 31, 51, 72, 96, 128))
def test_thinned_glyphs_leave_no_stray_beside_a_run(size):
    """The staircase prune in `thin` leaves no stray pixel beside a run.

    On thinned demo glyphs with 1-4 px of ink, under the criterion-7
    settings and with `l_min` 4 px, a residual pixel that is 8-adjacent
    to a claimed run, within `dd` of its line and within 0.5 px of its
    extent at once always has a residual neighbour too: it joins the run
    to a branch left in the residual, a junction no prune can delete,
    not a stray."""
    configs = (EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5), EncoderConfig(l_min=4.0))
    for name in DEMO_GLYPHS:
        bits = render_glyph(name, size, margin=6).bits
        for grow in range(4):
            if grow:
                bits = ndimage.binary_dilation(bits, structure=np.ones((3, 3), bool))
            for stroke, cfg in itertools.product(segment(thin(BinaryRaster(bits))), configs):
                if len(stroke.pixels) <= cfg.dot_max:
                    continue
                segs, residual = extract_lines(stroke, cfg)
                for _, run in segs:
                    line = fit_line(run)
                    lo, hi = segment_extent(run, line)
                    for p in residual:
                        t = segment_extent([p, p], line)[0]
                        assert not (
                            neighbors(p, run)
                            and point_line_distance(p, line) <= cfg.dd
                            and lo - 0.5 <= t <= hi + 0.5
                            and not neighbors(p, residual)
                        ), (name, size, grow, cfg, p)


def _axis_runs_beside_a_pixel(shift):
    """(run, next) pairs: 20-px horizontal and vertical runs at offsets
    0-399 in rows or columns 3, 50 and 211, moved `shift` px in x, and a
    pixel one row or column off past one end, where the path walk meets
    it right after the run: 4,800 pairs."""
    for o in range(400):
        for r in (3, 50, 211):
            row = [(o + k, r) for k in range(20)]
            col = [(r, o + k) for k in range(20)]
            pairs = ((row, (o + 20, r + 1)), (row, (o - 1, r + 1)),
                     (col, (r - 1, o + 20)), (col, (r + 1, o + 20)))
            for run, nxt in pairs:
                yield [(x + shift, y) for x, y in run], (nxt[0] + shift, nxt[1])


def _slanted_runs_at_a_tie(rng, shift):
    """(run, next, dd) triples: 20-px digital runs of random slope, one
    coordinate moved `shift` px, each walked into one more pixel, with dd
    at that pixel's distance from the run's fitted line and at the floats
    either side."""
    for _ in range(300):
        slope = rng.uniform(-1.0, 1.0)
        x0, y0 = shift + rng.randrange(400), rng.randrange(3, 300)
        path = [(x0 + k, y0 + round(slope * k)) for k in range(20)]
        path.append((x0 + 20, path[-1][1] + rng.choice((-1, 0, 1))))
        if rng.random() < 0.5:
            path = [(y, x) for x, y in path]
        if rowmajor(path[-1]) < rowmajor(path[0]):  # the walk starts at path[0]
            path = [(x, 1000 - y) for x, y in path]
        dist = point_line_distance(path[-1], fit_line(path[:-1]))
        for dd in (math.nextafter(dist, 0.0), dist, math.nextafter(dist, 2.0)):
            yield path[:-1], path[-1], dd


def test_extract_lines_matches_refitting_after_every_append():
    """Screened growth gives the runs of refitting after every pixel, also
    where a pixel lies at `dd` up to rounding: `fit_line` reads a pixel
    one row off a horizontal run at 1.0000000000000004 (438 of the first
    4,800 axis cases), and at x near 20,000 the screen and `fit_line`
    differ by up to about 2e-11 px, so the tie band must be wider than
    that."""
    rng = random.Random(37)
    rasters = [thin(random_blob(rng)) for _ in range(12)]
    for name in DEMO_GLYPHS:
        bits = render_glyph(name, 60, margin=6).bits
        for grow in range(4):  # dilated by 0-3 px
            if grow:
                bits = ndimage.binary_dilation(bits, structure=np.ones((3, 3), bool))
            rasters.append(thin(BinaryRaster(bits)))
    configs = (EncoderConfig(), EncoderConfig(l_min=4.0),
               EncoderConfig(dd=0.5, l_min=4.0), EncoderConfig(dd=2.0))
    cases = [(stroke, cfg) for cfg in configs for r in rasters for stroke in segment(r)]
    over = 0
    for shift in (0, 20_000):
        for run, nxt in _axis_runs_beside_a_pixel(shift):
            over += shift == 0 and point_line_distance(nxt, fit_line(run)) > 1.0
            cases.append((Stroke(tuple(run + [nxt])), EncoderConfig(l_min=4.0)))
    assert over == 438
    for shift in (0, 20_000):
        for run, nxt, dd in _slanted_runs_at_a_tie(rng, shift):
            cases.append((Stroke(tuple(run + [nxt])), EncoderConfig(dd=dd, l_min=4.0)))
    for stroke, cfg in cases:
        assert extract_lines(stroke, cfg) == reference_extract_lines(stroke, cfg)


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
    # coin-flip ink thins to branch-heavy skeletons: 1,294 branch pixels,
    # and 262 steps whose least turns tie
    images += [BinaryRaster(np.random.RandomState(seed).rand(40, 40) < 0.5) for seed in range(5)]
    for img in images:
        pixels = thin(img).foreground()
        assert walk_paths(pixels) == reference_walk_paths(pixels)


def test_arc_growth_matches_the_probe_and_bisect_reference():
    """Arc runs grown by the encoder's one search loop are the runs of a
    plain probe loop followed by a plain bisection loop."""
    rng = random.Random(31)
    lines_cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
    residuals = [thin(random_blob(rng)).foreground() for _ in range(6)]
    for _ in range(24):  # curvy and straight stretches, some touching
        runs = [random_pixel_run(rng, 5, 80, 60) for _ in range(3)]
        residuals.append(set().union(*runs))
    for seed in range(3):  # speckle: many arc runs to re-join in one component
        noise = np.random.RandomState(seed).rand(30, 30) < 0.5
        residuals.append(thin(BinaryRaster(noise)).foreground())
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


def _noise_raster():
    return np.random.RandomState(0).rand(50, 50) < 0.5


def _grid_raster():
    bits = np.zeros((40, 40), bool)
    bits[::2, :] = bits[:, ::7] = True
    return bits


@pytest.mark.parametrize("make", (_noise_raster, _grid_raster), ids=("noise", "grid"))
def test_arc_rejoin_never_refits_a_failed_pair(make, monkeypatch):
    """Re-joining arc runs fits each pair of runs at most once, so speckle
    does not make encoding cubic in its arc runs: restarting the scan at
    the first pair after every merge made 20,855 union fits on the noise
    raster and 43,192 on the grid, where about 2,100 and 2,700 suffice."""
    calls = []
    merged_arc = encoder._merged_arc

    def counted(*args):
        calls.append(None)
        return merged_arc(*args)

    monkeypatch.setattr(encoder, "_merged_arc", counted)
    encode_word(BinaryRaster(make()), EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5))
    assert len(calls) <= 4000


def _noise70_raster():
    return np.random.RandomState(13).rand(70, 70) < 0.5


@pytest.mark.parametrize(
    "make", (_noise_raster, _grid_raster, _noise70_raster), ids=("noise", "grid", "noise70")
)
def test_arc_rejoin_tries_the_unions_of_the_restarting_scan(make, monkeypatch):
    """After a merge into index ia the re-join tries (x, ia), x < ia, and
    resumes at (ia, ia + 1).  That is the order of a scan restarted at the
    first pair that skips failed pairs only because every earlier pair
    without the union has already failed; here both try the same unions
    in the same order.  Only on the 70-px raster does a resumed scan meet
    failed pairs (323 of them), so it alone shows that none is refitted."""
    cfg = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
    image = BinaryRaster(make())
    want = []
    for stroke in order_strokes(segment(thin(image))):
        if len(stroke) > cfg.dot_max:
            reference_cluster_ellipses(extract_lines(stroke, cfg)[1], cfg, want)
    got = []
    merged_arc = encoder._merged_arc

    def recorded(a, b, cfg):
        got.append(a[0] + b[0])
        return merged_arc(a, b, cfg)

    monkeypatch.setattr(encoder, "_merged_arc", recorded)
    encode_word(image, cfg)
    assert len(got) > 1000 and got == want


def test_arc_stage_fitting_work_on_the_demo_glyphs(monkeypatch):
    """The demo glyphs at 60 and 120 px make 80 ellipse fits, each of one
    `Moments`, and 60 Sampson calls.  Growing arc runs one pixel per
    step fitted 830 candidate ends with 80 Sampson calls, so a return to
    per-pixel growth shows here before it shows in timings."""
    fits, sampson = [], []
    fit_ellipse, sampson_residual = encoder.fit_ellipse, encoder.sampson_residual

    def counted_fit(moments):
        assert isinstance(moments, Moments)
        fits.append(moments)
        return fit_ellipse(moments)

    def counted_sampson(*args):
        sampson.append(None)
        return sampson_residual(*args)

    monkeypatch.setattr(encoder, "fit_ellipse", counted_fit)
    monkeypatch.setattr(encoder, "sampson_residual", counted_sampson)
    for name in DEMO_GLYPHS:
        for size in (60, 120):
            encode_word(render_glyph(name, size), EncoderConfig())
    assert len(fits) <= 80
    assert len(sampson) <= 60


def test_line_stage_fitting_work_on_the_demo_glyphs(monkeypatch):
    """The demo glyphs at 60 and 120 px make 168 line fits: one where each
    run stops, one per trim cut and one per step screened within the tie
    band of `dd`. Refitting after every grown pixel made 2,746, so a
    return to it shows here before it shows in timings."""
    calls = []
    fit_line = encoder.fit_line

    def counted(pixels):
        calls.append(None)
        return fit_line(pixels)

    monkeypatch.setattr(encoder, "fit_line", counted)
    for name in DEMO_GLYPHS:
        for size in (60, 120):
            encode_word(render_glyph(name, size), EncoderConfig())
    assert len(calls) <= 168


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
        ([True, 90.0, 0.5], [9, 9, 9]),
        (["1", "2"], [9, 9, 9]),
        ([3.0, 4.0], [True, False, 9]),
        ([3.0, 4.0], ["1", 9, 9]),
        ([10**400, 2.0], [9, 9, 9]),
    ],
    ids=[
        "arc-nan-x0", "arc-a-below-b", "line-zero-l", "point-inf",
        "dir-overflow", "dir-fraction", "dir-8",
        "line-bool-p", "point-strings", "dir-bools", "dir-string", "point-huge-int",
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
