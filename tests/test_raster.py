"""Raster module: binarize, thinning, segmentation, netpbm I/O."""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from glyphcode import (
    BinaryRaster,
    GrayRaster,
    RasterFormatError,
    Stroke,
    binarize,
    load_image,
    read_netpbm,
    segment,
    thin,
    write_pbm,
)
from glyphcode.raster import (
    _FIRST_STEPS,
    _NEXT_STEPS,
    _REDUNDANT,
    _RING,
    _offsets,
    _padded,
    _ring_codes,
    component_paths,
    components,
    rowmajor,
    walk_paths,
)
from glyphcode.render import DEMO_GLYPHS, render_glyph
from conftest import (
    count_components,
    neighbors,
    random_blob,
    reference_components,
    reference_prune,
    reference_turn,
    reference_walk_paths,
    reference_zhang_suen,
)


def raster_from_rows(rows):
    return BinaryRaster(np.array([[c == "#" for c in row] for row in rows]))


# ---------------------------------------------------------------------------
# binarize


def test_binarize_all_background():
    img = GrayRaster(np.full((4, 5), 255, dtype=np.uint8))
    assert not binarize(img, 128).bits.any()


def test_binarize_all_foreground():
    img = GrayRaster(np.zeros((4, 5), dtype=np.uint8))
    assert binarize(img, 128).bits.all()


def test_binarize_checker():
    samples = np.indices((4, 4)).sum(axis=0) % 2 * 255
    out = binarize(GrayRaster(samples.astype(np.uint8)), 128)
    assert (out.bits == (samples == 0)).all()


def test_binarize_threshold_range():
    img = GrayRaster(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        binarize(img, 256)


# ---------------------------------------------------------------------------
# thin


def test_thin_empty():
    img = BinaryRaster(np.zeros((5, 5), dtype=bool))
    assert not thin(img).bits.any()


def test_thin_thin_line_unchanged():
    img = raster_from_rows(
        [
            ".....",
            ".###.",
            ".....",
        ]
    )
    assert (thin(img).bits == img.bits).all()


def test_thin_rectangle_matches_reference():
    img = BinaryRaster(np.pad(np.ones((3, 5), dtype=bool), 1))
    ref = reference_zhang_suen(img.bits)
    out = thin(img).bits
    # the sequential staircase pruning only ever removes pixels
    assert (out <= ref).all()
    assert count_components(out) == count_components(ref) == 1


def test_thin_subset_and_idempotent_on_blobs():
    rng = random.Random(99)
    for _ in range(10):
        img = random_blob(rng)
        out = thin(img)
        assert (out.bits <= img.bits).all()
        again = thin(out)
        assert (again.bits == out.bits).all()


def test_thin_preserves_components():
    rng = random.Random(7)
    for _ in range(10):
        img = random_blob(rng)
        assert count_components(thin(img).bits) == count_components(img.bits)


def test_thin_result_inside_reference_skeleton_support():
    # pruning removes only pixels the parallel rules left redundant, so
    # the result is a subset of the reference skeleton with the same
    # component structure
    rng = random.Random(3)
    for _ in range(5):
        img = random_blob(rng, width=30, height=30, walkers=2, steps=40)
        ref = reference_zhang_suen(img.bits)
        out = thin(img).bits
        assert (out <= ref).all()
        assert count_components(out) == count_components(ref)


def small_grid(seedbits):
    return np.array(
        [[(seedbits >> (r * 5 + c)) & 1 == 1 for c in range(5)] for r in range(5)]
    )


def assert_thin_exact(bits):
    want = reference_prune(reference_zhang_suen(bits))
    assert (thin(BinaryRaster(bits)).bits == want).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**25 - 1))
def test_thin_idempotent_small_grids(seedbits):
    bits = small_grid(seedbits)
    out = thin(BinaryRaster(bits))
    assert (thin(out).bits == out.bits).all()
    assert (out.bits <= bits).all()


def test_thin_exact_on_blobs():
    rng = random.Random(41)
    for _ in range(20):
        assert_thin_exact(random_blob(rng).bits)


def test_thin_exact_on_all_3x3_patterns():
    for pattern in range(512):
        grid = np.array([pattern >> k & 1 for k in range(9)], dtype=bool)
        assert_thin_exact(np.pad(grid.reshape(3, 3), 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**25 - 1))
def test_thin_exact_small_grids(seedbits):
    assert_thin_exact(small_grid(seedbits))


@pytest.mark.parametrize("size", (60, 120))
def test_thin_exact_on_dilated_demo_glyphs(size):
    for name in DEMO_GLYPHS:
        bits = render_glyph(name, size).bits
        for grow in (1, 2, 3):
            grown = ndimage.binary_dilation(bits, np.ones((3, 3), bool), grow)
            assert_thin_exact(grown)


def _redundant_in(on, p):
    ring = [(p[0] + dx, p[1] + dy) in on for dx, dy in _RING]
    return _REDUNDANT[sum(1 << bit for bit, hit in enumerate(ring) if hit)]


def test_deleting_a_redundant_pixel_never_makes_a_neighbor_redundant():
    """Why one prune pass suffices: every setting of the cells around a
    pixel p and a ring neighbor q of p, on both sides of p."""
    p = (0, 0)
    for q in _RING:
        cells = {(q[0] + dx, q[1] + dy) for dx, dy in _RING} | set(_RING)
        cells = sorted(cells - {p, q})
        for mask in range(1 << len(cells)):
            on = {c for k, c in enumerate(cells) if mask >> k & 1} | {p, q}
            if _redundant_in(on, q) and not _redundant_in(on, p):
                assert not _redundant_in(on - {q}, p)


def test_prune_checks_each_candidate_again_in_its_turn():
    # a Zhang-Suen skeleton whose bend pixels (2, 1), (1, 2) and (2, 2) are
    # all redundant before the prune; once the first two are deleted,
    # (2, 2) alone joins the two arms and must stay
    bits = raster_from_rows(
        ["......", "..###.", ".##...", ".#....", ".#....", "......"]
    ).bits
    assert (reference_zhang_suen(bits) == bits).all()
    on = {(int(x), int(y)) for y, x in zip(*np.nonzero(bits))}
    assert all(_redundant_in(on, p) for p in ((2, 1), (1, 2), (2, 2)))
    out = thin(BinaryRaster(bits)).bits
    assert out[2, 2] and not out[1, 2] and not out[2, 1]
    assert count_components(out) == 1
    assert_thin_exact(bits)


# ---------------------------------------------------------------------------
# segment / centroid


def test_segment_empty():
    assert segment(BinaryRaster(np.zeros((3, 3), dtype=bool))) == []


def test_segment_two_distant_pixels():
    img = BinaryRaster.from_pixels([(0, 0), (5, 5)], 6, 6)
    assert len(segment(img)) == 2


def test_segment_diagonal_is_connected():
    img = BinaryRaster.from_pixels([(0, 0), (1, 1)], 2, 2)
    strokes = segment(img)
    assert len(strokes) == 1
    assert strokes[0].pixels == ((0, 0), (1, 1))


def test_segment_is_partition():
    rng = random.Random(11)
    img = random_blob(rng)
    strokes = segment(img)
    union = set()
    for s in strokes:
        assert not union & set(s.pixels)
        union.update(s.pixels)
    assert union == set(
        (x, y) for y, x in zip(*np.nonzero(img.bits))
    )


def test_components_order_and_offsets():
    pixels = {(-3, -2), (-2, -1), (5, -2), (0, 4), (1, 4), (-4, 0), (6, -1)}
    assert components(pixels) == [
        [(-3, -2), (-2, -1)],
        [(5, -2), (6, -1)],
        [(-4, 0)],
        [(0, 4), (1, 4)],
    ]
    assert components(set()) == []


def _random_pixel_sets(rng):
    """Scatters around the origin, diagonal-only checkerboards, single
    pixels, and random blobs dilated 0-2 px, at negative offsets."""
    for _ in range(60):
        span = rng.choice((3, 8, 20))
        count = rng.randint(1, 2 * span)
        yield {(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(count)}
    for _ in range(20):
        x0, y0 = rng.randint(-50, 50), rng.randint(-50, 50)
        box = [(x, y) for x in range(x0, x0 + 12) for y in range(y0, y0 + 9)]
        yield {(x, y) for x, y in box if (x + y) % 2 == 0 and rng.random() < 0.6}
        yield {(x0, y0)}
    for grow in range(3):
        bits = random_blob(rng).bits
        if grow:
            bits = ndimage.binary_dilation(bits, np.ones((3, 3), bool), grow)
        ys, xs = np.nonzero(bits)
        yield {(int(x) - 20, int(y) - 30) for x, y in zip(xs, ys)}


def test_components_match_ndimage_labels_on_random_sets():
    rng = random.Random(23)
    for pixels in _random_pixel_sets(rng):
        assert components(pixels) == reference_components(pixels)
        assert components(list(pixels)) == reference_components(pixels)


def test_components_match_ndimage_labels_on_dilated_demo_skeletons():
    for name in DEMO_GLYPHS:
        bits = render_glyph(name, 60).bits
        for grow in range(4):
            if grow:
                bits = ndimage.binary_dilation(bits, np.ones((3, 3), bool))
            for image in (BinaryRaster(bits), thin(BinaryRaster(bits))):
                pixels = image.foreground()
                assert components(pixels) == reference_components(pixels), (name, grow)


def _coin_flip_rasters():
    """40x40 rasters of coin-flip ink, with ink in every border row and
    column (each corner is set)."""
    for seed in range(12):
        bits = np.random.RandomState(seed).rand(40, 40) < 0.5
        bits[[0, 0, -1, -1], [0, -1, 0, -1]] = True
        yield BinaryRaster(bits)


def test_padded_matches_the_two_dimensional_formula():
    """`_padded` reads the ink from flat indices; the grid and ink must be
    the ones the 2-D (y + 1) * width + x + 1 formula gives, on thin and
    flat rasters, empty and all-ink ones included."""
    state = np.random.RandomState(29)
    shapes = [(1, 1), (1, 17), (17, 1), (5, 9), (9, 5), (40, 40), (133, 499)]
    for h, w in shapes:
        fills = [np.zeros((h, w), bool), np.ones((h, w), bool)]
        fills += [state.rand(h, w) < p for p in (0.05, 0.5, 0.95)]
        for bits in fills:
            on, ink, width = _padded(BinaryRaster(bits))
            ys, xs = np.nonzero(bits)
            assert width == w + 2
            assert ink.tolist() == ((ys + 1) * width + xs + 1).tolist()
            grid = np.zeros((h + 2, width), np.uint8)
            grid[1:-1, 1:-1] = bits
            assert bytes(on) == grid.tobytes()


def test_ring_codes_match_a_per_pixel_neighbour_loop():
    for image in _coin_flip_rasters():
        on, ink, width = _padded(image)
        codes = _ring_codes(np.frombuffer(on, dtype=np.uint8), ink, _offsets(width))
        pool = set(image.foreground())
        expected = [
            sum(1 << _RING.index((q[0] - p[0], q[1] - p[1])) for q in neighbors(p, pool))
            for p in image.foreground()
        ]
        assert codes.tolist() == expected


def _far_apart_sets(rng):
    """Small random clusters at negative offsets and 10**9 or 10**20 px
    apart (past int64), in the same rows, the same columns and neither."""
    for far in [10**9] * 12 + [10**20] * 4:
        clusters = []
        corners = [(0, 0), (far, 0), (-far, 0), (0, far), (0, -far), (far, -far)]
        for cx, cy in rng.sample(corners, 3):
            span = rng.choice((2, 5, 9))
            clusters.append({
                (cx + rng.randint(-span, span) - 7, cy + rng.randint(-span, span) - 5)
                for _ in range(rng.randint(1, 3 * span))
            })
        yield clusters


def _reference_components_far(cluster):
    """`reference_components` of a cluster moved next to the origin and back."""
    x0, y0 = min(cluster)
    near = {(x - x0, y - y0) for x, y in cluster}
    return [[(x + x0, y + y0) for x, y in comp] for comp in reference_components(near)]


def test_components_and_walks_of_pixels_far_apart():
    """No bounding-box grid could hold these sets: the clusters are
    labelled one by one by the reference, whose components cannot join
    across 10**9 px or more."""
    rng = random.Random(5)
    for clusters in _far_apart_sets(rng):
        pixels = set().union(*clusters)
        expected = sorted(
            (comp for c in clusters for comp in _reference_components_far(c)),
            key=lambda comp: rowmajor(comp[0]),
        )
        assert components(pixels) == expected
        assert walk_paths(pixels) == reference_walk_paths(pixels)
        assert component_paths(pixels) == [(c, walk_paths(c)) for c in expected]


def test_segment_gives_each_stroke_its_walk():
    images = list(_coin_flip_rasters())
    for name in DEMO_GLYPHS:
        bits = render_glyph(name, 60).bits
        for grow in range(3):
            if grow:
                bits = ndimage.binary_dilation(bits, np.ones((3, 3), bool))
            images.append(thin(BinaryRaster(bits)))
    for image in images:
        strokes = segment(image)
        for stroke in strokes:
            assert stroke.paths == walk_paths(stroke.pixels)
            built = Stroke(stroke.pixels[::-1])  # walked when made, equal all the same
            assert built == stroke and built.paths == stroke.paths
        pixels = image.foreground()
        assert [(list(s.pixels), s.paths) for s in strokes] == component_paths(pixels)


def test_walk_step_orders_are_the_reference_turn_orders():
    """Every (last step, candidate, candidate) triple of ring offsets: ring
    distance orders and ties the two candidates as the reference walk's
    atan2 turn does, so `_NEXT_STEPS` lists the steps by (turn, row-major
    place), and `_FIRST_STEPS` lists them in row-major order."""
    assert [_RING[i] for i in _FIRST_STEPS] == sorted(_RING, key=rowmajor)
    for last, a, b in itertools.product(range(8), repeat=3):
        heading = math.atan2(_RING[last][1], _RING[last][0])
        turn = {k: reference_turn(heading, _RING[k]) for k in (a, b)}
        ring = {k: min((k - last) % 8, (last - k) % 8) for k in (a, b)}
        assert (ring[a] < ring[b], ring[a] == ring[b]) == (turn[a] < turn[b], turn[a] == turn[b])
        by_turn = sorted((a, b), key=lambda k: (turn[k], rowmajor(_RING[k])))
        assert sorted((a, b), key=_NEXT_STEPS[last].index) == by_turn


def test_foreground_and_centroid_are_plain_numbers():
    image = BinaryRaster.from_pixels([(3, 0), (0, 1), (2, 1)], 4, 2)
    assert image.foreground() == [(3, 0), (0, 1), (2, 1)]
    assert {type(v) for p in image.foreground() for v in p} == {int}
    centroid = Stroke(tuple(image.foreground())).centroid
    assert centroid == (5 / 3, 2 / 3) and {type(v) for v in centroid} == {float}


def test_centroid_examples():
    assert Stroke(((0, 0), (2, 0))).centroid == (1.0, 0.0)
    assert Stroke(((3, 4),)).centroid == (3.0, 4.0)
    assert Stroke(((0, 0), (0, 2), (2, 0), (2, 2))).centroid == (1.0, 1.0)


def test_stroke_paths_take_no_part_in_equality_hash_or_repr():
    pixels = ((2, 1), (0, 0), (1, 1))
    given = Stroke(pixels, [[(2, 1), (1, 1), (0, 0)]])
    walked = Stroke(pixels)
    assert walked.paths == walk_paths(pixels) != given.paths
    assert given == walked and hash(given) == hash(walked) and repr(given) == repr(walked)


def test_from_pixels_sets_exactly_the_given_pixels():
    image = BinaryRaster.from_pixels(iter([(2, 0), (0, 2), (2, 0)]), 3, 4)
    assert image.bits.shape == (4, 3) and image.foreground() == [(2, 0), (0, 2)]
    assert not BinaryRaster.from_pixels([], 2, 2).bits.any()


@pytest.mark.parametrize(
    "pixels", ([(-1, 0)], [(0, -1)], [(3, 0)], [(0, 3)], [(1, 1), (-1, 0), (0, -1)])
)
def test_from_pixels_rejects_pixels_outside_the_raster(pixels):
    """Negative coordinates once wrapped to the far edge, and pixels past
    it raised a bare IndexError."""
    with pytest.raises(ValueError, match=re.escape(str(pixels[-1]))):
        BinaryRaster.from_pixels(pixels, 3, 3)


def test_stroke_empty_rejected():
    with pytest.raises(ValueError):
        Stroke(())


# ---------------------------------------------------------------------------
# netpbm I/O


def test_pbm_roundtrip(tmp_path):
    img = BinaryRaster.from_pixels([(0, 0), (3, 1), (9, 2)], 10, 3)
    path = tmp_path / "img.pbm"
    write_pbm(img, path)
    back = read_netpbm(path)
    assert isinstance(back, BinaryRaster)
    assert (back.bits == img.bits).all()


def test_p1_with_comment(tmp_path):
    path = tmp_path / "img.pbm"
    path.write_text("P1\n# a comment\n3 2\n1 0 1\n0 1 0\n")
    img = read_netpbm(path)
    assert (img.bits == np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)).all()


def test_p1_comment_in_pixel_data(tmp_path):
    path = tmp_path / "img.pbm"
    path.write_text("P1\n3 2\n1 0 1\n# note 1 1\n0 1 0\n")
    img = read_netpbm(path)
    assert (img.bits == np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)).all()


def test_p2_and_p5(tmp_path):
    p2 = tmp_path / "img.p2.pgm"
    p2.write_text("P2\n2 2\n255\n0 64\n128 255\n")
    g = read_netpbm(p2)
    assert isinstance(g, GrayRaster)
    assert g.samples.tolist() == [[0, 64], [128, 255]]
    p5 = tmp_path / "img.p5.pgm"
    p5.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    g5 = read_netpbm(p5)
    assert (g5.samples == g.samples).all()


def test_load_image_binarizes_pgm(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 1\n255\n10 200\n")
    img = load_image(path, 128)
    assert img.bits.tolist() == [[True, False]]


# Each malformed file and the message it is refused with
_MALFORMED = {
    b"P": "file too short for a netpbm header",
    b"P4\n": "unexpected end of header",
    b"P7\n2 2\n": "unsupported magic b'P7'",
    b"P1\n0 2\n": "width and height must be positive",
    b"P1\n2 2\n1 0 1": "truncated P1 pixel data",
    b"P1\n3 1\n1 0 x\n": "P1 pixel data must be 0s and 1s",
    b"P5\n2 2\n70000\nxxxx": "bad PGM dimensions or maxval",
    b"P5\n1 1\n65535\n\x00\x00": "16-bit PGM is not supported",
    b"P2\n1 1\n255\n300\n": "PGM sample above maxval 255",
    b"P2\n1 1\n100\n200\n": "PGM sample above maxval 100",
    b"P5\n1 1\n100\n" + bytes([200]): "PGM sample above maxval 100",
    b"P4\n8 1#c\n\x00": "no whitespace byte before the P4 raster",
    b"P4\n9 2\n\x00\x00\x00": "truncated P4 pixel data",
    b"P5\n2 2\n255\n\x00\x00\x00": "truncated P5 pixel data",
}


@pytest.mark.parametrize("payload", list(_MALFORMED))
def test_malformed_netpbm(tmp_path, payload):
    path = tmp_path / "bad.pbm"
    path.write_bytes(payload)
    with pytest.raises(RasterFormatError, match=f"^{re.escape(_MALFORMED[payload])}$"):
        read_netpbm(path)


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"P2\n3 1\n255\n1 2\n", "truncated P2 pixel data"),
        (b"P2\n3 1\n255\n1 x 3\n", "bad P2 sample b'x'"),
        (b"P2\n3\n", "unexpected end of header"),
        (b"P2\n3 y 255\n", "bad header token b'y'"),
    ],
)
def test_p2_faults_name_the_part_they_are_in(tmp_path, payload, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(RasterFormatError, match=f"^{re.escape(message)}$"):
        read_netpbm(path)


def _netpbm_forms(bits):
    """`bits` written as P1 (with comments between header tokens, glued to
    a token and inside the pixel data), P4, and P2 and P5 at maxval 255
    and 3."""
    h, w = bits.shape
    rows = ["".join("1" if b else "0" for b in row) for row in bits]
    p1 = f"P1\n# made by a test\n{w}#glued to the width\n{h}\n{rows[0]}\n# body\n"
    yield "P1", (p1 + "\n".join(" ".join(r) for r in rows[1:]) + "\n").encode()
    yield "P4", f"P4\n{w} {h}\n".encode() + np.packbits(bits, axis=1).tobytes()
    for maxval, ink, paper in ((255, 100, 200), (3, 1, 3)):
        samples = np.where(bits, ink, paper)
        text = "\n".join(" ".join(map(str, row)) for row in samples.tolist())
        yield f"P2/{maxval}", f"P2 {w} {h} {maxval}\n{text}\n".encode()
        yield f"P5/{maxval}", f"P5 {w} {h} {maxval}\n".encode() + samples.astype(np.uint8).tobytes()


@pytest.mark.parametrize("size", [50, 120])
def test_every_netpbm_form_reads_back_the_same_bits(tmp_path, size):
    path = tmp_path / "glyph.pnm"
    for name in DEMO_GLYPHS:
        bits = render_glyph(name, size).bits
        for form, data in _netpbm_forms(bits):
            path.write_bytes(data)
            assert np.array_equal(load_image(path).bits, bits), (name, form)
