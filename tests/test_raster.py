"""Raster module: binarize, thinning, segmentation, netpbm I/O."""

import random

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
from glyphcode.raster import _REDUNDANT, _RING, components
from glyphcode.render import DEMO_GLYPHS, render_glyph
from conftest import (
    count_components,
    random_blob,
    reference_prune,
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


def test_centroid_examples():
    assert Stroke(((0, 0), (2, 0))).centroid == (1.0, 0.0)
    assert Stroke(((3, 4),)).centroid == (3.0, 4.0)
    assert Stroke(((0, 0), (0, 2), (2, 0), (2, 2))).centroid == (1.0, 1.0)


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


@pytest.mark.parametrize(
    "payload",
    [
        b"P4\n",  # truncated header
        b"P7\n2 2\n",  # unsupported magic
        b"P1\n0 2\n",  # zero width
        b"P1\n2 2\n1 0 1",  # truncated pixels
        b"P1\n3 1\n1 0 x\n",  # a pixel that is neither 0 nor 1
        b"P5\n2 2\n70000\nxxxx",  # bad maxval
        b"P2\n1 1\n255\n300\n",  # a sample above 255
        b"P2\n1 1\n100\n200\n",  # a sample above maxval
        b"P5\n1 1\n100\n" + bytes([200]),  # a raw sample above maxval
    ],
)
def test_malformed_netpbm(tmp_path, payload):
    path = tmp_path / "bad.pbm"
    path.write_bytes(payload)
    with pytest.raises(RasterFormatError):
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
