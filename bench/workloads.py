"""Input generation for the three benchmark workloads.

Everything here is made from a seed with ``random.Random`` and the
renderer in ``glyphcode.render``; nothing is read from outside the
checkout.  A *round* is one list of words in which every glyph (words60),
every glyph at every dilation (ink120) or every book shape (book144)
occurs equally often, so the work in a round hardly depends on the seed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from glyphcode import (
    BinaryRaster,
    ConnectivityTable,
    EncoderConfig,
    MatchTolerances,
    Position,
    arabic_connectivity,
)
from glyphcode.raster import write_pbm
from glyphcode.render import DEMO_GLYPHS, rasterize_strokes, render_glyph, render_word_image

# Criterion 7's encoder settings and tolerances, used by every workload.
CFG = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
TOL = MatchTolerances(
    dl=0.08, dalpha=6, da=0.04, db=0.04, dphi=12, dbeta=15, dgamma=15, dpt=0.05
)

DEMO_SIZES = (50, 75, 100)
WORDS60_SIZE = 60
INK120_SIZE = 120
INK120_MARGIN = 6  # room for 3 px of dilation around the 2 px render margin
DILATIONS = (1, 2, 3)
SPECK_DENSITY = 1e-4  # isolated 1-px specks per raster pixel
# Blocks per round of timed words, and in the fixed accuracy list.  More
# timed words make the word-time quantiles depend less on the seed.
TIMED_BLOCKS = {"words60": 16, "ink120": 4 * len(DILATIONS)}
ACCURACY_BLOCKS = {"words60": 8, "ink120": 2 * len(DILATIONS)}
BLOCK_WORD_LENGTHS = (2, 2, 2, 3, 3)  # 12 glyphs, each once per block

BOOK_SIZES = (60, 100)
BOOK_PROBE_SIZE = 80
BOOK_WORD_LENGTHS = (6,) * 4 + (7,) * 8 + (8,) * 8  # 144 shapes per round
LATTICE = 0.05  # shape vertices snap to pixel centres at multiples of 20 px


@dataclass(frozen=True)
class Word:
    """One operation's input: a raster (or its PBM path) and its truth."""

    truth: tuple[str, ...]
    image: BinaryRaster
    path: str | None = None


def _rng(workload: str, seed) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# words60 and ink120: criterion-7 words of the 12 demo glyphs


def demo_table() -> ConnectivityTable:
    return ConnectivityTable(
        tuple((n, False, False) for n in DEMO_GLYPHS), connector="NONE"
    )


def write_demo_corpus(root: str) -> str:
    """Isolated renderings of the demo glyphs at DEMO_SIZES, as PBM files."""
    corpus = os.path.join(root, "demo_corpus")
    for name in DEMO_GLYPHS:
        d = os.path.join(corpus, Position.ISOLATED.value, name)
        os.makedirs(d)
        for size in DEMO_SIZES:
            write_pbm(render_glyph(name, size), os.path.join(d, f"{size}.pbm"))
    return corpus


def _blocks(rng: random.Random, count: int):
    """`count` blocks of 2-3-glyph words that use each demo glyph once."""
    names = list(DEMO_GLYPHS)
    for _ in range(count):
        rng.shuffle(names)
        lengths = list(BLOCK_WORD_LENGTHS)
        rng.shuffle(lengths)
        out, i = [], 0
        for n in lengths:
            out.append(tuple(names[i : i + n]))
            i += n
        yield out


def add_specks(bits: np.ndarray, rng: random.Random, density: float) -> np.ndarray:
    """Add round(density * area) 1-px specks, each 2 px clear of all ink."""
    out = bits.copy()
    blocked = ndimage.binary_dilation(bits, structure=np.ones((5, 5), bool))
    h, w = bits.shape
    placed = 0
    target = round(density * h * w)
    while placed < target:
        y, x = rng.randrange(2, h - 2), rng.randrange(2, w - 2)
        if blocked[y, x]:
            continue
        out[y, x] = True
        blocked[y - 2 : y + 3, x - 2 : x + 3] = True
        placed += 1
    return out


def demo_words(workload: str, seed, blocks: int, root: str | None = None) -> list[Word]:
    """`blocks` blocks of words60 or ink120 words; written as PBM under `root`."""
    rng = _rng(workload, seed)
    words = []
    for b, block in enumerate(_blocks(rng, blocks)):
        for truth in block:
            if workload == "words60":
                img = render_word_image(truth, WORDS60_SIZE)
            else:
                img = render_word_image(truth, INK120_SIZE, margin=INK120_MARGIN)
                grow = DILATIONS[b % len(DILATIONS)]
                bits = ndimage.binary_dilation(
                    img.bits, structure=np.ones((3, 3), bool), iterations=grow
                )
                img = BinaryRaster(add_specks(bits, rng, SPECK_DENSITY))
            words.append(Word(truth, img))
    rng.shuffle(words)
    if root is not None:
        os.makedirs(root, exist_ok=True)
        for i, w in enumerate(words):
            path = os.path.join(root, f"w{i:03d}.pbm")
            write_pbm(w.image, path)
            words[i] = Word(w.truth, w.image, path)
    return words


# ---------------------------------------------------------------------------
# book144: 144 distinct single-stroke shapes, 36 glyphs x 4 positions


def _snap(v: float) -> float:
    return round(v / LATTICE) * LATTICE


def _corner(r1: float, r2: float, l1: float, l2: float):
    """Two straight arms of lengths l1, l2 leaving one corner at angles r1, r2."""
    u1 = (math.cos(math.radians(r1)), -math.sin(math.radians(r1)))
    u2 = (math.cos(math.radians(r2)), -math.sin(math.radians(r2)))
    pts = [(0.0, 0.0), (l1 * u1[0], l1 * u1[1]), (l2 * u2[0], l2 * u2[1])]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    cx = _snap(0.5 - (min(xs) + max(xs)) / 2)
    cy = _snap(0.5 - (min(ys) + max(ys)) / 2)
    p = (_snap(cx + pts[1][0]), _snap(cy + pts[1][1]))
    q = (_snap(cx + pts[2][0]), _snap(cy + pts[2][1]))
    return [("line", p, (cx, cy)), ("line", (cx, cy), q)]


def _corner_is_distinct(strokes) -> bool:
    """Keep corners whose coded element order and direction stay clear of a flip.

    The arms must fit the unit square; their midpoints (where the coded
    lines are anchored) must differ in x by at least 0.08, so the element
    order is stable; and the Freeman direction between them must be 6
    degrees or more from a sector boundary.
    """
    (p, c), (_, q) = strokes[0][1:], strokes[1][1:]
    if not all(0.049 <= v <= 0.951 for pt in (p, c, q) for v in pt):
        return False
    m1 = ((p[0] + c[0]) / 2, (p[1] + c[1]) / 2)
    m2 = ((c[0] + q[0]) / 2, (c[1] + q[1]) / 2)
    if abs(m1[0] - m2[0]) < 0.08:
        return False
    a, b = sorted([m1, m2])
    ang = math.degrees(math.atan2(-(b[1] - a[1]), b[0] - a[0])) % 45.0
    return abs(ang - 22.5) >= 6.0


def book_shapes():
    """The 144 shapes, in the order they are assigned to (glyph, position).

    12 straight strokes at 15-degree steps, 4 closed ellipses (two axis
    pairs, upright and lying) and 128 corners: every equal-arm corner
    (arms 0.6) and then the first long-short corners (arms 0.45 and 0.75)
    that pass `_corner_is_distinct`, for interior angles of 90, 60, 120,
    75 and 105 degrees and first arms at 15-degree steps.
    """
    shapes = []
    for k in range(12):
        a = math.radians(15 * k)
        dx, dy = 0.4 * math.cos(a), -0.4 * math.sin(a)
        shapes.append(
            [("line", (_snap(0.5 - dx), _snap(0.5 - dy)), (_snap(0.5 + dx), _snap(0.5 + dy)))]
        )
    for a, b in ((0.34, 0.25), (0.22, 0.16)):
        for rx, ry in ((a, b), (b, a)):
            shapes.append([("arc", (0.5, 0.5), rx, ry, 0.0, 360.0)])
    corners = []
    for l1, l2 in ((0.6, 0.6), (0.45, 0.75)):
        for turn in (90, 60, 120, 75, 105):
            for r1 in range(0, 360, 15):
                strokes = _corner(r1, r1 + turn, l1, l2)
                if _corner_is_distinct(strokes):
                    corners.append(strokes)
    shapes.extend(corners[: 144 - len(shapes)])
    return shapes


def book_labels() -> list[tuple[str, str]]:
    """(glyph, position) for each shape: the 36 Arabic glyph ids x 4 positions."""
    glyphs = arabic_connectivity().glyphs
    return [(g, p.value) for p in Position for g in glyphs]


def write_book_corpus(root: str) -> str:
    """Each shape at BOOK_SIZES under <position>/<glyph>/, as PBM files."""
    corpus = os.path.join(root, "book_corpus")
    for (glyph, pos), strokes in zip(book_labels(), book_shapes()):
        d = os.path.join(corpus, pos, glyph)
        os.makedirs(d)
        for size in BOOK_SIZES:
            write_pbm(rasterize_strokes(strokes, size), os.path.join(d, f"{size}.pbm"))
    return corpus


def book_words(seed) -> list[Word]:
    """One round of probe words: all 144 shapes once, in 6-8-shape words.

    Shapes sit side by side at integer pixel offsets, each its own
    connected component, so each shape is one sub-word.
    """
    rng = _rng("book144", seed)
    labels = book_labels()
    shapes = book_shapes()
    rasters = [rasterize_strokes(s, BOOK_PROBE_SIZE).bits for s in shapes]
    order = list(range(len(shapes)))
    rng.shuffle(order)
    lengths = list(BOOK_WORD_LENGTHS)
    rng.shuffle(lengths)
    side = rasters[0].shape[0]
    words, i = [], 0
    for n in lengths:
        picks = order[i : i + n]
        i += n
        canvas = np.zeros((side, n * (side + 4)), dtype=bool)
        for k, s in enumerate(picks):
            canvas[:, k * (side + 4) : k * (side + 4) + side] = rasters[s]
        truth = tuple(f"{labels[s][0]}/{labels[s][1]}" for s in picks)
        words.append(Word(truth, BinaryRaster(canvas)))
    return words
