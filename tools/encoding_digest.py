"""Print one SHA-256 over the encodings of a fixed set of rasters, and
one over the placements `recognize` finds in the benchmark's words.

    PYTHONPATH=src python3 tools/encoding_digest.py

A change meant to keep every encoding and placement byte-identical
should print the same two lines, each a count and a digest, before and
after it.

The encoded rasters are the words60 and ink120 timed words at seeds 11
and 37 with their accuracy lists, the book144 probe words at the same
seeds and its accuracy list, the 288 book144 corpus rasters, the 12 demo
glyphs at 30-128 px (every 7th size) dilated by 0-3 px, and 20 random
40x40 rasters of coin-flip ink.  Each is encoded under `EncoderConfig()`
and under `l_min=4`, and each code is hashed as `word_to_json` writes it.

The recognized words are the same words60, ink120 and book144 words,
coded and scaled as the benchmark does: the demo words against the demo
book, at their workload's size, and the book144 probes against book144.
Each placement list is hashed as `json.dumps` writes it.  The
benchmark's `workloads.py` is imported read-only for the inputs and the
books' corpora and settings.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy import ndimage

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads as W  # noqa: E402
from glyphcode import (  # noqa: E402
    BinaryRaster,
    EncoderConfig,
    arabic_connectivity,
    build_codebook,
    encode_word,
    recognize,
    scale_word,
    word_to_json,
)
from glyphcode.render import DEMO_GLYPHS, rasterize_strokes, render_glyph  # noqa: E402

SEEDS = (11, 37)
CONFIGS = (EncoderConfig(), EncoderConfig(l_min=4.0))
SIZES = {"words60": W.WORDS60_SIZE, "ink120": W.INK120_SIZE}


def demo_words():
    """(workload, raster) of the words60 and ink120 timed words at SEEDS
    and of their accuracy lists."""
    for workload in SIZES:
        blocks = [(seed, W.TIMED_BLOCKS[workload]) for seed in SEEDS]
        for seed, count in blocks + [("accuracy", W.ACCURACY_BLOCKS[workload])]:
            yield from ((workload, w.image) for w in W.demo_words(workload, seed, count))


def book_words():
    """The book144 probe words at SEEDS and of its accuracy list."""
    for seed in (*SEEDS, "accuracy"):
        yield from (w.image for w in W.book_words(seed))


def rasters():
    """The fixed raster set, in a fixed order, made lazily."""
    yield from (image for _, image in demo_words())
    yield from book_words()
    for strokes in W.book_shapes():
        for size in W.BOOK_SIZES:
            yield rasterize_strokes(strokes, size)
    square = np.ones((3, 3), bool)
    for name in DEMO_GLYPHS:
        for size in range(30, 129, 7):
            bits = render_glyph(name, size, margin=6).bits
            for grow in range(4):
                if grow:
                    bits = ndimage.binary_dilation(bits, square)
                yield BinaryRaster(bits)
    for seed in range(20):
        yield BinaryRaster(np.random.RandomState(seed).rand(40, 40) < 0.5)


def digest(images) -> tuple[int, str]:
    """(number of encodings, SHA-256 over their `word_to_json` texts)."""
    h = hashlib.sha256()
    count = 0
    for image in images:
        for cfg in CONFIGS:
            h.update(word_to_json(encode_word(image, cfg)).encode())
            h.update(b"\n")
            count += 1
    return count, h.hexdigest()


def build_books(root) -> dict:
    """The demo book and book144, built from corpora written under `root`."""
    return {
        "demo": build_codebook(
            W.write_demo_corpus(root), W.demo_table(), list(W.DEMO_SIZES), W.CFG, W.TOL
        ),
        "book144": build_codebook(
            W.write_book_corpus(root), arabic_connectivity(), list(W.BOOK_SIZES), W.CFG, W.TOL
        ),
    }


def recognitions():
    """(book name, raster, size) of each recognized word, in a fixed order."""
    for workload, image in demo_words():
        yield "demo", image, SIZES[workload]
    for image in book_words():
        yield "book144", image, W.BOOK_PROBE_SIZE


def placement_digest(words, books) -> tuple[int, str]:
    """(number of words, SHA-256 over the placements `recognize` finds)."""
    h = hashlib.sha256()
    count = 0
    for name, image, size in words:
        word = scale_word(encode_word(image, W.CFG), 1.0 / size)
        h.update(json.dumps(recognize(word, books[name], W.TOL)).encode())
        h.update(b"\n")
        count += 1
    return count, h.hexdigest()


if __name__ == "__main__":
    print(*digest(rasters()))
    with tempfile.TemporaryDirectory() as root:
        print(*placement_digest(recognitions(), build_books(root)))
