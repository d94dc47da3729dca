"""Print one SHA-256 over the encodings of a fixed set of rasters.

    PYTHONPATH=src python3 tools/encoding_digest.py

A change meant to keep every encoding byte-identical should print the
same count and digest before and after it.  The rasters are the words60
and ink120 timed words at seeds 11 and 37 with their accuracy lists,
the book144 probe words at the same seeds and its accuracy list, the
288 book144 corpus rasters, the 12 demo glyphs at 30-128 px (every 7th
size) dilated by 0-3 px, and 20 random 40x40 rasters of coin-flip ink.
Each is encoded under `EncoderConfig()` and under `l_min=4`, and each
code is hashed as `word_to_json` writes it.  The benchmark's
`workloads.py` is imported read-only for the inputs.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
from scipy import ndimage

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads as W  # noqa: E402
from glyphcode import BinaryRaster, EncoderConfig, encode_word, word_to_json  # noqa: E402
from glyphcode.render import DEMO_GLYPHS, rasterize_strokes, render_glyph  # noqa: E402

SEEDS = (11, 37)
CONFIGS = (EncoderConfig(), EncoderConfig(l_min=4.0))


def rasters():
    """The fixed raster set, in a fixed order, made lazily."""
    for workload in ("words60", "ink120"):
        blocks = [(seed, W.TIMED_BLOCKS[workload]) for seed in SEEDS]
        for seed, count in blocks + [("accuracy", W.ACCURACY_BLOCKS[workload])]:
            yield from (w.image for w in W.demo_words(workload, seed, count))
    for seed in (*SEEDS, "accuracy"):
        yield from (w.image for w in W.book_words(seed))
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


if __name__ == "__main__":
    print(*digest(rasters()))
