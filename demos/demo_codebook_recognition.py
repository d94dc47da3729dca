"""End-to-end walkthrough: build a codebook, then recognize unseen words.

Run:  python3 demos/demo_codebook_recognition.py

Renders the 12 demo glyphs at sizes 50/75/100 into a temporary corpus,
builds a codebook of size-invariant common codes, then recognizes random
2-3 glyph word images rendered at an unseen size (60) and reports the
per-glyph accuracy.
"""

import random
import tempfile
from pathlib import Path

from glyphcode import (
    EncoderConfig,
    MatchTolerances,
    build_codebook,
    encode_word,
    recognize,
    scale_word,
)
from glyphcode.raster import write_pbm
from glyphcode.render import DEMO_GLYPHS, render_glyph, render_word_image

SIZES = (50, 75, 100)
PROBE = 60


def main():
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp)
        for name in DEMO_GLYPHS:
            d = corpus / "isolated" / name
            d.mkdir(parents=True)
            for size in SIZES:
                write_pbm(render_glyph(name, size), d / f"{size}.pbm")

        book = build_codebook(
            corpus, None, list(SIZES), EncoderConfig(), MatchTolerances(), font="demo"
        )
        print(
            f"codebook: {len(book.entries)} entries, "
            f"{len(book.flagged)} flagged, {book.skipped} rasters skipped"
        )

    rng = random.Random(0)
    names = list(DEMO_GLYPHS)
    total = correct = 0
    for _ in range(40):
        truth = [rng.choice(names) for _ in range(rng.randint(2, 3))]
        img = render_word_image(truth, PROBE)
        word = scale_word(encode_word(img), 1.0 / PROBE)
        got = [g for g, _, _ in recognize(word, book, book.tolerances)]
        hit = got == truth
        total += len(truth)
        correct += sum(a == b for a, b in zip(truth, got))
        mark = "ok " if hit else "MISS"
        print(f"  {mark} truth={' '.join(truth):24s} got={' '.join(got)}")
    print(f"\nper-glyph accuracy at unseen size {PROBE}: {correct}/{total}")


if __name__ == "__main__":
    main()
