"""Encoding walkthrough: raster in, primitive codes out, SVG overlay.

Run:  python3 demos/demo_encoding.py [outdir]

Encodes a few synthetic glyphs into their line/arc/point codes with
Freeman chain directions, prints the codes, and writes an SVG overlay of
the fitted primitives on top of the skeleton for visual inspection.
"""

import sys
from pathlib import Path

from glyphcode import encode_word
from glyphcode.encoder import word_to_json
from glyphcode.raster import thin
from glyphcode.render import render_glyph, render_word_image, svg_overlay


def describe(word):
    for si, entry in enumerate(word.subwords):
        print(f"  sub-word {si} (dirs {entry.dirs}):")
        for el in entry.code.elements:
            c = el.code
            kind = type(c).__name__
            if kind == "LineSegmentCode":
                desc = f"line p={c.p:.1f} alpha={c.alpha:.1f} l={c.l:.1f}"
            elif kind == "EllipseArcCode":
                desc = (
                    f"arc a={c.a:.1f} b={c.b:.1f} phi={c.phi:.1f} "
                    f"beta={c.beta:.1f} gamma={c.gamma:.1f}"
                )
            else:
                desc = f"point ({c.x:.1f}, {c.y:.1f})"
            print(f"    {desc}  dirs={el.dirs}")


def main():
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_out")
    outdir.mkdir(exist_ok=True)

    for name in ("vee", "zig", "oval", "jay"):
        img = render_glyph(name, 80)
        word = encode_word(img)
        print(f"glyph '{name}':")
        describe(word)
        (outdir / f"{name}.svg").write_text(svg_overlay(word, thin(img)))

    print()
    print("three-glyph word image:")
    img = render_word_image(["vee", "oval", "zig"], 80)
    word = encode_word(img)
    describe(word)
    (outdir / "word.svg").write_text(svg_overlay(word, thin(img)))
    (outdir / "word.json").write_text(word_to_json(word, indent=1))
    print(f"\nwrote SVG overlays and word.json to {outdir}/")


if __name__ == "__main__":
    main()
