"""Command-line surface for the shape-coding pipeline.

Commands: thin, segment, encode, fit, build-codebook, recognize,
identify-font.  Exit codes: 0 success, 2 input, output or config error,
3 corpus error, 4 codebook error; `main` alone maps exceptions to them.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from . import codebook as cb
from . import config as cfgmod
from . import encoder, geomfit, raster, render

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CORPUS = 3
EXIT_CODEBOOK = 4


class CommandError(Exception):
    """A failure that `main` reports as ``error: <message>`` with `code`."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_engine_config(args) -> cfgmod.EngineConfig:
    cfg = cfgmod.load_config(args.config) if args.config else cfgmod.EngineConfig()
    if args.threshold is not None:
        cfg = replace(cfg, threshold=args.threshold)
    return cfg


def _read_input(args):
    """The engine config and the input raster."""
    cfg = _load_engine_config(args)
    return cfg, raster.load_image(args.input, cfg.threshold)


def _read_word(args) -> encoder.WordCode:
    """The encoded input, scaled by 1/--size when a size is given."""
    if args.size is not None and not 0 < args.size < math.inf:
        raise CommandError(EXIT_PARSE, f"--size must be finite and positive, got {args.size}")
    cfg, image = _read_input(args)
    word = encoder.encode_word(image, cfg.encoder)
    return word if args.size is None else encoder.scale_word(word, 1.0 / args.size)


def _write_svg(path, word: encoder.WordCode, image: raster.BinaryRaster) -> None:
    """Write the SVG overlay of `word` on the skeleton of `image`."""
    with open(path, "w") as fh:
        fh.write(render.svg_overlay(word, raster.thin(image)))


def cmd_thin(args) -> int:
    _, image = _read_input(args)
    raster.write_pbm(raster.thin(image), args.output)
    return EXIT_OK


def cmd_segment(args) -> int:
    _, image = _read_input(args)
    strokes = encoder.order_strokes(raster.segment(raster.thin(image)))
    out = [
        {"pixels": len(s), "centroid": [s.centroid[0], s.centroid[1]]}
        for s in strokes
    ]
    print(json.dumps(out, indent=1))
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg, image = _read_input(args)
    pixels = image.foreground()
    result = {}
    if args.kind in ("line", "both"):
        line = geomfit.fit_line(pixels)
        lo, hi = geomfit.segment_extent(pixels, line)
        result["line"] = {
            "p": line.p,
            "alpha": line.alpha,
            "l": hi - lo,
            "residual": geomfit.line_residual(pixels, line),
        }
    if args.kind in ("ellipse", "both"):
        coef = geomfit.fit_ellipse(pixels)
        x0, y0, a, b, phi = geomfit.conic_to_geometric(coef)
        result["ellipse"] = {
            "x0": x0,
            "y0": y0,
            "a": a,
            "b": b,
            "phi": phi,
            "coefficients": list(coef.as_array()),
        }
    print(json.dumps(result, indent=1))
    if args.svg:
        _write_svg(args.svg, encoder.encode_word(image, cfg.encoder), image)
    return EXIT_OK


def cmd_encode(args) -> int:
    cfg, image = _read_input(args)
    word = encoder.encode_word(image, cfg.encoder)
    text = encoder.word_to_json(word, indent=1)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        print(text)
    if args.svg:
        _write_svg(args.svg, word, image)
    return EXIT_OK


def cmd_build_codebook(args) -> int:
    cfg = _load_engine_config(args)
    if not os.path.isdir(args.corpus):
        raise CommandError(EXIT_CORPUS, f"corpus directory not found: {args.corpus}")
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError as exc:
        raise CommandError(EXIT_PARSE, f"bad sizes: {exc}") from exc
    if any(size < 1 for size in sizes):
        raise CommandError(EXIT_PARSE, f"--sizes must be positive integers, got {args.sizes}")
    try:
        book = cb.build_codebook(
            args.corpus, cb.arabic_connectivity(), sizes, cfg.encoder, cfg.tolerances,
            font=args.font, threshold=cfg.threshold,
        )
    except raster.RasterFormatError as exc:
        raise CommandError(EXIT_CORPUS, f"bad corpus raster: {exc}") from exc
    if not book.entries and not book.flagged:
        raise CommandError(EXIT_CORPUS, "corpus produced no codebook entries")
    cb.build_fingerprints([book])
    cb.save_codebook(book, args.output)
    print(
        f"entries={len(book.entries)} fingerprint={len(book.fingerprint)} "
        f"flagged={len(book.flagged)} skipped={book.skipped}"
    )
    return EXIT_OK


def cmd_recognize(args) -> int:
    book = cb.load_codebook(args.codebook)
    word = _read_word(args)
    for glyph, position, (si, off) in cb.recognize(word, book, book.tolerances):
        print(f"{glyph}\t{position}\t{si}\t{off}")
    return EXIT_OK


def cmd_identify_font(args) -> int:
    books = [cb.load_codebook(p) for p in args.codebooks]
    word = _read_word(args)
    name = cb.identify_font(word, books, books[0].tolerances)
    print(name if name else "unknown")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glyphcode",
        description="Shape-coding OCR: skeletons to line/arc codes and back",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, first="input"):
        """A subcommand taking `first`, --config and --threshold, run by `func`."""
        p = sub.add_parser(name, help=summary)
        p.add_argument(first)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--threshold", type=int, help="binarization threshold (0-255)")
        p.set_defaults(func=func)
        return p

    command("thin", cmd_thin, "thin an image to its skeleton").add_argument("output")
    command("segment", cmd_segment, "list skeleton strokes")
    p = command("fit", cmd_fit, "fit a line/ellipse to all ink pixels")
    p.add_argument("--kind", choices=["line", "ellipse", "both"], default="both")
    p.add_argument("--svg", help="write an SVG overlay of the encoding")
    p = command("encode", cmd_encode, "encode an image as a word code")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p.add_argument("--svg", help="write an SVG overlay of the encoding")
    p = command("build-codebook", cmd_build_codebook, "build a codebook from a corpus", "corpus")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--sizes", default="50,75,100", help="comma-separated positive px sizes")
    p.add_argument("--font", help="font name (default: corpus dir name)")
    size_help = "nominal render size for scale normalization"
    p = command("recognize", cmd_recognize, "recognize glyphs in an image")
    p.add_argument("codebook")
    p.add_argument("--size", type=float, help=size_help)
    p = command("identify-font", cmd_identify_font, "identify the font of an image")
    p.add_argument("codebooks", nargs="+")
    p.add_argument("--size", type=float, help=size_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CommandError, OSError, ValueError, geomfit.NumericalFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CommandError):
            return exc.code
        return EXIT_CODEBOOK if isinstance(exc, cb.CodebookFormatError) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
