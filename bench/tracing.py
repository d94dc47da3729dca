"""Per-layer spans and counters, recorded from outside the program.

`Tracer.installed()` replaces public functions with timing wrappers at the
module attribute where their caller looks them up (for example
``glyphcode.encoder.fit_line``, which the encoder calls) and puts the
originals back on exit.  Spans nest on one stack, so a span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import glyphcode.codebook
import glyphcode.encoder
import glyphcode.raster
from glyphcode import EllipseArcCode, LineSegmentCode, PointCode

# (module, attribute, span name); one name may sit at several call sites.
SITES = (
    (glyphcode.raster, "load_image", "raster.load_image"),
    (glyphcode.codebook, "load_image", "raster.load_image"),
    (glyphcode.encoder, "thin", "raster.thin"),
    (glyphcode.encoder, "segment", "raster.segment"),
    (glyphcode.encoder, "fit_line", "geomfit.fit_line"),
    (glyphcode.encoder, "fit_ellipse", "geomfit.fit_ellipse"),
    (glyphcode.encoder, "sampson_residual", "geomfit.sampson_residual"),
    (glyphcode.encoder, "encode_word", "encoder.encode_word"),
    (glyphcode.codebook, "encode_word", "encoder.encode_word"),
    (glyphcode.encoder, "extract_lines", "encoder.extract_lines"),
    (glyphcode.encoder, "cluster_ellipses", "encoder.cluster_ellipses"),
    (glyphcode.codebook, "subset_alignment", "matcher.subset_alignment"),
    (glyphcode.codebook, "recognize", "codebook.recognize"),
    (glyphcode.codebook, "build_codebook", "codebook.build_codebook"),
    (glyphcode.codebook, "extract_common_code", "codebook.extract_common_code"),
    (glyphcode.codebook, "save_codebook", "codebook.save_codebook"),
    (glyphcode.codebook, "load_codebook", "codebook.load_codebook"),
)
_PRIMITIVE_COUNT = {
    LineSegmentCode: "encoder.lines",
    EllipseArcCode: "encoder.arcs",
    PointCode: "encoder.points",
}


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0  # seconds
    own: float = 0.0  # seconds not covered by child spans


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []  # child time of each open span

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _observe(self, name: str, result) -> None:
        if name == "raster.thin":
            self.count("raster.skeleton_px", int(result.bits.sum()))
        elif name == "raster.segment":
            self.count("raster.strokes", len(result))
        elif name == "matcher.subset_alignment":
            self.count("matcher.alignment_hits", result is not None)
        elif name == "codebook.recognize":
            self.count("codebook.placements", len(result))
        elif name == "encoder.encode_word":
            for entry in result.subwords:
                for el in entry.code.elements:
                    self.count(_PRIMITIVE_COUNT[type(el.code)])

    def wrap(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += took
                span = self.spans.setdefault(name, Span())
                span.calls += 1
                span.total += took
                span.own += took - child
            self._observe(name, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in SITES]
        try:
            for (mod, attr, name), (_, _, fn) in zip(SITES, saved):
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
