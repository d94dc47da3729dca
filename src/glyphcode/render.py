"""Synthetic glyph rasterization and SVG debug rendering.

Glyphs are described in a unit square with y growing down, as short lists
of strokes: ("line", (x1, y1), (x2, y2)) or
("arc", (cx, cy), rx, ry, start_deg, end_deg) with the arc swept in the
direction of increasing parameter angle (screen clockwise).  Rendering
scales by a nominal size in pixels and draws 1-px-wide strokes, so the
result is already near-skeletal.
"""

from __future__ import annotations

import math

from .encoder import (
    FREEMAN_NULL,
    EllipseArcCode,
    LineSegmentCode,
    PointCode,
    WordCode,
)
from .raster import BinaryRaster

__all__ = [
    "DEMO_GLYPHS",
    "rasterize_strokes",
    "render_glyph",
    "render_word_image",
    "svg_overlay",
]


# Twelve demo glyphs built from 1-3 line/arc strokes.  Ovals are kept
# visibly non-circular so the fitted rotation angle stays stable.
DEMO_GLYPHS = {
    "vline": [("line", (0.50, 0.10), (0.50, 0.90))],
    "hline": [("line", (0.10, 0.50), (0.90, 0.50))],
    "slash": [("line", (0.10, 0.90), (0.90, 0.10))],
    "bslash": [("line", (0.10, 0.10), (0.90, 0.90))],
    "ell": [
        ("line", (0.20, 0.10), (0.20, 0.90)),
        ("line", (0.20, 0.90), (0.90, 0.90)),
    ],
    "vee": [
        ("line", (0.10, 0.10), (0.50, 0.90)),
        ("line", (0.50, 0.90), (0.90, 0.10)),
    ],
    "zig": [
        ("line", (0.15, 0.90), (0.15, 0.10)),
        ("line", (0.15, 0.10), (0.85, 0.90)),
        ("line", (0.85, 0.90), (0.85, 0.10)),
    ],
    "seven": [
        ("line", (0.10, 0.15), (0.90, 0.15)),
        ("line", (0.90, 0.15), (0.40, 0.90)),
    ],
    "oval": [("arc", (0.50, 0.50), 0.36, 0.27, 0.0, 360.0)],
    "cee": [("arc", (0.55, 0.50), 0.26, 0.36, 55.0, 305.0)],
    "uu": [("arc", (0.50, 0.45), 0.36, 0.26, -35.0, 215.0)],
    "jay": [
        ("line", (0.70, 0.08), (0.70, 0.55)),
        ("arc", (0.50, 0.55), 0.20, 0.28, 0.0, 215.0),
    ],
}


def _stroke_points(stroke, size: float, offset=(0.0, 0.0)):
    """Densely sampled (x, y) float points of one stroke, in pixels."""
    ox, oy = offset
    kind = stroke[0]
    pts = []
    if kind == "line":
        (x1, y1), (x2, y2) = stroke[1], stroke[2]
        length = math.hypot(x2 - x1, y2 - y1) * size
        steps = max(2, int(length * 4))
        for i in range(steps + 1):
            u = i / steps
            pts.append(
                (ox + (x1 + u * (x2 - x1)) * size, oy + (y1 + u * (y2 - y1)) * size)
            )
    elif kind == "arc":
        (cx, cy), rx, ry, a0, a1 = stroke[1], stroke[2], stroke[3], stroke[4], stroke[5]
        arclen = math.radians(abs(a1 - a0)) * max(rx, ry) * size
        steps = max(8, int(arclen * 4))
        for i in range(steps + 1):
            u = math.radians(a0 + (a1 - a0) * i / steps)
            pts.append(
                (
                    ox + (cx + rx * math.cos(u)) * size,
                    oy + (cy + ry * math.sin(u)) * size,
                )
            )
    else:
        raise ValueError(f"unknown stroke kind {kind!r}")
    return pts


def _ink(strokes, size: float, offset) -> set[tuple[int, int]]:
    """The pixels the strokes cover, drawn at the nominal size from `offset`."""
    points = [p for stroke in strokes for p in _stroke_points(stroke, size, offset)]
    return {(round(x), round(y)) for x, y in points}


def rasterize_strokes(strokes, size: int, margin: int = 2) -> BinaryRaster:
    """Draw the strokes at the given nominal size onto a fresh raster."""
    pixels = _ink(strokes, size, (margin, margin))
    w = size + 2 * margin + 1
    h = size + 2 * margin + 1
    return BinaryRaster.from_pixels(pixels, w, h)


def render_glyph(name: str, size: int, margin: int = 2) -> BinaryRaster:
    return rasterize_strokes(DEMO_GLYPHS[name], size, margin)


def render_word_image(names, size: int, gap: float = 0.35, margin: int = 2):
    """Place glyphs left to right with a gap, as one raster.

    Each glyph stays a separate connected component, so segmentation
    yields one sub-word per glyph.
    """
    pixels = set()
    for gi, name in enumerate(names):
        ox = margin + gi * (1.0 + gap) * size
        pixels |= _ink(DEMO_GLYPHS[name], size, (ox, margin))
    w = int(margin + len(names) * (1.0 + gap) * size) + margin + 1
    h = size + 2 * margin + 1
    return BinaryRaster.from_pixels(pixels, w, h)


# ---------------------------------------------------------------------------
# SVG overlay for visual auditing of decompositions

def _arc_path(code: EllipseArcCode) -> str:
    """Sampled polyline along the coded arc (robust for any sweep)."""
    b = code.beta
    span = (code.gamma - code.beta) % 360.0
    if span == 0.0:
        span = 360.0
    phi = math.radians(code.phi)
    pts = []
    steps = 48
    for i in range(steps + 1):
        ang = math.radians(b + span * i / steps)
        ex = code.a * math.cos(ang)
        ey = code.b * math.sin(ang)
        x = code.x0 + ex * math.cos(phi) - ey * math.sin(phi)
        y = code.y0 + ex * math.sin(phi) + ey * math.cos(phi)
        pts.append(f"{x:.2f},{y:.2f}")
    return "M " + " L ".join(pts)


def _draw_point(code: PointCode, anchor) -> str:
    return (
        f'<circle cx="{code.x:.2f}" cy="{code.y:.2f}" r="1.2" '
        'fill="none" stroke="green" stroke-width="0.4"/>'
    )


def _draw_line(code: LineSegmentCode, anchor) -> str:
    """The segment of length l centred on the anchor's projection."""
    a = math.radians(code.alpha)
    nx, ny = math.cos(a), math.sin(a)
    dx, dy = -math.sin(a), math.cos(a)
    t0 = 0.0 if anchor is None else anchor[0] * dx + anchor[1] * dy
    x1 = code.p * nx + (t0 - code.l / 2) * dx
    y1 = code.p * ny + (t0 - code.l / 2) * dy
    x2 = code.p * nx + (t0 + code.l / 2) * dx
    y2 = code.p * ny + (t0 + code.l / 2) * dy
    return (
        f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
        f'y2="{y2:.2f}" stroke="blue" stroke-width="0.5"/>'
    )


def _draw_arc(code: EllipseArcCode, anchor) -> str:
    return (
        f'<path d="{_arc_path(code)}" fill="none" stroke="red" '
        'stroke-width="0.5"/>'
    )


_DRAW = {PointCode: _draw_point, LineSegmentCode: _draw_line, EllipseArcCode: _draw_arc}


def svg_overlay(word: WordCode, skeleton: BinaryRaster) -> str:
    """SVG drawing of the skeleton with fitted primitives and directions."""
    w, h = skeleton.width, skeleton.height
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w * 4}" height="{h * 4}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for x, y in skeleton.foreground():
        parts.append(
            f'<rect x="{x}" y="{y}" width="1" height="1" fill="#ccc"/>'
        )
    for entry in word.subwords:
        for el in entry.code.elements:
            parts.append(_DRAW[type(el.code)](el.code, el.anchor))
            if el.anchor is not None:
                for j, d in enumerate(el.dirs):
                    if d == FREEMAN_NULL:
                        continue
                    ang = math.radians(45.0 * d)
                    ax, ay = el.anchor
                    bx = ax + 4.0 * math.cos(ang)
                    by = ay - 4.0 * math.sin(ang)
                    parts.append(
                        f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" '
                        f'y2="{by:.2f}" stroke="orange" stroke-width="0.3" '
                        f'opacity="{1.0 - 0.25 * j:.2f}"/>'
                    )
    parts.append("</svg>")
    return "\n".join(parts)
