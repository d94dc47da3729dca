"""Binary/gray raster handling: netpbm I/O, binarization, thinning, segmentation.

Coordinates are (x, y) with the origin at the top-left corner, x growing
right and y growing down.  Pixels are plain ``(x, y)`` integer tuples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

__all__ = [
    "GrayRaster",
    "BinaryRaster",
    "Stroke",
    "RasterFormatError",
    "binarize",
    "thin",
    "segment",
    "centroid",
    "pixel_centroid",
    "load_image",
    "read_netpbm",
    "write_pbm",
]

# 8-connectivity structuring element used for component labeling
_EIGHT = np.ones((3, 3), dtype=bool)


class RasterFormatError(ValueError):
    """Malformed or unsupported netpbm input."""


@dataclass(frozen=True)
class GrayRaster:
    """Grayscale image; samples are uint8 intensities, shape (height, width)."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.uint8)
        if s.ndim != 2 or s.shape[0] < 1 or s.shape[1] < 1:
            raise ValueError("samples must be a non-empty 2-D array")
        object.__setattr__(self, "samples", s)

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class BinaryRaster:
    """Bit grid; bits[y, x] is True where the pixel is foreground (ink)."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=bool)
        if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 1:
            raise ValueError("bits must be a non-empty 2-D array")
        object.__setattr__(self, "bits", b)

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    def foreground(self) -> list[tuple[int, int]]:
        """Foreground pixels as (x, y) tuples in row-major order."""
        ys, xs = np.nonzero(self.bits)
        return [(int(x), int(y)) for y, x in zip(ys, xs)]

    @classmethod
    def from_pixels(cls, pixels, width: int, height: int) -> "BinaryRaster":
        bits = np.zeros((height, width), dtype=bool)
        for x, y in pixels:
            bits[y, x] = True
        return cls(bits)


def pixel_centroid(pixels) -> tuple[float, float]:
    """Arithmetic mean of (x, y) pixel coordinates."""
    n = len(pixels)
    return sum(p[0] for p in pixels) / n, sum(p[1] for p in pixels) / n


@dataclass(frozen=True)
class Stroke:
    """One 8-connected set of skeleton pixels (a sub-word or dot)."""

    pixels: tuple[tuple[int, int], ...]
    centroid: tuple[float, float] = field(init=False)

    def __post_init__(self):
        if not self.pixels:
            raise ValueError("stroke must contain at least one pixel")
        # canonical row-major order keeps downstream encoding deterministic
        ordered = tuple(sorted(self.pixels, key=lambda p: (p[1], p[0])))
        object.__setattr__(self, "pixels", ordered)
        object.__setattr__(self, "centroid", pixel_centroid(ordered))

    def __len__(self) -> int:
        return len(self.pixels)


def binarize(image: GrayRaster, threshold: int = 128) -> BinaryRaster:
    """Dark-on-light binarization: foreground iff intensity < threshold."""
    if not 0 <= threshold <= 255:
        raise ValueError("threshold must be in [0, 255]")
    return BinaryRaster(image.samples < threshold)


_RING = [(0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1)]


def _prune_redundant(img: np.ndarray) -> np.ndarray:
    """Delete staircase pixels the parallel passes cannot remove.

    Zhang-Suen leaves two-pixel bumps on near-diagonal strokes.  A pixel
    is redundant when its ON neighbors remain mutually 8-connected
    without it; removing redundant non-endpoint pixels (sequentially, in
    row-major order) yields single-pixel chains and cannot change
    connectivity or drop endpoints.
    """
    h, w = img.shape
    on = {(int(x), int(y)) for y, x in zip(*np.nonzero(img))}
    changed = True
    while changed:
        changed = False
        for px, py in sorted(on, key=lambda p: (p[1], p[0])):
            nbrs = [
                (px + dx, py + dy) for dx, dy in _RING if (px + dx, py + dy) in on
            ]
            if len(nbrs) < 2:
                continue
            # neighbors connected among themselves (pixel itself excluded)?
            comp = {nbrs[0]}
            frontier = [nbrs[0]]
            rest = set(nbrs[1:])
            while frontier and rest:
                cx, cy = frontier.pop()
                near = {
                    q for q in rest if abs(q[0] - cx) <= 1 and abs(q[1] - cy) <= 1
                }
                rest -= near
                comp |= near
                frontier.extend(near)
            if not rest:
                on.discard((px, py))
                changed = True
    out = np.zeros_like(img)
    for x, y in on:
        out[y, x] = 1
    return out


def thin(image: BinaryRaster) -> BinaryRaster:
    """Zhang-Suen two-subiteration thinning, iterated to fixpoint.

    Out-of-raster neighbors count as background.  The result's foreground
    is always a subset of the input foreground.  A sequential pruning
    pass removes the staircase doubling the parallel iterations leave on
    near-diagonal strokes.
    """
    img = image.bits.astype(np.uint8)
    while True:
        changed = False
        for step in (0, 1):
            p = np.pad(img, 1)
            # neighbors in the usual Zhang-Suen order p2..p9 (N, NE, E, ...)
            p2 = p[0:-2, 1:-1]
            p3 = p[0:-2, 2:]
            p4 = p[1:-1, 2:]
            p5 = p[2:, 2:]
            p6 = p[2:, 1:-1]
            p7 = p[2:, 0:-2]
            p8 = p[1:-1, 0:-2]
            p9 = p[0:-2, 0:-2]
            ring = [p2, p3, p4, p5, p6, p7, p8, p9]
            b = sum(ring)
            a = sum(
                ((ring[i] == 0) & (ring[(i + 1) % 8] == 1)).astype(np.uint8)
                for i in range(8)
            )
            cond = (img == 1) & (b >= 2) & (b <= 6) & (a == 1)
            if step == 0:
                cond &= (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
            else:
                cond &= (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
            if cond.any():
                img[cond] = 0
                changed = True
        if not changed:
            break
    return BinaryRaster(_prune_redundant(img).astype(bool))


def segment(image: BinaryRaster) -> list[Stroke]:
    """Split the foreground into its 8-connected components."""
    labels, count = ndimage.label(image.bits, structure=_EIGHT)
    strokes = []
    for i in range(1, count + 1):
        ys, xs = np.nonzero(labels == i)
        strokes.append(Stroke(tuple((int(x), int(y)) for x, y in zip(xs, ys))))
    return strokes


def centroid(stroke: Stroke) -> tuple[float, float]:
    """Arithmetic mean of the stroke's pixel coordinates."""
    return stroke.centroid


# ---------------------------------------------------------------------------
# netpbm I/O (PBM P1/P4 binary, PGM P2/P5 grayscale)

def _read_tokens(data: bytes, count: int, pos: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens, skipping comments."""
    tokens: list[int] = []
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos >= n:
            raise RasterFormatError("unexpected end of header")
        if data[pos : pos + 1] == b"#":
            while pos < n and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        tok = data[start:pos]
        if not tok.isdigit():
            raise RasterFormatError(f"bad header token {tok!r}")
        tokens.append(int(tok))
    return tokens, pos


def read_netpbm(path) -> GrayRaster | BinaryRaster:
    """Read a PBM (P1/P4) or PGM (P2/P5) file.

    Returns a BinaryRaster for PBM input and a GrayRaster for PGM input.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise RasterFormatError("file too short for a netpbm header")
    magic = data[:2]
    pos = 2
    if magic in (b"P1", b"P4"):
        (w, h), pos = _read_tokens(data, 2, pos)
        if w < 1 or h < 1:
            raise RasterFormatError("width and height must be positive")
        if magic == b"P1":
            # comments run to the end of the line, as in the header
            body = b"".join(re.sub(rb"#[^\n]*", b"", data[pos:]).split())
            if body.translate(None, b"01"):
                raise RasterFormatError("P1 pixel data must be 0s and 1s")
            if len(body) < w * h:
                raise RasterFormatError("truncated P1 pixel data")
            bits = np.frombuffer(body[: w * h], dtype="S1") == b"1"
            return BinaryRaster(bits.reshape(h, w))
        pos += 1  # single whitespace after header
        rowbytes = (w + 7) // 8
        raw = data[pos : pos + rowbytes * h]
        if len(raw) < rowbytes * h:
            raise RasterFormatError("truncated P4 pixel data")
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, rowbytes)
        bits = np.unpackbits(rows, axis=1)[:, :w].astype(bool)
        return BinaryRaster(bits)
    if magic in (b"P2", b"P5"):
        (w, h, maxval), pos = _read_tokens(data, 3, pos)
        if w < 1 or h < 1 or not 0 < maxval < 65536:
            raise RasterFormatError("bad PGM dimensions or maxval")
        if maxval > 255:
            raise RasterFormatError("16-bit PGM is not supported")
        if magic == b"P2":
            vals, _ = _read_tokens(data, w * h, pos)
            arr = np.array(vals, dtype=np.uint8).reshape(h, w)
        else:
            pos += 1
            raw = data[pos : pos + w * h]
            if len(raw) < w * h:
                raise RasterFormatError("truncated P5 pixel data")
            arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, w)
        if maxval != 255:
            arr = (arr.astype(np.uint32) * 255 // maxval).astype(np.uint8)
        return GrayRaster(arr)
    raise RasterFormatError(f"unsupported magic {magic!r}")


def load_image(path, threshold: int = 128) -> BinaryRaster:
    """Read any supported netpbm file as a BinaryRaster (PGM is binarized)."""
    img = read_netpbm(path)
    if isinstance(img, GrayRaster):
        return binarize(img, threshold)
    return img


def write_pbm(image: BinaryRaster, path) -> None:
    """Write a BinaryRaster as raw PBM (P4)."""
    w, h = image.width, image.height
    packed = np.packbits(image.bits.astype(np.uint8), axis=1)
    with open(path, "wb") as fh:
        fh.write(f"P4\n{w} {h}\n".encode())
        fh.write(packed.tobytes())
