"""Binary/gray raster handling: netpbm I/O, binarization, thinning, segmentation.

Coordinates are (x, y) with the origin at the top-left corner, x growing
right and y growing down.  Pixels are plain ``(x, y)`` integer tuples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice

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
    "components",
    "neighbors",
    "pixel_centroid",
    "load_image",
    "read_netpbm",
    "write_pbm",
]


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


# The 8 neighbors in the usual Zhang-Suen order p2..p9 (N, NE, E, SE, S,
# SW, W, NW).  Bit i of a pixel's ring code is set when _RING[i] is ink.
_RING = [(0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1)]


def _transitions(code: int) -> int:
    """Zhang-Suen's A: OFF-to-ON steps once around the ring."""
    return sum(1 for i in range(8) if not code >> i & 1 and code >> (i + 1) % 8 & 1)


def _redundant(code: int) -> bool:
    """At least two ON neighbors, mutually 8-connected without the center.

    Ring neighbors touch, and so do two ON edge neighbors around the
    corner between them (N and E across NE, and so on).  With each such
    OFF corner filled, the ON neighbors are connected iff A <= 1.
    """
    filled = code
    for corner in (1, 3, 5, 7):
        if code >> (corner - 1) & 1 and code >> (corner + 1) % 8 & 1:
            filled |= 1 << corner
    return code.bit_count() >= 2 and _transitions(filled) <= 1


def _deletable(code: int, products) -> bool:
    """Zhang-Suen's rule: 2 <= B <= 6, A = 1, and both of the step's
    products of edge neighbors are zero (bits 0, 2, 4, 6 are N, E, S, W)."""
    return (
        2 <= code.bit_count() <= 6
        and _transitions(code) == 1
        and all(code & mask != mask for mask in products)
    )


# the products are N.E.S and E.S.W in step 0, N.E.W and N.S.W in step 1
_ZHANG_SUEN = [
    np.array([_deletable(c, products) for c in range(256)])
    for products in ((0b0010101, 0b1010100), (0b1000101, 0b1010001))
]
_REDUNDANT = np.array([_redundant(c) for c in range(256)])


def neighbors(pixel, pool) -> list[tuple[int, int]]:
    """The 8-neighbors of `pixel` that are in `pool`, in ring order."""
    x, y = pixel
    return [q for dx, dy in _RING if (q := (x + dx, y + dy)) in pool]


def _ring_codes(grid: np.ndarray, ink: np.ndarray, offsets) -> np.ndarray:
    """The 8-bit ring code of each pixel in `ink` (flat indices into `grid`)."""
    code = np.zeros(len(ink), dtype=np.uint8)
    for bit, off in enumerate(offsets):
        code |= grid[ink + off] << bit
    return code


def _prune_redundant(on: bytearray, ink: np.ndarray, offsets: list[int]) -> None:
    """Delete staircase pixels the parallel passes cannot remove.

    Zhang-Suen leaves two-pixel bumps on near-diagonal strokes.  A pixel
    is redundant when `_REDUNDANT` marks its ring code: its ON neighbors
    stay mutually 8-connected without it.  Deleting redundant pixels one
    at a time, in row-major order over `ink` (flat indices into the grid
    `on`; `offsets` lead to the ring), yields single-pixel chains and
    cannot change connectivity or drop endpoints.

    Deleting a redundant pixel q never makes a ring neighbor p redundant:
    q would have to be cut off from p's other ON neighbors, but inside
    q's ring p touches another ON neighbor of q, which is then ON in p's
    ring and touches q.  So one pass leaves no redundant pixel, and it
    need only visit the pixels redundant before it starts, each checked
    again in its turn, since an earlier deletion may have made it a
    bridge.
    """
    grid = np.frombuffer(on, dtype=np.uint8)
    ring = list(enumerate(offsets))
    for i in ink[_REDUNDANT[_ring_codes(grid, ink, offsets)]].tolist():
        if _REDUNDANT[sum(1 << bit for bit, off in ring if on[i + off])]:
            on[i] = 0


def thin(image: BinaryRaster) -> BinaryRaster:
    """Zhang-Suen two-subiteration thinning, iterated to fixpoint.

    Out-of-raster neighbors count as background.  Each subiteration
    deletes, in parallel, the ink pixels whose 8-bit ring code its table
    in `_ZHANG_SUEN` marks, so the result is a subset of the input
    foreground; `_prune_redundant` then removes the staircase doubling
    left on near-diagonal strokes.
    """
    padded = np.pad(image.bits, 1).astype(np.uint8)
    on = bytearray(padded.tobytes())
    flat = np.frombuffer(on, dtype=np.uint8)
    offsets = [dy * padded.shape[1] + dx for dx, dy in _RING]
    ink = np.flatnonzero(flat)  # stays in row-major order
    changed = True
    while changed:
        changed = False
        for table in _ZHANG_SUEN:
            hit = table[_ring_codes(flat, ink, offsets)]
            flat[ink[hit]] = 0
            ink = ink[~hit]
            changed |= bool(hit.any())
    _prune_redundant(on, ink, offsets)
    return BinaryRaster(flat.reshape(padded.shape)[1:-1, 1:-1])


def components(pixels) -> list[list[tuple[int, int]]]:
    """Split a pixel set into its 8-connected components.

    Each component lists its pixels in row-major order, and components
    come in the row-major order of their first pixels, the order in which
    ndimage numbers its labels.
    """
    if not pixels:
        return []
    x, y = np.array(list(pixels)).T
    x0, y0 = x.min(), y.min()
    bits = np.zeros((y.max() - y0 + 1, x.max() - x0 + 1), dtype=bool)
    bits[y - y0, x - x0] = True
    labels, count = ndimage.label(bits, structure=np.ones((3, 3)))
    out = [[] for _ in range(count)]
    ys, xs = np.nonzero(labels)
    for k, x, y in zip(labels[ys, xs].tolist(), (xs + x0).tolist(), (ys + y0).tolist()):
        out[k - 1].append((x, y))
    return out


def segment(image: BinaryRaster) -> list[Stroke]:
    """Split the foreground into its 8-connected components."""
    return [Stroke(tuple(c)) for c in components(image.foreground())]


# ---------------------------------------------------------------------------
# netpbm I/O (PBM P1/P4 binary, PGM P2/P5 grayscale)

# One token after any whitespace and comments: a `#` starts a comment
# anywhere before the raster and runs to the end of its line.  The token
# is empty only at the end of the data.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)")


def _read_ints(data: bytes, pos: int, count: int) -> tuple[list[int], int]:
    """The `count` integer tokens from `pos` on, and the offset past the last."""
    matches = list(islice(_TOKEN.finditer(data, pos), count))
    tokens = [m[1] for m in matches if m[1]]
    for tok in tokens:
        if not tok.isdigit():
            raise RasterFormatError(f"bad header token {tok!r}")
    if len(tokens) < count:
        raise RasterFormatError("unexpected end of header")
    return [int(tok) for tok in tokens], matches[-1].end()


def read_netpbm(path) -> GrayRaster | BinaryRaster:
    """Read a PBM (P1/P4) or PGM (P2/P5) file.

    Returns a BinaryRaster for PBM input and a GrayRaster for PGM input.
    The raw P4 and P5 rasters start after one whitespace byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise RasterFormatError("file too short for a netpbm header")
    magic = data[:2]
    if magic not in (b"P1", b"P2", b"P4", b"P5"):
        raise RasterFormatError(f"unsupported magic {magic!r}")
    gray = magic in (b"P2", b"P5")
    if gray:
        (w, h, maxval), pos = _read_ints(data, 2, 3)
        if w < 1 or h < 1 or not 0 < maxval < 65536:
            raise RasterFormatError("bad PGM dimensions or maxval")
        if maxval > 255:
            raise RasterFormatError("16-bit PGM is not supported")
    else:
        (w, h), pos = _read_ints(data, 2, 2)
        if w < 1 or h < 1:
            raise RasterFormatError("width and height must be positive")
    if magic == b"P1":
        body = b"".join(_TOKEN.findall(data, pos))
        if body.translate(None, b"01"):
            raise RasterFormatError("P1 pixel data must be 0s and 1s")
        if len(body) < w * h:
            raise RasterFormatError("truncated P1 pixel data")
        return BinaryRaster((np.frombuffer(body[: w * h], dtype="S1") == b"1").reshape(h, w))
    if magic == b"P2":
        samples = np.array(_read_ints(data, pos, w * h)[0])
    else:
        if data.startswith(b"#", pos):
            raise RasterFormatError(f"no whitespace byte before the {magic.decode()} raster")
        size = w * h if gray else (w + 7) // 8 * h
        raw = data[pos + 1 : pos + 1 + size]
        if len(raw) < size:
            raise RasterFormatError(f"truncated {magic.decode()} pixel data")
        samples = np.frombuffer(raw, dtype=np.uint8).reshape(h, -1)
        if not gray:
            return BinaryRaster(np.unpackbits(samples, axis=1)[:, :w])
    if samples.max() > maxval:
        raise RasterFormatError(f"PGM sample above maxval {maxval}")
    if maxval != 255:
        samples = samples.astype(np.uint32) * 255 // maxval
    return GrayRaster(samples.reshape(h, w))


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
