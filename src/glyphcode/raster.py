"""Binary/gray raster handling: netpbm I/O, binarization, thinning, segmentation.

Coordinates are (x, y) with the origin at the top-left corner, x growing
right and y growing down.  Pixels are plain ``(x, y)`` integer tuples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

import numpy as np

__all__ = [
    "GrayRaster",
    "BinaryRaster",
    "Stroke",
    "RasterFormatError",
    "binarize",
    "thin",
    "segment",
    "components",
    "component_paths",
    "walk_paths",
    "pixel_centroid",
    "rowmajor",
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
        return list(zip(xs.tolist(), ys.tolist()))

    @classmethod
    def from_pixels(cls, pixels, width: int, height: int) -> "BinaryRaster":
        pixels = list(pixels)
        if outside := [(x, y) for x, y in pixels if not (0 <= x < width and 0 <= y < height)]:
            raise ValueError(f"pixels {outside} are outside the {width}x{height} raster")
        bits = np.zeros((height, width), dtype=bool)
        bits[[y for _, y in pixels], [x for x, _ in pixels]] = True
        return cls(bits)


def pixel_centroid(pixels) -> tuple[float, float]:
    """Arithmetic mean of (x, y) pixel coordinates."""
    n = len(pixels)
    return sum(map(itemgetter(0), pixels)) / n, sum(map(itemgetter(1), pixels)) / n


@dataclass(frozen=True)
class Stroke:
    """One 8-connected set of skeleton pixels (a sub-word or dot).  Its
    `paths` are `walk_paths(pixels)`, walked here unless given (as
    `segment` does); they take no part in equality, hashing or repr."""

    pixels: tuple[tuple[int, int], ...]
    paths: list[list[tuple[int, int]]] | None = field(default=None, compare=False, repr=False)
    centroid: tuple[float, float] = field(init=False)

    def __post_init__(self):
        if not self.pixels:
            raise ValueError("stroke must contain at least one pixel")
        # canonical row-major order keeps downstream encoding deterministic
        ordered = tuple(sorted(self.pixels, key=rowmajor))
        object.__setattr__(self, "pixels", ordered)
        object.__setattr__(self, "centroid", pixel_centroid(ordered))
        if self.paths is None:
            object.__setattr__(self, "paths", walk_paths(ordered))

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
rowmajor = itemgetter(1, 0)  # sort key putting (x, y) pixels in row-major order


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


_BIT_WEIGHTS = np.array([1 << bit for bit in range(8)], dtype=np.uint8)


def _ring_codes(grid: np.ndarray, ink: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The 8-bit ring code of each pixel in `ink` (flat indices into the
    0/1 `grid`): one gather of the 8 ring places, weighted by their bits.
    The bits are distinct, so the uint8 product is exact."""
    return _BIT_WEIGHTS @ grid[offsets[:, None] + ink]


def _prune_redundant(on: bytearray, ink: np.ndarray, offsets: np.ndarray) -> None:
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
    redundant = _REDUNDANT.tolist()
    n, ne, e, se, s, sw, w, nw = offsets.tolist()
    for i in ink[_REDUNDANT[_ring_codes(grid, ink, offsets)]].tolist():
        if redundant[
            on[i + n] | on[i + ne] << 1 | on[i + e] << 2 | on[i + se] << 3
            | on[i + s] << 4 | on[i + sw] << 5 | on[i + w] << 6 | on[i + nw] << 7
        ]:
            on[i] = 0


def _offsets(width: int) -> np.ndarray:
    """Flat-index steps to the ring places in a row-major grid `width` wide."""
    return np.array([dy * width + dx for dx, dy in _RING])


def _padded(image: BinaryRaster) -> tuple[bytearray, np.ndarray, int]:
    """The raster as a 0/1 byte grid with a one-pixel background margin,
    the flat indices of its ink in row-major order, and the grid's width."""
    flat = np.flatnonzero(image.bits)  # y * w + x; pads to (y + 1) * width + x + 1
    width = image.width + 2
    ink = flat + 2 * (flat // image.width) + width + 1
    on = bytearray((image.height + 2) * width)
    np.frombuffer(on, dtype=np.uint8)[ink] = 1
    return on, ink, width


def thin(image: BinaryRaster) -> BinaryRaster:
    """Zhang-Suen two-subiteration thinning, iterated to fixpoint.

    Out-of-raster neighbors count as background.  Each subiteration
    deletes, in parallel, the ink pixels whose 8-bit ring code its table
    in `_ZHANG_SUEN` marks, so the result is a subset of the input
    foreground; `_prune_redundant` then removes the staircase doubling
    left on near-diagonal strokes.
    """
    on, ink, width = _padded(image)  # ink stays in row-major order
    flat = np.frombuffer(on, dtype=np.uint8)
    offsets = _offsets(width)
    changed = True
    while changed:
        changed = False
        for table in _ZHANG_SUEN:
            hit = table[_ring_codes(flat, ink, offsets)]
            flat[ink[hit]] = 0
            ink = ink[~hit]
            changed |= bool(hit.any())
    _prune_redundant(on, ink, offsets)
    return BinaryRaster(flat.reshape(-1, width)[1:-1, 1:-1])


# ---------------------------------------------------------------------------
# labelling and walking, both read from ring codes
#
# A pixel set is indexed by row-major integer keys, ascending, with a map
# from each key to its ring code and to its pixel, and the key steps to
# the ring places: flat indices into `_padded`'s grid for a raster,
# row-major places in the bounding box for a pixel set.  Integer keys
# compare in row-major order, so `min` and `sort` need no key function.

# the ring places set in each code, in ring order
_SET_BITS = [[bit for bit in range(8) if code >> bit & 1] for code in range(256)]


def _index_raster(image: BinaryRaster):
    """(keys, code, pixel, offsets) of the foreground of `image`."""
    on, ink, width = _padded(image)
    offsets = _offsets(width)
    codes = _ring_codes(np.frombuffer(on, dtype=np.uint8), ink, offsets)
    ys, xs = np.divmod(ink, width)
    keys = ink.tolist()
    pixel = dict(zip(keys, zip((xs - 1).tolist(), (ys - 1).tolist())))
    return keys, dict(zip(keys, codes.tolist())), pixel, offsets.tolist()


def _index_pixels(pixels):
    """(keys, code, pixel, offsets) of an arbitrary set of (x, y) pixels.

    A key is the pixel's row-major place in the set's bounding box with
    one margin column, which keeps ring steps off the next row.  Keys are
    plain ints and ring neighbours are found by membership tests among
    them, so nothing grows with the bounding box.
    """
    pixels = set(pixels)
    if not pixels:
        return [], {}, {}, []
    xmin = min(map(itemgetter(0), pixels))
    ymin = min(map(itemgetter(1), pixels))
    width = max(map(itemgetter(0), pixels)) - xmin + 2
    pixel = {(y - ymin) * width + x - xmin: (x, y) for x, y in pixels}
    keys = sorted(pixel)
    n, ne, e, se, s, sw, w, nw = offsets = [dy * width + dx for dx, dy in _RING]
    code = {
        k: (k + n in pixel) | (k + ne in pixel) << 1 | (k + e in pixel) << 2
        | (k + se in pixel) << 3 | (k + s in pixel) << 4 | (k + sw in pixel) << 5
        | (k + w in pixel) << 6 | (k + nw in pixel) << 7
        for k in keys
    }
    return keys, code, pixel, offsets


def _label(keys: list[int], code: dict[int, int], offsets: list[int]) -> list[list[int]]:
    """The 8-connected components of the keyed set, each sorted, in the
    order of their first keys."""
    seen = set()
    out = []
    for k in keys:  # each component is met first at its first key
        if k in seen:
            continue
        seen.add(k)
        comp = [k]
        for p in comp:  # flood fill: comp grows as it is read
            for bit in _SET_BITS[code[p]]:
                if (q := p + offsets[bit]) not in seen:
                    seen.add(q)
                    comp.append(q)
        comp.sort()
        out.append(comp)
    return out


# Ring indices in the order a walk prefers its next step: the first step
# in row-major order; after a step to ring place i, the nearest places
# first (45 degrees apart, so the least turn), ties in row-major order.
_FIRST_STEPS = sorted(range(8), key=lambda i: rowmajor(_RING[i]))
_NEXT_STEPS = [
    sorted(_FIRST_STEPS, key=lambda j, i=i: min((j - i) % 8, (i - j) % 8))
    for i in range(8)
]
# _STEP[i][code]: the preferred ring place set in `code` after a step to
# ring place i, or for a first step when i is 8; -1 for code 0
_STEP = [
    [next((j for j in order if code >> j & 1), -1) for code in range(256)]
    for order in (*_NEXT_STEPS, _FIRST_STEPS)
]
_ONE_BIT = [code.bit_count() == 1 for code in range(256)]
# the mask clearing, in a neighbour's code, the place opposite ring place i
_BACK = [0xFF ^ 1 << (i + 4) % 8 for i in range(8)]


def _walk(keys, code: dict[int, int], offsets: list[int]) -> list[list[int]]:
    """`walk_paths` over the keyed set `keys`, which holds every ring
    neighbour its codes name."""
    free = {k: code[k] for k in keys}  # each pixel's neighbours not yet taken
    ends = {k for k, c in free.items() if _ONE_BIT[c]}  # one step left
    paths = []
    while free:
        cur = min(ends or free)
        path = [cur]
        step = _STEP[8]
        while c := free.pop(cur):  # a pixel with no step left is not in ends
            ends.discard(cur)
            for bit in _SET_BITS[c]:  # cur is taken: drop it from its neighbours
                q = cur + offsets[bit]
                back = free[q] & _BACK[bit]
                free[q] = back
                if _ONE_BIT[back]:
                    ends.add(q)
                elif not back:
                    ends.discard(q)
            i = step[c]
            step = _STEP[i]
            cur += offsets[i]
            path.append(cur)
        paths.append(path)
    return paths


def _labelled_walks(keys, code, pixel, offsets) -> list[tuple[list, list[list]]]:
    """Each component of an indexed set with its walk, as pixels."""
    pixel = pixel.__getitem__
    return [
        (list(map(pixel, comp)), [list(map(pixel, path)) for path in _walk(comp, code, offsets)])
        for comp in _label(keys, code, offsets)
    ]


def components(pixels) -> list[list[tuple[int, int]]]:
    """Split a pixel set into its 8-connected components.

    Each component lists its pixels in row-major order, and components
    come in the row-major order of their first pixels.
    """
    keys, code, pixel, offsets = _index_pixels(pixels)
    return [list(map(pixel.__getitem__, comp)) for comp in _label(keys, code, offsets)]


def component_paths(pixels) -> list[tuple[list[tuple[int, int]], list[list[tuple[int, int]]]]]:
    """Each of `components(pixels)` with its `walk_paths`, from one
    reading of every pixel's ring."""
    return _labelled_walks(*_index_pixels(pixels))


def segment(image: BinaryRaster) -> list[Stroke]:
    """Split the foreground into its 8-connected components as strokes,
    each given its `walk_paths` as `Stroke.paths`: labels and walks come
    from one reading of every pixel's ring."""
    return [Stroke(tuple(comp), paths) for comp, paths in _labelled_walks(*_index_raster(image))]


def walk_paths(pixels) -> list[list[tuple[int, int]]]:
    """Maximal 8-connected pixel paths covering the set, deterministically.

    A path starts at the row-major first pixel with one neighbour left,
    else at the row-major first pixel left.  Its first step goes to the
    row-major first neighbour, each later one to the neighbour whose ring
    place is nearest the last step's (the least turn), ties to the
    row-major first.  Every pixel is taken exactly once.
    """
    keys, code, pixel, offsets = _index_pixels(pixels)
    return [list(map(pixel.__getitem__, path)) for path in _walk(keys, code, offsets)]


# ---------------------------------------------------------------------------
# netpbm I/O (PBM P1/P4 binary, PGM P2/P5 grayscale)

# One token after any whitespace and comments: a `#` starts a comment
# anywhere before the raster and runs to the end of its line.  The token
# is empty only at the end of the data.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)")


def _read_ints(data: bytes, pos: int, count: int, what: str = "header token",
               short: str = "unexpected end of header") -> tuple[list[int], int]:
    """The `count` integer tokens (`what`s) from `pos` on, and the offset past the last."""
    matches = list(islice(_TOKEN.finditer(data, pos), count))
    tokens = [m[1] for m in matches if m[1]]
    for tok in tokens:
        if not tok.isdigit():
            raise RasterFormatError(f"bad {what} {tok!r}")
    if len(tokens) < count:
        raise RasterFormatError(short)
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
        samples = np.array(_read_ints(data, pos, w * h, "P2 sample", "truncated P2 pixel data")[0])
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
