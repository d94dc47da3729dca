"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own numerics: the line
oracle is a brute-force grid search, the thinning oracle is a scalar
re-implementation of the two-subiteration rules followed by a
breadth-first-search staircase prune, and the alignment oracle
enumerates every monotone alignment.
"""

import itertools
import math
import random

import numpy as np
import pytest

from glyphcode import (
    BinaryRaster,
    CodedElement,
    EllipseArcCode,
    LineSegmentCode,
    PointCode,
)
from glyphcode.matcher import element_match, element_subset

# ---------------------------------------------------------------------------
# brute-force polar line oracle


def grid_line_oracle(points, alpha_step=0.1, p_step=0.05):
    """Grid-search minimum of the orthogonal SSE over (alpha, p).

    alpha ranges over [0, 180) and p over [0, diag]; for each alpha the
    best grid p is the one nearest the projection mean, which is exactly
    the grid minimum because the SSE is quadratic in p.
    """
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    diag = math.hypot(x.max() - x.min() + abs(x.min()), y.max() + abs(y.min())) + max(
        abs(x).max(), abs(y).max()
    )
    alphas = np.deg2rad(np.arange(0.0, 180.0, alpha_step))
    proj = np.outer(np.cos(alphas), x) + np.outer(np.sin(alphas), y)
    means = proj.mean(axis=1)
    p_grid = np.clip(np.round(means / p_step) * p_step, 0.0, None)
    sse = ((proj - p_grid[:, None]) ** 2).sum(axis=1)
    k = int(np.argmin(sse))
    return float(p_grid[k]), float(np.degrees(alphas[k])), float(sse[k])


def orthogonal_sse(points, p, alpha_deg):
    pts = np.asarray(points, dtype=float)
    a = math.radians(alpha_deg)
    d = pts[:, 0] * math.cos(a) + pts[:, 1] * math.sin(a) - p
    return float((d**2).sum())


# ---------------------------------------------------------------------------
# scalar reference Zhang-Suen (independent implementation)


def reference_zhang_suen(bits):
    """Plain-loop two-subiteration thinning on a 2-D bool array."""
    grid = [[bool(v) for v in row] for row in np.asarray(bits)]
    h, w = len(grid), len(grid[0])

    def at(x, y):
        return 0 <= x < w and 0 <= y < h and grid[y][x]

    def ring(x, y):
        # p2..p9: N, NE, E, SE, S, SW, W, NW
        return [
            at(x, y - 1),
            at(x + 1, y - 1),
            at(x + 1, y),
            at(x + 1, y + 1),
            at(x, y + 1),
            at(x - 1, y + 1),
            at(x - 1, y),
            at(x - 1, y - 1),
        ]

    while True:
        changed = False
        for step in (0, 1):
            to_delete = []
            for y in range(h):
                for x in range(w):
                    if not grid[y][x]:
                        continue
                    n = ring(x, y)
                    b = sum(n)
                    if not 2 <= b <= 6:
                        continue
                    a = sum(
                        1
                        for i in range(8)
                        if not n[i] and n[(i + 1) % 8]
                    )
                    if a != 1:
                        continue
                    p2, _, p4, _, p6, _, p8, _ = n
                    if step == 0:
                        if (p2 and p4 and p6) or (p4 and p6 and p8):
                            continue
                    else:
                        if (p2 and p4 and p8) or (p2 and p6 and p8):
                            continue
                    to_delete.append((x, y))
            for x, y in to_delete:
                grid[y][x] = False
            changed = changed or bool(to_delete)
        if not changed:
            break
    return np.array(grid, dtype=bool)


def reference_prune(bits):
    """Sequential staircase pruning by breadth-first search.

    Row-major passes until nothing changes; a pixel is deleted when it
    has at least two ON neighbors and they stay mutually 8-connected
    without it.  Independent of the library's ring-code tables.
    """
    on = {(int(x), int(y)) for y, x in zip(*np.nonzero(bits))}
    ring = [(0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1)]
    changed = True
    while changed:
        changed = False
        for px, py in sorted(on, key=lambda p: (p[1], p[0])):
            nbrs = [(px + dx, py + dy) for dx, dy in ring if (px + dx, py + dy) in on]
            if len(nbrs) < 2:
                continue
            frontier = [nbrs[0]]
            rest = set(nbrs[1:])
            while frontier and rest:
                cx, cy = frontier.pop()
                near = {q for q in rest if abs(q[0] - cx) <= 1 and abs(q[1] - cy) <= 1}
                rest -= near
                frontier.extend(near)
            if not rest:
                on.discard((px, py))
                changed = True
    out = np.zeros(np.shape(bits), dtype=bool)
    for x, y in on:
        out[y, x] = True
    return out


def count_components(bits):
    """8-connected component count by flood fill (no scipy)."""
    arr = np.asarray(bits, dtype=bool)
    seen = np.zeros_like(arr)
    h, w = arr.shape
    count = 0
    for y in range(h):
        for x in range(w):
            if not arr[y, x] or seen[y, x]:
                continue
            count += 1
            stack = [(x, y)]
            seen[y, x] = True
            while stack:
                cx, cy = stack.pop()
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        nx, ny = cx + dx, cy + dy
                        if (
                            0 <= nx < w
                            and 0 <= ny < h
                            and arr[ny, nx]
                            and not seen[ny, nx]
                        ):
                            seen[ny, nx] = True
                            stack.append((nx, ny))
    return count


def random_blob(rng, width=40, height=40, walkers=3, steps=60, pen=2):
    """A random thick blob: a few fat random walks on one canvas."""
    bits = np.zeros((height, width), dtype=bool)
    for _ in range(walkers):
        x = rng.randrange(pen, width - pen)
        y = rng.randrange(pen, height - pen)
        for _ in range(steps):
            bits[
                max(0, y - pen) : y + pen, max(0, x - pen) : x + pen
            ] = True
            x = min(max(x + rng.choice((-2, -1, 0, 1, 2)), pen), width - pen - 1)
            y = min(max(y + rng.choice((-2, -1, 0, 1, 2)), pen), height - pen - 1)
    return BinaryRaster(bits)


# ---------------------------------------------------------------------------
# exhaustive alignment oracle (matcher conformance authority)


def alignment_oracle(cseq, dseq, t):
    """sequence_subset by enumerating every monotone alignment."""
    n, m = len(cseq), len(dseq)
    if n == 0:
        return True
    if n > m:
        return False
    for positions in itertools.combinations(range(m), n):
        if not element_subset(cseq[0], dseq[positions[0]], t):
            continue
        ok = True
        for i in range(1, n):
            prev, cur = positions[i - 1], positions[i]
            if element_subset(cseq[i], dseq[cur], t):
                continue
            if element_match(cseq[i], dseq, prev, cur - prev, t):
                continue
            ok = False
            break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# random code generators


def random_primitive(rng):
    kind = rng.choice(("point", "line", "arc"))
    if kind == "point":
        return PointCode(rng.uniform(0, 50), rng.uniform(0, 50))
    if kind == "line":
        return LineSegmentCode(
            rng.uniform(0, 30), rng.uniform(0, 360), rng.uniform(1, 40)
        )
    return EllipseArcCode(
        rng.uniform(0, 50),
        rng.uniform(0, 50),
        rng.uniform(5, 20),
        rng.uniform(1, 5),
        rng.uniform(0, 180),
        rng.uniform(0, 360),
        rng.uniform(0, 360),
    )


def random_dirs(rng):
    return tuple(rng.choice((0, 1, 2, 3, 4, 5, 6, 7, 9)) for _ in range(3))


def random_element(rng):
    return CodedElement(random_primitive(rng), random_dirs(rng))


def random_sequence(rng, max_len=5):
    return tuple(random_element(rng) for _ in range(rng.randint(1, max_len)))


@pytest.fixture
def rng():
    return random.Random(20260823)


def sample_ellipse(x0, y0, a, b, phi_deg, n=40, start=0.0, sweep=360.0):
    """Noise-free parametric samples of an ellipse (or arc of one)."""
    phi = math.radians(phi_deg)
    pts = []
    for i in range(n):
        u = math.radians(start + sweep * i / max(n - 1, 1))
        ex, ey = a * math.cos(u), b * math.sin(u)
        pts.append(
            (
                x0 + ex * math.cos(phi) - ey * math.sin(phi),
                y0 + ex * math.sin(phi) + ey * math.cos(phi),
            )
        )
    return pts
