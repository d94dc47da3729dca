"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own numerics: the line
oracle is a brute-force grid search, the thinning oracle is a scalar
re-implementation of the two-subiteration rules followed by a
breadth-first-search staircase prune, and the alignment oracle
enumerates every monotone alignment.  The reference fits build float
design matrices from the points, where the library reads exact integer
moments, and the reference path walk rescans for endpoints on every path.
"""

import itertools
import math
import random

import numpy as np
import pytest

from glyphcode import (
    BinaryRaster,
    CodedElement,
    DegenerateInputError,
    EllipseArcCode,
    EllipseCoefficients,
    LineSegmentCode,
    NumericalFitError,
    PointCode,
    PolarLine,
)
from glyphcode.matcher import element_match, element_subset
from glyphcode.raster import neighbors

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
# reference fits on float design matrices


def reference_fit_line(points):
    """Orthogonal regression line from mean-centred float sums."""
    pts = np.asarray(points, dtype=float)
    if not (pts != pts[0]).any():
        raise DegenerateInputError("need at least 2 distinct pixels")
    x, y = pts[:, 0], pts[:, 1]
    xm, ym = x.mean(), y.mean()
    num = -2.0 * np.sum((ym - y) * (xm - x))
    den = np.sum((ym - y) ** 2 - (xm - x) ** 2)
    alpha0 = 0.5 * math.atan2(num, den)
    normals = sorted(
        (math.degrees(a) % 360.0 % 360.0, float(xm * math.cos(a) + ym * math.sin(a)))
        for a in (alpha0, alpha0 + math.pi)
    )
    for alpha, p in normals:
        if p >= 0:
            return PolarLine(p, alpha)
    return PolarLine(0.0, normals[0][0])


def reference_fit_ellipse(points):
    """Halir-Flusser ellipse fit from the centred design matrices D1, D2."""
    pts = np.asarray(points, dtype=float)
    if len(set(map(tuple, pts.tolist()))) < 5:
        raise DegenerateInputError("need at least 5 distinct pixels")
    mx, my = pts.mean(axis=0)
    centered = pts - (mx, my)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[1] <= 1e-9 * max(sv[0], 1.0):
        raise DegenerateInputError("pixels are collinear")
    x, y = centered.T
    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    s1, s2, s3 = d1.T @ d1, d1.T @ d2, d2.T @ d2
    t = -np.linalg.solve(s3, s2.T)
    c1_inv = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])
    eigvals, eigvecs = np.linalg.eig(c1_inv @ (s1 + s2 @ t))
    lam, vecs = np.real(eigvals), np.real(eigvecs)
    floor = 1e-12 * np.max(np.abs(lam))
    best = fallback = None
    for i in range(3):
        if abs(np.imag(eigvals[i])) > 1e-8 * max(1.0, abs(lam[i])):
            continue
        a1 = vecs[:, i]
        cond = 4.0 * a1[0] * a1[2] - a1[1] ** 2
        if cond <= 0:
            continue
        if lam[i] > floor:
            if best is None or lam[i] < best[0]:
                best = (lam[i], a1, cond)
        elif fallback is None or lam[i] > fallback[0]:
            fallback = (lam[i], a1, cond)
    best = best or fallback
    if best is None:
        raise NumericalFitError("no eigenvector satisfies the ellipse constraint")
    _, a1, cond = best
    a1 = a1 / math.sqrt(cond)
    if a1[0] + a1[2] < 0:
        a1 = -a1
    a, b, c = a1
    d, e, f = t @ a1
    return EllipseCoefficients(
        float(a),
        float(b),
        float(c),
        float(d - 2.0 * a * mx - b * my),
        float(e - 2.0 * c * my - b * mx),
        float(f + a * mx * mx + b * mx * my + c * my * my - d * mx - e * my),
    )


def random_pixel_run(rng, min_len=5, max_len=60, span=500):
    """A self-avoiding 8-connected pixel run that tends to keep its heading."""
    steps = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    target = rng.randint(min_len, max_len)
    while True:
        run = [(rng.randint(0, span), rng.randint(0, span))]
        seen = set(run)
        step = rng.choice(steps)
        for _ in range(20 * target):
            if len(run) == target:
                return run
            if rng.random() < 0.3:
                step = rng.choice(steps)
            nxt = (run[-1][0] + step[0], run[-1][1] + step[1])
            if nxt not in seen:
                run.append(nxt)
                seen.add(nxt)


# ---------------------------------------------------------------------------
# reference path walk


def reference_walk_paths(pixels):
    """Maximal 8-connected paths, rescanning the remaining pixels for
    endpoints before each path."""

    def rowmajor(p):
        return (p[1], p[0])

    remaining = set(pixels)
    paths = []
    while remaining:
        endpoints = [p for p in remaining if len(neighbors(p, remaining)) == 1]
        cur = min(endpoints or remaining, key=rowmajor)
        path = [cur]
        remaining.discard(cur)
        heading = None
        while nbrs := neighbors(cur, remaining):
            if heading is None:
                nxt = min(nbrs, key=rowmajor)
            else:
                def turn(n):
                    ang = math.atan2(n[1] - cur[1], n[0] - cur[0])
                    d = abs(ang - heading) % (2 * math.pi)
                    return min(d, 2 * math.pi - d)

                nxt = min(nbrs, key=lambda n: (turn(n), rowmajor(n)))
            heading = math.atan2(nxt[1] - cur[1], nxt[0] - cur[0])
            path.append(nxt)
            remaining.discard(nxt)
            cur = nxt
        paths.append(path)
    return paths


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
