"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own numerics: the line
oracle is a brute-force grid search, the thinning oracle is a scalar
re-implementation of the two-subiteration rules followed by a
breadth-first-search staircase prune, and the alignment oracle
enumerates every monotone alignment.  The reference fits build float
design matrices from the points, where the library reads exact integer
moments, and the reference path walk rescans for endpoints on every path.
The reference labelling is ``scipy.ndimage.label``, where the library
flood-fills over its own pixel ring.  The reference recognizer rescans
every entry for each placement, where the library walks the code lengths
once, longest first, and prunes covered windows.
The reference line harvesting refits the run after every grown pixel,
where the library screens each step from the run's integer sums.  The
reference arc clustering finds each run's stop with a probe loop and a
separate bisection loop, where the library folds both into one.  The
exact-fit references keep the plain forms of the library's exact steps
(a tuple running sum per point, a sorted pair of normals, index loops
over the reduced matrix, filtered lists of eigenpairs); the library must
match them bit for bit.
"""

import itertools
import math
import random
from operator import itemgetter, mul

import numpy as np
import pytest
from scipy import ndimage

from glyphcode import (
    BinaryRaster,
    CodedElement,
    DegenerateInputError,
    EllipseArcCode,
    EllipseCoefficients,
    LineSegmentCode,
    MatchTolerances,
    Moments,
    NumericalFitError,
    PointCode,
    PolarLine,
    fit_ellipse,
    fit_line,
    point_line_distance,
    segment_extent,
)
from glyphcode.encoder import FREEMAN_NULL, _arc_from_run
from glyphcode.geomfit import _moments, sampson_residual
from glyphcode.matcher import angdist180, arc_subset, freeman_sum, subset_alignment
from glyphcode.raster import _RING, components, pixel_centroid, walk_paths

# tolerances sized for codes in pixel units, where the defaults are sized
# for codes scaled by 1/size; the pixel-unit relation tests use these
PIXEL_TOLERANCES = MatchTolerances(
    dl=2.0, dalpha=5.0, da=2.0, db=2.0, dphi=5.0, dbeta=5.0, dgamma=5.0, dpt=2.0
)

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


# ---------------------------------------------------------------------------
# plain forms of the exact moment fits, to be matched bit for bit


def reference_prefix_sums(points, degree, origin):
    """Running sums of u^i v^j over points[:0], points[:1], ..., one tuple
    per point, in `Moments` order."""
    ox, oy = origin
    rows = [(0,) * (6 if degree == 2 else 15)]
    for x, y in points:
        u, v = x - ox, y - oy
        uu, uv, vv = u * u, u * v, v * v
        terms = (1, u, v, uu, uv, vv)
        if degree == 4:
            terms += (uu * u, uu * v, u * vv, vv * v,
                      uu * uu, uu * uv, uu * vv, uv * vv, vv * vv)
        rows.append(tuple(s + t for s, t in zip(rows[-1], terms)))
    return rows


def reference_exact_fit_line(pixels):
    """`fit_line` with its two normals sorted, the first with p >= 0 taken."""
    m = _moments(pixels, 2, 2)
    cxx, cxy, cyy = m.central()[:3]
    if cxx == cyy == 0:
        raise DegenerateInputError("need at least 2 distinct pixels")
    alpha0 = 0.5 * math.atan2(-2 * cxy, cyy - cxx)
    xm, ym = m.centroid()
    normals = sorted(
        (math.degrees(a) % 360.0 % 360.0, xm * math.cos(a) + ym * math.sin(a))
        for a in (alpha0, alpha0 + math.pi)
    )
    for alpha, p in normals:
        if p >= 0:
            return PolarLine(p, alpha)
    return PolarLine(0.0, normals[0][0])


def reference_reduced_system(m):
    """`geomfit._reduced_system` with the reduced matrix built by index loops."""
    n = m.sums[0]
    d20, d11, d02, d30, d21, d12, d03, d40, d31, d22, d13, d04 = m.central()
    det = d20 * d02 - d11 * d11
    if det <= 1e-18 * (d20 + d02) ** 2:
        return None
    s1 = ((d40, d31, d22), (d31, d22, d13), (d22, d13, d04))
    gx, gy, g1 = (d30, d21, d12), (d21, d12, d03), (d20, d11, d02)
    tx = [d11 * y - d02 * x for x, y in zip(gx, gy)]
    ty = [d11 * x - d20 * y for x, y in zip(gx, gy)]
    red = [
        [det * (s1[i][k] - g1[i] * g1[k]) + gx[i] * tx[k] + gy[i] * ty[k]
         for k in range(3)]
        for i in range(3)
    ]
    scale = n**3 * det
    mat = [[v / scale * w for v in red[2 - i]] for i, w in enumerate((0.5, -1.0, 0.5))]
    return mat, (m, n, det, tx, ty, g1)


def reference_conic_from_eigen(setup, lams, imags, vecs):
    """`geomfit._conic_from_eigen` picking its eigenpair from filtered lists."""
    m, n, det, tx, ty, g1 = setup
    floor = 1e-12 * max(map(abs, lams))
    found = [
        (lam, a1, cond)
        for lam, imag, a1 in zip(lams, imags, vecs)
        if abs(imag) <= 1e-8 * max(1.0, abs(lam))
        and (cond := 4.0 * a1[0] * a1[2] - a1[1] ** 2) > 0
    ]
    above = [f for f in found if f[0] > floor]
    key = itemgetter(0)  # the eigenvalue
    best = min(above, key=key) if above else max(found, key=key, default=None)
    if best is None:
        return None
    _, a1, cond = best
    a1 = [v / math.sqrt(cond) for v in a1]
    if a1[0] + a1[2] < 0:
        a1 = [-v for v in a1]
    a, b, c = a1
    d, e = (sum(map(mul, row, a1)) / (n * det) for row in (tx, ty))
    f = -sum(map(mul, g1, a1)) / n**2
    x0, y0 = m.centroid()
    return EllipseCoefficients(
        a, b, c, d - 2.0 * a * x0 - b * y0, e - 2.0 * c * y0 - b * x0,
        f + a * x0 * x0 + b * x0 * y0 + c * y0 * y0 - d * x0 - e * y0,
    )


def reference_exact_fit_block(block):
    """Each member of a list of degree-4 `Moments` fitted alone, with its
    own `np.linalg.eig`: its coefficients, or None."""
    fits = []
    for m in block:
        system = reference_reduced_system(m) if m.sums[0] >= 5 else None
        if system is None:
            fits.append(None)
            continue
        w, v = np.linalg.eig(np.array(system[0]))
        fits.append(
            reference_conic_from_eigen(
                system[1], w.real.tolist(), w.imag.tolist(), v.real.T.tolist()
            )
        )
    return fits


def algebraic_residual(pixels, coef):
    """Mean squared algebraic distance F(x, y)^2 over the pixels."""
    pts = np.asarray(pixels, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    f = coef.a * x * x + coef.b * x * y + coef.c * y * y
    f = f + coef.d * x + coef.e * y + coef.f
    return float(np.mean(f * f))


def reference_sampson_residual(pixels, coef):
    """Mean of F^2 / |grad F|^2 over the pixels, one conic at a time."""
    pts = np.asarray(pixels, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    f = coef.a * x * x + coef.b * x * y + coef.c * y * y
    f = f + coef.d * x + coef.e * y + coef.f
    gx = 2.0 * coef.a * x + coef.b * y + coef.d
    gy = 2.0 * coef.c * y + coef.b * x + coef.e
    g2 = np.maximum(gx * gx + gy * gy, 1e-12)
    return float(np.mean(f * f / g2))


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


def neighbors(pixel, pool) -> list[tuple[int, int]]:
    """The 8-neighbors of `pixel` that are in `pool`, in ring order."""
    x, y = pixel
    return [q for dx, dy in _RING if (q := (x + dx, y + dy)) in pool]


def reference_turn(heading, step):
    """The angle in radians between a walk's `heading` and a step (dx, dy)."""
    ang = math.atan2(step[1], step[0])
    d = abs(ang - heading) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


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
                    return reference_turn(heading, (n[0] - cur[0], n[1] - cur[1]))

                nxt = min(nbrs, key=lambda n: (turn(n), rowmajor(n)))
            heading = math.atan2(nxt[1] - cur[1], nxt[0] - cur[0])
            path.append(nxt)
            remaining.discard(nxt)
            cur = nxt
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# reference line harvesting: one fit per grown pixel


def reference_extract_lines(stroke, cfg):
    """`extract_lines` refitting the run after every append: each step
    measures the next pixel against `fit_line` of the run so far."""
    out = []
    residual = set()
    for path in walk_paths(stroke.pixels):
        rows = Moments.prefix(path)  # path[i:j] has moments rows[j] - rows[i]
        i = 0
        n = len(path)
        while i < n:
            if n - i < 2:
                residual.update(path[i:])
                break
            j = i + 2
            line = fit_line(rows[j] - rows[i])
            while j < n and point_line_distance(path[j], line) <= cfg.dd:
                j += 1
                line = fit_line(rows[j] - rows[i])
            # refitting can drift: trim the tail until every claimed pixel
            # really is within dd of the final line
            while j - i > 2 and any(
                point_line_distance(p, line) > cfg.dd for p in path[i:j]
            ):
                j -= 1
                line = fit_line(rows[j] - rows[i])
            run = path[i:j]
            lo, hi = segment_extent(run, line)
            if hi - lo > cfg.l_min:
                out.append((LineSegmentCode(line.p, line.alpha, hi - lo), frozenset(run)))
            else:
                residual.update(run)
            i = j
    return out, residual


# ---------------------------------------------------------------------------
# reference arc clustering: one fit and one Sampson test per probed end


def _fit_or_none(m):
    try:
        return fit_ellipse(m)
    except (DegenerateInputError, NumericalFitError):
        return None


def _join(a, b):
    return a[0] + b[0], a[1] + b[1], np.concatenate((a[2], b[2]))


def reference_cluster_ellipses(residual, cfg, attempts=None):
    """`cluster_ellipses` with each arc run's stop found by two plain
    loops: probe the ends 1, 2, 4, 8, ... pixels past the last end within
    `e_res` until a fitted end is over it, then bisect between the two.
    An end with no fit counts as within.  The re-join restarts at the
    first pair after each merge and skips the pairs that have failed;
    `attempts`, when given, receives the pixels of each union it tries,
    in order."""
    arcs, leftovers = [], []
    for comp in components(residual):
        origin = (min(x for x, _ in comp), min(y for _, y in comp))
        comp_arcs, comp_small = [], []
        for path in walk_paths(comp):
            rows = Moments.prefix(path, 4, origin)
            pts = np.array(path, dtype=float)
            i, n = 0, len(path)
            while i < n:
                if n - i < 5:
                    comp_small.append((path[i:], rows[n] - rows[i], pts[i:]))
                    break
                j = i + 5  # path[i:j] is within e_res
                coef = over = None
                step = 1
                while j < n:
                    end = min(j + step, n)
                    fit = _fit_or_none(rows[end] - rows[i])
                    if fit and sampson_residual(pts[i:end], fit) > cfg.e_res:
                        over = end
                        break
                    j, coef = end, fit
                    step *= 2
                while over is not None and over - j > 1:
                    mid = (j + over) // 2
                    fit = _fit_or_none(rows[mid] - rows[i])
                    if fit and sampson_residual(pts[i:mid], fit) > cfg.e_res:
                        over = mid
                    else:
                        j, coef = mid, fit
                if j == i + 5:
                    coef = _fit_or_none(rows[j] - rows[i])
                run = (path[i:j], rows[j] - rows[i], pts[i:j])
                code = _arc_from_run(run[0], coef)
                if code is not None:
                    comp_arcs.append((run, code))
                else:
                    comp_small.append(run)
                i = j
        failed = {}  # failed pairs by ids, holding the runs so no id is reused
        merged_any = True
        while merged_any and len(comp_arcs) > 1:
            merged_any = False
            for ia in range(len(comp_arcs)):
                for ib in range(ia + 1, len(comp_arcs)):
                    pair = comp_arcs[ia][0], comp_arcs[ib][0]
                    if tuple(map(id, pair)) in failed:
                        continue
                    union = _join(*pair)
                    if attempts is not None:
                        attempts.append(union[0])
                    coef = _fit_or_none(union[1])
                    if (
                        coef is not None
                        and sampson_residual(union[2], coef) <= cfg.e_res
                        and (code := _arc_from_run(union[0], coef)) is not None
                    ):
                        comp_arcs[ia] = (union, code)
                        del comp_arcs[ib]
                        merged_any = True
                        break
                    failed[tuple(map(id, pair))] = pair
                if merged_any:
                    break
        for small in comp_small:
            if comp_arcs:
                sc = pixel_centroid(small[0])
                nearest = min(
                    range(len(comp_arcs)),
                    key=lambda k: math.dist(sc, pixel_centroid(comp_arcs[k][0][0])),
                )
                merged = _join(comp_arcs[nearest][0], small)
                code = _arc_from_run(merged[0], _fit_or_none(merged[1]))
                if code is not None:
                    comp_arcs[nearest] = (merged, code)
                    continue
            leftovers.append(frozenset(small[0]))
        arcs.extend((code, frozenset(run[0])) for run, code in comp_arcs)
    return arcs, leftovers


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


def reference_components(pixels):
    """8-connected components as ndimage labels them: each row-major, in
    the row-major order of their first pixels."""
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
# reference element relations and alignment search: the plain forms, with
# no early exits, of the library's element_subset, line_subset,
# element_match and subset_alignment.  The library's fast forms must agree
# with them on every input; arc_subset and angdist180 are shared.


def reference_dirs_subset(probe_dirs, target_dirs) -> bool:
    """Direction agreement with 9-wildcard on the probe side."""
    return all(p == FREEMAN_NULL or p == q for p, q in zip(probe_dirs, target_dirs))


def reference_line_subset(i, j, t) -> bool:
    return i.l <= j.l + t.dl and angdist180(i.alpha, j.alpha) < t.dalpha


_REFERENCE_SUBSET = {
    LineSegmentCode: reference_line_subset,
    EllipseArcCode: arc_subset,
    PointCode: lambda i, j, t: True,
}


def reference_primitive_subset(i, j, t) -> bool:
    return type(i) is type(j) and _REFERENCE_SUBSET[type(i)](i, j, t)


def reference_element_subset(ci, cj, t) -> bool:
    return reference_dirs_subset(ci.dirs, cj.dirs) and reference_primitive_subset(
        ci.code, cj.code, t
    )


def reference_element_match(ci, dseq, q, k, t) -> bool:
    """element_match over the reference primitive subset."""
    if k < 1:
        raise IndexError("k must be at least 1")
    if q < 0 or q + k >= len(dseq):
        raise IndexError("q or q + k outside the target sequence")
    if not reference_primitive_subset(ci.code, dseq[q + k].code, t):
        return False
    for j in range(3):
        if ci.dirs[j] == FREEMAN_NULL:
            continue
        summed = freeman_sum(dseq[q + r].dirs[j] for r in range(1, k + 1))
        if ci.dirs[j] != summed:
            return False
    return True


def reference_subset_alignment(cseq, dseq, t, anchor=None):
    """subset_alignment with one loop over the start positions, anchored
    or not, and the search state built before the first element is
    tested."""
    if anchor is not None and anchor < 0:
        raise IndexError("anchor must be at least 0")
    n, m = len(cseq), len(dseq)
    if n == 0:
        return []
    dead = set()
    for j in [anchor] if anchor is not None else range(m - n + 1):
        if j > m - n or not reference_element_subset(cseq[0], dseq[j], t):
            continue
        path = [j]
        nxt = [j + 1]
        while path:
            i = len(path)
            if i == n:
                return path
            ci, prev, r, last = cseq[i], path[-1], nxt[-1], m - n + i
            while r <= last and not (
                reference_element_subset(ci, dseq[r], t)
                or reference_element_match(ci, dseq, prev, r - prev, t)
            ):
                r += 1
            if r > last:
                dead.add((i, prev))
                path.pop()
                nxt.pop()
            else:
                nxt[-1] = r + 1
                if (i + 1, r) not in dead:
                    path.append(r)
                    nxt.append(r + 1)
    return None


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
        if not reference_element_subset(cseq[0], dseq[positions[0]], t):
            continue
        ok = True
        for i in range(1, n):
            prev, cur = positions[i - 1], positions[i]
            if reference_element_subset(cseq[i], dseq[cur], t):
                continue
            if reference_element_match(cseq[i], dseq, prev, cur - prev, t):
                continue
            ok = False
            break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# reference greedy cover (recognize's docstring, read literally)


def _reference_earliest_window(code, word, covered, t):
    """First (si, offset, alignment) of `code` on uncovered elements, and
    the number of uncovered anchors passed over on the way because their
    alignment hit a covered element."""
    skipped = 0
    for si, entry in enumerate(word.subwords):
        for j in range(len(entry.code.elements)):
            if j in covered[si]:
                continue
            align = subset_alignment(code, entry.code.elements, t, anchor=j)
            if align is None:
                continue
            if covered[si].isdisjoint(align):
                return (si, j, align), skipped
            skipped += 1
    return None, skipped


def reference_recognize(word, book, t):
    """`recognize` as its docstring states it, plus a count of skipped anchors.

    Each round places the entry with the longest code that still matches an
    uncovered window, the earliest window first and then the entry's glyph
    and position.  A window is the earliest alignment of the code anchored
    at an uncovered offset; it matches only when none of its elements is
    covered.  Returns the placements in window order and the number of
    anchors passed over because their alignment hit a covered element.
    """
    covered = [set() for _ in word.subwords]
    placed, skipped = [], 0
    while True:
        best = None
        for cc in book.entries.values():
            if not cc.code.elements:
                continue
            hit, passed = _reference_earliest_window(cc.code.elements, word, covered, t)
            skipped += passed
            if hit is None:
                continue
            rank = (-len(cc.code.elements), hit[0], hit[1], cc.glyph, cc.position.value)
            if best is None or rank < best[0]:
                best = (rank, hit, cc)
        if best is None:
            break
        _, (si, j, align), cc = best
        covered[si].update(align)
        placed.append((cc.glyph, cc.position.value, (si, j)))
    return sorted(placed, key=lambda p: p[2]), skipped


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
