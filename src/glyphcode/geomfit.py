"""Polar line regression and direct least-squares ellipse-arc fitting.

Angles are degrees everywhere in the public types; trig is done in radians
internally.  A polar line is ``r cos(theta - alpha) - p = 0``: `p` is the
distance of the line from the origin and `alpha` the angle of the normal
from the origin to the closest point of the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolarLine",
    "LineSegmentCode",
    "EllipseCoefficients",
    "EllipseArcCode",
    "DegenerateInputError",
    "NumericalFitError",
    "NonEllipseError",
    "fit_line",
    "point_line_distance",
    "segment_extent",
    "fit_ellipse",
    "conic_to_geometric",
    "arc_angles",
    "line_residual",
    "algebraic_residual",
    "sampson_residual",
]


class DegenerateInputError(ValueError):
    """Too few distinct points, or points in a degenerate configuration."""


class NumericalFitError(RuntimeError):
    """The eigen-solution did not produce a usable ellipse."""


class NonEllipseError(ValueError):
    """Conic coefficients do not describe an ellipse."""


@dataclass(frozen=True)
class PolarLine:
    p: float      # distance from origin, px; always >= 0
    alpha: float  # normal angle, degrees in [0, 360)


@dataclass(frozen=True)
class LineSegmentCode:
    p: float
    alpha: float  # degrees
    l: float      # segment length, px; > 0


@dataclass(frozen=True)
class EllipseCoefficients:
    """Conic a x^2 + b xy + c y^2 + d x + e y + f = 0 with 4ac - b^2 = 1."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d, self.e, self.f])


@dataclass(frozen=True)
class EllipseArcCode:
    """Arc (x0, y0, a, b, phi, beta, gamma), traversed anticlockwise.

    `a >= b` are the semi axes, `phi` the major-axis rotation in [0, 180),
    `beta`/`gamma` the start/end angles after subtracting `phi`.
    """

    x0: float
    y0: float
    a: float
    b: float
    phi: float
    beta: float
    gamma: float


def _as_points(pixels) -> np.ndarray:
    pts = np.asarray(list(pixels), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected a sequence of (x, y) points")
    return pts


def line_residual(pixels, line: PolarLine) -> float:
    """Sum of squared orthogonal distances from the pixels to the line."""
    pts = _as_points(pixels)
    a = math.radians(line.alpha)
    d = pts[:, 0] * math.cos(a) + pts[:, 1] * math.sin(a) - line.p
    return float(np.sum(d * d))


def fit_line(pixels) -> PolarLine:
    """Orthogonal least-squares line through the pixels, in polar form.

    With centred sums Sxx, Syy and Sxy, the squared residual at normal
    angle a is R(a) = C + A cos 2a + B sin 2a, where A = (Sxx - Syy) / 2
    and B = Sxy.  So a0 = atan2(-2 Sxy, Syy - Sxx) / 2 is its minimum and
    a0 + 90 deg its maximum.  a0 and a0 + 180 deg are the same line with
    opposite signs of p: the one with p >= 0 is returned, the smaller
    alpha when both qualify (a line through the origin), and p = 0 with
    the smaller alpha when rounding leaves both slightly negative.
    """
    pts = _as_points(pixels)
    if not (pts != pts[0]).any():
        raise DegenerateInputError("need at least 2 distinct pixels")
    x, y = pts[:, 0], pts[:, 1]
    xm, ym = x.mean(), y.mean()
    num = -2.0 * np.sum((ym - y) * (xm - x))
    den = np.sum((ym - y) ** 2 - (xm - x) ** 2)
    alpha0 = 0.5 * math.atan2(num, den)
    # the second modulo folds the 360.0 that a tiny negative angle rounds to
    normals = sorted(
        (math.degrees(a) % 360.0 % 360.0, float(xm * math.cos(a) + ym * math.sin(a)))
        for a in (alpha0, alpha0 + math.pi)
    )
    for alpha, p in normals:
        if p >= 0:
            return PolarLine(p, alpha)
    return PolarLine(0.0, normals[0][0])


def point_line_distance(pt, line: PolarLine) -> float:
    """Perpendicular distance from (x, y) to the line, in px."""
    a = math.radians(line.alpha)
    return abs(pt[0] * math.cos(a) + pt[1] * math.sin(a) - line.p)


def segment_extent(pixels, line: PolarLine):
    """Extent of the pixels projected onto the line.

    Returns (l, start, end) where l is the max-min projection spread and
    start/end are the extreme pixels; start is the row-major earlier of the
    two (ties among equal projections broken row-major as well).
    """
    pts = _as_points(pixels)
    if len(pts) < 2:
        raise DegenerateInputError("need at least 2 pixels")
    a = math.radians(line.alpha)
    dx, dy = -math.sin(a), math.cos(a)
    t = pts[:, 0] * dx + pts[:, 1] * dy
    order = np.lexsort((pts[:, 0], pts[:, 1]))  # row-major tie-break
    lo = order[np.argmin(t[order])]
    hi = order[np.argmax(t[order])]
    l = float(t[hi] - t[lo])
    p_lo = (float(pts[lo, 0]), float(pts[lo, 1]))
    p_hi = (float(pts[hi, 0]), float(pts[hi, 1]))
    if (p_hi[1], p_hi[0]) < (p_lo[1], p_lo[0]):
        p_lo, p_hi = p_hi, p_lo
    return l, p_lo, p_hi


_C1_INV = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])


def _translate_conic(coef: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Coefficients of the conic after substituting x -> x - dx, y -> y - dy."""
    a, b, c, d, e, f = coef
    d2 = d - 2.0 * a * dx - b * dy
    e2 = e - 2.0 * c * dy - b * dx
    f2 = (
        f
        + a * dx * dx
        + b * dx * dy
        + c * dy * dy
        - d * dx
        - e * dy
    )
    return np.array([a, b, c, d2, e2, f2])


def fit_ellipse(pixels) -> EllipseCoefficients:
    """Direct least-squares ellipse fit (stable split-design-matrix form).

    Minimizes the summed squared algebraic distance subject to the
    ellipse constraint; the quadratic part is the eigenvector of the
    reduced scatter system with the minimal positive eigenvalue, rescaled
    so that 4ac - b^2 = 1.
    """
    pts = _as_points(pixels)
    if len(set(map(tuple, pts.tolist()))) < 5:
        raise DegenerateInputError("need at least 5 distinct pixels")
    # center the data for conditioning; translate coefficients back at the end
    mx, my = pts.mean(axis=0)
    centered = pts - (mx, my)
    # collinearity check via the centered covariance rank
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[1] <= 1e-9 * max(sv[0], 1.0):
        raise DegenerateInputError("pixels are collinear")

    x, y = centered.T
    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalFitError("linear subsystem is singular") from exc
    m = _C1_INV @ (s1 + s2 @ t)
    eigvals, eigvecs = np.linalg.eig(m)
    lam = np.real(eigvals)
    vecs = np.real(eigvecs)
    floor = 1e-12 * np.max(np.abs(lam))
    best = None
    fallback = None
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
    if best is None:
        # an exact fit drives the relevant eigenvalue to numerical zero;
        # the ellipse-constraint-satisfying eigenvector is still the answer
        best = fallback
    if best is None:
        raise NumericalFitError("no eigenvector satisfies the ellipse constraint")
    _, a1, cond = best
    a1 = a1 / math.sqrt(cond)  # enforce 4ac - b^2 = 1
    if a1[0] + a1[2] < 0:
        a1 = -a1  # canonical sign: positive-definite quadratic part
    a2 = t @ a1
    coef = _translate_conic(np.concatenate([a1, a2]), mx, my)
    return EllipseCoefficients(*[float(v) for v in coef])


def _conic_at(pixels, coef: EllipseCoefficients):
    """The pixel coordinates x, y and the conic's value F(x, y) at each."""
    pts = _as_points(pixels)
    x, y = pts[:, 0], pts[:, 1]
    f = coef.a * x * x + coef.b * x * y + coef.c * y * y
    f = f + coef.d * x + coef.e * y + coef.f
    return x, y, f


def algebraic_residual(pixels, coef: EllipseCoefficients) -> float:
    """Mean squared algebraic distance F(x, y)^2 over the pixels."""
    _, _, f = _conic_at(pixels, coef)
    return float(np.mean(f * f))


def sampson_residual(pixels, coef: EllipseCoefficients) -> float:
    """Mean squared gradient-weighted algebraic distance (approx. px^2).

    F / |grad F| approximates the geometric point-to-curve distance and is
    scale-invariant, unlike the raw algebraic distance.
    """
    x, y, f = _conic_at(pixels, coef)
    gx = 2.0 * coef.a * x + coef.b * y + coef.d
    gy = 2.0 * coef.c * y + coef.b * x + coef.e
    g2 = gx * gx + gy * gy
    g2 = np.maximum(g2, 1e-12)
    return float(np.mean(f * f / g2))


def conic_to_geometric(coef: EllipseCoefficients):
    """Convert conic coefficients to (x0, y0, a, b, phi).

    a >= b > 0 and phi in [0, 180) degrees; phi is the anticlockwise
    rotation from the x-axis to the major axis.
    """
    a, b, c, d, e, f = coef.a, coef.b, coef.c, coef.d, coef.e, coef.f
    if a + c < 0:  # scale-invariant form: accept either overall sign
        a, b, c, d, e, f = -a, -b, -c, -d, -e, -f
    disc = b * b - 4.0 * a * c
    if disc >= 0:
        raise NonEllipseError("coefficients do not satisfy b^2 - 4ac < 0")
    # center from grad F = 0
    x0 = (2.0 * c * d - b * e) / disc
    y0 = (2.0 * a * e - b * d) / disc
    f0 = a * x0 * x0 + b * x0 * y0 + c * y0 * y0 + d * x0 + e * y0 + f
    q = np.array([[a, b / 2.0], [b / 2.0, c]])
    lam, vec = np.linalg.eigh(q)  # ascending eigenvalues
    if f0 >= 0 or lam[0] <= 0:
        raise NonEllipseError("conic is not a real ellipse")
    # smaller eigenvalue -> larger (major) semi-axis
    major = math.sqrt(-f0 / lam[0])
    minor = math.sqrt(-f0 / lam[1])
    vx, vy = vec[0, 0], vec[1, 0]
    if abs(lam[1] - lam[0]) <= 1e-12 * max(abs(lam[0]), abs(lam[1])):
        phi = 0.0  # circle: orientation is arbitrary, pick 0
    else:
        phi = math.degrees(math.atan2(vy, vx)) % 180.0
    return float(x0), float(y0), float(major), float(minor), float(phi)


def arc_angles(geo, start, end) -> tuple[float, float]:
    """Arc start/end angles (beta, gamma) for the geometric ellipse `geo`.

    `geo` is (x0, y0, a, b, phi).  Angles are measured anticlockwise from
    the x-axis to the center->point rays, then phi is subtracted; results
    are normalized to [0, 360) degrees.
    """
    x0, y0, _, _, phi = geo[0], geo[1], geo[2], geo[3], geo[4]
    if start == end:
        raise DegenerateInputError("arc start and end must differ")
    out = []
    for px, py in (start, end):
        dx, dy = px - x0, py - y0
        if math.hypot(dx, dy) < 1e-12:
            raise DegenerateInputError("arc endpoint coincides with the center")
        prime = math.degrees(math.atan2(dy, dx))
        ang = (prime - phi) % 360.0
        # float modulo of a tiny negative can round up to exactly 360
        out.append(0.0 if ang >= 360.0 else ang)
    return out[0], out[1]
