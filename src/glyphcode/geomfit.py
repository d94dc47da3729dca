"""Polar line regression and direct least-squares ellipse-arc fitting.

Angles are degrees everywhere in the public types; trig is done in radians
internally.  A polar line is ``r cos(theta - alpha) - p = 0``: `p` is the
distance of the line from the origin and `alpha` the angle of the normal
from the origin to the closest point of the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add, mul, sub

import numpy as np

__all__ = [
    "PolarLine",
    "LineSegmentCode",
    "EllipseCoefficients",
    "EllipseArcCode",
    "Moments",
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
    """A polar line.  Its unit normal `normal`, (cos, sin) of `alpha`, is
    worked out once, when the line is made, for the distances and extents
    measured against it."""

    p: float      # distance from origin, px; always >= 0
    alpha: float  # normal angle, degrees in [0, 360)

    def __post_init__(self):
        a = math.radians(self.alpha)
        object.__setattr__(self, "normal", (math.cos(a), math.sin(a)))


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
    if not isinstance(pixels, np.ndarray):  # no points are zero points, not a bad shape
        pixels = list(pixels) or np.empty((0, 2))
    pts = np.asarray(pixels, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected a sequence of (x, y) points")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return pts


def _monomials(points, degree, origin) -> list[list]:
    """Columns u^i v^j over the points, u = x - ox and v = y - oy, for
    i + j <= degree (2 or 4): by degree, then by falling power of u."""
    if degree not in (2, 4):
        raise ValueError(f"moments have degree 2 or 4, not {degree}")
    ox, oy = origin
    points = list(points)
    u = [p[0] - ox for p in points]
    v = [p[1] - oy for p in points]
    uu, uv, vv = list(map(mul, u, u)), list(map(mul, u, v)), list(map(mul, v, v))
    cols = [[1] * len(u), u, v, uu, uv, vv]
    if degree == 4:
        cols += [
            list(map(mul, s, t))
            for s, t in ((uu, u), (uu, v), (u, vv), (vv, v),
                         (uu, uu), (uu, uv), (uu, vv), (uv, vv), (vv, vv))
        ]
    return cols


@dataclass(frozen=True)
class Moments:
    """Raw moment sums of a point set, taken about an origin.

    `sums` holds the sums of u^i v^j over the points, with u = x - ox and
    v = y - oy, for i + j <= 2 (enough for a line) or <= 4 (an ellipse),
    in `_monomials` order: n, Su, Sv, Suu, Suv, Svv, Suuu, ...  Integer
    pixels about an integer origin give Python ints, so moments add and
    subtract exactly.  The fits take the points to be distinct.
    """

    sums: tuple
    origin: tuple = (0, 0)

    @classmethod
    def of(cls, points, degree: int = 2, origin=(0, 0)) -> Moments:
        cols = _monomials(points, degree, origin)
        return cls(tuple(reduce(add, col, 0) for col in cols), origin)

    @classmethod
    def prefix(cls, points, degree: int = 2, origin=(0, 0)) -> list[Moments]:
        """Rows r with r[j] - r[i] == Moments.of(points[i:j], degree, origin)."""
        cols = _monomials(points, degree, origin)
        return [cls(s, origin) for s in zip(*(accumulate(c, initial=0) for c in cols))]

    def _combine(self, other: Moments, op) -> Moments:
        if self.origin != other.origin or len(self.sums) != len(other.sums):
            raise ValueError("moments differ in origin or degree")
        return Moments(tuple(map(op, self.sums, other.sums)), self.origin)

    def __add__(self, other: Moments) -> Moments:
        return self._combine(other, add)

    def __sub__(self, other: Moments) -> Moments:
        return self._combine(other, sub)

    def centroid(self) -> tuple[float, float]:
        n, su, sv = self.sums[:3]
        return self.origin[0] + su / n, self.origin[1] + sv / n

    def central(self) -> tuple:
        """Central sums d_ij for 2 <= i + j <= degree, times n^(i+j-1).

        d_ij = sum (n u - Su)^i (n v - Sv)^j / n, a polynomial in the raw
        sums, so integer sums give it exactly; the central sum
        sum (u - mean u)^i (v - mean v)^j is d_ij / n^(i+j-1).  Order:
        d20, d11, d02, then d30 ... d03 and d40 ... d04 at degree 4.
        """
        n, a, b, s20, s11, s02 = self.sums[:6]
        d2 = (n * s20 - a * a, n * s11 - a * b, n * s02 - b * b)
        if len(self.sums) == 6:
            return d2
        s30, s21, s12, s03, s40, s31, s22, s13, s04 = self.sums[6:]
        aa, ab, bb = a * a, a * b, b * b
        return d2 + (
            2 * aa * a + n * (n * s30 - 3 * a * s20),
            2 * aa * b + n * (n * s21 - 2 * a * s11 - b * s20),
            2 * a * bb + n * (n * s12 - a * s02 - 2 * b * s11),
            2 * bb * b + n * (n * s03 - 3 * b * s02),
            -3 * aa * aa + n * (6 * aa * s20 + n * (n * s40 - 4 * a * s30)),
            -3 * aa * ab
            + n * (3 * aa * s11 + 3 * ab * s20 + n * (n * s31 - 3 * a * s21 - b * s30)),
            -3 * ab * ab + n * (
                aa * s02 + 4 * ab * s11 + bb * s20
                + n * (n * s22 - 2 * a * s12 - 2 * b * s21)
            ),
            -3 * ab * bb
            + n * (3 * ab * s02 + 3 * bb * s11 + n * (n * s13 - a * s03 - 3 * b * s12)),
            -3 * bb * bb + n * (6 * bb * s02 + n * (n * s04 - 4 * b * s03)),
        )


def _moments(pixels, degree: int, need: int) -> Moments:
    """The fit input as Moments of `need` or more distinct points: exact
    about (0, 0) for integer-valued points, read as Python ints from the
    input itself, and float sums about the mean otherwise."""
    if isinstance(pixels, Moments):
        if pixels.sums[0] < need:
            raise DegenerateInputError(f"need at least {need} distinct pixels")
        return pixels
    pixels = pixels.tolist() if isinstance(pixels, np.ndarray) else list(pixels)
    pts = _as_points(pixels)
    if np.array_equal(pts, np.round(pts)):
        coords, origin = [(int(x), int(y)) for x, y in pixels], (0, 0)
    else:
        coords, origin = pts.tolist(), tuple(pts.mean(axis=0).tolist())
    if len(set(map(tuple, coords))) < need:
        raise DegenerateInputError(f"need at least {need} distinct pixels")
    return Moments.of(coords, degree, origin)


def line_residual(pixels, line: PolarLine) -> float:
    """Sum of squared orthogonal distances from the pixels to the line."""
    pts = _as_points(pixels)
    c, s = line.normal
    d = pts[:, 0] * c + pts[:, 1] * s - line.p
    return float(np.sum(d * d))


def fit_line(pixels) -> PolarLine:
    """Orthogonal least-squares line through the pixels, in polar form.

    `pixels` is a point sequence or `Moments`.  With centred sums Sxx,
    Syy and Sxy, the squared residual at normal angle a is
    R(a) = C + A cos 2a + B sin 2a, where A = (Sxx - Syy) / 2 and B = Sxy.
    So a0 = atan2(-2 Sxy, Syy - Sxx) / 2 is its minimum and a0 + 90 deg
    its maximum; integer pixels give the three sums exactly.  a0 and
    a0 + 180 deg are the same line with opposite signs of p: the one with
    p >= 0 is returned, the smaller alpha when both qualify (a line
    through the origin), and p = 0 with the smaller alpha when rounding
    leaves both slightly negative.
    """
    m = _moments(pixels, 2, 2)
    cxx, cxy, cyy = m.central()[:3]
    if cxx == cyy == 0:
        raise DegenerateInputError("need at least 2 distinct pixels")
    alpha0 = 0.5 * math.atan2(-2 * cxy, cyy - cxx)
    xm, ym = m.centroid()
    # the second modulo folds the 360.0 that a tiny negative angle rounds to
    lo, hi = [
        (math.degrees(a) % 360.0 % 360.0, xm * math.cos(a) + ym * math.sin(a))
        for a in (alpha0, alpha0 + math.pi)
    ]
    if hi < lo:
        lo, hi = hi, lo
    alpha, p = lo if lo[1] >= 0 else hi if hi[1] >= 0 else (lo[0], 0.0)
    return PolarLine(p, alpha)


def point_line_distance(pt, line: PolarLine) -> float:
    """Perpendicular distance from (x, y) to the line, in px."""
    c, s = line.normal
    return abs(pt[0] * c + pt[1] * s - line.p)


def segment_extent(pixels, line: PolarLine) -> tuple[float, float]:
    """Extent (lo, hi) of the pixels projected onto the line's direction;
    hi - lo is the segment length."""
    pts = _as_points(pixels)
    if len(pts) < 2:
        raise DegenerateInputError("need at least 2 pixels")
    c, s = line.normal
    t = pts[:, 0] * -s + pts[:, 1] * c
    return float(t.min()), float(t.max())


def fit_ellipse(pixels) -> EllipseCoefficients:
    """Direct least-squares ellipse fit (Halir-Flusser split form).

    `pixels` is a point sequence or degree-4 `Moments`.  Raises
    `DegenerateInputError` for fewer than 5 distinct points or collinear
    ones, and `NumericalFitError` when no eigenvector meets the ellipse
    constraint.

    Minimizes the summed squared algebraic distance subject to the ellipse
    constraint; the quadratic part is the eigenvector of the reduced
    scatter system with the minimal positive eigenvalue, rescaled so that
    4ac - b^2 = 1.  The system is set up about the centroid, where the
    linear block S3 is diag([[Sxx, Sxy], [Sxy, Syy]], n); integer pixels
    give the reduced matrix exactly, rounded once to float.
    """
    m = _moments(pixels, 4, 5)
    if len(m.sums) < 15:
        raise ValueError("fit_ellipse needs moments of degree 4")
    n = m.sums[0]
    d20, d11, d02, d30, d21, d12, d03, d40, d31, d22, d13, d04 = m.central()
    det = d20 * d02 - d11 * d11
    # exact zero for integer pixels; rounding leaves collinear floats a sliver
    if det <= 1e-18 * (d20 + d02) ** 2:
        raise DegenerateInputError("pixels are collinear")
    # The blocks about the centroid, each central sum scaled by n^(i+j-1)
    # so that it stays an integer: S1 is the scatter of q = (x^2, xy, y^2),
    # S2 = [gx gy g1] its cross-scatter with (x, y, 1), and S3 is the 2x2
    # block [[d20, d11], [d11, d02]] beside n, with gx = (d30, d21, d12),
    # gy = (d21, d12, d03) and g1 = (d20, d11, d02).  So t = -S3^-1 S2^T
    # has rows tx / (n det), ty / (n det) and -g1 / n^2, and the reduced
    # matrix (S1 + S2 t) n^3 det has entries
    #   det (S1[i][k] - g1[i] g1[k]) + gx[i] tx[k] + gy[i] ty[k].
    tx0, tx1, tx2 = d11 * d21 - d02 * d30, d11 * d12 - d02 * d21, d11 * d03 - d02 * d12
    ty0, ty1, ty2 = d11 * d30 - d20 * d21, d11 * d21 - d20 * d12, d11 * d12 - d20 * d03
    scale = n**3 * det
    # C1^-1 (S1 + S2 t), with C1 the constraint matrix of 4ac - b^2: rows
    # 2, 1 and 0 of the reduced matrix, times 0.5, -1 and 0.5
    mat = [
        [
            (det * (d22 - d02 * d20) + d12 * tx0 + d03 * ty0) / scale * 0.5,
            (det * (d13 - d02 * d11) + d12 * tx1 + d03 * ty1) / scale * 0.5,
            (det * (d04 - d02 * d02) + d12 * tx2 + d03 * ty2) / scale * 0.5,
        ],
        [
            (det * (d31 - d11 * d20) + d21 * tx0 + d12 * ty0) / scale * -1.0,
            (det * (d22 - d11 * d11) + d21 * tx1 + d12 * ty1) / scale * -1.0,
            (det * (d13 - d11 * d02) + d21 * tx2 + d12 * ty2) / scale * -1.0,
        ],
        [
            (det * (d40 - d20 * d20) + d30 * tx0 + d21 * ty0) / scale * 0.5,
            (det * (d31 - d20 * d11) + d30 * tx1 + d21 * ty1) / scale * 0.5,
            (det * (d22 - d20 * d02) + d30 * tx2 + d21 * ty2) / scale * 0.5,
        ],
    ]
    eigvals, eigvecs = np.linalg.eig(np.array(mat))
    lams = eigvals.real.tolist()
    floor = 1e-12 * max(map(abs, lams))
    # Among real eigenvectors inside the ellipse constraint, 4ac - b^2 > 0:
    # the first minimal eigenvalue above the floor.  An exact fit drives it
    # to numerical zero, and then the first maximal one at or below the
    # floor is the answer.
    best = fallback = None
    for lam, imag, a1 in zip(lams, eigvals.imag.tolist(), eigvecs.real.T.tolist()):
        if abs(imag) <= 1e-8 * max(1.0, abs(lam)) and (
            cond := 4.0 * a1[0] * a1[2] - a1[1] ** 2
        ) > 0:
            if lam > floor:
                if best is None or lam < best[0]:
                    best = (lam, a1, cond)
            elif fallback is None or lam > fallback[0]:
                fallback = (lam, a1, cond)
    best = best or fallback
    if best is None:
        raise NumericalFitError("no eigenvector satisfies the ellipse constraint")
    _, a1, cond = best
    a1 = [v / math.sqrt(cond) for v in a1]  # enforce 4ac - b^2 = 1
    if a1[0] + a1[2] < 0:
        a1 = [-v for v in a1]  # canonical sign: positive-definite quadratic part
    a, b, c = a1
    d = sum(map(mul, (tx0, tx1, tx2), a1)) / (n * det)
    e = sum(map(mul, (ty0, ty1, ty2), a1)) / (n * det)
    f = -sum(map(mul, (d20, d11, d02), a1)) / n**2
    # back from the centroid (x0, y0) to page coordinates
    x0, y0 = m.centroid()
    return EllipseCoefficients(
        a, b, c, d - 2.0 * a * x0 - b * y0, e - 2.0 * c * y0 - b * x0,
        f + a * x0 * x0 + b * x0 * y0 + c * y0 * y0 - d * x0 - e * y0,
    )


def sampson_residual(pixels, coef: EllipseCoefficients) -> float:
    """Mean squared gradient-weighted algebraic distance (approx. px^2).

    F / |grad F| approximates the geometric point-to-curve distance and is
    scale-invariant, unlike the raw algebraic distance.
    """
    pts = _as_points(pixels)
    if not len(pts):
        raise ValueError("no points to measure")
    x, y = pts[:, 0], pts[:, 1]
    a, b, c, d, e, f = coef.a, coef.b, coef.c, coef.d, coef.e, coef.f
    fx = a * x * x + b * x * y + c * y * y
    fx = fx + d * x + e * y + f
    gx = 2.0 * a * x + b * y + d
    gy = 2.0 * c * y + b * x + e
    return float(np.mean(fx * fx / np.maximum(gx * gx + gy * gy, 1e-12)))


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
