"""Polar line regression and direct least-squares ellipse-arc fitting.

Angles are degrees everywhere in the public types; trig is done in radians
internally.  A polar line is ``r cos(theta - alpha) - p = 0``: `p` is the
distance of the line from the origin and `alpha` the angle of the normal
from the origin to the closest point of the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import add, attrgetter, itemgetter, mul, sub

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
    if not isinstance(pixels, np.ndarray):
        pixels = list(pixels)
    pts = np.asarray(pixels, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected a sequence of (x, y) points")
    return pts


def _monomials(u, v, degree):
    """u^i v^j for i + j <= degree: by degree, then by falling power of u."""
    uu, uv, vv = u * u, u * v, v * v
    if degree == 2:
        return (1, u, v, uu, uv, vv)
    return (1, u, v, uu, uv, vv, uu * u, uu * v, u * vv, vv * v,
            uu * uu, uu * uv, uu * vv, uv * vv, vv * vv)


def _running_sums(points, degree, origin):
    """Sums of the monomials over points[:0], points[:1], ..., points[:n]."""
    ox, oy = origin
    return accumulate(
        (_monomials(x - ox, y - oy, degree) for x, y in points),
        lambda s, t: tuple(map(add, s, t)),
        initial=(0,) * (6 if degree == 2 else 15),
    )


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
        *_, sums = _running_sums(points, degree, origin)
        return cls(sums, origin)

    @classmethod
    def prefix(cls, points, degree: int = 2, origin=(0, 0)) -> list[Moments]:
        """Rows r with r[j] - r[i] == Moments.of(points[i:j], degree, origin)."""
        return [cls(s, origin) for s in _running_sums(points, degree, origin)]

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
    about (0, 0) for integer points, float sums about the mean otherwise."""
    if isinstance(pixels, Moments):
        if pixels.sums[0] < need:
            raise DegenerateInputError(f"need at least {need} distinct pixels")
        return pixels
    pts = _as_points(pixels)
    if len(set(map(tuple, pts.tolist()))) < need:
        raise DegenerateInputError(f"need at least {need} distinct pixels")
    if np.array_equal(pts, np.round(pts)):
        return Moments.of(pts.astype(np.int64).tolist(), degree)
    origin = tuple(pts.mean(axis=0).tolist())
    return Moments.of(pts.tolist(), degree, origin)


def line_residual(pixels, line: PolarLine) -> float:
    """Sum of squared orthogonal distances from the pixels to the line."""
    pts = _as_points(pixels)
    a = math.radians(line.alpha)
    d = pts[:, 0] * math.cos(a) + pts[:, 1] * math.sin(a) - line.p
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
    normals = sorted(
        (math.degrees(a) % 360.0 % 360.0, xm * math.cos(a) + ym * math.sin(a))
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


def fit_ellipse(pixels):
    """Direct least-squares ellipse fit (Halir-Flusser split form).

    `pixels` is a point sequence or degree-4 `Moments`; a single fit
    returns its `EllipseCoefficients` or raises `DegenerateInputError` or
    `NumericalFitError`.  `pixels` may also be a block: a list of degree-4
    `Moments`, for which the result is a list holding each member's
    coefficients, or None where the member has no fit.

    Minimizes the summed squared algebraic distance subject to the ellipse
    constraint; the quadratic part is the eigenvector of the reduced
    scatter system with the minimal positive eigenvalue, rescaled so that
    4ac - b^2 = 1.  The system is set up about the centroid, where the
    linear block S3 is diag([[Sxx, Sxy], [Sxy, Syy]], n); integer pixels
    give the reduced matrix exactly, rounded once to float.  A block's
    matrices go to one stacked `np.linalg.eig`, which runs LAPACK on each
    matrix as a call of its own would, so a member fits bit for bit as
    it does alone.
    """
    block = isinstance(pixels, list) and bool(pixels) and isinstance(pixels[0], Moments)
    fits = _fit_block(pixels if block else [pixels])
    if block:
        return [f if isinstance(f, EllipseCoefficients) else None for f in fits]
    if isinstance(fits[0], Exception):
        raise fits[0]
    return fits[0]


def _fit_block(block) -> list:
    """Each member's `EllipseCoefficients`, or the error that stops its fit.

    The errors are kept without their tracebacks: a traceback holds this
    frame, whose `fits` holds the error, a cycle only the collector frees.
    """
    fits = []
    for member in block:
        try:
            fits.append(_reduced_system(_moments(member, 4, 5)))
        except DegenerateInputError as exc:
            fits.append(exc.with_traceback(None))
    solvable = [k for k, fit in enumerate(fits) if isinstance(fit, tuple)]
    if not solvable:
        return fits
    eigvals, eigvecs = np.linalg.eig(np.array([fits[k][0] for k in solvable]))
    for k, lams, imags, vecs in zip(
        solvable,
        eigvals.real.tolist(),
        eigvals.imag.tolist(),
        eigvecs.real.transpose(0, 2, 1).tolist(),  # rows are eigenvectors
    ):
        try:
            fits[k] = _conic_from_eigen(fits[k][1], lams, imags, vecs)
        except NumericalFitError as exc:
            fits[k] = exc.with_traceback(None)
    return fits


def _reduced_system(m: Moments):
    """The reduced matrix C1^-1 (S1 + S2 t) of the moments, rounded once,
    and what `_conic_from_eigen` needs to finish the fit."""
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
    # block [[d20, d11], [d11, d02]] beside n.  So t = -S3^-1 S2^T has rows
    # tx / (n det), ty / (n det) and -g1 / n^2, and red = (S1 + S2 t) n^3 det.
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
    # C1^-1 (S1 + S2 t), with C1 the constraint matrix of 4ac - b^2
    mat = [[v / scale * w for v in red[2 - i]] for i, w in enumerate((0.5, -1.0, 0.5))]
    return mat, (m, n, det, tx, ty, g1)


def _conic_from_eigen(setup, lams, imags, vecs) -> EllipseCoefficients:
    """The ellipse picked from the reduced matrix's eigenpairs, in page
    coordinates."""
    m, n, det, tx, ty, g1 = setup
    floor = 1e-12 * max(map(abs, lams))
    # real eigenvectors inside the ellipse constraint, 4ac - b^2 > 0
    found = [
        (lam, a1, cond)
        for lam, imag, a1 in zip(lams, imags, vecs)
        if abs(imag) <= 1e-8 * max(1.0, abs(lam))
        and (cond := 4.0 * a1[0] * a1[2] - a1[1] ** 2) > 0
    ]
    # the minimal positive eigenvalue; an exact fit drives it to numerical
    # zero, and then the largest one at or below the floor is the answer
    above = [f for f in found if f[0] > floor]
    key = itemgetter(0)  # the eigenvalue
    best = min(above, key=key) if above else max(found, key=key, default=None)
    if best is None:
        raise NumericalFitError("no eigenvector satisfies the ellipse constraint")
    _, a1, cond = best
    a1 = [v / math.sqrt(cond) for v in a1]  # enforce 4ac - b^2 = 1
    if a1[0] + a1[2] < 0:
        a1 = [-v for v in a1]  # canonical sign: positive-definite quadratic part
    a, b, c = a1
    d, e = (sum(map(mul, row, a1)) / (n * det) for row in (tx, ty))
    f = -sum(map(mul, g1, a1)) / n**2
    # back from the centroid (x0, y0) to page coordinates
    x0, y0 = m.centroid()
    return EllipseCoefficients(
        a, b, c, d - 2.0 * a * x0 - b * y0, e - 2.0 * c * y0 - b * x0,
        f + a * x0 * x0 + b * x0 * y0 + c * y0 * y0 - d * x0 - e * y0,
    )


_COEFFICIENTS = attrgetter("a", "b", "c", "d", "e", "f")


def sampson_residual(pixels, coef):
    """Mean squared gradient-weighted algebraic distance (approx. px^2).

    F / |grad F| approximates the geometric point-to-curve distance and is
    scale-invariant, unlike the raw algebraic distance.  `coef` may also
    be a block: a list of K coefficients (or None), member k measured on
    the first len(pixels) - K + 1 + k pixels, as for a run grown one pixel
    per member.  A block is one (K, len(pixels)) pass and returns a list
    of K residuals, None for a None member.  Each member's prefix row is
    summed by `np.add.reduce`, as `np.mean` does, so it reads the same
    value as alone.
    """
    block = isinstance(coef, list)
    coefs = coef if block else [coef]
    pts = _as_points(pixels)
    if not 0 < len(coefs) <= len(pts):
        raise ValueError("a block needs 1 to len(pixels) members")
    x, y = pts[:, 0], pts[:, 1]
    # a (K, 1) column per coefficient; a None member is the zero conic, unread
    a, b, c, d, e, f = np.array(
        [(0.0,) * 6 if k is None else _COEFFICIENTS(k) for k in coefs]
    ).T[:, :, None]
    fx = a * x * x + b * x * y + c * y * y
    fx = fx + d * x + e * y + f
    gx = 2.0 * a * x + b * y + d
    gy = 2.0 * c * y + b * x + e
    rows = fx * fx / np.maximum(gx * gx + gy * gy, 1e-12)
    first = len(pts) - len(coefs) + 1
    out = [
        None if k is None else float(np.add.reduce(row[: first + i]) / (first + i))
        for i, (k, row) in enumerate(zip(coefs, rows))
    ]
    return out if block else out[0]


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
