"""Primitive fitting walkthrough: polar lines and direct ellipse fits.

Run:  python3 demos/demo_fitting.py

Fits a line in polar form r*cos(theta - alpha) = p to jittered samples,
then recovers an ellipse's geometric parameters from noisy boundary
points with the direct least-squares conic fit.
"""

import math

import numpy as np

from glyphcode import (
    arc_angles,
    conic_to_geometric,
    fit_ellipse,
    fit_line,
    point_line_distance,
    segment_extent,
)


def line_demo(rng):
    print("-- line fit --")
    alpha, p = 30.0, 12.0
    nx, ny = math.cos(math.radians(alpha)), math.sin(math.radians(alpha))
    ts = np.linspace(-20, 20, 60)
    noise = rng.normal(0, 0.25, ts.size)
    pts = [
        (nx * (p + e) - ny * t, ny * (p + e) + nx * t)
        for t, e in zip(ts, noise)
    ]
    line = fit_line(pts)
    lo, hi = segment_extent(pts, line)  # projections onto the line's direction
    length = hi - lo
    rms = math.sqrt(
        sum(point_line_distance(q, line) ** 2 for q in pts) / len(pts)
    )
    print(f"true  (p, alpha) = ({p:.2f}, {alpha:.2f})")
    print(f"fit   (p, alpha) = ({line.p:.2f}, {line.alpha:.2f})")
    print(f"extent l = {length:.2f}, rms orthogonal residual = {rms:.3f}")
    print()


def ellipse_demo(rng):
    print("-- ellipse fit --")
    x0, y0, a, b, phi = 40.0, -10.0, 25.0, 9.0, 55.0
    thetas = np.linspace(0, 2 * math.pi, 50, endpoint=False)
    pts = []
    for th in thetas:
        ex = a * math.cos(th)
        ey = b * math.sin(th)
        c, s = math.cos(math.radians(phi)), math.sin(math.radians(phi))
        pts.append(
            (
                x0 + c * ex - s * ey + rng.normal(0, 0.2),
                y0 + s * ex + c * ey + rng.normal(0, 0.2),
            )
        )
    coef = fit_ellipse(pts)
    gx, gy, ga, gb, gphi = conic_to_geometric(coef)
    print(f"true center ({x0:.2f}, {y0:.2f}), axes ({a:.2f}, {b:.2f}), phi {phi:.2f}")
    print(f"fit  center ({gx:.2f}, {gy:.2f}), axes ({ga:.2f}, {gb:.2f}), phi {gphi:.2f}")
    print(f"constraint 4ac - b^2 = {4 * coef.a * coef.c - coef.b ** 2:.12f}")

    # arc angles of the first quarter of the sampled boundary
    quarter = pts[: len(pts) // 4 + 1]
    beta, gamma = arc_angles(
        (gx, gy, ga, gb, gphi), quarter[0], quarter[-1]
    )
    print(f"quarter-arc angular window: beta={beta:.1f}, gamma={gamma:.1f}")


def main():
    rng = np.random.default_rng(12)
    line_demo(rng)
    ellipse_demo(rng)


if __name__ == "__main__":
    main()
