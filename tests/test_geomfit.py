"""Geometric fitting: polar lines, ellipses, conic conversion, arc angles."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glyphcode import (
    DegenerateInputError,
    EllipseCoefficients,
    Moments,
    NonEllipseError,
    NumericalFitError,
    PolarLine,
    arc_angles,
    conic_to_geometric,
    fit_ellipse,
    fit_line,
    point_line_distance,
    segment_extent,
)
from glyphcode.geomfit import line_residual, sampson_residual
from conftest import (
    algebraic_residual,
    grid_line_oracle,
    orthogonal_sse,
    random_pixel_run,
    reference_exact_fit_block,
    reference_exact_fit_line,
    reference_fit_ellipse,
    reference_fit_line,
    reference_prefix_sums,
    reference_sampson_residual,
    sample_ellipse,
)


# ---------------------------------------------------------------------------
# fit_line


def test_fit_line_horizontal():
    line = fit_line([(0, 3), (1, 3), (2, 3)])
    assert line.p == pytest.approx(3.0, abs=1e-9)
    assert line.alpha == pytest.approx(90.0, abs=1e-6)


def test_fit_line_through_origin():
    line = fit_line([(0, 0), (1, 1), (2, 2)])
    assert line.p == pytest.approx(0.0, abs=1e-9)
    assert line.alpha % 90.0 == pytest.approx(45.0, abs=1e-6)
    assert orthogonal_sse([(0, 0), (1, 1), (2, 2)], line.p, line.alpha) < 1e-12


def test_fit_line_sloped_vs_grid_oracle():
    rng = random.Random(5)
    pts = [
        (x, 0.5 * x + 2 + rng.uniform(-0.2, 0.2)) for x in np.linspace(0, 20, 50)
    ]
    line = fit_line(pts)
    p_o, a_o, sse_o = grid_line_oracle(pts)
    assert abs(line.p - p_o) < 0.5
    assert min(abs(line.alpha - a_o) % 180, 180 - abs(line.alpha - a_o) % 180) < 1.0
    assert orthogonal_sse(pts, line.p, line.alpha) <= sse_o + 1e-6


def test_fit_line_degenerate():
    with pytest.raises(DegenerateInputError):
        fit_line([(1, 1)])
    with pytest.raises(DegenerateInputError):
        fit_line([(2, 2), (2, 2), (2, 2)])


def test_fit_line_p_nonnegative_and_alpha_range():
    rng = random.Random(17)
    for _ in range(50):
        pts = [(rng.uniform(-30, 30), rng.uniform(-30, 30)) for _ in range(2)]
        if math.dist(pts[0], pts[1]) < 1e-6:
            continue
        line = fit_line(pts)
        assert line.p >= 0
        assert 0 <= line.alpha < 360


def test_fit_line_permutation_invariant(rng):
    pts = [(x, 3 * x - 7) for x in range(12)]
    base = fit_line(pts)
    for _ in range(5):
        rng.shuffle(pts)
        again = fit_line(pts)
        assert again.p == pytest.approx(base.p)
        assert again.alpha == pytest.approx(base.alpha)


def test_fit_line_through_origin_float_points():
    """Rounding leaves both minimising normals with p just below 0; the fit
    must still be the best line, not the perpendicular worst one."""
    pts = [
        (0.7404470449980277, -4.82898715431201),
        (0.12850928757373167, -0.8381013917139629),
        (-0.1211972440597361, 0.7904143026244937),
    ]
    line = fit_line(pts)
    assert orthogonal_sse(pts, line.p, line.alpha) <= 1e-9
    assert line.p >= 0
    assert 0 <= line.alpha < 360


def test_fit_line_alpha_below_360():
    """A normal angle a hair below 0 comes back as alpha 0, not 360."""
    pts = [(0, 3), (1, 3), (0, 2), (1, 1), (0, 0), (0, 1)]  # the order matters
    pts += [(1, 2), (2, 3), (2, 2), (2, 1), (2, 0)]
    line = fit_line(pts)
    assert 0 <= line.alpha < 360
    assert orthogonal_sse(pts, line.p, line.alpha) <= grid_line_oracle(pts)[2] + 1e-6


def test_fit_line_reads_huge_integer_valued_floats_exactly():
    # beyond 2**63 an int64 cast overflowed and turned the normal to 180
    pts = [(1e19, 0.0), (2e19, 1.0), (3e19, 2.0)]
    line = fit_line(pts)
    assert line.alpha == 90.0  # the true normal is 90 + 5.7e-18 degrees
    assert line == fit_line(Moments.of([(int(x), int(y)) for x, y in pts]))
    assert fit_line([(1e19, 0.0), (1e19, 2048.0), (1e19, 4096.0)]) == PolarLine(1e19, 0.0)


def test_fit_line_reads_huge_python_ints_exactly():
    # as floats these points round to (2**53, 0), (2**53 + 2, 1), (2**53 + 4, 2)
    pts = [(2**53 + 1, 0), (2**53 + 2, 1), (2**53 + 3, 2)]
    exact = fit_line(Moments.of(pts))
    assert exact.alpha == 315.0
    assert fit_line(pts) == exact
    assert fit_line(np.array(pts)) == exact
    # two pixels that one float would hold are still distinct
    assert fit_line([(2**53, 0), (2**53 + 1, 0)]).alpha == 90.0


def test_fits_reject_a_nan_coordinate():
    pts = [(0, 0), (1, 2), (2, 5), (3, 5), (4, 2), (5, float("nan"))]
    for fit in (fit_line, fit_ellipse):
        with pytest.raises(ValueError, match="finite"):
            fit(pts)


def test_fits_reject_an_infinite_coordinate():
    for bad in (float("inf"), -float("inf")):
        pts = [(0, 0), (1, 2), (2, 5), (3, 5), (4, 2), (bad, 0)]
        for fit in (fit_line, fit_ellipse):
            with pytest.raises(ValueError, match="finite"):
                fit(pts)


# ---------------------------------------------------------------------------
# point_line_distance / segment_extent


def test_point_line_distance_examples():
    from glyphcode import PolarLine

    assert point_line_distance((0, 0), PolarLine(3, 90)) == pytest.approx(3.0)
    assert point_line_distance((1, 3), PolarLine(3, 90)) == pytest.approx(0.0)
    assert point_line_distance((4, 0), PolarLine(0, 0)) == pytest.approx(4.0)


def test_segment_extent_examples():
    from glyphcode import PolarLine

    # the direction of the line with normal angle 90 points along -x
    lo, hi = segment_extent([(0, 3), (2, 3)], PolarLine(3, 90))
    assert (lo, hi) == (pytest.approx(-2.0), pytest.approx(0.0))

    pts = [(0, 0), (3, 4)]
    lo, hi = segment_extent(pts, fit_line(pts))
    assert hi - lo == pytest.approx(5.0)

    pts = [(0, 0), (1, 0), (1, 0)]
    lo, hi = segment_extent(pts, fit_line(pts))
    assert hi - lo == pytest.approx(1.0)


def test_cached_normal_reads_what_per_call_trig_reads():
    rng = random.Random(23)
    alphas = [0.0, 90.0, 180.0, 270.0] + [rng.uniform(0.0, 360.0) for _ in range(300)]
    for alpha in alphas:
        line = PolarLine(rng.uniform(0.0, 300.0), alpha)
        a = math.radians(alpha)
        pts = [(rng.randint(-50, 400), rng.randint(-50, 400)) for _ in range(20)]
        for x, y in pts:
            want = abs(x * math.cos(a) + y * math.sin(a) - line.p)
            assert point_line_distance((x, y), line).hex() == want.hex()
        t = [x * -math.sin(a) + y * math.cos(a) for x, y in pts]
        lo, hi = segment_extent(pts, line)
        assert (lo.hex(), hi.hex()) == (min(t).hex(), max(t).hex())


def test_a_pixel_beside_a_horizontal_run_reads_just_over_one():
    # cos(90 deg) is 6.1e-17, not 0: a known float tie the cache keeps
    line = fit_line([(k, 3) for k in range(2, 22)])
    assert point_line_distance((7, 2), line) == 1.0000000000000004


# ---------------------------------------------------------------------------
# fit_ellipse


def test_fit_ellipse_exact_circle():
    pts = sample_ellipse(10, 10, 1, 1, 0, n=36)
    coef = fit_ellipse(pts)
    # conic equivalent to x^2 + y^2 - 20x - 20y + 199 = 0 up to scale
    target = np.array([1.0, 0.0, 1.0, -20.0, -20.0, 199.0])
    got = coef.as_array()
    scale = got[0] / target[0]
    assert np.allclose(got, target * scale, atol=1e-7)
    assert algebraic_residual(pts, coef) < 1e-9


def test_fit_ellipse_near_optimality():
    rng = random.Random(23)
    pts = sample_ellipse(5, 5, 4, 2, 30, n=40)
    coef = fit_ellipse(pts)
    best = algebraic_residual(pts, coef)
    for _ in range(10_000):
        x0 = 5 + rng.uniform(-0.3, 0.3)
        y0 = 5 + rng.uniform(-0.3, 0.3)
        a = 4 + rng.uniform(-0.3, 0.3)
        b = 2 + rng.uniform(-0.3, 0.3)
        phi = math.radians(30 + rng.uniform(-5, 5))
        # conic of the perturbed ellipse, normalized to 4AC - B^2 = 1
        c, s = math.cos(phi), math.sin(phi)
        A = (c / a) ** 2 + (s / b) ** 2
        B = 2 * c * s * (1 / a**2 - 1 / b**2)
        C = (s / a) ** 2 + (c / b) ** 2
        D = -2 * A * x0 - B * y0
        E = -B * x0 - 2 * C * y0
        F = A * x0**2 + B * x0 * y0 + C * y0**2 - 1
        k = 1.0 / math.sqrt(4 * A * C - B * B)
        cand = EllipseCoefficients(
            A * k, B * k, C * k, D * k, E * k, F * k
        )
        assert best <= algebraic_residual(pts, cand) + 1e-12


def test_fit_ellipse_collinear():
    with pytest.raises(DegenerateInputError):
        fit_ellipse([(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)])


def test_fit_ellipse_too_few():
    with pytest.raises(DegenerateInputError):
        fit_ellipse([(0, 0), (1, 2), (3, 1), (2, 5)])


@pytest.mark.parametrize("empty", [[], (), np.zeros((0, 2))])
def test_fits_read_empty_input_as_zero_points(empty):
    with pytest.raises(DegenerateInputError, match="need at least 2 distinct pixels"):
        fit_line(empty)
    with pytest.raises(DegenerateInputError, match="need at least 5 distinct pixels"):
        fit_ellipse(empty)


def test_fit_ellipse_constraint_normalization():
    rng = random.Random(31)
    for _ in range(25):
        pts = sample_ellipse(
            rng.uniform(-20, 20),
            rng.uniform(-20, 20),
            rng.uniform(5, 30),
            rng.uniform(2, 5),
            rng.uniform(0, 180),
            n=40,
        )
        coef = fit_ellipse(pts)
        assert 4 * coef.a * coef.c - coef.b**2 == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# conic_to_geometric


def test_conic_circle():
    geo = conic_to_geometric(EllipseCoefficients(1, 0, 1, -2, -2, 1))
    x0, y0, a, b, phi = geo
    assert (x0, y0) == (pytest.approx(1.0), pytest.approx(1.0))
    assert a == pytest.approx(1.0) and b == pytest.approx(1.0)
    assert phi == pytest.approx(0.0)


def test_conic_axis_aligned():
    x0, y0, a, b, phi = conic_to_geometric(EllipseCoefficients(4, 0, 1, 0, 0, -4))
    assert (x0, y0) == (pytest.approx(0.0), pytest.approx(0.0))
    assert a == pytest.approx(2.0) and b == pytest.approx(1.0)
    assert phi == pytest.approx(90.0)


def test_conic_non_ellipse_rejected():
    with pytest.raises(NonEllipseError):
        conic_to_geometric(EllipseCoefficients(1, 0, -1, 0, 0, -1))  # hyperbola


def test_fit_roundtrip_within_one_percent():
    pts = sample_ellipse(5, 5, 4, 2, 30, n=40)
    x0, y0, a, b, phi = conic_to_geometric(fit_ellipse(pts))
    assert x0 == pytest.approx(5, rel=0.01)
    assert y0 == pytest.approx(5, rel=0.01)
    assert a == pytest.approx(4, rel=0.01)
    assert b == pytest.approx(2, rel=0.01)
    assert min(abs(phi - 30) % 180, 180 - abs(phi - 30) % 180) < 0.3


def test_axes_ordered_phi_range():
    rng = random.Random(41)
    for _ in range(25):
        pts = sample_ellipse(
            0, 0, rng.uniform(3, 30), rng.uniform(1, 3), rng.uniform(0, 360), n=50
        )
        x0, y0, a, b, phi = conic_to_geometric(fit_ellipse(pts))
        assert a >= b > 0
        assert 0 <= phi < 180


# ---------------------------------------------------------------------------
# arc_angles


def test_arc_angles_basic():
    geo = (0.0, 0.0, 1.0, 1.0, 0.0)
    assert arc_angles(geo, (1, 0), (0, 1)) == (
        pytest.approx(0.0),
        pytest.approx(90.0),
    )


def test_arc_angles_phi_shift():
    geo = (0.0, 0.0, 1.0, 1.0, 90.0)
    beta, gamma = arc_angles(geo, (1, 0), (0, 1))
    assert beta == pytest.approx(270.0)
    assert gamma % 360.0 == pytest.approx(0.0)


def test_arc_angles_third_quadrant():
    geo = (0.0, 0.0, 1.0, 1.0, 0.0)
    assert arc_angles(geo, (-1, 0), (0, -1)) == (
        pytest.approx(180.0),
        pytest.approx(270.0),
    )


def test_arc_angles_errors():
    geo = (0.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(DegenerateInputError):
        arc_angles(geo, (1, 0), (1, 0))
    with pytest.raises(DegenerateInputError):
        arc_angles(geo, (0, 0), (1, 0))


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0, max_value=360, allow_nan=False),
    st.floats(min_value=0, max_value=179.9, allow_nan=False),
)
def test_arc_angles_in_range(theta, phi):
    geo = (0.0, 0.0, 2.0, 1.0, phi)
    pt = (2.5 * math.cos(math.radians(theta)), 2.5 * math.sin(math.radians(theta)))
    beta, gamma = arc_angles(geo, pt, (2.0, 0.1))
    assert 0 <= beta < 360
    assert 0 <= gamma < 360


def test_line_residual_zero_on_line():
    from glyphcode import PolarLine

    assert line_residual([(0, 3), (5, 3)], PolarLine(3, 90)) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# exact integer moments against the float design-matrix fits


def _runs(count=500, seed=7):
    rng = random.Random(seed)
    return [random_pixel_run(rng) for _ in range(count)]


def test_moment_fits_agree_with_reference_fits():
    compared = 0
    for run in _runs():
        want, got = reference_fit_line(run), fit_line(run)
        turn = abs(got.alpha - want.alpha) % 360.0
        assert min(turn, 360.0 - turn) <= 1e-9
        assert got.p == pytest.approx(want.p, rel=1e-9, abs=1e-9)
        try:
            ref = reference_fit_ellipse(run)
            if conic_to_geometric(ref)[3] < 1.0:
                continue
        except (DegenerateInputError, NumericalFitError, NonEllipseError):
            continue
        # relative to the largest coefficient: the conics are defined up to
        # scale, and the small ones sit at rounding level of the large
        want = ref.as_array()
        err = np.abs(fit_ellipse(run).as_array() - want).max()
        assert err <= 1e-6 * np.abs(want).max()
        compared += 1
    assert compared >= 300


def _hex(line):
    return line.p.hex(), line.alpha.hex()


def test_fits_equal_their_plain_reference_forms_bitwise():
    """Every line step and every ellipse candidate of the 500 runs, and
    of their scaled copies, which fit from float sums about the mean."""
    fitted = 0
    for run in _runs():
        scaled = [(x + 0.5, y / 3) for x, y in run]
        corner = (min(x for x, _ in run), min(y for _, y in run))
        mean = tuple(np.mean(scaled, axis=0).tolist())
        for pts, corner in ((run, corner), (scaled, mean)):
            assert _hex(fit_line(pts)) == _hex(reference_exact_fit_line(pts))
            rows = Moments.prefix(pts, 4, corner)
            assert [r.sums for r in rows] == reference_prefix_sums(pts, 4, corner)
            assert Moments.of(pts, 4, corner) == rows[-1]
            steps = Moments.prefix(pts)
            for j in range(2, len(pts) + 1):
                m = steps[j] - steps[0]
                assert _hex(fit_line(m)) == _hex(reference_exact_fit_line(m))
            block = [rows[e] - rows[0] for e in range(1, len(rows))]
            got = list(map(_bits, fit_ellipse(block)))
            assert got == list(map(_bits, reference_exact_fit_block(block)))
            fitted += sum(g is not None for g in got)
    assert fitted >= 20_000


def test_moments_prefix_slices_and_sums_are_exact():
    rng = random.Random(11)
    for run in _runs(50):
        origin = (rng.randint(-5, 5), rng.randint(-5, 5))
        rows = Moments.prefix(run, 4, origin)
        for _ in range(5):
            i, j = sorted(rng.sample(range(len(run) + 1), 2))
            assert rows[j] - rows[i] == Moments.of(run[i:j], 4, origin)
            head, tail = Moments.of(run[:i], 4, origin), Moments.of(run[i:], 4, origin)
            assert head + tail == rows[-1]
    with pytest.raises(ValueError):
        Moments.of(run, 4) + Moments.of(run, 4, (1, 0))
    with pytest.raises(ValueError):
        fit_ellipse(Moments.of(run, 2))


@pytest.mark.parametrize("degree", (0, 1, 3, 5))
def test_moments_have_degree_two_or_four(degree):
    """Any other degree once gave the degree-2 sums, which `fit_line`
    read as a line's."""
    run = [(0, 0), (1, 2), (3, 1)]
    with pytest.raises(ValueError, match="degree"):
        Moments.of(run, degree)
    with pytest.raises(ValueError, match="degree"):
        Moments.prefix(run, degree)


def test_central_sums_and_line_alpha_survive_integer_translation():
    rng = random.Random(13)
    for run in _runs(100):
        line = fit_line(run)
        central = Moments.of(run, 4).central()
        assert Moments.of(run, 4, (run[0][0], run[0][1])).central() == central
        a = math.radians(line.alpha)
        for _ in range(3):
            dx, dy = rng.randint(-300, 300), rng.randint(-300, 300)
            moved = [(x + dx, y + dy) for x, y in run]
            assert Moments.of(moved, 4).central() == central
            # a shift towards the normal keeps p > 0, so the same normal
            if line.p > 0 and dx * math.cos(a) + dy * math.sin(a) > 0:
                assert fit_line(moved).alpha == line.alpha


def test_collinear_runs_are_degenerate():
    rng = random.Random(17)
    for _ in range(50):
        dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3)])
        x0, y0 = rng.randint(0, 500), rng.randint(0, 500)
        run = [(x0 + k * dx, y0 + k * dy) for k in range(rng.randint(5, 60))]
        with pytest.raises(DegenerateInputError):
            fit_ellipse(run)
        with pytest.raises(DegenerateInputError):
            fit_ellipse(Moments.of(run, 4, (x0, y0)))


# ---------------------------------------------------------------------------
# blocks: one stacked eig and one Sampson pass for many growing runs


def _bits(coef):
    return None if coef is None else [v.hex() for v in coef.as_array().tolist()]


def _single_fit(m):
    try:
        return fit_ellipse(m), None
    except (DegenerateInputError, NumericalFitError) as exc:
        return None, type(exc)


def _prefix_blocks():
    """Per run: its float points and the moments of every prefix of it."""
    rng = random.Random(19)
    runs = _runs(480)
    for _ in range(20):  # straight runs, collinear at every prefix
        dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (2, 1), (1, -3)])
        x0, y0 = rng.randint(0, 500), rng.randint(0, 500)
        runs.append([(x0 + k * dx, y0 + k * dy) for k in range(rng.randint(5, 40))])
    for run in runs:
        origin = (min(x for x, _ in run), min(y for _, y in run))
        rows = Moments.prefix(run, 4, origin)
        prefixes = [rows[e] - rows[0] for e in range(1, len(rows))]
        yield np.array(run, dtype=float), prefixes


def test_stacked_eig_equals_single_eig_bitwise():
    """The premise of block fits: numpy solves each matrix of a stack as
    it would alone, real and complex spectra alike."""
    rng = np.random.default_rng(5)
    scales = rng.choice([1e-6, 1.0, 1e6], size=(500, 1, 1))
    mats = rng.normal(size=(500, 3, 3)) * scales
    w, v = np.linalg.eig(mats)
    assert (w.imag != 0).any() and (w.imag == 0).all(axis=1).any()
    for mat, wk, vk in zip(mats, w, v):
        w1, v1 = np.linalg.eig(mat)
        assert wk.tobytes() == w1.astype(complex).tobytes()
        assert vk.tobytes() == v1.astype(complex).tobytes()


def test_block_fits_equal_single_fits_bitwise():
    outcomes = dict.fromkeys((None, DegenerateInputError, NumericalFitError), 0)
    for _, block in _prefix_blocks():
        singles = [_single_fit(m) for m in block]
        want = [_bits(fit) for fit, _ in singles]
        for _, reason in singles:
            outcomes[reason] += 1
        assert list(map(_bits, fit_ellipse(block))) == want
        # a block of one is the single fit, and so is any sub-block
        k = len(block) // 2
        assert list(map(_bits, fit_ellipse(block[k : k + 1]))) == want[k : k + 1]
        assert list(map(_bits, fit_ellipse(block[k:]))) == want[k:]
    # every kind of member occurred: fitted, collinear or too few, no eigenvector
    assert min(outcomes.values()) >= 100, outcomes


def test_block_sampson_equals_single_sampson_bitwise():
    compared = 0
    for pts, block in itertools.islice(_prefix_blocks(), 0, None, 4):
        fits = fit_ellipse(block)
        got = sampson_residual(pts, fits)
        assert len(got) == len(fits)
        for m, (fit, value) in enumerate(zip(fits, got), start=1):
            if fit is None:
                assert value is None
                continue
            assert value.hex() == sampson_residual(pts[:m], fit).hex()
            assert value.hex() == reference_sampson_residual(pts[:m], fit).hex()
            compared += 1
        # the tail of a block: its members end at the last points
        got_tail = sampson_residual(pts, fits[-3:])
        assert [v is None or v.hex() for v in got_tail] == [
            v is None or v.hex() for v in got[-3:]
        ]
    assert compared >= 2_000
    with pytest.raises(ValueError):
        sampson_residual(pts[:2], fits[:3])
    with pytest.raises(ValueError):
        sampson_residual(pts, [])
