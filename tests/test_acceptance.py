"""Acceptance gate: end-to-end correctness and performance bounds.

Each test pins one release criterion at its stated tolerance; none of
these thresholds may be loosened without a corresponding design review.
"""

import difflib
import json
import math
import random
import time

import numpy as np
import pytest

from glyphcode import (
    ConnectivityTable,
    EncoderConfig,
    MatchTolerances,
    Position,
    arabic_connectivity,
    build_codebook,
    build_fingerprints,
    encode_word,
    enumerate_subwords,
    fit_ellipse,
    fit_line,
    conic_to_geometric,
    load_codebook,
    recognize,
    save_codebook,
    scale_word,
    sequence_subset,
    thin,
)
from glyphcode.encoder import word_to_json
from glyphcode.matcher import primitive_equiv, primitive_subset
from glyphcode.raster import write_pbm
from glyphcode.render import DEMO_GLYPHS, render_glyph, render_word_image
from conftest import (
    PIXEL_TOLERANCES,
    alignment_oracle,
    count_components,
    grid_line_oracle,
    orthogonal_sse,
    random_blob,
    random_primitive,
    random_sequence,
    sample_ellipse,
)

CFG = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
TOL = MatchTolerances(
    dl=0.08, dalpha=6, da=0.04, db=0.04, dphi=12, dbeta=15, dgamma=15, dpt=0.05
)
SIZES = (50, 75, 100)
PROBE_SIZE = 60


def ang180(x, y):
    d = abs(x - y) % 180.0
    return min(d, 180.0 - d)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    for name in DEMO_GLYPHS:
        d = root / "isolated" / name
        d.mkdir(parents=True)
        for size in SIZES:
            write_pbm(render_glyph(name, size), d / f"{size}.pbm")
    return root


def demo_table():
    return ConnectivityTable(
        tuple((n, False, False) for n in DEMO_GLYPHS), connector="NONE"
    )


@pytest.fixture(scope="module")
def book(corpus):
    b = build_codebook(corpus, demo_table(), list(SIZES), CFG, TOL, font="demo")
    build_fingerprints([b])
    return b


# ---------------------------------------------------------------------------
# 1. Line-fit optimality against the brute-force grid oracle


def test_criterion_1_line_fit_optimality():
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(200):
        alpha = rng.uniform(0, 180)
        p = rng.uniform(5, 30)
        # 50 points along the line r.cos(theta - alpha) = p, jitter sigma=0.3
        nx = math.cos(math.radians(alpha))
        ny = math.sin(math.radians(alpha))
        tx, ty = -ny, nx
        ts = rng.uniform(-25, 25, 50)
        noise = rng.normal(0, 0.3, 50)
        d = p + noise
        pts = [
            (nx * di + tx * ti, ny * di + ty * ti) for di, ti in zip(d, ts)
        ]
        cases.append(pts)

    t0 = time.perf_counter()
    fits = [fit_line(pts) for pts in cases]
    elapsed = time.perf_counter() - t0

    for pts, line in zip(cases, fits):
        op, oalpha, osse = grid_line_oracle(pts)
        assert ang180(line.alpha, oalpha) <= 1.0
        assert abs(line.p - op) <= 0.5
        assert orthogonal_sse(pts, line.p, line.alpha) <= osse + 1e-6
    assert elapsed < 1.0, f"200 line fits took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# 2 & 3. Ellipse-fit recovery and constraint conformance


def test_criterion_2_and_3_ellipse_fit():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    elapsed_fit = 0.0
    for _ in range(100):
        a = rng.uniform(5, 50)
        b = a / rng.uniform(1.1, 5.0)
        x0, y0 = rng.uniform(-100, 100, 2)
        phi = rng.uniform(0, 180)
        pts = sample_ellipse(x0, y0, a, b, phi, n=40)

        t1 = time.perf_counter()
        coef = fit_ellipse(pts)
        elapsed_fit += time.perf_counter() - t1

        # criterion 3: normalization constraint exact to 1e-9
        ca, cb, cc = coef.a, coef.b, coef.c
        assert abs(4 * ca * cc - cb * cb - 1.0) <= 1e-9

        gx, gy, ga, gb, gphi = conic_to_geometric(coef)
        assert abs(gx - x0) <= 1e-3 * a
        assert abs(gy - y0) <= 1e-3 * a
        assert abs(ga - a) <= 1e-3 * a
        assert abs(gb - b) <= 1e-3 * b
        assert ang180(gphi, phi) <= 0.1

        # noisy re-fit: radial sigma = 0.05 * b, axes within 5%
        noisy = [
            (
                x + rng.normal(0, 0.05 * b),
                y + rng.normal(0, 0.05 * b),
            )
            for x, y in pts
        ]
        t1 = time.perf_counter()
        ncoef = fit_ellipse(noisy)
        elapsed_fit += time.perf_counter() - t1
        assert abs(4 * ncoef.a * ncoef.c - ncoef.b**2 - 1.0) <= 1e-9
        _, _, na, nb, _ = conic_to_geometric(ncoef)
        assert abs(na - a) <= 0.05 * a
        assert abs(nb - b) <= 0.05 * b
    assert elapsed_fit < 2.0, f"200 ellipse fits took {elapsed_fit:.3f}s"


# ---------------------------------------------------------------------------
# 4. Thinning invariants on random blobs


def test_criterion_4_thinning_invariants():
    rng = random.Random(4)
    for _ in range(100):
        blob = random_blob(rng)
        skel = thin(blob)
        assert (skel.bits <= blob.bits).all()  # subset
        again = thin(skel)
        assert (again.bits == skel.bits).all()  # idempotence
        assert count_components(skel.bits) == count_components(blob.bits)


# ---------------------------------------------------------------------------
# 5. Enumeration counts


def test_criterion_5_enumeration_counts():
    table = arabic_connectivity()
    assert len(enumerate_subwords(table, Position.BEGINNING)) == 936
    assert len(enumerate_subwords(table, Position.MIDDLE)) == 900
    assert len(enumerate_subwords(table, Position.END)) == 925


# ---------------------------------------------------------------------------
# 6. Matcher conformance


def test_criterion_6_matcher_oracle_agreement():
    rng = random.Random(6)
    t = PIXEL_TOLERANCES
    for _ in range(10_000):
        c = random_sequence(rng, 5)
        d = random_sequence(rng, 5)
        assert sequence_subset(c, d, t) == alignment_oracle(c, d, t)


def test_criterion_6_matcher_relation_properties():
    rng = random.Random(66)
    t = PIXEL_TOLERANCES
    bigger = MatchTolerances(
        dl=t.dl * 2,
        dalpha=t.dalpha * 2,
        da=t.da * 2,
        db=t.db * 2,
        dphi=t.dphi * 2,
        dbeta=t.dbeta * 2,
        dgamma=t.dgamma * 2,
        dpt=t.dpt * 2,
    )
    for _ in range(10_000):
        i = random_primitive(rng)
        j = random_primitive(rng)
        assert primitive_equiv(i, i, t)  # reflexive
        assert primitive_subset(i, i, t)
        assert primitive_equiv(i, j, t) == primitive_equiv(j, i, t)  # symmetric
        if primitive_equiv(i, j, t):  # tolerance-monotone
            assert primitive_equiv(i, j, bigger)
        if primitive_subset(i, j, t):
            assert primitive_subset(i, j, bigger)


# ---------------------------------------------------------------------------
# 7. Synthetic end-to-end recognition at an unseen size


def test_criterion_7_end_to_end_recognition(book):
    rng = random.Random(7)
    names = list(DEMO_GLYPHS)
    total = correct = 0
    t0 = time.perf_counter()
    for _ in range(200):
        truth = [rng.choice(names) for _ in range(rng.randint(2, 3))]
        img = render_word_image(truth, PROBE_SIZE)
        word = scale_word(encode_word(img, CFG), 1.0 / PROBE_SIZE)
        got = [g for g, _, _ in recognize(word, book, TOL)]
        matcher = difflib.SequenceMatcher(None, truth, got)
        correct += sum(bl.size for bl in matcher.get_matching_blocks())
        total += len(truth)
    elapsed = time.perf_counter() - t0
    assert total >= 400
    accuracy = correct / total
    assert accuracy >= 0.90, f"per-glyph accuracy {accuracy:.3f}"
    assert elapsed < 30.0, f"recognition run took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 8. Determinism


def test_criterion_8_determinism(book):
    images = [
        render_glyph(name, size) for name in DEMO_GLYPHS for size in SIZES
    ]
    images.append(render_word_image(["vee", "oval", "zig"], PROBE_SIZE))
    for img in images:
        first = word_to_json(encode_word(img, CFG))
        second = word_to_json(encode_word(img, CFG))
        assert first == second
        w = scale_word(encode_word(img, CFG), 1.0 / PROBE_SIZE)
        assert recognize(w, book, TOL) == recognize(w, book, TOL)


# ---------------------------------------------------------------------------
# 9. Codebook persistence round-trip


def _structural(b):
    out = {}
    for key, cc in b.entries.items():
        out[key] = [
            (type(e.code).__name__, e.dirs, json.dumps(e.code.__dict__, sort_keys=True))
            for e in cc.code.elements
        ]
    return out


def test_criterion_9_persistence(corpus, book, tmp_path):
    books = [book]
    for sizes in ([75], [50, 100]):
        b = build_codebook(
            corpus, demo_table(), sizes, CFG, TOL, font=f"demo{len(sizes)}"
        )
        build_fingerprints([b])
        books.append(b)
    for i, b in enumerate(books):
        path = tmp_path / f"book{i}.json"
        save_codebook(b, path)
        back = load_codebook(path)
        assert back.font == b.font
        assert back.tolerances == b.tolerances
        assert _structural(back) == _structural(b)
        assert len(back.fingerprint) == len(b.fingerprint)
