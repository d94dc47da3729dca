"""Matcher relations: primitive/element/sequence equivalence and subset."""

import itertools
import random
from dataclasses import replace

import pytest

from glyphcode import (
    CodedElement,
    EllipseArcCode,
    LineSegmentCode,
    MatchTolerances,
    PointCode,
    SubWordCode,
    WordCode,
    arc_equiv,
    arc_subset,
    element_equiv,
    element_match,
    find_matches,
    freeman_sum,
    line_equiv,
    line_subset,
    sequence_equiv,
    sequence_subset,
)
from glyphcode.encoder import WordEntry
from glyphcode.matcher import (
    element_subset,
    primitive_equiv,
    primitive_subset,
    subset_alignment,
)
from conftest import (
    PIXEL_TOLERANCES as T,
    alignment_oracle,
    random_dirs,
    random_element,
    random_primitive,
    random_sequence,
    reference_element_subset,
    reference_subset_alignment,
)


def arc(a=10, b=4, phi=0, beta=0, gamma=90, x0=0, y0=0):
    return EllipseArcCode(x0, y0, a, b, phi, beta, gamma)


# ---------------------------------------------------------------------------
# line relations


def test_line_equiv_parallel_equal_length():
    assert line_equiv(LineSegmentCode(3, 90, 10), LineSegmentCode(7, 90, 10), T)


def test_line_equiv_reflexive():
    c = LineSegmentCode(3, 90, 10)
    assert line_equiv(c, c, T)


def test_line_equiv_mod_180():
    assert line_equiv(LineSegmentCode(0, 2, 10), LineSegmentCode(0, 178, 10), T)


def test_line_subset_lengths():
    assert line_subset(LineSegmentCode(0, 90, 5), LineSegmentCode(0, 90, 9), T)
    assert not line_subset(
        LineSegmentCode(0, 90, 9), LineSegmentCode(0, 90, 5), T
    )
    c = LineSegmentCode(1, 45, 7)
    assert line_subset(c, c, T)


# ---------------------------------------------------------------------------
# arc relations


def test_arc_equiv_identical_and_center_free():
    assert arc_equiv(arc(), arc(), T)
    assert arc_equiv(arc(x0=0, y0=0), arc(x0=50, y0=-3), T)


def test_arc_equiv_boundary_strict():
    assert not arc_equiv(arc(a=10), arc(a=10 + T.da), T)


def test_arc_subset_containment():
    assert arc_subset(arc(beta=10, gamma=80), arc(beta=0, gamma=90), T)
    assert arc_subset(arc(beta=350, gamma=20), arc(beta=340, gamma=30), T)
    assert not arc_subset(arc(beta=0, gamma=90), arc(beta=10, gamma=80), T)


def test_arc_subset_respects_axes():
    assert not arc_subset(arc(a=10, beta=10, gamma=80), arc(a=16, beta=0, gamma=90), T)


def test_arc_phi_representation_flip():
    # phi ~0 and phi ~180 describe the same axis with arc angles shifted
    i = arc(phi=0.5, beta=340, gamma=200)
    j = arc(phi=179.5, beta=160, gamma=20)
    assert arc_equiv(i, j, T)
    assert arc_subset(i, j, T)


# ---------------------------------------------------------------------------
# points and cross-kind


def test_point_relations():
    assert primitive_equiv(PointCode(3, 4), PointCode(90, 2), T)
    assert primitive_subset(PointCode(3, 4), PointCode(3, 4), T)


def test_cross_kind_false():
    assert not primitive_equiv(PointCode(0, 0), LineSegmentCode(0, 0, 1), T)
    assert not primitive_subset(LineSegmentCode(0, 0, 1), arc(), T)


# ---------------------------------------------------------------------------
# freeman_sum


def test_freeman_sum_examples():
    assert freeman_sum([0, 0]) == 0
    assert freeman_sum([0, 4]) == 9
    assert freeman_sum([0, 2]) == 1
    assert freeman_sum([9, 9]) == 9
    assert freeman_sum([]) == 9


# ---------------------------------------------------------------------------
# element relations


def el(code=None, dirs=(9, 9, 9)):
    return CodedElement(code or LineSegmentCode(0, 90, 10), tuple(dirs))


def test_element_equiv():
    assert element_equiv(el(), el(), T)
    assert not element_equiv(el(dirs=(0, 9, 9)), el(dirs=(1, 9, 9)), T)
    assert element_equiv(
        el(LineSegmentCode(0, 90, 10), (2, 9, 9)),
        el(LineSegmentCode(5, 90, 10.5), (2, 9, 9)),
        T,
    )


def test_element_match_k1_is_subset_with_equal_dirs():
    dseq = [el(dirs=(0, 9, 9)), el(dirs=(0, 9, 9))]
    probe = el(dirs=(0, 9, 9))
    assert element_match(probe, dseq, 0, 1, T)


def test_element_match_direction_sum():
    # two east hops sum to east
    dseq = [
        el(dirs=(0, 0, 9)),
        el(LineSegmentCode(0, 90, 3), (0, 9, 9)),
        el(LineSegmentCode(0, 90, 20), (9, 9, 9)),
    ]
    probe = el(LineSegmentCode(0, 90, 10), (0, 9, 9))
    assert element_match(probe, dseq, 0, 2, T)


def test_element_match_primitive_gate():
    dseq = [el(), el(PointCode(0, 0))]
    probe = el(LineSegmentCode(0, 90, 5), (9, 9, 9))
    assert not element_match(probe, dseq, 0, 1, T)


def test_element_match_index_errors():
    dseq = [el(), el()]
    with pytest.raises(IndexError):
        element_match(el(), dseq, 0, 0, T)
    with pytest.raises(IndexError):
        element_match(el(), dseq, 1, 5, T)


def test_negative_positions_raise_instead_of_wrapping():
    """A negative position would index from the end of the sequence."""
    a, b = el(LineSegmentCode(0, 0, 10)), el(arc())
    d = [a, b, a]
    with pytest.raises(IndexError):
        element_match(a, d, -2, 2, T)
    with pytest.raises(IndexError):
        subset_alignment([a], d, T, anchor=-1)
    with pytest.raises(IndexError):
        subset_alignment([a, b], d, T, anchor=-3)
    assert subset_alignment([a], d, T, anchor=3) is None


# ---------------------------------------------------------------------------
# sequences


def seq(*els):
    return tuple(els)


def test_sequence_equiv_basics():
    s = seq(el(dirs=(0, 9, 9)), el())
    assert sequence_equiv(s, s, T)
    assert not sequence_equiv(s, s[:1], T)
    other = seq(el(dirs=(1, 9, 9)), el())
    assert not sequence_equiv(s, other, T)


def test_sequence_subset_identity_and_length():
    s = seq(el(dirs=(0, 9, 9)), el())
    assert sequence_subset(s, s, T)
    assert not sequence_subset(seq(el(), el(), el(), el()), seq(el(), el()), T)


@pytest.mark.parametrize("anchor", (None, 0))
def test_subset_alignment_probe_longer_than_target(anchor):
    s = seq(el(), el())
    assert subset_alignment(seq(el(), el(), el()), s, T, anchor=anchor) is None


def test_sequence_subset_oracle_agreement(rng):
    for _ in range(400):
        c = random_sequence(rng, 4)
        d = random_sequence(rng, 5)
        assert sequence_subset(c, d, T) == alignment_oracle(c, d, T)


def test_element_subset_directions_match_the_reference():
    """Every pair of direction triples over 0-7 and 9, on primitives that
    relate, so the directions alone decide."""
    line = LineSegmentCode(0, 90, 10)
    elements = [
        CodedElement(line, d) for d in itertools.product((0, 1, 2, 3, 4, 5, 6, 7, 9), repeat=3)
    ]
    hits = 0
    for ci in elements:
        got = [element_subset(ci, cj, T) for cj in elements]
        assert got == [reference_element_subset(ci, cj, T) for cj in elements]
        hits += sum(got)
    assert hits == 17**3  # per slot: a 9 takes all 9 targets, a direction 1


def _near(rng, v, tol, period=None):
    """`v`, or `v` off by about its tolerance `tol` (within 1e-9 of it, or
    anywhere in 3 tolerances), shifted by a whole `period` at random."""
    r = rng.random()
    if r < 0.2:
        return v
    if r < 0.8:
        off = rng.choice((-1, 1)) * (tol + rng.choice((-1e-9, 0.0, 1e-9)))
    else:
        off = rng.uniform(-3 * tol, 3 * tol)
    if period is not None:
        off += period * rng.randint(-2, 2)
    return v + off


def _near_probe(rng, target, t):
    """A probe for `target` whose compared values lie near their tolerances;
    one probe in four is a random primitive, most often of another kind."""
    code = target.code
    if rng.random() < 0.25:
        probe = random_primitive(rng)
    elif isinstance(code, LineSegmentCode):
        probe = LineSegmentCode(
            rng.uniform(0, 30), _near(rng, code.alpha, t.dalpha, 180.0), _near(rng, code.l, t.dl)
        )
    elif isinstance(code, EllipseArcCode):
        probe = replace(
            code,
            a=_near(rng, code.a, t.da),
            b=_near(rng, code.b, t.db),
            phi=_near(rng, code.phi, t.dphi, 180.0),
            beta=_near(rng, code.beta, t.dbeta, 360.0),
            gamma=_near(rng, code.gamma, t.dgamma, 360.0),
        )
    else:
        probe = PointCode(rng.uniform(0, 50), rng.uniform(0, 50))
    return CodedElement(probe, random_dirs(rng))


def test_element_subset_matches_the_reference_near_tolerances(rng):
    """Random elements of all three kinds, cross-kind pairs included, and
    probes whose lengths and angles lie within 1e-9 of each tolerance."""
    outcomes = set()
    for _ in range(20000):
        target = random_element(rng)
        probe = _near_probe(rng, target, T)
        for ci in (probe, replace(probe, dirs=target.dirs)):
            got = element_subset(ci, target, T)
            assert got == reference_element_subset(ci, target, T), (ci, target)
            outcomes.add((type(ci.code), type(target.code), got))
    kinds = (LineSegmentCode, EllipseArcCode, PointCode)
    assert {(k, k, True) for k in kinds} | {(k, k, False) for k in kinds[:2]} <= outcomes
    assert (LineSegmentCode, EllipseArcCode, False) in outcomes


def _alphabet_sequence(rng, alphabet, lo, hi):
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def test_subset_alignment_matches_the_reference(rng):
    """Anchored and unanchored searches return the reference's alignments;
    a small alphabet makes most searches go deep and many of them hit."""
    lines = [LineSegmentCode(0, a, l) for a in (0, 45, 90) for l in (5, 10)]
    alphabet = [
        CodedElement(code, dirs)
        for code in lines + [PointCode(0, 0), arc()]
        for dirs in ((0, 9, 9), (2, 0, 9), (9, 9, 9), (0, 2, 9))
    ]
    hits = 0
    for _ in range(1500):
        c = _alphabet_sequence(rng, alphabet, 0, 4)
        d = _alphabet_sequence(rng, alphabet, 0, 8)
        want = reference_subset_alignment(c, d, T)
        assert subset_alignment(c, d, T) == want
        hits += want is not None
        for anchor in range(len(d) + 2):
            assert subset_alignment(c, d, T, anchor=anchor) == reference_subset_alignment(
                c, d, T, anchor=anchor
            )
        for f in (subset_alignment, reference_subset_alignment):
            with pytest.raises(IndexError):
                f(c, d, T, anchor=-1)
    assert 300 < hits < 1400


def test_subset_alignment_long_code():
    """Codes longer than the recursion limit still align."""
    s = seq(*[el() for _ in range(1300)])
    assert subset_alignment(s, s, T) == list(range(1300))


def test_relations_reflexive(rng):
    for _ in range(300):
        p = random_primitive(rng)
        assert primitive_equiv(p, p, T)
        assert primitive_subset(p, p, T)
        e = random_element(rng)
        assert element_equiv(e, e, T)
        s = random_sequence(rng)
        assert sequence_equiv(s, s, T)
        assert sequence_subset(s, s, T)


def test_equiv_symmetric(rng):
    for _ in range(500):
        i, j = random_primitive(rng), random_primitive(rng)
        assert primitive_equiv(i, j, T) == primitive_equiv(j, i, T)


def test_equiv_implies_some_subset(rng):
    hits = 0
    for _ in range(3000):
        i, j = random_primitive(rng), random_primitive(rng)
        if primitive_equiv(i, j, T):
            hits += 1
            assert primitive_subset(i, j, T) or primitive_subset(j, i, T)
    assert hits > 0  # the property must actually be exercised


def test_tolerance_monotone(rng):
    bigger = MatchTolerances(
        dl=T.dl * 3,
        dalpha=T.dalpha * 3,
        da=T.da * 3,
        db=T.db * 3,
        dphi=T.dphi * 3,
        dbeta=T.dbeta * 3,
        dgamma=T.dgamma * 3,
        dpt=T.dpt * 3,
    )
    for _ in range(2000):
        i, j = random_primitive(rng), random_primitive(rng)
        if primitive_equiv(i, j, T):
            assert primitive_equiv(i, j, bigger)
        if primitive_subset(i, j, T):
            assert primitive_subset(i, j, bigger)


# ---------------------------------------------------------------------------
# find_matches


def word_of(*seqs):
    entries = []
    for i, s in enumerate(seqs):
        dirs = (0, 9, 9) if i + 1 < len(seqs) else (9, 9, 9)
        entries.append(WordEntry(SubWordCode(tuple(s)), dirs))
    return WordCode(tuple(entries))


def test_find_matches_full_subword():
    s = seq(el(dirs=(0, 9, 9)), el())
    word = word_of(s)
    assert find_matches(word, SubWordCode(s), T) == [(0, 0)]


def test_find_matches_absent():
    word = word_of(seq(el(PointCode(0, 0)), el(PointCode(1, 1))))
    target = SubWordCode(seq(el(arc())))
    assert find_matches(word, target, T) == []


def test_find_matches_places_the_empty_code_at_every_offset():
    word = word_of(seq(el(), el(PointCode(0, 0))), seq())
    assert find_matches(word, SubWordCode(()), T) == [(0, 0), (0, 1), (0, 2), (1, 0)]


def test_find_matches_planted_positions():
    filler = el(PointCode(0, 0))
    target_el = el(LineSegmentCode(0, 45, 8), (9, 9, 9))
    s1 = seq(filler, target_el, filler)
    s2 = seq(target_el, filler)
    word = word_of(s1, s2)
    hits = find_matches(word, SubWordCode(seq(target_el)), T)
    assert (0, 1) in hits and (1, 0) in hits
    assert (0, 0) not in hits
