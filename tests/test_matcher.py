"""Matcher relations: primitive/element/sequence equivalence and subset."""

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
from glyphcode.matcher import primitive_equiv, primitive_subset, subset_alignment
from conftest import alignment_oracle, random_element, random_primitive, random_sequence

T = MatchTolerances()


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


def test_sequence_subset_oracle_agreement(rng):
    for _ in range(400):
        c = random_sequence(rng, 4)
        d = random_sequence(rng, 5)
        assert sequence_subset(c, d, T) == alignment_oracle(c, d, T)


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


def test_find_matches_planted_positions():
    filler = el(PointCode(0, 0))
    target_el = el(LineSegmentCode(0, 45, 8), (9, 9, 9))
    s1 = seq(filler, target_el, filler)
    s2 = seq(target_el, filler)
    word = word_of(s1, s2)
    hits = find_matches(word, SubWordCode(seq(target_el)), T)
    assert (0, 1) in hits and (1, 0) in hits
    assert (0, 0) not in hits
