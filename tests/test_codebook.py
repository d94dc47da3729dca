"""Codebook: enumeration, common-code extraction, build, fingerprints,
recognition, persistence."""

import itertools
import json
import os
import threading
from dataclasses import replace

import pytest

from glyphcode import (
    CodedElement,
    Codebook,
    CodebookFormatError,
    ConnectivityTable,
    EllipseArcCode,
    EmptyCommonError,
    EncoderConfig,
    LineSegmentCode,
    MatchTolerances,
    PointCode,
    Position,
    SubWordCode,
    WordCode,
    WordEntry,
    arabic_connectivity,
    build_codebook,
    build_fingerprints,
    encode_word,
    enumerate_subwords,
    extract_common_code,
    find_matches,
    identify_font,
    load_codebook,
    recognize,
    save_codebook,
    scale_word,
)
from glyphcode.codebook import CharacterCode, SubWordSpec
from glyphcode.encoder import scale_subword
from glyphcode.matcher import element_subset
from glyphcode.raster import write_pbm
from glyphcode.render import DEMO_GLYPHS, render_glyph

from conftest import PIXEL_TOLERANCES, random_element, reference_recognize

CFG = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
TOL = MatchTolerances(
    dl=0.08, dalpha=6, da=0.04, db=0.04, dphi=12, dbeta=15, dgamma=15, dpt=0.05
)


# ---------------------------------------------------------------------------
# connectivity fixture and enumeration


def test_arabic_fixture_counts():
    table = arabic_connectivity()
    assert len(table.entries) == 36
    assert len(table.right_connective) == 36
    assert len(table.left_connective) == 25


def test_enumeration_counts_match_reference_table():
    table = arabic_connectivity()
    assert len(enumerate_subwords(table, Position.BEGINNING)) == 936
    assert len(enumerate_subwords(table, Position.MIDDLE)) == 900
    assert len(enumerate_subwords(table, Position.END)) == 925
    assert len(enumerate_subwords(table, Position.ISOLATED)) == 36


def test_enumeration_toy_table_brute_force():
    toy = ConnectivityTable(
        (("K", True, True), ("A", True, True), ("B", True, False)),
        connector="K",
    )
    r, l = set(toy.right_connective), set(toy.left_connective)
    begin = enumerate_subwords(toy, Position.BEGINNING)
    # scaffold schema: (g, K) for g in R, plus (a, b, K) for a in L, b in R
    expect = {(g, "K") for g in r} | {
        (a, b, "K") for a, b in itertools.product(l, r)
    }
    assert {s.glyphs for s in begin} == expect
    end = enumerate_subwords(toy, Position.END)
    expect_end = {("K", g) for g in l} | {
        (a, "K", b) for a, b in itertools.product(l, r)
    }
    assert {s.glyphs for s in end} == expect_end


def test_enumeration_empty_table():
    for position in Position:
        assert enumerate_subwords(ConnectivityTable(()), position) == []


def test_subword_spec_target_index():
    assert SubWordSpec(("A", "K"), Position.BEGINNING).target == "A"
    assert SubWordSpec(("K", "A", "B"), Position.MIDDLE).target == "A"
    assert SubWordSpec(("K", "A"), Position.END).target == "A"
    assert SubWordSpec(("A",), Position.ISOLATED).target == "A"
    assert SubWordSpec(("A", "B"), Position.END).name == "A-B"


# ---------------------------------------------------------------------------
# extract_common_code


def _el(code, dirs=(9, 9, 9)):
    return CodedElement(code, tuple(dirs))


def _seq(*codes):
    els = []
    for i, c in enumerate(codes):
        dirs = (0, 9, 9) if i + 1 < len(codes) else (9, 9, 9)
        els.append(_el(c, dirs))
    return SubWordCode(tuple(els))


def test_common_code_of_one_input_is_that_input_normalized():
    code = _seq(LineSegmentCode(5, 90, 40), EllipseArcCode(3, 4, 6, 2, 10, 0, 90), PointCode(1, 2))
    assert extract_common_code([code], [50], TOL) == scale_subword(code, 1 / 50)


def test_common_code_identical_inputs():
    code = _seq(LineSegmentCode(5, 90, 40))
    out = extract_common_code([code, code], [1, 1], TOL)
    assert len(out.elements) == 1
    assert out.elements[0].code.l == pytest.approx(40)


def test_common_code_pure_scaling():
    small = _seq(LineSegmentCode(5, 90, 40), LineSegmentCode(2, 0, 30))
    big = scale_subword(small, 2.0)
    out = extract_common_code([small, big], [50, 100], TOL)
    assert len(out.elements) == 2
    assert out.elements[0].code.l == pytest.approx(40 / 50)


def test_common_code_planted_core():
    core = [
        LineSegmentCode(0, 90, 40),
        EllipseArcCode(0, 0, 20, 10, 30, 10, 120),
        LineSegmentCode(0, 0, 35),
    ]
    a = _seq(*core, PointCode(1, 1))
    b = _seq(*core)
    c = _seq(*core, PointCode(9, 9))
    # the criterion-7 tolerances for codes at 20 units per glyph size
    tol = MatchTolerances(
        dl=1.6, dalpha=6, da=0.8, db=0.8, dphi=12, dbeta=15, dgamma=15, dpt=1.0
    )
    out = extract_common_code([a, b, c], [1, 1, 1], tol)
    kinds = [type(e.code) for e in out.elements]
    assert kinds == [LineSegmentCode, EllipseArcCode, LineSegmentCode]


def test_common_code_empty_error():
    a = _seq(PointCode(0, 0))
    b = _seq(LineSegmentCode(0, 0, 5))
    with pytest.raises(EmptyCommonError):
        extract_common_code([a, b], [1, 1], TOL)


def test_common_code_is_subset_of_inputs():
    from glyphcode.matcher import sequence_subset

    codes = [
        SubWordCode(
            tuple(
                encode_word(render_glyph("vee", s), CFG)
                .subwords[0]
                .code.elements
            )
        )
        for s in (50, 75, 100)
    ]
    out = extract_common_code(codes, [50, 75, 100], TOL)
    for code, s in zip(codes, (50, 75, 100)):
        assert sequence_subset(
            out.elements, scale_subword(code, 1.0 / s).elements, TOL
        )


# ---------------------------------------------------------------------------
# build_codebook on the synthetic corpus


@pytest.fixture(scope="module")
def demo_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for name in DEMO_GLYPHS:
        d = root / "isolated" / name
        d.mkdir(parents=True)
        for size in (50, 75, 100):
            write_pbm(render_glyph(name, size), d / f"{size}.pbm")
    return root


def demo_table():
    return ConnectivityTable(
        tuple((n, False, False) for n in DEMO_GLYPHS), connector="NONE"
    )


@pytest.fixture(scope="module")
def demo_book(demo_corpus):
    return build_codebook(
        demo_corpus, demo_table(), [50, 75, 100], CFG, TOL, font="demo"
    )


def test_build_codebook_covers_all_glyphs(demo_book):
    assert len(demo_book.entries) == len(DEMO_GLYPHS)
    assert demo_book.flagged == []
    assert demo_book.skipped == 0


def test_build_codebook_empty_corpus(tmp_path):
    book = build_codebook(tmp_path, demo_table(), [50], CFG, TOL, font="x")
    assert book.entries == {}


def test_build_codebook_single_size(demo_corpus):
    book = build_codebook(
        demo_corpus, demo_table(), [75], CFG, TOL, font="single"
    )
    assert len(book.entries) == len(DEMO_GLYPHS)


def test_build_codebook_counts_missing(demo_corpus):
    book = build_codebook(
        demo_corpus, demo_table(), [50, 75, 100, 99], CFG, TOL, font="demo"
    )
    assert book.skipped == len(DEMO_GLYPHS)  # no 99.pbm anywhere


def test_entry_codes_subset_of_a_corpus_encoding(demo_book, demo_corpus):
    from glyphcode.matcher import sequence_subset
    from glyphcode.raster import load_image

    for (glyph, pos), cc in demo_book.entries.items():
        ok = False
        for size in (50, 75, 100):
            path = os.path.join(demo_corpus, pos, glyph, f"{size}.pbm")
            word = scale_word(encode_word(load_image(path), CFG), 1.0 / size)
            elems = tuple(
                e for entry in word.subwords for e in entry.code.elements
            )
            from glyphcode.matcher import subset_alignment

            if subset_alignment(cc.code.elements, elems, TOL) is not None:
                ok = True
                break
        assert ok, (glyph, pos)


# ---------------------------------------------------------------------------
# fingerprints and font identification


def test_single_font_fingerprint_is_everything(demo_book):
    build_fingerprints([demo_book])
    assert len(demo_book.fingerprint) == len(demo_book.entries)


def test_identical_fonts_empty_fingerprints(demo_corpus):
    a = build_codebook(demo_corpus, demo_table(), [50, 75, 100], CFG, TOL, font="a")
    b = build_codebook(demo_corpus, demo_table(), [50, 75, 100], CFG, TOL, font="b")
    build_fingerprints([a, b])
    assert a.fingerprint == [] and b.fingerprint == []


def test_differing_glyph_yields_fingerprint(demo_corpus):
    a = build_codebook(demo_corpus, demo_table(), [50, 75, 100], CFG, TOL, font="a")
    b = build_codebook(demo_corpus, demo_table(), [50, 75, 100], CFG, TOL, font="b")
    # replace one of b's entries with a distinctive synthetic code
    alt = CharacterCode(
        "vline",
        Position.ISOLATED,
        _seq(EllipseArcCode(0, 0, 0.9, 0.6, 45, 5, 200)),
    )
    b.entries[("vline", "isolated")] = alt
    build_fingerprints([a, b])
    a_names = [code for code in a.fingerprint]
    assert len(a.fingerprint) == 1
    assert len(b.fingerprint) == 1

    # a word showing font a's unique vline points at font a
    word = scale_word(encode_word(render_glyph("vline", 60), CFG), 1.0 / 60)
    assert identify_font(word, [a, b]) == "a"


def test_identify_font_empty_and_tie(demo_book):
    from glyphcode import WordCode

    build_fingerprints([demo_book])
    assert identify_font(WordCode(()), [demo_book]) is None
    word = scale_word(encode_word(render_glyph("vline", 60), CFG), 1.0 / 60)
    assert identify_font(word, []) is None


def _line_book(font, alpha, dalpha):
    code = _seq(LineSegmentCode(0, alpha, 0.5))
    entry = CharacterCode("line", Position.ISOLATED, code)
    return Codebook(font, replace(TOL, dalpha=dalpha), {("line", "isolated"): entry})


def test_identify_font_matches_each_book_under_its_own_tolerances():
    """The word's line at alpha 50 is within B's dalpha of B's line at 60
    and outside A's; under A's tolerances neither book hits the word."""
    from glyphcode import WordCode
    from glyphcode.encoder import WordEntry

    a, b = build_fingerprints([_line_book("A", 0, 6), _line_book("B", 60, 15)])
    word = WordCode((WordEntry(_seq(LineSegmentCode(0, 50, 0.5)), (9, 9, 9)),))
    assert identify_font(word, [a, b]) == "B"
    assert identify_font(word, [a, replace(b, tolerances=a.tolerances)]) is None


# ---------------------------------------------------------------------------
# recognition


def test_recognize_single_glyphs(demo_book):
    for name in DEMO_GLYPHS:
        word = scale_word(encode_word(render_glyph(name, 60), CFG), 1.0 / 60)
        got = [g for g, _, _ in recognize(word, demo_book, TOL)]
        assert got == [name], name


def test_recognize_word_in_order(demo_book):
    from glyphcode.render import render_word_image

    img = render_word_image(["vee", "oval", "zig"], 60)
    word = scale_word(encode_word(img, CFG), 1.0 / 60)
    got = [g for g, _, _ in recognize(word, demo_book, TOL)]
    assert got == ["vee", "oval", "zig"]


def test_recognize_no_match(demo_book):
    from glyphcode import WordCode

    assert recognize(WordCode(()), demo_book, TOL) == []


def _random_recognize_cases(rng):
    """300 random words, each with a book of subsequences of its own sub-words."""
    keys = [(g, p) for g in "ab" for p in Position]
    for _ in range(300):
        subwords = [
            tuple(random_element(rng) for _ in range(rng.randint(1, 7)))
            for _ in range(rng.randint(1, 3))
        ]
        word = WordCode(tuple(WordEntry(SubWordCode(s), (9, 9, 9)) for s in subwords))
        book = Codebook("random", PIXEL_TOLERANCES)
        for glyph, position in rng.sample(keys, rng.randint(1, 6)):
            s = rng.choice(subwords)
            picked = sorted(rng.sample(range(len(s)), rng.randint(1, len(s))))
            code = SubWordCode(tuple(s[i] for i in picked))
            book.entries[(glyph, position.value)] = CharacterCode(glyph, position, code)
        yield word, book


def test_recognize_matches_the_plain_greedy_cover(rng):
    """Random words against books of subsequences of their own sub-words:
    `recognize` places what the reference reads from its docstring, on
    cases where some anchors' earliest alignments hit covered elements."""
    skipped = 0
    for word, book in _random_recognize_cases(rng):
        expected, passed = reference_recognize(word, book, PIXEL_TOLERANCES)
        assert recognize(word, book, PIXEL_TOLERANCES) == expected
        skipped += passed
    assert skipped > 0


def test_recognize_searches_only_windows_its_first_element_fits(rng, monkeypatch):
    """`recognize` screens each window on the code's first element before
    the alignment search: every `subset_alignment` call it makes has an
    anchored first element that passes `element_subset`, and the placements
    stay those of the plain greedy cover."""
    import glyphcode.codebook as codebook

    search = codebook.subset_alignment
    anchored = []

    def traced(cseq, dseq, t, anchor=None):
        anchored.append(element_subset(cseq[0], dseq[anchor], t))
        return search(cseq, dseq, t, anchor=anchor)

    monkeypatch.setattr(codebook, "subset_alignment", traced)
    for word, book in _random_recognize_cases(rng):
        expected, _ = reference_recognize(word, book, PIXEL_TOLERANCES)
        assert recognize(word, book, PIXEL_TOLERANCES) == expected
    assert anchored and all(anchored)


def test_codebook_calls_the_names_the_benchmark_traces(monkeypatch, tmp_path):
    """bench/tracing.py times these by wrapping the codebook's attributes.
    `recognize`, `find_matches` and `identify_font` must each reach the
    wrapped `subset_alignment`, or traced runs would count no alignments."""
    import glyphcode.codebook as codebook

    names = ("load_image", "encode_word", "extract_common_code", "subset_alignment")
    counts = dict.fromkeys(names, 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(codebook, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(codebook, name, counted)
    spec = tmp_path / "isolated" / "vee"
    spec.mkdir(parents=True)
    for size in (50, 75):
        write_pbm(render_glyph("vee", size), spec / f"{size}.pbm")
    book = build_codebook(tmp_path, demo_table(), [50, 75], CFG, TOL, font="demo")
    assert counts["load_image"] and counts["encode_word"], counts
    assert counts["extract_common_code"], counts
    counts["subset_alignment"] = 0
    word = scale_word(encode_word(render_glyph("vee", 60), CFG), 1.0 / 60)
    assert [g for g, _, _ in recognize(word, book, TOL)] == ["vee"]
    assert counts["subset_alignment"], counts
    code = book.entries[("vee", "isolated")].code
    counts["subset_alignment"] = 0
    assert find_matches(word, code, TOL)
    assert counts["subset_alignment"], counts
    counts["subset_alignment"] = 0
    assert identify_font(word, build_fingerprints([book])) == "demo"
    assert counts["subset_alignment"], counts


# ---------------------------------------------------------------------------
# persistence


def test_roundtrip(demo_book, tmp_path):
    build_fingerprints([demo_book])
    path = tmp_path / "book.json"
    save_codebook(demo_book, path)
    back = load_codebook(path)
    assert back.font == demo_book.font
    assert back.tolerances == demo_book.tolerances
    assert set(back.entries) == set(demo_book.entries)
    for key, cc in demo_book.entries.items():
        got = back.entries[key]
        assert got.position == cc.position
        assert len(got.code.elements) == len(cc.code.elements)
        for e1, e2 in zip(cc.code.elements, got.code.elements):
            assert e1.dirs == e2.dirs
            assert isinstance(e2.code, type(e1.code))
    assert len(back.fingerprint) == len(demo_book.fingerprint)
    assert back.skipped == demo_book.skipped


def test_load_missing(tmp_path):
    with pytest.raises(CodebookFormatError):
        load_codebook(tmp_path / "nope.json")


def test_load_truncated(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"schema_version": 1, "font": "x"')
    with pytest.raises(CodebookFormatError):
        load_codebook(path)


def test_load_wrong_version(tmp_path):
    path = tmp_path / "v9.json"
    path.write_text('{"schema_version": 9}')
    with pytest.raises(CodebookFormatError):
        load_codebook(path)


def _saved_book(tmp_path, tolerances=TOL, entry=None, fingerprint=()):
    """A one-entry codebook file, with the entry's code replaceable."""
    code = _seq(LineSegmentCode(0.1, 90, 0.8)) if entry is None else entry
    book = Codebook(
        "tiny",
        tolerances,
        {("vline", "isolated"): CharacterCode("vline", Position.ISOLATED, code)},
        list(fingerprint),
    )
    path = tmp_path / "tiny.json"
    save_codebook(book, path)
    return path


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "code",
    [
        SubWordCode(()),
        _seq(EllipseArcCode(NAN, 0.5, 0.3, 0.1, 0, 0, 90)),
        _seq(EllipseArcCode(0.5, 0.5, 0.0, 0.0, 0, 0, 90)),
        _seq(EllipseArcCode(0.5, 0.5, 0.3, -0.1, 0, 0, 90)),
        _seq(EllipseArcCode(0.5, 0.5, 0.1, 0.3, 0, 0, 90)),
        _seq(LineSegmentCode(0.1, 90, 0.8), EllipseArcCode(0.5, 0.5, 0.3, 0.1, 0, 0, INF)),
        _seq(LineSegmentCode(0.1, 90, 0.0)),
        _seq(LineSegmentCode(0.1, 90, -0.8)),
        _seq(LineSegmentCode(INF, 90, 0.8)),
        _seq(PointCode(0.5, NAN)),
        _seq(LineSegmentCode(True, 90, 0.8)),
        _seq(LineSegmentCode(0.1, 90, "0.8")),
        _seq(PointCode("1", "2")),
        _seq(EllipseArcCode(0.5, 0.5, 0.3, 0.1, 0, False, 90)),
    ],
    ids=[
        "empty", "arc-nan-x0", "arc-zero-axes", "arc-negative-b", "arc-a-below-b",
        "arc-inf-gamma", "line-zero-l", "line-negative-l", "line-inf-p", "point-nan",
        "line-bool-p", "line-string-l", "point-strings", "arc-bool-beta",
    ],
)
def test_load_rejects_bad_codes(tmp_path, code):
    """Empty codes and primitives no encoder emits, as entry or fingerprint."""
    with pytest.raises(CodebookFormatError):
        load_codebook(_saved_book(tmp_path, entry=code))
    with pytest.raises(CodebookFormatError):
        load_codebook(_saved_book(tmp_path, fingerprint=[code]))


def test_load_rejects_wrong_dirs_length(tmp_path):
    for dirs in ((1,), (1, 2, 3, 4)):
        path = _saved_book(tmp_path, entry=SubWordCode((_el(PointCode(0, 0), dirs),)))
        with pytest.raises(CodebookFormatError):
            load_codebook(path)


def test_load_rejects_dirs_out_of_range(tmp_path):
    ok = SubWordCode((_el(PointCode(0, 0), (0, 7, 9)),))
    assert load_codebook(_saved_book(tmp_path, entry=ok)).entries
    for dirs in (
        (42, -3, 7), (0, 8, 9), (-1, 9, 9), (1e400, 9, 9), (True, False, 9), ("1", 9, 9),
    ):
        path = _saved_book(tmp_path, entry=SubWordCode((_el(PointCode(0, 0), dirs),)))
        with pytest.raises(CodebookFormatError):
            load_codebook(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0, True, "6.0"])
def test_load_rejects_bad_tolerances(tmp_path, bad):
    path = _saved_book(tmp_path, tolerances=MatchTolerances(dalpha=bad))
    with pytest.raises(CodebookFormatError):
        load_codebook(path)


def test_load_checks_skipped_and_flagged(tmp_path):
    path = _saved_book(tmp_path)
    good = json.loads(path.read_text())
    good["flagged"] = [["vee", "isolated"], ["zig", "end"]]
    path.write_text(json.dumps(good))
    book = load_codebook(path)
    assert book.flagged == [("vee", "isolated"), ("zig", "end")]
    assert book.skipped == 0
    for key, bad in [
        ("skipped", "1e400"),
        ("skipped", "-1"),
        ("skipped", "1.5"),
        ("skipped", "2.0"),
        ("skipped", '"3"'),
        ("skipped", "true"),
        ("flagged", "[[1, 2], [3]]"),
        ("flagged", '[["vee"]]'),
        ("flagged", '[["vee", "isolated", "x"]]'),
        ("flagged", '"vee"'),
        ("flagged", '{"vee": "isolated"}'),
    ]:
        obj = dict(good, **{key: "@"})
        path.write_text(json.dumps(obj).replace('"@"', bad))
        with pytest.raises(CodebookFormatError):
            load_codebook(path)


def _edited_book(tmp_path, edit):
    """A saved one-entry codebook file with its JSON object changed by `edit`."""
    path = _saved_book(tmp_path)
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    return path


def test_load_rejects_a_font_that_is_not_a_string(tmp_path):
    path = _edited_book(tmp_path, lambda obj: obj.update(font=[1, 2]))
    with pytest.raises(CodebookFormatError, match="font"):
        load_codebook(path)


def test_load_rejects_a_glyph_that_is_not_a_string(tmp_path):
    path = _edited_book(tmp_path, lambda obj: obj["entries"][0].update(glyph=7))
    with pytest.raises(CodebookFormatError, match="glyph"):
        load_codebook(path)


def test_load_rejects_two_entries_for_one_glyph_and_position(tmp_path):
    def add_twin(obj):
        twin = json.loads(json.dumps(obj["entries"][0]))
        twin["code"][0]["code"][2] = 0.5  # a different length l
        obj["entries"].append(twin)

    with pytest.raises(CodebookFormatError, match="duplicate"):
        load_codebook(_edited_book(tmp_path, add_twin))


def test_recognize_skips_empty_codes(demo_book):
    """An empty code covers nothing; placing it would repeat forever."""
    book = Codebook(demo_book.font, demo_book.tolerances, dict(demo_book.entries))
    book.entries[("blank", "isolated")] = CharacterCode(
        "blank", Position.ISOLATED, SubWordCode(())
    )
    word = scale_word(encode_word(render_glyph("vee", 60), CFG), 1.0 / 60)
    result = []
    worker = threading.Thread(
        target=lambda: result.append(recognize(word, book, TOL)), daemon=True
    )
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "recognize did not return"
    assert result == [recognize(word, demo_book, TOL)]
