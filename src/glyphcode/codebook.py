"""Sub-word enumeration, codebook construction, and recognition.

A codebook maps (glyph, position) to a canonical code extracted from
renderings at several sizes, plus a fingerprint of codes unique to the
font.  The corpus is a directory of pre-rendered rasters laid out as
``<corpus>/<position>/<glyph-seq>/<size>.pbm`` where glyph-seq joins the
spec's glyph ids with '-'.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import os
from dataclasses import dataclass, field, replace

from .config import TOLERANCE_KEYS
from .encoder import (
    CodedElement,
    EllipseArcCode,
    EncoderConfig,
    LineSegmentCode,
    PointCode,
    SubWordCode,
    WordCode,
    _number_from_obj,
    encode_word,
    scale_subword,
    subword_from_obj,
    subword_to_obj,
)
from .matcher import MatchTolerances, element_subset, sequence_equiv, subset_alignment
from .raster import RasterFormatError, load_image

__all__ = [
    "Position",
    "ConnectivityTable",
    "SubWordSpec",
    "CharacterCode",
    "Codebook",
    "CodebookFormatError",
    "EmptyCommonError",
    "arabic_connectivity",
    "enumerate_subwords",
    "extract_common_code",
    "build_codebook",
    "build_fingerprints",
    "find_matches",
    "identify_font",
    "recognize",
    "save_codebook",
    "load_codebook",
]

SCHEMA_VERSION = 1


class CodebookFormatError(ValueError):
    """Unreadable or wrong-version codebook file."""


class EmptyCommonError(ValueError):
    """No nonempty common subsequence across the input codes."""


class Position(enum.Enum):
    ISOLATED = "isolated"
    BEGINNING = "beginning"
    MIDDLE = "middle"
    END = "end"


@dataclass(frozen=True)
class ConnectivityTable:
    """Per-glyph junction flags plus the designated neutral connector.

    `entries` holds (glyph id, connects-right, connects-left); "right"
    means the glyph joins the preceding character (script flows right to
    left), "left" that it joins the following one.  The connector is the
    elongation glyph used to scaffold generated sub-words.
    """

    entries: tuple[tuple[str, bool, bool], ...]
    connector: str = "KASHEEDA"

    @property
    def glyphs(self) -> list[str]:
        return [g for g, _, _ in self.entries]

    @property
    def right_connective(self) -> list[str]:
        return [g for g, r, _ in self.entries if r]

    @property
    def left_connective(self) -> list[str]:
        return [g for g, _, l in self.entries if l]


# Arabic alphabet plus the elongation stroke, in table order.  Every glyph
# joins the preceding character, and all but _JOINS_PRECEDING_ONLY also join
# the following one: 36 right- and 25 left-connective glyphs.
_ARABIC = """
    KASHEEDA ALIF_HAMZA_ABOVE ALIF_HAMZA_BELOW ALIF BAA TAA THAA JEEM HAA KHAA DAL
    THAL RAA ZAY SEEN SHEEN SAAD DAAD TAH ZAH AIN GHAIN FAA QAF KAF LAM MEEM NOON
    HA WAW WAW_HAMZA ALIF_MAQSURA YAA YAA_HAMZA HAMZA TAA_MARBUTA
""".split()
_JOINS_PRECEDING_ONLY = {
    "ALIF_HAMZA_ABOVE", "ALIF_HAMZA_BELOW", "ALIF", "DAL", "THAL", "RAA", "ZAY",
    "WAW", "WAW_HAMZA", "HAMZA", "TAA_MARBUTA",
}


def arabic_connectivity() -> ConnectivityTable:
    """The shipped Arabic connectivity fixture (36 glyphs incl. KASHEEDA)."""
    return ConnectivityTable(
        tuple((g, True, g not in _JOINS_PRECEDING_ONLY) for g in _ARABIC)
    )


@dataclass(frozen=True)
class SubWordSpec:
    """A generated glyph sequence rendered to collect character forms."""

    glyphs: tuple[str, ...]
    position: Position

    @property
    def target_index(self) -> int:
        """Slot of the glyph whose positional form this spec exercises."""
        if self.position in (Position.ISOLATED, Position.BEGINNING):
            return 0
        if self.position == Position.MIDDLE:
            return 1 if len(self.glyphs) > 1 else 0
        return len(self.glyphs) - 1

    @property
    def target(self) -> str:
        return self.glyphs[self.target_index]

    @property
    def name(self) -> str:
        return "-".join(self.glyphs)


def enumerate_subwords(table: ConnectivityTable, position: Position):
    """Generate the sub-word specs rendered for one positional form.

    Sequences are scaffolded around the connector glyph: the variable
    slots range over the right-connective set R when they close a
    sequence and the left-connective set L when another glyph follows,
    which reproduces the |R|, |L|, and |L|x|R| counts of the reference
    connectivity table.
    """
    k = table.connector
    r = table.right_connective
    l = table.left_connective
    if position == Position.ISOLATED:
        seqs = [(g,) for g in table.glyphs]
    elif position == Position.BEGINNING:
        seqs = [(g, k) for g in r] + [(a, b, k) for a in l for b in r]
    elif position == Position.MIDDLE:
        seqs = [(k, a, b) for a in l for b in r]
    else:  # END
        seqs = [(k, g) for g in l] + [(a, k, b) for a in l for b in r]
    return [SubWordSpec(seq, position) for seq in seqs]


@dataclass(frozen=True)
class CharacterCode:
    glyph: str
    position: Position
    code: SubWordCode


@dataclass
class Codebook:
    font: str
    tolerances: MatchTolerances
    entries: dict[tuple[str, str], CharacterCode] = field(default_factory=dict)
    fingerprint: list[SubWordCode] = field(default_factory=list)
    flagged: list[tuple[str, str]] = field(default_factory=list)
    skipped: int = 0


def _flatten(word: WordCode) -> SubWordCode:
    """Concatenate a word's sub-word elements into one sequence."""
    return SubWordCode(tuple(el for e in word.subwords for el in e.code.elements))


# the length-like fields averaged over a common window's counterparts
_AVERAGED = {LineSegmentCode: ("l",), EllipseArcCode: ("a", "b"), PointCode: ()}


def _longest_common_window(codes, t: MatchTolerances):
    """Longest window of the shortest code that subsets every other code.

    Returns (window, matched): `matched` holds, per other code, the
    elements its alignment paired with the window's elements.  None when
    no nonempty window is common.
    """
    base = min(codes, key=len)
    others = [c for c in codes if c is not base]
    n = len(base.elements)
    for length in range(n, 0, -1):
        for start in range(0, n - length + 1):
            window = base.elements[start : start + length]
            matched = []
            for code in others:
                align = subset_alignment(window, code.elements, t)
                if align is None:
                    break
                matched.append([code.elements[r] for r in align])
            else:
                return window, matched
    return None


def extract_common_code(codes, sizes, t: MatchTolerances) -> SubWordCode:
    """Common code across renderings of one spec at several sizes.

    Each code is scale-normalized by its render size, then the longest
    contiguous window of the shortest input that is a sequence subset of
    every input wins; its lengths and axes are averaged over the matched
    counterparts.
    """
    if not codes or len(codes) != len(sizes):
        raise ValueError("need one code per render size")
    normed = [scale_subword(c, 1.0 / s) for c, s in zip(codes, sizes)]
    found = _longest_common_window(normed, t)
    if found is None:
        raise EmptyCommonError("no common subsequence across the inputs")
    window, matched = found
    out = []
    for i, el in enumerate(window):
        peers = [el.code] + [m[i].code for m in matched]
        means = {
            f: sum(getattr(p, f) for p in peers) / len(peers)
            for f in _AVERAGED[type(el.code)]
        }
        out.append(CodedElement(replace(el.code, **means), el.dirs, el.anchor))
    return SubWordCode(tuple(out))


def build_codebook(
    corpus_dir,
    table: ConnectivityTable,
    sizes,
    cfg: EncoderConfig,
    t: MatchTolerances,
    font: str | None = None,
    threshold: int = 128,
) -> Codebook:
    """Encode a rendered corpus and isolate per-(glyph, position) codes.

    Missing rasters are skipped (counted), and a malformed or unreadable
    one raises RasterFormatError naming its file; PGM rasters are
    binarized at `threshold`.  Glyphs whose containing specs
    share no common code are flagged instead of entered.  `table` is
    accepted and unused: the specs come from the corpus directory names.
    """
    font = font or os.path.basename(os.path.normpath(str(corpus_dir)))
    book = Codebook(font=font, tolerances=t)
    by_target: dict[tuple[str, str], list[SubWordCode]] = {}
    for position in Position:
        pos_dir = os.path.join(str(corpus_dir), position.value)
        if not os.path.isdir(pos_dir):
            continue
        for name in sorted(os.listdir(pos_dir)):
            spec_dir = os.path.join(pos_dir, name)
            if not os.path.isdir(spec_dir):
                continue
            spec = SubWordSpec(tuple(name.split("-")), position)
            codes, used_sizes = [], []
            for size in sizes:
                path = os.path.join(spec_dir, f"{size}.pbm")
                if not os.path.exists(path):
                    book.skipped += 1
                    continue
                try:
                    image = load_image(path, threshold)
                except (RasterFormatError, OSError) as exc:
                    raise RasterFormatError(f"{path}: {exc}") from exc
                word = encode_word(image, cfg)
                codes.append(_flatten(word))
                used_sizes.append(size)
            if not codes:
                continue
            try:
                common = extract_common_code(codes, used_sizes, t)
            except EmptyCommonError:
                book.flagged.append((spec.target, position.value))
                continue
            by_target.setdefault((spec.target, position.value), []).append(common)
    # isolate one code per (glyph, position) across the containing specs
    for (glyph, pos), codes in sorted(by_target.items()):
        found = _longest_common_window(codes, t)
        if found is None:
            book.flagged.append((glyph, pos))
            continue
        book.entries[(glyph, pos)] = CharacterCode(
            glyph, Position(pos), SubWordCode(tuple(found[0]))
        )
    return book


def build_fingerprints(books):
    """Set each font's fingerprint to its codes unique among the books,
    compared under each book's own tolerances."""
    books = list(books)
    if not books:
        raise ValueError("need at least one codebook")
    for book in books:
        unique = []
        for cc in book.entries.values():
            clash = any(
                sequence_equiv(cc.code.elements, other_cc.code.elements, book.tolerances)
                for other in books
                if other is not book
                for other_cc in other.entries.values()
            )
            if not clash:
                unique.append(cc.code)
        book.fingerprint = unique
    return books


def _open_subwords(word: WordCode, covered=None, n: int = 0):
    """(index, elements, covered offsets) of each sub-word of `word` with
    at least `n` elements outside `covered[index]`; by default nothing is
    covered and every sub-word is kept."""
    out = []
    for si, entry in enumerate(word.subwords):
        elems = entry.code.elements
        done = covered[si] if covered else ()
        if len(elems) - len(done) >= n:
            out.append((si, elems, done))
    return out


def _windows(code: SubWordCode, subwords, t: MatchTolerances):
    """Yield (sub-word index, offset, alignment) for each window where
    `code` aligns anchored at the offset, in ascending order.

    `subwords` holds (index, elements, covered offsets) triples, as
    `_open_subwords` makes them.  Each uncovered offset up to the last
    one the code fits from is screened on its anchored first element:
    only where the code's first element is an element subset of the
    sub-word's element at the offset does `subset_alignment` search, so
    most windows are rejected without a call.  The empty code has nothing
    to screen and aligns at every offset.
    """
    telems = code.elements
    n = len(telems)
    first = telems[0] if n else None
    for si, delems, done in subwords:
        for j in range(len(delems) - n + 1):
            if j not in done and (first is None or element_subset(first, delems[j], t)):
                align = subset_alignment(telems, delems, t, anchor=j)
                if align is not None:
                    yield si, j, align


def find_matches(word: WordCode, target: SubWordCode, t: MatchTolerances):
    """All (sub-word index, anchor offset) where `target` occurs in `word`.

    An occurrence is a subset alignment of the target's elements into a
    sub-word's element sequence, anchored at the offset.
    """
    return [(si, j) for si, j, _ in _windows(target, _open_subwords(word), t)]


def identify_font(word: WordCode, books) -> str | None:
    """Font whose fingerprint hits the word most, each book's fingerprint
    matched under its own tolerances; None on ties or no hits."""
    subwords = _open_subwords(word)
    scores = []
    for book in books:
        hits = sum(
            1 for code in book.fingerprint for _ in _windows(code, subwords, book.tolerances)
        )
        scores.append((hits, book.font))
    best = max((h for h, _ in scores), default=0)
    if best == 0:
        return None
    winners = [f for h, f in scores if h == best]
    if len(winners) != 1:
        return None
    return winners[0]


def recognize(word: WordCode, book: Codebook, t: MatchTolerances):
    """Greedy cover of the word by codebook entries, longest code first.

    Repeatedly takes the entry with the longest code that still matches
    an uncovered window (earlier windows preferred) and emits the matches
    in window order as (glyph, position, (sub-word index, offset)).
    Entries with an empty code are skipped: they would cover nothing.

    Covering only removes hits, so once no entry of one code length
    matches, none of them matches later: the lengths are walked once,
    longest first.
    """
    covered: dict[int, set[int]] = {i: set() for i in range(len(word.subwords))}
    ordered = sorted(
        (cc for cc in book.entries.values() if cc.code.elements),
        key=lambda cc: (-len(cc.code.elements), cc.glyph, cc.position.value),
    )
    results = []
    for n, group in itertools.groupby(ordered, key=lambda cc: len(cc.code.elements)):
        group = list(group)
        while True:
            hits = []
            subwords = _open_subwords(word, covered, n)
            for cc in group:
                for si, j, align in _windows(cc.code, subwords, t):
                    if covered[si].isdisjoint(align):
                        hits.append((si, j, align, cc))
                        break
            if not hits:
                break
            si, j, aligned, cc = min(hits, key=lambda h: h[:2])
            covered[si].update(aligned)
            results.append((cc.glyph, cc.position.value, (si, j)))
    results.sort(key=lambda r: r[2])
    return results


# ---------------------------------------------------------------------------
# persistence

def _tol_to_obj(t: MatchTolerances):
    return {key: getattr(t, attr) for key, attr in TOLERANCE_KEYS.items()}


def _tol_from_obj(obj) -> MatchTolerances:
    vals = {attr: _number_from_obj(obj[key]) for key, attr in TOLERANCE_KEYS.items()}
    if not all(0 < v < math.inf for v in vals.values()):
        raise ValueError(f"tolerances must be finite and positive: {obj}")
    return MatchTolerances(**vals)


def _code_from_obj(obj) -> SubWordCode:
    code = subword_from_obj(obj)
    if not code.elements:
        raise ValueError("empty code")
    return code


def _flagged_from_obj(obj) -> list[tuple[str, str]]:
    if not isinstance(obj, list) or not all(
        isinstance(f, list) and len(f) == 2 and all(isinstance(v, str) for v in f)
        for f in obj
    ):
        raise ValueError(f"flagged must be a list of [glyph, position] strings: {obj!r}")
    return [tuple(f) for f in obj]


def save_codebook(book: Codebook, path) -> None:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "font": book.font,
        "tolerances": _tol_to_obj(book.tolerances),
        "entries": [
            {
                "glyph": cc.glyph,
                "position": cc.position.value,
                "code": subword_to_obj(cc.code),
            }
            for cc in book.entries.values()
        ],
        "fingerprint": [subword_to_obj(code) for code in book.fingerprint],
        "flagged": [list(f) for f in book.flagged],
        "skipped": book.skipped,
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


def load_codebook(path) -> Codebook:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise CodebookFormatError(f"cannot read codebook: {exc}") from exc
    try:
        if obj["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {obj['schema_version']!r}")
        if not isinstance(obj["font"], str):
            raise ValueError(f"font must be a string: {obj['font']!r}")
        book = Codebook(
            font=obj["font"], tolerances=_tol_from_obj(obj["tolerances"])
        )
        for e in obj["entries"]:
            if not isinstance(e["glyph"], str):
                raise ValueError(f"glyph must be a string: {e['glyph']!r}")
            cc = CharacterCode(
                e["glyph"], Position(e["position"]), _code_from_obj(e["code"])
            )
            key = (cc.glyph, cc.position.value)
            if key in book.entries:
                raise ValueError(f"duplicate entry for {key}")
            book.entries[key] = cc
        book.fingerprint = [_code_from_obj(c) for c in obj["fingerprint"]]
        book.flagged = _flagged_from_obj(obj.get("flagged", []))
        book.skipped = obj.get("skipped", 0)
        if type(book.skipped) is not int or book.skipped < 0:
            raise ValueError(f"skipped must be an integer >= 0: {book.skipped!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CodebookFormatError(f"malformed codebook: {exc}") from exc
    return book
