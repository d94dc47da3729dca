"""Golden-output gate: encodings, recognition results and codebooks.

The files under ``tests/golden/`` record what the pipeline produces for a
fixed input set.  A change that keeps behaviour passes this gate:
structure, glyph names, positions, placements and Freeman directions must
match exactly, and floats within 1e-6 relative.  A deliberate behaviour
change rewrites the files with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md what changed and why.  The script rewrites only
the files whose new content fails `assert_same` against the file on
disk (or that do not exist yet), and names each file it keeps, so
last-digit float noise never touches a file that still passes.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from glyphcode import (
    EncoderConfig,
    MatchTolerances,
    build_codebook,
    encode_word,
    recognize,
    scale_word,
)
from glyphcode.encoder import subword_to_obj, word_to_json
from glyphcode.raster import BinaryRaster, write_pbm
from glyphcode.render import DEMO_GLYPHS, render_glyph, render_word_image

GOLDEN = Path(__file__).parent / "golden"

# criterion 7's encoder settings and tolerances
CFG = EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
TOL = MatchTolerances(
    dl=0.08, dalpha=6, da=0.04, db=0.04, dphi=12, dbeta=15, dgamma=15, dpt=0.05
)
GLYPH_SIZES = (50, 60)
BOOK_SIZES = (50, 75, 100)
PROBE_SIZE = 60
# thick ink: the WORDS at 120 px, dilated by 1-3 px so thinning has work
THICK_SIZE = 120
THICK_MARGIN = 6

# The first twelve words criterion 7 draws (random.Random(7)), plus two
# that bring in `seven` and `jay`.
WORDS = (
    ("slash", "zig", "uu"),
    ("hline", "oval"),
    ("vee", "cee"),
    ("oval", "bslash"),
    ("hline", "zig"),
    ("hline", "bslash", "hline"),
    ("vline", "cee", "hline"),
    ("uu", "uu"),
    ("cee", "cee"),
    ("vline", "bslash", "vline"),
    ("ell", "zig"),
    ("oval", "hline"),
    ("seven", "jay"),
    ("jay", "vee", "seven"),
)

# Two-glyph spec directories, three per (glyph, position), so that
# build_codebook also isolates one code across several specs.  At these
# sizes (bslash, end) shares no code across its specs and is flagged.
MULTISPEC_SIZES = (50, 100)
MULTISPEC_DIRS = (
    "end/ell-bslash",
    "end/seven-bslash",
    "end/uu-bslash",
    "end/ell-zig",
    "end/oval-zig",
    "end/hline-zig",
    "end/vee-jay",
    "end/seven-jay",
    "end/vline-jay",
    "beginning/vee-oval",
    "beginning/vee-zig",
    "beginning/vee-cee",
)


def glyph_encodings():
    return {
        f"{name}@{size}": json.loads(word_to_json(encode_word(render_glyph(name, size), CFG)))
        for name in DEMO_GLYPHS
        for size in GLYPH_SIZES
    }


def probe_word_image(index, names):
    return render_word_image(names, PROBE_SIZE)


def thick_word_image(index, names):
    """The word at THICK_SIZE, dilated by 1 + (index mod 3) px."""
    img = render_word_image(names, THICK_SIZE, margin=THICK_MARGIN)
    grown = ndimage.binary_dilation(
        img.bits, structure=np.ones((3, 3), bool), iterations=1 + index % 3
    )
    return BinaryRaster(grown)


def word_results(book, image=probe_word_image, size=PROBE_SIZE):
    """Encoding and recognition of each of WORDS, drawn by `image`."""
    out = []
    for i, names in enumerate(WORDS):
        word = encode_word(image(i, names), CFG)
        placed = recognize(scale_word(word, 1.0 / size), book, TOL)
        out.append(
            {
                "glyphs": list(names),
                "code": json.loads(word_to_json(word)),
                "recognized": [[g, p, list(at)] for g, p, at in placed],
            }
        )
    return out


def book_contents(book):
    return {
        "entries": {
            f"{g}/{p}": subword_to_obj(cc.code) for (g, p), cc in book.entries.items()
        },
        "flagged": [list(f) for f in book.flagged],
    }


def demo_book(root: Path):
    for name in DEMO_GLYPHS:
        d = root / "isolated" / name
        d.mkdir(parents=True)
        for size in BOOK_SIZES:
            write_pbm(render_glyph(name, size), d / f"{size}.pbm")
    return build_codebook(root, None, BOOK_SIZES, CFG, TOL, font="demo")


def multispec_book(root: Path):
    for spec in MULTISPEC_DIRS:
        d = root / spec
        d.mkdir(parents=True)
        names = d.name.split("-")
        for size in MULTISPEC_SIZES:
            write_pbm(render_word_image(names, size), d / f"{size}.pbm")
    return build_codebook(root, None, MULTISPEC_SIZES, CFG, TOL, font="multispec")


def _normal(obj):
    """The object as it reads back from a JSON file."""
    return json.loads(json.dumps(obj))


def assert_same(got, want, where="$"):
    """Exact match of structure and non-floats; floats within 1e-6 relative."""
    if isinstance(want, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-12), (
            f"{where}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _golden(name):
    return json.loads((GOLDEN / name).read_text())


@pytest.fixture(scope="module")
def book(tmp_path_factory):
    return demo_book(tmp_path_factory.mktemp("golden_demo"))


def test_golden_glyph_encodings():
    assert_same(_normal(glyph_encodings()), _golden("glyphs.json"))


def test_golden_words_and_recognition(book):
    assert_same(_normal(word_results(book)), _golden("words.json"))


def test_golden_thick_words_and_recognition(book):
    got = word_results(book, thick_word_image, THICK_SIZE)
    assert_same(_normal(got), _golden("thick.json"))


def test_golden_demo_book(book):
    assert_same(_normal(book_contents(book)), _golden("demo_book.json"))


def test_golden_multispec_book(tmp_path):
    got = book_contents(multispec_book(tmp_path))
    assert_same(_normal(got), _golden("multispec_book.json"))


def test_assert_same_tolerates_rounding_only():
    assert_same({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 1e-9)]})
    for bad in ({"a": [1, 2.1]}, {"a": [2, 2.0]}, {"a": [1]}, {"b": [1, 2.0]}):
        with pytest.raises(AssertionError):
            assert_same(bad, {"a": [1, 2.0]})


def write_golden():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        book = demo_book(Path(tmp) / "demo")
        multi = multispec_book(Path(tmp) / "multispec")
    files = {
        "glyphs.json": glyph_encodings(),
        "words.json": word_results(book),
        "thick.json": word_results(book, thick_word_image, THICK_SIZE),
        "demo_book.json": book_contents(book),
        "multispec_book.json": book_contents(multi),
    }
    for name, obj in files.items():
        path = GOLDEN / name
        if path.exists():
            try:
                assert_same(_normal(obj), _golden(name))
            except AssertionError:
                pass
            else:
                print(f"kept {path}: it still passes", file=sys.stderr)
                continue
        path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
