"""Smoke test of tools/encoding_digest.py, the byte-identity check of encodings."""

import importlib.util
from itertools import islice
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "encoding_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("encoding_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_encoding_digest_repeats_on_the_first_rasters():
    tool = _load_tool()
    first = tool.digest(islice(tool.rasters(), 5))
    assert first == tool.digest(islice(tool.rasters(), 5))
    assert first[0] == 5 * len(tool.CONFIGS)
    assert len(first[1]) == 64


def test_placement_digest_repeats_on_the_first_words(tmp_path):
    tool = _load_tool()
    books = tool.build_books(tmp_path)
    words = list(islice(tool.recognitions(), 3))
    words += list(islice((w for w in tool.recognitions() if w[0] == "book144"), 2))
    first = tool.placement_digest(words, books)
    assert first == tool.placement_digest(words, books)
    assert first[0] == 5
    assert len(first[1]) == 64
