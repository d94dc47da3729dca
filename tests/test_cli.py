"""CLI surface: subcommands, exit codes, config parsing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glyphcode
from glyphcode import (
    BinaryRaster,
    CharacterCode,
    Codebook,
    EngineConfig,
    MatchTolerances,
    Position,
    SubWordCode,
    parse_config,
    read_netpbm,
    save_codebook,
)
from glyphcode.cli import EXIT_CODEBOOK, EXIT_CORPUS, EXIT_OK, EXIT_PARSE, main
from glyphcode.raster import write_pbm
from glyphcode.render import DEMO_GLYPHS, render_glyph


@pytest.fixture
def glyph_pbm(tmp_path):
    path = tmp_path / "vee.pbm"
    write_pbm(render_glyph("vee", 60), path)
    return path


@pytest.fixture
def tuned_config(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text(
        "delta_d = 1.0\n"
        "l_min = 22\n"
        "e_res = 0.5\n"
        "# normalized-unit tolerances\n"
        "delta_l = 0.08\n"
        "delta_alpha = 6\n"
        "delta_a = 0.04\n"
        "delta_b = 0.04\n"
        "delta_phi = 12\n"
        "delta_beta = 15\n"
        "delta_gamma = 15\n"
    )
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_defaults():
    cfg = parse_config("")
    assert cfg == EngineConfig()


def test_parse_config_values():
    cfg = parse_config("delta_d = 2.5\nthreshold = 42\ndelta_alpha = 7\n")
    assert cfg.encoder.dd == 2.5
    assert cfg.threshold == 42
    assert cfg.tolerances.dalpha == 7


def test_parse_config_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_config("delta_d = -1\n")
    with pytest.raises(ValueError):
        parse_config("no_such_key = 3\n")
    with pytest.raises(ValueError):
        parse_config("just a line\n")
    with pytest.raises(ValueError):
        parse_config("threshold = 300\n")
    with pytest.raises(ValueError):
        parse_config("delta_d = nan\n")
    with pytest.raises(ValueError):
        parse_config("delta_l = nan\n")
    with pytest.raises(ValueError):
        parse_config("e_res = inf\n")
    with pytest.raises(ValueError):
        parse_config("delta_alpha = inf\n")


# ---------------------------------------------------------------------------
# thin / segment / fit / encode


def test_thin_roundtrip(tmp_path, glyph_pbm):
    out = tmp_path / "thin.pbm"
    assert main(["thin", str(glyph_pbm), str(out)]) == EXIT_OK
    thin_img = read_netpbm(out)
    orig = read_netpbm(glyph_pbm)
    assert (thin_img.bits <= orig.bits).all()


def test_thin_missing_file(tmp_path, capsys):
    assert main(["thin", str(tmp_path / "nope.pbm"), str(tmp_path / "o")]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_thin_pgm_with_threshold(tmp_path):
    pgm = tmp_path / "img.pgm"
    pgm.write_text("P2\n5 3\n255\n" + " ".join(["0"] * 15) + "\n")
    out = tmp_path / "out.pbm"
    assert main(["thin", str(pgm), str(out), "--threshold", "128"]) == EXIT_OK


def test_segment_lists_strokes(glyph_pbm, capsys):
    assert main(["segment", str(glyph_pbm)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 1
    assert out[0]["pixels"] > 0


def test_fit_line_and_ellipse(tmp_path, capsys):
    path = tmp_path / "line.pbm"
    write_pbm(BinaryRaster.from_pixels([(x, 3) for x in range(20)], 24, 8), path)
    assert main(["fit", str(path), "--kind", "line"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["line"]["alpha"] == pytest.approx(90.0)
    assert out["line"]["l"] == pytest.approx(19.0)


def test_fit_degenerate_input(tmp_path, capsys):
    path = tmp_path / "dot.pbm"
    write_pbm(BinaryRaster.from_pixels([(1, 1)], 3, 3), path)
    assert main(["fit", str(path), "--kind", "line"]) == EXIT_PARSE


def test_encode_outputs_json(glyph_pbm, tuned_config, capsys):
    assert main(
        ["encode", str(glyph_pbm), "--config", str(tuned_config)]
    ) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert len(obj) == 1
    assert len(obj[0]["elements"]) == 2  # the two arms of the vee


def test_encode_blank(tmp_path, capsys):
    path = tmp_path / "blank.pbm"
    write_pbm(BinaryRaster(np.zeros((5, 5), dtype=bool)), path)
    assert main(["encode", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == []


def test_encode_svg_overlay(tmp_path, glyph_pbm, tuned_config):
    svg = tmp_path / "overlay.svg"
    assert main(
        [
            "encode",
            str(glyph_pbm),
            "--config",
            str(tuned_config),
            "--svg",
            str(svg),
            "-o",
            str(tmp_path / "code.json"),
        ]
    ) == EXIT_OK
    text = svg.read_text()
    assert text.startswith("<svg") and "stroke=\"blue\"" in text


def test_encode_bad_config(tmp_path, glyph_pbm):
    bad = tmp_path / "bad.cfg"
    bad.write_text("delta_d = nope\n")
    assert main(["encode", str(glyph_pbm), "--config", str(bad)]) == EXIT_PARSE


# ---------------------------------------------------------------------------
# build-codebook / recognize / identify-font


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    for name in DEMO_GLYPHS:
        d = root / "isolated" / name
        d.mkdir(parents=True)
        for size in (50, 75, 100):
            write_pbm(render_glyph(name, size), d / f"{size}.pbm")
    return root


def test_build_codebook_and_recognize(
    corpus_dir, tmp_path, tuned_config, capsys
):
    book = tmp_path / "book.json"
    rc = main(
        [
            "build-codebook",
            str(corpus_dir),
            "-o",
            str(book),
            "--config",
            str(tuned_config),
            "--font",
            "demo",
        ]
    )
    assert rc == EXIT_OK
    assert "entries=12" in capsys.readouterr().out

    probe = tmp_path / "zig.pbm"
    write_pbm(render_glyph("zig", 60), probe)
    rc = main(
        [
            "recognize",
            str(probe),
            str(book),
            "--size",
            "60",
            "--config",
            str(tuned_config),
        ]
    )
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    glyph, position, si, off = lines[0].split("\t")
    assert (glyph, position) == ("zig", "isolated")

    rc = main(
        [
            "identify-font",
            str(probe),
            str(book),
            "--size",
            "60",
            "--config",
            str(tuned_config),
        ]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "demo"


def test_build_codebook_missing_corpus(tmp_path):
    rc = main(
        ["build-codebook", str(tmp_path / "nope"), "-o", str(tmp_path / "b")]
    )
    assert rc == EXIT_CORPUS


def test_build_codebook_empty_corpus(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["build-codebook", str(empty), "-o", str(tmp_path / "b.json")])
    assert rc == EXIT_CORPUS


def test_build_codebook_malformed_raster_exits_3(tmp_path, capsys):
    spec = tmp_path / "corpus" / "isolated" / "vee"
    spec.mkdir(parents=True)
    (spec / "50.pbm").write_text("P1\n3 3\n0 1 x\n")
    rc = main(
        ["build-codebook", str(tmp_path / "corpus"), "-o", str(tmp_path / "b.json")]
    )
    assert rc == EXIT_CORPUS
    assert "50.pbm" in capsys.readouterr().err


def test_recognize_corrupt_codebook(tmp_path, glyph_pbm):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["recognize", str(glyph_pbm), str(bad)]) == EXIT_CODEBOOK


def test_recognize_overflowing_skipped_exits_4(tmp_path, glyph_pbm, capsys):
    book = tmp_path / "book.json"
    save_codebook(Codebook("x", MatchTolerances()), book)
    book.write_text(book.read_text().replace('"skipped": 0', '"skipped": 1e400'))
    assert main(["recognize", str(glyph_pbm), str(book)]) == EXIT_CODEBOOK
    assert "skipped" in capsys.readouterr().err


def test_recognize_unmatched_is_ok(tmp_path, corpus_dir, tuned_config, capsys):
    book = tmp_path / "book.json"
    main(
        [
            "build-codebook",
            str(corpus_dir),
            "-o",
            str(book),
            "--config",
            str(tuned_config),
        ]
    )
    capsys.readouterr()
    blank = tmp_path / "blank.pbm"
    write_pbm(BinaryRaster(np.zeros((8, 8), dtype=bool)), blank)
    assert main(["recognize", str(blank), str(book)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == ""


def test_cli_deterministic(glyph_pbm, tuned_config, capsys):
    main(["encode", str(glyph_pbm), "--config", str(tuned_config)])
    first = capsys.readouterr().out
    main(["encode", str(glyph_pbm), "--config", str(tuned_config)])
    assert capsys.readouterr().out == first


def test_recognize_empty_code_book_exits_4(tmp_path, glyph_pbm):
    """A book entry with an empty code once made recognize loop forever."""
    book = tmp_path / "empty_code.json"
    entry = CharacterCode("vee", Position.ISOLATED, SubWordCode(()))
    save_codebook(
        Codebook("x", MatchTolerances(), {("vee", "isolated"): entry}), book
    )
    src = str(Path(glyphcode.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "glyphcode.cli", "recognize", str(glyph_pbm), str(book)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_CODEBOOK, proc.stderr
    assert "error:" in proc.stderr


def test_nonpositive_size_exits_2(tmp_path, glyph_pbm, capsys):
    book = tmp_path / "book.json"
    save_codebook(Codebook("x", MatchTolerances()), book)
    for size in ("0", "-60"):
        for command in ("recognize", "identify-font"):
            rc = main([command, str(glyph_pbm), str(book), "--size", size])
            assert rc == EXIT_PARSE, (command, size)
            assert "--size" in capsys.readouterr().err
