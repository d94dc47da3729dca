"""CLI surface: subcommands, exit codes, config parsing."""

import json
import os
import re
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
    EncoderConfig,
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
from glyphcode.render import DEMO_GLYPHS, render_glyph, render_word_image


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


def test_defaults_are_the_criterion_7_settings():
    assert EncoderConfig() == EncoderConfig(dd=1.0, l_min=22.0, e_res=0.5)
    assert MatchTolerances() == MatchTolerances(
        dl=0.08, dalpha=6, da=0.04, db=0.04, dphi=12, dbeta=15, dgamma=15, dpt=0.05
    )
    assert EngineConfig() == EngineConfig(EncoderConfig(), MatchTolerances(), 128)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# c\nl_min = abc", "line 2: l_min must be a number, got 'abc'"),
        ("dot_max = 2.5", "line 1: dot_max must be an integer, got '2.5'"),
        ("threshold = x", "line 1: threshold must be an integer, got 'x'"),
        ("\n\ndelta_l =", "line 3: delta_l must be a number, got ''"),
    ],
)
def test_parse_config_conversion_errors_name_line_and_key(
    text, message, tmp_path, glyph_pbm, capsys
):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_config(text)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["segment", str(glyph_pbm), "--config", str(path)]) == EXIT_PARSE
    assert message in capsys.readouterr().err


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


def test_fit_ellipse_reports_the_geometry_and_the_coefficients(tmp_path, capsys):
    path = tmp_path / "oval.pbm"
    write_pbm(render_glyph("oval", 100), path)
    assert main(["fit", str(path), "--kind", "ellipse"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["ellipse"]
    ell = out["ellipse"]
    assert ell["x0"] == pytest.approx(52, abs=0.5)
    assert ell["y0"] == pytest.approx(52, abs=0.5)
    assert ell["a"] == pytest.approx(36, abs=0.5)
    assert ell["b"] == pytest.approx(27, abs=0.5)
    assert ell["phi"] == 0
    coef = ell["coefficients"]
    assert len(coef) == 6 and all(map(np.isfinite, coef))
    a, b, c = coef[:3]
    assert 4 * a * c - b * b == pytest.approx(1)


def test_fit_degenerate_input(tmp_path, capsys):
    path = tmp_path / "dot.pbm"
    write_pbm(BinaryRaster.from_pixels([(1, 1)], 3, 3), path)
    assert main(["fit", str(path), "--kind", "line"]) == EXIT_PARSE


@pytest.mark.parametrize("kind, need", [("line", 2), ("ellipse", 5), ("both", 2)])
def test_fit_blank_raster_reports_too_few_pixels(tmp_path, capsys, kind, need):
    path = tmp_path / "blank.pbm"
    path.write_text("P1\n3 2\n0 0 0\n0 0 0\n")
    assert main(["fit", str(path), "--kind", kind]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: need at least {need} distinct pixels\n"


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
    # an arc and a dot draw a red path and a green circle
    path = tmp_path / "more.pbm"
    for image, want in (
        (render_glyph("oval", 60), (1, 0)),
        (BinaryRaster.from_pixels([(3, 3), (4, 3)], 8, 8), (0, 1)),
    ):
        write_pbm(image, path)
        args = ["encode", str(path), "--config", str(tuned_config), "--svg", str(svg)]
        assert main(args + ["-o", str(tmp_path / "code.json")]) == EXIT_OK
        text = svg.read_text()
        arcs = re.findall(r'<path d="M [^"]+" fill="none" stroke="red"', text)
        dots = re.findall(r'<circle [^>]*stroke="green"', text)
        assert (len(arcs), len(dots)) == want


def test_unwritable_output_exits_2(tmp_path, glyph_pbm, capsys):
    """Each file the CLI writes, aimed into a missing directory."""
    corpus = tmp_path / "corpus" / "isolated" / "vee"
    corpus.mkdir(parents=True)
    write_pbm(render_glyph("vee", 50), corpus / "50.pbm")
    missing = tmp_path / "no" / "dir"
    for argv in (
        ["thin", str(glyph_pbm), str(missing / "skeleton.pbm")],
        ["encode", str(glyph_pbm), "-o", str(missing / "code.json")],
        ["encode", str(glyph_pbm), "--svg", str(missing / "encode.svg")],
        ["fit", str(glyph_pbm), "--kind", "line", "--svg", str(missing / "fit.svg")],
        ["build-codebook", str(tmp_path / "corpus"), "--sizes", "50",
         "-o", str(missing / "book.json")],
    ):
        assert main(argv) == EXIT_PARSE, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and os.path.basename(argv[-1]) in err, err
        assert "Traceback" not in err


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


def test_build_codebook_and_recognize_read_a_word_with_the_defaults(
    corpus_dir, tmp_path, capsys
):
    """Without --config both calls run the default settings, which read
    README's example word; `l_min` 4 px once coded `oval` as a polygon
    whose side matched `hline`."""
    book = tmp_path / "book.json"
    assert main(["build-codebook", str(corpus_dir), "-o", str(book)]) == EXIT_OK
    capsys.readouterr()
    probe = tmp_path / "word.pbm"
    write_pbm(render_word_image(("zig", "oval", "vee"), 60), probe)
    assert main(["recognize", str(probe), str(book), "--size", "60"]) == EXIT_OK
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["zig", "isolated", "0", "0"],
        ["oval", "isolated", "1", "0"],
        ["vee", "isolated", "2", "0"],
    ]


def test_build_codebook_saves_no_fingerprint(corpus_dir, tmp_path, capsys):
    """A fingerprint needs the other fonts, which `identify-font` loads."""
    book = tmp_path / "book.json"
    assert main(["build-codebook", str(corpus_dir), "-o", str(book)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("entries=12 ") and "fingerprint=" not in out
    assert json.loads(book.read_text())["fingerprint"] == []


@pytest.mark.parametrize("saved_fingerprint", ["empty", "every_entry"])
def test_identify_font_compares_the_fonts_unique_codes(tmp_path, capsys, saved_fingerprint):
    """Font B draws its `vbar` with the strokes of `vline`, which both
    fonts hold, so only A's `oval` tells the fonts apart. Counting every
    entry of each book once read this word as a tie, `unknown`. Books
    saved with every entry as their fingerprint read the same."""
    books = []
    for font, glyphs in (("A", {"vline": "vline", "oval": "oval"}),
                         ("B", {"vline": "vline", "vbar": "vline"})):
        for name, drawn in glyphs.items():
            spec = tmp_path / font / "isolated" / name
            spec.mkdir(parents=True)
            for size in (50, 75, 100):
                write_pbm(render_glyph(drawn, size), spec / f"{size}.pbm")
        books.append(str(tmp_path / f"{font}.json"))
        assert main(["build-codebook", str(tmp_path / font), "-o", books[-1]]) == EXIT_OK
        if saved_fingerprint == "every_entry":
            obj = json.loads(Path(books[-1]).read_text())
            obj["fingerprint"] = [e["code"] for e in obj["entries"]]
            Path(books[-1]).write_text(json.dumps(obj))
    word = tmp_path / "word.pbm"
    write_pbm(render_word_image(("vline", "oval"), 60), word)
    capsys.readouterr()
    assert main(["identify-font", str(word), *books, "--size", "60"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "A"


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


def test_build_codebook_unreadable_raster_exits_3(tmp_path, capsys):
    """A corpus raster that exists but cannot be read, here a directory."""
    (tmp_path / "corpus" / "isolated" / "vee" / "50.pbm").mkdir(parents=True)
    rc = main(
        ["build-codebook", str(tmp_path / "corpus"), "-o", str(tmp_path / "b.json")]
    )
    assert rc == EXIT_CORPUS
    assert "50.pbm" in capsys.readouterr().err


def test_recognize_corrupt_codebook(tmp_path, glyph_pbm):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["recognize", str(glyph_pbm), str(bad), "--size", "60"]) == EXIT_CODEBOOK


@pytest.mark.parametrize("command", ["recognize", "identify-font"])
@pytest.mark.parametrize(
    "content",
    [b'{"font": "\xff"}', b'{"tolerances": ' + b"[" * 5000 + b"]" * 5000 + b"}"],
    ids=["not-utf-8", "nested-5000-deep"],
)
def test_unreadable_codebook_exits_4(tmp_path, glyph_pbm, command, content):
    """Bad UTF-8 once exited 2, and deep nesting crashed with a RecursionError."""
    book = tmp_path / "book.json"
    book.write_bytes(content)
    proc = _run_cli(command, str(glyph_pbm), str(book), "--size", "60")
    assert proc.returncode == EXIT_CODEBOOK, proc.stderr
    assert "cannot read codebook" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_recognize_codebook_with_a_bool_in_a_code_exits_4(tmp_path, glyph_pbm):
    """`true` once loaded as the number 1.0, and as Freeman direction 1."""
    book = tmp_path / "book.json"
    entry = CharacterCode("vee", Position.ISOLATED, SubWordCode(()))
    save_codebook(Codebook("x", MatchTolerances(), {("vee", "isolated"): entry}), book)
    obj = json.loads(book.read_text())
    obj["entries"][0]["code"] = [{"code": [True, 90.0, 0.5], "dirs": [True, False, 9]}]
    book.write_text(json.dumps(obj))
    proc = _run_cli("recognize", str(glyph_pbm), str(book), "--size", "60")
    assert proc.returncode == EXIT_CODEBOOK, proc.stderr
    assert "malformed codebook" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_recognize_overflowing_skipped_exits_4(tmp_path, glyph_pbm, capsys):
    book = tmp_path / "book.json"
    save_codebook(Codebook("x", MatchTolerances()), book)
    book.write_text(book.read_text().replace('"skipped": 0', '"skipped": 1e400'))
    assert main(["recognize", str(glyph_pbm), str(book), "--size", "60"]) == EXIT_CODEBOOK
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
    assert main(["recognize", str(blank), str(book), "--size", "60"]) == EXIT_OK
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
    proc = _run_cli("recognize", str(glyph_pbm), str(book), "--size", "60")
    assert proc.returncode == EXIT_CODEBOOK, proc.stderr
    assert "error:" in proc.stderr


def _run_cli(*argv, prelude=""):
    """`python -m glyphcode.cli argv` in a fresh interpreter, run after `prelude`."""
    src = str(Path(glyphcode.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = "runpy.run_module('glyphcode.cli', run_name='__main__', alter_sys=True)"
    script = f"import runpy, sys\n{prelude}\n{run}"
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def test_encode_and_recognize_run_without_scipy(tmp_path, tuned_config, capsys):
    """numpy is the only runtime dependency: with scipy blocked, a fresh
    process encodes and recognizes a word as this one does."""
    names = ("zig", "oval", "vee")
    for name in names:
        spec = tmp_path / "corpus" / "isolated" / name
        spec.mkdir(parents=True)
        for size in (50, 100):
            write_pbm(render_glyph(name, size), spec / f"{size}.pbm")
    book, word = tmp_path / "book.json", tmp_path / "word.pbm"
    config = ["--config", str(tuned_config)]
    assert main(["build-codebook", str(tmp_path / "corpus"), "-o", str(book)] + config) == EXIT_OK
    write_pbm(render_word_image(names, 60), word)
    capsys.readouterr()
    for argv in (["encode", str(word)], ["recognize", str(word), str(book), "--size", "60"]):
        assert main(argv + config) == EXIT_OK
        expected = capsys.readouterr().out
        proc = _run_cli(*argv, *config, prelude='sys.modules["scipy"] = None')
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == expected
    assert [line.split("\t")[0] for line in expected.splitlines()] == list(names)


def test_nonpositive_size_exits_2(tmp_path, glyph_pbm, capsys):
    book = tmp_path / "book.json"
    save_codebook(Codebook("x", MatchTolerances()), book)
    for size in ("0", "-60"):
        for command in ("recognize", "identify-font"):
            rc = main([command, str(glyph_pbm), str(book), "--size", size])
            assert rc == EXIT_PARSE, (command, size)
            assert "--size" in capsys.readouterr().err


def test_recognize_and_identify_font_require_size(tmp_path, glyph_pbm, capsys):
    """Every codebook holds codes scaled by 1/size, so an unscaled probe
    would be compared in the wrong unit."""
    book = tmp_path / "book.json"
    save_codebook(Codebook("x", MatchTolerances()), book)
    for command in ("recognize", "identify-font"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(glyph_pbm), str(book)])
        assert exc.value.code == EXIT_PARSE, command
        assert "--size" in capsys.readouterr().err


def test_thin_p2_sample_above_255_exits_2(tmp_path, capsys):
    pgm = tmp_path / "big.pgm"
    pgm.write_text("P2\n1 1\n255\n300\n")
    assert main(["thin", str(pgm), str(tmp_path / "out.pbm")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("sizes", ["--sizes=0,50", "--sizes=-50,50", "--sizes=", "--sizes=,"])
def test_build_codebook_nonpositive_size_exits_2(tmp_path, capsys, sizes):
    """A size of 0 once divided by zero, a negative one counted as skipped,
    and an empty list blamed the corpus with exit 3."""
    spec = tmp_path / "corpus" / "isolated" / "vee"
    spec.mkdir(parents=True)
    for size in ("0", "50"):
        write_pbm(render_glyph("vee", 50), spec / f"{size}.pbm")
    rc = main(["build-codebook", str(tmp_path / "corpus"), "-o", str(tmp_path / "b.json"), sizes])
    assert rc == EXIT_PARSE
    assert "--sizes" in capsys.readouterr().err


def test_build_codebook_binarizes_pgm_at_the_threshold(tmp_path, tuned_config, capsys):
    """A PGM corpus with ink at 150 is blank at the default threshold 128."""
    spec = tmp_path / "corpus" / "isolated" / "vee"
    spec.mkdir(parents=True)
    for size in (50, 75):
        bits = render_glyph("vee", size).bits
        h, w = bits.shape
        samples = np.where(bits, 150, 255).astype(np.uint8)
        (spec / f"{size}.pbm").write_bytes(f"P5\n{w} {h}\n255\n".encode() + samples.tobytes())
    config_200 = tmp_path / "threshold.cfg"
    config_200.write_text(tuned_config.read_text() + "threshold = 200\n")
    base = ["build-codebook", str(tmp_path / "corpus"), "-o", str(tmp_path / "b.json")]
    for extra, summary in (
        (["--config", str(tuned_config), "--threshold", "200"], "entries=1 "),
        (["--config", str(config_200)], "entries=1 "),
        (["--config", str(tuned_config)], "flagged=1 "),
    ):
        assert main(base + extra) == EXIT_OK
        assert summary in capsys.readouterr().out, extra


@pytest.mark.parametrize("threshold", ["999", "-1"])
def test_out_of_range_threshold_exits_2_on_a_pbm(tmp_path, capsys, threshold):
    """--threshold obeys the config file's rule even where nothing is binarized."""
    pbm = tmp_path / "corpus" / "isolated" / "vee" / "50.pbm"
    pbm.parent.mkdir(parents=True)
    pbm.write_text("P1\n3 3\n0 1 0\n0 1 0\n0 1 0\n")
    for argv in (
        ["thin", str(pbm), str(tmp_path / "out.pbm")],
        ["build-codebook", str(tmp_path / "corpus"), "-o", str(tmp_path / "b.json")],
    ):
        assert main(argv + [f"--threshold={threshold}"]) == EXIT_PARSE, argv
        assert capsys.readouterr().err == "error: --threshold must be in [0, 255]\n"
    assert not (tmp_path / "out.pbm").exists() and not (tmp_path / "b.json").exists()


def test_every_subcommand_takes_its_input_config_and_threshold():
    parser = glyphcode.cli.build_parser()
    (subcommands,) = [a for a in parser._actions if a.dest == "command"]
    assert len(subcommands.choices) == 7
    for name, sub in subcommands.choices.items():
        positionals = [a.dest for a in sub._actions if not a.option_strings]
        assert positionals[0] == ("corpus" if name == "build-codebook" else "input")
        assert {"config", "threshold"} <= {a.dest for a in sub._actions}
        func = getattr(glyphcode.cli, "cmd_" + name.replace("-", "_"))
        assert sub.get_default("func") is func
