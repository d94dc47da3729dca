"""Each script in demos/ runs to completion, and so does README's example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import glyphcode
from glyphcode import EngineConfig, parse_config
from glyphcode.raster import write_pbm
from glyphcode.render import DEMO_GLYPHS, render_glyph, render_word_image

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    """Run Python with this checkout's glyphcode importable."""
    src = str(Path(glyphcode.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_reads_its_word(tmp_path):
    """README's first Python block, run on the files it names, so docs
    that drift from the API fail here."""
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    write_pbm(render_word_image(("zig", "oval", "vee"), 60), tmp_path / "word.pbm")
    for name in DEMO_GLYPHS:
        d = tmp_path / "corpus" / "isolated" / name
        d.mkdir(parents=True)
        for size in (50, 75, 100):
            write_pbm(render_glyph(name, size), d / f"{size}.pbm")
    proc = run_python(["-c", example], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["zig", "oval", "vee"]


def test_readme_lists_the_cli_defaults():
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert parse_config(listed) == EngineConfig()
