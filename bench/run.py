"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload words60 --seed 1 --seconds 20 --trace 0

The load is one process, one thread and a closed loop: the next word
starts only when the previous one has returned.  One operation is one
word.  The last line of standard output is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `--trace 0` gives the
end-to-end metrics, `--trace 1` the per-layer ones (see README.md).
Scratch files go to `.bench_build/` in the checkout and are removed at
exit.  Without the program's sources beside it, it exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("words60", "ink120", "book144")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "glyphcode" / "__init__.py").is_file():
        print(f"error: no glyphcode sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=build) as work:
        result = harness.measure(args.workload, args.seed, args.seconds, args.trace, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
