"""Set-up, timed loop, output checks and metrics of one workload run."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import glyphcode.codebook as codebook
import glyphcode.encoder as encoder
import glyphcode.raster as raster
from glyphcode import arabic_connectivity

import checks
import workloads as W
from tracing import Tracer

SETUP_REPEATS = 3
MIN_TIMED_WORDS = 100  # so at least ten words lie beyond word_ms_p90
ACCURACY_SEED = "accuracy"  # seed of the fixed list glyph_accuracy is scored on
ACCURACY_FLOOR = {"words60": 0.90, "ink120": 0.50, "book144": 0.95}


class Run:
    """Inputs, set-up and timed operation of one workload.

    The program is always called through its module attributes
    (``codebook.recognize``, ...), so a `Tracer` can wrap the calls.
    """

    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.faults: list[str] = []
        self.book = None
        if workload == "book144":
            self.corpus = W.write_book_corpus(work)
            self.book_path = os.path.join(work, "book144.json")
            self.probes = W.book_words(seed)
            self.timed = list(range(len(self.probes)))
            self.truth = [w.truth for w in self.probes]
            self.accuracy_words = W.book_words(ACCURACY_SEED)
        else:
            self.corpus = W.write_demo_corpus(work)
            self.accuracy_words = W.demo_words(
                workload, ACCURACY_SEED, W.ACCURACY_BLOCKS[workload],
                os.path.join(work, "accuracy"),
            )
            self.timed = W.demo_words(
                workload, seed, W.TIMED_BLOCKS[workload], os.path.join(work, "timed")
            )
            self.truth = [w.truth for w in self.timed]
            self.size = W.WORDS60_SIZE if workload == "words60" else W.INK120_SIZE

    def setup(self):
        """The program's own set-up; returns a fingerprint of what it made."""
        if self.workload != "book144":
            self.book = codebook.build_codebook(
                self.corpus, W.demo_table(), list(W.DEMO_SIZES), W.CFG, W.TOL,
                font="demo",
            )
            return _entries_json(self.book)
        book = codebook.build_codebook(
            self.corpus, arabic_connectivity(), list(W.BOOK_SIZES), W.CFG, W.TOL,
            font="shapes",
        )
        codebook.save_codebook(book, self.book_path)
        self.book = codebook.load_codebook(self.book_path)
        self.encoded = [self.code(w) for w in self.probes]
        return _entries_json(self.book), [encoder.word_to_json(w) for w in self.encoded]

    def code(self, w: W.Word):
        """The scaled code of one word; demo words are read from their PBM file."""
        if self.workload == "book144":
            return encoder.scale_word(
                encoder.encode_word(w.image, W.CFG), 1.0 / W.BOOK_PROBE_SIZE
            )
        image = raster.load_image(w.path)
        return encoder.scale_word(encoder.encode_word(image, W.CFG), 1.0 / self.size)

    def read(self, w: W.Word):
        """One word through the whole program: (its code, the placements)."""
        word = self.code(w)
        return word, codebook.recognize(word, self.book, W.TOL)

    def op(self, item):
        """The timed operation; book144 times `recognize` on a code made in set-up."""
        if self.workload != "book144":
            return self.read(item)
        word = self.encoded[item]
        return word, codebook.recognize(word, self.book, W.TOL)

    def labels(self, placements) -> list[str]:
        if self.workload == "book144":
            return [f"{g}/{p}" for g, p, _ in placements]
        return [g for g, _, _ in placements]

    def check(self, word, placements, where: str) -> None:
        codes = {key: cc.code for key, cc in self.book.entries.items()}
        faults = checks.element_faults(word)
        faults += checks.placement_faults(word, placements, codes, W.TOL)
        self.faults.extend(f"{where}: {f}" for f in faults)

    def check_rounds(self, outputs, name: str) -> None:
        """Check the first round in full and later rounds against it."""
        n = len(self.timed)
        for i, out in enumerate(outputs):
            first = outputs[i % n]
            if isinstance(out, Exception):
                self.faults.append(f"{name} word {i % n}: {type(out).__name__}: {out}")
            elif i < n:
                self.check(*out, f"{name} word {i}")
            elif not isinstance(first, Exception) and out[1] != first[1]:
                self.faults.append(f"{name} word {i % n}: placements changed between rounds")


def _entries_json(book) -> str:
    return json.dumps(
        {f"{g}/{p}": encoder.subword_to_obj(cc.code) for (g, p), cc in book.entries.items()},
        sort_keys=True,
    )


def run_loop(run: Run, seconds: float, min_words: int):
    """Whole rounds of the timed words until both limits are reached."""
    times, outputs, failed = [], [], 0
    start = time.perf_counter()
    while True:
        for item in run.timed:
            t0 = time.perf_counter()
            try:
                out = run.op(item)
            except Exception as exc:  # counted in `failed`; the loop goes on
                out = exc
                failed += 1
            times.append(time.perf_counter() - t0)
            if len(outputs) >= len(run.timed) and not isinstance(out, Exception):
                out = (None, out[1])  # later rounds keep only the placements
            outputs.append(out)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(times) >= min_words:
            return elapsed, times, outputs, failed


def _placements(out):
    return out if isinstance(out, Exception) else out[1]


def measure(workload: str, seed: int, seconds: float, trace: int, work: str) -> dict:
    run = Run(workload, seed, work)
    tracer = Tracer()

    setup_times, first = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if trace:
            with tracer.installed():
                made = run.setup()
        else:
            made = run.setup()
        setup_times.append(time.perf_counter() - t0)
        if first is None:
            first = made
        elif made != first:
            run.faults.append("set-up: the book or the probe codes changed between set-ups")
    for key, cc in run.book.entries.items():
        run.faults.extend(f"entry {key}: {f}" for f in checks.code_faults(cc.code))
    setup_spans = dict(tracer.spans)
    entries, flagged = len(run.book.entries), len(run.book.flagged)

    # glyph_accuracy over a fixed list, untimed; this pass also warms up
    pairs = []
    for i, w in enumerate(run.accuracy_words):
        word, placements = run.read(w)
        run.check(word, placements, f"accuracy word {i}")
        pairs.append((w.truth, run.labels(placements)))
    accuracy = checks.glyph_accuracy(pairs)
    if accuracy < ACCURACY_FLOOR[workload]:
        run.faults.append(
            f"glyph_accuracy {accuracy:.4f} is below the floor {ACCURACY_FLOOR[workload]}"
        )

    n = len(run.timed)
    round_glyphs = sum(len(t) for t in run.truth)
    if not trace:
        elapsed, times, outputs, failed = run_loop(run, seconds, MIN_TIMED_WORDS)
        run.check_rounds(outputs, "timed")
        attempted = len(times)
        metrics = {
            "glyphs_per_s": (round_glyphs * attempted / n / elapsed, "glyphs/s"),
            "word_ms_p50": (statistics.median(times) * 1e3, "ms"),
            "word_ms_p90": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
            "glyph_accuracy": (accuracy, "fraction"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        # half the time untraced, half traced: the difference is the overhead
        el_plain, _, plain, failed_plain = run_loop(run, seconds / 2, n)
        tracer.reset()
        with tracer.installed():
            el_traced, times, traced, failed = run_loop(run, seconds / 2, n)
        run.check_rounds(plain, "untraced")
        run.check_rounds(traced, "traced")
        for i, (a, b) in enumerate(zip(plain[:n], traced[:n])):
            if _placements(a) != _placements(b):
                run.faults.append(f"word {i}: traced placements differ from untraced")
        attempted = len(plain) + len(times)
        failed += failed_plain
        plain_rate = len(plain) / el_plain
        traced_rate = len(times) / el_traced
        metrics = layer_metrics(tracer, len(times), setup_spans, entries, flagged)
        metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / plain_rate), "%")

    for fault in run.faults[:50]:
        print(f"check failed: {fault}", file=sys.stderr)
    return {
        "correct": not run.faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(tracer: Tracer, words: int, setup_spans, entries: int, flagged: int):
    """Per-word figures from the traced loop; per-set-up ones from set-up."""

    def ms(name, own=False):
        s = tracer.spans.get(name)
        return 0.0 if s is None else (s.own if own else s.total) * 1e3 / words

    def calls(name):
        s = tracer.spans.get(name)
        return 0.0 if s is None else s.calls / words

    def per_word(name):
        return tracer.counts.get(name, 0) / words

    def per_setup(name):
        s = setup_spans.get(name)
        return 0.0 if s is None else s.total / SETUP_REPEATS

    align = tracer.spans.get("matcher.subset_alignment")
    hit_ratio = tracer.counts.get("matcher.alignment_hits", 0) / align.calls if align else 0.0
    return {
        "raster.load_image_ms": (ms("raster.load_image"), "ms"),
        "raster.thin_ms": (ms("raster.thin"), "ms"),
        "raster.segment_ms": (ms("raster.segment"), "ms"),
        "raster.skeleton_px": (per_word("raster.skeleton_px"), "count"),
        "raster.strokes": (per_word("raster.strokes"), "count"),
        "geomfit.fit_line_calls": (calls("geomfit.fit_line"), "count"),
        "geomfit.fit_line_ms": (ms("geomfit.fit_line"), "ms"),
        "geomfit.fit_ellipse_calls": (calls("geomfit.fit_ellipse"), "count"),
        "geomfit.fit_ellipse_ms": (ms("geomfit.fit_ellipse"), "ms"),
        "geomfit.sampson_residual_calls": (calls("geomfit.sampson_residual"), "count"),
        "encoder.encode_word_self_ms": (ms("encoder.encode_word", own=True), "ms"),
        "encoder.extract_lines_self_ms": (ms("encoder.extract_lines", own=True), "ms"),
        "encoder.cluster_ellipses_self_ms": (ms("encoder.cluster_ellipses", own=True), "ms"),
        "encoder.lines": (per_word("encoder.lines"), "count"),
        "encoder.arcs": (per_word("encoder.arcs"), "count"),
        "encoder.points": (per_word("encoder.points"), "count"),
        "matcher.subset_alignment_calls": (calls("matcher.subset_alignment"), "count"),
        "matcher.subset_alignment_ms": (ms("matcher.subset_alignment"), "ms"),
        "matcher.alignment_hit_ratio": (hit_ratio, "fraction"),
        "codebook.recognize_self_ms": (ms("codebook.recognize", own=True), "ms"),
        "codebook.placements": (per_word("codebook.placements"), "count"),
        "codebook.build_s": (per_setup("codebook.build_codebook"), "s"),
        "codebook.extract_common_code_ms": (per_setup("codebook.extract_common_code") * 1e3, "ms"),
        "codebook.load_codebook_ms": (per_setup("codebook.load_codebook") * 1e3, "ms"),
        "codebook.entries": (entries, "count"),
        "codebook.flagged": (flagged, "count"),
    }
