"""One workload run in one process: the CLI path in-process, timed, checked.

``run.py`` starts this script after generating the inputs, with the
repository's ``src`` on ``PYTHONPATH`` and BLAS pinned to one thread, and
reads the ``result.json`` it writes.  A run repeats the workload's CLI path
("passes") until ``--seconds`` is used up and reports medians over passes.
With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones; the per-module metrics come from the traced
passes and ``trace.overhead_s`` from the difference of the two.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
from spans import Tracer
from workloads import WORKLOADS, Workload, commands

END_TO_END = {
    "total_s": "s", "setup_s": "s", "fit_s": "s", "query_s": "s",
    "fuse_s": "s", "peak_rss_mb": "MB",
    "map.tfidf": "MAP", "map.lsi": "MAP", "map.fused": "MAP",
}
PHASES = ("setup", "fit", "query", "fuse")


@dataclass
class Pass:
    total_s: float
    phase_s: dict
    quality: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def _call_cli(argv) -> int:
    """``ldikit.cli.main`` with its printing captured; a crash returns -1."""
    from ldikit.cli import main

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return main(argv)
    except Exception:
        print(f"ldikit {' '.join(argv[:2])} raised:\n{traceback.format_exc()}",
              file=sys.stderr)
        return -1


class Bench:
    def __init__(self, workload: Workload, inputs: dict, work: Path):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.qrels = checks.read_qrels(inputs["qrels"])
        self.random_map = checks.random_map(self.qrels, workload.shape.n_docs)
        self.first_quality = None

    def run_pass(self, tracer: Tracer | None = None, run: int = 0) -> Pass:
        """One pass of the CLI path, then its output checks; ``run`` tags spans."""
        if tracer is not None:
            tracer.run = run
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        gc.collect()
        phase_s = dict.fromkeys(PHASES, 0.0)
        outcomes = []
        start = time.perf_counter()
        for cmd in commands(self.workload, self.inputs, self.work):
            t0 = time.perf_counter()
            if tracer is None:
                rc = _call_cli(cmd.argv)
            else:
                with tracer.span(f"cli.{cmd.label}"):
                    rc = _call_cli(cmd.argv)
            phase_s[cmd.phase] += time.perf_counter() - t0
            outcomes.append((cmd.label, rc))
        result = Pass(total_s=time.perf_counter() - start, phase_s=phase_s)
        for label, rc in outcomes:
            result.check(f"{label} exited {rc}", rc == 0)
        with tracer.paused() if tracer else contextlib.nullcontext():
            self._check_outputs(result)
        if tracer is not None:
            for name, ok in layers.fit_checks(tracer.spans, run):
                result.check(name, ok)
        shutil.rmtree(self.work, ignore_errors=True)
        return result

    def _guarded(self, result: Pass, name: str, test) -> None:
        try:
            ok = bool(test())
        except Exception as exc:
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        result.check(name, ok)

    def _check_outputs(self, result: Pass) -> None:
        from ldikit.bundle import load_scores

        w, work, shape = self.workload, self.work, self.workload.shape
        fused = ["fused"] if w.fusion == "uniform" else []
        for tag in (*w.methods, *fused):
            self._guarded(result, f"{tag} scores are queries x docs", lambda: (
                load_scores(work / f"{tag}.bin").scores.shape
                == (shape.n_queries, shape.n_docs)))

        def record_maps():
            for tag in (*w.methods, *fused):
                result.quality[f"map.{tag}"] = checks.load_json(
                    work / f"eval-{tag}.json")["map"]
            return True
        self._guarded(result, "eval reports readable", record_maps)

        self._guarded(result, "recomputed AP equals the tfidf eval report", lambda:
                      checks.report_matches(
                          checks.recompute_report(load_scores(work / "tfidf.bin"),
                                                  self.qrels),
                          checks.load_json(work / "eval-tfidf.json")))
        for m in w.methods:
            self._guarded(result, f"{m} MAP well above random", lambda: (
                result.quality[f"map.{m}"]
                >= checks.MIN_MAP_OVER_RANDOM * self.random_map))

        if w.fusion == "boost":
            def fused_map():
                result.quality["map.fused"] = checks.load_json(
                    work / "crossval.json")["mean_test_map"]
                return result.quality["map.fused"] > 0
            self._guarded(result, "crossval report readable", fused_map)
            if w.name == "fusion":
                self._guarded(result, "fused train MAP beats every constituent",
                              lambda: checks.load_json(work / "weights.json")[
                                  "train_map"] > max(result.quality[f"map.{m}"]
                                                     for m in w.methods))
        if "lda" in w.methods:
            self._guarded(result, "topic recovery measured", lambda:
                          self._topic_recovery(result))

        if self.first_quality is None:
            self.first_quality = dict(result.quality)
        else:
            result.check("quality repeats across passes",
                         result.quality == self.first_quality)

    def _topic_recovery(self, result: Pass) -> bool:
        import numpy as np
        from ldikit.corpus import load_corpus
        from ldikit.pipeline import load_fitted

        beta = load_fitted(self.work / "model-lda").payload.beta
        terms = load_corpus(self.work / "corpus").vocabulary.terms
        value = checks.topic_recovery(beta, terms, np.load(self.inputs["planted"]))
        result.quality["topic_recovery"] = value
        return value > 0

    def phase(self, seconds: float, min_passes: int, tracer=None,
              first_run: int = 0) -> list[Pass]:
        """Repeat passes while the next one should still end within ``seconds``."""
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(self.run_pass(tracer, first_run + len(passes)))
            last = time.perf_counter() - t0
            if (len(passes) >= min_passes
                    and time.perf_counter() - start + last > seconds):
                return passes


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(Path(__file__).resolve().parent.parent),
        "seed": seed,
    }


def _git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from the files; None outside one."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _median(values) -> float:
    return float(statistics.median(values))


def summarize(untraced: list[Pass], traced: list[Pass], tracer: Tracer | None,
              first_traced_run: int) -> dict:
    """Metrics of the run: end-to-end from untraced passes, else per-module."""
    every = untraced + traced
    attempted = sum(p.attempted for p in every)
    failed = sum(len(p.failures) for p in every)
    if tracer is None:
        values = {"total_s": _median(p.total_s for p in untraced),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / 1024.0}
        for ph in PHASES:
            values[f"{ph}_s"] = _median(p.phase_s[ph] for p in untraced)
        for name in ("map.tfidf", "map.lsi", "map.fused"):
            values[name] = untraced[-1].quality.get(name, 0.0)
        units = END_TO_END
    else:
        per_pass = [layers.layer_metrics(tracer.spans, first_traced_run + i)
                    for i in range(len(traced))]
        values = {name: _median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = (_median(p.total_s for p in traced)
                                      - _median(p.total_s for p in untraced))
        for name in ("map.plsi", "map.lda", "topic_recovery"):
            values[name] = traced[-1].quality.get(name, 0.0)
        values["fail_rate"] = failed / attempted
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f for p in every for f in p.failures}),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {"total_s": [p.total_s for p in every]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    import ldikit.cli  # noqa: F401  (import cost stays out of the first pass)

    workload = WORKLOADS[args.workload]
    inputs = {kind: args.inputs / f"{workload.shape.name}.{ext}"
              for kind, ext in (("docs", "ALL"), ("queries", "QRY"),
                                ("qrels", "REL"))}
    inputs["planted"] = args.inputs / "planted_topics.npy"
    bench = Bench(workload, inputs, args.out / "work")

    tracer = None
    traced: list[Pass] = []
    if not args.trace:
        untraced = bench.phase(args.seconds, min_passes=3)
    else:
        untraced = bench.phase(args.seconds / 2, min_passes=2)
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = bench.phase(args.seconds / 2, min_passes=2, tracer=tracer,
                                 first_run=len(untraced))
        finally:
            tracer.uninstall()
        tracer.write(args.out / "spans.jsonl")

    result = summarize(untraced, traced, tracer, len(untraced))
    result.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(args.seed))
    (args.out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
