"""Which ldikit functions the traced run wraps, and the per-module metrics.

Every wrapper sits at the name the caller looks up: ``cli`` reaches the
corpus and bundle functions through their modules, ``pipeline`` imported
the ranker functions by name, and ``ensemble`` imported the metrics
helpers by name while ``metrics`` calls its own module globals.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from pathlib import Path

from spans import Span, Tracer, self_seconds

# Command labels (see workloads.commands) that get a cli.<label>_s metric.
CLI_COMMANDS = (
    ["corpus_build"]
    + [f"{verb}.{m}" for verb in ("train", "score", "eval")
       for m in ("tfidf", "lsi", "plsi", "lda")]
    + ["eval.fused", "ensemble_train", "ensemble_crossval", "ensemble_apply"]
)


def _bytes_under(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def _written(args, kwargs, result):
    return {"bytes": _bytes_under(result)}


def _corpus_sizes(args, kwargs, corpus):
    matrix = corpus.counts.matrix
    return {"tokens": int(matrix.sum()), "nnz": int(matrix.nnz)}


def _fold_in_rows(args, kwargs, result):
    return {"rows": len(result[0])}


def bound_never_drops(trace, slack=1e-8) -> bool:
    """Non-decreasing up to ``slack`` relative, as the acceptance checks use."""
    return all(b >= a - slack * max(abs(a), 1.0) for a, b in zip(trace, trace[1:]))


def _lda_fit(args, kwargs, result):
    return {"passes": len(result.elbo_trace), "converged": bool(result.converged),
            "bound_final": float(result.elbo_trace[-1]),
            "bound_monotone": bound_never_drops(result.elbo_trace)}


def _plsa_fit(args, kwargs, result):
    values = [v for _, v in result.objective_trace] + list(result.perplexity_trace)
    return {"passes": len(result.objective_trace),
            "temperatures": len({b for b, _ in result.objective_trace}),
            "traces_finite": all(math.isfinite(v) for v in values)}


def _boost(args, kwargs, result):
    return {"rounds": len(result.rounds), "converged": bool(result.converged)}


def install(tracer: Tracer) -> None:
    """Wrap every traced ldikit function; ``tracer.uninstall()`` undoes it."""
    from ldikit import (bundle, cli, corpus, ensemble, lsa, metrics, pipeline,
                        plsa)

    w = tracer.wrap
    w(corpus, "load_collection", "corpus.load_collection")
    w(corpus, "build_corpus", "corpus.build_corpus", _corpus_sizes)
    w(corpus, "save_corpus", "corpus.save_corpus", _written)
    w(corpus, "load_corpus", "corpus.load_corpus")
    w(corpus.Corpus, "checksum", "corpus.checksum")

    w(pipeline, "train_tfidf", "vsm.train_tfidf")
    w(lsa, "train_tfidf", "vsm.train_tfidf")
    w(pipeline, "score_tfidf", "vsm.score_tfidf")

    w(lsa, "truncated_svd", "lsa.truncated_svd")
    w(pipeline, "score_lsi", "lsa.score_lsi")

    w(pipeline, "train_plsa", "plsa.train_plsa", _plsa_fit)
    w(plsa, "fold_in", "plsa.fold_in", _fold_in_rows)

    w(pipeline, "train_lda", "lda.train_lda", _lda_fit)

    w(pipeline, "build_index", "ldi.build_index")
    w(pipeline, "score_ldi", "ldi.score_ldi")

    w(cli, "evaluate_scores", "metrics.evaluate_scores")
    w(ensemble, "ap_matrix", "metrics.ap_matrix")
    for owner in (metrics, ensemble):
        w(owner, "average_precision", "metrics.average_precision")
        w(owner, "rank_documents", "metrics.rank_documents")
    w(metrics, "pr_curve", "metrics.pr_curve")

    for owner in (cli, ensemble):
        w(owner, "train_ensemble", "ensemble.train_ensemble", _boost)
        w(owner, "combined_scores", "ensemble.combined_scores")
    w(cli, "cross_validate", "ensemble.cross_validate")

    w(bundle, "save_model", "bundle.save_model", _written)
    w(bundle, "load_model", "bundle.load_model")
    w(bundle, "save_scores", "bundle.save_scores", _written)
    w(bundle, "load_scores", "bundle.load_scores")


# Per-module metrics: name -> (unit, better).  Seconds are inclusive span
# time summed over one pass; *_calls count spans.  A module the workload
# never calls reports 0.
_TIMED = [
    "corpus.load_collection", "corpus.build_corpus", "corpus.save_corpus",
    "corpus.load_corpus", "corpus.checksum",
    "vsm.train_tfidf", "vsm.score_tfidf",
    "lsa.truncated_svd", "lsa.score_lsi",
    "plsa.train_plsa", "plsa.fold_in",
    "lda.train_lda",
    "ldi.build_index", "ldi.score_ldi",
    "metrics.evaluate_scores", "metrics.ap_matrix", "metrics.average_precision",
    "metrics.rank_documents", "metrics.pr_curve",
    "ensemble.train_ensemble", "ensemble.cross_validate",
    "ensemble.combined_scores",
    "bundle.save_model", "bundle.load_model", "bundle.save_scores",
    "bundle.load_scores",
]
_CALLS = ["corpus.load_corpus", "corpus.checksum", "metrics.evaluate_scores",
          "metrics.average_precision", "metrics.rank_documents",
          "ensemble.combined_scores"]

PER_LAYER = {}
PER_LAYER.update({f"cli.{c}_s": ("s", "lower") for c in CLI_COMMANDS})
PER_LAYER["cli.self_s"] = ("s", "lower")
PER_LAYER.update({f"{n}_s": ("s", "lower") for n in _TIMED})
PER_LAYER.update({f"{n}_calls": ("count", "lower") for n in _CALLS})
PER_LAYER.update({
    "corpus.tokens": ("count", "lower"),
    "corpus.nnz": ("count", "lower"),
    "corpus.bundle_bytes": ("bytes", "lower"),
    "plsa.em_passes": ("count", "lower"),
    "plsa.pass_s": ("s", "lower"),
    "plsa.temperatures": ("count", "lower"),
    "plsa.fold_in_rows": ("count", "lower"),
    "lda.em_passes": ("count", "lower"),
    "lda.pass_s": ("s", "lower"),
    "lda.converged": ("ratio", "higher"),
    "lda.bound_final": ("nats", "higher"),
    "ensemble.rounds": ("count", "lower"),
    "ensemble.round_s": ("s", "lower"),
    "ensemble.converged": ("ratio", "higher"),
    "bundle.model_bytes": ("bytes", "lower"),
    "bundle.score_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "map.plsi": ("MAP", "higher"),
    "map.lda": ("MAP", "higher"),
    "topic_recovery": ("cosine", "higher"),
    "fail_rate": ("ratio", "lower"),
})


def _per_call(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: list[Span], run: int) -> dict[str, float]:
    """Per-module metrics of one traced pass (spans tagged ``run``)."""
    mine = [s for s in spans if s.run == run]
    own = self_seconds(mine)
    secs: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    info: dict[str, list[dict]] = defaultdict(list)
    for s in mine:
        secs[s.name] += s.seconds
        calls[s.name] += 1
        if s.info:
            info[s.name].append(s.info)

    def total(name, key):
        return sum(i[key] for i in info[name])

    out = {f"cli.{c}_s": secs[f"cli.{c}"] for c in CLI_COMMANDS}
    out["cli.self_s"] = sum(own[s.id] for s in mine if s.name.startswith("cli."))
    out.update({f"{n}_s": secs[n] for n in _TIMED})
    out.update({f"{n}_calls": calls[n] for n in _CALLS})

    lda_runs = info["lda.train_lda"]
    boosts = info["ensemble.train_ensemble"]
    out.update({
        "corpus.tokens": total("corpus.build_corpus", "tokens"),
        "corpus.nnz": total("corpus.build_corpus", "nnz"),
        "corpus.bundle_bytes": total("corpus.save_corpus", "bytes"),
        "plsa.em_passes": total("plsa.train_plsa", "passes"),
        "plsa.temperatures": total("plsa.train_plsa", "temperatures"),
        "plsa.fold_in_rows": total("plsa.fold_in", "rows"),
        "lda.em_passes": total("lda.train_lda", "passes"),
        "lda.converged": _per_call(total("lda.train_lda", "converged"), len(lda_runs)),
        "lda.bound_final": lda_runs[-1]["bound_final"] if lda_runs else 0.0,
        "ensemble.rounds": total("ensemble.train_ensemble", "rounds"),
        "ensemble.converged": _per_call(total("ensemble.train_ensemble", "converged"),
                                        len(boosts)),
        "bundle.model_bytes": total("bundle.save_model", "bytes"),
        "bundle.score_bytes": total("bundle.save_scores", "bytes"),
    })
    out["plsa.pass_s"] = _per_call(secs["plsa.train_plsa"], out["plsa.em_passes"])
    out["lda.pass_s"] = _per_call(secs["lda.train_lda"], out["lda.em_passes"])
    out["ensemble.round_s"] = _per_call(secs["ensemble.train_ensemble"],
                                        out["ensemble.rounds"])
    return out


def fit_checks(spans: list[Span], run: int) -> list[tuple[str, bool]]:
    """Checks on the fits' own traces, read from the wrapped return values."""
    out = []
    for s in spans:
        if s.run != run:
            continue
        if "bound_monotone" in s.info:
            out.append(("lda bound trace non-decreasing", s.info["bound_monotone"]))
        if "traces_finite" in s.info:
            out.append(("plsi objective and perplexity traces finite",
                        s.info["traces_finite"]))
    return out
