"""The benchmark's workloads: generated collection shapes and CLI paths.

Each workload is one pass of the user path through ``ldikit.cli.main``:
``corpus build``, then ``train``/``score``/``eval`` per ranker, then fusion
(boosted ``ensemble train`` and ``crossval``, or ``ensemble apply
--uniform`` and an ``eval`` of the fused scores).  Why each workload exists
is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from generate import CollectionShape

# Boosting stops when a round moves training MAP by less than --eps, and
# where that happens depends on the seed.  A fixed round budget (no early
# stop) keeps the fusion work per run the same across seeds.
BOOST_ROUNDS = 20
BOOST_ARGS = ["--max-rounds", str(BOOST_ROUNDS), "--eps=-1"]


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CollectionShape
    methods: tuple[str, ...]
    k: int                      # topic count for lsi, plsi and lda
    fusion: str                 # "boost" or "uniform"


WORKLOADS = {
    w.name: w for w in (
        Workload("topic-fit",
                 CollectionShape("MED", n_docs=300, n_queries=60, n_topics=5,
                                 n_words=1000, doc_length=30, query_length=10),
                 methods=("tfidf", "lsi", "plsi", "lda"), k=5, fusion="boost"),
        # k below the planted topic count: the latent rankers merge
        # clusters that keyword matching still tells apart, so the rankers
        # err differently and boosting has something to combine.
        Workload("fusion",
                 CollectionShape("MC", n_docs=800, n_queries=200, n_topics=10,
                                 n_words=3000, doc_length=50, query_length=15,
                                 cluster_boost=1.0),
                 methods=("tfidf", "lsi", "plsi"), k=5, fusion="boost"),
        Workload("ingest",
                 CollectionShape("BIG", n_docs=2500, n_queries=350, n_topics=20,
                                 n_words=6000, doc_length=60, query_length=15,
                                 word_prior=0.02),
                 methods=("tfidf", "lsi"), k=50, fusion="uniform"),
    )
}


@dataclass(frozen=True)
class Command:
    label: str                  # span and metric stem, e.g. "train.lda"
    phase: str                  # setup, fit, query or fuse
    argv: list


def commands(workload: Workload, inputs: dict, work: Path) -> list[Command]:
    """The CLI invocations of one pass, in order, writing under ``work``."""
    name = workload.shape.name
    corpus = str(work / "corpus")
    spec = f"{name}={inputs['docs']},{inputs['queries']},{inputs['qrels']}"
    out = [Command("corpus_build", "setup",
                   ["corpus", "build", "--spec", spec, "--out", corpus])]
    for m in workload.methods:
        k = [] if m == "tfidf" else ["--k", str(workload.k)]
        out += [
            Command(f"train.{m}", "fit",
                    ["train", "--corpus", corpus, "--method", m, *k,
                     "--seed", "0", "--out", str(work / f"model-{m}")]),
            Command(f"score.{m}", "query",
                    ["score", "--corpus", corpus, "--model",
                     str(work / f"model-{m}"), "--out", str(work / f"{m}.bin")]),
            Command(f"eval.{m}", "query",
                    ["eval", "--corpus", corpus, "--scores",
                     str(work / f"{m}.bin"), "--out", str(work / f"eval-{m}.json")]),
        ]
    scores = [str(work / f"{m}.bin") for m in workload.methods]
    if workload.fusion == "boost":
        out += [
            Command("ensemble_train", "fuse",
                    ["ensemble", "train", "--corpus", corpus, "--scores", *scores,
                     *BOOST_ARGS, "--out", str(work / "weights.json")]),
            Command("ensemble_crossval", "fuse",
                    ["ensemble", "crossval", "--corpus", corpus, "--scores",
                     *scores, *BOOST_ARGS, "--out", str(work / "crossval.json")]),
        ]
    else:
        out += [
            Command("ensemble_apply", "fuse",
                    ["ensemble", "apply", "--scores", *scores, "--uniform",
                     "--tag", "fused", "--out", str(work / "fused.bin")]),
            Command("eval.fused", "query",
                    ["eval", "--corpus", corpus, "--scores",
                     str(work / "fused.bin"), "--out",
                     str(work / "eval-fused.json")]),
        ]
    return out
