"""Orchestration: train any ranker on a corpus, score its queries, persist.

``RANKERS`` is the one place that knows the four methods: per method it says
how to fit on a corpus, which corpus arrays scoring reads and how it scores
the corpus queries with them, which arrays and scalars go into a model
bundle, and how to rebuild the model from them.
Everything else here is one path for all methods.  The topic-space ranker is
served by the ``lda`` method: its index derives from the fitted topic-term
table and the corpus counts at scoring time.

The table's functions look the ranker functions up in this module when they
run, so replacing ``pipeline.train_lda`` (say) reaches every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bundle
from .corpus import Corpus
from .ensemble import ScoreMatrix
from .lda import LdaModel, train_lda
from .ldi import build_index, score_ldi
from .lsa import LsiModel, SvdFactors, score_lsi, train_lsi
from .metrics import EvalReport, evaluate_scores
from .plsa import PlsaModel, score_plsa, train_plsa
from .vsm import TfIdfModel, score_tfidf, train_tfidf


@dataclass(frozen=True)
class Ranker:
    """One method's fit, score and bundle round trip."""

    # (corpus, k, seed) -> (payload, fit summary for the header)
    fit: Callable
    # (payload, *the corpus arrays named by ``reads``) -> (queries x
    # documents) scores
    score: Callable
    # payload -> (header scalars, named arrays)
    pack: Callable
    # (header, arrays) -> payload
    unpack: Callable
    needs_k: bool = True
    # the corpus arrays (``Corpus.arrays`` names) that ``score`` takes
    reads: tuple[str, ...] = ("query_counts",)


def _fit_lda(corpus, k, seed):
    result = train_lda(corpus.counts, k=k, seed=seed)
    return result.model, {"alpha": result.model.alpha,
                          "converged": result.converged,
                          "stopped_by": result.stopped_by,
                          "elbo": result.elbo_trace[-1]}


RANKERS = {
    "tfidf": Ranker(
        fit=lambda corpus, k, seed: (train_tfidf(corpus.counts), None),
        score=lambda m, queries: score_tfidf(m, queries),
        pack=lambda m: ({}, {"idf": m.idf, "doc_vectors": m.doc_vectors}),
        unpack=lambda header, a: TfIdfModel(
            idf=a["idf"], doc_vectors=a["doc_vectors"].astype(float)),
        needs_k=False),
    "lsi": Ranker(
        fit=lambda corpus, k, seed: (train_lsi(corpus.counts, k=k, seed=seed),
                                     None),
        score=lambda m, queries: score_lsi(m, queries),
        pack=lambda m: ({"requested_k": m.factors.requested_k,
                         "svd_residual": m.factors.residual,
                         "gram_products": m.factors.gram_products},
                        {"idf": m.idf, "u": m.factors.u, "s": m.factors.s,
                         "vt": m.factors.vt}),
        unpack=lambda header, a: LsiModel(
            idf=a["idf"],
            factors=SvdFactors(
                u=a["u"], s=a["s"], vt=a["vt"],
                requested_k=int(header["requested_k"]),
                residual=float(header["svd_residual"]),
                gram_products=int(header["gram_products"])))),
    "plsi": Ranker(
        fit=lambda corpus, k, seed: (train_plsa(corpus.counts, k=k,
                                                seed=seed).model, None),
        score=lambda m, queries: score_plsa(m, queries),
        pack=lambda m: ({"beta_temp": m.beta_temp},
                        {"p_dz": m.p_dz, "p_wz": m.p_wz}),
        unpack=lambda header, a: PlsaModel(
            p_dz=a["p_dz"], p_wz=a["p_wz"],
            beta_temp=float(header["beta_temp"]))),
    "lda": Ranker(
        fit=_fit_lda,
        score=lambda m, docs, queries: score_ldi(build_index(m, docs),
                                                 queries),
        reads=("counts", "query_counts"),
        pack=lambda m: ({"alpha": m.alpha}, {"beta": m.beta}),
        unpack=lambda header, a: LdaModel(alpha=float(header["alpha"]),
                                          beta=a["beta"])),
}

METHODS = tuple(RANKERS)
METHOD_ALIASES = {"ldi": "lda"}


def resolve_method(name: str) -> str:
    method = METHOD_ALIASES.get(name.lower(), name.lower())
    if method not in METHODS:
        raise ValueError(f"unknown method {name!r}; choose from "
                         f"{', '.join(METHODS + tuple(METHOD_ALIASES))}")
    return method


def _ranker(kind: str) -> Ranker:
    if kind not in RANKERS:
        raise ValueError(f"unknown model kind {kind!r}")
    return RANKERS[kind]


@dataclass
class FittedModel:
    """A trained ranker bound to the corpus it was fitted on."""

    kind: str
    payload: object
    corpus_checksum: str
    corpus_name: str
    k: int | None = None
    seed: int = 0
    # header scalars beyond the common ones: the fit summary (and, on a
    # loaded model, the ranker's own scalars too)
    extra: dict | None = None


def _content_checksum(corpus: Corpus) -> str:
    """The corpus content hash, hashed again only when ``load_corpus`` did
    not already verify it."""
    return corpus.loaded_checksum or corpus.checksum()


def train_model(corpus: Corpus, method: str, k: int | None = None,
                seed: int = 0) -> FittedModel:
    """Fit one ranker.  Topic methods require ``k``; tfidf ignores it."""
    method = resolve_method(method)
    ranker = RANKERS[method]
    if not ranker.needs_k:
        k = None
    elif k is None:
        raise ValueError(f"method {method!r} needs a topic count")
    checksum = _content_checksum(corpus)
    payload, extra = ranker.fit(corpus, k, seed)
    return FittedModel(method, payload, checksum, corpus.name, k=k, seed=seed,
                       extra=extra)


# the corpus arrays every score matrix takes its ids from
_SCORE_IDS = ("query_ids", "doc_ids")


def score_reads(kind: str) -> tuple[str, ...]:
    """The corpus arrays that scoring with a ``kind`` model reads."""
    return _SCORE_IDS + _ranker(kind).reads


def score_corpus(fitted: FittedModel, corpus: Corpus,
                 tag: str | None = None) -> ScoreMatrix:
    """Score every corpus query against every document."""
    return score_arrays(fitted, _content_checksum(corpus), corpus.arrays(),
                        tag)


def score_arrays(fitted: FittedModel, checksum: str, arrays: dict,
                 tag: str | None = None) -> ScoreMatrix:
    """Score every query of the corpus with content hash ``checksum``
    against every document, from its ``score_reads`` arrays."""
    if fitted.corpus_checksum != checksum:
        raise ValueError(
            f"model was fitted on corpus {fitted.corpus_name!r} with a "
            "different content hash; refusing to score")
    ranker = _ranker(fitted.kind)
    scores = ranker.score(fitted.payload, *(arrays[n] for n in ranker.reads))
    return ScoreMatrix(tag=tag or fitted.kind, scores=np.asarray(scores),
                       query_ids=arrays["query_ids"],
                       doc_ids=arrays["doc_ids"])


def evaluate_matrix(matrix: ScoreMatrix, corpus: Corpus) -> EvalReport:
    return evaluate_scores(matrix.scores, matrix.query_ids, matrix.doc_ids,
                           corpus.qrels)


def save_fitted(fitted: FittedModel, path):
    """Persist a fitted model as one bundle file."""
    scalars, arrays = _ranker(fitted.kind).pack(fitted.payload)
    fields = {
        "corpus_checksum": fitted.corpus_checksum,
        "corpus_name": fitted.corpus_name,
        "k": fitted.k,
        "seed": fitted.seed,
        **(fitted.extra or {}),
        **scalars,
    }
    return bundle.save_model(path, fitted.kind, fields, arrays)


_HEADER = ("bundle_version", "kind", "corpus_checksum", "corpus_name", "k",
           "seed")


def load_fitted(path) -> FittedModel:
    header, arrays = bundle.load_model(path)
    kind = header["kind"]
    payload = _ranker(kind).unpack(header, arrays)
    extra = {key: value for key, value in header.items()
             if key not in _HEADER}
    return FittedModel(kind=kind, payload=payload,
                       corpus_checksum=header["corpus_checksum"],
                       corpus_name=header["corpus_name"], k=header["k"],
                       seed=header["seed"], extra=extra or None)


def sweep_topics(corpus: Corpus, method: str, ks, seeds) -> list[dict]:
    """MAP for each (topic count, seed) pair of one method."""
    rows = []
    for k in ks:
        for seed in seeds:
            fitted = train_model(corpus, method, k=k, seed=seed)
            report = evaluate_matrix(score_corpus(fitted, corpus), corpus)
            rows.append({"method": resolve_method(method), "k": int(k),
                         "seed": int(seed), "map": report.map_score})
    return rows
