"""Planted-topic corpora: properties the topic fits keep at a realistic shape.

The classic collections are not available to every test run, so these
tests draw seeded corpora from LDA's generative model (Blei, Ng & Jordan,
JMLR 2003) and check properties rather than the paper's numbers: the
variational bound never drops, the planted topics are recovered, topic
retrieval beats keyword matching when topics carry the relevance, and one
fixed corpus keeps the final bound and per-method MAPs that the log-space
E-step gave, within stated tolerances.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import bound_never_drops
from ldikit.corpus import (Collection, Corpus, Query, RawDocument, build_corpus,
                           judged_pairs)
from ldikit.lda import train_lda
from ldikit.pipeline import evaluate_matrix, score_corpus, train_model


@dataclass
class Planted:
    corpus: Corpus
    topics: np.ndarray          # (k, n_words) planted topic-word table


def planted_corpus(n_docs, n_words, k, seed, doc_length=60, n_queries=40,
                   query_length=12, word_prior=0.05, mix_prior=0.1,
                   cluster_boost=2.0) -> Planted:
    """A seeded corpus drawn from LDA's generative model.

    Each document belongs to one planted cluster; its topic proportions are
    a Dirichlet draw that favours that cluster's topic, and its words are a
    multinomial draw from the proportions times the topic-word table.
    Queries are drawn the same way, one cluster each in turn, and a query is
    relevant to every document of its cluster.
    """
    rng = np.random.default_rng(seed)
    topics = rng.dirichlet(np.full(n_words, word_prior), size=k)

    def texts(clusters, mean_length):
        prior = np.full((len(clusters), k), mix_prior)
        prior[np.arange(len(clusters)), clusters] += cluster_boost
        mix = rng.gamma(prior)
        mix /= mix.sum(axis=1, keepdims=True)
        lengths = np.maximum(rng.poisson(mean_length, len(clusters)), 3)
        out = []
        for length, p in zip(lengths, mix @ topics):
            n = rng.multinomial(length, p / p.sum())
            out.append(" ".join(f"w{j}" for j in np.repeat(np.arange(n_words), n)))
        return out

    doc_cluster = rng.integers(k, size=n_docs)
    query_cluster = rng.permutation(np.arange(n_queries) % k)
    docs = [RawDocument(d + 1, "", text)
            for d, text in enumerate(texts(doc_cluster, doc_length))]
    queries = [Query(q + 1, text)
               for q, text in enumerate(texts(query_cluster, query_length))]
    qrels = {q + 1: {int(d) + 1 for d in np.flatnonzero(doc_cluster == c)}
             for q, c in enumerate(query_cluster)}
    collection = Collection(f"planted-{seed}", docs, queries, judged_pairs(qrels))
    return Planted(corpus=build_corpus(collection), topics=topics)


def topic_recovery(planted: Planted, beta: np.ndarray) -> float:
    """Mean over planted topics of the best cosine with any fitted topic,
    compared over the corpus vocabulary."""
    cols = [int(term[1:]) for term in planted.corpus.vocabulary.terms]
    a = planted.topics[:, cols]
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = beta / np.linalg.norm(beta, axis=1, keepdims=True)
    return float((a @ b.T).max(axis=1).mean())


def fit_lda(counts, k, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return train_lda(counts, k=k, seed=seed)


def method_map(corpus, method, k, seed=0):
    fitted = train_model(corpus, method, k=k, seed=seed)
    return evaluate_matrix(score_corpus(fitted, corpus), corpus).map_score


# The pinned corpus: short queries over broad topics, so the relevance that
# the topics carry shows up as keyword mismatch.  The values below were
# measured with the log-space E-step that preceded the linear-space one.
PINNED_SHAPE = dict(n_docs=300, n_words=1000, k=5, seed=2, query_length=4,
                    word_prior=0.2, doc_length=60, cluster_boost=5.0)
PINNED_BOUND = -103872.956576667       # lda k=5 seed 0, 25 passes
PINNED_MAP = {"tfidf": 0.5757454713589473, "lsi": 0.9478651081954623,
              "plsi": 0.75788817296468, "lda": 0.9569215922439531}
# tfidf and lsi do not run the E-step: only rounding may move them.  The
# E-step's own tolerances allow a settled document's gamma to differ by
# VAR_TOL and the stopping pass by one (EM_TOL 1e-4 of the bound per pass),
# and rank ties may break differently after that.
BOUND_RTOL = 2e-4
MAP_ATOL = {"tfidf": 1e-6, "lsi": 1e-6, "plsi": 0.005, "lda": 0.01}


@pytest.fixture(scope="module")
def pinned():
    return planted_corpus(**PINNED_SHAPE)


@pytest.fixture(scope="module")
def recovery():
    return planted_corpus(500, 500, 10, 1, doc_length=150)


@pytest.fixture(scope="module")
def pinned_lda(pinned):
    return fit_lda(pinned.corpus.counts, 5, 0)


def test_bound_never_drops_at_five_topics(pinned_lda):
    assert bound_never_drops(pinned_lda.elbo_trace)


def test_bound_never_drops_at_twenty_topics(recovery):
    result = fit_lda(recovery.corpus.counts, 20, 0)
    assert bound_never_drops(result.elbo_trace)


def test_planted_topics_recovered(recovery):
    result = fit_lda(recovery.corpus.counts, 10, 0)
    assert topic_recovery(recovery, result.model.beta) >= 0.97


def test_pinned_corpus_checksum(pinned):
    # the corpus the pins below were measured on
    assert pinned.corpus.checksum() == (
        "2c1b88051d9a4773a1076e58fa98fe8ec7983fc71cdb693112c33494132dd324")


def test_pinned_final_bound(pinned_lda):
    assert pinned_lda.elbo_trace[-1] == pytest.approx(PINNED_BOUND,
                                                      rel=BOUND_RTOL)


@pytest.fixture(scope="module")
def pinned_maps(pinned):
    return {m: method_map(pinned.corpus, m, 5) for m in PINNED_MAP}


@pytest.mark.parametrize("method", sorted(PINNED_MAP))
def test_pinned_map(pinned_maps, method):
    assert pinned_maps[method] == pytest.approx(PINNED_MAP[method],
                                                abs=MAP_ATOL[method])


def test_topic_index_beats_keywords_when_topics_carry_relevance(pinned_maps):
    assert pinned_maps["lda"] > pinned_maps["tfidf"]
