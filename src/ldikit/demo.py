"""A built-in ten-document corpus for fast end-to-end demonstrations.

Ten one-line documents span four subjects (technology, business, diet,
genetics), with fourteen content terms and three ready-made queries whose
relevant documents are known.  The canonical count table uses normalized
term forms ("products" counts as "product"), which the plain text pipeline
does not produce, so it is provided directly as data.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, TermDocCounts, Vocabulary, judged_pairs
from .ensemble import EnsembleWeights, ScoreMatrix, train_ensemble
from .lda import LdaTrainResult, seeded_topic_start, train_lda
from .vsm import score_tfidf, train_tfidf

DEMO_TOPICS = 4                 # one per subject
DEMO_ALPHA = 0.25               # fixed symmetric prior of the demo fit

DOC_LABELS = ["T1", "T2", "T3", "B1", "B2", "D1", "D2", "D3", "G1", "G2"]

TERMS = [
    "apple", "smartphone", "os", "system", "product", "contract", "sign",
    "samsung", "pie", "pea", "fry", "oil", "geneticallymodified", "bean",
]

# Rows follow DOC_LABELS, columns follow TERMS; one count per appearance
# of the normalized term in the sentence.
DOC_TERM_COUNTS = np.array([
    # appl smart os  sys prod cont sign sams pie pea fry oil gm  bean
    [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],   # T1
    [1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],   # T2
    [0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],   # T3
    [1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0],   # B1
    [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],   # B2
    [1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0],   # D1
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0],   # D2
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],   # D3
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1],   # G1
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1],   # G2
], dtype=np.int64)

QUERY_TERMS = [
    ["sign", "system", "apple"],
    ["contract", "apple", "product"],
    ["apple", "os"],
]

# Relevant documents per query, by document id (1-based, DOC_LABELS order).
RELEVANT = {1: {3}, 2: {4, 5}, 3: {1, 2}}

# Reference topic-space similarities (queries by documents), kept as fixed
# data so the boosting demonstration is reproducible: this ranker resolves
# Query 2's "contract" sense and Query 3's polysemous "apple" but slips T3
# to second place on Query 1, the exact complement of the keyword ranker's
# strengths, which is what gives the ensemble something to learn.
REFERENCE_TOPIC_SIMS = np.array([
    # T1     T2     T3     B1     B2     D1     D2     D3     G1     G2
    [0.9475, 0.9885, 0.9692, 0.6734, 0.5681, 0.3076, 0.1261, 0.1296, 0.0213, 0.0213],
    [0.5227, 0.6643, 0.6053, 0.9902, 0.9586, 0.2829, 0.1245, 0.1279, 0.0210, 0.0210],
    [0.9938, 0.9915, 0.9833, 0.4796, 0.3543, 0.3420, 0.1752, 0.1800, 0.0296, 0.0296],
])


def demo_corpus() -> Corpus:
    """The canonical counts wrapped as a ready-to-use corpus."""
    matrix = sp.csr_matrix(DOC_TERM_COUNTS)
    vocab = Vocabulary(terms=list(TERMS))
    query_rows = np.zeros((len(QUERY_TERMS), len(TERMS)), dtype=np.int64)
    for i, toks in enumerate(QUERY_TERMS):
        for tok in toks:
            query_rows[i, vocab[tok]] += 1
    return Corpus(
        name="demo",
        doc_ids=np.arange(1, len(DOC_LABELS) + 1, dtype=np.int64),
        query_ids=np.arange(1, len(QUERY_TERMS) + 1, dtype=np.int64),
        vocabulary=vocab,
        counts=TermDocCounts(
            matrix=matrix,
            doc_lengths=np.asarray(matrix.sum(axis=1)).ravel().astype(np.int64),
        ),
        query_counts=sp.csr_matrix(query_rows),
        qrels=judged_pairs(RELEVANT),
    )


def fit_demo_topics(seed: int = 0) -> LdaTrainResult:
    """Fit the topic model used by the demonstrations: one topic per subject.

    Thirty-one tokens give EM many poor basins, so the fit starts from
    document-cluster topic rows and keeps the prior weight fixed at a
    small value (``DEMO_ALPHA``); both choices make the subject split
    reproducible across seeds.
    """
    corpus = demo_corpus()
    start = seeded_topic_start(corpus.counts, DEMO_TOPICS, seed=seed)
    return train_lda(corpus.counts, k=DEMO_TOPICS, seed=seed, alpha=DEMO_ALPHA,
                     beta_init=start)


def demo_boosting() -> EnsembleWeights:
    """Fuse the keyword ranker with a topic ranker; reaches perfect MAP.

    The topic side uses REFERENCE_TOPIC_SIMS, whose one weak query
    complements the keyword ranker's one weak query, so the rounds play out
    the same way every run: the keyword model is picked first, its failing
    query gets up-weighted, the topic model repairs it, and training MAP
    reaches one.
    """
    corpus = demo_corpus()
    keyword = score_tfidf(train_tfidf(corpus.counts), corpus.query_counts)
    mats = [
        ScoreMatrix("tfidf", keyword, corpus.query_ids, corpus.doc_ids),
        ScoreMatrix("ldi", REFERENCE_TOPIC_SIMS.copy(),
                    corpus.query_ids, corpus.doc_ids),
    ]
    return train_ensemble(mats, corpus.qrels)
