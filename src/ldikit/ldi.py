"""Topic-space retrieval on a fitted topic model.

Every term gets a distribution over topics by normalizing the topic-term
table column-wise; documents and queries become length-weighted averages of
their terms' topic distributions; ranking is by cosine in topic space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lda import LdaModel
from .vsm import cosine_scores


def word_topic_matrix(beta: np.ndarray) -> np.ndarray:
    """Per-term topic distribution: column-normalize the (topics x terms) table.

    Rows of the result index terms and sum to one.  A term with zero weight
    in every topic would be undefined; the smoothed fits used here never
    produce one, but such a row falls back to uniform.
    """
    beta = np.asarray(beta, dtype=float)
    col_totals = beta.sum(axis=0)
    w = np.where(col_totals > 0, beta / np.where(col_totals > 0, col_totals, 1.0),
                 1.0 / beta.shape[0]).T
    return w


def _average_rows(w: np.ndarray, counts) -> np.ndarray:
    """Length-weighted mean of term topic rows for each count row.

    A row sums to one, or is zero when it has no in-vocabulary term.
    """
    matrix = sp.csr_matrix(counts, dtype=float)
    lengths = np.asarray(matrix.sum(axis=1)).ravel()
    return (matrix @ w) / np.maximum(lengths, 1.0)[:, None]


@dataclass
class LdiIndex:
    """Precomputed topic-space document vectors ready for query scoring."""

    w: np.ndarray               # (terms, topics) rows sum to one
    # (docs, topics) rows sum to one, or are zero for a document with no
    # in-vocabulary term
    doc_vectors: np.ndarray


def build_index(model: LdaModel, doc_counts) -> LdiIndex:
    """Topic-space vectors of the (documents x terms) count matrix."""
    w = word_topic_matrix(model.beta)
    return LdiIndex(w=w, doc_vectors=_average_rows(w, doc_counts))


def score_ldi(index: LdiIndex, query_counts) -> np.ndarray:
    """(rows x docs) cosine in topic space of each (rows x terms) query
    count row against each document.

    A query or document with no in-vocabulary term is the zero vector and
    scores zero against everything.
    """
    return cosine_scores(_average_rows(index.w, query_counts),
                         index.doc_vectors)
