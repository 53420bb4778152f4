"""Vector space ranking with raw-count tf and log inverse document frequency."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import TermDocCounts
from .metrics import row_blocks


@dataclass
class TfIdfModel:
    """Per-term idf plus unit-length document vectors."""

    idf: np.ndarray
    doc_vectors: sp.csr_matrix


def _row_normalize(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Scale each row to unit L2 norm; all-zero rows stay zero."""
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return sp.diags(inv) @ matrix


def cosine_scores(queries: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """Dense cosine of every query row against every document row.

    Rows of zero norm score zero against everything.  Every ranker makes a
    text with no in-vocabulary term the zero vector, so under every method
    such a query or document scores 0.

    The product ``queries @ docs.T`` is the only whole matrix made: in
    place, one block of rows at a time (``metrics.row_blocks``), it is
    divided by the norms and zeroed where their product is not positive.
    """
    scores = queries @ docs.T
    q_norms = np.linalg.norm(queries, axis=1)
    d_norms = np.linalg.norm(docs, axis=1)
    for rows in row_blocks(*scores.shape):
        block = scores[rows]
        denom = np.outer(q_norms[rows], d_norms)
        positive = denom > 0
        np.divide(block, denom, out=block, where=positive)
        block[~positive] = 0.0
        del denom, positive     # before the next block's are made
    return scores


def train_tfidf(counts: TermDocCounts) -> TfIdfModel:
    """Weight counts by ln(M / df) per term, then unit-normalize documents.

    Terms present in every document get zero weight (ln 1); the vocabulary
    construction guarantees df >= 1 for every column.
    """
    matrix = counts.matrix.astype(float)
    m = counts.n_docs
    df = np.asarray((matrix > 0).sum(axis=0)).ravel()
    if np.any(df == 0):
        raise ValueError("vocabulary term with zero document frequency")
    idf = np.log(m / df)
    weighted = matrix.multiply(idf).tocsr()
    return TfIdfModel(idf=idf, doc_vectors=_row_normalize(weighted))


def tfidf_query_matrix(idf: np.ndarray, query_counts) -> sp.csr_matrix:
    """Weight a (rows x terms) count matrix by the training ``idf`` and
    scale each row to unit length."""
    q = sp.csr_matrix(query_counts, dtype=float)
    if q.shape[1] != idf.shape[0]:
        raise ValueError("query vector length does not match the vocabulary")
    return _row_normalize(q.multiply(idf).tocsr())


def score_tfidf(model: TfIdfModel, query_counts) -> np.ndarray:
    """(rows x docs) cosine of each (rows x terms) query count row against
    each document.

    Both sides are unit length, so the cosine is a dot product.  Rows with
    no in-vocabulary term score zero everywhere.  The dense output is the
    only whole score matrix made: the sparse product fills it one block of
    query rows at a time (``metrics.row_blocks``), and adds each row's
    cells in the order the whole product would.
    """
    q = tfidf_query_matrix(model.idf, query_counts)
    docs_t = model.doc_vectors.T.tocsr()
    scores = np.empty((q.shape[0], docs_t.shape[1]))
    for rows in row_blocks(*scores.shape):
        (q[rows] @ docs_t).toarray(out=scores[rows])
    return scores
