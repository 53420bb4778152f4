"""Vector space ranking with raw-count tf and log inverse document frequency."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import TermDocCounts


@dataclass
class TfIdfModel:
    """Per-term idf plus unit-length document vectors."""

    idf: np.ndarray
    doc_vectors: sp.csr_matrix
    n_docs: int


def _row_normalize(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Scale each row to unit L2 norm; all-zero rows stay zero."""
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return sp.diags(inv) @ matrix


def cosine_scores(queries: np.ndarray, docs: np.ndarray,
                  query_mask: np.ndarray | None = None,
                  doc_mask: np.ndarray | None = None) -> np.ndarray:
    """Dense cosine of every query row against every document row.

    Rows of zero norm score zero.  A row whose evidence mask is False scores
    zero against everything, whatever its vector.
    """
    raw = queries @ docs.T
    denom = np.outer(np.linalg.norm(queries, axis=1),
                     np.linalg.norm(docs, axis=1))
    scores = np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0)
    if query_mask is not None:
        scores = scores * query_mask[:, None]
    if doc_mask is not None:
        scores = scores * doc_mask[None, :]
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
    return TfIdfModel(idf=idf, doc_vectors=_row_normalize(weighted), n_docs=m)


def tfidf_query_matrix(model: TfIdfModel, query_counts) -> sp.csr_matrix:
    """Apply the training idf weights to query count rows and normalize."""
    q = sp.csr_matrix(query_counts, dtype=float)
    if q.shape[1] != model.idf.shape[0]:
        raise ValueError("query vector length does not match the vocabulary")
    return _row_normalize(q.multiply(model.idf).tocsr())


def score_tfidf(model: TfIdfModel, query_counts) -> np.ndarray:
    """Cosine similarity of each document against each query count row.

    Accepts a single count vector or a (queries x vocabulary) matrix; since
    both sides are unit length the cosine reduces to a dot product.  Queries
    with no in-vocabulary term score zero everywhere.
    """
    if sp.issparse(query_counts):
        single = False
        q_in = query_counts
    else:
        arr = np.asarray(query_counts, dtype=float)
        single = arr.ndim == 1
        q_in = np.atleast_2d(arr)
    q = tfidf_query_matrix(model, q_in)
    scores = (q @ model.doc_vectors.T).toarray()
    return scores[0] if single else scores
