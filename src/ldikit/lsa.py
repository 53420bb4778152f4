"""Latent semantic ranking: truncated SVD of the tf-idf term-document matrix.

The factors come from Lanczos iterations (a dense SVD when the requested
rank reaches the smaller matrix dimension) and carry a verified residual
contract: every retained singular triplet must reproduce its matrix-vector
products to ``SVD_TOL``, or the fit fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

from .corpus import TermDocCounts
from .vsm import cosine_scores, tfidf_query_matrix, train_tfidf

SVD_TOL = 1e-8                  # largest relative residual of a kept triplet


@dataclass
class SvdFactors:
    """Rank-k factors of a (terms x documents) matrix: A ~= U diag(S) Vt."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    requested_k: int

    @property
    def k(self) -> int:
        return len(self.s)

    @property
    def rank_deficient(self) -> bool:
        return self.k < self.requested_k


def _normalize_signs(u: np.ndarray, vt: np.ndarray) -> None:
    """Fix the sign ambiguity: largest-magnitude entry of each u column > 0."""
    for i in range(u.shape[1]):
        j = int(np.argmax(np.abs(u[:, i])))
        if u[j, i] < 0:
            u[:, i] = -u[:, i]
            vt[i, :] = -vt[i, :]


def _residuals(matrix, u, s, vt) -> np.ndarray:
    """Relative residual of each triplet against matrix-vector products."""
    av = matrix @ vt.T            # (n_terms, k)
    atu = matrix.T @ u            # (n_docs, k)
    r1 = np.linalg.norm(av - u * s, axis=0)
    r2 = np.linalg.norm(atu - vt.T * s, axis=0)
    return np.maximum(r1, r2) / np.maximum(s, 1e-300)


def truncated_svd(matrix, k: int, seed: int = 0) -> SvdFactors:
    """Top-k singular triplets with verified residuals.

    Lanczos (ARPACK) finds the triplets, or a dense LAPACK SVD when ``k``
    reaches the smaller matrix dimension.  Negligible trailing singular
    values (matrix rank below k) are trimmed and flagged instead of padded;
    a residual above ``SVD_TOL`` raises.
    """
    if k < 1:
        raise ValueError("k must be positive")
    matrix = matrix.astype(float) if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    largest = abs(matrix).max() if sp.issparse(matrix) else np.abs(matrix).max()
    if largest == 0:
        raise ValueError("matrix is numerically zero")
    min_dim = min(matrix.shape)
    k_eff = min(k, min_dim)

    if k_eff >= min_dim:
        dense = matrix.toarray() if sp.issparse(matrix) else matrix
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        u, s, vt = u[:, :k_eff], s[:k_eff], vt[:k_eff, :]
    else:
        v0 = np.random.default_rng(seed).standard_normal(min_dim)
        u, s, vt = svds(matrix, k=k_eff, v0=v0)
        order = np.argsort(-s)
        u, s, vt = u[:, order], s[order], vt[order, :]

    keep = s > (s[0] if len(s) else 0.0) * 1e-12
    u, s, vt = u[:, keep], s[keep], vt[keep, :]
    if not len(s):
        raise ValueError("matrix is numerically zero")
    if np.any(np.diff(s) > 1e-12 * s[0]):
        raise RuntimeError("singular values not in descending order")
    _normalize_signs(u, vt)
    res = _residuals(matrix, u, s, vt)
    if np.any(res > SVD_TOL):
        raise RuntimeError(
            f"SVD residual {res.max():.3e} exceeds tolerance {SVD_TOL:.3e}")
    return SvdFactors(u=u, s=s, vt=vt, requested_k=k)


@dataclass
class LsiModel:
    """Latent factors of the tf-idf space plus the idf weights that turn a
    (rows x terms) query count matrix into that space."""

    idf: np.ndarray
    factors: SvdFactors


def train_lsi(counts: TermDocCounts, k: int, seed: int = 0) -> LsiModel:
    """Factor the unit-normalized tf-idf matrix arranged terms x documents."""
    tfidf = train_tfidf(counts)
    factors = truncated_svd(tfidf.doc_vectors.T, k, seed=seed)
    return LsiModel(idf=tfidf.idf, factors=factors)


def score_lsi(model: LsiModel, query_counts) -> np.ndarray:
    """(rows x docs) cosine of each (rows x terms) query count row, weighted
    and folded into latent space, against each document.

    A query folds in as inv(S) Ut q; queries and documents are both scaled
    by S before the cosine, so a document used as its own query scores
    exactly 1.
    """
    q = tfidf_query_matrix(model.idf, query_counts).toarray()
    latent = (model.factors.u.T @ q.T) / model.factors.s[:, None]
    docs = model.factors.vt * model.factors.s[:, None]
    uq = latent * model.factors.s[:, None]
    return cosine_scores(uq.T, docs.T)
