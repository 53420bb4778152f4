"""Latent semantic ranking: truncated SVD of the tf-idf term-document matrix.

The factors come from one Lanczos run (ARPACK) on the Gram matrix of the
smaller side, or from a dense SVD when the requested rank reaches the
smaller matrix dimension.  They carry a verified residual contract: every
retained singular triplet must reproduce its matrix-vector products to
``SVD_TOL``, or the fit fails.  The Lanczos stop test is derived from the
same constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh

from .corpus import TermDocCounts
from .vsm import cosine_scores, tfidf_query_matrix, train_tfidf

SVD_TOL = 1e-8                  # largest relative residual of a kept triplet


@dataclass
class SvdFactors:
    """Rank-k factors of a (terms x documents) matrix: A ~= U diag(S) Vt,
    with how their fit ended: the largest relative residual of a kept
    triplet and the Gram products Lanczos made (0 for a dense SVD)."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    requested_k: int
    residual: float = float("nan")
    gram_products: int = 0


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


def _kept(s: np.ndarray) -> np.ndarray:
    """Mask of the singular values above the negligible tail."""
    return s > (s[0] if len(s) else 0.0) * 1e-12


def _gram_lanczos(matrix, k: int, seed: int):
    """Top-k triplets (u, s, vt, Gram products) from Lanczos on the Gram
    matrix of the smaller side.

    The eigenvectors of that Gram matrix are the singular vectors of its
    side and its eigenvalues the squared singular values; the other side
    follows as A v / s, for the kept triplets only.  ARPACK stops when each
    Ritz pair's residual is below ``tol`` times its eigenvalue, which bounds
    the triplet's relative residual by ``tol``; ``SVD_TOL / 10`` leaves
    margin for the check that follows.
    """
    a = sp.csr_matrix(matrix)
    at = a.T.tocsr()
    tall = a.shape[0] >= a.shape[1]
    left, right = (a, at) if tall else (at, a)
    n = left.shape[1]
    products = 0

    def gram(x):
        nonlocal products
        products += 1
        return right @ (left @ x)

    v0 = np.random.default_rng(seed).standard_normal(n)
    w, small = eigsh(LinearOperator((n, n), matvec=gram, dtype=float), k=k,
                     tol=SVD_TOL / 10, v0=v0)
    order = np.argsort(-w)
    s = np.sqrt(np.maximum(w[order], 0.0))
    keep = _kept(s)
    s, small = s[keep], small[:, order[keep]]
    big = (left @ small) / s
    u, v = (big, small) if tall else (small, big)
    # C order, as a loaded bundle holds it
    return u, s, np.ascontiguousarray(v.T), products


def truncated_svd(matrix, k: int, seed: int = 0) -> SvdFactors:
    """Top-k singular triplets with verified residuals.

    Lanczos (ARPACK) on the Gram matrix of the smaller side finds the
    triplets, stopped at ``SVD_TOL / 10``; a dense LAPACK SVD serves when
    ``k`` reaches the smaller matrix dimension.  Negligible trailing
    singular values (matrix rank below k) are trimmed, leaving ``k`` below
    ``requested_k``, instead of padded; a residual above ``SVD_TOL``
    raises.
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
        keep = _kept(s)
        u, s, vt = u[:, keep], s[keep], vt[keep]
        products = 0
    else:
        u, s, vt, products = _gram_lanczos(matrix, k_eff, seed)

    if not len(s):
        raise ValueError("matrix is numerically zero")
    if np.any(np.diff(s) > 1e-12 * s[0]):
        raise RuntimeError("singular values not in descending order")
    _normalize_signs(u, vt)
    res = _residuals(matrix, u, s, vt)
    if np.any(res > SVD_TOL):
        raise RuntimeError(
            f"SVD residual {res.max():.3e} exceeds tolerance {SVD_TOL:.3e}")
    return SvdFactors(u=u, s=s, vt=vt, requested_k=k,
                      residual=float(res.max()), gram_products=products)


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

    A query folds in as inv(S) Ut q, and queries and documents are both
    scaled by S before the cosine, so a query's latent vector is Ut q (one
    sparse product) and a document used as its own query scores exactly 1.
    """
    q = tfidf_query_matrix(model.idf, query_counts)
    docs = model.factors.vt * model.factors.s[:, None]
    return cosine_scores(q @ model.factors.u, docs.T)
