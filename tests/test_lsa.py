import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_counts
from oracles import jacobi_svd
from ldikit.lsa import (SVD_TOL, SvdFactors, _residuals, score_lsi, train_lsi,
                        truncated_svd)
from ldikit.vsm import tfidf_query_matrix, train_tfidf


def planted_tfidf(n_docs=200, n_words=400, n_topics=5, doc_length=40, seed=3):
    """(terms x docs) tf-idf of documents drawn from a few planted topics,
    the shape perfbench's generator makes: a handful of large singular
    values, then a flat tail of sampling noise."""
    rng = np.random.default_rng(seed)
    topics = rng.dirichlet(np.full(n_words, 0.05), n_topics)
    prior = np.full((n_docs, n_topics), 0.1)
    prior[np.arange(n_docs), rng.integers(n_topics, size=n_docs)] += 2.0
    mixtures = np.array([rng.dirichlet(row) for row in prior])
    counts = rng.multinomial(doc_length, mixtures @ topics)
    keep = counts.sum(axis=0) > 0
    return train_tfidf(make_counts(counts[:, keep])).doc_vectors.T.tocsr()


def assert_verified(factors, matrix, k):
    """Singular values of dense LAPACK, residuals within the contract."""
    s_ref = np.linalg.svd(matrix.toarray(), compute_uv=False)[:k]
    np.testing.assert_allclose(factors.s, s_ref, rtol=0, atol=1e-10)
    assert np.all(np.isfinite(factors.u)) and np.all(np.isfinite(factors.vt))
    res = _residuals(matrix, factors.u, factors.s, factors.vt)
    assert res.max() <= SVD_TOL
    assert factors.residual == res.max()


class TestTruncatedSvd:
    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            a = rng.standard_normal((20, 10))
            k = int(rng.integers(1, 8))
            factors = truncated_svd(a, k)
            s_ref = jacobi_svd(a)[1]
            np.testing.assert_allclose(factors.s, s_ref[:k], atol=1e-8)

    def test_factors_orthonormal(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = rng.standard_normal((20, 10))
            factors = truncated_svd(a, 6)
            np.testing.assert_allclose(factors.u.T @ factors.u, np.eye(6),
                                       atol=1e-8)
            np.testing.assert_allclose(factors.vt @ factors.vt.T, np.eye(6),
                                       atol=1e-8)

    def test_reconstructs_full_rank(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 5))
        factors = truncated_svd(a, 5)
        np.testing.assert_allclose(factors.u @ np.diag(factors.s) @ factors.vt,
                                   a, atol=1e-10)

    def test_sparse_input(self):
        rng = np.random.default_rng(8)
        a = sp.random(30, 15, density=0.3, random_state=3, format="csr")
        factors = truncated_svd(a, 4)
        s_ref = jacobi_svd(a.toarray())[1]
        np.testing.assert_allclose(factors.s, s_ref[:4], atol=1e-8)

    def test_rank_deficient_trimmed_and_flagged(self):
        base = np.outer(np.arange(1.0, 7.0), np.ones(4))  # rank 1
        factors = truncated_svd(base, 3)
        assert len(factors.s) == 1 and factors.requested_k == 3

    def test_sign_convention(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((12, 7))
        factors = truncated_svd(a, 4)
        for i in range(len(factors.s)):
            j = int(np.argmax(np.abs(factors.u[:, i])))
            assert factors.u[j, i] > 0

    def test_descending_order(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((15, 9))
        factors = truncated_svd(a, 6)
        assert np.all(np.diff(factors.s) <= 1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            truncated_svd(np.ones((3, 3)), 0)
        with pytest.raises(ValueError):
            truncated_svd(np.zeros((4, 4)), 2)


class TestGramLanczos:
    """The Lanczos path: the Gram matrix of the smaller side, either way."""

    @pytest.mark.parametrize("shape", [(120, 45), (45, 120)])
    def test_either_side_matches_lapack(self, shape):
        matrix = sp.random(*shape, density=0.15, random_state=4, format="csr")
        factors = truncated_svd(matrix, 10, seed=2)
        assert_verified(factors, matrix, 10)
        assert factors.u.shape == (shape[0], 10)
        assert factors.vt.shape == (10, shape[1])
        np.testing.assert_allclose(factors.u.T @ factors.u, np.eye(10),
                                   atol=1e-8)
        np.testing.assert_allclose(factors.vt @ factors.vt.T, np.eye(10),
                                   atol=1e-8)
        assert factors.gram_products > 0

    def test_flat_tail_past_planted_rank(self):
        matrix = planted_tfidf()
        s_all = np.linalg.svd(matrix.toarray(), compute_uv=False)
        # past the planted rank the spectrum is flat: neighbours within 5%
        assert s_all[4] / s_all[5] > 2 and np.all(s_all[6:31] / s_all[5:30] > 0.95)
        assert_verified(truncated_svd(matrix, 30, seed=0), matrix, 30)

    def test_rank_deficient_sparse_trimmed(self):
        rng = np.random.default_rng(12)
        low = rng.random((60, 4)) @ rng.random((4, 40))
        low[low < 0.6] = 0.0                      # sparse, rank well below k
        matrix = sp.csr_matrix(np.hstack([low, low]))
        rank = np.linalg.matrix_rank(matrix.toarray())
        with np.errstate(all="raise"):
            factors = truncated_svd(matrix, rank + 8)
        assert len(factors.s) == rank and factors.requested_k == rank + 8
        assert np.all(np.isfinite(factors.u)) and np.all(np.isfinite(factors.vt))
        assert factors.residual <= SVD_TOL

    def test_same_seed_same_bits(self):
        matrix = planted_tfidf()
        a, b = truncated_svd(matrix, 12, seed=7), truncated_svd(matrix, 12, seed=7)
        for name in ("u", "s", "vt"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.gram_products == b.gram_products

    def test_dense_branch_makes_no_gram_products(self):
        factors = truncated_svd(np.random.default_rng(1).standard_normal((9, 5)), 5)
        assert factors.gram_products == 0
        assert factors.residual <= SVD_TOL


class TestLsiRanking:
    COUNTS = make_counts([
        [2, 1, 0, 0, 0],
        [1, 2, 1, 0, 0],
        [0, 0, 1, 2, 1],
        [0, 0, 0, 1, 2],
        [1, 0, 1, 1, 0],
    ])

    def test_self_query_scores_one(self):
        model = train_lsi(self.COUNTS, k=4)
        scores = score_lsi(model, self.COUNTS.matrix)
        for i in range(4):
            # with k near full rank the document reproduces itself
            assert scores[i, i] == pytest.approx(1.0, abs=1e-6)

    def test_fold_then_score_matches_pipeline(self):
        # fold in as inv(S) Ut q, then cosine with S-scaled documents
        model = train_lsi(self.COUNTS, k=3)
        f = model.factors
        q_counts = np.array([[1, 1, 0, 0, 0]])
        weighted = tfidf_query_matrix(model.idf, q_counts).toarray()[0]
        query = f.s * ((f.u.T @ weighted) / f.s)
        docs = (f.vt * f.s[:, None]).T
        manual = docs @ query / (np.linalg.norm(docs, axis=1)
                                 * np.linalg.norm(query))
        np.testing.assert_allclose(score_lsi(model, q_counts)[0], manual,
                                   atol=1e-12)

    def test_scores_bounded_by_one(self):
        model = train_lsi(self.COUNTS, k=3)
        scores = score_lsi(model, self.COUNTS.matrix)
        assert np.all(scores <= 1.0 + 1e-9)

    def test_empty_query_scores_zero(self):
        model = train_lsi(self.COUNTS, k=3)
        scores = score_lsi(model, np.zeros((1, 5), dtype=int))
        np.testing.assert_allclose(scores, 0.0)

    def test_synonym_structure_bridged(self):
        # terms 0 and 1 co-occur, as do 3 and 4; a query on term 0 should
        # prefer the doc using only term 1 over docs from the other block
        model = train_lsi(self.COUNTS, k=2)
        scores = score_lsi(model, np.array([[2, 0, 0, 0, 0]]))[0]
        assert scores[1] > scores[3]

    def test_requested_k_capped_by_shape(self):
        factors = truncated_svd(np.random.default_rng(0).standard_normal((6, 4)), 10)
        assert len(factors.s) <= 4
        assert factors.requested_k == 10


class TestFactorsDataclass:
    def test_rank_properties(self):
        f = SvdFactors(u=np.eye(3), s=np.array([2.0, 1.0]),
                       vt=np.eye(3)[:2], requested_k=2)
        assert len(f.s) == 2 == f.requested_k
