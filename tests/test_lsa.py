import numpy as np
import pytest
import scipy.sparse as sp

from oracles import jacobi_svd
from ldikit.corpus import TermDocCounts
from ldikit.lsa import SvdFactors, score_lsi, train_lsi, truncated_svd
from ldikit.vsm import tfidf_query_matrix


def make_counts(rows):
    matrix = sp.csr_matrix(np.asarray(rows, dtype=np.int64))
    return TermDocCounts(matrix=matrix,
                         doc_lengths=np.asarray(matrix.sum(axis=1)).ravel())


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
        assert factors.k == 1
        assert factors.rank_deficient

    def test_sign_convention(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((12, 7))
        factors = truncated_svd(a, 4)
        for i in range(factors.k):
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
        assert factors.k <= 4
        assert factors.requested_k == 10


class TestFactorsDataclass:
    def test_rank_properties(self):
        f = SvdFactors(u=np.eye(3), s=np.array([2.0, 1.0]),
                       vt=np.eye(3)[:2], requested_k=2)
        assert f.k == 2 and not f.rank_deficient
