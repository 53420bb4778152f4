import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_counts
from ldikit.demo import demo_corpus
from ldikit.metrics import average_precision, rank_documents
from ldikit.vsm import (cosine_scores, score_tfidf, tfidf_query_matrix,
                        train_tfidf)


class TestTrain:
    def test_weights_by_hand(self):
        # term 0 in both docs (idf ln1 = 0), term 1 only in doc 0 (idf ln2)
        counts = make_counts([[2, 3], [1, 0]])
        model = train_tfidf(counts)
        np.testing.assert_allclose(model.idf, [0.0, np.log(2)])
        dense = model.doc_vectors.toarray()
        np.testing.assert_allclose(dense[0], [0.0, 1.0])
        # doc 1 has only a zero-weight term, so its vector stays zero
        np.testing.assert_allclose(dense[1], [0.0, 0.0])

    def test_rows_unit_length(self):
        rng = np.random.default_rng(0)
        counts = make_counts(rng.integers(0, 4, size=(20, 12)))
        model = train_tfidf(counts)
        norms = np.sqrt(np.asarray(
            model.doc_vectors.multiply(model.doc_vectors).sum(axis=1)).ravel())
        nonzero = norms > 0
        np.testing.assert_allclose(norms[nonzero], 1.0, atol=1e-12)

    def test_zero_df_rejected(self):
        with pytest.raises(ValueError):
            train_tfidf(make_counts([[1, 0], [2, 0]]))


class TestScoring:
    COUNTS = make_counts([[2, 0, 1], [0, 1, 1], [1, 1, 0]])

    def test_self_query_is_top(self):
        model = train_tfidf(self.COUNTS)
        scores = score_tfidf(model, self.COUNTS.matrix)
        for i in range(3):
            assert np.argmax(scores[i]) == i
            assert scores[i, i] == pytest.approx(1.0)

    def test_cosine_by_hand(self):
        counts = make_counts([[1, 1], [1, 0], [2, 1]])
        model = train_tfidf(counts)
        idf = np.log(np.array([3 / 3, 3 / 2]))
        doc0 = np.array([1 * idf[0], 1 * idf[1]])
        doc0 /= np.linalg.norm(doc0)
        query = np.array([0, 2]) * idf
        query = query / np.linalg.norm(query)
        scores = score_tfidf(model, np.array([[0, 2]]))
        assert scores.shape == (1, 3)
        assert scores[0, 0] == pytest.approx(float(doc0 @ query))

    def test_out_of_vocabulary_query_scores_zero(self):
        model = train_tfidf(self.COUNTS)
        scores = score_tfidf(model, np.zeros((1, 3), dtype=int))
        np.testing.assert_allclose(scores, 0.0)

    def test_query_length_checked(self):
        model = train_tfidf(self.COUNTS)
        with pytest.raises(ValueError):
            score_tfidf(model, np.ones((1, 5), dtype=int))

    def test_query_matrix_normalized(self):
        model = train_tfidf(self.COUNTS)
        q = tfidf_query_matrix(model.idf, sp.csr_matrix(np.array([[1, 2, 0]])))
        norm = float(np.sqrt(q.multiply(q).sum()))
        assert norm == pytest.approx(1.0)


class TestCosineScores:
    def test_signed_vectors_and_masks(self):
        queries = np.array([[1.0, -1.0], [2.0, 0.0]])
        docs = np.array([[-1.0, 1.0], [1.0, 0.0], [3.0, 4.0]])
        plain = cosine_scores(queries, docs)
        np.testing.assert_allclose(plain[0, 0], -1.0)
        np.testing.assert_allclose(plain[1], [-(2 ** -0.5), 1.0, 0.6])
        masked = cosine_scores(queries, docs, np.array([True, False]),
                               np.array([True, True, False]))
        np.testing.assert_array_equal(masked[1], 0.0)
        np.testing.assert_array_equal(masked[:, 2], 0.0)
        np.testing.assert_array_equal(masked[0, :2], plain[0, :2])


class TestDemoBehavior:
    def test_keyword_ap_profile(self):
        # the middle query ranks a same-length keyword twin above one
        # relevant document, giving the ensemble something to repair
        corpus = demo_corpus()
        model = train_tfidf(corpus.counts)
        scores = score_tfidf(model, corpus.query_counts)
        aps = []
        for qi, qid in enumerate(corpus.query_ids):
            ranked = rank_documents(scores[qi], corpus.doc_ids)
            relevant = corpus.qrels[corpus.qrels[:, 0] == qid, 1]
            aps.append(average_precision(ranked, relevant))
        np.testing.assert_allclose(aps, [1.0, 5 / 6, 1.0])
