import numpy as np
import pytest

from conftest import make_counts
from ldikit.demo import DOC_LABELS, TERMS, demo_corpus
from ldikit.lda import LdaModel
from ldikit.ldi import build_index, score_ldi, word_topic_matrix
from ldikit.vsm import cosine_scores


BETA = np.array([
    [0.6, 0.3, 0.0, 0.1],
    [0.2, 0.1, 0.5, 0.2],
])
MODEL = LdaModel(alpha=0.5, beta=BETA)


class TestWordTopicMatrix:
    def test_rows_normalize_over_topics(self):
        w = word_topic_matrix(BETA)
        assert w.shape == (4, 2)
        np.testing.assert_allclose(w.sum(axis=1), 1.0)
        np.testing.assert_allclose(w[0], [0.75, 0.25])

    def test_zero_column_falls_back_to_uniform(self):
        beta = np.array([[0.5, 0.0], [0.5, 0.0]])
        w = word_topic_matrix(beta)
        np.testing.assert_allclose(w[1], [0.5, 0.5])

    def test_term_similarity_metrics(self):
        # term-term similarity in topic space is the cosine of term rows
        w = word_topic_matrix(BETA)
        sims = cosine_scores(w, w)
        np.testing.assert_allclose(np.diag(sims), 1.0)
        assert np.all(sims >= 0.0) and np.all(sims <= 1.0 + 1e-12)
        assert sims[0, 1] == pytest.approx(
            w[0] @ w[1] / (np.linalg.norm(w[0]) * np.linalg.norm(w[1])))


class TestVectors:
    def test_document_vector_is_weighted_mean(self):
        w = word_topic_matrix(BETA)
        index = build_index(MODEL, make_counts([[2, 0, 1, 0]]).matrix)
        expected = (2 * w[0] + w[2]) / 3
        np.testing.assert_allclose(index.doc_vectors[0], expected)
        np.testing.assert_allclose(index.doc_vectors.sum(axis=1), 1.0)

    def test_single_term_document_equals_term_row(self):
        w = word_topic_matrix(BETA)
        vecs = build_index(MODEL, make_counts([[0, 0, 0, 3]]).matrix).doc_vectors
        np.testing.assert_allclose(vecs[0], w[3])

    def test_empty_document_is_the_zero_vector(self):
        w = word_topic_matrix(BETA)
        index = build_index(MODEL, make_counts([[0, 0, 0, 0], [1, 0, 0, 0]]).matrix)
        np.testing.assert_array_equal(index.doc_vectors[0], 0.0)
        np.testing.assert_allclose(index.doc_vectors[1], w[0])

    def test_query_vector(self):
        # a query is the length-weighted mean of its terms' topic rows
        w = word_topic_matrix(BETA)
        counts = make_counts([[2, 1, 0, 0], [0, 0, 3, 1]])
        index = build_index(MODEL, counts.matrix)
        query = (w[0] + w[1]) / 2
        expected = cosine_scores(query[None, :], index.doc_vectors)
        np.testing.assert_allclose(score_ldi(index, np.array([[1, 1, 0, 0]])),
                                   expected)

    def test_cosine_range(self):
        a = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(cosine_scores(a, b),
                                   [[0.0, 2 ** -0.5], [2 ** -0.5, 1.0],
                                    [0.0, 0.0]])


class TestScoring:
    COUNTS = make_counts([[2, 1, 0, 0], [0, 0, 3, 1], [0, 0, 0, 0]])

    def test_scores_in_unit_interval(self):
        index = build_index(MODEL, self.COUNTS.matrix)
        scores = score_ldi(index, self.COUNTS.matrix)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0 + 1e-12)

    def test_no_evidence_scores_zero(self):
        index = build_index(MODEL, self.COUNTS.matrix)
        scores = score_ldi(index, self.COUNTS.matrix)
        # document 2 is empty: zero against every query, and an empty
        # query is zero against every document
        np.testing.assert_allclose(scores[:, 2], 0.0)
        empty_q = score_ldi(index, np.zeros((1, 4), dtype=int))
        np.testing.assert_allclose(empty_q, 0.0)


class TestDemoModel:
    def test_apple_spreads_over_three_topics(self, demo_fit):
        w = word_topic_matrix(demo_fit.model.beta)
        apple = np.sort(w[TERMS.index("apple")])[::-1]
        assert apple[3] < 0.01
        assert apple[0] < 0.55
        assert apple[2] > 0.15

    def test_single_term_document_matches_term(self, demo_fit):
        corpus = demo_corpus()
        w = word_topic_matrix(demo_fit.model.beta)
        vecs = build_index(demo_fit.model, corpus.counts.matrix).doc_vectors
        fry_doc = DOC_LABELS.index("D3")
        np.testing.assert_allclose(vecs[fry_doc], w[TERMS.index("fry")])

    def test_polysemy_resolved(self, demo_fit):
        corpus = demo_corpus()
        index = build_index(demo_fit.model, corpus.counts.matrix)
        scores = score_ldi(index, corpus.query_counts)
        q3 = scores[2]
        # T3 shares no query term, D1 shares "apple"; topics still win
        assert q3[DOC_LABELS.index("T3")] > q3[DOC_LABELS.index("D1")]

    def test_self_similarity_one(self, demo_fit):
        corpus = demo_corpus()
        index = build_index(demo_fit.model, corpus.counts.matrix)
        scores = score_ldi(index, corpus.counts.matrix)
        np.testing.assert_allclose(np.diag(scores), 1.0, atol=1e-12)
