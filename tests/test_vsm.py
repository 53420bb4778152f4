import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_counts, random_counts, traced_peak
from oracles import whole_cosine_scores
from ldikit import metrics
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
    def test_signed_and_zero_vectors(self):
        queries = np.array([[1.0, -1.0], [2.0, 0.0], [0.0, 0.0]])
        docs = np.array([[-1.0, 1.0], [1.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
        scores = cosine_scores(queries, docs)
        np.testing.assert_allclose(scores[0, 0], -1.0)
        np.testing.assert_allclose(scores[1, :3], [-(2 ** -0.5), 1.0, 0.6])
        # a zero vector (a text with no in-vocabulary term) scores +0.0
        # against everything, on either side
        zeros = np.concatenate([scores[2], scores[:, 3]])
        np.testing.assert_array_equal(zeros, 0.0)
        assert not np.signbit(zeros).any()


# What a scorer may allocate besides its output: one block of rows of
# temporaries, what its inputs take, the buffers of the numpy iterator
# (up to three operands of ``np.getbufsize()`` float64 elements) and a
# fixed allowance for the Python and numpy objects of the call.
ALLOWANCE = 3 * np.getbufsize() * 8 + (64 << 10)


def block_bytes(per_cell):
    return metrics.BLOCK_CELLS * per_cell


def csr_bytes(matrix):
    """A float64 CSR copy of ``matrix`` with int32 indices."""
    return matrix.nnz * (8 + 4) + (matrix.shape[0] + 1) * 4


class TestBlockedScores:
    """The scorers fill their output one block of rows at a time: bitwise
    the whole-matrix formulas, and no other temporary as large as it."""

    @pytest.mark.parametrize("block_cells", [metrics.BLOCK_CELLS, 12, 1])
    def test_cosine_equals_the_whole_formula(self, monkeypatch, block_cells):
        monkeypatch.setattr(metrics, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(9, 4))
        docs = rng.normal(size=(7, 4))
        queries[2] = 0.0                    # zero norm
        docs[4] = 0.0
        queries[5] = np.nan                 # NaN norm
        docs[1, 3] = np.nan
        with np.errstate(invalid="ignore"):
            want = whole_cosine_scores(queries, docs)
        got = cosine_scores(queries, docs)
        # bytes compare the sign of each zero, not just values
        assert got.tobytes() == want.tobytes()
        assert (got < 0).any()
        # zero-norm and NaN-norm rows score +0.0
        for zeros in (got[2], got[5], got[:, 4], got[:, 1]):
            np.testing.assert_array_equal(zeros, 0.0)
            assert not np.signbit(zeros).any()

    @pytest.mark.parametrize("block_cells", [90, 1])
    def test_tfidf_equals_the_whole_product(self, monkeypatch, block_cells):
        monkeypatch.setattr(metrics, "BLOCK_CELLS", block_cells)
        model = train_tfidf(random_counts(30, 11, seed=4))
        queries = random_counts(25, 11, seed=5).matrix
        q = tfidf_query_matrix(model.idf, queries)
        want = (q @ model.doc_vectors.T).toarray()
        got = score_tfidf(model, queries)
        assert len(metrics.row_blocks(*got.shape)) > 1
        assert got.tobytes() == want.tobytes()

    def test_cosine_holds_the_output_and_one_block(self):
        rng = np.random.default_rng(6)
        queries = rng.normal(size=(300, 4))
        docs = rng.normal(size=(400, 4))
        queries[rng.random(300) > 0.8] = 0.0    # zero vectors
        docs[rng.random(400) > 0.8] = 0.0
        scores, peak = traced_peak(lambda: cosine_scores(queries, docs))
        # per cell of a block: the norm products (8 bytes), where they are
        # positive and where not (1 each)
        bound = (scores.nbytes + block_bytes(8 + 1 + 1)
                 + queries.nbytes + docs.nbytes + ALLOWANCE)
        assert peak <= bound
        assert scores.nbytes > 2 * block_bytes(8 + 1 + 1)

    def test_tfidf_holds_the_output_and_one_block(self):
        # few terms in most documents and queries: a dense product
        model = train_tfidf(random_counts(600, 6, seed=7))
        queries = random_counts(400, 6, seed=8).matrix
        scores, peak = traced_peak(lambda: score_tfidf(model, queries))
        # a block's sparse product (8-byte value and 4-byte column per
        # cell); the transposed documents; the weighted query rows and the
        # copies taken to weight and normalise them
        bound = (scores.nbytes + block_bytes(8 + 4)
                 + csr_bytes(model.doc_vectors) + 4 * csr_bytes(queries)
                 + ALLOWANCE)
        assert peak <= bound
        assert scores.nbytes > 2 * block_bytes(8 + 4)


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
