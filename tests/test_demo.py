import numpy as np
import pytest

from ldikit.demo import (DOC_LABELS, DOC_TERM_COUNTS, QUERY_TERMS, RELEVANT,
                         REFERENCE_TOPIC_SIMS, TERMS, demo_boosting,
                         demo_corpus, fit_demo_topics)
from ldikit.ensemble import ScoreMatrix, train_ensemble
from ldikit.ldi import build_index, score_ldi
from ldikit.metrics import evaluate_scores
from ldikit.vsm import score_tfidf, train_tfidf

# document rows per subject group, following DOC_LABELS order
GROUPS = {"technology": [0, 1, 2], "business": [3, 4],
          "diet": [5, 6, 7], "genetics": [8, 9]}


class TestCanonicalCounts:
    def test_table_shape_and_totals(self):
        assert DOC_TERM_COUNTS.shape == (len(DOC_LABELS), len(TERMS))
        assert DOC_TERM_COUNTS.sum() == 31
        column_sums = DOC_TERM_COUNTS.sum(axis=0)
        by_term = dict(zip(TERMS, column_sums))
        assert by_term["apple"] == 4
        assert by_term["fry"] == 3
        others = [t for t in TERMS if t not in ("apple", "fry")]
        assert all(by_term[t] == 2 for t in others)

    def test_single_term_document(self):
        row = DOC_TERM_COUNTS[DOC_LABELS.index("D3")]
        assert row.sum() == 1
        assert TERMS[int(np.nonzero(row)[0][0])] == "fry"

    def test_corpus_wraps_table(self):
        corpus = demo_corpus()
        np.testing.assert_array_equal(corpus.counts.matrix.toarray(),
                                      DOC_TERM_COUNTS)
        assert corpus.vocabulary.terms == TERMS
        np.testing.assert_array_equal(corpus.counts.doc_lengths,
                                      DOC_TERM_COUNTS.sum(axis=1))

    def test_query_rows_match_term_lists(self):
        corpus = demo_corpus()
        dense = corpus.query_counts.toarray()
        for row, terms in zip(dense, QUERY_TERMS):
            expected = np.zeros(len(TERMS), dtype=int)
            for term in terms:
                expected[corpus.vocabulary[term]] += 1
            np.testing.assert_array_equal(row, expected)

    def test_judgments_are_copies(self):
        first = demo_corpus()
        with pytest.raises(ValueError, match="read-only"):
            first.qrels[0, 1] = 99
        # each corpus owns its array: unlocking one changes no other
        first.qrels.flags.writeable = True
        first.qrels[0, 1] = 99
        assert 99 not in demo_corpus().qrels[:, 1]
        assert demo_corpus().qrels.tolist() == [
            [q, d] for q in sorted(RELEVANT) for d in sorted(RELEVANT[q])]

    def test_checksum_is_pinned(self):
        # the judgments hash as sorted int64 (query id, doc id) pairs
        assert demo_corpus().checksum() == (
            "3b5ea48efcb698c437462b57d03996199d873b7a4b31c27229658331582ccbfe")

    def test_checksum_is_stable(self):
        assert demo_corpus().checksum() == demo_corpus().checksum()


class TestDemoFit:
    def test_fit_converges(self, demo_fit):
        assert demo_fit.converged
        assert demo_fit.model.beta.shape[0] == 4

    def test_each_group_owns_one_topic(self, demo_fit):
        mix = demo_fit.gamma / demo_fit.gamma.sum(axis=1, keepdims=True)
        owners = {}
        for name, rows in GROUPS.items():
            tops = {int(np.argmax(mix[r])) for r in rows}
            assert len(tops) == 1, f"{name} split over topics {tops}"
            owners[name] = tops.pop()
            assert min(mix[r].max() for r in rows) >= 0.6
        assert len(set(owners.values())) == len(GROUPS)

    def test_same_seed_is_bitwise_reproducible(self):
        first = fit_demo_topics(seed=3)
        second = fit_demo_topics(seed=3)
        np.testing.assert_array_equal(first.model.beta, second.model.beta)
        np.testing.assert_array_equal(first.gamma, second.gamma)


class TestReferenceSims:
    def test_shape_and_range(self):
        assert REFERENCE_TOPIC_SIMS.shape == (3, 10)
        assert np.all(REFERENCE_TOPIC_SIMS > 0)
        assert np.all(REFERENCE_TOPIC_SIMS < 1)

    def test_precision_profile(self):
        corpus = demo_corpus()
        report = evaluate_scores(REFERENCE_TOPIC_SIMS, corpus.query_ids,
                                 corpus.doc_ids, corpus.qrels)
        # strong on the queries the keyword ranker also gets, weak only on
        # the first: its target slips to the second rank
        assert report.per_query_ap[1] == 0.5
        assert report.per_query_ap[2] == 1.0
        assert report.per_query_ap[3] == 1.0


class TestDemoBoosting:
    def setup_method(self):
        self.weights = demo_boosting()

    def test_reaches_perfect_map(self):
        assert self.weights.train_map == 1.0
        assert self.weights.converged
        assert len(self.weights.rounds) <= 5

    def test_round_order_keyword_then_topic(self):
        tags = [r.tag for r in self.weights.rounds]
        assert tags[0] == "tfidf" and tags[1] == "ldi"

    def test_weak_query_gains_weight_after_first_round(self):
        first, second = self.weights.rounds[:2]
        assert second.query_weights[1] > first.query_weights[1]
        np.testing.assert_allclose(first.query_weights, 1.0 / 3.0)

    def test_both_constituents_weighted_positive(self):
        assert np.all(self.weights.alpha > 0)
        np.testing.assert_allclose(self.weights.alpha, [1.77767, 1.23088],
                                   atol=1e-3)

    def test_pool_refills_after_both_picked(self):
        assert self.weights.rounds[1].pool_reset

    def test_live_topic_fit_also_fuses_cleanly(self, demo_fit):
        # the keyword ranker fused with the fitted topic index in place of
        # the reference similarities
        corpus = demo_corpus()
        keyword = score_tfidf(train_tfidf(corpus.counts), corpus.query_counts)
        topical = score_ldi(build_index(demo_fit.model, corpus.counts.matrix),
                            corpus.query_counts)
        mats = [ScoreMatrix(tag, scores, corpus.query_ids, corpus.doc_ids)
                for tag, scores in (("tfidf", keyword), ("ldi", topical))]
        live = train_ensemble(mats, corpus.qrels)
        assert live.train_map == 1.0
        assert live.converged
