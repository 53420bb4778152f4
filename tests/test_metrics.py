import numpy as np
import pytest

from conftest import traced_peak
from oracles import (argsort_average_precisions, argsort_curves,
                     argsort_hit_precisions, argsort_ranking,
                     brute_force_average_precision, brute_force_pr_curve,
                     cube_curves, whole_weighted_sum)
from ldikit import metrics
from ldikit.corpus import judged_pairs
from ldikit.ensemble import ScoreMatrix, combined_scores
from ldikit.metrics import (EvalReport, Judgments, ap_matrix,
                            average_precision, evaluate_scores,
                            macro_average_curve, mean_average_precision,
                            pr_curve, rank_documents)


class TestRanking:
    def test_descending_scores(self):
        ranked = rank_documents(np.array([0.1, 0.9, 0.5]), np.array([1, 2, 3]))
        np.testing.assert_array_equal(ranked, [2, 3, 1])

    def test_ties_break_by_ascending_id(self):
        ranked = rank_documents(np.array([0.5, 0.5, 0.5]), np.array([30, 10, 20]))
        np.testing.assert_array_equal(ranked, [10, 20, 30])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rank_documents(np.zeros(3), np.zeros(2))


class TestAveragePrecision:
    def test_hand_values(self):
        # relevant at ranks 1 and 3: (1/1 + 2/3) / 2
        assert average_precision([7, 5, 9, 4], {7, 9}) == pytest.approx(5 / 6)
        assert average_precision([7, 5, 9], {5}) == pytest.approx(0.5)
        assert average_precision([1, 2], {1, 2}) == 1.0

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            average_precision([1, 2], set())

    def test_missing_relevant_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            average_precision([1, 2], {3})

    def test_matches_brute_force_on_random_rankings(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            m = int(rng.integers(2, 51))
            ids = rng.permutation(m) + 1
            n_rel = int(rng.integers(1, min(m, 10) + 1))
            relevant = set(rng.choice(ids, size=n_rel, replace=False).tolist())
            expected = brute_force_average_precision(ids.tolist(), relevant)
            assert average_precision(ids.tolist(), relevant) == expected

    def test_map_is_plain_mean(self):
        assert mean_average_precision([0.5, 1.0]) == 0.75
        with pytest.raises(ValueError):
            mean_average_precision([])


class TestPrCurve:
    def test_perfect_ranking(self):
        curve = pr_curve([1, 2, 3, 4], {1, 2})
        np.testing.assert_allclose(curve, np.ones(11))

    def test_single_relevant_at_rank_two(self):
        curve = pr_curve([9, 1, 8], {1})
        # precision 1/2 at recall 1.0, interpolated back to recall 0
        np.testing.assert_allclose(curve, np.full(11, 0.5))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            m = int(rng.integers(2, 40))
            ids = rng.permutation(m) + 1
            n_rel = int(rng.integers(1, m + 1))
            relevant = set(rng.choice(ids, size=n_rel, replace=False).tolist())
            np.testing.assert_allclose(pr_curve(ids.tolist(), relevant),
                                       brute_force_pr_curve(ids.tolist(), relevant))

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ids = rng.permutation(30) + 1
            relevant = set(rng.choice(ids, size=5, replace=False).tolist())
            curve = pr_curve(ids.tolist(), relevant)
            assert np.all(np.diff(curve) <= 1e-12)

    def test_closed_form_equals_comparison_cube_for_every_count(self):
        # relevant counts 1..5,000; precisions fall strictly along each
        # row, so every level's value names the hit it was read from
        for lo in range(1, 5001, 250):
            counts = np.arange(lo, lo + 250)
            hit = np.arange(counts.max())
            precisions = np.where(hit < counts[:, None], 1.0 / (hit + 1), 0.0)
            assert (metrics._curves(precisions, counts)
                    == cube_curves(precisions, counts)).all(), lo


class TestEvaluateScores:
    SCORES = np.array([[0.9, 0.2, 0.5], [0.1, 0.8, 0.3], [0.2, 0.3, 0.4]])
    DOC_IDS = np.array([10, 20, 30])
    QUERY_IDS = np.array([1, 2, 3])

    def test_basic_report(self):
        qrels = judged_pairs({1: {10}, 2: {20, 30}, 3: {10}})
        report = evaluate_scores(self.SCORES, self.QUERY_IDS, self.DOC_IDS, qrels)
        assert report.per_query_ap[1] == 1.0
        assert report.per_query_ap[2] == pytest.approx(1.0)
        assert report.per_query_ap[3] == pytest.approx(1 / 3)
        assert report.map_score == pytest.approx((1 + 1 + 1 / 3) / 3)
        assert report.skipped_queries == []

    def test_unjudged_queries_skipped_not_zeroed(self):
        qrels = judged_pairs({1: {10}, 3: {30}})
        report = evaluate_scores(self.SCORES, self.QUERY_IDS, self.DOC_IDS, qrels)
        assert report.skipped_queries == [2]
        assert set(report.per_query_ap) == {1, 3}
        assert report.map_score == pytest.approx((1.0 + 1.0) / 2)

    def test_no_judged_queries_rejected(self):
        with pytest.raises(ValueError, match="no judged queries"):
            evaluate_scores(self.SCORES, self.QUERY_IDS, self.DOC_IDS,
                            judged_pairs({}))

    def test_shape_check(self):
        with pytest.raises(ValueError):
            evaluate_scores(self.SCORES[:, :2], self.QUERY_IDS, self.DOC_IDS,
                            judged_pairs({1: {10}}))

    def test_report_serializes(self):
        qrels = judged_pairs({1: {10}})
        report = evaluate_scores(self.SCORES, self.QUERY_IDS, self.DOC_IDS, qrels)
        doc = report.to_dict()
        assert doc["map"] == report.map_score
        assert len(doc["interpolated_precision"]) == 11
        assert doc["per_query_ap"]["1"] == 1.0
        assert isinstance(report, EvalReport)

    def test_macro_curve_is_mean(self):
        curves = [np.ones(11), np.zeros(11)]
        np.testing.assert_allclose(macro_average_curve(curves), np.full(11, 0.5))


class TestApMatrix:
    def test_judged_columns_only(self):
        scores_a = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.4]])
        scores_b = np.array([[0.1, 0.9], [0.9, 0.1], [0.4, 0.5]])
        qrels = judged_pairs({1: {10}, 3: {20}})
        table = ap_matrix([scores_a, scores_b], [1, 2, 3], [10, 20], qrels)
        assert table.shape == (2, 2)
        np.testing.assert_allclose(table[0], [1.0, 0.5])
        np.testing.assert_allclose(table[1], [0.5, 1.0])

    def test_no_judged_queries_gives_no_columns(self):
        table = ap_matrix([np.zeros((2, 2))] * 3, [1, 2], [10, 20],
                          judged_pairs({}))
        assert table.shape == (3, 0)


def random_layout(rng, kind):
    n_queries, n_docs = int(rng.integers(1, 25)), int(rng.integers(1, 120))
    if kind == "ties":
        scores = rng.integers(0, 4, (n_queries, n_docs)).astype(float)
    elif kind == "signed-zeros":
        scores = rng.choice([0.0, -0.0, 0.25, 1.0], size=(n_queries, n_docs))
    else:
        scores = rng.random((n_queries, n_docs))
    # unsorted, gapped doc ids
    doc_ids = rng.choice(5 * n_docs + 5, size=n_docs, replace=False) + 1
    query_ids = np.arange(n_queries) + 100
    qrels = {int(q): set(rng.choice(doc_ids, size=int(rng.integers(1, n_docs + 1)),
                                    replace=False).tolist())
             for q in query_ids if rng.random() < 0.7}
    return scores, query_ids, doc_ids, qrels


class TestBatchedKernel:
    @pytest.mark.parametrize("block_cells", [metrics.BLOCK_CELLS, 50])
    @pytest.mark.parametrize("kind", ["ties", "signed-zeros", "continuous"])
    def test_matches_one_ranking_at_a_time(self, monkeypatch, kind, block_cells):
        monkeypatch.setattr(metrics, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(17)
        for _ in range(60):
            scores, query_ids, doc_ids, qrels = random_layout(rng, kind)
            if not qrels:
                continue
            pairs = judged_pairs(qrels)
            report = evaluate_scores(scores, query_ids, doc_ids, pairs)
            table = ap_matrix([scores, -scores], query_ids, doc_ids, pairs)
            judged = Judgments(query_ids, doc_ids, pairs)
            assert judged.query_ids.tolist() == [q for q in query_ids.tolist()
                                                 if q in qrels]
            curves = []
            for col, qi in enumerate(judged.rows):
                relevant = qrels[int(query_ids[qi])]
                ranked = rank_documents(scores[qi], doc_ids)
                ap = average_precision(ranked, relevant)
                assert ap == brute_force_average_precision(ranked.tolist(), relevant)
                assert report.per_query_ap[int(query_ids[qi])] == ap
                assert table[0, col] == ap
                assert table[1, col] == average_precision(
                    rank_documents(-scores[qi], doc_ids), relevant)
                curve = pr_curve(ranked, relevant)
                assert (curve == brute_force_pr_curve(ranked.tolist(), relevant)).all()
                curves.append(curve)
            assert (report.curve == macro_average_curve(curves)).all()
            assert report.skipped_queries == [q for q in query_ids.tolist()
                                              if q not in qrels]

    def test_nan_scores_rank_last_by_id(self):
        rng = np.random.default_rng(2)
        scores = rng.random((3, 500))
        scores[rng.random((3, 500)) < 0.4] = np.nan
        doc_ids = rng.permutation(500) + 1
        qrels = {q: set(rng.choice(doc_ids, size=20, replace=False).tolist())
                 for q in (1, 2, 3)}
        report = evaluate_scores(scores, [1, 2, 3], doc_ids,
                                 judged_pairs(qrels))
        for row, q in zip(scores, (1, 2, 3)):
            ranked = argsort_ranking(row, doc_ids)
            assert rank_documents(row, doc_ids).tolist() == ranked.tolist()
            assert report.per_query_ap[q] == brute_force_average_precision(
                ranked.tolist(), qrels[q])

    def test_relevant_document_outside_the_ranking_rejected(self):
        scores = np.array([[0.2, 0.1], [0.3, 0.4]])
        qrels = {1: {10}, 2: {20, 99}}
        with pytest.raises(ValueError, match="missing"):
            evaluate_scores(scores, [1, 2], [10, 20], judged_pairs(qrels))
        with pytest.raises(ValueError, match="missing"):
            ap_matrix([scores], [1, 2], [10, 20], judged_pairs(qrels))
        with pytest.raises(ValueError, match="missing"):
            average_precision(rank_documents(scores[1], np.array([10, 20])),
                              qrels[2])

    def test_repeated_document_ids_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            evaluate_scores(np.zeros((1, 3)), [1], [10, 20, 10],
                            judged_pairs({1: {20}}))

    def test_explicit_ranking_counts_a_repeated_document_once(self):
        # the second 5 holds a rank but is not a second hit
        assert average_precision([5, 7, 5, 9], {5, 9}) == (1 + 2 / 4) / 2
        assert (pr_curve([5, 7, 5, 9], {5, 9}) == pr_curve([5, 7, 8, 9], {5, 9})).all()


def hard_layout(rng):
    """A small score layout with every case the ranking rule names: ties
    spanning relevant and non-relevant documents, 0.0 against -0.0, NaN,
    +-inf, unsorted gapped doc ids, unjudged queries."""
    n_queries, n_docs = int(rng.integers(1, 12)), int(rng.integers(1, 90))
    shape = (n_queries, n_docs)
    kind = rng.integers(5)
    if kind == 0:
        scores = rng.integers(0, 3, shape).astype(float)
    elif kind == 1:
        scores = rng.choice([0.0, -0.0, 0.5, -0.5], size=shape)
    elif kind == 2:
        scores = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0], size=shape)
    elif kind == 3:
        scores = rng.random(shape)
        scores[rng.random(shape) < 0.1] = np.nan
        scores[rng.random(shape) < 0.1] = np.inf
    else:
        scores = rng.random(shape)
    doc_ids = rng.choice(5 * n_docs + 5, size=n_docs, replace=False) + 1
    if rng.random() < 0.3:
        doc_ids.sort()
    query_ids = np.arange(n_queries) + 1
    qrels = {int(q): set(rng.choice(doc_ids, size=int(rng.integers(1, n_docs + 1)),
                                    replace=False).tolist())
             for q in query_ids if rng.random() < 0.85}
    return scores, query_ids, doc_ids, qrels


class TestValueSortKernel:
    """Ranks counted from a value-only sort equal the argsort kernel's,
    bit for bit (``oracles.argsort_hit_precisions``)."""

    @pytest.mark.parametrize("block_cells", [metrics.BLOCK_CELLS, 40, 1])
    def test_equals_the_argsort_kernel(self, monkeypatch, block_cells):
        monkeypatch.setattr(metrics, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 150:
            scores, query_ids, doc_ids, qrels = hard_layout(rng)
            if not qrels:
                continue
            checked += 1
            pairs = judged_pairs(qrels)
            judged = Judgments(query_ids, doc_ids, pairs)
            rows, want, _ = argsort_hit_precisions(scores, query_ids, doc_ids,
                                                   qrels)
            assert (judged.rows == rows).all()
            got = judged.hit_precisions(scores)
            assert got.shape == want.shape and (got == want).all()
            layout = Judgments(judged.query_ids, judged.doc_ids, pairs)
            assert layout.in_layout
            assert (layout.hit_precisions(judged.gather(scores)) == want).all()
            aps = argsort_average_precisions(scores, query_ids, doc_ids, qrels)
            assert (judged.average_precisions(scores) == aps).all()
            assert (ap_matrix([scores], query_ids, doc_ids, pairs)[0] == aps).all()
            report = evaluate_scores(scores, query_ids, doc_ids, pairs)
            assert list(report.per_query_ap.values()) == aps.tolist()
            curves = argsort_curves(scores, query_ids, doc_ids, qrels)
            assert (report.curve == curves.mean(axis=0)).all()
            # one row at a time: the ranking, then AP and the curve of it
            for row in scores:
                assert (rank_documents(row, doc_ids)
                        == argsort_ranking(row, doc_ids)).all()
            for j, qi in enumerate(rows):
                ranked = rank_documents(scores[qi], doc_ids)
                relevant = qrels[int(query_ids[qi])]
                assert average_precision(ranked, relevant) == aps[j]
                assert (pr_curve(ranked, relevant) == curves[j]).all()

    @pytest.mark.parametrize("block_cells", [6, 12, 18])
    def test_tie_in_rows_on_both_sides_of_a_block_boundary(self, monkeypatch,
                                                         block_cells):
        # rows of six documents, one to three rows per block: the same
        # value ties relevant and non-relevant documents in every row, so
        # a count that ran across rows would be off in some block
        monkeypatch.setattr(metrics, "BLOCK_CELLS", block_cells)
        scores = np.array([[0.5, 0.5, 0.9, 0.5, 0.1, 0.5],
                           [0.5, 0.2, 0.5, 0.5, 0.5, 0.0],
                           [0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
                           [-0.0, 0.0, 0.5, 0.0, -0.0, 0.5]])
        doc_ids = np.array([60, 20, 50, 10, 40, 30])
        query_ids = np.array([1, 2, 3, 4])
        qrels = {1: {20, 10}, 2: {60, 40}, 3: {30, 50}, 4: {60, 40, 50}}
        _, want, _ = argsort_hit_precisions(scores, query_ids, doc_ids, qrels)
        assert (Judgments(query_ids, doc_ids, judged_pairs(qrels))
                .hit_precisions(scores) == want).all()
        # ranks by hand for query 3: every score ties, so ids decide
        assert want[2, :2].tolist() == [1 / 3, 2 / 5]

    def test_judged_layout(self):
        scores = np.array([[0.2, 0.9, 0.1], [0.3, 0.3, 0.4]])
        both = judged_pairs({1: {6}, 2: {5, 7}})
        assert Judgments([1, 2], [5, 6, 7], both).in_layout
        assert not Judgments([1, 2], [5, 6, 7],
                             judged_pairs({2: {5, 7}})).in_layout
        unsorted = Judgments([1, 2], [7, 6, 5], both)
        assert not unsorted.in_layout
        assert (unsorted.doc_ids == [5, 6, 7]).all()
        assert (unsorted.gather(scores) == scores[:, ::-1]).all()
        assert (unsorted.gather(scores, [1]) == scores[1:, ::-1]).all()


def ulp_layout(rng):
    """A score layout whose rows hold ulp neighbours: each cell is one of a
    few base values stepped up to three ulps either way (``np.nextafter``),
    so scores differ in their last bit or tie exactly, with 0.0 against
    -0.0 among the bases."""
    n_queries, n_docs = int(rng.integers(1, 12)), int(rng.integers(1, 90))
    shape = (n_queries, n_docs)
    bases = rng.choice([0.0, -0.0, 0.1, 1.0 / 3.0, 1.0, 1e-300],
                       size=int(rng.integers(1, 4)))
    scores = rng.choice(bases, size=shape)
    for _ in range(3):
        step = rng.integers(-1, 2, shape)
        scores = np.where(step > 0, np.nextafter(scores, np.inf),
                          np.where(step < 0, np.nextafter(scores, -np.inf),
                                   scores))
    doc_ids = rng.choice(5 * n_docs + 5, size=n_docs, replace=False) + 1
    query_ids = np.arange(n_queries) + 1
    qrels = {int(q): set(rng.choice(doc_ids, size=int(rng.integers(1, n_docs + 1)),
                                    replace=False).tolist())
             for q in query_ids if rng.random() < 0.85}
    return scores, query_ids, doc_ids, qrels


class TestUlpNeighbours:
    @pytest.mark.parametrize("block_cells", [metrics.BLOCK_CELLS, 40, 1])
    def test_equals_the_argsort_kernel(self, monkeypatch, block_cells):
        monkeypatch.setattr(metrics, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 100:
            scores, query_ids, doc_ids, qrels = ulp_layout(rng)
            if not qrels:
                continue
            checked += 1
            _, want, _ = argsort_hit_precisions(scores, query_ids, doc_ids,
                                                qrels)
            got = Judgments(query_ids, doc_ids,
                            judged_pairs(qrels)).hit_precisions(scores)
            assert got.shape == want.shape and (got == want).all()


class TestWeightedSum:
    """AP of a weighted sum ranked block by block equals AP of the whole
    sum ``combined_scores`` writes, bit for bit; the sum itself, taken one
    block of rows at a time, is bitwise the whole-matrix formula."""

    @pytest.mark.parametrize("block_cells", [metrics.BLOCK_CELLS, 40, 1])
    @pytest.mark.parametrize("make, seed", [(hard_layout, 67), (ulp_layout, 71)])
    def test_blockwise_sum_equals_the_whole_sum(self, monkeypatch, block_cells,
                                                make, seed):
        monkeypatch.setattr(metrics, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(seed)
        checked = 0
        while checked < 60:
            scores, query_ids, doc_ids, qrels = make(rng)
            if not qrels:
                continue
            checked += 1
            # the other constituents: the same layout's scores reversed
            # along each row, and integer scores that tie
            parts = [scores, scores[:, ::-1],
                     rng.integers(0, 3, scores.shape).astype(float)]
            n = int(rng.integers(1, 4))
            weights = rng.choice([0.0, 0.5, 1.0, rng.random()], size=n)
            mats = [ScoreMatrix(f"m{i}", parts[i], query_ids, doc_ids)
                    for i in range(n)]
            pairs = judged_pairs(qrels)
            judged = Judgments(query_ids, doc_ids, pairs)
            with np.errstate(invalid="ignore"):
                whole = combined_scores(weights, mats)
                got = judged.weighted_average_precisions(weights, parts[:n])
            want = judged.average_precisions(whole)
            assert (got == want).all()
            assert (got == argsort_average_precisions(
                whole, query_ids, doc_ids, qrels)).all()

    def test_rows_on_both_sides_of_a_block_boundary(self, monkeypatch):
        # rows of six documents, two rows per block: the sum ties relevant
        # and non-relevant documents in every row
        monkeypatch.setattr(metrics, "BLOCK_CELLS", 12)
        first = np.array([[0.5, 0.25, 0.5, 0.0, 0.25, 0.5]] * 5)
        second = np.array([[0.0, 0.25, 0.0, 0.5, 0.25, 0.0]] * 5)
        doc_ids = np.array([60, 20, 50, 10, 40, 30])
        query_ids = np.arange(5) + 1
        qrels = {1: {20, 10}, 2: {60, 40}, 3: {30, 50}, 4: {60, 40, 50},
                 5: {10}}
        judged = Judgments(query_ids, doc_ids, judged_pairs(qrels))
        got = judged.weighted_average_precisions([1.0, 1.0], [first, second])
        want = argsort_average_precisions(first + second, query_ids, doc_ids,
                                          qrels)
        assert (got == want).all()
        # every sum ties at 0.5, so ids decide: ranks 3 and 5 for query 3
        assert got[2] == (1 / 3 + 2 / 5) / 2

    @pytest.mark.parametrize("block_cells", [15, 1])
    def test_sum_equals_the_whole_formula(self, monkeypatch, block_cells):
        monkeypatch.setattr(metrics, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(73)
        parts = [rng.normal(size=(11, 7)) for _ in range(3)]
        # -0.0 terms: a sum that starts from +0.0 gives +0.0 there, one
        # that starts from its first term gives -0.0
        parts[0][2, :] = -0.0
        parts[1][2, :3] = -0.0
        parts[2][2, :] = 0.0            # times -0.5: -0.0
        parts[1][5, 4] = np.nan
        parts[2][8] = np.nan
        weights = [0.75, 1.0, -0.5]
        for n in (1, 2, 3):
            want = whole_weighted_sum(weights[:n], parts[:n])
            got = metrics.weighted_sum(zip(weights, parts[:n]),
                                       np.empty((11, 7)))
            assert got.tobytes() == want.tobytes()
        assert len(metrics.row_blocks(11, 7)) > 1

    def test_term_buffer_is_one_block(self):
        # each product is one block of rows; only ``out`` is whole
        parts = [np.ones((400, 500)) for _ in range(3)]
        out = np.empty((400, 500))
        _, peak = traced_peak(
            lambda: metrics.weighted_sum(zip([1.0, 2.0, 3.0], parts), out))
        assert peak <= metrics.BLOCK_CELLS * 8 + (16 << 10)
        assert out.nbytes > 4 * metrics.BLOCK_CELLS * 8
        assert (out == 6.0).all()


def pairs_layout(rng):
    """A score layout whose judgments exercise the pairs lookup: query ids
    that repeat in the matrix, unjudged queries, shuffled gapped doc ids,
    and judged pairs (some of unknown documents) for queries the matrix
    does not hold."""
    n_rows, n_docs = int(rng.integers(1, 14)), int(rng.integers(1, 70))
    pool = rng.choice(60, size=8, replace=False) + 1
    query_ids = rng.choice(pool[:6], size=n_rows)
    doc_ids = rng.permutation(rng.choice(4 * n_docs + 4, size=n_docs,
                                         replace=False) + 1)
    qrels = {int(q): set(rng.choice(doc_ids, size=int(rng.integers(1, n_docs + 1)),
                                    replace=False).tolist())
             for q in pool[:6] if rng.random() < 0.7}
    for q in pool[6:]:
        qrels[int(q)] = set((rng.choice(8 * n_docs, size=3) + 1).tolist())
    if rng.random() < 0.5:
        scores = rng.integers(0, 3, (n_rows, n_docs)).astype(float)
    else:
        scores = rng.random((n_rows, n_docs))
    return scores, query_ids, doc_ids, qrels


class TestJudgedPairs:
    """``Judgments`` reads the sorted pairs array; the dict-based argsort
    oracle gives the same rows, counts and hit precisions."""

    def test_equals_the_dict_oracle(self):
        rng = np.random.default_rng(53)
        seen = dict.fromkeys(["repeat", "unjudged", "unsorted", "absent"], 0)
        for _ in range(300):
            scores, query_ids, doc_ids, qrels = pairs_layout(rng)
            judged = Judgments(query_ids, doc_ids, judged_pairs(qrels))
            rows, want, counts = argsort_hit_precisions(scores, query_ids,
                                                        doc_ids, qrels)
            assert judged.rows.tolist() == rows.tolist()
            assert judged.counts.tolist() == counts.tolist()
            assert (judged.query_ids == query_ids[rows]).all()
            got = judged.hit_precisions(scores)
            assert got.shape == want.shape and (got == want).all()
            if len(rows):
                assert (judged.average_precisions(scores)
                        == argsort_average_precisions(scores, query_ids,
                                                      doc_ids, qrels)).all()
            seen["repeat"] += len(set(query_ids[rows].tolist())) < len(rows)
            seen["unjudged"] += len(rows) < len(query_ids)
            seen["unsorted"] += bool((np.diff(doc_ids) < 0).any())
            seen["absent"] += bool(set(qrels) - set(query_ids.tolist()))
        assert min(seen.values()) >= 30, seen

    @pytest.mark.parametrize("pairs", [
        [[2, 10], [1, 20]],             # queries out of order
        [[1, 20], [1, 10]],             # docs out of order
        [[1, 10], [1, 10]],             # a repeated pair
    ])
    def test_unsorted_or_repeated_pairs_rejected(self, pairs):
        with pytest.raises(ValueError, match="strictly increasing"):
            Judgments([1, 2], [10, 20], np.array(pairs))

    @pytest.mark.parametrize("qrels", [
        np.array([1, 10]),
        np.zeros((2, 3), dtype=np.int64),
        np.array([[1.0, 10.0]]),
        {1: {10}},
    ])
    def test_wrong_shape_or_type_rejected(self, qrels):
        with pytest.raises(ValueError, match=r"\(n, 2\) integer array"):
            Judgments([1, 2], [10, 20], qrels)

    def test_missing_relevant_document_is_named(self):
        pairs = judged_pairs({1: {10}, 2: {20, 99, 98}, 5: {77}})
        with pytest.raises(ValueError, match=r"relevant documents missing "
                                             r"from ranking: \[98, 99\]$"):
            Judgments([1, 2], [10, 20], pairs)
