import numpy as np
import pytest

from oracles import (argsort_boost, argsort_cross_validate, grid_maps,
                     numeric_best_step)
from ldikit import metrics
from ldikit.corpus import judged_pairs
from ldikit.ensemble import (AP_CLIP, ScoreMatrix, combined_scores,
                             cross_validate, train_ensemble, ensemble_loss,
                             exp_loss_bound, normalize_weights,
                             reweight_queries, select_constituent, step_size,
                             validate_alignment)
from ldikit.metrics import ap_matrix, evaluate_scores

DOC_IDS = np.array([1, 2, 3, 4])
QUERY_IDS = np.array([10, 20, 30])
QRELS = judged_pairs({10: {1}, 20: {2}, 30: {3}})


def lexical_matrix():
    # perfect on the first two queries, ranks the third's target last
    return ScoreMatrix("lex", np.array([
        [0.9, 0.1, 0.0, 0.2],
        [0.1, 0.9, 0.0, 0.2],
        [0.09, 0.08, 0.0, 0.07],
    ]), QUERY_IDS, DOC_IDS)


def semantic_matrix():
    # the complement: only the third query comes out right
    return ScoreMatrix("sem", np.array([
        [0.0, 0.5, 0.6, 0.4],
        [0.5, 0.0, 0.6, 0.4],
        [0.1, 0.2, 0.9, 0.3],
    ]), QUERY_IDS, DOC_IDS)


def clipped_gradient(weights, aps, delta):
    """Derivative of the exponential objective the step size minimizes."""
    ap = np.clip(np.asarray(aps, dtype=float), AP_CLIP, 1.0 - AP_CLIP)
    w = np.asarray(weights, dtype=float)
    return float(w @ ((1 - ap) * np.exp(delta) - (1 + ap) * np.exp(-delta))) / 2


def clipped_curvature(weights, aps, delta):
    ap = np.clip(np.asarray(aps, dtype=float), AP_CLIP, 1.0 - AP_CLIP)
    w = np.asarray(weights, dtype=float)
    return float(w @ ((1 - ap) * np.exp(delta) + (1 + ap) * np.exp(-delta))) / 2


class TestScoreMatrix:
    def test_coerces_dtypes(self):
        m = ScoreMatrix("x", [[1, 2], [3, 4]], [1, 2], [7, 8])
        assert m.scores.dtype == float
        assert m.query_ids.dtype == np.int64 and m.doc_ids.dtype == np.int64

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="score shape"):
            ScoreMatrix("x", np.zeros((2, 3)), [1, 2], [7, 8])


class TestAlignment:
    def test_aligned_matrices_pass(self):
        validate_alignment([lexical_matrix(), semantic_matrix()])

    def test_query_id_mismatch_raises(self):
        other = ScoreMatrix("sem", semantic_matrix().scores,
                            np.array([10, 20, 99]), DOC_IDS)
        with pytest.raises(ValueError, match="sem.*query ids"):
            validate_alignment([lexical_matrix(), other])

    def test_doc_id_mismatch_raises(self):
        other = ScoreMatrix("sem", semantic_matrix().scores,
                            QUERY_IDS, np.array([1, 2, 3, 9]))
        with pytest.raises(ValueError, match="doc ids"):
            validate_alignment([lexical_matrix(), other])

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            validate_alignment([])

    def test_combined_scores_is_weighted_sum(self):
        a, b = lexical_matrix(), semantic_matrix()
        got = combined_scores(np.array([2.0, 0.5]), [a, b])
        np.testing.assert_allclose(got, 2.0 * a.scores + 0.5 * b.scores)

    def test_combined_scores_checks_weight_count(self):
        with pytest.raises(ValueError, match="one weight per constituent"):
            combined_scores(np.array([1.0]), [lexical_matrix(),
                                              semantic_matrix()])


class TestNormalizeWeights:
    def test_preserves_proportions(self):
        out = normalize_weights(np.array([3.0, 1.0]))
        np.testing.assert_allclose(out, [0.75, 0.25])

    def test_zero_total_raises(self):
        with pytest.raises(ValueError):
            normalize_weights(np.zeros(2))


class TestStepSize:
    def test_stationary_and_convex_on_random_instances(self):
        # the closed form must zero the objective's derivative, and the
        # objective must be strictly convex, on a wide sample of inputs
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            weights = rng.random(n) + 1e-3
            weights /= weights.sum()
            aps = rng.random(n)
            delta = step_size(weights, aps)
            assert abs(clipped_gradient(weights, aps, delta)) <= 1e-10
            for point in (-2.0, 0.0, delta, 3.0):
                assert clipped_curvature(weights, aps, point) > 0

    def test_matches_numeric_minimizer(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            weights = rng.random(4)
            weights /= weights.sum()
            aps = np.clip(rng.random(4), AP_CLIP, 1.0 - AP_CLIP)
            delta = step_size(weights, aps)
            numeric = numeric_best_step(weights, aps, grid=4001)
            # grid search cannot resolve the flat minimum past ~1e-8
            assert abs(delta - numeric) <= 1e-7

    def test_hand_value_at_half_precision(self):
        got = step_size(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(got, 0.5 * np.log(3.0), rtol=1e-12)

    def test_perfect_precision_stays_finite(self):
        delta = step_size(np.array([1.0]), np.array([1.0]))
        assert np.isfinite(delta)
        np.testing.assert_allclose(delta, 0.5 * np.log((2 - AP_CLIP) / AP_CLIP))

    def test_higher_precision_earns_larger_step(self):
        w = np.array([0.5, 0.5])
        assert step_size(w, np.array([0.9, 0.9])) > step_size(w, np.array([0.4, 0.4]))


class TestReweightQueries:
    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            aps = rng.random(int(rng.integers(1, 9)))
            np.testing.assert_allclose(reweight_queries(aps).sum(), 1.0,
                                       rtol=1e-12)

    def test_hand_value(self):
        got = reweight_queries(np.array([0.0, np.log(2.0)]))
        np.testing.assert_allclose(got, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)

    def test_failing_queries_gain_mass(self):
        out = reweight_queries(np.array([0.9, 0.2, 0.9]))
        assert out[1] > out[0] == out[2]

    def test_equal_precision_gives_uniform(self):
        np.testing.assert_allclose(reweight_queries(np.full(4, 0.37)), 0.25)


class TestLossBounds:
    def test_hand_values(self):
        aps = np.array([1.0, 0.25, 0.5])
        np.testing.assert_allclose(ensemble_loss(aps), 1.25)
        np.testing.assert_allclose(exp_loss_bound(aps),
                                   np.exp(-1) + np.exp(-0.25) + np.exp(-0.5))

    def test_exponential_bound_dominates_loss(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            aps = rng.random(int(rng.integers(1, 20)))
            assert ensemble_loss(aps) <= exp_loss_bound(aps)


class TestSelection:
    def test_weighted_ap_takes_argmax(self):
        table = np.array([[0.2, 0.9], [0.8, 0.1], [0.5, 0.5]])
        weights = np.array([0.9, 0.1])
        assert select_constituent(weights, table, {0, 1, 2}) == 1

    def test_tie_goes_to_lowest_index(self):
        table = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        weights = np.array([0.5, 0.5])
        assert select_constituent(weights, table, {0, 1, 2}) == 0
        assert select_constituent(weights, table, {1, 2}) == 1

    def test_pool_restricts_candidates(self):
        table = np.array([[0.9, 0.9], [0.2, 0.2]])
        weights = np.array([0.5, 0.5])
        assert select_constituent(weights, table, {1}) == 1


class TestTraining:
    def setup_method(self):
        self.matrices = [lexical_matrix(), semantic_matrix()]
        self.weights = train_ensemble(self.matrices, QRELS)

    def test_complementary_pair_fuses_to_perfect_map(self):
        assert self.weights.train_map == 1.0
        assert self.weights.converged
        assert len(self.weights.rounds) <= 5

    def test_round_trace_shape(self):
        tags = [r.tag for r in self.weights.rounds]
        assert tags[:2] == ["lex", "sem"]
        first = self.weights.rounds[0]
        np.testing.assert_allclose(first.delta, 0.5 * np.log(7.0), atol=1e-5)
        np.testing.assert_allclose(first.query_weights, 1.0 / 3.0)

    def test_query_weights_always_a_distribution(self):
        for r in self.weights.rounds:
            assert np.all(r.query_weights >= 0)
            np.testing.assert_allclose(r.query_weights.sum(), 1.0, rtol=1e-12)

    def test_failing_query_gains_weight_after_first_round(self):
        first, second = self.weights.rounds[:2]
        assert second.query_weights[2] > first.query_weights[2]
        assert second.query_weights[0] < first.query_weights[0]

    def test_reweighting_matches_ensemble_precision(self):
        for before, after in zip(self.weights.rounds, self.weights.rounds[1:]):
            scores = combined_scores(before.alpha, self.matrices)
            aps = ap_matrix([scores], QUERY_IDS, DOC_IDS, QRELS)[0]
            np.testing.assert_allclose(after.query_weights,
                                       reweight_queries(aps), rtol=1e-12)

    def test_loss_bound_dominates_loss_every_round(self):
        for r in self.weights.rounds:
            scores = combined_scores(r.alpha, self.matrices)
            aps = ap_matrix([scores], QUERY_IDS, DOC_IDS, QRELS)[0]
            assert ensemble_loss(aps) <= exp_loss_bound(aps)

    def test_pool_refills_once_exhausted(self):
        resets = [r.pool_reset for r in self.weights.rounds]
        assert resets[1]
        # after the reset the first constituent is eligible and picked again
        assert self.weights.rounds[2].tag == "lex"

    def test_returns_earliest_best_snapshot(self):
        maps = [r.ensemble_map for r in self.weights.rounds]
        best = maps.index(max(maps))
        assert self.weights.best_round == best
        np.testing.assert_array_equal(self.weights.alpha,
                                      self.weights.rounds[best].alpha)

    def test_final_weights_all_positive(self):
        assert np.all(self.weights.alpha > 0)
        np.testing.assert_allclose(self.weights.normalized().sum(), 1.0,
                                   rtol=1e-12)

    def test_cumulative_alpha_tracks_deltas(self):
        totals = np.zeros(2)
        for r in self.weights.rounds:
            totals[r.model_index] += r.delta
            np.testing.assert_allclose(r.alpha, totals, rtol=1e-12)

    def test_unjudged_queries_are_ignored(self):
        extra_ids = np.array([10, 20, 30, 40])
        padded = [ScoreMatrix(m.tag, np.vstack([m.scores, [0.1, 0.1, 0.1, 0.1]]),
                              extra_ids, DOC_IDS) for m in self.matrices]
        same = train_ensemble(padded, QRELS)
        np.testing.assert_allclose(same.alpha, self.weights.alpha, rtol=1e-12)

    def test_no_judged_queries_raises(self):
        with pytest.raises(ValueError, match="judged"):
            train_ensemble(self.matrices, judged_pairs({99: {1}}))

    def test_round_limit_reports_no_convergence(self):
        capped = train_ensemble(self.matrices, QRELS, max_rounds=1)
        assert not capped.converged
        assert len(capped.rounds) == 1

    def test_single_constituent_snapshots_first_peak(self):
        solo = train_ensemble([lexical_matrix()], QRELS)
        maps = [r.ensemble_map for r in solo.rounds]
        assert solo.best_round == maps.index(max(maps))
        assert solo.rounds[0].pool_reset


def halves_fixture():
    # six judged queries over three documents; one ranker nails the first
    # half, the other the second half
    query_ids = np.array([1, 2, 3, 4, 5, 6])
    doc_ids = np.array([1, 2, 3])
    qrels = {int(q): {((q - 1) % 3) + 1} for q in query_ids}
    rng = np.random.default_rng(0)

    def strong(rel):
        row = rng.random(3) * 0.3
        row[rel - 1] = 1.0
        return row

    def weak(rel):
        row = rng.random(3) * 0.3 + 0.5
        row[rel - 1] = 0.0
        return row

    first = np.array([strong(min(qrels[int(q)])) if q <= 3
                      else weak(min(qrels[int(q)])) for q in query_ids])
    second = np.array([weak(min(qrels[int(q)])) if q <= 3
                       else strong(min(qrels[int(q)])) for q in query_ids])
    return [ScoreMatrix("lex", first, query_ids, doc_ids),
            ScoreMatrix("sem", second, query_ids, doc_ids)], judged_pairs(qrels)


class TestCrossValidate:
    def test_folds_partition_judged_queries(self):
        matrices, qrels = halves_fixture()
        report = cross_validate(matrices, qrels, n_folds=2, seed=0)
        assert len(report.folds) == 2
        seen = np.sort(np.concatenate([f.test_rows for f in report.folds]))
        np.testing.assert_array_equal(seen, np.arange(6))
        for fold in report.folds:
            assert not set(fold.train_rows) & set(fold.test_rows)
            assert len(fold.train_rows) + len(fold.test_rows) == 6

    def test_same_seed_same_folds(self):
        matrices, qrels = halves_fixture()
        a = cross_validate(matrices, qrels, n_folds=2, seed=4)
        b = cross_validate(matrices, qrels, n_folds=2, seed=4)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa.test_rows, fb.test_rows)
            np.testing.assert_allclose(fa.test_map, fb.test_map)

    def test_report_means(self):
        matrices, qrels = halves_fixture()
        report = cross_validate(matrices, qrels, n_folds=3, seed=1)
        np.testing.assert_allclose(
            report.mean_test_map,
            np.mean([f.test_map for f in report.folds]))
        means = report.mean_constituent_test_maps()
        assert set(means) == {"lex", "sem"}
        for value in means.values():
            assert 0.0 <= value <= 1.0

    def test_too_many_folds_raises(self):
        matrices, qrels = halves_fixture()
        with pytest.raises(ValueError, match="fold count"):
            cross_validate(matrices, qrels, n_folds=7)

    @pytest.mark.parametrize("fit, bad", [
        (lambda m, q: cross_validate(m, q, n_folds=1), "n_folds"),
        (lambda m, q: cross_validate(m, q, n_folds=0), "n_folds"),
        (lambda m, q: cross_validate(m, q, max_rounds=0), "max_rounds"),
        (lambda m, q: train_ensemble(m, q, max_rounds=0), "max_rounds"),
    ], ids=["folds-1", "folds-0", "crossval-rounds-0", "train-rounds-0"])
    def test_bad_fold_or_round_count_names_the_argument(self, fit, bad):
        matrices, qrels = halves_fixture()
        with pytest.raises(ValueError, match=bad):
            fit(matrices, qrels)

    def test_fold_maps_use_each_folds_own_judgments(self):
        # two equal-size folds whose queries judge different documents: a
        # fold scored with the other fold's judgments gets different MAPs
        rng = np.random.default_rng(5)
        query_ids = np.arange(1, 13)
        doc_ids = np.arange(1, 31)
        qrels = judged_pairs({
            int(q): set(rng.choice(doc_ids, size=int(rng.integers(1, 8)),
                                   replace=False).tolist())
            for q in query_ids})
        matrices = [ScoreMatrix(tag, rng.random((12, 30)), query_ids, doc_ids)
                    for tag in ("a", "b", "c")]
        report = cross_validate(matrices, qrels, n_folds=2, seed=3,
                                max_rounds=5)
        assert [len(f.test_rows) for f in report.folds] == [6, 6]
        for fold in report.folds:
            test_mats = [ScoreMatrix(m.tag, m.scores[fold.test_rows],
                                     query_ids[fold.test_rows], doc_ids)
                         for m in matrices]

            def fold_map(scores):
                return evaluate_scores(scores, query_ids[fold.test_rows],
                                       doc_ids, qrels).map_score
            assert fold.test_map == fold_map(
                combined_scores(fold.weights.alpha, test_mats))
            assert fold.uniform_test_map == fold_map(
                combined_scores(np.full(3, 1 / 3), test_mats))
            assert fold.constituent_test_maps == {
                m.tag: fold_map(m.scores) for m in test_mats}


def boosting_layout(rng, n_models):
    """Constituent score matrices over unsorted, gapped doc ids, some
    queries unjudged; ties (integer scores, 0.0 against -0.0) span
    relevant and non-relevant documents."""
    n_queries, n_docs = int(rng.integers(4, 16)), int(rng.integers(3, 60))
    doc_ids = rng.choice(4 * n_docs, size=n_docs, replace=False) + 1
    query_ids = rng.choice(1000, size=n_queries, replace=False) + 1
    qrels = {int(q): set(rng.choice(doc_ids, size=int(rng.integers(1, n_docs)),
                                    replace=False).tolist())
             for q in query_ids if rng.random() < 0.85}
    kinds = [lambda shape: rng.integers(0, 3, shape).astype(float),
             lambda shape: rng.choice([0.0, -0.0, 0.25, 1.0], size=shape),
             lambda shape: rng.random(shape)]
    scores = [kinds[int(rng.integers(3))]((n_queries, n_docs))
              for _ in range(n_models)]
    return scores, query_ids, doc_ids, qrels


class TestAgainstTheArgsortLoop:
    """Boosting and cross-validation on the value-sort kernel equal the
    loop that ranked the full fused matrix by argsort, bit for bit."""

    @pytest.mark.parametrize("block_cells", [metrics.BLOCK_CELLS, 30])
    def test_every_round_is_equal(self, monkeypatch, block_cells):
        monkeypatch.setattr(metrics, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 25:
            scores, query_ids, doc_ids, qrels = boosting_layout(
                rng, int(rng.integers(1, 5)))
            if not qrels:
                continue
            checked += 1
            mats = [ScoreMatrix(f"m{i}", s, query_ids, doc_ids)
                    for i, s in enumerate(scores)]
            got = train_ensemble(mats, judged_pairs(qrels), eps=-1.0,
                                 max_rounds=8)
            want = argsort_boost(scores, query_ids, doc_ids, qrels, eps=-1.0,
                                 max_rounds=8)
            assert len(got.rounds) == len(want)
            for r, (chosen, delta, map_, change, weights, alpha, reset) in zip(
                    got.rounds, want):
                assert r.model_index == chosen and r.pool_reset == reset
                assert r.delta == delta and r.ensemble_map == map_
                assert r.map_change == change
                assert (r.query_weights == weights).all()
                assert (r.alpha == alpha).all()

    @pytest.mark.parametrize("block_cells", [metrics.BLOCK_CELLS, 30])
    def test_every_fold_is_equal(self, monkeypatch, block_cells):
        monkeypatch.setattr(metrics, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 15:
            scores, query_ids, doc_ids, qrels = boosting_layout(rng, 3)
            if len(qrels) < 3:
                continue
            checked += 1
            mats = [ScoreMatrix(f"m{i}", s, query_ids, doc_ids)
                    for i, s in enumerate(scores)]
            n_folds = int(rng.integers(2, 4))
            report = cross_validate(mats, judged_pairs(qrels), n_folds=n_folds,
                                    seed=checked, eps=-1.0, max_rounds=5)
            want = argsort_cross_validate(scores, query_ids, doc_ids, qrels,
                                          n_folds=n_folds, seed=checked,
                                          eps=-1.0, max_rounds=5)
            assert len(report.folds) == len(want)
            for fold, (train_rows, test_rows, alpha, test_map, uniform_map,
                       constituent_maps) in zip(report.folds, want):
                assert fold.train_rows.tolist() == train_rows.tolist()
                assert fold.test_rows.tolist() == test_rows.tolist()
                assert (fold.weights.alpha == alpha).all()
                assert fold.test_map == test_map
                assert fold.uniform_test_map == uniform_map
                assert list(fold.constituent_test_maps.values()) == constituent_maps

    @pytest.mark.parametrize("doc_ids", [[1, 2, 3, 4], [4, 3, 2, 1]])
    def test_a_boosting_run_builds_one_layout_plan(self, monkeypatch, doc_ids):
        # the constituents' table and all 20 rounds rank through one plan,
        # whether or not the matrices start in the judged layout
        built = []
        plan = metrics.Judgments._layout_plan
        monkeypatch.setattr(metrics.Judgments, "_layout_plan",
                            lambda judged: built.append(judged) or plan(judged))
        mats = [ScoreMatrix(m.tag, m.scores, QUERY_IDS, doc_ids)
                for m in (lexical_matrix(), semantic_matrix())]
        weights = train_ensemble(mats, QRELS, eps=-1.0, max_rounds=20)
        assert len(weights.rounds) == 20
        assert len(built) == 1

    def test_constituent_table_from_the_caller_is_used(self):
        mats = [lexical_matrix(), semantic_matrix()]
        table = ap_matrix([m.scores for m in mats], QUERY_IDS, DOC_IDS, QRELS)
        given = train_ensemble(mats, QRELS, ap_table=table)
        assert [r.delta for r in given.rounds] == [
            r.delta for r in train_ensemble(mats, QRELS).rounds]
        # a different table steers the first pick
        swapped = train_ensemble(mats, QRELS, ap_table=table[::-1])
        assert swapped.rounds[0].tag == "sem"
        with pytest.raises(ValueError, match="ap_table"):
            train_ensemble(mats, QRELS, ap_table=table[:, :2])


def planted_fusion(seed, n_queries=60, n_docs=200):
    """Three constituents of one planted relevance, on different score
    scales: each query's relevant documents score higher than noise by a
    skill drawn per constituent and query, so the constituents err on
    different queries.  Returns (score list, query ids, doc ids, qrels)."""
    rng = np.random.default_rng(seed)
    relevant = rng.random((n_queries, n_docs)) < 0.05
    relevant[np.arange(n_queries), rng.integers(n_docs, size=n_queries)] = True
    skill = rng.gamma(1.0, 1.0, size=(3, n_queries))
    scores = [scale * (skill[i][:, None] * relevant
                       + rng.normal(size=(n_queries, n_docs)))
              for i, scale in enumerate([1.0, 0.3, 3.0])]
    query_ids, doc_ids = np.arange(1, n_queries + 1), np.arange(1, n_docs + 1)
    qrels = {int(q): set(doc_ids[row].tolist())
             for q, row in zip(query_ids, relevant)}
    return scores, query_ids, doc_ids, qrels


class TestAgainstTheWeightGrid:
    """Boosting's training MAP comes within GAP of the best weights on the
    simplex grid at step 1/20, every point ranked by the argsort kernel.

    The gap is wide because boosting's step reads only AP, not the
    constituents' score scales, which differ tenfold here: at SEED the grid
    reaches MAP 0.5086 and boosting 0.4389 (a gap of 0.0697), while the
    best single constituent reaches 0.3363."""

    SEED = 0
    GAP = 0.08

    def test_boosting_reaches_the_grid_optimum(self):
        scores, query_ids, doc_ids, qrels = planted_fusion(self.SEED)
        points, maps = grid_maps(scores, query_ids, doc_ids, qrels, steps=20)
        assert len(points) == 231
        mats = [ScoreMatrix(f"m{i}", s, query_ids, doc_ids)
                for i, s in enumerate(scores)]
        weights = train_ensemble(mats, judged_pairs(qrels))
        assert weights.train_map >= maps.max() - self.GAP
