import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_counts, random_counts
import ldikit.lda as lda
import ldikit.plsa as plsa
from oracles import (dense_tempered_em_step, dense_tempered_objective,
                     tempered_objective)
from ldikit.lda import TokenCells
from ldikit.plsa import (PlsaModel, _em_pass, fold_in, holdout_perplexity,
                         score_plsa, split_holdout, train_plsa)


def random_tables(n_docs, n_terms, k, seed):
    rng = np.random.default_rng(seed)
    p_dz = rng.random((n_docs, k)) + 0.1
    p_dz /= p_dz.sum(axis=1, keepdims=True)
    p_wz = rng.random((k, n_terms)) + 0.1
    p_wz /= p_wz.sum(axis=1, keepdims=True)
    return p_dz, p_wz


def block_counts(seed=7):
    # two groups of documents over disjoint halves of the vocabulary
    rng = np.random.default_rng(seed)
    dense = np.zeros((12, 12), dtype=int)
    dense[:6, :6] = rng.integers(1, 4, size=(6, 6))
    dense[6:, 6:] = rng.integers(1, 4, size=(6, 6))
    return make_counts(dense)


class TestHoldoutSplit:
    def test_split_conserves_counts(self):
        counts = random_counts(15, 9, 0)
        train, held = split_holdout(counts.matrix, 0.3, seed=4)
        np.testing.assert_array_equal((train + held).toarray(),
                                      counts.matrix.toarray())

    def test_split_is_nonnegative_integer(self):
        counts = random_counts(15, 9, 1)
        train, held = split_holdout(counts.matrix, 0.4, seed=2)
        for part in (train, held):
            assert part.dtype == np.int64
            assert part.data.min(initial=0) >= 0

    def test_fraction_zero_holds_nothing(self):
        counts = random_counts(6, 5, 2)
        train, held = split_holdout(counts.matrix, 0.0, seed=0)
        assert held.nnz == 0
        np.testing.assert_array_equal(train.toarray(), counts.matrix.toarray())

    def test_fraction_one_holds_everything(self):
        counts = random_counts(6, 5, 3)
        train, held = split_holdout(counts.matrix, 1.0, seed=0)
        assert train.nnz == 0
        np.testing.assert_array_equal(held.toarray(), counts.matrix.toarray())

    def test_seed_controls_split(self):
        counts = random_counts(40, 25, 4)
        a1, b1 = split_holdout(counts.matrix, 0.2, seed=9)
        a2, b2 = split_holdout(counts.matrix, 0.2, seed=9)
        np.testing.assert_array_equal(a1.toarray(), a2.toarray())
        np.testing.assert_array_equal(b1.toarray(), b2.toarray())
        _, b3 = split_holdout(counts.matrix, 0.2, seed=10)
        assert not np.array_equal(b1.toarray(), b3.toarray())


class TestTemperedObjective:
    def test_matches_dense_oracle(self):
        for seed in range(5):
            counts = random_counts(8, 6, seed)
            p_dz, p_wz = random_tables(8, 6, 3, seed + 50)
            for beta_temp in (1.0, 0.8, 0.5):
                got = tempered_objective(counts.matrix, p_dz, p_wz, beta_temp)
                want = dense_tempered_objective(counts.matrix.toarray(),
                                                p_dz, p_wz, beta_temp)
                np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("em_chunk", [lda.DOC_CHUNK, 3],
                             ids=["one-block", "three-blocks"])
    def test_em_pass_tables_match_dense_oracle(self, em_chunk):
        # the sparse product gives the tables of an EM step cell by cell,
        # whether the documents run in one block or in several
        counts = random_counts(8, 6, 3)
        blocks = TokenCells.blocks(counts.matrix, em_chunk)
        p_dz, p_wz = random_tables(8, 6, 3, 53)
        for beta_temp in (1.0, 0.7):
            new_dz, new_wz, _ = _em_pass(blocks, p_dz, p_wz, beta_temp)
            want_dz, want_wz = dense_tempered_em_step(counts.matrix.toarray(),
                                                      p_dz, p_wz, beta_temp)
            np.testing.assert_allclose(new_dz, want_dz, rtol=1e-12)
            np.testing.assert_allclose(new_wz, want_wz, rtol=1e-12)

    def test_lower_temperature_raises_objective(self):
        # probabilities below one grow when raised to an exponent below one
        counts = random_counts(10, 7, 6)
        p_dz, p_wz = random_tables(10, 7, 2, 60)
        assert (tempered_objective(counts.matrix, p_dz, p_wz, 0.7)
                > tempered_objective(counts.matrix, p_dz, p_wz, 1.0))


class TestHoldoutPerplexity:
    def test_uniform_model_scores_vocabulary_size(self):
        counts = random_counts(9, 12, 7)
        p_dz = np.full((9, 3), 1.0 / 3)
        p_wz = np.full((3, 12), 1.0 / 12)
        np.testing.assert_allclose(
            holdout_perplexity(TokenCells(counts.matrix), p_dz, p_wz), 12.0,
            rtol=1e-9)

    def test_empty_holdout_is_nan(self):
        empty = sp.csr_matrix((4, 5), dtype=np.int64)
        p_dz, p_wz = random_tables(4, 5, 2, 8)
        assert np.isnan(holdout_perplexity(TokenCells(empty), p_dz, p_wz))

    def test_unmodeled_term_stays_finite(self):
        held = make_counts([[3, 0]]).matrix
        p_dz = np.array([[1.0]])
        p_wz = np.array([[0.0, 1.0]])
        perp = holdout_perplexity(TokenCells(held), p_dz, p_wz)
        assert np.isfinite(perp) and perp > 1.0

    def test_perplexity_at_least_one(self):
        counts = random_counts(8, 6, 9)
        p_dz, p_wz = random_tables(8, 6, 3, 90)
        assert holdout_perplexity(TokenCells(counts.matrix), p_dz, p_wz) >= 1.0


def blocks_monotone(trace, slack=1e-8):
    """Objective never drops between passes run at the same temperature."""
    for (b_prev, v_prev), (b_next, v_next) in zip(trace, trace[1:]):
        if b_prev == b_next:
            if v_next < v_prev - slack * max(1.0, abs(v_prev)):
                return False
    return True


class TestTraining:
    def test_objective_monotone_within_each_temperature(self):
        for seed in range(3):
            counts = random_counts(30, 20, seed + 20)
            result = train_plsa(counts, k=3, seed=seed)
            assert blocks_monotone(result.objective_trace)

    def test_anneal_visits_multiple_temperatures(self):
        counts = random_counts(30, 20, 11)
        result = train_plsa(counts, k=3, seed=5)
        betas = [b for b, _ in result.objective_trace]
        assert len(set(betas)) >= 2
        # temperatures only ever move downward
        assert all(b2 <= b1 for b1, b2 in zip(betas, betas[1:]))

    def test_temperature_stays_in_schedule_range(self, monkeypatch):
        monkeypatch.setattr(plsa, "BETA_DECAY", 0.8)
        counts = random_counts(25, 15, 12)
        result = train_plsa(counts, k=2, seed=3)
        betas = [b for b, _ in result.objective_trace]
        assert max(betas) == plsa.BETA_START
        assert min(betas) >= plsa.MIN_BETA - 1e-12
        assert plsa.MIN_BETA - 1e-12 <= result.model.beta_temp <= 1.0

    def test_tables_are_row_distributions(self):
        counts = random_counts(20, 10, 13)
        model = train_plsa(counts, k=4, seed=1).model
        assert np.all(model.p_dz >= 0) and np.all(model.p_wz >= 0)
        np.testing.assert_allclose(model.p_dz.sum(axis=1), 1.0, rtol=1e-9)
        np.testing.assert_allclose(model.p_wz.sum(axis=1), 1.0, rtol=1e-9)

    def test_document_with_no_count_gets_a_zero_row(self):
        # document 5 has no count; document 6's one token is held out at
        # the first seed that holds it out, so EM saw no count of it
        # either: it is folded in like a query
        rows = random_counts(20, 15, 16).matrix.toarray()
        rows[5] = 0
        rows[6] = 0
        rows[6, 2] = 1
        counts = make_counts(rows)
        seed = next(s for s in range(100) if split_holdout(
            counts.matrix, plsa.HOLDOUT_FRACTION, s)[1][6].nnz)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = train_plsa(counts, k=3, seed=seed).model
        np.testing.assert_array_equal(model.p_dz[5], 0.0)
        np.testing.assert_array_equal(model.p_dz[6],
                                      fold_in(model, rows[6:7])[0][0])
        others = np.delete(model.p_dz, 5, axis=0)
        np.testing.assert_allclose(others.sum(axis=1), 1.0, rtol=1e-9)
        np.testing.assert_array_equal(score_plsa(model, rows)[:, 5], 0.0)

    def test_returns_best_holdout_snapshot(self):
        counts = random_counts(30, 20, 11)
        result = train_plsa(counts, k=3, seed=5)
        held = split_holdout(counts.matrix, plsa.HOLDOUT_FRACTION, 5)[1]
        refit_perp = holdout_perplexity(TokenCells(held),
                                        result.model.p_dz, result.model.p_wz)
        np.testing.assert_allclose(refit_perp, min(result.perplexity_trace),
                                   rtol=1e-12)

    def test_split_matrices_recompose_corpus(self):
        counts = random_counts(18, 14, 14)
        train, held = split_holdout(counts.matrix, plsa.HOLDOUT_FRACTION, 6)
        assert train.nnz and held.nnz
        np.testing.assert_array_equal((train + held).toarray(),
                                      counts.matrix.toarray())

    def test_same_seed_reproduces_fit(self):
        counts = random_counts(20, 12, 15)
        first = train_plsa(counts, k=3, seed=2)
        second = train_plsa(counts, k=3, seed=2)
        np.testing.assert_array_equal(first.model.p_wz, second.model.p_wz)
        np.testing.assert_array_equal(first.model.p_dz, second.model.p_dz)
        assert first.objective_trace == second.objective_trace

    def test_seed_changes_fit(self):
        counts = random_counts(20, 12, 16)
        first = train_plsa(counts, k=3, seed=0).model
        second = train_plsa(counts, k=3, seed=1).model
        assert not np.allclose(first.p_wz, second.p_wz)

    def test_rejects_topic_count_below_one(self):
        counts = random_counts(5, 4, 17)
        with pytest.raises(ValueError):
            train_plsa(counts, k=0)

    def test_no_holdout_runs_single_temperature_budget(self, monkeypatch):
        monkeypatch.setattr(plsa, "HOLDOUT_FRACTION", 0.0)
        monkeypatch.setattr(plsa, "MAX_ITERS_PER_BETA", 25)
        counts = block_counts()
        assert split_holdout(counts.matrix, plsa.HOLDOUT_FRACTION,
                             0)[1].nnz == 0
        result = train_plsa(counts, k=2, seed=0)
        assert result.perplexity_trace == []
        assert len(result.objective_trace) == 25
        assert all(b == plsa.BETA_START for b, _ in result.objective_trace)

    def test_each_block_built_once_per_fit(self, monkeypatch,
                                           token_cells_built):
        # three training blocks of at most 8 documents and the held-out
        # cells, built once before the first pass of the anneal
        monkeypatch.setattr(lda, "DOC_CHUNK", 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train_plsa(random_counts(20, 15, 16), k=3, seed=0)
        assert len(result.objective_trace) > 1
        assert len({t for t, _ in result.objective_trace}) > 1
        assert token_cells_built == [8, 8, 4, 20]

    def test_iteration_cap_warns(self, monkeypatch):
        monkeypatch.setattr(plsa, "MAX_TOTAL_ITERS", 1)
        counts = random_counts(12, 8, 18)
        with pytest.warns(UserWarning, match="iteration cap"):
            train_plsa(counts, k=2, seed=0)

    def test_every_capped_fit_warns(self, monkeypatch):
        # once per fit, not once per process as the default filter would
        monkeypatch.setattr(plsa, "MAX_TOTAL_ITERS", 1)
        counts = random_counts(12, 8, 18)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(3):
                train_plsa(counts, k=2, seed=0)
        assert [str(w.message) for w in caught] == [
            "tempered EM hit the total iteration cap"] * 3


# One seeded fit under four schedules, pinned as the per-temperature anneal
# loop produced them before it became one helper: passes at each
# temperature, final temperature, lowest held-out perplexity (None without
# a held-out split) and whether the total-cap warning fired.
ANNEAL_PINS = {
    "defaults": ({}, [6, 5, 2, 2], 0.81, 20.476985152293434, False),
    "total-cap-7": ({"MAX_TOTAL_ITERS": 7}, [6, 1], 0.9,
                    20.51318946576622, True),
    "per-temperature-cap-3": ({"MAX_ITERS_PER_BETA": 3}, [3, 3, 3, 2, 2],
                              0.729, 20.45664668058765, False),
    "no-holdout": ({"HOLDOUT_FRACTION": 0.0}, [200], 1.0, None, False),
}


@pytest.mark.parametrize("case", list(ANNEAL_PINS))
def test_anneal_pins(case, monkeypatch):
    settings, passes, beta_final, best_perp, capped = ANNEAL_PINS[case]
    for name, value in settings.items():
        monkeypatch.setattr(plsa, name, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = train_plsa(random_counts(30, 20, 11), k=3, seed=5)
    betas = [b for b, _ in result.objective_trace]
    assert [len(list(run)) for _, run in itertools.groupby(betas)] == passes
    assert result.model.beta_temp == pytest.approx(beta_final, rel=1e-12)
    if best_perp is None:
        assert result.perplexity_trace == []
    else:
        assert min(result.perplexity_trace) == pytest.approx(best_perp,
                                                             rel=1e-12)
    assert any("iteration cap" in str(w.message) for w in caught) == capped


class TestFoldIn:
    def setup_method(self):
        self.p_wz = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2]])
        self.model = PlsaModel(p_dz=np.full((4, 2), 0.5),
                               p_wz=self.p_wz.copy(), beta_temp=1.0)

    def test_word_tables_stay_frozen(self):
        before = self.model.p_wz.copy()
        fold_in(self.model, np.array([[2.0, 1.0, 0.0]]))
        np.testing.assert_array_equal(self.model.p_wz, before)

    def test_mixtures_are_distributions(self):
        rows = sp.csr_matrix(np.array([[2, 1, 0], [0, 0, 3], [1, 1, 1]]))
        mix, evidence = fold_in(self.model, rows)
        assert mix.shape == (3, 2)
        assert np.all(mix >= 0)
        np.testing.assert_allclose(mix.sum(axis=1), 1.0, rtol=1e-9)
        assert evidence.all()

    def test_mixed_evidence_reaches_stationary_point(self):
        # two votes for the first topic's term, one for the second's:
        # the stationary mixture puts five sixths of the mass on topic one
        mix, _ = fold_in(self.model, np.array([[2.0, 1.0, 0.0]]))
        np.testing.assert_allclose(mix[0, 0], 5.0 / 6.0, atol=1e-4)

    def test_single_term_concentrates(self):
        mix, _ = fold_in(self.model, np.array([[5.0, 0.0, 0.0]]))
        assert mix[0, 0] > 0.999

    def test_no_evidence_row_is_zero(self):
        rows = np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 0.0]])
        mix, evidence = fold_in(self.model, rows)
        assert not evidence[0] and evidence[1]
        np.testing.assert_array_equal(mix[0], 0.0)
        # the row with terms still reaches its stationary point
        np.testing.assert_array_equal(mix[1], fold_in(self.model, rows[1:])[0][0])
        np.testing.assert_allclose(mix[1, 0], 5.0 / 6.0, atol=1e-4)
        assert fold_in(self.model, np.zeros((0, 3)))[0].shape == (0, 2)

    def test_fold_in_respects_model_temperature(self):
        cool = PlsaModel(p_dz=self.model.p_dz, p_wz=self.p_wz.copy(),
                         beta_temp=0.3)
        hot_mix, _ = fold_in(self.model, np.array([[2.0, 1.0, 0.0]]))
        cool_mix, _ = fold_in(cool, np.array([[2.0, 1.0, 0.0]]))
        assert not np.allclose(hot_mix, cool_mix, atol=1e-3)

    def test_vector_input_gives_single_row(self):
        mix, evidence = fold_in(self.model, np.array([1.0, 2.0, 0.0]))
        assert mix.shape == (1, 2) and evidence.shape == (1,)


class TestScoring:
    @pytest.fixture(autouse=True)
    def fit(self, monkeypatch):
        monkeypatch.setattr(plsa, "HOLDOUT_FRACTION", 0.0)
        monkeypatch.setattr(plsa, "MAX_ITERS_PER_BETA", 60)
        self.model = train_plsa(block_counts(), k=2, seed=0).model

    def test_query_retrieves_its_vocabulary_block(self):
        query = np.zeros((1, 12))
        query[0, 0], query[0, 2] = 2, 1
        scores = score_plsa(self.model, query)[0]
        assert scores[:6].min() > scores[6:].max()

    def test_scores_within_unit_interval(self):
        rng = np.random.default_rng(5)
        queries = sp.csr_matrix(rng.integers(0, 3, size=(6, 12)))
        scores = score_plsa(self.model, queries)
        assert np.all(scores >= -1e-12) and np.all(scores <= 1 + 1e-12)

    def test_no_evidence_query_scores_zero(self):
        scores = score_plsa(self.model, np.zeros((1, 12)))
        np.testing.assert_array_equal(scores, np.zeros((1, 12)))
