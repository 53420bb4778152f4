import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import gammaln, polygamma, psi, zeta

from conftest import bound_never_drops, make_counts, random_counts
import ldikit.lda as lda
from oracles import (corpus_bound, dirichlet_multinomial_log_likelihood,
                     log_space_chunk_estep, log_space_terms_at,
                     rebuilt_chunk_estep, two_topic_log_likelihood_quadrature)
from ldikit.corpus import TermDocCounts
from ldikit.lda import (ALPHA_MAX, ALPHA_MIN, NORM_FLOOR, TOPIC_SMOOTHING,
                        LdaModel, TokenCells, seeded_topic_start, train_lda)


def block_with_empty_ends():
    # documents of varied length between an empty first and last row
    rng = np.random.default_rng(12)
    dense = rng.integers(0, 4, size=(9, 14)) * (rng.random((9, 14)) < 0.4)
    dense[0] = 0
    dense[-1] = 0
    dense[3, 5] += 6
    return sp.csr_matrix(dense)


def random_beta(k, n_terms, seed):
    beta = np.random.default_rng(seed).random((k, n_terms)) + 0.05
    return beta / beta.sum(axis=1, keepdims=True)


def start_gamma(matrix, alpha, k):
    return np.tile(alpha + np.asarray(matrix.sum(axis=1), dtype=float) / k,
                   (1, k))


def run_chunk(matrix, beta, alpha):
    return lda._chunk_estep(TokenCells(matrix),
                            start_gamma(matrix, alpha, len(beta)),
                            np.ascontiguousarray(beta.T), alpha)


class TestTokenCells:
    def dense_counts(self):
        rng = np.random.default_rng(3)
        dense = rng.integers(0, 4, size=(7, 9)) * (rng.random((7, 9)) < 0.5)
        dense[0] = 0
        dense[-1] = 0
        dense[2, 4] = 3
        return dense

    def test_cells_follow_storage_order(self):
        dense = self.dense_counts()
        cells = TokenCells(sp.csr_matrix(dense))
        rows, cols = np.nonzero(dense)
        np.testing.assert_array_equal(cells.doc, rows)
        np.testing.assert_array_equal(cells.term, cols)
        np.testing.assert_array_equal(cells.counts, dense[rows, cols])
        assert cells.counts.dtype == float

    @pytest.mark.parametrize("gather_size", [lda.GATHER_SIZE, 5],
                             ids=["one-slice", "many-slices"])
    def test_norms_equal_dense_products_exactly(self, monkeypatch,
                                                gather_size):
        # integer-valued weights keep every float sum exact, so the per-cell
        # norms must equal the dense product bit for bit, whether the cells
        # are gathered in one slice or in many
        monkeypatch.setattr(lda, "GATHER_SIZE", gather_size)
        dense = self.dense_counts()
        rng = np.random.default_rng(4)
        doc_weights = rng.integers(1, 6, size=(7, 3)).astype(float)
        term_weights = rng.integers(1, 6, size=(9, 3)).astype(float)
        cells = TokenCells(sp.csr_matrix(dense))
        norm = cells.norms(doc_weights, term_weights)
        full = doc_weights @ term_weights.T
        np.testing.assert_array_equal(norm, full[cells.doc, cells.term])
        scaled = cells.scaled(norm).toarray()
        np.testing.assert_array_equal(
            scaled, np.where(dense > 0, dense / full, 0.0))

    def test_norm_floor(self):
        # a cell whose every topic weight is zero divides by the floor
        cells = TokenCells(sp.csr_matrix([[2.0, 1.0]]))
        norm = cells.norms(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0],
                                                             [0.5, 0.0]]))
        np.testing.assert_array_equal(norm, [NORM_FLOOR, 0.5])
        assert np.all(np.isfinite(cells.scaled(norm).data))


KEEPS = {
    "all": np.ones(9, dtype=bool),
    "none": np.zeros(9, dtype=bool),
    "alternate": np.arange(9) % 2 == 0,
    "empty-rows-only": np.isin(np.arange(9), [0, 8]),
    "middle": np.isin(np.arange(9), [2, 3, 5]),
}


def assert_reads_as_rebuilt(sub, want, n_block_rows, doc_weights,
                            term_weights):
    # what the fits read of a sub-block's scaled matrix, which keeps its
    # block's shape: the product with term weights in its first m rows, the
    # transposed product with row weights, both bit for bit the rebuilt
    # block's; every padded row is empty
    want_norm = want.norms(doc_weights, term_weights)
    want_scaled = want.scaled(want_norm)
    m = want_scaled.shape[0]
    row_weights = np.random.default_rng(7).random((n_block_rows, 3))
    want_rows = want_scaled @ term_weights
    want_terms = want_scaled.T @ row_weights[:m]
    norm = sub.norms(doc_weights, term_weights)
    np.testing.assert_array_equal(norm, want_norm)
    got = sub.scaled(norm)
    assert got.shape == (n_block_rows, want_scaled.shape[1])
    rows = got @ term_weights
    np.testing.assert_array_equal(rows[:m], want_rows)
    np.testing.assert_array_equal(rows[m:], 0.0)
    assert not np.diff(got.indptr)[m:].any()
    np.testing.assert_array_equal(got.T @ row_weights, want_terms)


def assert_block_reads_as_whole(block, matrix, doc_weights, term_weights):
    # after its sub-blocks have filled the shared matrix, a block's own
    # scaled matrix is again the whole block's
    want = TokenCells(matrix)
    got = block.scaled(block.norms(doc_weights, term_weights))
    exp = want.scaled(want.norms(doc_weights, term_weights))
    assert got.shape == exp.shape
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(got, name), getattr(exp, name))


class TestSubBlocks:
    @pytest.mark.parametrize("gather_size", [lda.GATHER_SIZE, 5],
                             ids=["one-slice", "many-slices"])
    @pytest.mark.parametrize("keep", KEEPS.values(), ids=KEEPS.keys())
    def test_sub_block_equals_rebuilt_block(self, monkeypatch, gather_size,
                                            keep):
        # cut from the flat cells, a sub-block holds exactly what a block
        # built from the selected rows holds, and its norms and what the
        # fits read of its scaled matrix are the rebuilt block's bit for bit
        monkeypatch.setattr(lda, "GATHER_SIZE", gather_size)
        matrix = block_with_empty_ends()
        rng = np.random.default_rng(5)
        doc_weights = rng.random((9, 3))
        term_weights = rng.random((matrix.shape[1], 3))
        block = TokenCells(matrix)
        block.norms(doc_weights, term_weights)     # buffers exist before the cut
        sub = block.rows(keep)
        want = TokenCells(matrix[keep])
        for name in ("counts", "doc", "term"):
            got, exp = getattr(sub, name), getattr(want, name)
            assert got.dtype == exp.dtype
            np.testing.assert_array_equal(got, exp)
        assert_reads_as_rebuilt(sub, want, 9, doc_weights[keep], term_weights)
        assert_block_reads_as_whole(block, matrix, doc_weights, term_weights)

    def test_sub_block_of_sub_block(self):
        matrix = block_with_empty_ends()
        first = np.arange(9) != 4
        second = np.arange(8) % 3 != 1
        rng = np.random.default_rng(6)
        doc_weights = rng.random((9, 3))
        term_weights = rng.random((matrix.shape[1], 3))
        block = TokenCells(matrix)
        sub = block.rows(first).rows(second)
        want = TokenCells(matrix[first][second])
        np.testing.assert_array_equal(sub.doc, want.doc)
        np.testing.assert_array_equal(sub.term, want.term)
        np.testing.assert_array_equal(sub.counts, want.counts)
        assert_reads_as_rebuilt(sub, want, 9, doc_weights[first][second],
                                term_weights)
        assert_block_reads_as_whole(block, matrix, doc_weights, term_weights)

    def test_sub_blocks_write_into_their_blocks_buffers(self):
        # norms allocates its output once per block; repeated calls and
        # every sub-block write into that one array, and every sub-block
        # fills the block's one scaled matrix
        matrix = block_with_empty_ends()
        weights = np.ones((9, 2)), np.ones((matrix.shape[1], 2))
        block = TokenCells(matrix)
        first = block.norms(*weights)
        assert np.shares_memory(first, block.norms(*weights))
        whole = block.scaled(first)
        sub = block.rows(KEEPS["middle"])
        norm = sub.norms(weights[0][:3], weights[1])
        assert np.shares_memory(first, norm)
        assert sub.scaled(norm) is whole
        twice = sub.rows(np.array([True, False, True]))
        assert twice.scaled(twice.norms(weights[0][:2], weights[1])) is whole


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_estep_is_rebuilt(matrix, gamma, beta, alpha):
    # the kernel cuts its active set into sub-blocks that share one scaled
    # matrix, and keeps the active rows of gamma compact between sweeps;
    # the reference rebuilds a CSR matrix of the active rows every sweep
    # and gathers and scatters gamma.  Every output is the same bit for bit
    beta_t = np.ascontiguousarray(beta.T)
    got = lda._chunk_estep(TokenCells(matrix), gamma, beta_t, alpha)
    want = rebuilt_chunk_estep(matrix, gamma, beta_t, alpha, lda.VAR_TOL,
                               lda.VAR_MAX_ITERS, NORM_FLOOR)
    names = ("gamma", "stats", "alpha_stat", "bound", "sweeps", "unsettled")
    for name, g, w in zip(names, got, want):
        assert type(g) is type(w), name
        assert_bitwise(g, w)
    return dict(zip(names, got))


class TestKernelAgainstRebuiltSweeps:
    @pytest.mark.parametrize("k", [1, 5])
    def test_block_with_empty_ends(self, k):
        matrix = block_with_empty_ends()
        assert_estep_is_rebuilt(matrix, start_gamma(matrix, 0.3, k),
                                random_beta(k, matrix.shape[1], 20 + k), 0.3)

    def test_block_with_many_cuts(self, monkeypatch):
        # documents settle over many sweeps, so sub-blocks are cut from
        # sub-blocks again and again
        cuts = []
        rows = TokenCells.rows

        def counting_rows(self, keep):
            cuts.append(int(keep.sum()))
            return rows(self, keep)

        monkeypatch.setattr(TokenCells, "rows", counting_rows)
        matrix = random_counts(60, 40, 21).matrix
        out = assert_estep_is_rebuilt(matrix, start_gamma(matrix, 2.0, 5),
                                      random_beta(5, 40, 22), 2.0)
        assert out["unsettled"] == 0 and len(cuts) >= 10

    def test_block_stopped_by_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(lda, "VAR_MAX_ITERS", 3)
        matrix = block_with_empty_ends()
        out = assert_estep_is_rebuilt(matrix, start_gamma(matrix, 0.3, 5),
                                      random_beta(5, matrix.shape[1], 23),
                                      0.3)
        assert out["sweeps"] == 3 and out["unsettled"] > 0

    def test_block_settled_in_first_sweep(self, monkeypatch):
        # started at a gamma settled to a far tighter tolerance, every
        # document leaves the sweeps after the first
        matrix = block_with_empty_ends()
        beta = random_beta(5, matrix.shape[1], 24)
        monkeypatch.setattr(lda, "VAR_TOL", 1e-14)
        monkeypatch.setattr(lda, "VAR_MAX_ITERS", 1000)
        settled = run_chunk(matrix, beta, 0.3)[0]
        monkeypatch.undo()
        out = assert_estep_is_rebuilt(matrix, settled, beta, 0.3)
        assert out["sweeps"] == 1 and out["unsettled"] == 0

    @pytest.mark.parametrize("k", [1, 5, 100])
    def test_trigamma_is_zeta(self, k):
        # _update_alpha takes trigamma as zeta(2, x), which is what scipy's
        # polygamma(1, x) computes, times (-1)**2 * gamma(2)
        x = np.concatenate([np.geomspace(ALPHA_MIN, ALPHA_MAX * k, 2001),
                            np.linspace(ALPHA_MIN, ALPHA_MAX * k, 2001)])
        assert_bitwise(zeta(2, x), polygamma(1, x))
        assert all(zeta(2, v) == polygamma(1, v) for v in x[::50])


class TestKernelAgainstLogSpace:
    @pytest.mark.parametrize("k", [1, 5])
    def test_terms_equal_log_space_at_returned_gamma(self, k):
        # statistics, alpha statistic and bound are those of phi optimal at
        # the gamma the kernel returns
        matrix = block_with_empty_ends()
        beta = random_beta(k, matrix.shape[1], k)
        gamma, stats, alpha_stat, bound = run_chunk(matrix, beta, 0.3)[:4]
        want_stats, want_alpha_stat, want_bound = log_space_terms_at(
            matrix, gamma, np.log(beta), 0.3)
        np.testing.assert_allclose(stats, want_stats, rtol=1e-10,
                                   atol=1e-10 * want_stats.max())
        assert alpha_stat == pytest.approx(want_alpha_stat, rel=1e-10)
        assert bound == pytest.approx(want_bound, rel=1e-10)

    @pytest.mark.parametrize("k", [1, 5])
    def test_fixed_point_equals_log_space(self, k, monkeypatch):
        # run to a tight tolerance, both kernels reach the same gamma
        monkeypatch.setattr(lda, "VAR_MAX_ITERS", 1000)
        monkeypatch.setattr(lda, "VAR_TOL", 1e-13)
        matrix = block_with_empty_ends()
        beta = random_beta(k, matrix.shape[1], 10 + k)
        gamma = run_chunk(matrix, beta, 0.3)[0]
        want = log_space_chunk_estep(matrix, start_gamma(matrix, 0.3, k),
                                     np.log(beta), 0.3, 1e-13,
                                     max_iters=1000)[0]
        np.testing.assert_allclose(gamma, want, rtol=1e-9)
        np.testing.assert_array_equal(gamma[[0, -1]], 0.3)

    def test_settled_document_keeps_its_gamma(self):
        # once a document leaves the active set its gamma is final: it ends
        # exactly where it would alone, however long its blockmates sweep
        matrix = block_with_empty_ends()
        beta = random_beta(4, matrix.shape[1], 3)
        together = run_chunk(matrix, beta, 0.2)[0]
        for row in range(matrix.shape[0]):
            alone = run_chunk(matrix[row], beta, 0.2)[0]
            np.testing.assert_array_equal(together[row], alone[0])

    def test_small_alpha_does_not_divide_by_zero(self):
        # at ALPHA_MIN, psi(alpha) is about -1000 and exp(E[log theta])
        # underflows to zero for every unused topic; that underflow is
        # expected, but no division by zero or invalid value may follow,
        # even where a term's beta column sits at the smoothing floor or
        # is exactly zero at the start
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 3, size=(40, 30)) * (rng.random((40, 30)) < 0.3)
        rows[:, :2] = 0
        rows[::7, :2] = 2
        rows[np.arange(40), rng.integers(2, 30, 40)] += 1
        counts = make_counts(rows)
        beta = rng.random((20, 30)) ** 4
        beta[:, 0] = TOPIC_SMOOTHING
        beta[:, 1] = 0.0
        beta /= beta.sum(axis=1, keepdims=True)
        with np.errstate(all="raise", under="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = train_lda(counts, k=20, alpha=ALPHA_MIN, beta_init=beta)
            bound = corpus_bound(LdaModel(alpha=ALPHA_MIN, beta=beta),
                                 counts)
        assert np.all(np.isfinite(result.gamma))
        assert np.all(np.isfinite(result.elbo_trace)) and np.isfinite(bound)
        assert bound_never_drops(result.elbo_trace)


class TestBoundMonotonicity:
    def test_random_corpus(self):
        for seed in range(3):
            counts = random_counts(30, 40, seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = train_lda(counts, k=5, seed=seed)
            assert bound_never_drops(result.elbo_trace)

    def test_fixed_alpha(self):
        counts = random_counts(20, 25, 1)
        result = train_lda(counts, k=3, seed=0, alpha=0.5)
        assert bound_never_drops(result.elbo_trace)
        assert all(a == 0.5 for a in result.alpha_trace)


class TestExactnessOracles:
    def test_single_topic_closed_form(self):
        # with one topic the bound equals sum of counts times log beta
        counts = make_counts([[3, 1, 0], [0, 2, 2], [1, 1, 1]])
        result = train_lda(counts, k=1, seed=0)
        log_beta = np.log(result.model.beta[0])
        expected = float((counts.matrix.toarray() * log_beta).sum())
        assert result.elbo_trace[-1] == pytest.approx(expected, rel=1e-9)

    def test_bound_below_enumerated_likelihood(self):
        # tiny documents allow exact marginalization over assignments
        rng = np.random.default_rng(4)
        beta = rng.random((3, 5)) + 0.1
        beta /= beta.sum(axis=1, keepdims=True)
        from ldikit.lda import LdaModel

        model = LdaModel(alpha=0.7, beta=beta)
        docs = [[0, 2], [1, 1, 4], [3], [4, 0, 2, 1]]
        for token_ids in docs:
            row = np.bincount(token_ids, minlength=5)
            counts = make_counts([row])
            exact = dirichlet_multinomial_log_likelihood(token_ids, 0.7, beta)
            bound = corpus_bound(model, counts)
            assert bound <= exact + 1e-9
            # gap cannot exceed the entropy of uniform assignments
            assert bound >= exact - len(token_ids) * np.log(3) - 0.1

    def test_quadrature_agrees_with_enumeration(self):
        rng = np.random.default_rng(5)
        beta = rng.random((2, 4)) + 0.1
        beta /= beta.sum(axis=1, keepdims=True)
        token_ids = [0, 3, 1]
        enum = dirichlet_multinomial_log_likelihood(token_ids, 1.3, beta)
        quad = two_topic_log_likelihood_quadrature(token_ids, 1.3, beta)
        assert enum == pytest.approx(quad, abs=1e-8)

    def test_bound_below_quadrature_k2(self):
        from ldikit.lda import LdaModel

        rng = np.random.default_rng(6)
        beta = rng.random((2, 6)) + 0.05
        beta /= beta.sum(axis=1, keepdims=True)
        model = LdaModel(alpha=0.4, beta=beta)
        token_ids = [5, 0, 0, 2]
        counts = make_counts([np.bincount(token_ids, minlength=6)])
        exact = two_topic_log_likelihood_quadrature(token_ids, 0.4, beta)
        assert corpus_bound(model, counts) <= exact + 1e-9


class TestAlphaEstimation:
    def test_alpha_stays_in_bounds(self):
        counts = random_counts(25, 30, 7)
        result = train_lda(counts, k=4, seed=1)
        trace = np.asarray(result.alpha_trace)
        assert np.all(trace >= ALPHA_MIN - 1e-12)
        assert np.all(trace <= ALPHA_MAX + 1e-12)

    def test_alpha_adapts_to_concentrated_docs(self):
        # block-diagonal corpus: every document is single-topic, so the
        # estimated prior should drop well below its starting point
        block = np.zeros((16, 8), dtype=int)
        block[:8, :4] = np.random.default_rng(0).integers(1, 4, (8, 4))
        block[8:, 4:] = np.random.default_rng(1).integers(1, 4, (8, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train_lda(make_counts(block), k=2, seed=0)
        assert result.alpha_trace[-1] < result.alpha_trace[0]

    def test_overshooting_newton_step_is_halved_not_taken(self):
        # 1000 documents, 20 topics, the statistic whose optimum is 0.2,
        # started at 0.01: the raw Newton step on log(alpha) runs to the
        # upper clamp, where the objective is lower than at the start
        n_docs, k, start, best = 1000, 20, 0.01, 0.2
        alpha_stat = -n_docs * k * (psi(k * best) - psi(best))

        def objective(a):
            return n_docs * (gammaln(k * a) - k * gammaln(a)) + (a - 1.0) * alpha_stat

        gradient = n_docs * k * (psi(k * start) - psi(start)) + alpha_stat
        curvature = n_docs * (k * k * polygamma(1, k * start)
                              - k * polygamma(1, start))
        raw = start * np.exp(-gradient / (start * curvature + gradient))
        assert objective(np.clip(raw, ALPHA_MIN, ALPHA_MAX)) < objective(start)

        alpha = lda._update_alpha(start, n_docs, k, alpha_stat)
        assert objective(alpha) >= objective(start)
        assert alpha == pytest.approx(best, rel=1e-6)


class TestInitialization:
    def test_beta_init_shape_checked(self):
        counts = random_counts(10, 8, 0)
        with pytest.raises(ValueError, match="shape"):
            train_lda(counts, k=3, beta_init=np.ones((2, 8)))

    def test_beta_init_must_be_distributions(self):
        counts = random_counts(10, 8, 0)
        bad = np.ones((3, 8))
        bad[1, :] = -1.0
        with pytest.raises(ValueError):
            train_lda(counts, k=3, beta_init=bad)

    def test_seeded_start_rows_are_distributions(self):
        counts = random_counts(12, 9, 3)
        start = seeded_topic_start(counts, 4, seed=2)
        assert start.shape == (4, 9)
        np.testing.assert_allclose(start.sum(axis=1), 1.0)
        assert np.all(start > 0)

    def test_seeded_start_deterministic(self):
        counts = random_counts(12, 9, 3)
        np.testing.assert_array_equal(seeded_topic_start(counts, 3, seed=5),
                                      seeded_topic_start(counts, 3, seed=5))

    def test_seeded_start_bounds(self):
        counts = random_counts(5, 6, 0)
        with pytest.raises(ValueError):
            seeded_topic_start(counts, 6)
        with pytest.raises(ValueError):
            seeded_topic_start(counts, 0)

    def test_seeded_start_separates_blocks(self):
        block = np.zeros((6, 6), dtype=int)
        block[:3, :3] = 2
        block[3:, 3:] = 2
        start = seeded_topic_start(make_counts(block), 2, seed=0)
        # one topic concentrates on each block of terms
        lead = {int(np.argmax(start[t])) // 3 for t in range(2)}
        assert lead == {0, 1}


class TestInference:
    def test_posterior_for_training_document(self):
        # phi rows sum to one, so each gamma row gains its document's length
        counts = random_counts(15, 12, 8)
        result = train_lda(counts, k=3, seed=0, alpha=0.4)
        np.testing.assert_allclose(result.gamma.sum(axis=1),
                                   3 * 0.4 + counts.doc_lengths, rtol=1e-9)

    def test_empty_document(self):
        rows = random_counts(10, 8, 9).matrix.toarray()
        rows[4] = 0
        result = train_lda(make_counts(rows), k=2, seed=0, alpha=0.3)
        assert np.all(result.gamma[4] == 0.3)


class TestBlocksPerFit:
    def test_each_block_built_once_per_fit(self, monkeypatch,
                                           token_cells_built):
        # three blocks of at most 8 documents, built before the first pass
        # and kept; a shrinking active set cuts sub-blocks, not new blocks
        monkeypatch.setattr(lda, "DOC_CHUNK", 8)
        counts = random_counts(20, 15, 13)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train_lda(counts, k=3, seed=0)
        assert len(result.elbo_trace) > 1
        assert token_cells_built == [8, 8, 4]

    @pytest.mark.parametrize("doc_chunk", [lda.DOC_CHUNK, 24],
                             ids=["one-block", "three-blocks"])
    def test_sparse_matrices_built_do_not_grow_with_cuts(self, monkeypatch,
                                                         doc_chunk):
        # sub-blocks fill their block's one scaled matrix, so a fit builds
        # two sparse matrices per block (its rows and that matrix) and one
        # per block and pass (the transpose the statistics are read from),
        # however often its active sets are cut: one block makes at most
        # blocks + passes + 1
        monkeypatch.setattr(lda, "DOC_CHUNK", doc_chunk)
        counts = random_counts(60, 40, 21)
        built, cuts = [], []
        for cls in (sp.csr_matrix, sp.csc_matrix):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self))
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting_init)
        rows = TokenCells.rows

        def counting_rows(self, keep):
            cuts.append(int(keep.sum()))
            return rows(self, keep)

        monkeypatch.setattr(TokenCells, "rows", counting_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train_lda(counts, k=5, seed=0)
        n_blocks = -(-60 // doc_chunk)
        bound = n_blocks * (len(result.elbo_trace) + 2)
        assert len(cuts) > bound
        assert len(built) <= bound



class TestSweepRecord:
    def test_record_per_pass(self):
        counts = random_counts(20, 15, 14)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train_lda(counts, k=3, seed=0)
        n_passes = len(result.elbo_trace)
        assert len(result.sweeps_trace) == len(result.unsettled_trace) == n_passes
        assert all(1 <= s <= lda.VAR_MAX_ITERS for s in result.sweeps_trace)
        for sweeps, unsettled in zip(result.sweeps_trace,
                                     result.unsettled_trace):
            # documents are left unsettled only by a block that hit the cap
            assert unsettled == 0 or sweeps == lda.VAR_MAX_ITERS

    def test_sweep_cap_leaves_documents_unsettled(self, monkeypatch):
        # one sweep settles no document that has tokens; only the empty
        # documents settle, so every other one is counted each pass, summed
        # over the blocks
        monkeypatch.setattr(lda, "VAR_MAX_ITERS", 1)
        monkeypatch.setattr(lda, "DOC_CHUNK", 8)
        rows = random_counts(20, 15, 15).matrix.toarray()
        rows[[3, 17]] = 0
        # the bound settles before the pass limit, but a fit whose last
        # pass the cap cut short is not converged, and says why
        with pytest.warns(UserWarning, match=r"sweep cap \(1\) left 18 "):
            result = train_lda(make_counts(rows), k=3, seed=0)
        assert len(result.elbo_trace) < lda.MAX_EM_ITERS
        assert result.sweeps_trace == [1] * len(result.elbo_trace)
        assert result.unsettled_trace == [18] * len(result.elbo_trace)
        assert not result.converged
        assert result.stopped_by == "sweep_cap"


class TestTrainingGuards:
    def test_warns_at_pass_limit(self, monkeypatch):
        monkeypatch.setattr(lda, "MAX_EM_ITERS", 2)
        counts = random_counts(20, 15, 10)
        with pytest.warns(UserWarning, match="pass limit"):
            result = train_lda(counts, k=3, seed=0)
        assert not result.converged and result.stopped_by == "pass_cap"

    @pytest.mark.parametrize("cap, value, message", [
        ("MAX_EM_ITERS", 2, "pass limit"), ("VAR_MAX_ITERS", 1, "sweep cap")])
    def test_every_capped_fit_warns(self, monkeypatch, cap, value, message):
        # the default filter shows a text once per code location; each fit
        # that stops at a cap still says so, and "ignore" still silences it
        monkeypatch.setattr(lda, cap, value)
        for action, n_warnings in (("default", 3), ("ignore", 0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                for _ in range(3):
                    train_lda(random_counts(20, 15, 10), k=3, seed=0)
            assert [w.filename for w in caught] == [lda.__file__] * n_warnings
            assert all(message in str(w.message) for w in caught)

    def test_empty_corpus_rejected(self):
        empty = TermDocCounts(matrix=sp.csr_matrix((0, 5)),
                              doc_lengths=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            train_lda(empty, k=2)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            train_lda(random_counts(5, 5, 0), k=0)

    def test_convergence_flag(self, monkeypatch):
        monkeypatch.setattr(lda, "MAX_EM_ITERS", 200)
        monkeypatch.setattr(lda, "EM_TOL", 1e-6)
        counts = random_counts(10, 10, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loose = train_lda(counts, k=2, seed=0, alpha=1.0)
        assert loose.converged and loose.stopped_by == "bound"
