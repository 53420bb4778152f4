"""Latent Dirichlet allocation fit by variational EM.

Mean-field family: a Dirichlet(gamma) per document over topic proportions
and an independent categorical phi per token position over topics.  The
E-step runs the closed-form coordinate updates in linear space (Hoffman,
Blei & Bach, NIPS 2010): phi is never stored, because each cell's
normaliser ``phinorm = exp(E[log theta_d]) . beta[:, w]`` is all the gamma
update needs, and a document leaves the sweeps as soon as its own gamma
settles.  At the final gamma phi is taken once more, optimal for that
gamma, to give the topic-term statistics and the exact bound.  The M-step
re-fits the topic-term table and, unless the prior is held fixed, the
symmetric Dirichlet parameter by a guarded Newton iteration.  The bound is
recorded each pass and must never decrease.

A fit cuts its count matrix into ``TokenCells`` blocks once and keeps them
for all its passes.  Each block owns the gather buffers, normaliser array
and scaled count matrix its E-step writes into, and the sub-blocks an
active set shrinks to share them: a cut copies the kept cells and builds
no sparse matrix, because a sub-block swaps its cells into the block's
one scaled matrix, whose shape stays the block's.  So a sweep allocates
no per-cell array but the shrunken cells, and every result written into
those buffers is valid until the next call on any block that shares them.
Between sweeps the active documents' gamma is kept compact, and a
document's row of the block's gamma is written when it leaves the sweeps.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln, psi, zeta

from .corpus import TermDocCounts

MAX_EM_ITERS = 100              # EM passes per fit
EM_TOL = 1e-4                   # relative bound change that ends the fit
VAR_TOL = 1e-6                  # relative gamma change that settles a document
VAR_MAX_ITERS = 100             # inner E-step sweeps per document block
TOPIC_SMOOTHING = 1e-9          # added to topic-term sufficient stats
DOC_CHUNK = 1024                # documents per E-step block
ALPHA_MIN = 1e-3                # range of the symmetric prior weight
ALPHA_MAX = 10.0
NORM_FLOOR = 1e-100             # least mixture normaliser of a cell
GATHER_SIZE = 1 << 16           # floats per gather buffer in TokenCells.norms


def warn_every_fit(message: str) -> None:
    """``warnings.warn`` from the caller's line, with a fresh registry in
    place of the module's, which would hide a repeat from the same line:
    each fit that stops at a cap says so.  Filters still apply."""
    caller = sys._getframe(1)
    warnings.warn_explicit(message, UserWarning, caller.f_code.co_filename,
                           caller.f_lineno, module=caller.f_globals["__name__"],
                           registry={}, module_globals=caller.f_globals)


@dataclass
class LdaModel:
    """Fitted topic model: symmetric prior weight and topic-term table."""

    alpha: float
    beta: np.ndarray            # (k, vocabulary) rows sum to one


@dataclass
class LdaTrainResult:
    """An lda fit's whole state: each pass (``_em_pass``) advances it, and
    the fit returns it."""

    model: LdaModel
    gamma: np.ndarray           # (docs, k) variational Dirichlet parameters
    elbo_trace: list[float] = field(default_factory=list)
    alpha_trace: list[float] = field(default_factory=list)
    # what ended the fit: "bound" (converged), "pass_cap" (MAX_EM_ITERS
    # passes before the bound settled) or "sweep_cap" (the bound settled,
    # but VAR_MAX_ITERS left documents unsettled in the last pass)
    stopped_by: str = ""
    # per pass: the most inner sweeps any block ran, and the documents
    # still unsettled when VAR_MAX_ITERS stopped their block
    sweeps_trace: list[int] = field(default_factory=list)
    unsettled_trace: list[int] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stopped_by == "bound"


def run_passes(fit, step, max_passes: int) -> str:
    """The pass loop of both topic fits: ``step(fit)`` advances the fit's
    state ``fit`` by one pass and returns why the fit stops, or None.
    Returns that reason, or ``"pass_cap"`` after ``max_passes`` passes."""
    for _ in range(max_passes):
        reason = step(fit)
        if reason:
            return reason
    return "pass_cap"


def seeded_topic_start(counts: TermDocCounts, k: int, seed: int = 0) -> np.ndarray:
    """Topic start rows built from document clusters.

    Picks k exemplar documents by farthest-first traversal over cosine
    similarity of the count rows, assigns every document to its nearest
    exemplar, and sums each cluster's counts into one topic row plus a
    uniform floor.  Useful on small corpora where a random start often
    lands in a poor basin; pass the result to ``train_lda(beta_init=...)``.
    """
    matrix = counts.matrix.tocsr()
    n_docs, n_terms = matrix.shape
    if not 1 <= k <= n_docs:
        raise ValueError(f"need 1 <= k <= {n_docs} documents, got k={k}")
    dense = matrix.toarray().astype(float)
    norms = np.linalg.norm(dense, axis=1, keepdims=True)
    unit = dense / np.maximum(norms, 1e-12)
    rng = np.random.default_rng(seed)
    exemplars = [int(rng.integers(n_docs))]
    sims = unit @ unit[exemplars[0]]
    while len(exemplars) < k:
        nxt = int(np.argmin(sims))     # least similar to every exemplar so far
        exemplars.append(nxt)
        sims = np.maximum(sims, unit @ unit[nxt])
    assign = np.argmax(unit @ unit[exemplars].T, axis=1)
    beta = np.full((k, n_terms), 1.0 / n_terms)
    for topic in range(k):
        beta[topic] += dense[assign == topic].sum(axis=0)
    return beta / beta.sum(axis=1, keepdims=True)


class TokenCells:
    """The nonzero cells of a count matrix, in CSR storage order.

    The sparse layout both EM fits work in: ``counts`` (as floats), ``doc``
    (the row of each cell) and ``term`` (the column of each cell).  Each
    E-step is one product over them: every cell's mixture normaliser
    ``doc_weights[doc] . term_weights[term]`` (``norms``), and the CSR
    matrix of count / normaliser (``scaled``), whose products with the
    weights give the posterior sums per row and per term.

    A block is built once per fit and lives as long as the fit.  ``rows``
    cuts a sub-block of some of its rows from the flat arrays.  A sub-block
    builds no matrix of its own: it shares the block's one scaled matrix,
    which keeps the block's shape, and ``scaled`` swaps the sub-block's
    cells into it, so the sub-block's m rows are the first m rows and the
    rest are empty.  ``norms`` likewise writes into buffers the block
    allocates on first use.  So a result of ``norms`` or ``scaled`` is only
    valid until the next call on any block that shares them.
    """

    def __init__(self, matrix):
        matrix = matrix.tocsr()
        counts = matrix.data.astype(float)
        self._scaled = sp.csr_matrix((np.empty_like(counts), matrix.indices,
                                      matrix.indptr), shape=matrix.shape)
        self._out = self._scaled.data   # scaled counts, a prefix per sub-block
        self._buffers = {}              # k -> (rows, terms, norm), see norms
        self._fill(counts, self._scaled.indices, self._scaled.indptr,
                   np.diff(self._scaled.indptr))

    def _fill(self, counts, term, indptr, lengths):
        self.counts = counts
        self.term = term
        self.doc = np.repeat(np.arange(len(lengths)), lengths)
        self._indptr = indptr           # padded to the block's row count
        self._lengths = lengths

    @classmethod
    def blocks(cls, matrix, size: int) -> list[tuple[slice, TokenCells]]:
        """A CSR matrix cut into blocks of ``size`` rows, each with the slice
        of rows it holds."""
        n_rows = matrix.shape[0]
        return [(slice(start, min(start + size, n_rows)),
                 cls(matrix[start:start + size]))
                for start in range(0, n_rows, size)]

    def rows(self, keep: np.ndarray) -> TokenCells:
        """The sub-block of the rows where the boolean ``keep`` is set, equal
        to ``TokenCells(matrix[keep])`` but cut from this block's cells and
        sharing its buffers and scaled matrix."""
        cells = np.repeat(keep, self._lengths)
        lengths = self._lengths[keep]
        m = len(lengths)
        indptr = np.empty_like(self._indptr)
        indptr[0] = 0
        np.cumsum(lengths, out=indptr[1:m + 1])
        indptr[m + 1:] = indptr[m]
        sub = TokenCells.__new__(TokenCells)
        sub._fill(self.counts[cells], self.term[cells], indptr, lengths)
        sub._scaled = self._scaled
        sub._out = self._out
        sub._buffers = self._buffers
        return sub

    def norms(self, doc_weights: np.ndarray, term_weights: np.ndarray) -> np.ndarray:
        """Per cell: the dot product of its row of ``doc_weights`` (rows, k)
        and its row of ``term_weights`` (terms, k), floored at ``NORM_FLOOR``
        so a cell whose topics all underflow never divides by zero.

        The rows are gathered a slice of cells at a time into two small
        buffers, so no (cells x k) array is ever allocated.  The buffers and
        the result are the block's own (see the class docstring).
        """
        n_cells, k = len(self.counts), doc_weights.shape[1]
        if k not in self._buffers:
            capacity = len(self._out)
            rows = np.empty((min(max(1, GATHER_SIZE // k), capacity), k))
            self._buffers[k] = rows, np.empty_like(rows), np.empty(capacity)
        rows, terms, norm = self._buffers[k]
        norm = norm[:n_cells]
        step = max(1, len(rows))
        for start in range(0, n_cells, step):
            stop = min(start + step, n_cells)
            m = stop - start
            # mode="clip" lets take write straight into the buffer; every
            # index is in range, so nothing is clipped
            np.take(doc_weights, self.doc[start:stop], axis=0, out=rows[:m],
                    mode="clip")
            np.take(term_weights, self.term[start:stop], axis=0, out=terms[:m],
                    mode="clip")
            np.einsum("nk,nk->n", rows[:m], terms[:m], out=norm[start:stop])
        return np.maximum(norm, NORM_FLOOR, out=norm)

    def scaled(self, norm: np.ndarray) -> sp.csr_matrix:
        """The count matrix with each cell divided by its normaliser, in the
        block's shape: this block's rows first, then empty rows.

        The block's one matrix is refilled through its public ``data``,
        ``indices`` and ``indptr``, so the result is only valid until the
        next call on any block that shares it.
        """
        matrix = self._scaled
        matrix.data = np.divide(self.counts, norm,
                                out=self._out[:len(self.counts)])
        matrix.indices = self.term
        matrix.indptr = self._indptr
        return matrix


def _dirichlet_expectation(gamma: np.ndarray, total: np.ndarray) -> np.ndarray:
    """E[log theta] under Dirichlet(gamma), row by row, given the row sums
    ``total``."""
    out = psi(gamma)
    out -= psi(total)[:, None]
    return out


def _chunk_estep(cells: TokenCells, gamma_chunk: np.ndarray,
                 beta_t: np.ndarray, alpha: float):
    """Variational inference for one block of documents.

    ``beta_t`` is the topic-term table transposed, (terms, k).  Each sweep
    updates only the documents still active; one whose relative gamma
    change falls below ``VAR_TOL`` keeps its gamma from then on.  Returns
    the gamma block, the topic-term sufficient statistics, the alpha
    sufficient statistic and this block's exact bound contribution, all at
    the returned gamma with phi optimal for it, under the current model;
    then the sweeps run and the documents still active when
    ``VAR_MAX_ITERS`` stopped the block (0 when every document settled).
    """
    n_rows, k = gamma_chunk.shape
    gamma = gamma_chunk.copy()
    # the active documents' rows, their gamma kept compact between sweeps
    # and written back to ``gamma`` only when they leave the sweeps
    active = np.arange(n_rows)
    old = gamma_chunk.copy()
    sweep = cells
    sweeps = unsettled = 0
    for sweeps in range(1, VAR_MAX_ITERS + 1):
        total = old.sum(axis=1)
        exp_elog = _dirichlet_expectation(old, total)
        np.exp(exp_elog, out=exp_elog)
        scaled = sweep.scaled(sweep.norms(exp_elog, beta_t))
        new = (scaled @ beta_t)[:len(old)]
        new *= exp_elog
        new += alpha
        change = np.abs(np.subtract(new, old, out=old), out=old).sum(axis=1)
        # a NaN change keeps its document active
        keep = ~(change < VAR_TOL * total)
        if not keep.all():
            gamma[active[~keep]] = new[~keep]
            if not keep.any():
                break
            active = active[keep]
            new = new[keep]
            sweep = sweep.rows(keep)
        old = new
    else:
        unsettled = len(active)
        gamma[active] = old

    total = gamma.sum(axis=1)
    elog_theta = _dirichlet_expectation(gamma, total)
    exp_elog = np.exp(elog_theta)
    norm = cells.norms(exp_elog, beta_t)
    stats = (cells.scaled(norm).T @ exp_elog).T * beta_t.T
    alpha_stat = float(elog_theta.sum())

    # Exact bound at (gamma, phi) with phi optimal for this gamma: per token,
    # sum_k phi (E[log theta] + log beta - log phi) collapses to log phinorm.
    bound = float(cells.counts @ np.log(norm))
    bound += float(
        n_rows * (gammaln(k * alpha) - k * gammaln(alpha))
        + (alpha - 1.0) * alpha_stat
        - gammaln(total).sum()
        + gammaln(gamma).sum()
        - ((gamma - 1.0) * elog_theta).sum()
    )
    return gamma, stats, alpha_stat, bound, sweeps, unsettled


def _em_pass(fit: LdaTrainResult, blocks, estimate_alpha: bool) -> str | None:
    """One EM pass of an lda fit over its ``TokenCells.blocks``: the E-step
    updates ``fit.gamma`` in place and records the exact bound and sweeps,
    the M-step re-fits ``beta`` and, if ``estimate_alpha``, ``alpha``.
    Returns "bound" or "sweep_cap" once the bound settles, else None."""
    model = fit.model
    beta_t = np.ascontiguousarray(model.beta.T)
    stats = np.zeros(model.beta.shape)
    alpha_stat = 0.0
    bound = 0.0
    sweeps = unsettled = 0
    for rows, cells in blocks:
        g, s, a_stat, b, n_sweeps, n_unsettled = _chunk_estep(
            cells, fit.gamma[rows], beta_t, model.alpha)
        fit.gamma[rows] = g
        stats += s
        alpha_stat += a_stat
        bound += b
        sweeps = max(sweeps, n_sweeps)
        unsettled += n_unsettled
    if not np.isfinite(bound):
        raise RuntimeError("variational bound became non-finite at "
                           f"pass {len(fit.elbo_trace) + 1}")
    fit.elbo_trace.append(bound)
    fit.sweeps_trace.append(sweeps)
    fit.unsettled_trace.append(unsettled)

    model.beta = stats + TOPIC_SMOOTHING
    model.beta /= model.beta.sum(axis=1, keepdims=True)
    if estimate_alpha:
        model.alpha = _update_alpha(model.alpha, len(fit.gamma),
                                    len(model.beta), alpha_stat)
    fit.alpha_trace.append(model.alpha)

    if len(fit.elbo_trace) > 1:
        prev = fit.elbo_trace[-2]
        if abs(bound - prev) / max(abs(prev), 1e-12) < EM_TOL:
            return "sweep_cap" if unsettled else "bound"
    return None


def _start_gamma(alpha: float, counts: TermDocCounts, k: int) -> np.ndarray:
    return np.tile(alpha + counts.doc_lengths[:, None] / k, (1, k)).astype(float)


def _update_alpha(alpha: float, n_docs: int, k: int,
                  alpha_stat: float) -> float:
    """Maximize the bound over the symmetric prior weight.

    Newton iteration on log(alpha) with a halving guard so the objective
    never decreases; the result is clamped to [ALPHA_MIN, ALPHA_MAX].
    """

    def objective(a: float) -> float:
        return (n_docs * (gammaln(k * a) - k * gammaln(a))
                + (a - 1.0) * alpha_stat)

    def gradient(a: float) -> float:
        return n_docs * k * (psi(k * a) - psi(a)) + alpha_stat

    def curvature(a: float) -> float:
        # trigamma: scipy's polygamma(1, x) is 1 * 1 * zeta(2, x)
        return n_docs * (k * k * zeta(2, k * a) - k * zeta(2, a))

    a = float(np.clip(alpha, ALPHA_MIN, ALPHA_MAX))
    for _ in range(100):
        g = gradient(a)
        if abs(g) < 1e-10 * max(1.0, abs(alpha_stat)):
            break
        h = curvature(a)
        log_step = (a * g) / (a * a * h + a * g)
        step = -log_step
        new = a * np.exp(step)
        tries = 0
        while tries < 30:
            clipped = float(np.clip(new, ALPHA_MIN, ALPHA_MAX))
            if objective(clipped) >= objective(a) - 1e-12:
                break
            step *= 0.5
            new = a * np.exp(step)
            tries += 1
        clipped = float(np.clip(new, ALPHA_MIN, ALPHA_MAX))
        if objective(clipped) < objective(a):
            break
        if abs(clipped - a) < 1e-12 * a:
            a = clipped
            break
        a = clipped
    return a


def train_lda(counts: TermDocCounts, k: int, seed: int = 0,
              alpha: float | None = None,
              beta_init: np.ndarray | None = None) -> LdaTrainResult:
    """Fit topics by EM over the variational bound.

    The bound is recorded once per pass, evaluated at the fresh variational
    parameters under the model that produced them, so the recorded sequence
    is non-decreasing.  Stops on relative bound change below ``EM_TOL``, or
    after ``MAX_EM_ITERS`` passes with a warning.  ``converged`` holds only
    when the bound settled and the last pass left no document unsettled by
    the ``VAR_MAX_ITERS`` sweep cap; a settled bound with unsettled
    documents warns with their count.  Each fit that stops at a cap warns
    (``warn_every_fit``), and ``stopped_by`` names what ended the fit.
    ``alpha`` None starts the
    symmetric prior weight at 50 / k and estimates it each pass; a number
    holds it fixed at that value (clamped to [ALPHA_MIN, ALPHA_MAX]).
    ``beta_init`` overrides the random topic start, e.g. with rows built
    from document counts.
    """
    if k < 1:
        raise ValueError("topic count must be at least 1")
    matrix = counts.matrix.tocsr()
    n_docs, n_terms = matrix.shape
    if n_docs == 0:
        raise ValueError("cannot fit a topic model on an empty corpus")

    if beta_init is None:
        beta = np.random.default_rng(seed).random((k, n_terms)) + 1.0 / n_terms
    else:
        beta = np.asarray(beta_init, dtype=float)
        if beta.shape != (k, n_terms):
            raise ValueError(f"topic start must have shape {(k, n_terms)}, "
                             f"got {beta.shape}")
        if np.any(beta < 0) or np.any(beta.sum(axis=1) <= 0):
            raise ValueError("topic start rows must be non-negative with "
                             "positive sums")
    estimate_alpha = alpha is None and k > 1
    alpha = float(np.clip(50.0 / k if alpha is None else alpha,
                          ALPHA_MIN, ALPHA_MAX))
    fit = LdaTrainResult(LdaModel(alpha, beta / beta.sum(axis=1, keepdims=True)),
                         _start_gamma(alpha, counts, k), alpha_trace=[alpha])
    blocks = TokenCells.blocks(matrix, DOC_CHUNK)
    fit.stopped_by = run_passes(
        fit, lambda fit: _em_pass(fit, blocks, estimate_alpha), MAX_EM_ITERS)
    if fit.stopped_by == "pass_cap":
        warn_every_fit(f"EM stopped at the pass limit ({MAX_EM_ITERS}) "
                       "before the bound settled")
    elif fit.stopped_by == "sweep_cap":
        warn_every_fit(f"the bound settled, but the sweep cap ({VAR_MAX_ITERS}) "
                       f"left {fit.unsettled_trace[-1]} documents unsettled in "
                       "the last pass")
    return fit
