"""Probabilistic latent semantic ranking fit by tempered EM.

The aspect model factors P(w|d) = sum_z P(z|d) P(w|z).  Fitting anneals an
exponent on P(w|z) in the E-step (Hofmann, UAI 1999): whenever held-out
token perplexity stops improving at the current temperature the exponent
is lowered, and training ends when lowering it no longer helps.  The
tempered data objective sum n log sum_z P(z|d) P(w|z)^beta is what each
fixed-temperature block ascends; the plain likelihood is not monotone
across temperature changes.

Every fit runs one schedule.  A tenth of the tokens (``HOLDOUT_FRACTION``)
is held out; the exponent starts at ``BETA_START`` and is multiplied by
``BETA_DECAY`` while that still improves the best held-out perplexity by
``IMPROVEMENT_TOL`` and stays at or above ``MIN_BETA``.  One temperature
runs at most ``MAX_ITERS_PER_BETA`` passes and a fit at most
``MAX_TOTAL_ITERS``.

The tempered posterior is never stored.  With A = P(z|d) and
B = P(w|z)^beta, each cell's normaliser is norm = A[d] . B[:, w]; an EM
pass is that norm, the count matrix scaled by 1 / norm (S), and the two
products A * (S @ B.T) and B * (S.T @ A).T that are the new tables before
normalising.  The objective is sum n log norm.  Fold-in and held-out
perplexity use the same product, through lda's ``TokenCells``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import lda
from .corpus import TermDocCounts
from .lda import TokenCells, warn_every_fit
from .vsm import cosine_scores

_PERPLEXITY_FLOOR_MIX = 1e-6    # uniform mass mixed in for held-out scoring
IMPROVEMENT_TOL = 1e-6          # relative held-out perplexity gain that counts
FOLD_IN_MAX_ITERS = 50
FOLD_IN_TOL = 1e-6              # largest L1 change of a folded-in mixture
BETA_START = 1.0                # E-step exponent of the first temperature
BETA_DECAY = 0.9                # factor from one temperature to the next
MIN_BETA = 0.5                  # lowest exponent train_plsa reaches
HOLDOUT_FRACTION = 0.1          # share of tokens held out for perplexity
MAX_ITERS_PER_BETA = 200        # EM passes at one temperature
MAX_TOTAL_ITERS = 1000          # EM passes in one train_plsa fit


@dataclass
class PlsaModel:
    """Fitted aspect model: topic mixtures per document, word tables, and
    the temperature the fit ended at."""

    # (docs, k) rows sum to one, or are zero for a document with no count
    p_dz: np.ndarray
    p_wz: np.ndarray            # (k, vocabulary) rows sum to one
    beta_temp: float


@dataclass
class PlsaTrainResult:
    model: PlsaModel
    objective_trace: list[tuple[float, float]] = field(default_factory=list)
    perplexity_trace: list[float] = field(default_factory=list)


def split_holdout(matrix: sp.csr_matrix, fraction: float, seed: int):
    """Randomly hold out roughly ``fraction`` of the observed tokens.

    Operates cell-wise with binomial draws, so the split is by token, not
    by document or by term.
    """
    matrix = matrix.tocsr()
    rng = np.random.default_rng(seed)
    held_data = rng.binomial(matrix.data.astype(np.int64), fraction)
    train = matrix.copy()
    train.data = matrix.data - held_data
    held = matrix.copy()
    held.data = held_data
    train.eliminate_zeros()
    held.eliminate_zeros()
    return train.astype(np.int64), held.astype(np.int64)


def _em_pass(blocks, p_dz: np.ndarray, p_wz: np.ndarray, beta_temp: float):
    """One tempered EM sweep over the training matrix, cut into
    ``TokenCells.blocks`` of ``lda.DOC_CHUNK`` documents.  Returns new
    tables and the tempered objective value at the parameters the sweep
    started from."""
    k, n_terms = p_wz.shape
    tempered_t = np.ascontiguousarray(p_wz.T) ** beta_temp     # (terms, k)
    new_dz = np.empty_like(p_dz)
    stats_t = np.zeros((n_terms, k))
    objective = 0.0
    for rows, cells in blocks:
        mix = p_dz[rows]
        norm = cells.norms(mix, tempered_t)
        objective += float(cells.counts @ np.log(norm))
        scaled = cells.scaled(norm)
        new_dz[rows] = mix * (scaled @ tempered_t)
        stats_t += scaled.T @ mix
    stats_wz = (stats_t * tempered_t).T
    # a document with no training count gets a zero row
    new_dz /= np.maximum(new_dz.sum(axis=1, keepdims=True), 1.0)
    topic_totals = stats_wz.sum(axis=1, keepdims=True)
    stats_wz = np.where(topic_totals > 0, stats_wz / np.maximum(topic_totals, 1.0),
                        1.0 / n_terms)
    return new_dz, stats_wz, objective


def holdout_perplexity(cells: TokenCells, p_dz, p_wz) -> float:
    """Perplexity of held-out tokens under the untempered mixture.

    ``cells`` are the held-out count matrix's, built once per fit and scored
    pass after pass.  A vanishing uniform component keeps fully-held-out
    terms finite.
    """
    total = cells.counts.sum()
    if total == 0:
        return float("nan")
    n_terms = p_wz.shape[1]
    probs = cells.norms(p_dz, np.ascontiguousarray(p_wz.T))
    probs = (1.0 - _PERPLEXITY_FLOOR_MIX) * probs + _PERPLEXITY_FLOOR_MIX / n_terms
    log_lik = float(cells.counts @ np.log(probs))
    return float(np.exp(-log_lik / total))


def _init_tables(n_docs: int, n_terms: int, k: int, seed: int):
    rng = np.random.default_rng(seed)
    p_dz = rng.random((n_docs, k)) + 1.0 / k
    p_dz /= p_dz.sum(axis=1, keepdims=True)
    p_wz = rng.random((k, n_terms)) + 1.0 / n_terms
    p_wz /= p_wz.sum(axis=1, keepdims=True)
    return p_dz, p_wz


def train_plsa(counts: TermDocCounts, k: int,
               seed: int = 0) -> PlsaTrainResult:
    """Tempered EM with early stopping on held-out token perplexity.

    A temperature ends when a pass fails to improve that temperature's
    lowest held-out perplexity by ``IMPROVEMENT_TOL``, or after
    ``MAX_ITERS_PER_BETA`` passes.  The returned model is the first pass
    with the lowest held-out perplexity seen anywhere during the anneal,
    tagged with the temperature it was taken at.  A corpus too small to
    hold tokens out runs one temperature and returns its last pass.  A
    document EM saw no count of is folded in (`fold_in`) with the kept
    tables, so one with no count at all has a zero row of ``p_dz``.
    """
    if k < 1:
        raise ValueError("topic count must be at least 1")
    matrix = counts.matrix.tocsr()
    train, held = split_holdout(matrix, HOLDOUT_FRACTION, seed)
    if held.data.sum() == 0 or train.data.sum() == 0:
        train, held = matrix, None

    p_dz, p_wz = _init_tables(matrix.shape[0], matrix.shape[1], k, seed)
    blocks = TokenCells.blocks(train, lda.DOC_CHUNK)
    held_cells = None if held is None else TokenCells(held)
    beta_temp = BETA_START
    trace: list[tuple[float, float]] = []
    perps: list[float] = []
    best = (np.inf, p_dz, p_wz, beta_temp)  # (perplexity, p_dz, p_wz, beta)
    # lowest held-out perplexity at this temperature and at the one before
    lowest = prev_lowest = np.inf
    passes = 0                      # at this temperature
    while True:
        if len(trace) == MAX_TOTAL_ITERS:
            warn_every_fit("tempered EM hit the total iteration cap")
            break
        p_dz, p_wz, objective = _em_pass(blocks, p_dz, p_wz, beta_temp)
        trace.append((beta_temp, objective))
        passes += 1
        if held_cells is None:
            best = (np.inf, p_dz, p_wz, beta_temp)
            improved = True
        else:
            perp = holdout_perplexity(held_cells, p_dz, p_wz)
            perps.append(perp)
            improved = perp < lowest * (1.0 - IMPROVEMENT_TOL)
            lowest = min(lowest, perp)
            if perp < best[0]:
                best = (perp, p_dz, p_wz, beta_temp)
        if improved and passes < MAX_ITERS_PER_BETA:
            continue
        if (held_cells is None
                or not lowest < prev_lowest * (1.0 - IMPROVEMENT_TOL)
                or beta_temp * BETA_DECAY < MIN_BETA):
            break
        prev_lowest, lowest, passes = lowest, np.inf, 0
        beta_temp *= BETA_DECAY

    _, p_dz, p_wz, beta_temp = best
    model = PlsaModel(p_dz=p_dz, p_wz=p_wz, beta_temp=beta_temp)
    unseen = np.flatnonzero(np.diff(train.indptr) == 0)
    if len(unseen):
        p_dz[unseen] = fold_in(model, matrix[unseen])[0]
    return PlsaTrainResult(model=model, objective_trace=trace,
                           perplexity_trace=perps)


def fold_in(model: PlsaModel, query_counts):
    """Topic mixtures for a (rows x terms) count matrix of held-out texts,
    with the word tables frozen.

    EM over P(z|q) only, run at the model's final temperature.  Returns the
    (rows x k) mixtures and a mask of rows that had any in-vocabulary term.
    A mixture sums to one, or is zero for a row with no such term: its
    first update has nothing to divide among the topics.
    """
    rows = sp.csr_matrix(query_counts, dtype=float)
    cells = TokenCells(rows)
    lengths = np.asarray(rows.sum(axis=1)).ravel()
    tempered_t = np.ascontiguousarray(model.p_wz.T) ** model.beta_temp

    k = model.p_wz.shape[0]
    p_qz = np.full((rows.shape[0], k), 1.0 / k)
    for _ in range(FOLD_IN_MAX_ITERS):
        scaled = cells.scaled(cells.norms(p_qz, tempered_t))
        new = p_qz * (scaled @ tempered_t) / np.maximum(lengths, 1.0)[:, None]
        change = np.abs(new - p_qz).sum(axis=1).max(initial=0.0)
        p_qz = new
        if change < FOLD_IN_TOL:
            break
    return p_qz, lengths > 0


def score_plsa(model: PlsaModel, query_counts) -> np.ndarray:
    """(rows x docs) cosine between the folded-in mixtures of a (rows x
    terms) query count matrix and the document mixtures.

    A query or document with no in-vocabulary term has a zero mixture and
    scores zero against everything.
    """
    return cosine_scores(fold_in(model, query_counts)[0], model.p_dz)
