"""Boosted fusion of constituent rankers over shared score matrices.

Constituents are frozen rankers represented by their full query-by-document
score matrices.  Fusion (the paper's EnM.B) learns one nonnegative weight per
constituent by query-weighted boosting: each round picks the constituent
with the highest weighted mean average precision r under the current query
weights, grants it Schapire & Singer's confidence-rated step
1/2 ln((1 + r) / (1 - r)) ("Improved boosting algorithms using
confidence-rated predictions", 1999), then re-focuses the query weights on
whatever the combined ranking still gets wrong.  That pick minimises the
round's normaliser sqrt(1 - r^2) under this step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import (Judgments, ap_matrix, mean_average_precision,
                      weighted_sum)
# Not called here; kept importable for callers that reach them through this
# module.
from .metrics import average_precision, rank_documents  # noqa: F401

AP_CLIP = 1e-6


@dataclass
class ScoreMatrix:
    """One ranker's scores for every (query, document) pair."""

    tag: str
    scores: np.ndarray
    query_ids: np.ndarray
    doc_ids: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.query_ids = np.asarray(self.query_ids, dtype=np.int64)
        self.doc_ids = np.asarray(self.doc_ids, dtype=np.int64)
        if self.scores.shape != (len(self.query_ids), len(self.doc_ids)):
            raise ValueError(f"{self.tag}: score shape does not match ids")


def validate_alignment(matrices: list[ScoreMatrix]) -> None:
    if not matrices:
        raise ValueError("no score matrices")
    first = matrices[0]
    for m in matrices[1:]:
        if not np.array_equal(m.query_ids, first.query_ids):
            raise ValueError(f"{m.tag}: query ids differ from {first.tag}")
        if not np.array_equal(m.doc_ids, first.doc_ids):
            raise ValueError(f"{m.tag}: doc ids differ from {first.tag}")


def combined_scores(alpha: np.ndarray, matrices: list[ScoreMatrix]) -> np.ndarray:
    """Weighted sum of constituent score matrices (``metrics.weighted_sum``,
    the sum boosting ranks).  The sum is the only new whole matrix; each
    weighted term is one block of rows at a time."""
    validate_alignment(matrices)
    alpha = np.asarray(alpha, dtype=float)
    if len(alpha) != len(matrices):
        raise ValueError("one weight per constituent required")
    return weighted_sum(zip(alpha, [m.scores for m in matrices]),
                        np.empty_like(matrices[0].scores))


def normalize_weights(alpha: np.ndarray) -> np.ndarray:
    """Scale weights to sum to one for reporting; ranking is scale-free."""
    alpha = np.asarray(alpha, dtype=float)
    total = alpha.sum()
    if total <= 0:
        raise ValueError("weights must have positive total")
    return alpha / total


def step_size(weights: np.ndarray, aps: np.ndarray) -> float:
    """Closed-form weight increment: half the log odds of the weighted
    precision margin.  Average precisions are clipped away from 0 and 1 so
    the increment stays finite."""
    weights = np.asarray(weights, dtype=float)
    aps = np.clip(np.asarray(aps, dtype=float), AP_CLIP, 1.0 - AP_CLIP)
    up = float(weights @ (1.0 + aps))
    down = float(weights @ (1.0 - aps))
    return 0.5 * np.log(up / down)


def reweight_queries(ensemble_aps: np.ndarray) -> np.ndarray:
    """New query distribution: exponentially emphasize low-precision queries."""
    w = np.exp(-np.asarray(ensemble_aps, dtype=float))
    return w / w.sum()


@dataclass
class BoostRound:
    """What one boosting round did, for inspection and tests."""

    number: int
    model_index: int
    tag: str
    delta: float
    ensemble_map: float
    map_change: float
    query_weights: np.ndarray   # distribution used by this round's selection
    alpha: np.ndarray           # cumulative weights after this round
    pool_reset: bool = False


@dataclass
class EnsembleWeights:
    """Learned fusion: weights, the full round trace, and convergence info."""

    tags: list[str]
    alpha: np.ndarray
    rounds: list[BoostRound] = field(default_factory=list)
    converged: bool = True
    best_round: int = 0
    train_map: float = 0.0

    def normalized(self) -> np.ndarray:
        return normalize_weights(self.alpha)


def select_constituent(weights: np.ndarray, ap_table: np.ndarray,
                       pool: set[int]) -> int:
    """Pick the constituent of ``pool`` with the highest weighted mean
    average precision under the current query weights; ties go to the
    lowest index."""
    candidates = sorted(pool)
    values = [ap_table[j] @ weights for j in candidates]
    return candidates[int(np.argmax(values))]


def train_ensemble(matrices: list[ScoreMatrix], qrels: np.ndarray,
              eps: float = 1e-4, max_rounds: int = 200, *,
              ap_table: np.ndarray | None = None) -> EnsembleWeights:
    """Learn fusion weights by query-weighted boosting.

    Rounds continue while each one still moves training MAP by more than
    ``eps``; a constituent leaves the candidate pool after being picked and
    the pool refills once empty.  The returned weights are the snapshot from
    the earliest round achieving the best training MAP; a round-limit exit
    is reported through ``converged=False``.  ``ap_table`` is the
    constituents' per-query AP (as ``ap_matrix`` gives it), when the caller
    already has it.

    Boosting reads only the judged rows: constituents not already in the
    judged layout are gathered into it once (``Judgments.gather``).  Every
    round ranks the fused scores one block of rows at a time
    (``Judgments.weighted_average_precisions``), so no full fused matrix is
    built; they are bitwise the scores ``combined_scores`` gives.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    validate_alignment(matrices)
    judged = Judgments(matrices[0].query_ids, matrices[0].doc_ids, qrels)
    if not len(judged.rows):
        raise ValueError("no judged queries to train on")

    if not judged.in_layout:
        matrices = [ScoreMatrix(m.tag, judged.gather(m.scores),
                                judged.query_ids, judged.doc_ids)
                    for m in matrices]
        judged = Judgments(judged.query_ids, judged.doc_ids, qrels)
    if ap_table is None:
        ap_table = np.array([judged.average_precisions(m.scores)
                             for m in matrices])
    elif np.shape(ap_table) != (len(matrices), len(judged.rows)):
        raise ValueError("ap_table needs one row per constituent and one "
                         "column per judged query")
    n_models = len(matrices)
    n_queries = len(judged.rows)
    scores = [m.scores for m in matrices]
    weights = np.full(n_queries, 1.0 / n_queries)
    alpha = np.zeros(n_models)
    pool = set(range(n_models))
    trace: list[BoostRound] = []
    prev_map = 0.0
    converged = False

    for number in range(1, max_rounds + 1):
        chosen = select_constituent(weights, ap_table, pool)
        delta = step_size(weights, ap_table[chosen])
        alpha[chosen] += delta
        h_aps = judged.weighted_average_precisions(alpha, scores)
        current_map = mean_average_precision(h_aps)
        change = abs(current_map - prev_map)

        stopping = change <= eps
        reset = False
        if not stopping:
            pool.discard(chosen)
            reset = not pool
            if reset:
                pool = set(range(n_models))
        trace.append(BoostRound(
            number=number, model_index=chosen, tag=matrices[chosen].tag,
            delta=delta, ensemble_map=current_map, map_change=change,
            query_weights=weights.copy(), alpha=alpha.copy(),
            pool_reset=reset,
        ))
        if stopping:
            converged = True
            break
        weights = reweight_queries(h_aps)
        prev_map = current_map

    best_round = int(np.argmax([r.ensemble_map for r in trace]))
    best = trace[best_round]
    return EnsembleWeights(
        tags=[m.tag for m in matrices], alpha=best.alpha.copy(), rounds=trace,
        converged=converged, best_round=best_round,
        train_map=best.ensemble_map,
    )


def ensemble_loss(h_aps) -> float:
    """Total shortfall from perfect precision over the training queries."""
    return float(np.sum(1.0 - np.asarray(h_aps, dtype=float)))


def exp_loss_bound(h_aps) -> float:
    """Exponential surrogate that upper-bounds the loss above."""
    return float(np.sum(np.exp(-np.asarray(h_aps, dtype=float))))


@dataclass
class FoldResult:
    train_rows: np.ndarray
    test_rows: np.ndarray
    weights: EnsembleWeights
    test_map: float
    uniform_test_map: float
    constituent_test_maps: dict[str, float]


@dataclass
class CrossValReport:
    folds: list[FoldResult]

    @property
    def mean_test_map(self) -> float:
        return float(np.mean([f.test_map for f in self.folds]))

    @property
    def mean_uniform_test_map(self) -> float:
        return float(np.mean([f.uniform_test_map for f in self.folds]))

    def mean_constituent_test_maps(self) -> dict[str, float]:
        tags = self.folds[0].constituent_test_maps.keys()
        return {t: float(np.mean([f.constituent_test_maps[t] for f in self.folds]))
                for t in tags}


def cross_validate(matrices: list[ScoreMatrix], qrels: np.ndarray,
                   n_folds: int = 2, seed: int = 0, eps: float = 1e-4,
                   max_rounds: int = 200) -> CrossValReport:
    """Split judged queries into folds by seeded shuffle; train on each
    fold's complement and test on the fold, every direction.

    A query's AP depends on its own row only, so the constituents' AP is
    taken once for every judged query and sliced for each fold's training
    and test sides.  Fold matrices are cut straight into the judged layout
    (rows of the fold, columns by doc id), which training reads in place.
    Each test fold is ranked as boosting ranks, block by block
    (``Judgments.weighted_average_precisions``), under the boosted weights
    and under equal weights (the no-training baseline).
    """
    if n_folds < 2:
        raise ValueError(f"n_folds must be at least 2, got {n_folds}")
    validate_alignment(matrices)
    judged = Judgments(matrices[0].query_ids, matrices[0].doc_ids, qrels)
    if len(judged.rows) < n_folds:
        raise ValueError("not enough judged queries for the fold count")
    # ranked through a Judgments of its own, whose block plan is freed
    # before the folds train; ``judged`` only cuts the folds
    ap_table = ap_matrix([m.scores for m in matrices], matrices[0].query_ids,
                         matrices[0].doc_ids, qrels)
    # positions into judged.rows, in the seeded shuffle
    shuffled = np.random.default_rng(seed).permutation(len(judged.rows))
    uniform = np.full(len(matrices), 1.0 / len(matrices))

    def fold(positions):
        return [ScoreMatrix(tag=m.tag, scores=judged.gather(m.scores, positions),
                            query_ids=judged.query_ids[positions],
                            doc_ids=judged.doc_ids) for m in matrices]

    results = []
    for test_pos in np.array_split(shuffled, n_folds):
        test_set = set(test_pos.tolist())
        train_pos = np.array([p for p in shuffled if p not in test_set])
        weights = train_ensemble(fold(train_pos), qrels, eps=eps,
                                 max_rounds=max_rounds,
                                 ap_table=ap_table[:, train_pos])
        tested = Judgments(judged.query_ids[test_pos], judged.doc_ids, qrels)
        test_scores = [judged.gather(m.scores, test_pos) for m in matrices]
        test_map, uniform_map = (mean_average_precision(
            tested.weighted_average_precisions(alpha, test_scores))
            for alpha in (weights.alpha, uniform))
        results.append(FoldResult(
            train_rows=judged.rows[train_pos], test_rows=judged.rows[test_pos],
            weights=weights, test_map=test_map, uniform_test_map=uniform_map,
            constituent_test_maps={
                m.tag: mean_average_precision(aps)
                for m, aps in zip(matrices, ap_table[:, test_pos])},
        ))
    return CrossValReport(folds=results)
