"""Rank-based retrieval evaluation: average precision, MAP, PR curves.

One ranking rule serves every caller: documents in descending score, ties
broken by ascending document id (``0.0`` and ``-0.0`` tie; NaN scores rank
last); every ranking covers the full document list.  Whole score matrices
are ranked a block of rows at a time (``Judgments``), and the one-ranking
functions below are the one-row case of the same code.

Average precision accumulates ``hits / rank`` with ``np.cumsum`` in rank
order, the order of its definition, so it is bitwise equal to the plain
sequential sum over the ranking; ``np.sum`` adds pairwise and would differ
in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RECALL_LEVELS = np.linspace(0.0, 1.0, 11)

# Score cells ranked per block; bounds the temporaries of ``Judgments``.
BLOCK_CELLS = 1 << 15


def _rank_order(neg: np.ndarray) -> np.ndarray:
    """Per row of ``neg`` (negated scores, columns in ascending doc-id
    order): the column order of ascending ``neg``, equal values by column."""
    order = np.argsort(neg, axis=1)
    ranked = np.take_along_axis(neg, order, axis=1)
    # the unstable sort leaves equal scores in arbitrary order; NaNs sort last
    same = (ranked[:, 1:] == ranked[:, :-1]) | np.isnan(ranked[:, :-1])
    tied = same.any(axis=1)
    if tied.any():
        # number each run of equal values, then sort (run, column) keys
        n_docs = neg.shape[1]
        runs = np.zeros((int(tied.sum()), n_docs), dtype=np.int64)
        np.cumsum(~same[tied], axis=1, out=runs[:, 1:])
        order[tied] = np.sort(runs * n_docs + order[tied], axis=1) % n_docs
    return order


def _fill_hit_precisions(hits: np.ndarray, out: np.ndarray) -> None:
    """Precision at the rank of each relevant document, per row of the
    rank-ordered relevance flags ``hits``, written left-aligned into the
    zero-filled ``out``."""
    rows, cols = np.nonzero(hits)
    nth = np.arange(len(rows)) - np.searchsorted(rows, rows)
    out[rows, nth] = (nth + 1) / (cols + 1)


def _average_precisions(precisions: np.ndarray, counts: np.ndarray) -> np.ndarray:
    return np.cumsum(precisions, axis=1)[:, -1] / counts


def _curves(precisions: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Interpolated precision at the 11 recall levels, one row per ranking."""
    best_from = np.maximum.accumulate(precisions[:, ::-1], axis=1)[:, ::-1]
    recalls = np.arange(1, precisions.shape[1] + 1) / counts[:, None]
    first = (recalls[:, :, None] < RECALL_LEVELS - 1e-12).sum(axis=1)
    return np.take_along_axis(best_from, first, axis=1)


def _ranking_precisions(ranked_ids, relevant) -> tuple[np.ndarray, np.ndarray]:
    """Hit precisions and relevant count of one explicit ranking; a
    document repeated in it counts at its first rank."""
    relevant = set(relevant)
    if not relevant:
        raise ValueError("evaluation needs at least one relevant document")
    ranked = np.asarray(ranked_ids)
    hits = np.zeros((1, len(ranked)), dtype=bool)
    _, first = np.unique(ranked, return_index=True)
    hits[0, first] = np.isin(ranked[first], list(relevant))
    if hits.sum() != len(relevant):
        missing = sorted(relevant - set(ranked.tolist()))
        raise ValueError(f"relevant documents missing from ranking: {missing[:5]}")
    precisions = np.zeros((1, len(relevant)))
    _fill_hit_precisions(hits, precisions)
    return precisions, np.array([len(relevant)])


def rank_documents(scores: np.ndarray, doc_ids: np.ndarray) -> np.ndarray:
    """Return doc ids sorted by descending score, ties by ascending id."""
    scores = np.asarray(scores, dtype=float)
    doc_ids = np.asarray(doc_ids)
    if scores.shape != doc_ids.shape:
        raise ValueError("scores and doc_ids must align")
    by_id = np.argsort(doc_ids, kind="stable")
    return doc_ids[by_id[_rank_order(-scores[by_id][None])[0]]]


def average_precision(ranked_ids, relevant) -> float:
    """Mean over relevant documents of precision at each one's rank.

    Requires a non-empty judgment set wholly contained in the ranking; the
    full ranking participates, with no cutoff.
    """
    return float(_average_precisions(*_ranking_precisions(ranked_ids, relevant))[0])


def mean_average_precision(aps) -> float:
    aps = list(aps)
    if not aps:
        raise ValueError("MAP over an empty query set is undefined")
    return float(np.mean(aps))


def pr_curve(ranked_ids, relevant) -> np.ndarray:
    """Interpolated precision at the 11 standard recall levels.

    Interpolated precision at recall r is the maximum precision achieved at
    any rank whose recall is at least r.
    """
    return _curves(*_ranking_precisions(ranked_ids, relevant))[0]


def macro_average_curve(curves) -> np.ndarray:
    curves = np.asarray(list(curves), dtype=float)
    if curves.size == 0:
        raise ValueError("no curves to average")
    return curves.mean(axis=0)


class Judgments:
    """The judged queries of one (queries x docs) score layout, with their
    relevance flags built once and reused for every matrix of that layout.

    ``rows`` are the judged row positions, in score-matrix order; queries
    without judgments are left out.
    """

    def __init__(self, query_ids, doc_ids, qrels):
        query_ids = np.asarray(query_ids)
        doc_ids = np.asarray(doc_ids)
        self.rows = np.array([qi for qi, qid in enumerate(query_ids)
                              if qrels.get(int(qid))], dtype=np.int64)
        self.query_ids = query_ids[self.rows]
        self.n_docs = len(doc_ids)
        self._by_id = np.argsort(doc_ids, kind="stable")
        sorted_ids = doc_ids[self._by_id]
        if np.any(sorted_ids[1:] == sorted_ids[:-1]):
            raise ValueError("document ids repeat")
        self._flags = np.zeros((len(self.rows), self.n_docs), dtype=bool)
        for j, qid in enumerate(self.query_ids.tolist()):
            relevant = np.fromiter(qrels[qid], dtype=np.int64)
            cols = np.searchsorted(sorted_ids, relevant)
            found = cols < self.n_docs
            found[found] = sorted_ids[cols[found]] == relevant[found]
            if not found.all():
                missing = sorted(relevant[~found].tolist())
                raise ValueError(
                    f"relevant documents missing from ranking: {missing[:5]}")
            self._flags[j, cols] = True
        self.counts = self._flags.sum(axis=1)

    def hit_precisions(self, scores: np.ndarray) -> np.ndarray:
        """Precision at each relevant document's rank, per judged query of
        ``scores`` (rows in rank order, zero-padded to the longest)."""
        scores = np.asarray(scores, dtype=float)
        out = np.zeros((len(self.rows), self.counts.max(initial=1)))
        step = max(1, BLOCK_CELLS // max(self.n_docs, 1))
        for start in range(0, len(self.rows), step):
            block = slice(start, start + step)
            neg = -scores[self.rows[block, None], self._by_id]
            hits = np.take_along_axis(self._flags[block], _rank_order(neg), axis=1)
            _fill_hit_precisions(hits, out[block])
        return out

    def average_precisions(self, scores: np.ndarray) -> np.ndarray:
        """AP of every judged query of ``scores``, in ``rows`` order."""
        return _average_precisions(self.hit_precisions(scores), self.counts)


@dataclass
class EvalReport:
    """Per-query and aggregate retrieval quality for one score matrix."""

    per_query_ap: dict[int, float]
    map_score: float
    curve: np.ndarray
    skipped_queries: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "map": self.map_score,
            "recall_levels": RECALL_LEVELS.tolist(),
            "interpolated_precision": self.curve.tolist(),
            "per_query_ap": {str(k): v for k, v in sorted(self.per_query_ap.items())},
            "skipped_queries": self.skipped_queries,
        }


def evaluate_scores(scores: np.ndarray, query_ids, doc_ids, qrels) -> EvalReport:
    """Score matrix (queries x docs) -> AP per judged query, MAP, macro curve.

    Queries without judgments are skipped and listed, never counted as zero.
    """
    scores = np.asarray(scores, dtype=float)
    query_ids = np.asarray(query_ids)
    doc_ids = np.asarray(doc_ids)
    if scores.shape != (len(query_ids), len(doc_ids)):
        raise ValueError("score matrix shape does not match ids")
    judged = Judgments(query_ids, doc_ids, qrels)
    if not len(judged.rows):
        raise ValueError("no judged queries to evaluate")
    precisions = judged.hit_precisions(scores)
    aps = _average_precisions(precisions, judged.counts)
    per_query = dict(zip(judged.query_ids.tolist(), aps.tolist()))
    return EvalReport(
        per_query_ap=per_query,
        map_score=mean_average_precision(per_query.values()),
        curve=macro_average_curve(_curves(precisions, judged.counts)),
        skipped_queries=np.delete(query_ids, judged.rows).tolist(),
    )


def ap_matrix(score_matrices, query_ids, doc_ids, qrels) -> np.ndarray:
    """AP for every (ranker, judged query) pair; queries without judgments
    are excluded from the columns."""
    judged = Judgments(query_ids, doc_ids, qrels)
    out = np.zeros((len(score_matrices), len(judged.rows)))
    for mi, scores in enumerate(score_matrices):
        out[mi] = judged.average_precisions(scores)
    return out
