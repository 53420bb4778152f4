"""Rank-based retrieval evaluation: average precision, MAP, PR curves.

One ranking rule serves every caller: documents in descending score, ties
broken by ascending document id (``0.0`` and ``-0.0`` tie; NaN scores rank
below every number and tie with each other); every ranking covers the full
document list.  ``rank_documents`` states the rule as one ``lexsort``.

AP and the 11-point curve need only the rank of each relevant document, so
whole score matrices (``Judgments``, a block of rows at a time) are not
argsorted.  With the columns in ascending doc-id order, a relevant
document's rank is 1 + (number of scores ranked above it) + (number of
equal scores at a lower column).  A value-only sort of the negated row puts
the scores in descending order with the NaNs last, so one ``searchsorted``
of the document's own negated score gives the first count: the higher
numbers for a number, every number for a NaN.  The relevant documents'
negated scores are sorted within their row first, so their ranks come out
ascending, in the order the precisions are written.  Only a score that
repeats in its row (for a NaN: the row holds two) needs the second count,
taken exactly.  Where each block's relevant cells sit is worked out once
per ``Judgments`` and reused for every matrix it ranks.  Explicit rankings
(``average_precision``, ``pr_curve``) give each relevant document's rank
directly, and both kinds of rank become precisions in one step.

Fused scores are one definition, ``weighted_sum``: the sum is whole only in
the output it fills, and each constituent's weighted term is added one
block of rows at a time (``row_blocks``).  Boosting ranks the sum one
block at a time, so its output is one block too; ``ensemble.combined_scores``
and ``ldikit ensemble apply`` fill a whole matrix.

Average precision accumulates ``hits / rank`` with ``np.cumsum`` in rank
order, the order of its definition, so it is bitwise equal to the plain
sequential sum over the ranking; ``np.sum`` adds pairwise and would differ
in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RECALL_LEVELS = np.linspace(0.0, 1.0, 11)

# Score cells per block of rows; bounds the temporaries of ``Judgments``,
# ``weighted_sum`` and ``vsm``'s scorers.
BLOCK_CELLS = 1 << 15


def row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive slices of ``n_rows`` rows, each of at most
    ``BLOCK_CELLS`` cells of ``n_cols`` columns (at least one row)."""
    step = max(1, BLOCK_CELLS // max(n_cols, 1))
    return [slice(start, min(start + step, n_rows))
            for start in range(0, n_rows, step)]


def weighted_sum(constituents, out: np.ndarray) -> np.ndarray:
    """``out`` = the sum of ``weight * matrix`` over the (weight, matrix)
    pairs of ``constituents``, added from zero in their order: the one
    definition of fused scores.

    ``out`` is the only whole matrix this makes: each product is taken one
    block of rows at a time.  ``constituents`` may load its matrices
    lazily; each is released before the next is drawn, so only one is
    held at a time.
    """
    out.fill(0.0)
    blocks = row_blocks(*out.shape)
    term = np.empty((max((b.stop - b.start for b in blocks), default=0),
                     out.shape[1]))
    for weight, matrix in constituents:
        for rows in blocks:
            fused = out[rows]
            fused += np.multiply(weight, matrix[rows], out=term[:len(fused)])
        del matrix
    return out


def _precisions(hits: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Precision at each hit of a ranking: ``hits`` relevant documents
    (the 1-based hit count, as floats) found down to 0-based ``rank``; an
    infinite rank, which pads a row, gives 0."""
    return hits / (rank + 1)


def _average_precisions(precisions: np.ndarray, counts: np.ndarray) -> np.ndarray:
    return np.cumsum(precisions, axis=1)[:, -1] / counts


def _curves(precisions: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Interpolated precision at the 11 recall levels, one row per ranking.

    Level l reads the best precision from the first hit ``m`` (0-based)
    whose recall ``(m + 1) / count`` is not below ``l - 1e-12``.  That is
    ``ceil(l * count) - 1`` up to float rounding, which the same float
    test settles by single steps.
    """
    counts = counts[:, None]
    floor = RECALL_LEVELS - 1e-12
    first = np.maximum(np.ceil(RECALL_LEVELS * counts).astype(np.int64) - 1, 0)
    while True:
        # hit ``first`` is still below the level; hit ``first - 1`` is not
        below = (first + 1) / counts < floor
        reached = (first > 0) & ~(first / counts < floor)
        if not (below.any() or reached.any()):
            break
        first += below
        first -= reached
    # the maximum of each stretch between picked hits, then from each level
    # on; level 0 picks hit 0, so a row's last stretch ends where the next
    # row begins, and the zero padding never exceeds a precision
    starts = first + precisions.shape[1] * np.arange(len(first))[:, None]
    stretch = np.maximum.reduceat(precisions.ravel(), starts.ravel())
    stretch = stretch.reshape(first.shape)
    return np.maximum.accumulate(stretch[:, ::-1], axis=1)[:, ::-1]


def _ranking_precisions(ranked_ids, relevant) -> tuple[np.ndarray, np.ndarray]:
    """Hit precisions and relevant count of one explicit ranking; a
    document repeated in it counts at its first rank."""
    relevant = set(relevant)
    if not relevant:
        raise ValueError("evaluation needs at least one relevant document")
    ranked = np.asarray(ranked_ids)
    ids, first = np.unique(ranked, return_index=True)
    hit = np.isin(ids, list(relevant))
    if hit.sum() != len(relevant):
        missing = sorted(relevant - set(ids.tolist()))
        raise ValueError(f"relevant documents missing from ranking: {missing[:5]}")
    rank = np.sort(first[hit])
    precisions = _precisions(np.arange(1.0, len(rank) + 1), rank)
    return precisions[None], np.array([len(relevant)])


def rank_documents(scores: np.ndarray, doc_ids: np.ndarray) -> np.ndarray:
    """Return doc ids sorted by descending score, ties by ascending id,
    NaN scores last."""
    scores = np.asarray(scores, dtype=float)
    doc_ids = np.asarray(doc_ids)
    if scores.shape != doc_ids.shape:
        raise ValueError("scores and doc_ids must align")
    return doc_ids[np.lexsort((doc_ids, -scores))]


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


def strictly_increasing(pairs: np.ndarray) -> bool:
    """Whether the rows of an (n, 2) id array rise strictly, by the first
    column, then the second: sorted, with no repeated row."""
    q, d = pairs[:, 0], pairs[:, 1]
    rises = (q[1:] > q[:-1]) | ((q[1:] == q[:-1]) & (d[1:] > d[:-1]))
    return bool(rises.all())


def _checked_pairs(qrels) -> np.ndarray:
    """``qrels`` checked to be the judged (query id, doc id) pairs array
    that ``corpus.judged_pairs`` makes."""
    pairs = np.asarray(qrels)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise ValueError("judgments must be an (n, 2) integer array of "
                         "(query id, doc id) pairs; corpus.judged_pairs "
                         "converts a mapping")
    if not strictly_increasing(pairs):
        raise ValueError("judged pairs must be strictly increasing by "
                         "(query id, doc id)")
    return pairs


class Judgments:
    """The judged queries of one (queries x docs) score layout, with the
    column of each relevant document found once, and the blocks the kernel
    ranks planned at the first ranking (``_layout_plan``), both reused for
    every matrix of that layout.

    ``qrels`` is the sorted (query id, doc id) pairs array of
    ``Corpus.qrels``; pairs of queries outside ``query_ids`` are ignored.
    ``rows`` are the judged row positions, in score-matrix order; queries
    without judgments are left out.  The kernel reads the *judged layout*
    (``gather``): the judged rows with columns in ascending doc-id order
    (``doc_ids``).  A matrix already in that layout (every query judged, ids
    ascending) is read in place.
    """

    def __init__(self, query_ids, doc_ids, qrels):
        query_ids = np.asarray(query_ids)
        doc_ids = np.asarray(doc_ids)
        pairs = _checked_pairs(qrels)
        # each query's pairs: pairs[first[i]:last[i]]
        first = np.searchsorted(pairs[:, 0], query_ids, side="left")
        last = np.searchsorted(pairs[:, 0], query_ids, side="right")
        self.rows = np.flatnonzero(last > first)
        self.query_ids = query_ids[self.rows]
        self.n_docs = len(doc_ids)
        self.doc_ids, self._by_id = np.unique(doc_ids, return_index=True)
        if len(self.doc_ids) != self.n_docs:
            raise ValueError("document ids repeat")
        self.in_layout = (len(self.rows) == len(query_ids) and np.array_equal(
            self._by_id, np.arange(self.n_docs)))
        first = first[self.rows]
        self.counts = last[self.rows] - first
        # relevant columns of judged row j: _cols[_starts[j]:_starts[j + 1]],
        # ascending, as each query's doc ids are
        self._starts = np.concatenate([[0], np.cumsum(self.counts)])
        ids = pairs[np.repeat(first - self._starts[:-1], self.counts)
                    + np.arange(self._starts[-1]), 1]
        self._cols = np.searchsorted(self.doc_ids, ids)
        found = self._cols < self.n_docs
        found[found] = self.doc_ids[self._cols[found]] == ids[found]
        if not found.all():
            missing = sorted(ids[~found].tolist())
            raise ValueError(
                f"relevant documents missing from ranking: {missing[:5]}")
        self._blocks: list[_Block] | None = None

    def gather(self, scores: np.ndarray, positions=slice(None)) -> np.ndarray:
        """The judged layout of ``scores``: the judged rows (or those at
        ``positions`` of ``rows``), columns in ascending doc-id order."""
        return np.asarray(scores, dtype=float)[self.rows[positions, None],
                                               self._by_id]

    def hit_precisions(self, scores: np.ndarray) -> np.ndarray:
        """Precision at each relevant document's rank, per judged query of
        ``scores`` (rows in rank order, zero-padded to the longest)."""
        scores = np.asarray(scores, dtype=float)
        return self._by_block(lambda block: self._block_of(scores, block))

    def average_precisions(self, scores: np.ndarray) -> np.ndarray:
        """AP of every judged query of ``scores``, in ``rows`` order."""
        return _average_precisions(self.hit_precisions(scores), self.counts)

    def weighted_average_precisions(self, weights, matrices) -> np.ndarray:
        """AP of every judged query of the sum of ``weights[i] *
        matrices[i]`` (``weighted_sum``).  Each block of the sum is built
        in one block-sized buffer and ranked while it is still in cache;
        the whole sum is never made."""
        matrices = [np.asarray(m, dtype=float) for m in matrices]
        rows = max((block.stop - block.start for block in self._plan()),
                   default=0)
        buffer = np.empty((rows, self.n_docs))

        def block_sum(block):
            parts = [self._block_of(m, block) for m in matrices]
            return weighted_sum(zip(weights, parts),
                                buffer[:block.stop - block.start])
        return _average_precisions(self._by_block(block_sum), self.counts)

    def _block_of(self, scores: np.ndarray, block: _Block) -> np.ndarray:
        rows = slice(block.start, block.stop)
        return scores[rows] if self.in_layout else self.gather(scores, rows)

    def _plan(self) -> list[_Block]:
        if self._blocks is None:
            self._blocks = self._layout_plan()
        return self._blocks

    def _layout_plan(self) -> list[_Block]:
        """Blocks of judged rows of up to ``BLOCK_CELLS`` score cells, and
        where each block's relevant cells are read and sorted."""
        cell_row = np.repeat(np.arange(len(self.rows)), self.counts)
        nth = np.arange(self._starts[-1]) - self._starts[cell_row]
        blocks = []
        for rows in row_blocks(len(self.rows), self.n_docs):
            start, stop = rows.start, rows.stop
            cells = slice(self._starts[start], self._starts[stop])
            row = cell_row[cells] - start
            needles = self.counts[start:stop].max()
            blocks.append(_Block(
                start=start, stop=stop, row=row,
                cells=row * self.n_docs + self._cols[cells],
                starts=self._starts[start:stop + 1] - self._starts[start],
                needles=needles, needle=row * needles + nth[cells]))
        return blocks

    def _by_block(self, block_values) -> np.ndarray:
        """Hit precisions of every judged row, ``block_values(block)``
        giving each block's scores in the judged layout."""
        out = np.zeros((len(self.rows), self.counts.max(initial=1)))
        for block in self._plan():
            _fill_block(block, block_values(block),
                        out[block.start:block.stop])
        return out


@dataclass(frozen=True)
class _Block:
    """Judged rows ``start:stop`` and their relevant cells, in row then
    column order: ``row`` (in the block), ``cells`` (flat in the block),
    ``starts`` each row's first cell, and ``needle``, each cell's place in
    the NaN-padded (rows x ``needles``) array that sorts them by score
    within their row; the n-th place of a row is that row's n-th hit."""

    start: int
    stop: int
    row: np.ndarray
    cells: np.ndarray
    starts: np.ndarray
    needles: int
    needle: np.ndarray


def _fill_block(block: _Block, values: np.ndarray, out: np.ndarray) -> None:
    """Hit precisions of ``block`` (``values``, its scores in the judged
    layout) into its rows ``out`` of the zero-filled output, from each
    relevant document's rank alone: #ranked above + #equal at a lower
    column."""
    n_docs = values.shape[1]
    # each row's relevant negated scores, ascending (NaNs, like the pads,
    # last), so their ranks come out ascending
    padded = np.full((block.stop - block.start, block.needles), np.nan)
    padded.reshape(-1)[block.needle] = -values.take(block.cells)
    padded.sort(axis=1)
    neg = padded.reshape(-1)[block.needle]
    ordered = -values
    ordered.sort(axis=1)                        # descending, NaNs last
    rank = np.empty(len(neg), dtype=np.int64)   # scores ranked above
    bounds = block.starts.tolist()
    for line, lo, hi in zip(ordered, bounds, bounds[1:]):
        rank[lo:hi] = line.searchsorted(neg[lo:hi])
    # a score that repeats in its row (its successor in the sorted row
    # equals it; for a NaN, is a NaN) also needs the equal scores at lower
    # columns, counted exactly.  One tie group is one (row, score); its
    # members hold consecutive places, and their ranks in column order are
    # the group's count so far plus the equal scores before each member's
    # column: the stretches from the row's start to the first member and
    # from each member to the next, summed in one ``reduceat`` and added
    # up within the group.
    nan = np.isnan(neg)
    after = ordered.reshape(-1).take(block.row * n_docs
                                     + np.minimum(rank + 1, n_docs - 1))
    tied = np.flatnonzero((rank + 1 < n_docs)
                          & ((after == neg) | (nan & np.isnan(after))))
    if len(tied):
        lead = tied[np.concatenate([[True], (np.diff(rank[tied]) != 0)
                                    | (np.diff(block.row[tied]) != 0)])]
        rows = block.row[lead]
        equal = values[rows] == -neg[lead, None]
        # NaN == NaN is false: NaN groups alone take the isnan mask
        nan_group = nan[lead]
        equal[nan_group] = np.isnan(values[rows[nan_group]])
        # each group's candidates: its row's relevant cells, column order
        size = np.diff(block.starts)[rows]
        group = np.repeat(np.arange(len(lead)), size)
        cell = np.arange(size.sum()) + np.repeat(
            block.starts[rows] - np.cumsum(size) + size, size)
        col = block.cells[cell] - rows[group] * n_docs
        member = equal[group, col]
        group, col = group[member], col[member]
        # stretch bounds, flat in ``equal``: each group's row start at
        # ``head``, then its members' columns at ``at``; every group holds
        # its lead, so each has a first member (``first``)
        first = np.flatnonzero(np.diff(group, prepend=-1))
        head = first + np.arange(len(first))
        at = np.arange(1, len(group) + 1) + group
        bounds = np.empty(len(at) + len(head), dtype=np.int64)
        bounds[head] = np.arange(len(head)) * n_docs
        bounds[at] = group * n_docs + col
        stretch = np.add.reduceat(equal.reshape(-1), bounds, dtype=np.int64)
        # reduceat reads one cell for an empty stretch: a first member at
        # column 0
        stretch[head] -= col[first] == 0
        total = np.cumsum(stretch)
        before = total[at - 1] - (total[head] - stretch[head])[group]
        rank[tied] = rank[lead][group] + before
    ranks = np.full(padded.shape, np.inf)       # a pad's precision is 0
    ranks.reshape(-1)[block.needle] = rank
    out[:, :block.needles] = _precisions(np.arange(1.0, block.needles + 1),
                                         ranks)


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
    ``qrels`` is the judged pairs array, as ``Judgments`` takes it.
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
