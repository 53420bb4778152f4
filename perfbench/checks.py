"""Output checks and quality numbers computed by the benchmark itself.

The AP recomputation here is deliberately separate from ``ldikit.metrics``:
it ranks by descending score with ties broken by ascending document id and
accumulates precision at each relevant rank in rank order, which is the
definition the eval report must match exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from generate import word_list

# Each ranker's MAP must reach this multiple of the MAP a random ranking
# gets on the same judgments; below it the generated inputs are degenerate.
MIN_MAP_OVER_RANDOM = 2.0


def read_qrels(path) -> dict[int, set[int]]:
    qrels: dict[int, set[int]] = {}
    for line in Path(path).read_text().splitlines():
        qid, _, did, _ = line.split()
        qrels.setdefault(int(qid), set()).add(int(did))
    return qrels


def average_precision(scores: np.ndarray, doc_ids: np.ndarray, relevant) -> float:
    order = np.lexsort((doc_ids, -scores))
    ranks = [rank for rank, did in enumerate(doc_ids[order].tolist(), 1)
             if did in relevant]
    total = 0.0
    for j, rank in enumerate(ranks, 1):
        total += j / rank
    return total / len(ranks)


def recompute_report(matrix, qrels) -> dict:
    """Per-query AP and MAP of a loaded score matrix, judged queries only."""
    per_query = {}
    for row, qid in zip(matrix.scores, matrix.query_ids.tolist()):
        if qrels.get(qid):
            per_query[str(qid)] = average_precision(row, matrix.doc_ids, qrels[qid])
    return {"per_query_ap": per_query,
            "map": float(np.mean(list(per_query.values())))}


def report_matches(recomputed: dict, report: dict) -> bool:
    """Exact equality, per query and for the mean."""
    return (recomputed["per_query_ap"] == report["per_query_ap"]
            and recomputed["map"] == report["map"])


def random_map(qrels: dict[int, set[int]], n_docs: int, draws: int = 20) -> float:
    """Expected MAP of a uniformly random ranking, by fixed-seed sampling."""
    rng = np.random.default_rng(0)
    aps = []
    for relevant in qrels.values():
        n_rel = len(relevant)
        hits = np.arange(1, n_rel + 1)
        for _ in range(draws):
            ranks = np.sort(rng.choice(n_docs, size=n_rel, replace=False)) + 1
            aps.append(float(np.mean(hits / ranks)))
    return float(np.mean(aps))


def topic_recovery(beta: np.ndarray, vocabulary: list[str],
                   planted: np.ndarray) -> float:
    """Mean over planted topics of the best cosine with any fitted topic.

    Both tables are compared over the fitted vocabulary; planted words that
    never made it into the vocabulary drop out.
    """
    index = {term: j for j, term in enumerate(vocabulary)}
    words = word_list(planted.shape[1])
    cols = [(i, index[w]) for i, w in enumerate(words) if w in index]
    src, dst = (np.array(c) for c in zip(*cols))
    aligned = np.zeros((planted.shape[0], len(vocabulary)))
    aligned[:, dst] = planted[:, src]
    a = aligned / np.linalg.norm(aligned, axis=1, keepdims=True)
    b = beta / np.linalg.norm(beta, axis=1, keepdims=True)
    return float((a @ b.T).max(axis=1).mean())


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())
