"""Independent reference implementations used only by the test suite.

Everything here is written the slow, obvious way (explicit loops, dense
linear algebra, enumeration, quadrature) so the fast library code has
something honest to be checked against.  Nothing in src/ imports this file.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy import integrate
from scipy.special import gammaln, logsumexp, psi


# ---------------------------------------------------------------------------
# Whole-matrix score formulas: every temporary as large as the output

def whole_cosine_scores(queries, docs):
    """Cosine from the raw product, the outer product of the row norms and a
    zero-filled output."""
    raw = queries @ docs.T
    denom = np.outer(np.linalg.norm(queries, axis=1),
                     np.linalg.norm(docs, axis=1))
    return np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0)


def whole_weighted_sum(weights, matrices):
    """Zeros, then each whole weighted matrix added in constituent order."""
    out = np.zeros(np.shape(matrices[0]))
    for w, m in zip(weights, matrices):
        out += w * np.asarray(m, dtype=float)
    return out


# ---------------------------------------------------------------------------
# Ranking metrics

def brute_force_average_precision(ranked_ids, relevant) -> float:
    """Walk the ranking; average precision-at-rank over relevant documents.

    Literal definition: for each relevant document, precision at the rank
    where it appears, averaged over all relevant documents.
    """
    relevant = set(relevant)
    if not relevant:
        raise ValueError("no relevant documents")
    hits = 0
    total = 0.0
    for rank, did in enumerate(ranked_ids, start=1):
        if did in relevant:
            hits += 1
            total += hits / rank
    if hits != len(relevant):
        raise ValueError("ranking does not contain every relevant document")
    return total / len(relevant)


def brute_force_pr_curve(ranked_ids, relevant) -> np.ndarray:
    """Interpolated precision at recall 0.0, 0.1, ..., 1.0 by exhaustive scan."""
    relevant = set(relevant)
    n_rel = len(relevant)
    points = []  # (recall, precision) after each rank
    hits = 0
    for rank, did in enumerate(ranked_ids, start=1):
        if did in relevant:
            hits += 1
        points.append((hits / n_rel, hits / rank))
    curve = []
    for level in np.linspace(0.0, 1.0, 11):
        candidates = [p for r, p in points if r >= level - 1e-12]
        curve.append(max(candidates) if candidates else 0.0)
    return np.array(curve)


# ---------------------------------------------------------------------------
# Corpus ingestion as ldikit ran it before the counting kernel: tokens
# filtered one at a time, vocabulary and counts built in dict loops,
# judgments parsed into one list per row, judged pairs hashed as text

class LoopParseError(ValueError):
    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _loop_lines(source):
    if isinstance(source, str):
        return source.splitlines()
    if isinstance(source, Path):
        return source.read_text(errors="replace").splitlines()
    return (line.rstrip("\n") for line in source)


def loop_parse_qrels(source, dialect="auto"):
    rows = []
    for line_no, line in enumerate(_loop_lines(source), 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise LoopParseError("judgment row needs at least two columns", line_no)
        rows.append((line_no, parts))
    if not rows:
        return {}
    if dialect == "auto":
        dialect = ("trec" if all(len(p) >= 3 and p[1] == "0" for _, p in rows)
                   else "pair")
    if dialect not in ("pair", "trec"):
        raise ValueError(f"unknown qrels dialect {dialect!r}")
    doc_col = 2 if dialect == "trec" else 1
    qrels = {}
    for line_no, parts in rows:
        if len(parts) <= doc_col:
            raise LoopParseError(
                f"judgment row too short for {dialect!r} layout", line_no)
        try:
            qid = int(parts[0])
            did = int(parts[doc_col])
        except ValueError:
            raise LoopParseError("judgment ids must be integers", line_no) from None
        qrels.setdefault(qid, set()).add(did)
    return qrels


_LOOP_STRIP_RE = re.compile(r"[^a-z0-9\s]+")


def loop_tokenize(text):
    cleaned = _LOOP_STRIP_RE.sub("", text.lower())
    return [t for t in cleaned.split() if len(t) >= 2 and not t.isdigit()]


def _loop_tokens(doc):
    """The tokens of a RawDocument (anything with ``.text``) or a text."""
    return loop_tokenize(getattr(doc, "text", doc))


def loop_vocabulary(docs, stoplist=None):
    """Vocabulary terms in index order; ValueError when none survive."""
    cf = {}
    for doc in docs:
        for tok in _loop_tokens(doc):
            if stoplist is not None and tok in stoplist:
                continue
            cf[tok] = cf.get(tok, 0) + 1
    terms = [t for t, c in cf.items() if c >= 2]
    if not terms:
        raise ValueError("vocabulary is empty after preprocessing")
    return terms


def loop_count_matrix(docs, terms):
    """(CSR counts, per-document token totals) over the term list."""
    index = {t: j for j, t in enumerate(terms)}
    data, indices, indptr = [], [], [0]
    for doc in docs:
        row = {}
        for tok in _loop_tokens(doc):
            j = index.get(tok)
            if j is not None:
                row[j] = row.get(j, 0) + 1
        for j in sorted(row):
            indices.append(j)
            data.append(row[j])
        indptr.append(len(indices))
    matrix = sp.csr_matrix(
        (np.array(data, dtype=np.int64), np.array(indices, dtype=np.int32),
         np.array(indptr, dtype=np.int64)),
        shape=(len(docs), len(terms)))
    lengths = np.asarray(matrix.sum(axis=1)).ravel().astype(np.int64)
    return matrix, lengths


def loop_judged_pairs(qrels):
    """The (query, doc) rows of a corpus bundle's ``qrels.bin``."""
    return np.array([(qid, did) for qid in sorted(qrels)
                     for did in sorted(qrels[qid])],
                    dtype=np.int64).reshape(-1, 2)


def loop_checksum(corpus, qrels, format_version=6):
    """Corpus content hash of bundle format ``format_version``, with the
    judgments taken from the {query: docs} mapping ``qrels``.

    Format 6 hashes the vocabulary, then the sha256 of each stored array,
    one per line: each count matrix's data, indices and indptr as 64-bit
    integers, the document and query ids, and the `loop_judged_pairs`.
    Formats 3 to 5 hashed the vocabulary, then the ids, the matrices'
    indptr, indices and data, and the judged pairs' bytes themselves;
    format 2 hashed each query's judgments as text instead of the pairs.
    """
    matrices = [corpus.counts.matrix.tocsr(), corpus.query_counts.tocsr()]
    if format_version == 6:
        stored = [part for m in matrices
                  for part in (m.data, m.indices, m.indptr)]
        stored += [corpus.doc_ids, corpus.query_ids, loop_judged_pairs(qrels)]
        lines = list(corpus.vocabulary.terms)
        for array in stored:
            lines.append(hashlib.sha256(
                np.asarray(array, dtype="<i8").tobytes()).hexdigest())
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()
    h = hashlib.sha256()
    h.update("\n".join(corpus.vocabulary.terms).encode())
    h.update(corpus.doc_ids.tobytes())
    h.update(corpus.query_ids.tobytes())
    for m in matrices:
        h.update(m.indptr.tobytes())
        h.update(m.indices.tobytes())
        h.update(np.asarray(m.data, dtype=np.int64).tobytes())
    if format_version >= 3:
        h.update(loop_judged_pairs(qrels).tobytes())
    else:
        for qid in sorted(qrels):
            h.update(f"{qid}:{sorted(qrels[qid])}".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Argsort ranking kernel and boosting loop, as ldikit ran them before ranks
# were counted from a value-only sort of each row

def _argsort_rank_order(neg):
    """Column order of ascending ``neg`` per row, equal values by column:
    an unstable argsort, then rows with equal values or NaNs re-sorted by
    (run of equal values, column)."""
    order = np.argsort(neg, axis=1)
    ranked = np.take_along_axis(neg, order, axis=1)
    same = (ranked[:, 1:] == ranked[:, :-1]) | np.isnan(ranked[:, :-1])
    tied = same.any(axis=1)
    if tied.any():
        n_docs = neg.shape[1]
        runs = np.zeros((int(tied.sum()), n_docs), dtype=np.int64)
        np.cumsum(~same[tied], axis=1, out=runs[:, 1:])
        order[tied] = np.sort(runs * n_docs + order[tied], axis=1) % n_docs
    return order


def argsort_ranking(scores, doc_ids):
    """Doc ids of one score row in rank order, by the argsort kernel."""
    by_id = np.argsort(doc_ids, kind="stable")
    return doc_ids[by_id[_argsort_rank_order(-scores[by_id][None])[0]]]


def argsort_hit_precisions(scores, query_ids, doc_ids, qrels):
    """(judged rows, hit precisions, relevant counts) of a score matrix:
    every judged row fully argsorted, relevance flags permuted into rank
    order, precision at each hit."""
    scores = np.asarray(scores, dtype=float)
    query_ids = np.asarray(query_ids)
    doc_ids = np.asarray(doc_ids)
    rows = np.array([qi for qi, qid in enumerate(query_ids)
                     if qrels.get(int(qid))], dtype=np.int64)
    by_id = np.argsort(doc_ids, kind="stable")
    sorted_ids = doc_ids[by_id]
    flags = np.zeros((len(rows), len(doc_ids)), dtype=bool)
    for j, qi in enumerate(rows):
        flags[j, np.searchsorted(sorted_ids, sorted(qrels[int(query_ids[qi])]))] = True
    counts = flags.sum(axis=1)
    neg = -scores[rows[:, None], by_id]
    hits = np.take_along_axis(flags, _argsort_rank_order(neg), axis=1)
    out = np.zeros((len(rows), counts.max(initial=1)))
    hit_rows, hit_cols = np.nonzero(hits)
    nth = np.arange(len(hit_rows)) - np.searchsorted(hit_rows, hit_rows)
    out[hit_rows, nth] = (nth + 1) / (hit_cols + 1)
    return rows, out, counts


def argsort_average_precisions(scores, query_ids, doc_ids, qrels):
    _, precisions, counts = argsort_hit_precisions(scores, query_ids, doc_ids,
                                                   qrels)
    return np.cumsum(precisions, axis=1)[:, -1] / counts


def argsort_curves(scores, query_ids, doc_ids, qrels):
    """11-point interpolated precision of every judged row."""
    _, precisions, counts = argsort_hit_precisions(scores, query_ids, doc_ids,
                                                   qrels)
    return cube_curves(precisions, counts)


def cube_curves(precisions, counts):
    """11-point curves of zero-padded hit-precision rows, each recall
    level's first hit found by comparing every hit's recall with every
    level (a queries x hits x 11 cube)."""
    best_from = np.maximum.accumulate(precisions[:, ::-1], axis=1)[:, ::-1]
    recalls = np.arange(1, precisions.shape[1] + 1) / counts[:, None]
    levels = np.linspace(0.0, 1.0, 11)
    first = (recalls[:, :, None] < levels - 1e-12).sum(axis=1)
    return np.take_along_axis(best_from, first, axis=1)


def argsort_boost(score_list, query_ids, doc_ids, qrels, eps=1e-4,
                  max_rounds=200, clip=1e-6):
    """The boosting loop with the fused matrix rebuilt in full each round
    and ranked by the argsort kernel.  Returns one (chosen, delta, map,
    change, query weights, alpha, pool reset) tuple per round."""
    def aps(scores):
        return argsort_average_precisions(scores, query_ids, doc_ids, qrels)

    table = np.array([aps(s) for s in score_list])
    n_models, n_queries = table.shape
    weights = np.full(n_queries, 1.0 / n_queries)
    alpha = np.zeros(n_models)
    pool = set(range(n_models))
    rounds = []
    prev_map = 0.0
    for _ in range(max_rounds):
        candidates = sorted(pool)
        chosen = candidates[int(np.argmax(
            [table[j] @ weights for j in candidates]))]
        clipped = np.clip(table[chosen], clip, 1.0 - clip)
        up = float(weights @ (1.0 + clipped))
        down = float(weights @ (1.0 - clipped))
        delta = 0.5 * np.log(up / down)
        alpha[chosen] += delta
        fused = np.zeros_like(np.asarray(score_list[0], dtype=float))
        for a, s in zip(alpha, score_list):
            fused += a * s
        h_aps = aps(fused)
        current = float(np.mean(h_aps))
        change = abs(current - prev_map)
        reset = False
        if change > eps:
            pool.discard(chosen)
            reset = not pool
            if reset:
                pool = set(range(n_models))
        rounds.append((chosen, delta, current, change, weights.copy(),
                       alpha.copy(), reset))
        if change <= eps:
            break
        w = np.exp(-h_aps)
        weights = w / w.sum()
        prev_map = current
    return rounds


def argsort_cross_validate(score_list, query_ids, doc_ids, qrels, n_folds=2,
                           seed=0, eps=1e-4, max_rounds=200):
    """Seeded folds over the judged rows, each trained by ``argsort_boost``
    on row copies of its complement.  Returns per fold (train rows, test
    rows, best alpha, test MAP, uniform test MAP, constituent test MAPs)."""
    query_ids = np.asarray(query_ids)
    judged = np.array([qi for qi, qid in enumerate(query_ids)
                       if qrels.get(int(qid))])
    shuffled = judged[np.random.default_rng(seed).permutation(len(judged))]
    out = []
    for test_rows in np.array_split(shuffled, n_folds):
        test_set = set(test_rows.tolist())
        train_rows = np.array([qi for qi in shuffled if qi not in test_set])
        rounds = argsort_boost([s[train_rows] for s in score_list],
                               query_ids[train_rows], doc_ids, qrels, eps=eps,
                               max_rounds=max_rounds)
        alpha = rounds[int(np.argmax([r[2] for r in rounds]))][5]
        uniform = np.full(len(score_list), 1.0 / len(score_list))

        def test_map(scores):
            return float(np.mean(argsort_average_precisions(
                scores, query_ids[test_rows], doc_ids, qrels)))

        def fused(weights):
            total = np.zeros_like(score_list[0][test_rows])
            for a, s in zip(weights, score_list):
                total += a * s[test_rows]
            return total
        out.append((train_rows, test_rows, alpha, test_map(fused(alpha)),
                    test_map(fused(uniform)),
                    [test_map(s[test_rows]) for s in score_list]))
    return out


# ---------------------------------------------------------------------------
# Fusion weights by exhaustive search over the simplex

def grid_maps(score_list, query_ids, doc_ids, qrels, steps=20):
    """(points, MAPs): every weight vector of nonnegative multiples of
    ``1/steps`` that sum to one, in lexicographic order of the multiples,
    and the MAP of the constituents summed at each, ranked by the argsort
    kernel."""
    points = np.array([p for p in itertools.product(range(steps + 1),
                                                    repeat=len(score_list))
                       if sum(p) == steps]) / steps
    maps = []
    for alpha in points:
        fused = np.zeros_like(np.asarray(score_list[0], dtype=float))
        for a, s in zip(alpha, score_list):
            fused += a * s
        maps.append(float(np.mean(argsort_average_precisions(
            fused, query_ids, doc_ids, qrels))))
    return points, np.array(maps)


# ---------------------------------------------------------------------------
# Dense SVD via one-sided Jacobi rotations

def jacobi_svd(a: np.ndarray, sweeps: int = 60, tol: float = 1e-14):
    """Full SVD of a dense matrix by one-sided Jacobi orthogonalization.

    Rotates column pairs of a working copy until all columns are mutually
    orthogonal; column norms become the singular values.  Independent of
    any LAPACK driver the library code might call.
    """
    a = np.array(a, dtype=float)
    m, n = a.shape
    transposed = False
    if m < n:
        a = a.T
        m, n = a.shape
        transposed = True
    u = a.copy()
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = u[:, p] @ u[:, p]
                beta = u[:, q] @ u[:, q]
                gamma = u[:, p] @ u[:, q]
                off = max(off, abs(gamma) / max(math.sqrt(alpha * beta), 1e-300))
                if abs(gamma) < tol * math.sqrt(alpha * beta):
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                up, uq = u[:, p].copy(), u[:, q].copy()
                u[:, p] = c * up - s * uq
                u[:, q] = s * up + c * uq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        if off < tol:
            break
    sigma = np.sqrt(np.sum(u * u, axis=0))
    order = np.argsort(-sigma)
    sigma = sigma[order]
    v = v[:, order]
    u = u[:, order]
    nonzero = sigma > max(sigma[0], 1.0) * 1e-300
    u[:, nonzero] = u[:, nonzero] / sigma[nonzero]
    if transposed:
        return v, sigma, u.T
    return u, sigma, v.T


# ---------------------------------------------------------------------------
# Mixture-model log likelihood by direct enumeration / quadrature

def dirichlet_multinomial_log_likelihood(token_ids, alpha, beta) -> float:
    """log p(w | alpha, beta) for one document by summing over topic
    assignments analytically.

    Expands p(w) = sum over all topic-assignment vectors z of
    E[prod theta_{z}] * prod beta_{z, w}, where the expectation under the
    symmetric Dirichlet has the closed product-of-Gamma form.  Exponential in
    document length; only usable for tiny documents.
    """
    token_ids = list(token_ids)
    k = beta.shape[0]
    n = len(token_ids)
    if n == 0:
        return 0.0
    total = -np.inf
    log_beta = np.log(np.maximum(beta, 1e-300))
    for assignment in itertools.product(range(k), repeat=n):
        counts = np.bincount(assignment, minlength=k)
        # E[prod_k theta_k^{c_k}] under symmetric Dirichlet(alpha)
        log_prior = (
            gammaln(k * alpha) - gammaln(k * alpha + n)
            + np.sum(gammaln(alpha + counts) - gammaln(alpha))
        )
        log_words = sum(log_beta[z, w] for z, w in zip(assignment, token_ids))
        total = np.logaddexp(total, log_prior + log_words)
    return float(total)


def two_topic_log_likelihood_quadrature(token_ids, alpha, beta) -> float:
    """log p(w | alpha, beta) for K=2 by numerical integration over theta.

    Integrates prod_i (theta * beta[0, w_i] + (1 - theta) * beta[1, w_i])
    against the Beta(alpha, alpha) density on [0, 1].
    """
    token_ids = list(token_ids)
    assert beta.shape[0] == 2
    log_norm = gammaln(2 * alpha) - 2 * gammaln(alpha)

    def integrand(theta):
        val = log_norm + (alpha - 1) * (math.log(theta) + math.log1p(-theta))
        for w in token_ids:
            val += math.log(theta * beta[0, w] + (1 - theta) * beta[1, w])
        return math.exp(val)

    prob, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
    return math.log(prob)


# ---------------------------------------------------------------------------
# Log-space variational E-step for one block of documents

def _log_space_phi(matrix, gamma, log_beta):
    """Row of each nonzero cell, its counts, and log phi at this gamma:
    E[log theta] + log beta normalised over topics by log-sum-exp."""
    matrix = sp.csr_matrix(matrix)
    doc = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    elog_theta = psi(gamma) - psi(gamma.sum(axis=1, keepdims=True))
    log_phi = log_beta[:, matrix.indices].T + elog_theta[doc]
    log_phi -= logsumexp(log_phi, axis=1, keepdims=True)
    return doc, matrix.data.astype(float), log_phi


def _log_space_terms(matrix, gamma, log_beta, alpha, doc, counts, log_phi):
    """Statistics and exact bound at (gamma, phi), phi given in log space."""
    matrix = sp.csr_matrix(matrix)
    n_rows, k = gamma.shape
    phi = np.exp(log_phi)
    stats = np.zeros((k, matrix.shape[1]))
    np.add.at(stats.T, matrix.indices, counts[:, None] * phi)
    elog_theta = psi(gamma) - psi(gamma.sum(axis=1, keepdims=True))
    token_part = phi * (log_beta[:, matrix.indices].T + elog_theta[doc])
    token_part -= np.where(phi > 0, phi * log_phi, 0.0)
    bound = float(counts @ token_part.sum(axis=1))
    bound += float(
        n_rows * (gammaln(k * alpha) - k * gammaln(alpha))
        + (alpha - 1.0) * elog_theta.sum()
        - gammaln(gamma.sum(axis=1)).sum()
        + gammaln(gamma).sum()
        - ((gamma - 1.0) * elog_theta).sum()
    )
    return stats, float(elog_theta.sum()), bound


def log_space_chunk_estep(matrix, gamma, log_beta, alpha, var_tol,
                          max_iters=100):
    """The E-step of one block as ldikit ran it in log space.

    Every sweep materialises phi for every cell of every document and
    updates all of gamma, until the slowest document settles.  Returns
    gamma, topic-term statistics, the alpha statistic and the bound at
    (gamma, last phi), as that kernel did.
    """
    matrix = sp.csr_matrix(matrix)
    gamma = np.array(gamma, dtype=float)
    for _ in range(max_iters):
        doc, counts, log_phi = _log_space_phi(matrix, gamma, log_beta)
        gamma_new = np.full_like(gamma, alpha)
        np.add.at(gamma_new, doc, counts[:, None] * np.exp(log_phi))
        change = np.abs(gamma_new - gamma).sum(axis=1) / gamma.sum(axis=1)
        gamma = gamma_new
        if change.max() < var_tol:
            break
    return (gamma,) + _log_space_terms(matrix, gamma, log_beta, alpha, doc,
                                       counts, log_phi)


def log_space_terms_at(matrix, gamma, log_beta, alpha):
    """Statistics, alpha statistic and exact bound of one block at this
    gamma, with phi the optimum for it, all computed in log space."""
    doc, counts, log_phi = _log_space_phi(matrix, gamma, log_beta)
    return _log_space_terms(matrix, gamma, log_beta, alpha, doc, counts,
                            log_phi)


# ---------------------------------------------------------------------------
# Linear-space variational E-step, every sweep's matrix rebuilt from scratch

def _rebuilt_scaled(matrix, exp_elog, beta_t, norm_floor):
    """A fresh CSR matrix of each cell's count over its mixture normaliser,
    the normaliser taken by the same einsum as ``TokenCells.norms``."""
    doc = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    norm = np.einsum("nk,nk->n", exp_elog[doc], beta_t[matrix.indices])
    norm = np.maximum(norm, norm_floor)
    scaled = sp.csr_matrix((matrix.data / norm, matrix.indices.copy(),
                            matrix.indptr.copy()), shape=matrix.shape)
    return scaled, norm


def rebuilt_chunk_estep(matrix, gamma, beta_t, alpha, var_tol, max_iters,
                        norm_floor):
    """The linear-space E-step of one block the plain way.

    Each sweep gathers the active documents' gamma, takes the active rows
    of the count matrix as a new CSR matrix and multiplies it by scipy, and
    scatters the new gamma back; a document whose relative gamma change is
    below ``var_tol`` leaves the sweeps.  Then phi is taken at the final
    gamma for the statistics and the exact bound.  Returns gamma, stats,
    alpha statistic, bound, sweeps run and documents left unsettled.
    """
    matrix = sp.csr_matrix(matrix, dtype=float)
    n_rows, k = gamma.shape
    gamma = np.array(gamma, dtype=float)

    def elog(g):
        return psi(g) - psi(g.sum(axis=1, keepdims=True))

    active = np.arange(n_rows)
    sweeps = unsettled = 0
    for sweeps in range(1, max_iters + 1):
        old = gamma[active]
        exp_elog = np.exp(elog(old))
        scaled, _ = _rebuilt_scaled(matrix[active], exp_elog, beta_t,
                                    norm_floor)
        new = alpha + exp_elog * (scaled @ beta_t)
        gamma[active] = new
        settled = np.abs(new - old).sum(axis=1) < var_tol * old.sum(axis=1)
        active = active[~settled]
        if not len(active):
            break
    else:
        unsettled = len(active)

    elog_theta = elog(gamma)
    exp_elog = np.exp(elog_theta)
    scaled, norm = _rebuilt_scaled(matrix, exp_elog, beta_t, norm_floor)
    stats = (scaled.T @ exp_elog).T * beta_t.T
    alpha_stat = float(elog_theta.sum())
    bound = float(matrix.data @ np.log(norm))
    bound += float(
        n_rows * (gammaln(k * alpha) - k * gammaln(alpha))
        + (alpha - 1.0) * alpha_stat
        - gammaln(gamma.sum(axis=1)).sum()
        + gammaln(gamma).sum()
        - ((gamma - 1.0) * elog_theta).sum()
    )
    return gamma, stats, alpha_stat, bound, sweeps, unsettled


# ---------------------------------------------------------------------------
# Tempered aspect-model objective, cell by cell

def dense_tempered_objective(counts, p_dz, p_wz, beta_temp) -> float:
    """sum over (doc, term) cells of n * log sum_z P(z|d) P(w|z)^beta.

    Dense triple loop over documents, terms and topics.
    """
    counts = np.asarray(counts, dtype=float)
    n_docs, n_terms = counts.shape
    k = p_dz.shape[1]
    total = 0.0
    for d in range(n_docs):
        for w in range(n_terms):
            if counts[d, w] == 0:
                continue
            mix = 0.0
            for z in range(k):
                mix += p_dz[d, z] * p_wz[z, w] ** beta_temp
            total += counts[d, w] * math.log(mix)
    return total


def dense_tempered_em_step(counts, p_dz, p_wz, beta_temp):
    """New (P(z|d), P(w|z)) of one tempered EM step, by explicit loops over
    documents, terms and topics.  Assumes every document and topic gets
    some count."""
    counts = np.asarray(counts, dtype=float)
    n_docs, n_terms = counts.shape
    k = p_dz.shape[1]
    new_dz = np.zeros((n_docs, k))
    new_wz = np.zeros((k, n_terms))
    for d in range(n_docs):
        for w in range(n_terms):
            if counts[d, w] == 0:
                continue
            q = np.array([p_dz[d, z] * p_wz[z, w] ** beta_temp
                          for z in range(k)])
            q /= q.sum()
            new_dz[d] += counts[d, w] * q
            new_wz[:, w] += counts[d, w] * q
    return (new_dz / new_dz.sum(axis=1, keepdims=True),
            new_wz / new_wz.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Boosting step size by direct numerical optimization

def numeric_best_step(weights, aps, grid=20000, span=20.0):
    """Minimize J(d) = sum_i w_i [(1-ap_i) e^d + (1+ap_i) e^-d] / 2.

    Dense grid search with interval refinement; the objective is the
    exponential bound whose stationary point the closed-form step solves.
    """
    weights = np.asarray(weights, dtype=float)
    aps = np.asarray(aps, dtype=float)

    def j(d):
        return float(np.sum(weights * ((1 - aps) * np.exp(d)
                                       + (1 + aps) * np.exp(-d))) / 2)

    lo, hi = -span, span
    for _ in range(8):
        xs = np.linspace(lo, hi, grid)
        vals = [j(x) for x in xs]
        i = int(np.argmin(vals))
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, grid - 1)]
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Not independent: the library's own objectives at parameters no fit made

def corpus_bound(model, counts) -> float:
    """lda's evidence lower bound of a count matrix under a model, from one
    pass on a fresh fit state: its E-step from the fit's starting gamma."""
    from ldikit import lda

    fit = lda.LdaTrainResult(
        lda.LdaModel(model.alpha, model.beta),
        lda._start_gamma(model.alpha, counts, model.beta.shape[0]))
    blocks = lda.TokenCells.blocks(counts.matrix.tocsr(), lda.DOC_CHUNK)
    lda._em_pass(fit, blocks, estimate_alpha=False)
    return fit.elbo_trace[0]


def tempered_objective(matrix, p_dz, p_wz, beta_temp) -> float:
    """sum over cells of n * log sum_z P(z|d) P(w|z)^beta, as plsa's EM
    pass from these tables computes it."""
    from ldikit import lda, plsa

    blocks = plsa.TokenCells.blocks(matrix.tocsr(), lda.DOC_CHUNK)
    return plsa._em_pass(blocks, p_dz, p_wz, beta_temp)[2]
