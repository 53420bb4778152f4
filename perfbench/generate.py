"""Seeded planted-topic test collections in the SMART text format.

Documents and queries are drawn from LDA's generative model (Blei, Ng &
Jordan, JMLR 2003): each planted topic is a Dirichlet draw over a synthetic
vocabulary, each text has topic proportions drawn from a Dirichlet that
favours its planted cluster, and each token picks a topic from those
proportions and a word from that topic.  Common English stop words are
mixed into the text so the stop list has work to do.

The documents and topics of a shape come from the fixed ``DOC_SEED``; the
run's seed draws the queries and their judgments.  Holding the documents
fixed is deliberate: how many EM iterations lda and plsi need swings by a
factor of three between document sets of one shape (the lda inner
iterations ranged 656 to 2,192 over eight seeds), which no run length
averages out, while new query sets over a fixed collection vary little.
This is also how the classic collections are used: the documents are
fixed and experiments vary the queries and model seeds.

A query is relevant to every document of its planted cluster, so the
number of relevant documents grows with the cluster, whatever the
collection size.

The output directory holds ``<NAME>.ALL``, ``<NAME>.QRY`` and ``<NAME>.REL``
(judgments in the ``qid 0 docid 1`` layout) plus ``planted_topics.npy``,
the topic-word table over ``word_list(n_words)`` that ``topic_recovery``
compares fitted topics against.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# All of these are in the SMART stop list shipped with ldikit.
STOP_WORDS = (
    "the of and to in is for that with as on by this are be from at an "
    "which or was were it these not have has their its been between both "
    "into than such also other after"
).split()

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aiou"
MIX_PRIOR = 0.1     # Dirichlet weight of each topic in a text
STOP_RATE = 0.35    # stop words per content token
DOC_SEED = 0        # draws the topics and documents of every shape


@dataclass(frozen=True)
class CollectionShape:
    """Sizes and priors of one generated collection."""

    name: str
    n_docs: int
    n_queries: int
    n_topics: int
    n_words: int
    doc_length: int           # mean content tokens per document
    query_length: int         # mean content tokens per query
    word_prior: float = 0.05  # Dirichlet weight of each word in a topic
    cluster_boost: float = 2.0  # extra Dirichlet weight of the planted topic


def word_list(n_words: int) -> list[str]:
    """``n_words`` distinct three-syllable pseudo-words, fixed by index."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    base = len(syllables)
    if n_words > base ** 3:
        raise ValueError(f"at most {base ** 3} words, asked for {n_words}")
    words = []
    for i in range(n_words):
        a, rest = divmod(i, base * base)
        b, c = divmod(rest, base)
        words.append(syllables[a] + syllables[b] + syllables[c])
    return words


def _sample_words(rng, cdf: np.ndarray, mixtures: np.ndarray,
                  lengths: np.ndarray) -> list[np.ndarray]:
    """Word indices for each text: topic per token, then word per token."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    k = mixtures.shape[1]
    # One sorted table of every text's topic cdf, offset by the text index.
    mix_cdf = np.cumsum(mixtures, axis=1)
    mix_cdf[:, -1] = 1.0
    flat = (mix_cdf + np.arange(len(lengths))[:, None]).ravel()
    hit = np.searchsorted(flat, owner + rng.random(len(owner)), side="right")
    topic = np.minimum(hit - owner * k, k - 1)
    word = np.empty(len(owner), dtype=np.int64)
    draws = rng.random(len(owner))
    for t in range(cdf.shape[0]):
        sel = topic == t
        word[sel] = np.searchsorted(cdf[t], draws[sel], side="right")
    word = np.minimum(word, cdf.shape[1] - 1)
    return np.split(word, np.cumsum(lengths)[:-1])


def _render(rng, words: list[str], ids: np.ndarray) -> str:
    """Word indices to text with stop words mixed in, twelve tokens a line."""
    n_stop = rng.binomial(len(ids), STOP_RATE)
    tokens = [words[i] for i in ids]
    tokens += [STOP_WORDS[i] for i in rng.integers(len(STOP_WORDS), size=n_stop)]
    order = rng.permutation(len(tokens))
    tokens = [tokens[i] for i in order]
    return "\n".join(" ".join(tokens[i:i + 12]) for i in range(0, len(tokens), 12))


def generate(shape: CollectionShape, seed: int, out_dir) -> dict:
    """Write one collection under ``out_dir``; return its file paths.

    The same shape and seed always give byte-identical files; ``seed``
    changes the queries and judgments only.
    """
    rng = np.random.default_rng(DOC_SEED)
    query_rng = np.random.default_rng([abs(seed), int(seed < 0), DOC_SEED])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    k = shape.n_topics
    words = word_list(shape.n_words)
    topics = rng.dirichlet(np.full(shape.n_words, shape.word_prior), size=k)
    cdf = np.cumsum(topics, axis=1)
    cdf[:, -1] = 1.0

    # Unequal cluster sizes; every cluster keeps at least two documents.
    sizes = rng.multinomial(shape.n_docs - 2 * k, rng.dirichlet(np.full(k, 5.0))) + 2
    doc_cluster = rng.permutation(np.repeat(np.arange(k), sizes))

    def mixtures(rng, clusters):
        prior = np.full((len(clusters), k), MIX_PRIOR)
        prior[np.arange(len(clusters)), clusters] += shape.cluster_boost
        draws = rng.gamma(prior)
        return draws / draws.sum(axis=1, keepdims=True)

    doc_lengths = np.maximum(rng.poisson(shape.doc_length, shape.n_docs), 5)
    doc_words = _sample_words(rng, cdf, mixtures(rng, doc_cluster), doc_lengths)
    paths = {kind: out / f"{shape.name}.{kind}" for kind in ("ALL", "QRY", "REL")}
    with paths["ALL"].open("w") as fh:
        for d, ids in enumerate(doc_words, 1):
            title, body = ids[:6], ids[6:]
            fh.write(f".I {d}\n.T\n{_render(rng, words, title)}\n"
                     f".W\n{_render(rng, words, body)}\n")

    # Queries visit the clusters in turn, so each cluster is queried equally
    # often and MAP does not swing with the mix of easy and hard clusters.
    query_cluster = query_rng.permutation(np.arange(shape.n_queries) % k)
    query_lengths = np.maximum(query_rng.poisson(shape.query_length,
                                                 shape.n_queries), 3)
    query_words = _sample_words(query_rng, cdf, mixtures(query_rng, query_cluster),
                                query_lengths)
    with paths["QRY"].open("w") as fh:
        for q, ids in enumerate(query_words, 1):
            fh.write(f".I {q}\n.W\n{_render(query_rng, words, ids)}\n")
    members = [np.flatnonzero(doc_cluster == c) + 1 for c in range(k)]
    with paths["REL"].open("w") as fh:
        for q, c in enumerate(query_cluster, 1):
            fh.writelines(f"{q} 0 {d} 1\n" for d in members[c])
    planted = out / "planted_topics.npy"
    np.save(planted, topics)
    return {"docs": paths["ALL"], "queries": paths["QRY"], "qrels": paths["REL"],
            "planted": planted}
