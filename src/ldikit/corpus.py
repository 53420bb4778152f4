"""Test-collection ingestion: markup parsing, tokenization, vocabulary, counts.

Collections arrive as three plain-text files (documents, queries, relevance
judgments) in the dotted-marker record format used by the classic retrieval
test collections.  This module turns them into an in-memory `Corpus`: a
term-document count matrix over a fixed vocabulary, query count vectors over
the same vocabulary, and the judged (query id, doc id) pairs as one sorted
array.  The judgments parser returns that array, and it stays the one form
of the judgments from the file to the bundle.
"""

from __future__ import annotations

import functools
import hashlib
import re
import string
import warnings
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import compress
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from . import bundle
from .metrics import strictly_increasing

FORMAT_VERSION = 6
TOKENIZER_VERSION = 1


class ParseError(ValueError):
    """Malformed collection file; carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class RawDocument:
    doc_id: int
    title: str
    body: str

    @property
    def text(self) -> str:
        """Indexed text: title and body; other record sections never index."""
        return (self.title + "\n" + self.body).strip()


@dataclass(frozen=True)
class Query:
    query_id: int
    text: str


# ---------------------------------------------------------------------------
# Dotted-marker record parsing

_MARKER_RE = re.compile(r"^\.([A-Z])(?:\s+(.*))?$")

# Sections that exist in the classic files.  Only .T and .W contribute
# indexed text; .A and .B are recognized metadata, .X and .N are noise.
_KNOWN_SECTIONS = frozenset("ITABWXN")
_TEXT_SECTIONS = {"T": "title", "W": "body"}


def _parse_records(path: Path, kind: str, source_tag: str):
    """Yield (id, sections) for each .I record of the file; a repeated id
    is an error naming the ``kind`` of record."""
    seen: set[int] = set()
    doc_id = None
    sections: dict[str, list[str]] = {}
    text: list[str] | None = None   # the open .T/.W section's lines

    def flush():
        if doc_id is not None:
            yield doc_id, sections

    lines = path.read_text(errors="replace").splitlines()
    for line_no, line in enumerate(lines, 1):
        m = _MARKER_RE.match(line) if line.startswith(".") else None
        if m:
            tag, rest = m.group(1), m.group(2)
            if tag == "I":
                yield from flush()
                if rest is None or not rest.strip():
                    raise ParseError("record marker .I without an id", line_no)
                try:
                    doc_id = int(rest.strip())
                except ValueError:
                    raise ParseError(
                        f"record id {rest.strip()!r} is not an integer", line_no
                    ) from None
                if doc_id in seen:
                    raise ParseError(f"duplicate {kind} id {doc_id}", line_no)
                seen.add(doc_id)
                sections = {}
                text = None
                continue
            if doc_id is None:
                raise ParseError(
                    f"section marker .{tag} before the first .I record", line_no
                )
            if tag not in _KNOWN_SECTIONS:
                warnings.warn(
                    f"{source_tag}: unknown section marker .{tag} "
                    f"at line {line_no}; section ignored",
                    stacklevel=3,
                )
            text = sections.setdefault(tag, []) if tag in _TEXT_SECTIONS else None
            if text is not None and rest and rest.strip():
                text.append(rest)
            continue
        if text is not None:
            text.append(line)
    yield from flush()


def parse_documents(path: Path, source_tag: str = "") -> list[RawDocument]:
    """Parse a document file into RawDocuments.

    Records begin at ``.I <id>``; ``.T`` and ``.W`` sections supply the
    indexed text, ``.A``/``.B`` are recognized but not indexed, ``.X``/``.N``
    are ignored.  Duplicate ids within one file are an error.
    """
    docs: list[RawDocument] = []
    for doc_id, sections in _parse_records(path, "document",
                                           source_tag or "documents"):
        title = "\n".join(sections.get("T", [])).strip()
        body = "\n".join(sections.get("W", [])).strip()
        docs.append(RawDocument(doc_id=doc_id, title=title, body=body))
    return docs


def parse_queries(path: Path, source_tag: str = "") -> list[Query]:
    """Parse a query file; query text comes from .W (falling back to .T)."""
    queries: list[Query] = []
    for query_id, sections in _parse_records(path, "query",
                                             source_tag or "queries"):
        text = "\n".join(sections.get("W", [])).strip()
        if not text:
            text = "\n".join(sections.get("T", [])).strip()
        queries.append(Query(query_id=query_id, text=text))
    return queries


def parse_qrels(path: Path, dialect: str = "auto") -> np.ndarray:
    """Parse relevance judgments into the judged (query id, doc id) pairs:
    the read-only ``(n, 2)`` int64 array `Corpus.qrels` holds, sorted by
    query, then doc, repeats dropped.

    Two whitespace-separated layouts exist in the wild:

    - ``pair``: document id in column 2 (query id, doc id, extras...)
    - ``trec``: constant 0 in column 2, document id in column 3

    ``auto`` picks ``trec`` when every row's column 2 equals 0.  Ids are
    read as ``int`` reads them and must fit in 64 bits.
    """
    text = path.read_text(errors="replace")
    lines = text.splitlines()
    widths = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    del lines   # freed before the list of fields is built
    rows = np.flatnonzero(widths)   # 0-based line index of each judgment row
    if not len(rows):
        return judged_pairs({})
    widths = widths[rows]
    narrow = np.flatnonzero(widths < 2)
    if len(narrow):
        raise ParseError("judgment row needs at least two columns",
                         int(rows[narrow[0]]) + 1)
    fields = text.split()
    width = int(widths[0]) if (widths == widths[0]).all() else 0
    starts = None if width else np.cumsum(widths) - widths

    def column(c: int, n: int) -> list[str]:
        """Field ``c`` of the first ``n`` rows."""
        if width:
            return fields[c:n * width:width]
        return list(map(fields.__getitem__, (starts[:n] + c).tolist()))

    if dialect == "auto":
        trec = (widths >= 3).all() and column(1, len(rows)).count("0") == len(rows)
        dialect = "trec" if trec else "pair"
    if dialect not in ("pair", "trec"):
        raise ValueError(f"unknown qrels dialect {dialect!r}")

    doc_col = 2 if dialect == "trec" else 1
    short = np.flatnonzero(widths <= doc_col)
    n = int(short[0]) if len(short) else len(rows)   # rows before the first short one
    qids, dids = column(0, n), column(doc_col, n)
    try:
        pairs = np.column_stack((_int64_ids(qids), _int64_ids(dids)))
    except (ValueError, OverflowError):
        for row, ids in enumerate(zip(qids, dids)):
            try:
                np.fromiter(map(int, ids), np.int64, 2)
            except (ValueError, OverflowError):
                raise ParseError("judgment ids must be 64-bit integers",
                                 int(rows[row]) + 1) from None
    if n < len(rows):
        raise ParseError(f"judgment row too short for {dialect!r} layout",
                         int(rows[n]) + 1)
    pairs = _sorted_pairs(pairs)
    pairs.flags.writeable = False
    return pairs


def _int64_ids(ids: list[str]) -> np.ndarray:
    """The ids as ``int`` reads them, as int64; ValueError or OverflowError
    when one is not an integer or does not fit in 64 bits."""
    joined = " ".join(ids)
    if ids and joined.isascii():
        codes = np.frombuffer(joined.encode(), np.uint8)
        gaps = np.flatnonzero(codes == ord(" "))
        # only digits, at most 18 between separators: numpy's text reader
        # reads them as int does, and none overflows
        if (np.count_nonzero(codes - ord("0") < 10) == len(codes) - len(gaps)
                and np.diff(gaps, prepend=-1, append=len(codes)).max() <= 19):
            return np.fromstring(joined, np.int64, sep=" ")
    return np.fromiter(map(int, ids), np.int64, len(ids))


# ---------------------------------------------------------------------------
# Tokenization and stoplisting

_KEPT = frozenset(string.ascii_lowercase + string.digits)


class _CleanTable(dict):
    """`str.translate` table that keeps a-z, 0-9 and whitespace and deletes
    every other character.

    The first 256 code points are entries; the rest are answered by
    ``__missing__`` and never stored, so the table does not grow with the
    text it cleans.
    """

    def __init__(self):
        super().__init__((c, self.__missing__(c)) for c in range(256))

    def __missing__(self, code: int) -> int | None:
        char = chr(code)
        return code if char in _KEPT or char.isspace() else None


_CLEAN_TABLE = _CleanTable()


def _clean(text: str) -> str:
    """Lowercase and delete everything but letters a-z, digits and space.

    Deleting (not blanking) punctuation keeps hyphenated and apostrophized
    forms as single tokens: "don't" -> "dont", "x-ray" -> "xray".
    """
    return text.lower().translate(_CLEAN_TABLE)


def _is_term(token: str) -> bool:
    """The tokenizer's rule: two characters or more, not all digits."""
    return len(token) >= 2 and not token.isdigit()


def tokenize(text: str) -> list[str]:
    """Lowercase, delete punctuation in place, split, drop short/numeric tokens."""
    return list(filter(_is_term, _clean(text).split()))


class StopList:
    """Lowercase stop terms; matching also covers tokenizer-normalized forms.

    Entries are stored verbatim, but membership tests accept the form the
    tokenizer would emit ("don't" stops the token "dont").
    """

    def __init__(self, terms: Iterable[str]):
        self.terms = frozenset(t.strip().lower() for t in terms if t.strip())
        matchable = set(self.terms)
        for term in self.terms:
            matchable.update(tokenize(term))
        self._matchable = frozenset(matchable)

    def __contains__(self, token: str) -> bool:
        return token in self._matchable

    def __len__(self) -> int:
        return len(self.terms)


@functools.cache
def smart_stoplist() -> StopList:
    """The bundled 571-term stoplist used by the classic retrieval systems.

    Parsed once per process; every call returns that one (immutable) list.
    """
    text = resources.files("ldikit.data").joinpath("smart_stopwords.txt").read_text()
    stop = StopList(text.splitlines())
    if len(stop) != 571:
        raise RuntimeError(f"bundled stoplist has {len(stop)} terms, expected 571")
    return stop


def load_stoplist(path) -> StopList:
    return StopList(Path(path).read_text().splitlines())


# ---------------------------------------------------------------------------
# Vocabulary and counts

@dataclass
class Vocabulary:
    """Fixed term list; index order is first occurrence in the corpus."""

    terms: list[str]

    @functools.cached_property
    def index(self) -> dict[str, int]:
        """Term -> column, built at the first lookup."""
        return {t: j for j, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index

    def __getitem__(self, term: str) -> int:
        return self.index[term]


@dataclass
class TermDocCounts:
    """Sparse document-term count matrix plus per-document token totals."""

    matrix: sp.csr_matrix
    doc_lengths: np.ndarray

    @property
    def n_docs(self) -> int:
        return self.matrix.shape[0]


class _TermIds(dict):
    """Split-text token -> term id, numbering ``terms`` in the order they are
    first looked up, or -1 where the tokenizer drops the token; the rule is
    checked once per distinct token."""

    def __init__(self):
        super().__init__()
        self.terms: list[str] = []

    def __missing__(self, token):
        n = -1
        if _is_term(token):
            n = len(self.terms)
            self.terms.append(token)
        self[token] = n
        return n


@dataclass
class _TokenIds:
    """Every token of a document sequence as one flat array of term ids."""

    ids: np.ndarray      # term id per token; -1 for a token the tokenizer drops
    lengths: np.ndarray  # tokens per document, dropped ones included
    terms: list[str]     # the term of each id, in order of first occurrence


def _token_ids(docs: Sequence) -> _TokenIds:
    """Map the tokens of RawDocuments or texts to term ids.

    One dict lookup per token; texts are tokenized as `tokenize` does.
    """
    ids = _TermIds()
    flat: list[int] = []
    lengths: list[int] = []
    for doc in docs:
        if isinstance(doc, RawDocument):
            doc = doc.text
        start = len(flat)
        flat.extend(map(ids.__getitem__, _clean(doc).split()))
        lengths.append(len(flat) - start)
    return _TokenIds(ids=np.array(flat, dtype=np.int64),
                     lengths=np.array(lengths, dtype=np.int64), terms=ids.terms)


def _vocabulary(tokens: _TokenIds, stoplist: StopList | None):
    """The vocabulary: tokens minus stop terms minus singletons, and each
    term id's column in it (-1 outside it, and at index -1 for dropped
    tokens).

    A term must occur at least twice across the whole corpus to enter the
    vocabulary.  Index order is first occurrence among surviving terms.
    """
    n_ids = len(tokens.terms)
    keep = np.bincount(tokens.ids[tokens.ids >= 0], minlength=n_ids) >= 2
    if stoplist is not None:
        keep &= ~np.fromiter(map(stoplist.__contains__, tokens.terms), bool, n_ids)
    terms = list(compress(tokens.terms, keep.tolist()))
    if not terms:
        raise ValueError("vocabulary is empty after preprocessing")
    column = np.full(n_ids + 1, -1, dtype=np.int64)
    column[:-1][keep] = np.arange(len(terms))
    return Vocabulary(terms=terms), column


def _counts(tokens: _TokenIds, column: np.ndarray, n_terms: int) -> TermDocCounts:
    """Count each document's tokens by vocabulary column (-1: not counted)."""
    n_docs = len(tokens.lengths)
    cols = column[tokens.ids]
    counted = cols >= 0
    rows = np.repeat(np.arange(n_docs), tokens.lengths)[counted]
    width = max(n_terms, 1)
    cells, data = np.unique(rows * width + cols[counted], return_counts=True)
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells // width, minlength=n_docs), out=indptr[1:])
    matrix = sp.csr_matrix(
        (data.astype(np.int64), (cells % width).astype(np.int32), indptr),
        shape=(n_docs, n_terms),
    )
    lengths = np.bincount(rows, minlength=n_docs).astype(np.int64)
    return TermDocCounts(matrix=matrix, doc_lengths=lengths)


def count_matrix(docs: Sequence, vocab: Vocabulary) -> TermDocCounts:
    """Count in-vocabulary tokens per document.  Rows may be empty."""
    tokens = _token_ids(docs)
    column = np.array([vocab.index.get(t, -1) for t in tokens.terms] + [-1],
                      dtype=np.int64)
    return _counts(tokens, column, len(vocab))


# ---------------------------------------------------------------------------
# Collections and corpora

@dataclass
class Collection:
    """One parsed test collection: raw documents, queries, judgments.

    ``qrels`` holds the judged pairs as `parse_qrels` returns them.
    """

    name: str
    documents: list[RawDocument]
    queries: list[Query]
    qrels: np.ndarray = field(default_factory=lambda: judged_pairs({}))


def merge_collections(collections: Sequence[Collection], name: str = "merged") -> Collection:
    """Concatenate collections, offsetting ids so they stay globally unique.

    Document and query ids are offset independently: each collection's
    smallest id lands above the largest id merged before it, counting the
    ids each collection parsed and the ids it judged (a collection whose
    ids are all at least 1 is offset by that largest id exactly);
    judgments are remapped accordingly.  A judgment naming an id a
    collection did not parse thus stays unknown, for ``validate_qrels`` to
    report, instead of landing on (or being overwritten by) a later
    collection's query or document.
    """
    docs: list[RawDocument] = []
    queries: list[Query] = []
    pairs = [judged_pairs({})]
    doc_top = query_top = 0
    for coll in collections:
        doc_offset, doc_top = _id_offset(
            [d.doc_id for d in coll.documents] + coll.qrels[:, 1].tolist(),
            doc_top)
        query_offset, query_top = _id_offset(
            [q.query_id for q in coll.queries] + coll.qrels[:, 0].tolist(),
            query_top)
        docs += [replace(d, doc_id=d.doc_id + doc_offset)
                 for d in coll.documents]
        queries += [replace(q, query_id=q.query_id + query_offset)
                    for q in coll.queries]
        pairs.append(coll.qrels + [query_offset, doc_offset])
    qrels = _sorted_pairs(np.concatenate(pairs))
    qrels.flags.writeable = False
    return Collection(name=name, documents=docs, queries=queries, qrels=qrels)


def _id_offset(ids: list[int], top: int) -> tuple[int, int]:
    """(offset, largest id after it) that puts the smallest of ``ids``
    above ``top``, the largest id merged so far."""
    if not ids:
        return top, top
    offset = top + max(0, 1 - min(ids))
    return offset, offset + max(ids)


def validate_qrels(collection: Collection) -> list[str]:
    """Report judgment pairs whose ids resolve to no parsed document/query,
    in pair order: an unknown query once, before its first pair."""
    qids, dids = collection.qrels.T
    unknown_query = ~np.isin(qids, [q.query_id for q in collection.queries])
    unknown_query[1:] &= qids[1:] != qids[:-1]
    unknown_doc = ~np.isin(dids, [d.doc_id for d in collection.documents])
    problems = []
    for row in np.flatnonzero(unknown_query | unknown_doc).tolist():
        qid, did = int(qids[row]), int(dids[row])
        if unknown_query[row]:
            problems.append(f"judgments for unknown query {qid}")
        if unknown_doc[row]:
            problems.append(f"query {qid}: judged document {did} not parsed")
    return problems


@dataclass
class Corpus:
    """A processed collection: counts over a fixed vocabulary plus queries.

    ``qrels`` holds the judgments as one read-only ``(n, 2)`` int64 array of
    (query id, doc id) pairs, strictly increasing by query id, then doc id:
    the array the bundle stores, the checksum hashes and
    ``metrics.Judgments`` reads.  `judged_pairs` makes it from a mapping.
    """

    name: str
    doc_ids: np.ndarray
    query_ids: np.ndarray
    vocabulary: Vocabulary
    counts: TermDocCounts
    query_counts: sp.csr_matrix
    qrels: np.ndarray
    dropped_judgments: list[str] = field(default_factory=list)
    # the content hash load_corpus verified, None for a corpus built in
    # memory; it goes stale if a loaded corpus is changed in place
    loaded_checksum: str | None = field(default=None, repr=False,
                                        compare=False)

    @property
    def n_docs(self) -> int:
        return self.counts.n_docs

    @property
    def n_terms(self) -> int:
        return len(self.vocabulary)

    @property
    def n_queries(self) -> int:
        return len(self.query_ids)

    def arrays(self) -> dict:
        """The arrays a corpus bundle stores, under their names there."""
        return {"counts": self.counts.matrix,
                "query_counts": self.query_counts,
                "doc_ids": self.doc_ids, "query_ids": self.query_ids,
                "qrels": self.qrels}

    def checksum(self) -> str:
        """Content hash: the sha256 of the vocabulary and of each stored
        array's sha256, in `arrays` order, as the bundle records them."""
        return _content_hash(self.vocabulary.terms,
                             bundle.stored_digests(self.arrays()).values())


def _content_hash(terms: list[str], digests) -> str:
    """The sha256 of the terms, then the hex ``digests``, one per line."""
    return hashlib.sha256("\n".join([*terms, *digests]).encode()).hexdigest()


def judged_pairs(qrels: Mapping[int, set[int]]) -> np.ndarray:
    """Judged (query id, doc id) pairs of a {query: {doc, ...}} mapping, as
    a read-only int64 array sorted by query, then doc."""
    qids = sorted(qrels)
    dids = [np.sort(np.fromiter(qrels[q], np.int64, len(qrels[q]))) for q in qids]
    pairs = np.column_stack((
        np.repeat(np.array(qids, dtype=np.int64), list(map(len, dids))),
        np.concatenate([np.empty(0, dtype=np.int64), *dids])))
    pairs.flags.writeable = False
    return pairs


def _sorted_pairs(pairs: np.ndarray) -> np.ndarray:
    """Judged pairs in `judged_pairs` order, repeats dropped; the array
    itself when it already is."""
    if strictly_increasing(pairs):
        return pairs
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return pairs[np.r_[True, (pairs[1:] != pairs[:-1]).any(axis=1)]]


def build_corpus(collection: Collection, stoplist: StopList | None = None) -> Corpus:
    """Tokenize, build vocabulary from the documents, count docs and queries.

    Repeated document or query ids are an error.  Judged pairs pointing at
    unparsed documents are reported through a warning and recorded on the
    corpus, then excluded from evaluation.
    """
    doc_ids = np.array([d.doc_id for d in collection.documents], dtype=np.int64)
    query_ids = np.array([q.query_id for q in collection.queries], dtype=np.int64)
    for kind, ids in (("document", doc_ids), ("query", query_ids)):
        repeats = np.delete(ids, np.unique(ids, return_index=True)[1])
        if len(repeats):
            raise ValueError(f"{collection.name}: repeated {kind} id "
                             f"{repeats[0]}")
    tokens = _token_ids(collection.documents)
    vocab, column = _vocabulary(tokens, stoplist)
    counts = _counts(tokens, column, len(vocab))
    del tokens
    query_counts = count_matrix([q.text for q in collection.queries], vocab).matrix

    problems = validate_qrels(collection)
    if problems:
        warnings.warn(
            f"{collection.name}: {len(problems)} judgment problem(s); "
            "offending pairs excluded from evaluation "
            f"(first: {problems[0]})",
            stacklevel=2,
        )
    pairs = collection.qrels
    if problems:
        pairs = pairs[np.isin(pairs[:, 0], query_ids)
                      & np.isin(pairs[:, 1], doc_ids)]
        pairs.flags.writeable = False
    return Corpus(
        name=collection.name,
        doc_ids=doc_ids,
        query_ids=query_ids,
        vocabulary=vocab,
        counts=counts,
        query_counts=query_counts,
        qrels=pairs,
        dropped_judgments=problems,
    )


# ---------------------------------------------------------------------------
# Corpus bundle persistence

def save_corpus(corpus: Corpus, path) -> Path:
    """Write a corpus bundle: counts, ids and judged pairs as raw arrays,
    each with its sha256; the vocabulary, name and content checksum (of
    the vocabulary and those digests) go into the header."""
    digests = bundle.stored_digests(corpus.arrays())
    fields = {
        "format_version": FORMAT_VERSION,
        "tokenizer_version": TOKENIZER_VERSION,
        "name": corpus.name,
        "terms": corpus.vocabulary.terms,
        "dropped_judgments": corpus.dropped_judgments,
        "checksum": _content_hash(corpus.vocabulary.terms, digests.values()),
    }
    return bundle.save_model(path, "corpus", fields, corpus.arrays(),
                             digests)


def load_corpus(path) -> Corpus:
    """Load a whole corpus bundle written by save_corpus.  Each array is
    checked against its sha256 as `load_corpus_arrays` checks it, then
    the header's checksum against the content hash of its vocabulary and
    those digests; no array is hashed twice."""
    # every array `Corpus.arrays` names, in its order
    header, arrays = load_corpus_arrays(
        path, ("counts", "query_counts", "doc_ids", "query_ids", "qrels"))
    if (_content_hash(header["terms"], header["digests"].values())
            != header["checksum"]):
        raise ValueError("corpus bundle checksum mismatch")
    matrix = arrays["counts"]
    return Corpus(
        name=header["name"],
        doc_ids=arrays["doc_ids"],
        query_ids=arrays["query_ids"],
        vocabulary=Vocabulary(terms=header["terms"]),
        counts=TermDocCounts(
            matrix=matrix,
            doc_lengths=np.asarray(matrix.sum(axis=1)).ravel().astype(np.int64),
        ),
        query_counts=arrays["query_counts"],
        qrels=arrays["qrels"],
        dropped_judgments=header["dropped_judgments"],
        loaded_checksum=header["checksum"],
    )


def load_corpus_arrays(path, names) -> tuple[dict, dict]:
    """The header and the ``names`` arrays of a corpus bundle (named as
    `Corpus.arrays` names them), each checked against the sha256 its
    header records; the rest of the payload is not read.  The header's
    ``checksum`` is the content hash the bundle was saved with."""
    header, arrays = bundle.load_model(path, "corpus", names)
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported corpus format version "
                         f"{header.get('format_version')}; rebuild the "
                         "bundle with `ldikit corpus build`")
    if "qrels" in arrays:     # as ``Corpus.qrels`` holds them
        arrays["qrels"] = _sorted_pairs(arrays["qrels"])
        arrays["qrels"].flags.writeable = False
    return header, arrays


def load_collection(doc_path, query_path=None, qrels_path=None,
                    name: str | None = None, qrels_dialect: str = "auto") -> Collection:
    """Read the three collection files from disk into a Collection."""
    doc_path = Path(doc_path)
    tag = name or doc_path.stem
    docs = parse_documents(doc_path, tag)
    queries = parse_queries(Path(query_path), tag) if query_path else []
    qrels = (parse_qrels(Path(qrels_path), qrels_dialect) if qrels_path
             else judged_pairs({}))
    return Collection(name=tag, documents=docs, queries=queries, qrels=qrels)
