import itertools
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ldikit
import oracles
from conftest import edit_header
from ldikit import cli
from ldikit.bundle import load_model
from ldikit import corpus as corpus_mod
from ldikit.corpus import (Collection, ParseError, Query, RawDocument,
                           StopList, build_corpus, count_matrix, judged_pairs,
                           load_collection, load_corpus, load_stoplist,
                           merge_collections, parse_documents, parse_qrels,
                           parse_queries, save_corpus, smart_stoplist,
                           tokenize, validate_qrels)

DOC_FILE = """\
.I 1
.T
Growth factors in the nervous system.
.A
Smith, J.
.W
The nerve growth factor promotes neuron survival.
It was isolated from mouse tissue.
.X
1 5 1
.I 2
.T
Blood enzymes
.W
Serum enzymes rise after infarction of cardiac tissue.
.I 3
.W
An abstract with no title section at all.
"""

QUERY_FILE = """\
.I 1
.W
nerve growth factor experiments
.I 2
.T
cardiac enzyme levels
"""


@pytest.fixture
def write(tmp_path):
    """Writes a text to a new file under ``tmp_path``; returns its path."""
    names = itertools.count()

    def write(text: str) -> Path:
        path = tmp_path / f"{next(names)}.txt"
        path.write_bytes(text.encode())
        return path
    return write


class TestRecordParsing:
    def test_documents_parse_sections(self, write):
        docs = parse_documents(write(DOC_FILE), "t")
        assert [d.doc_id for d in docs] == [1, 2, 3]
        assert docs[0].title == "Growth factors in the nervous system."
        assert "mouse tissue" in docs[0].body
        # .A and .X content stays out of the indexed text
        assert "Smith" not in docs[0].text
        assert "1 5 1" not in docs[0].text
        assert docs[2].title == ""

    def test_text_joins_title_and_body(self, write):
        docs = parse_documents(write(DOC_FILE), "t")
        assert docs[0].text.startswith("Growth factors")
        assert docs[0].text.endswith("mouse tissue.")

    def test_marker_with_inline_text(self, write):
        docs = parse_documents(write(".I 7\n.W some inline text\nmore text\n"), "t")
        assert docs[0].doc_id == 7
        assert docs[0].body == "some inline text\nmore text"

    def test_duplicate_id_rejected(self, write):
        text = ".I 1\n.W\na b\n.I 2\n.W\nc\n.I 1\n.W\nc d\n"
        for parse, kind in ((parse_documents, "document"),
                            (parse_queries, "query")):
            with pytest.raises(ParseError, match=f"duplicate {kind} id 1") as err:
                parse(write(text), "t")
            assert err.value.line_no == 7

    def test_non_integer_id_rejected(self, write):
        with pytest.raises(ParseError) as err:
            parse_documents(write(".I abc\n.W\nx\n"), "t")
        assert err.value.line_no == 1

    def test_section_before_record_rejected(self, write):
        with pytest.raises(ParseError):
            parse_documents(write(".W\norphan text\n"), "t")

    def test_unknown_section_warns_and_skips(self, write):
        path = write(".I 1\n.Q\nstrange\n.W\nreal text here\n")
        with pytest.warns(UserWarning):
            docs = parse_documents(path, "t")
        assert docs[0].body == "real text here"

    def test_queries_fall_back_to_title(self, write):
        queries = parse_queries(write(QUERY_FILE), "t")
        assert queries[0].text == "nerve growth factor experiments"
        assert queries[1].text == "cardiac enzyme levels"


@pytest.fixture
def parse(write):
    """`parse_qrels` of a text written to a file, as [query id, doc id] rows."""
    return lambda text, *args: parse_qrels(write(text), *args).tolist()


class TestQrels:
    def test_pair_dialect(self, parse):
        assert parse("1 12\n1 17\n2 9\n", "pair") == [[1, 12], [1, 17], [2, 9]]

    def test_trec_dialect(self, parse):
        assert parse("1 0 12 1\n1 0 17 1\n", "trec") == [[1, 12], [1, 17]]

    def test_auto_detects_trec(self, parse):
        assert parse("3 0 44 2\n3 0 45 0\n") == [[3, 44], [3, 45]]

    def test_auto_detects_pair(self, parse):
        # column 2 is a real document id here, not a constant zero
        assert parse("1 12 0 0\n1 13 0 0\n") == [[1, 12], [1, 13]]

    def test_pair_with_extra_columns(self, parse):
        assert parse("1 12 0.8\n", "pair") == [[1, 12]]

    def test_short_row_rejected(self, parse):
        with pytest.raises(ParseError):
            parse("1\n")
        with pytest.raises(ParseError):
            parse("1 0\n", "trec")

    def test_bad_dialect_rejected(self, parse):
        with pytest.raises(ValueError):
            parse("1 2\n", "nope")

    def test_non_integer_rejected(self, parse):
        with pytest.raises(ParseError):
            parse("one 2\n", "pair")

    def test_empty_input(self, write):
        for text in ("", "\n \n\t\n"):
            pairs = parse_qrels(write(text))
            assert pairs.shape == (0, 2) and pairs.dtype == np.int64

    def test_malformed_row_deep_in_a_long_file_names_its_line(self, parse):
        lines = []
        for q in range(1, 401):
            lines += [f"{q} 0 {d} 1" for d in range(1, 11)] + [""]
        good = len(lines)
        lines += ["", "  ", "401 0 7 1", "401 0 x 1", "402 0 3 1"]
        with pytest.raises(ParseError) as err:
            parse("\n".join(lines))
        assert err.value.line_no == good + 4
        assert str(err.value).startswith(f"line {good + 4}: ")
        lines[good + 3] = "401"
        with pytest.raises(ParseError, match="two columns") as err:
            parse("\n".join(lines))
        assert err.value.line_no == good + 4

    def test_earliest_bad_row_wins(self, parse):
        # a one-column row is found before any id is read
        with pytest.raises(ParseError, match="two columns") as err:
            parse("x 1\n2 3\n4\n")
        assert err.value.line_no == 3
        # otherwise the first row that is short or not integer
        with pytest.raises(ParseError) as err:
            parse("1 0 4\n2 0 y\n3 0\n", "trec")
        assert err.value.line_no == 2
        with pytest.raises(ParseError, match="too short") as err:
            parse("1 0 4\n3 0\n2 0 y\n", "trec")
        assert err.value.line_no == 2

    def test_non_integer_ids_in_either_column(self, parse):
        for text, line_no in (("1 2\n1.5 3\n", 2), ("1 2\n1 3e2\n", 2),
                              ("q1 0 2 1\n", 1), ("1 0 d2 1\n", 1),
                              ("1 2\n1 -\n", 2), ("1 2\n2 3 x\n1 ²\n", 3)):
            with pytest.raises(ParseError, match="integers") as err:
                parse(text)
            assert err.value.line_no == line_no

    def test_ids_beyond_64_bits_rejected(self, parse):
        with pytest.raises(ParseError) as err:
            parse("1 2\n1 99999999999999999999\n")
        assert err.value.line_no == 2
        with pytest.raises(ParseError) as err:   # 2**63
            parse("1 0 4 1\n\n1 0 9223372036854775808 1\n2 0 5 1\n")
        assert err.value.line_no == 3

    def test_ids_parse_as_python_int_does(self, parse):
        assert parse("+1 0 007 1\n1 0 1_000 1\n") == [[1, 7], [1, 1000]]
        assert parse("١٢ 0 3 1\n-1 0 ٧ 1\n") == [[-1, 7], [12, 3]]

    def test_ids_on_both_sides_of_eighteen_digits(self, parse):
        # 18 digits or fewer, ASCII only: read by numpy; anything else by int
        big = 2 ** 63 - 1
        assert parse(f"1 {10 ** 18 - 1}\n1 {big}\n1 {10 ** 18}\n") == [
            [1, 10 ** 18 - 1], [1, 10 ** 18], [1, big]]
        assert parse("0000000000000000007 1\n000000000000000008 1\n") == [
            [7, 1], [8, 1]]
        assert parse(f"1 {-big - 1}\n") == [[1, -big - 1]]

    def test_row_too_short_for_trec(self, parse):
        with pytest.raises(ParseError, match="too short for 'trec'") as err:
            parse("1 0 5 1\n\n2 0\n", "trec")
        assert err.value.line_no == 3

    def test_auto_with_mixed_widths_is_pair(self, parse):
        # one row without a third column: not every row is a trec row
        assert parse("1 0 5 1\n2 7\n") == [[1, 0], [2, 7]]
        assert parse("1 0 5\n2 0\n") == [[1, 0], [2, 0]]
        assert parse("1 0 5 1\n2 0 6\n") == [[1, 5], [2, 6]]
        assert parse("1 2\n1 3 0.5\n2 +4\n", "pair") == [[1, 2], [1, 3], [2, 4]]

    def test_pairs_sorted_by_query_then_doc_without_repeats(self, write):
        pairs = parse_qrels(write("9 1\n2 5\n9 3\n4 4\n2 1\n9 1\n"))
        assert pairs.tolist() == [[2, 1], [2, 5], [4, 4], [9, 1], [9, 3]]
        assert pairs.dtype == np.int64 and pairs.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            pairs[0, 0] = 1

    def test_file_with_crlf_and_blank_lines(self, parse):
        assert parse("3 0 44 1\r\n\n3 0 45 0\n1 0 2 1\n") == [
            [1, 2], [3, 44], [3, 45]]
        with pytest.raises(ParseError) as err:
            parse("1 0 4 1\r\n\r\n1 0 four 1\n")
        assert err.value.line_no == 3


class TestTokenize:
    def test_punctuation_deleted_in_place(self):
        assert tokenize("genetically-modified beans") == [
            "geneticallymodified", "beans"]
        assert tokenize("don't fry") == ["dont", "fry"]

    def test_case_and_short_tokens(self):
        assert tokenize("The OS in A box") == ["the", "os", "in", "box"]

    def test_pure_digits_dropped(self):
        assert tokenize("grew 42 cells in 1984") == ["grew", "cells", "in"]
        assert tokenize("4x larger b12 dose") == ["4x", "larger", "b12", "dose"]

    def test_empty_text(self):
        assert tokenize("...") == []


class TestStopList:
    def test_normalized_form_matches(self):
        stop = StopList(["don't", "The"])
        assert "dont" in stop
        assert "the" in stop
        assert "done" not in stop
        assert len(stop) == 2

    def test_bundled_list(self):
        stop = smart_stoplist()
        assert len(stop) == 571
        for word in ("the", "of", "and", "because", "upon"):
            assert word in stop
        assert "nerve" not in stop

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("alpha\nbeta\n\n")
        stop = load_stoplist(path)
        assert len(stop) == 2 and "beta" in stop


def vocabulary(docs, stoplist=None):
    """The vocabulary `build_corpus` makes of these documents or texts."""
    docs = [replace(d, doc_id=i) if isinstance(d, RawDocument)
            else RawDocument(i, "", d) for i, d in enumerate(docs, 1)]
    return build_corpus(Collection("v", docs, [], judged_pairs({})),
                        stoplist).vocabulary


class TestVocabulary:
    DOCS = ["the cat sat on the mat", "the cat ate", "a mat on a mat"]

    def test_min_frequency_and_order(self):
        vocab = vocabulary(self.DOCS)
        # "sat", "ate", "a" occur fewer than twice or are too short
        assert vocab.terms == ["the", "cat", "on", "mat"]
        assert vocab["cat"] == 1
        assert vocab.index == {"the": 0, "cat": 1, "on": 2, "mat": 3}

    def test_stoplist_applied_before_counting(self):
        vocab = vocabulary(self.DOCS, StopList(["the", "on"]))
        assert vocab.terms == ["cat", "mat"]

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            vocabulary(["xyzzy only once"])

    def test_count_matrix_rows(self):
        vocab = vocabulary(self.DOCS)
        counts = count_matrix(self.DOCS, vocab)
        dense = counts.matrix.toarray()
        np.testing.assert_array_equal(dense[0], [2, 1, 1, 1])
        np.testing.assert_array_equal(dense[2], [0, 0, 1, 2])
        np.testing.assert_array_equal(counts.doc_lengths, [5, 2, 3])

    def test_count_matrix_allows_empty_rows(self):
        vocab = vocabulary(self.DOCS)
        counts = count_matrix(["nothing matches here"], vocab)
        assert counts.matrix.nnz == 0
        assert counts.doc_lengths[0] == 0

    def test_query_count_vector(self):
        # queries count through the same path as documents
        vocab = vocabulary(self.DOCS)
        counts = count_matrix(["cat mat cat unseen"], vocab)
        np.testing.assert_array_equal(counts.matrix.toarray()[0], [0, 2, 0, 1])


TINY_QRELS = {1: {1, 3}, 2: {2}}


def tiny_collection(name="tiny", qrels=TINY_QRELS):
    docs = [RawDocument(1, "alpha beta", "alpha gamma delta"),
            RawDocument(2, "", "beta beta gamma"),
            RawDocument(3, "delta", "alpha delta")]
    queries = [Query(1, "alpha delta"), Query(2, "beta")]
    return Collection(name=name, documents=docs, queries=queries,
                      qrels=judged_pairs(qrels))


class TestCollections:
    def test_merge_offsets_by_running_max(self):
        a = tiny_collection("a")
        b = tiny_collection("b")
        merged = merge_collections([a, b], name="ab")
        assert [d.doc_id for d in merged.documents] == [1, 2, 3, 4, 5, 6]
        assert [q.query_id for q in merged.queries] == [1, 2, 3, 4]
        assert merged.qrels.tolist() == [[1, 1], [1, 3], [2, 2],
                                         [3, 4], [3, 6], [4, 5]]
        assert merged.documents[3] == replace(b.documents[0], doc_id=4)

    def test_merge_keeps_judgments_of_unparsed_ids_apart(self):
        # a judges query 5 and document 9, neither of which it parsed; the
        # next collection's ids start above them, so the pairs stay unknown
        # instead of being overwritten by or attributed to b's ids
        a = tiny_collection("a", {1: {1, 3}, 2: {2, 9}, 5: {4}})
        docs = [RawDocument(i, "", "alpha") for i in (1, 2, 3)]
        b = Collection(name="b", documents=docs,
                       queries=[Query(i, "alpha") for i in (1, 2, 3)],
                       qrels=judged_pairs({1: {1}, 3: {3}}))
        merged = merge_collections([a, b], name="ab")
        assert [q.query_id for q in merged.queries] == [1, 2, 6, 7, 8]
        assert [d.doc_id for d in merged.documents] == [1, 2, 3, 10, 11, 12]
        assert merged.qrels.tolist() == [[1, 1], [1, 3], [2, 2], [2, 9],
                                         [5, 4], [6, 10], [8, 12]]
        assert validate_qrels(merged) == [
            "query 2: judged document 9 not parsed",
            "judgments for unknown query 5",
            "query 5: judged document 4 not parsed"]

    def test_merge_shifts_ids_from_zero_or_below(self):
        a = Collection("a", [RawDocument(0, "a0", ""), RawDocument(1, "a1", "")],
                       [Query(1, "qa")], judged_pairs({1: {0}}))
        b = Collection("b", [RawDocument(0, "b0", ""), RawDocument(2, "b2", "")],
                       [Query(0, "qb")], judged_pairs({0: {2}}))
        c = Collection("c", [RawDocument(-1, "c-1", "")], [Query(-2, "qc")],
                       judged_pairs({-2: {-1}}))
        merged = merge_collections([a, b, c], name="abc")
        assert [d.doc_id for d in merged.documents] == [1, 2, 3, 5, 6]
        assert [q.query_id for q in merged.queries] == [1, 2, 3]
        assert validate_qrels(merged) == []
        title = {d.doc_id: d.title for d in merged.documents}
        text = {q.query_id: q.text for q in merged.queries}
        assert [(text[q], title[d]) for q, d in merged.qrels.tolist()] == [
            ("qa", "a0"), ("qb", "b2"), ("qc", "c-1")]

    def test_build_rejects_repeated_ids(self):
        coll = tiny_collection()
        docs = coll.documents + [RawDocument(2, "", "alpha"),
                                 RawDocument(1, "", "beta")]
        with pytest.raises(ValueError, match="repeated document id 2"):
            build_corpus(replace(coll, documents=docs))
        queries = coll.queries + [Query(1, "gamma")]
        with pytest.raises(ValueError, match="repeated query id 1"):
            build_corpus(replace(coll, queries=queries))

    def test_merge_keeps_disjoint_ids_stable(self):
        a = tiny_collection("a")
        merged = merge_collections([a], name="solo")
        np.testing.assert_array_equal(merged.qrels, a.qrels)

    def test_validate_reports_unknown_ids(self):
        # an unknown query is reported once, however many pairs it has
        coll = tiny_collection(qrels={1: {1, 3, 99}, 2: {2}, 9: {1, 2, 98}})
        assert validate_qrels(coll) == [
            "query 1: judged document 99 not parsed",
            "judgments for unknown query 9",
            "query 9: judged document 98 not parsed"]

    def test_build_corpus_drops_bad_judgments(self):
        coll = tiny_collection(qrels={1: {1, 3, 99}, 2: {2}, 9: {1}})
        with pytest.warns(UserWarning):
            corpus = build_corpus(coll)
        assert corpus.qrels.tolist() == [[1, 1], [1, 3], [2, 2]]
        assert corpus.qrels.dtype == np.int64
        assert len(corpus.dropped_judgments) == 2

    def test_build_corpus_counts(self):
        corpus = build_corpus(tiny_collection())
        assert corpus.n_docs == 3 and corpus.n_queries == 2
        assert set(corpus.vocabulary.terms) == {"alpha", "beta", "gamma", "delta"}
        assert corpus.doc_ids.tolist() == [1, 2, 3]
        assert corpus.counts.matrix[1, corpus.vocabulary["beta"]] == 2

    def test_checksum_tracks_content(self):
        c1 = build_corpus(tiny_collection())
        c2 = build_corpus(tiny_collection())
        assert c1.checksum() == c2.checksum()
        coll = tiny_collection(qrels={1: {1, 3}, 2: {1, 2}})
        assert c1.checksum() != build_corpus(coll).checksum()

    def test_judgments_are_read_only(self, tmp_path):
        built = build_corpus(tiny_collection())
        loaded = load_corpus(save_corpus(built, tmp_path / "bundle"))
        for corpus in (built, loaded):
            with pytest.raises(ValueError, match="read-only"):
                corpus.qrels[0, 1] = 2
            assert corpus.checksum() == built.checksum()


class TestCorpusBundle:
    def test_roundtrip(self, tmp_path):
        corpus = build_corpus(tiny_collection())
        save_corpus(corpus, tmp_path / "bundle")
        loaded = load_corpus(tmp_path / "bundle")
        assert loaded.name == corpus.name
        assert loaded.vocabulary.terms == corpus.vocabulary.terms
        np.testing.assert_array_equal(loaded.doc_ids, corpus.doc_ids)
        np.testing.assert_array_equal(loaded.counts.matrix.toarray(),
                                      corpus.counts.matrix.toarray())
        np.testing.assert_array_equal(loaded.query_counts.toarray(),
                                      corpus.query_counts.toarray())
        np.testing.assert_array_equal(loaded.qrels, corpus.qrels)
        assert loaded.checksum() == corpus.checksum()
        # the content hash of the built corpus is the one its header
        # records and the one load_corpus verified
        header = load_model(tmp_path / "bundle")[0]
        assert header["checksum"] == loaded.loaded_checksum == corpus.checksum()
        # judged pairs stored in any order, or repeated, load to the same
        # judgments
        stored = corpus.qrels
        for pairs in (stored[::-1], np.vstack([stored, stored[:1]])):
            save_corpus(replace(corpus, qrels=pairs), tmp_path / "bundle")
            np.testing.assert_array_equal(
                load_corpus(tmp_path / "bundle").qrels, corpus.qrels)

    def test_tampered_bundle_rejected(self, tmp_path):
        corpus = build_corpus(tiny_collection())
        out = save_corpus(corpus, tmp_path / "bundle")
        terms = load_model(out)[0]["terms"]
        edit_header(out, terms=["omega" if t == "alpha" else t for t in terms])
        with pytest.raises(ValueError, match="checksum"):
            load_corpus(out)

    def test_version_gate(self, tmp_path):
        corpus = build_corpus(tiny_collection())
        out = save_corpus(corpus, tmp_path / "bundle")
        edit_header(out, format_version=99)
        with pytest.raises(ValueError, match="version"):
            load_corpus(out)


class TestDamagedCorpusBundle:
    """Damage is a ValueError on load and a data error (exit 2) on the CLI."""

    def assert_rejected(self, path, tmp_path, match, error=ValueError):
        with pytest.raises(error, match=match):
            load_corpus(path)
        code = cli.main(["train", "--corpus", str(path), "--method",
                         "tfidf", "--out", str(tmp_path / "model")])
        assert code == 2

    def test_flipped_byte_in_counts(self, tmp_path):
        out = save_corpus(build_corpus(tiny_collection()), tmp_path / "bundle")
        blob = bytearray(out.read_bytes())
        # the payload opens with the counts' data
        blob[blob.index(b"\n") + 1] ^= 0x01
        out.write_bytes(bytes(blob))
        self.assert_rejected(out, tmp_path, "checksum")

    def test_changed_term(self, tmp_path):
        # every array matches its sha256; the content hash does not
        out = save_corpus(build_corpus(tiny_collection()), tmp_path / "bundle")
        terms = load_model(out)[0]["terms"]
        edit_header(out, terms=["omega" if t == "alpha" else t for t in terms])
        self.assert_rejected(out, tmp_path, "corpus bundle checksum mismatch")

    def test_truncated_payload(self, tmp_path):
        out = save_corpus(build_corpus(tiny_collection()), tmp_path / "bundle")
        out.write_bytes(out.read_bytes()[:-8])
        self.assert_rejected(out, tmp_path, "payload bytes")

    def test_padded_payload(self, tmp_path):
        out = save_corpus(build_corpus(tiny_collection()), tmp_path / "bundle")
        out.write_bytes(out.read_bytes() + b"\0" * 8)
        self.assert_rejected(out, tmp_path, "payload bytes")

    def test_garbled_header(self, tmp_path):
        out = save_corpus(build_corpus(tiny_collection()), tmp_path / "bundle")
        blob = out.read_bytes()
        out.write_bytes(blob.replace(b'"terms":', b'"terms"', 1))
        self.assert_rejected(out, tmp_path, "delimiter")

    def test_format_2_bundle_must_be_rebuilt(self, tmp_path):
        # format 2 hashed the judgments as per-query text
        out = save_corpus(build_corpus(tiny_collection()), tmp_path / "bundle")
        corpus = load_corpus(out)
        edit_header(out, format_version=2, checksum=oracles.loop_checksum(
            corpus, TINY_QRELS, format_version=2))
        self.assert_rejected(out, tmp_path, "rebuild .*ldikit corpus build")

    def test_csv_bundle_must_be_rebuilt(self, tmp_path):
        # the per-row CSV layout of format version 1, a directory
        out = tmp_path / "bundle"
        out.mkdir()
        (out / "vocabulary.txt").write_text("alpha\nbeta\n")
        (out / "counts.csv").write_text("doc,term,count\n1,0,2\n")
        (out / "manifest.json").write_text(json.dumps(
            {"format_version": 1, "tokenizer_version": 1, "name": "tiny",
             "doc_ids": [1], "query_ids": [], "checksum": "0"}))
        self.assert_rejected(out, tmp_path, "rebuild .*ldikit corpus build",
                             IsADirectoryError)


class TestLoadCollection:
    def test_from_files(self, tmp_path):
        (tmp_path / "docs.all").write_text(DOC_FILE)
        (tmp_path / "qry.all").write_text(QUERY_FILE)
        (tmp_path / "rels.txt").write_text("1 1\n2 2\n")
        coll = load_collection(tmp_path / "docs.all", tmp_path / "qry.all",
                               tmp_path / "rels.txt", name="mini")
        assert coll.name == "mini"
        assert len(coll.documents) == 3 and len(coll.queries) == 2
        assert coll.qrels.tolist() == [[1, 1], [2, 2]]


# ---------------------------------------------------------------------------
# The counting kernel, the columnar judgments parser and the judged-pairs
# hash against the per-token loops they replaced (tests/oracles.py)

WORDS = ["nerve", "Growth", "FACTOR", "cells", "x-ray", "don't", "e.g.",
         "(cells)", "b12", "4x", "42", "1984", "a", "I", "x", "7", "café",
         "naïve", "Ωmega", "straße", "İstanbul", "co-op", "U.S.A.", "...",
         "½", "²", "٣", "ﬁx", "the", "of", "and", "THE", "don’t", "dont"]
SPACES = [" ", " ", " ", " ", "\n", "\t", "\u00a0", "\u2003", "  ", "\x1c"]
STOP_TERMS = ["the", "of", "and", "don't", "cells", "x-ray", "a"]


def random_text(rng, max_words=15):
    n = int(rng.integers(0, max_words + 1))
    parts = []
    for w in rng.choice(WORDS, size=n):
        parts += [str(w), str(rng.choice(SPACES))]
    return "".join(parts)


def random_doc(rng, kind):
    if kind == "mixed":
        kind = str(rng.choice(["raw", "str"]))
    if rng.random() < 0.1:   # only tokens the tokenizer drops
        text = " ".join(str(t) for t in rng.choice(["a", "7", "I", "1984", "..."],
                                                   size=int(rng.integers(0, 6))))
    else:
        text = random_text(rng)
    if kind == "str":
        return text
    return RawDocument(0, random_text(rng, 4), text)


def random_stoplist(rng):
    if rng.random() < 0.3:
        return None
    picked = rng.choice(STOP_TERMS, size=int(rng.integers(0, 5)), replace=False)
    return StopList(str(t) for t in picked)


def assert_same_matrix(got, expected):
    assert got.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def assert_same_counts(counts, expected):
    """``counts`` is a TermDocCounts, ``expected`` the oracle's pair."""
    matrix, lengths = expected
    assert_same_matrix(counts.matrix, matrix)
    assert counts.doc_lengths.dtype == lengths.dtype
    np.testing.assert_array_equal(counts.doc_lengths, lengths)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def random_id(rng, value):
    """``value`` as ``int`` reads it: mostly plain digits, now and then
    signed, zero-padded to 19 digits or in Arabic-Indic digits."""
    spelling = rng.random()
    if spelling < 0.03:
        return f"+{value}"
    if spelling < 0.06:
        return str(value).zfill(19)
    if spelling < 0.08:
        return str(value).translate(ARABIC_INDIC)
    return str(value)


def random_qrels_text(rng):
    """Judgment rows in either layout, with blank lines, ragged extras and
    now and then a malformed row."""
    trec = rng.random() < 0.5
    lines = []
    for _ in range(int(rng.integers(0, 25))):
        if rng.random() < 0.15:
            lines.append(str(rng.choice(["", "  ", "\t"])))
            continue
        qid = random_id(rng, int(rng.integers(1, 6)))
        did = random_id(rng, int(rng.integers(0, 30)))
        row = [qid, "0", did, "1"] if trec else [qid, did]
        row += ["0.5"] * int(rng.integers(0, 2))
        damage = rng.random()
        if damage < 0.03:
            row = row[:1]
        elif damage < 0.06:
            row = row[:2]
        elif damage < 0.09:
            row[int(rng.integers(0, len(row)))] = "x"
        elif damage < 0.11:
            row[1] = "7"
        lines.append(str(rng.choice([" ", "\t", "  "])).join(row))
    return "\n".join(lines) + str(rng.choice(["", "\n"]))


class TestAgainstTheLoopOracles:
    N_COLLECTIONS = 250

    def test_vocabulary_and_counts(self):
        kinds = ["raw", "str", "mixed"]
        for seed in range(self.N_COLLECTIONS):
            rng = np.random.default_rng(seed)
            kind = kinds[seed % len(kinds)]
            docs = [random_doc(rng, kind) for _ in range(int(rng.integers(0, 12)))]
            stop = random_stoplist(rng)
            try:
                terms = oracles.loop_vocabulary(docs, stop)
            except ValueError:
                with pytest.raises(ValueError, match="empty"):
                    vocabulary(docs, stop)
                continue
            vocab = vocabulary(docs, stop)
            assert vocab.terms == terms, seed
            assert_same_counts(count_matrix(docs, vocab),
                               oracles.loop_count_matrix(docs, terms))
            queries = [random_text(rng) for _ in range(int(rng.integers(0, 4)))]
            assert_same_counts(count_matrix(queries, vocab),
                               oracles.loop_count_matrix(queries, terms))

    def test_tokenize(self):
        for seed in range(self.N_COLLECTIONS):
            text = random_text(np.random.default_rng(seed), 30)
            assert tokenize(text) == oracles.loop_tokenize(text), seed

    def test_tokenize_every_code_point(self):
        # in one string and one code point at a time; the cleaning table
        # answers code points above 255 without storing them
        table = dict(corpus_mod._CLEAN_TABLE)
        chars = list(map(chr, range(sys.maxunicode + 1)))
        text = "".join(chars)
        assert tokenize(text) == oracles.loop_tokenize(text)
        assert list(map(tokenize, chars)) == list(map(oracles.loop_tokenize, chars))
        assert dict(corpus_mod._CLEAN_TABLE) == table

    def test_build_corpus_and_its_bundle(self, tmp_path):
        for seed in range(self.N_COLLECTIONS):
            rng = np.random.default_rng(seed)
            docs = [RawDocument(d, random_text(rng, 4), random_text(rng))
                    for d in range(1, int(rng.integers(2, 12)))]
            queries = [Query(q, random_text(rng, 6))
                       for q in range(1, int(rng.integers(1, 5)))]
            qrels = oracles.loop_parse_qrels(
                "\n".join(f"{rng.integers(1, 6)} {rng.integers(1, 14)}"
                          for _ in range(int(rng.integers(0, 20)))))
            collection = Collection("r", docs, queries, judged_pairs(qrels))
            stop = random_stoplist(rng)
            try:
                terms = oracles.loop_vocabulary(docs, stop)
            except ValueError:
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                corpus = build_corpus(collection, stop)
            assert len(caught) == bool(validate_qrels(collection)), seed
            assert corpus.vocabulary.terms == terms, seed
            assert_same_counts(corpus.counts,
                               oracles.loop_count_matrix(docs, terms))
            assert_same_matrix(corpus.query_counts, oracles.loop_count_matrix(
                [q.text for q in queries], terms)[0])
            kept = {q: dids & set(range(1, len(docs) + 1))
                    for q, dids in qrels.items()
                    if q <= len(queries) and dids & set(range(1, len(docs) + 1))}
            assert corpus.qrels.tobytes() == oracles.loop_judged_pairs(
                kept).tobytes(), seed
            assert corpus.checksum() == oracles.loop_checksum(corpus, kept)
            if seed % 10 == 0:
                out = save_corpus(corpus, tmp_path / str(seed))
                assert (load_model(out)[1]["qrels"].tobytes() ==
                        oracles.loop_judged_pairs(kept).tobytes())
                loaded = load_corpus(out)
                np.testing.assert_array_equal(loaded.qrels, corpus.qrels)
                assert loaded.checksum() == corpus.checksum()

    def test_parse_qrels(self, write):
        for seed in range(2 * self.N_COLLECTIONS):
            rng = np.random.default_rng(seed)
            text = random_qrels_text(rng)
            dialect = str(rng.choice(["auto", "auto", "pair", "trec"]))
            path = write(text)
            try:
                expected = judged_pairs(oracles.loop_parse_qrels(text, dialect))
            except oracles.LoopParseError as exc:
                with pytest.raises(ParseError) as err:
                    parse_qrels(path, dialect)
                assert err.value.line_no == exc.line_no, seed
                continue
            got = parse_qrels(path, dialect)
            assert got.dtype == expected.dtype, seed
            assert got.tobytes() == expected.tobytes(), seed
            assert got.shape == expected.shape and not got.flags.writeable, seed


def test_corpus_build_is_independent_of_string_hashing(tmp_path):
    rng = np.random.default_rng(3)
    docs = "".join(f".I {d}\n.T\n{random_text(rng, 5)}\n.W\n{random_text(rng, 40)}\n"
                   for d in range(1, 41))
    queries = "".join(f".I {q}\n.W\n{random_text(rng, 8)}\n" for q in range(1, 9))
    rels = "".join(f"{q} 0 {d} 1\n" for q in range(1, 9)
                   for d in rng.choice(np.arange(1, 45), size=5, replace=False))
    for name, text in (("h.all", docs), ("h.qry", queries), ("h.rel", rels)):
        (tmp_path / name).write_text(text)
    spec = f"h={tmp_path / 'h.all'},{tmp_path / 'h.qry'},{tmp_path / 'h.rel'}"
    src = str(Path(ldikit.__file__).resolve().parents[1])
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-m", "ldikit", "corpus", "build",
                        "--spec", spec, "--out", str(tmp_path / f"bundle{seed}")],
                       check=True, env=env, capture_output=True)
    assert ((tmp_path / "bundle0").read_bytes() ==
            (tmp_path / "bundle1").read_bytes())
