import json

import numpy as np
import pytest

from ldikit import cli
from ldikit.corpus import (Collection, ParseError, Query, RawDocument,
                           StopList, build_corpus, build_vocabulary,
                           count_matrix, load_collection, load_corpus,
                           load_stoplist, merge_collections,
                           parse_documents, parse_qrels,
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


class TestRecordParsing:
    def test_documents_parse_sections(self):
        docs = parse_documents(DOC_FILE, "t")
        assert [d.doc_id for d in docs] == [1, 2, 3]
        assert docs[0].title == "Growth factors in the nervous system."
        assert "mouse tissue" in docs[0].body
        # .A and .X content stays out of the indexed text
        assert "Smith" not in docs[0].text
        assert "1 5 1" not in docs[0].text
        assert docs[2].title == ""

    def test_text_joins_title_and_body(self):
        docs = parse_documents(DOC_FILE, "t")
        assert docs[0].text.startswith("Growth factors")
        assert docs[0].text.endswith("mouse tissue.")

    def test_marker_with_inline_text(self):
        docs = parse_documents(".I 7\n.W some inline text\nmore text\n", "t")
        assert docs[0].doc_id == 7
        assert docs[0].body == "some inline text\nmore text"

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError):
            parse_documents(".I 1\n.W\na b\n.I 1\n.W\nc d\n", "t")

    def test_non_integer_id_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_documents(".I abc\n.W\nx\n", "t")
        assert err.value.line_no == 1

    def test_section_before_record_rejected(self):
        with pytest.raises(ParseError):
            parse_documents(".W\norphan text\n", "t")

    def test_unknown_section_warns_and_skips(self):
        with pytest.warns(UserWarning):
            docs = parse_documents(".I 1\n.Q\nstrange\n.W\nreal text here\n", "t")
        assert docs[0].body == "real text here"

    def test_queries_fall_back_to_title(self):
        queries = parse_queries(QUERY_FILE, "t")
        assert queries[0].text == "nerve growth factor experiments"
        assert queries[1].text == "cardiac enzyme levels"


class TestQrels:
    def test_pair_dialect(self):
        qrels = parse_qrels("1 12\n1 17\n2 9\n", dialect="pair")
        assert qrels == {1: {12, 17}, 2: {9}}

    def test_trec_dialect(self):
        qrels = parse_qrels("1 0 12 1\n1 0 17 1\n", dialect="trec")
        assert qrels == {1: {12, 17}}

    def test_auto_detects_trec(self):
        assert parse_qrels("3 0 44 2\n3 0 45 0\n") == {3: {44, 45}}

    def test_auto_detects_pair(self):
        # column 2 is a real document id here, not a constant zero
        assert parse_qrels("1 12 0 0\n1 13 0 0\n") == {1: {12, 13}}

    def test_pair_with_extra_columns(self):
        assert parse_qrels("1 12 0.8\n", dialect="pair") == {1: {12}}

    def test_short_row_rejected(self):
        with pytest.raises(ParseError):
            parse_qrels("1\n")
        with pytest.raises(ParseError):
            parse_qrels("1 0\n", dialect="trec")

    def test_bad_dialect_rejected(self):
        with pytest.raises(ValueError):
            parse_qrels("1 2\n", dialect="nope")

    def test_non_integer_rejected(self):
        with pytest.raises(ParseError):
            parse_qrels("one 2\n", dialect="pair")

    def test_empty_input(self):
        assert parse_qrels("") == {}


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


class TestVocabulary:
    DOCS = ["the cat sat on the mat", "the cat ate", "a mat on a mat"]

    def test_min_frequency_and_order(self):
        vocab = build_vocabulary(self.DOCS)
        # "sat", "ate", "a" occur fewer than twice or are too short
        assert vocab.terms == ["the", "cat", "on", "mat"]
        assert vocab["cat"] == 1

    def test_stoplist_applied_before_counting(self):
        vocab = build_vocabulary(self.DOCS, StopList(["the", "on"]))
        assert vocab.terms == ["cat", "mat"]

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary(["xyzzy only once"], None)

    def test_count_matrix_rows(self):
        vocab = build_vocabulary(self.DOCS)
        counts = count_matrix(self.DOCS, vocab)
        dense = counts.matrix.toarray()
        np.testing.assert_array_equal(dense[0], [2, 1, 1, 1])
        np.testing.assert_array_equal(dense[2], [0, 0, 1, 2])
        np.testing.assert_array_equal(counts.doc_lengths, [5, 2, 3])

    def test_count_matrix_allows_empty_rows(self):
        vocab = build_vocabulary(self.DOCS)
        counts = count_matrix(["nothing matches here"], vocab)
        assert counts.matrix.nnz == 0
        assert counts.doc_lengths[0] == 0

    def test_query_count_vector(self):
        # queries count through the same path as documents, token lists too
        vocab = build_vocabulary(self.DOCS)
        counts = count_matrix([["cat", "mat", "cat", "unseen"]], vocab)
        np.testing.assert_array_equal(counts.matrix.toarray()[0], [0, 2, 0, 1])


def tiny_collection(name="tiny"):
    docs = [RawDocument(1, "alpha beta", "alpha gamma delta", name),
            RawDocument(2, "", "beta beta gamma", name),
            RawDocument(3, "delta", "alpha delta", name)]
    queries = [Query(1, "alpha delta", name), Query(2, "beta", name)]
    return Collection(name=name, documents=docs, queries=queries,
                      qrels={1: {1, 3}, 2: {2}})


class TestCollections:
    def test_merge_offsets_by_running_max(self):
        a = tiny_collection("a")
        b = tiny_collection("b")
        merged = merge_collections([a, b], name="ab")
        assert [d.doc_id for d in merged.documents] == [1, 2, 3, 4, 5, 6]
        assert [q.query_id for q in merged.queries] == [1, 2, 3, 4]
        assert merged.qrels[3] == {4, 6}
        assert merged.documents[3].source == "b"

    def test_merge_keeps_disjoint_ids_stable(self):
        a = tiny_collection("a")
        merged = merge_collections([a], name="solo")
        assert merged.qrels == a.qrels

    def test_validate_reports_unknown_ids(self):
        coll = tiny_collection()
        coll.qrels[9] = {1}
        coll.qrels[1].add(99)
        problems = validate_qrels(coll)
        assert any("unknown query 9" in p for p in problems)
        assert any("document 99" in p for p in problems)

    def test_build_corpus_drops_bad_judgments(self):
        coll = tiny_collection()
        coll.qrels[1].add(99)
        coll.qrels[9] = {1}
        with pytest.warns(UserWarning):
            corpus = build_corpus(coll)
        assert corpus.qrels[1] == {1, 3}
        assert 9 not in corpus.qrels
        assert len(corpus.dropped_judgments) == 2

    def test_build_corpus_counts(self):
        corpus = build_corpus(tiny_collection())
        assert corpus.n_docs == 3 and corpus.n_queries == 2
        assert set(corpus.vocabulary.terms) == {"alpha", "beta", "gamma", "delta"}
        row = corpus.doc_row(2)
        assert corpus.counts.matrix[row, corpus.vocabulary["beta"]] == 2
        with pytest.raises(KeyError):
            corpus.doc_row(42)

    def test_checksum_tracks_content(self):
        c1 = build_corpus(tiny_collection())
        c2 = build_corpus(tiny_collection())
        assert c1.checksum() == c2.checksum()
        c2.qrels[2].add(1)
        assert c1.checksum() != c2.checksum()


def edit_manifest(bundle_dir, **changes):
    path = bundle_dir / "manifest.json"
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))


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
        assert loaded.qrels == corpus.qrels
        assert loaded.checksum() == corpus.checksum()
        # judged pairs stored in any order load to the same judgments
        pairs = tmp_path / "bundle" / "qrels.bin"
        pairs.write_bytes(np.fromfile(pairs, dtype="<i8").reshape(-1, 2)[::-1]
                          .tobytes())
        assert load_corpus(tmp_path / "bundle").qrels == corpus.qrels

    def test_tampered_bundle_rejected(self, tmp_path):
        corpus = build_corpus(tiny_collection())
        out = save_corpus(corpus, tmp_path / "bundle")
        terms = json.loads((out / "manifest.json").read_text())["terms"]
        edit_manifest(out, terms=["omega" if t == "alpha" else t for t in terms])
        with pytest.raises(ValueError, match="checksum"):
            load_corpus(out)

    def test_version_gate(self, tmp_path):
        corpus = build_corpus(tiny_collection())
        out = save_corpus(corpus, tmp_path / "bundle")
        edit_manifest(out, format_version=99)
        with pytest.raises(ValueError, match="version"):
            load_corpus(out)


class TestDamagedCorpusBundle:
    """Damage is a ValueError on load and a data error (exit 2) on the CLI."""

    def assert_rejected(self, bundle_dir, tmp_path, match):
        with pytest.raises(ValueError, match=match):
            load_corpus(bundle_dir)
        code = cli.main(["train", "--corpus", str(bundle_dir), "--method",
                         "tfidf", "--out", str(tmp_path / "model")])
        assert code == 2

    def test_flipped_byte_in_counts(self, tmp_path):
        out = save_corpus(build_corpus(tiny_collection()), tmp_path / "bundle")
        data = bytearray((out / "counts.data.bin").read_bytes())
        data[0] ^= 0x01
        (out / "counts.data.bin").write_bytes(bytes(data))
        self.assert_rejected(out, tmp_path, "checksum")

    def test_truncated_array_file(self, tmp_path):
        out = save_corpus(build_corpus(tiny_collection()), tmp_path / "bundle")
        indices = out / "counts.indices.bin"
        indices.write_bytes(indices.read_bytes()[:-8])
        self.assert_rejected(out, tmp_path, "bytes")

    def test_csv_bundle_must_be_rebuilt(self, tmp_path):
        # the per-row CSV layout of format version 1
        out = tmp_path / "bundle"
        out.mkdir()
        (out / "vocabulary.txt").write_text("alpha\nbeta\n")
        (out / "counts.csv").write_text("doc,term,count\n1,0,2\n")
        (out / "manifest.json").write_text(json.dumps(
            {"format_version": 1, "tokenizer_version": 1, "name": "tiny",
             "doc_ids": [1], "query_ids": [], "checksum": "0"}))
        self.assert_rejected(out, tmp_path, "rebuild .*ldikit corpus build")


class TestLoadCollection:
    def test_from_files(self, tmp_path):
        (tmp_path / "docs.all").write_text(DOC_FILE)
        (tmp_path / "qry.all").write_text(QUERY_FILE)
        (tmp_path / "rels.txt").write_text("1 1\n2 2\n")
        coll = load_collection(tmp_path / "docs.all", tmp_path / "qry.all",
                               tmp_path / "rels.txt", name="mini")
        assert coll.name == "mini"
        assert len(coll.documents) == 3 and len(coll.queries) == 2
        assert coll.qrels == {1: {1}, 2: {2}}

    def test_documents_only(self, tmp_path):
        (tmp_path / "docs.all").write_text(DOC_FILE)
        coll = load_collection(tmp_path / "docs.all")
        assert coll.queries == [] and coll.qrels == {}
