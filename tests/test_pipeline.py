import dataclasses
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (DATA_DIR_ENV, data_root, edit_header,
                      find_collection_files)
from ldikit import bundle, config, lda, pipeline
from ldikit.bundle import load_model
from ldikit.config import default_topic_count, resolve_out_path
from ldikit.corpus import judged_pairs, load_corpus, save_corpus
from ldikit.demo import RELEVANT, demo_corpus
from ldikit.lsa import SVD_TOL
from ldikit.pipeline import (FittedModel, evaluate_matrix, load_fitted,
                             resolve_method, save_fitted, score_corpus,
                             sweep_topics, train_model)

TOPIC_COUNTS = {"lsi": 4, "plsi": 3, "lda": 4}

# orchestration tests run the topic fits at their default budgets
pytestmark = pytest.mark.filterwarnings(
    "ignore:EM stopped at the pass limit")


@pytest.fixture(scope="module")
def corpus():
    return demo_corpus()


def demo_corpus_with_extra_judgment():
    """The demo corpus with one more judged pair for its first query."""
    corpus = demo_corpus()
    qid = int(corpus.query_ids[0])
    corpus.qrels = judged_pairs({**RELEVANT, qid: RELEVANT[qid] | {9999}})
    return corpus


def assert_same_fields(a, b, path="payload"):
    """Dataclass payloads equal field by field: arrays by value, sparse
    matrices by their differing entries, nested dataclasses recursively."""
    assert type(a) is type(b), path
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        where = f"{path}.{field.name}"
        if dataclasses.is_dataclass(x):
            assert_same_fields(x, y, where)
        elif sp.issparse(x):
            assert sp.issparse(y) and x.shape == y.shape, where
            assert (x != y).nnz == 0, where
        elif isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray) and x.dtype == y.dtype, where
            np.testing.assert_array_equal(x, y, err_msg=where)
        else:
            assert x == y and type(x) is type(y), where


def fit(corpus, method):
    if method == "tfidf":
        return train_model(corpus, "tfidf")
    return train_model(corpus, method, k=TOPIC_COUNTS[method], seed=0)


class TestResolveMethod:
    def test_known_methods_pass_through(self):
        for name in ("tfidf", "lsi", "plsi", "lda"):
            assert resolve_method(name) == name

    def test_alias_and_case(self):
        assert resolve_method("ldi") == "lda"
        assert resolve_method("TFIDF") == "tfidf"
        assert resolve_method("LDI") == "lda"

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            resolve_method("bm25")


class TestTrainScoreEvaluate:
    @pytest.mark.parametrize("method", ["tfidf", "lsi", "plsi", "lda"])
    def test_round_trip_produces_usable_scores(self, corpus, method):
        fitted = fit(corpus, method)
        assert fitted.kind == method
        assert fitted.corpus_name == corpus.name
        matrix = score_corpus(fitted, corpus)
        assert matrix.tag == method
        assert matrix.scores.shape == (corpus.n_queries, corpus.n_docs)
        report = evaluate_matrix(matrix, corpus)
        assert 0.0 < report.map_score <= 1.0

    def test_tfidf_ignores_topic_count(self, corpus):
        assert fit(corpus, "tfidf").k is None

    @pytest.mark.parametrize("method", ["lsi", "plsi", "lda"])
    def test_topic_methods_require_k(self, corpus, method):
        with pytest.raises(ValueError, match="topic count"):
            train_model(corpus, method)

    def test_custom_tag(self, corpus):
        fitted = fit(corpus, "tfidf")
        assert score_corpus(fitted, corpus, tag="keyword").tag == "keyword"

    def test_scoring_refuses_changed_corpus(self, corpus):
        fitted = fit(corpus, "tfidf")
        altered = demo_corpus_with_extra_judgment()
        with pytest.raises(ValueError, match="content hash"):
            score_corpus(fitted, altered)

    def test_lda_records_fit_summary(self, corpus):
        fitted = fit(corpus, "lda")
        assert set(fitted.extra) == {"alpha", "converged", "stopped_by",
                                     "elbo"}
        assert fitted.extra["alpha"] > 0

    @pytest.mark.parametrize("caps, stopped_by", [
        ({"MAX_EM_ITERS": 1000}, "bound"),
        ({"MAX_EM_ITERS": 2}, "pass_cap"),
        ({"MAX_EM_ITERS": 1000, "VAR_MAX_ITERS": 1}, "sweep_cap")])
    def test_lda_manifest_names_what_stopped_the_fit(self, corpus, tmp_path,
                                                     monkeypatch, caps,
                                                     stopped_by):
        for name, value in caps.items():
            monkeypatch.setattr(lda, name, value)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            save_fitted(fit(corpus, "lda"), tmp_path / "m")
        manifest = load_model(tmp_path / "m")[0]
        assert manifest["stopped_by"] == stopped_by
        assert manifest["converged"] == (stopped_by == "bound")
        assert load_fitted(tmp_path / "m").extra["stopped_by"] == stopped_by

    def test_lsi_records_how_its_svd_ended(self, corpus, tmp_path):
        save_fitted(fit(corpus, "lsi"), tmp_path / "m")
        manifest = load_model(tmp_path / "m")[0]
        assert 0 <= manifest["svd_residual"] <= SVD_TOL
        assert manifest["gram_products"] > 0


class TestDispatch:
    """The method table reaches the ranker functions through this module."""

    REACHES = {
        "tfidf": {"train_tfidf", "score_tfidf"},
        "lsi": {"train_lsi", "score_lsi"},
        "plsi": {"train_plsa", "score_plsa"},
        "lda": {"train_lda", "build_index", "score_ldi"},
    }

    def test_each_method_reaches_its_pipeline_names(self, corpus, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        names = set().union(*self.REACHES.values())
        for name in names:
            monkeypatch.setattr(pipeline, name,
                                counting(name, getattr(pipeline, name)))
        for method, expected in self.REACHES.items():
            calls.clear()
            score_corpus(fit(corpus, method), corpus)
            assert set(calls) == expected, method


def count_hashing(monkeypatch):
    """Patch in two counters: the bytes of each array `bundle._digest`
    hashes, and the sha256 objects made by any caller, each with ``n``,
    the bytes it took in."""
    digested, hashed = [], []
    digest, sha256 = bundle._digest, hashlib.sha256

    def counting_digest(array):
        digested.append(array.nbytes)
        return digest(array)

    class Counting:
        def __init__(self, data=b""):
            self.inner, self.n = sha256(), 0
            hashed.append(self)
            self.update(data)

        def update(self, data):
            self.n += memoryview(data).nbytes
            self.inner.update(data)

        def hexdigest(self):
            return self.inner.hexdigest()

    monkeypatch.setattr(bundle, "_digest", counting_digest)
    monkeypatch.setattr(hashlib, "sha256", Counting)
    return digested, hashed


class TestPersistence:
    @pytest.mark.parametrize("method", ["tfidf", "lsi", "plsi", "lda"])
    def test_saved_model_scores_identically(self, corpus, method, tmp_path):
        fitted = fit(corpus, method)
        before = score_corpus(fitted, corpus)
        save_fitted(fitted, tmp_path / method)
        loaded = load_fitted(tmp_path / method)
        assert loaded.kind == method
        assert loaded.corpus_checksum == fitted.corpus_checksum
        after = score_corpus(loaded, corpus)
        np.testing.assert_array_equal(after.scores, before.scores)

    @pytest.mark.parametrize("method", ["tfidf", "lsi", "plsi", "lda"])
    def test_loaded_payload_equals_fitted(self, corpus, method, tmp_path):
        fitted = fit(corpus, method)
        save_fitted(fitted, tmp_path / method)
        assert_same_fields(load_fitted(tmp_path / method).payload,
                           fitted.payload)

    @pytest.mark.parametrize("method", ["lsi", "lda"])
    def test_resaved_model_writes_the_same_manifest(self, corpus, method,
                                                   tmp_path):
        fitted = fit(corpus, method)
        save_fitted(fitted, tmp_path / "first")
        loaded = load_fitted(tmp_path / "first")
        save_fitted(loaded, tmp_path / "second")
        first, second = (load_model(tmp_path / d)[0]
                         for d in ("first", "second"))
        assert first == second
        assert ((tmp_path / "first").read_bytes()
                == (tmp_path / "second").read_bytes())
        if method == "lda":
            assert loaded.extra == fitted.extra

    @pytest.mark.parametrize("method", ["tfidf", "lsi"])
    def test_bundle_with_document_count_still_loads(self, corpus, method,
                                                    tmp_path):
        # tfidf and lsi bundles once stored the document count as "n_docs";
        # the key is ignored on load
        fitted = fit(corpus, method)
        before = score_corpus(fitted, corpus)
        save_fitted(fitted, tmp_path / method)
        edit_header(tmp_path / method, n_docs=corpus.n_docs)
        loaded = load_fitted(tmp_path / method)
        assert_same_fields(loaded.payload, fitted.payload)
        after = score_corpus(loaded, corpus)
        np.testing.assert_array_equal(after.scores, before.scores)

    def test_loaded_model_still_guards_checksum(self, corpus, tmp_path):
        fitted = fit(corpus, "tfidf")
        save_fitted(fitted, tmp_path / "m")
        loaded = load_fitted(tmp_path / "m")
        altered = demo_corpus_with_extra_judgment()
        with pytest.raises(ValueError, match="content hash"):
            score_corpus(loaded, altered)

    def test_loaded_corpus_is_hashed_once(self, corpus, tmp_path,
                                          monkeypatch):
        digested, hashed = count_hashing(monkeypatch)
        path = save_corpus(corpus, tmp_path / "c")
        entries = json.loads(path.read_bytes().split(b"\n", 1)[0])["arrays"]
        arrays = sorted(8 * math.prod(e["shape"]) for e in entries.values())
        # the content hash's input: the vocabulary, then one hex digest
        # per stored array, one per line
        content = (len("\n".join(corpus.vocabulary.terms).encode())
                   + 65 * len(arrays))

        def hashed_each_array_once():
            # each stored array once, and nothing else but the content hash
            assert sorted(digested) == arrays
            assert sorted(h.n for h in hashed) == sorted([*arrays, content])
            digested.clear()
            hashed.clear()
        hashed_each_array_once()
        # load_corpus verifies each array; train and score reuse the hash
        loaded = load_corpus(path)
        fitted = train_model(loaded, "tfidf")
        score_corpus(fitted, loaded)
        hashed_each_array_once()
        # a corpus built in memory is hashed when it is used
        score_corpus(fitted, corpus)
        hashed_each_array_once()
        assert fitted.corpus_checksum == corpus.checksum()

    def test_unknown_kind_rejected(self, corpus, tmp_path):
        fitted = FittedModel("mystery", object(), "x", "demo")
        with pytest.raises(ValueError, match="unknown model kind"):
            save_fitted(fitted, tmp_path / "m")

    def test_corpus_bundle_is_not_a_model(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path / "c")
        with pytest.raises(ValueError, match="unknown model kind 'corpus'"):
            load_fitted(tmp_path / "c")


class TestSweep:
    def test_grid_of_runs(self, corpus):
        rows = sweep_topics(corpus, "lsi", ks=[2, 3], seeds=[0, 1])
        assert [(r["k"], r["seed"]) for r in rows] == [(2, 0), (2, 1),
                                                       (3, 0), (3, 1)]
        for row in rows:
            assert row["method"] == "lsi"
            assert 0.0 <= row["map"] <= 1.0

    def test_alias_resolves_in_rows(self, corpus):
        rows = sweep_topics(corpus, "ldi", ks=[3], seeds=[0])
        assert rows[0]["method"] == "lda"


class TestDataRoot:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, "/elsewhere")
        assert data_root(tmp_path) == tmp_path

    def test_environment_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert data_root() == tmp_path

    def test_falls_back_to_local_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        assert data_root() is None
        (tmp_path / "data").mkdir()
        assert data_root() == Path("data")


class TestOutPath:
    def test_relative_lands_under_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(config.OUT_DIR_ENV, str(tmp_path))
        assert resolve_out_path("scores.bin") == tmp_path / "scores.bin"

    def test_absolute_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.setenv(config.OUT_DIR_ENV, str(tmp_path))
        target = tmp_path / "deep" / "scores.bin"
        assert resolve_out_path(target) == target

    def test_no_env_means_identity(self, monkeypatch):
        monkeypatch.delenv(config.OUT_DIR_ENV, raising=False)
        assert resolve_out_path("scores.bin") == Path("scores.bin")


class TestCollectionLookup:
    def make_tree(self, tmp_path):
        nested = tmp_path / "classic" / "med"
        nested.mkdir(parents=True)
        for name in ("MED.ALL", "med.qry", "MED.REL"):
            (nested / name).write_text("stub")
        return tmp_path

    def test_finds_files_case_insensitively(self, tmp_path):
        root = self.make_tree(tmp_path)
        found = find_collection_files(root, "med")
        assert found is not None
        assert [p.name for p in found] == ["MED.ALL", "med.qry", "MED.REL"]

    def test_missing_file_means_none(self, tmp_path):
        root = self.make_tree(tmp_path)
        (root / "classic" / "med" / "MED.REL").unlink()
        assert find_collection_files(root, "MED") is None

    def test_unknown_collection_means_none(self, tmp_path):
        assert find_collection_files(self.make_tree(tmp_path), "NEWS") is None

    def test_no_root_means_none(self):
        assert find_collection_files(None, "MED") is None


class TestExperimentConfig:
    def test_default_topic_count_resolves_alias(self):
        assert default_topic_count("ldi", "med") == \
            config.DEFAULT_TOPIC_COUNTS["lda"]["MED"]
        assert default_topic_count("tfidf", "MED") is None
