import json

import numpy as np
import pytest
import scipy.sparse as sp

from ldikit import cli
from ldikit.bundle import load_model, load_scores, save_model, save_scores
from ldikit.corpus import load_corpus, save_corpus
from ldikit.demo import demo_corpus
from ldikit.ensemble import ScoreMatrix
from ldikit.pipeline import load_fitted, save_fitted, train_model


class TestModelBundle:
    def test_dense_roundtrip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"weights": rng.standard_normal((3, 4)),
                  "ids": np.array([5, 7, 9], dtype=np.int64)}
        save_model(tmp_path / "m", "topic", {"k": 4, "seed": 1}, arrays)
        manifest, loaded = load_model(tmp_path / "m")
        assert manifest["kind"] == "topic"
        assert manifest["k"] == 4 and manifest["seed"] == 1
        assert "arrays" not in manifest
        np.testing.assert_array_equal(loaded["weights"], arrays["weights"])
        assert loaded["weights"].dtype == np.float64
        np.testing.assert_array_equal(loaded["ids"], arrays["ids"])
        assert loaded["ids"].dtype == np.int64

    def test_sparse_roundtrip_preserves_structure(self, tmp_path):
        rng = np.random.default_rng(1)
        dense = rng.integers(0, 3, size=(6, 9))
        matrix = sp.csr_matrix(dense)
        save_model(tmp_path / "m", "counts", {}, {"counts": matrix})
        _, loaded = load_model(tmp_path / "m")
        assert sp.issparse(loaded["counts"])
        np.testing.assert_array_equal(loaded["counts"].toarray(), dense)
        np.testing.assert_array_equal(loaded["counts"].indices, matrix.indices)
        np.testing.assert_array_equal(loaded["counts"].indptr, matrix.indptr)

    def test_float32_upcasts_exactly(self, tmp_path):
        values = np.array([[0.5, 1.25], [3.75, -2.0]], dtype=np.float32)
        save_model(tmp_path / "m", "x", {}, {"v": values})
        _, loaded = load_model(tmp_path / "m")
        np.testing.assert_array_equal(loaded["v"], values.astype(np.float64))

    def test_bool_persists_as_integers(self, tmp_path):
        flags = np.array([True, False, True])
        save_model(tmp_path / "m", "x", {}, {"flags": flags})
        _, loaded = load_model(tmp_path / "m")
        np.testing.assert_array_equal(loaded["flags"], [1, 0, 1])

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="dtype"):
            save_model(tmp_path / "m", "x", {}, {"v": np.array([1 + 2j])})

    def test_version_gate(self, tmp_path):
        save_model(tmp_path / "m", "x", {}, {"v": np.zeros(2)})
        manifest_path = tmp_path / "m" / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["bundle_version"] = 99
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="bundle version"):
            load_model(tmp_path / "m")

    def test_missing_array_file_fails(self, tmp_path):
        save_model(tmp_path / "m", "x", {}, {"v": np.zeros(2)})
        (tmp_path / "m" / "v.bin").unlink()
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "m")

    def test_one_file_per_array_plus_manifest(self, tmp_path):
        out = save_model(tmp_path / "m", "x", {},
                         {"a": np.zeros(2), "b": np.ones((2, 2))})
        names = sorted(p.name for p in out.iterdir())
        assert names == ["a.bin", "b.bin", "manifest.json"]


@pytest.mark.parametrize("damage", ["truncated", "padded"])
@pytest.mark.parametrize("target", ["model", "corpus"])
def test_array_file_length_checked(tmp_path, capsys, target, damage):
    corpus = demo_corpus()
    dirs = {"corpus": save_corpus(corpus, tmp_path / "corpus"),
            "model": save_fitted(train_model(corpus, "tfidf"), tmp_path / "model")}
    name = {"model": "idf.bin", "corpus": "doc_ids.bin"}[target]
    path = dirs[target] / name
    blob = path.read_bytes()
    path.write_bytes(blob[:-8] if damage == "truncated" else blob + b"\0" * 8)
    held = len(blob) - 8 if damage == "truncated" else len(blob) + 8
    message = f"{name} holds {held} bytes; its manifest entry needs {len(blob)}"
    load = {"model": load_fitted, "corpus": load_corpus}[target]
    with pytest.raises(ValueError, match=message):
        load(dirs[target])
    out = tmp_path / "scores.bin"
    code = cli.main(["score", "--corpus", str(dirs["corpus"]),
                     "--model", str(dirs["model"]), "--out", str(out)])
    assert code == 2 and message in capsys.readouterr().err
    assert not out.exists()


class TestScoreFiles:
    def make_matrix(self, seed=0, n_queries=4, n_docs=6):
        rng = np.random.default_rng(seed)
        return ScoreMatrix(tag="keyword",
                           scores=rng.random((n_queries, n_docs)),
                           query_ids=np.arange(1, n_queries + 1),
                           doc_ids=np.arange(101, 101 + n_docs))

    def test_binary_roundtrip_is_bitwise(self, tmp_path):
        matrix = self.make_matrix()
        save_scores(tmp_path / "scores.bin", matrix)
        loaded = load_scores(tmp_path / "scores.bin")
        assert loaded.tag == "keyword"
        np.testing.assert_array_equal(loaded.scores, matrix.scores)
        np.testing.assert_array_equal(loaded.query_ids, matrix.query_ids)
        np.testing.assert_array_equal(loaded.doc_ids, matrix.doc_ids)

    def test_binary_layout_is_header_line_then_payload(self, tmp_path):
        matrix = self.make_matrix()
        path = save_scores(tmp_path / "scores.bin", matrix)
        blob = path.read_bytes()
        header, payload = blob.split(b"\n", 1)
        doc = json.loads(header)
        assert doc["tag"] == "keyword" and doc["dtype"] == "<f8"
        assert len(payload) == 8 * matrix.scores.size

    def test_csv_roundtrip_is_exact(self, tmp_path):
        matrix = self.make_matrix(seed=3)
        save_scores(tmp_path / "keyword.csv", matrix)
        loaded = load_scores(tmp_path / "keyword.csv")
        # repr of a float parses back to the identical value
        np.testing.assert_array_equal(loaded.scores, matrix.scores)
        np.testing.assert_array_equal(loaded.query_ids, matrix.query_ids)
        np.testing.assert_array_equal(loaded.doc_ids, matrix.doc_ids)

    def test_csv_tag_comes_from_filename(self, tmp_path):
        save_scores(tmp_path / "other_name.csv", self.make_matrix())
        assert load_scores(tmp_path / "other_name.csv").tag == "other_name"

    def test_csv_is_readable_text(self, tmp_path):
        matrix = self.make_matrix(n_queries=2, n_docs=2)
        path = save_scores(tmp_path / "s.csv", matrix)
        lines = path.read_text().splitlines()
        assert lines[0] == "query,101,102"
        assert len(lines) == 3 and lines[1].startswith("1,")

    def test_binary_version_gate(self, tmp_path):
        header = {"bundle_version": 99, "tag": "x", "query_ids": [1],
                  "doc_ids": [1], "dtype": "<f8"}
        path = tmp_path / "bad.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 8)
        with pytest.raises(ValueError, match="version"):
            load_scores(path)

    @pytest.mark.parametrize("damage", ["truncated", "padded", "csv-short-row",
                                        "csv-long-row"])
    def test_payload_length_checked(self, tmp_path, damage):
        if damage.startswith("csv"):
            path = save_scores(tmp_path / "s.csv", self.make_matrix())
            lines = path.read_text().splitlines()
            # the third query's row sits on line 4, after the header
            lines[3] = (lines[3].rsplit(",", 1)[0] if damage == "csv-short-row"
                        else lines[3] + ",0.5")
            path.write_text("\n".join(lines) + "\n")
            held = 5 if damage == "csv-short-row" else 7
            with pytest.raises(ValueError,
                               match=f"s.csv line 4 holds {held} scores.*6 doc ids"):
                load_scores(path)
            return
        path = save_scores(tmp_path / "s.bin", self.make_matrix())
        blob = path.read_bytes()
        # 4 x 6 float64 scores make a 192-byte payload
        path.write_bytes(blob[:-8] if damage == "truncated" else blob + b"\0" * 8)
        held = 184 if damage == "truncated" else 200
        with pytest.raises(ValueError, match=f"holds {held} payload bytes.*need 192"):
            load_scores(path)

    def test_parent_directories_created(self, tmp_path):
        deep = tmp_path / "a" / "b" / "scores.bin"
        save_scores(deep, self.make_matrix())
        assert deep.exists()

    def test_empty_query_set_roundtrips(self, tmp_path):
        matrix = ScoreMatrix(tag="x", scores=np.zeros((0, 3)),
                             query_ids=np.zeros(0, dtype=np.int64),
                             doc_ids=np.array([1, 2, 3]))
        save_scores(tmp_path / "s.bin", matrix)
        loaded = load_scores(tmp_path / "s.bin")
        assert loaded.scores.shape == (0, 3)
