import dataclasses
import errno
import fcntl
import hashlib
import io
import json
import math
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import edit_header
from ldikit import bundle, cli
from ldikit.bundle import load_model, load_scores, save_model, save_scores
from ldikit.corpus import load_corpus, save_corpus
from ldikit.demo import demo_corpus
from ldikit.ensemble import ScoreMatrix
from ldikit.pipeline import load_fitted, save_fitted, train_model


def header_and_payload(path):
    header, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(header), payload


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
        assert list(tmp_path.iterdir()) == []

    def test_version_gate(self, tmp_path):
        save_model(tmp_path / "m", "x", {}, {"v": np.zeros(2)})
        edit_header(tmp_path / "m", bundle_version=99)
        with pytest.raises(ValueError, match="bundle version 99"):
            load_model(tmp_path / "m")

    def test_missing_array_fails(self, tmp_path):
        path = save_model(tmp_path / "m", "x", {},
                          {"v": np.zeros(2), "w": np.ones(3)})
        path.write_bytes(path.read_bytes()[:-24])
        with pytest.raises(ValueError, match="holds 16 payload bytes.*need 40"):
            load_model(path)

    def test_one_file_per_bundle(self, tmp_path):
        a, b = np.arange(2.0), np.ones((2, 2))
        counts = sp.csr_matrix(np.array([[0, 3], [4, 0]]))
        out = save_model(tmp_path / "m", "x", {"k": 2},
                         {"a": a, "b": b, "counts": counts})
        assert list(tmp_path.iterdir()) == [out]
        header, payload = header_and_payload(out)
        assert header == {
            "bundle_version": 2, "kind": "x", "k": 2,
            "sparse": {"counts": [2, 2]}, "arrays": {
                "a": {"shape": [2], "dtype": "<f8"},
                "b": {"shape": [2, 2], "dtype": "<f8"},
                "counts.data": {"shape": [2], "dtype": "<i8"},
                "counts.indices": {"shape": [2], "dtype": "<i8"},
                "counts.indptr": {"shape": [3], "dtype": "<i8"}}}
        assert b" " not in out.read_bytes().split(b"\n", 1)[0]
        stored = (a, b, counts.data.astype("<i8"),
                  counts.indices.astype("<i8"), counts.indptr.astype("<i8"))
        assert payload == b"".join(x.tobytes() for x in stored)

    def test_digests_are_the_stored_bytes_sha256(self, tmp_path):
        counts = sp.csr_matrix(np.array([[0, 3], [4, 0]]))
        out = save_model(tmp_path / "m", "x", {},
                         {"a": np.arange(3.0), "counts": counts},
                         digests=True)
        header, payload = header_and_payload(out)
        offset = 0
        for entry in header["arrays"].values():
            size = 8 * math.prod(entry["shape"])
            assert entry["sha256"] == hashlib.sha256(
                payload[offset:offset + size]).hexdigest()
            offset += size
        assert offset == len(payload)

    def test_named_arrays_are_read_alone_and_verified(self, tmp_path):
        counts = sp.csr_matrix(np.array([[0, 3], [4, 0], [0, 5]]))
        out = save_model(tmp_path / "m", "x", {"k": 2},
                         {"a": np.arange(3.0), "counts": counts,
                          "ids": np.array([5, 7, 9])}, digests=True)
        whole = load_model(out)[1]
        header, some = load_model(out, names=("counts", "ids"))
        assert header["k"] == 2 and set(some) == {"counts", "ids"}
        assert sp.issparse(some["counts"])
        assert (some["counts"] != whole["counts"]).nnz == 0
        np.testing.assert_array_equal(some["ids"], whole["ids"])
        # damage to an array that is not read goes unseen
        blob = bytearray(out.read_bytes())
        blob[blob.index(b"\n") + 1] ^= 0x01        # the first byte of "a"
        out.write_bytes(bytes(blob))
        np.testing.assert_array_equal(load_model(out, names=("ids",))[1]["ids"],
                                      whole["ids"])
        with pytest.raises(ValueError, match="array 'a' .*checksum"):
            load_model(out, names=("a",))

    def test_named_read_needs_a_stored_digest(self, tmp_path):
        plain = save_model(tmp_path / "m", "x", {}, {"v": np.zeros(2)})
        with pytest.raises(ValueError, match="records no sha256 of its 'v'"):
            load_model(plain, names=("v",))
        hashed = save_model(tmp_path / "h", "x", {}, {"v": np.zeros(2)},
                            digests=True)
        with pytest.raises(ValueError, match="holds no 'w' array"):
            load_model(hashed, names=("w",))

    def test_named_read_checks_the_payload_length(self, tmp_path):
        path = save_model(tmp_path / "m", "x", {},
                          {"v": np.zeros(2), "w": np.ones(3)}, digests=True)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="holds 32 payload bytes.*need 40"):
            load_model(path, names=("v",))

    def test_other_kind_rejected(self, tmp_path):
        save_model(tmp_path / "m", "lsi", {}, {"v": np.zeros(2)})
        with pytest.raises(ValueError, match="'lsi' bundle, not a 'corpus'"):
            load_model(tmp_path / "m", "corpus")

    @pytest.mark.parametrize("garble", ["not json", "no newline", "a list"])
    def test_garbled_header_rejected(self, tmp_path, garble):
        path = save_model(tmp_path / "m", "x", {}, {"v": np.zeros(2)})
        header, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes({"not json": b"{" + header[2:] + b"\n" + payload,
                          "no newline": header[:-1],
                          "a list": b"[2]\n" + payload}[garble])
        with pytest.raises(ValueError):
            load_model(path)


@pytest.mark.parametrize("damage", ["truncated", "padded"])
@pytest.mark.parametrize("target", ["model", "corpus"])
def test_array_file_length_checked(tmp_path, capsys, target, damage):
    corpus = demo_corpus()
    paths = {"corpus": save_corpus(corpus, tmp_path / "corpus"),
             "model": save_fitted(train_model(corpus, "tfidf"), tmp_path / "model")}
    path = paths[target]
    blob = path.read_bytes()
    need = len(blob) - blob.index(b"\n") - 1
    path.write_bytes(blob[:-8] if damage == "truncated" else blob + b"\0" * 8)
    held = need - 8 if damage == "truncated" else need + 8
    message = (f"{target} holds {held} payload bytes; its header's arrays "
               f"need {need}")
    load = {"model": load_fitted, "corpus": load_corpus}[target]
    with pytest.raises(ValueError, match=message):
        load(path)
    out = tmp_path / "scores.bin"
    code = cli.main(["score", "--corpus", str(paths["corpus"]),
                     "--model", str(paths["model"]), "--out", str(out)])
    assert code == 2 and message in capsys.readouterr().err
    assert not out.exists()


def score_matrix(seed=0, n_queries=4, n_docs=6, tag="keyword"):
    rng = np.random.default_rng(seed)
    return ScoreMatrix(tag=tag, scores=rng.random((n_queries, n_docs)),
                       query_ids=np.arange(1, n_queries + 1),
                       doc_ids=np.arange(101, 101 + n_docs))


class TestScoreFiles:
    def test_binary_roundtrip_is_bitwise(self, tmp_path):
        matrix = score_matrix()
        save_scores(tmp_path / "scores.bin", matrix)
        loaded = load_scores(tmp_path / "scores.bin")
        assert loaded.tag == "keyword"
        np.testing.assert_array_equal(loaded.scores, matrix.scores)
        np.testing.assert_array_equal(loaded.query_ids, matrix.query_ids)
        np.testing.assert_array_equal(loaded.doc_ids, matrix.doc_ids)

    def test_binary_layout_is_header_line_then_payload(self, tmp_path):
        matrix = score_matrix()
        path = save_scores(tmp_path / "scores.bin", matrix)
        header, payload = header_and_payload(path)
        assert header["kind"] == "scores" and header["tag"] == "keyword"
        assert list(header["arrays"]) == ["query_ids", "doc_ids", "scores"]
        assert header["arrays"]["scores"] == {"shape": [4, 6], "dtype": "<f8"}
        assert payload == (matrix.query_ids.astype("<i8").tobytes()
                           + matrix.doc_ids.astype("<i8").tobytes()
                           + matrix.scores.tobytes())

    def test_binary_version_gate(self, tmp_path):
        # a version-1 score file: the ids in the header, then the scores
        header = {"bundle_version": 1, "tag": "x", "query_ids": [1],
                  "doc_ids": [1], "dtype": "<f8"}
        path = tmp_path / "bad.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 8)
        with pytest.raises(ValueError,
                           match="bundle version 1.*rebuild it with `ldikit score`"):
            load_scores(path)

    @pytest.mark.parametrize("damage", ["truncated", "padded"])
    def test_payload_length_checked(self, tmp_path, damage):
        path = save_scores(tmp_path / "s.bin", score_matrix())
        blob = path.read_bytes()
        # 4 query ids, 6 doc ids and 4 x 6 scores, 8 bytes each
        path.write_bytes(blob[:-8] if damage == "truncated" else blob + b"\0" * 8)
        held = 264 if damage == "truncated" else 280
        with pytest.raises(ValueError, match=f"holds {held} payload bytes.*need 272"):
            load_scores(path)

    def test_parent_directories_created(self, tmp_path):
        deep = tmp_path / "a" / "b" / "scores.bin"
        save_scores(deep, score_matrix())
        assert deep.exists()

    def test_empty_query_set_roundtrips(self, tmp_path):
        matrix = ScoreMatrix(tag="x", scores=np.zeros((0, 3)),
                             query_ids=np.zeros(0, dtype=np.int64),
                             doc_ids=np.array([1, 2, 3]))
        save_scores(tmp_path / "s.bin", matrix)
        loaded = load_scores(tmp_path / "s.bin")
        assert loaded.scores.shape == (0, 3)


# Two different artifacts of each kind (by ``version``), their writers and
# readers; the readers return something comparable with ==.
ARTIFACTS = {
    "corpus": (
        lambda path, version: save_corpus(
            dataclasses.replace(demo_corpus(), name=f"demo{version}"), path),
        lambda path: load_corpus(path).name),
    "model": (
        lambda path, version: save_fitted(
            train_model(demo_corpus(), "lsi", k=2, seed=version), path),
        lambda path: load_fitted(path).seed),
    "scores": (
        lambda path, version: save_scores(path, score_matrix(seed=version)),
        lambda path: load_scores(path).scores.tobytes()),
}


class _CutFile(io.FileIO):
    """A file that takes ``limit`` bytes, then fails partway through the
    write that would pass it."""

    limit = 0

    def write(self, data):
        data = memoryview(data).cast("B")
        room = self.limit - self.tell()
        if len(data) <= room:
            return super().write(data)
        super().write(data[:room])
        raise OSError(errno.ENOSPC, "no space left on device")


@pytest.mark.parametrize("kind", list(ARTIFACTS))
class TestReplacedWhole:
    def test_interrupted_save_keeps_the_old_artifact(self, tmp_path,
                                                     monkeypatch, kind):
        save, load = ARTIFACTS[kind]
        path = save(tmp_path / "out" / kind, 1)
        before, loaded = path.read_bytes(), load(path)
        # cut the new artifact halfway through its payload
        new = save(tmp_path / "new" / kind, 2).read_bytes()
        header_bytes = new.index(b"\n") + 1
        monkeypatch.setattr(_CutFile, "limit",
                            header_bytes + (len(new) - header_bytes) // 2)
        monkeypatch.setattr(bundle, "open",
                            lambda file, mode: _CutFile(file, mode),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            save(path, 2)
        assert list(path.parent.iterdir()) == [path]
        assert path.read_bytes() == before and load(path) == loaded

    def test_save_leaves_one_file(self, tmp_path, kind):
        save, load = ARTIFACTS[kind]
        path = tmp_path / kind
        save(path, 1)
        assert list(tmp_path.iterdir()) == [path]
        first = load(path)
        save(path, 2)
        assert list(tmp_path.iterdir()) == [path]
        assert load(path) != first

    def test_symlinked_target_is_written_through(self, tmp_path, kind):
        save, load = ARTIFACTS[kind]
        real = save(tmp_path / "real" / kind, 1)
        link = tmp_path / kind
        link.symlink_to(real)
        expected = load(save(tmp_path / "new" / kind, 2))
        save(link, 2)
        assert link.is_symlink() and load(real) == expected
        assert list(real.parent.iterdir()) == [real]

    def test_directory_target_is_refused(self, tmp_path, kind):
        save, _ = ARTIFACTS[kind]
        path = tmp_path / kind
        (path / "inside").mkdir(parents=True)
        with pytest.raises(IsADirectoryError, match="refusing to replace"):
            save(path, 1)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert [p.name for p in path.iterdir()] == ["inside"]


class TestStaleTemps:
    """A save killed inside ``replacing`` leaves its temp sibling behind;
    the next save to that target removes it, unless its writer still holds
    it locked."""

    def test_unlocked_temp_is_removed_and_the_rest_kept(self, tmp_path):
        stale = tmp_path / ".m.4242-0123abcd"
        stale.write_bytes(b"partial")
        live = tmp_path / ".m.4243-89abcdef"
        kept = [".m.notes", ".m.4242-0123abcz", ".m.4242-0123abcd.x",
                ".mm.4242-0123abcd", ".n.4242-0123abcd", "m.4242-0123abcd",
                ".m.4242-0123abc"]
        for name in kept:
            (tmp_path / name).write_bytes(b"keep")
        with open(live, "wb") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            path = save_scores(tmp_path / "m", score_matrix())
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [path.name, live.name, *kept])
        assert all((tmp_path / name).read_bytes() == b"keep" for name in kept)

    def test_killed_save_is_cleaned_up_by_the_next(self, tmp_path):
        path = tmp_path / "m"
        writer_code = (
            "import sys, time\n"
            "from ldikit import bundle\n"
            "with bundle.replacing(sys.argv[1]) as fh:\n"
            "    fh.write(b'partial')\n"
            "    fh.flush()\n"
            "    print('writing', flush=True)\n"
            "    time.sleep(60)\n")
        src = str(Path(bundle.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        writer = subprocess.Popen([sys.executable, "-c", writer_code,
                                   str(path)], stdout=subprocess.PIPE, env=env)
        try:
            ready, _, _ = select.select([writer.stdout], [], [], 60)
            assert ready and writer.stdout.readline() == b"writing\n"
            [temp] = tmp_path.iterdir()
            # the writer is live: its temp stays
            save_scores(path, score_matrix(seed=1))
            assert sorted(tmp_path.iterdir()) == sorted([path, temp])
        finally:
            writer.kill()
            writer.stdout.close()
            writer.wait(timeout=30)
        assert writer.returncode == -signal.SIGKILL
        assert temp.read_bytes() == b"partial"
        save_scores(path, score_matrix(seed=2))
        assert list(tmp_path.iterdir()) == [path]
        assert load_scores(path).scores.tobytes() == \
            score_matrix(seed=2).scores.tobytes()
