import ast
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import edit_header, traced_peak
from oracles import loop_checksum, whole_weighted_sum
from ldikit import bundle, cli, metrics, pipeline
from ldikit.bundle import load_model, load_scores, save_scores
from ldikit.config import OUT_DIR_ENV
from ldikit.corpus import load_corpus, save_corpus
from ldikit.ensemble import ScoreMatrix

DOCS = """\
.I 1
.T
Enzyme kinetics in cardiac muscle
.W
Enzyme levels rise when cardiac muscle suffers damage.
.I 2
.T
Serum enzyme assays
.W
Serum assays measure enzyme levels after cardiac damage.
.I 3
.W
Muscle proteins and serum markers signal cardiac injury.
.I 4
.T
Comet orbits
.W
A comet follows an eccentric orbit around the sun.
.I 5
.W
Planet orbits stay nearly circular; a planet rarely meets a comet.
.I 6
.W
The sun dominates every orbit in the planetary system.
"""

QUERIES = """\
.I 1
.W
cardiac enzyme damage
.I 2
.W
serum enzyme levels
.I 3
.W
comet orbit
.I 4
.W
planet orbits around the sun
"""

QRELS = """\
1 1
1 2
2 2
2 3
3 4
3 5
4 5
4 6
"""


def four_score_files(directory):
    """Four aligned 200 x 1,000 score files, tagged w0..w3, and their
    matrices."""
    rng = np.random.default_rng(41)
    paths, parts = [], []
    for i in range(4):
        parts.append(rng.normal(size=(200, 1000)))
        paths.append(save_scores(directory / f"w{i}.bin", ScoreMatrix(
            f"w{i}", parts[-1], np.arange(200) + 1, np.arange(1000))))
    return paths, parts


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Raw files, a built corpus, two trained models and their score files."""
    root = tmp_path_factory.mktemp("cli")
    docs = root / "toy.all"
    queries = root / "toy.qry"
    qrels = root / "toy.rel"
    docs.write_text(DOCS)
    queries.write_text(QUERIES)
    qrels.write_text(QRELS)

    corpus_dir = root / "corpus"
    spec = f"toy={docs},{queries},{qrels}"
    assert cli.main(["corpus", "build", "--spec", spec,
                     "--out", str(corpus_dir)]) == 0

    tfidf_dir = root / "model-tfidf"
    lda_dir = root / "model-lda"
    assert cli.main(["train", "--corpus", str(corpus_dir),
                     "--method", "tfidf", "--out", str(tfidf_dir)]) == 0
    assert cli.main(["train", "--corpus", str(corpus_dir), "--method", "lda",
                     "--k", "2", "--seed", "0", "--out", str(lda_dir)]) == 0

    tfidf_scores = root / "tfidf.bin"
    lda_scores = root / "lda.bin"
    assert cli.main(["score", "--corpus", str(corpus_dir),
                     "--model", str(tfidf_dir),
                     "--out", str(tfidf_scores)]) == 0
    assert cli.main(["score", "--corpus", str(corpus_dir),
                     "--model", str(lda_dir), "--out", str(lda_scores)]) == 0

    return {"root": root, "spec": spec, "corpus": corpus_dir,
            "tfidf_model": tfidf_dir, "lda_model": lda_dir,
            "tfidf_scores": tfidf_scores, "lda_scores": lda_scores,
            "docs": docs, "queries": queries, "qrels": qrels}


class TestCorpusBuild:
    def test_reports_collection_sizes(self, ws, tmp_path, capsys):
        code, out, _ = run(capsys, ["corpus", "build", "--spec", ws["spec"],
                                    "--out", str(tmp_path / "c")])
        assert code == 0
        assert "6 documents" in out and "4 queries" in out

    def test_merging_two_specs(self, ws, tmp_path, capsys):
        spec2 = f"again={ws['docs']},{ws['queries']},{ws['qrels']}"
        code, out, _ = run(capsys, ["corpus", "build", "--spec", ws["spec"],
                                    "--spec", spec2, "--name", "both",
                                    "--out", str(tmp_path / "c")])
        assert code == 0
        assert "12 documents" in out and "8 queries" in out
        assert load_corpus(tmp_path / "c").name == "both"

    def test_no_stoplist_grows_vocabulary(self, ws, tmp_path, capsys):
        code, _, _ = run(capsys, ["corpus", "build", "--spec", ws["spec"],
                                  "--no-stoplist", "--out", str(tmp_path / "c")])
        assert code == 0
        plain = load_corpus(ws["corpus"])
        grown = load_corpus(tmp_path / "c")
        assert grown.n_terms > plain.n_terms
        assert "the" in grown.vocabulary and "the" not in plain.vocabulary

    def test_custom_stoplist_drops_terms(self, ws, tmp_path, capsys):
        stoplist = tmp_path / "stop.txt"
        stoplist.write_text("enzyme\n")
        code, _, _ = run(capsys, ["corpus", "build", "--spec", ws["spec"],
                                  "--stoplist", str(stoplist),
                                  "--out", str(tmp_path / "c")])
        assert code == 0
        assert "enzyme" not in load_corpus(tmp_path / "c").vocabulary

    def test_malformed_spec_is_usage_error(self, ws, tmp_path, capsys):
        code, _, err = run(capsys, ["corpus", "build", "--spec", "toy=a,b",
                                    "--out", str(tmp_path / "c")])
        assert code == 1
        assert "usage error" in err

    def test_missing_input_file_is_data_error(self, ws, tmp_path, capsys):
        spec = f"toy={ws['root'] / 'absent.all'},{ws['queries']},{ws['qrels']}"
        code, _, err = run(capsys, ["corpus", "build", "--spec", spec,
                                    "--out", str(tmp_path / "c")])
        assert code == 2
        assert "data error" in err


class TestTrainAndScore:
    def test_artifacts_exist(self, ws):
        assert load_model(ws["tfidf_model"])[0]["kind"] == "tfidf"
        assert load_model(ws["lda_model"])[0]["kind"] == "lda"
        matrix = load_scores(ws["tfidf_scores"])
        assert matrix.scores.shape == (4, 6)

    def test_topic_method_without_k_is_data_error(self, ws, tmp_path, capsys):
        code, _, err = run(capsys, ["train", "--corpus", str(ws["corpus"]),
                                    "--method", "lsi",
                                    "--out", str(tmp_path / "m")])
        assert code == 2
        assert "topic count" in err

    def test_unknown_method_is_data_error(self, ws, tmp_path, capsys):
        code, _, err = run(capsys, ["train", "--corpus", str(ws["corpus"]),
                                    "--method", "bm25",
                                    "--out", str(tmp_path / "m")])
        assert code == 2
        assert "unknown method" in err

    def test_scoring_against_other_corpus_is_data_error(self, ws, tmp_path,
                                                        capsys):
        code, _, _ = run(capsys, ["corpus", "build", "--spec", ws["spec"],
                                  "--no-stoplist", "--out", str(tmp_path / "c")])
        assert code == 0
        code, _, err = run(capsys, ["score", "--corpus", str(tmp_path / "c"),
                                    "--model", str(ws["tfidf_model"]),
                                    "--out", str(tmp_path / "s.bin")])
        assert code == 2
        assert "content hash" in err

    @pytest.mark.parametrize("method", ["tfidf", "lsi", "plsi", "lda"])
    def test_zero_topics_fails_before_reading(self, tmp_path, capsys, method):
        # the corpus is missing: a data error (2) would mean it was read
        # before --k was checked
        code, _, err = run(capsys, ["train", "--corpus", str(tmp_path / "absent"),
                                    "--method", method, "--k", "0",
                                    "--out", str(tmp_path / "m")])
        assert code == 1 and "usage error" in err and "--k" in err

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_fails_before_reading(self, tmp_path, capsys, seed):
        code, _, err = run(capsys, ["train", "--corpus", str(tmp_path / "absent"),
                                    "--method", "lsi", "--k", "2",
                                    "--seed", seed, "--out", str(tmp_path / "m")])
        assert code == 1 and "usage error" in err and "--seed" in err

    def test_precision_tuning_flag_is_unknown(self, ws, tmp_path, capsys):
        code, _, err = run(capsys, ["train", "--corpus", str(ws["corpus"]),
                                    "--method", "plsi", "--k", "2",
                                    "--tune-by-precision",
                                    "--out", str(tmp_path / "m")])
        assert code == 1 and "usage error" in err
        assert "--tune-by-precision" in err
        assert not (tmp_path / "m").exists()

    def test_missing_required_flag_is_usage_error(self, ws, capsys):
        code, _, err = run(capsys, ["train", "--corpus", str(ws["corpus"])])
        assert code == 1
        assert "usage error" in err


class TestEval:
    def test_prints_map_and_curve(self, ws, capsys):
        code, out, _ = run(capsys, ["eval", "--corpus", str(ws["corpus"]),
                                    "--scores", str(ws["tfidf_scores"])])
        assert code == 0
        assert "MAP" in out and "4 judged queries" in out
        curve_line = [l for l in out.splitlines()
                      if l.startswith("interpolated precision:")][0]
        assert len(curve_line.split()) == 2 + 11

    def test_writes_report_json(self, ws, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, ["eval", "--corpus", str(ws["corpus"]),
                                  "--scores", str(ws["tfidf_scores"]),
                                  "--out", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert set(doc) == {"map", "recall_levels", "interpolated_precision",
                            "per_query_ap", "skipped_queries"}
        assert len(doc["interpolated_precision"]) == 11
        assert 0.0 < doc["map"] <= 1.0

    @pytest.mark.parametrize("damage", ["truncated", "padded"])
    def test_wrong_length_score_file_is_data_error(self, ws, tmp_path, capsys,
                                                   damage):
        blob = ws["tfidf_scores"].read_bytes()
        damaged = tmp_path / "damaged.bin"
        damaged.write_bytes(blob[:-1] if damage == "truncated" else blob + b"\0")
        code, _, err = run(capsys, ["eval", "--corpus", str(ws["corpus"]),
                                    "--scores", str(damaged)])
        assert code == 2
        assert "data error" in err and "payload bytes" in err

    def test_missing_score_file_is_data_error(self, ws, tmp_path, capsys):
        code, _, err = run(capsys, ["eval", "--corpus", str(ws["corpus"]),
                                    "--scores", str(tmp_path / "absent.bin")])
        assert code == 2
        assert "data error" in err


class TestDirectoriesAndOldBundles:
    """A directory where a file belongs, or a bundle from before bundle
    version 2, is a data error (exit 2) that names the command to run."""

    @staticmethod
    def old_bundle(tmp_path, kind):
        # bundle version 1 kept a model or corpus as a directory
        path = tmp_path / kind
        path.mkdir()
        (path / "manifest.json").write_text(
            json.dumps({"bundle_version": 1, "kind": kind}))
        return path

    def test_corpus_bundle_directory(self, tmp_path, capsys):
        code, _, err = run(capsys, [
            "train", "--corpus", str(self.old_bundle(tmp_path, "corpus")),
            "--method", "tfidf", "--out", str(tmp_path / "m")])
        assert code == 2 and "data error" in err
        assert "rebuild it with `ldikit corpus build`" in err
        assert not (tmp_path / "m").exists()

    def test_model_bundle_directory(self, ws, tmp_path, capsys):
        code, _, err = run(capsys, [
            "score", "--corpus", str(ws["corpus"]),
            "--model", str(self.old_bundle(tmp_path, "lsi")),
            "--out", str(tmp_path / "s.bin")])
        assert code == 2 and "data error" in err
        assert "rebuild it with `ldikit train`" in err
        assert not (tmp_path / "s.bin").exists()

    def test_version_1_score_file(self, ws, tmp_path, capsys):
        # version 1 put the ids in the header line, then the scores
        path = tmp_path / "old.bin"
        header = {"bundle_version": 1, "tag": "tfidf",
                  "query_ids": [1, 2, 3, 4], "doc_ids": [1, 2, 3, 4, 5, 6],
                  "dtype": "<f8"}
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\0" * 192)
        code, _, err = run(capsys, ["eval", "--corpus", str(ws["corpus"]),
                                    "--scores", str(path)])
        assert code == 2 and "data error" in err
        assert "rebuild it with `ldikit score`" in err

    @pytest.mark.parametrize("suffix", ["", ".bin"])
    def test_score_directory(self, ws, tmp_path, capsys, suffix):
        path = tmp_path / f"scores{suffix}"
        path.mkdir()
        code, _, err = run(capsys, ["eval", "--corpus", str(ws["corpus"]),
                                    "--scores", str(path)])
        assert code == 2 and "data error" in err

    def test_file_in_place_of_an_output_directory(self, ws, tmp_path,
                                                  capsys):
        (tmp_path / "afile").write_text("kept")
        code, _, err = run(capsys, [
            "score", "--corpus", str(ws["corpus"]),
            "--model", str(ws["tfidf_model"]),
            "--out", str(tmp_path / "afile" / "s.bin")])
        assert code == 2 and "data error" in err
        assert (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize("command", [
        ["corpus", "build", "--spec", "{spec}"],
        ["train", "--corpus", "{corpus}", "--method", "tfidf"],
        ["score", "--corpus", "{corpus}", "--model", "{tfidf_model}"],
        ["eval", "--corpus", "{corpus}", "--scores", "{tfidf_scores}"],
        ["ensemble", "train", "--corpus", "{corpus}", "--scores",
         "{tfidf_scores}", "{lda_scores}"],
        ["ensemble", "apply", "--scores", "{tfidf_scores}", "--uniform"],
        ["ensemble", "crossval", "--corpus", "{corpus}", "--scores",
         "{tfidf_scores}", "{lda_scores}"],
        ["sweep", "--corpus", "{corpus}", "--method", "tfidf", "--ks", "1"],
    ], ids=["corpus-build", "train", "score", "eval", "ensemble-train",
            "ensemble-apply", "ensemble-crossval", "sweep"])
    def test_directory_target_is_never_replaced(self, ws, tmp_path, capsys,
                                                command):
        target = tmp_path / "target"
        (target / "kept").mkdir(parents=True)
        argv = [a.format(**ws) for a in command] + ["--out", str(target)]
        code, _, err = run(capsys, argv)
        assert code == 2 and "data error" in err
        assert f"refusing to replace directory {target}" in err
        assert [p.name for p in tmp_path.iterdir()] == ["target"]
        assert [p.name for p in target.iterdir()] == ["kept"]


class TestEnsembleCommands:
    def test_train_apply_crossval_chain(self, ws, tmp_path, capsys):
        weights_path = tmp_path / "weights.json"
        code, out, _ = run(capsys, [
            "ensemble", "train", "--corpus", str(ws["corpus"]),
            "--scores", str(ws["tfidf_scores"]), str(ws["lda_scores"]),
            "--out", str(weights_path)])
        assert code == 0
        assert "train MAP" in out
        doc = json.loads(weights_path.read_text())
        assert doc["tags"] == ["tfidf", "lda"]
        assert len(doc["alpha"]) == 2
        assert doc["rounds"][0]["round"] == 1

        combined_path = tmp_path / "combined.bin"
        code, _, _ = run(capsys, [
            "ensemble", "apply", "--scores", str(ws["tfidf_scores"]),
            str(ws["lda_scores"]), "--weights", str(weights_path),
            "--out", str(combined_path)])
        assert code == 0
        combined = load_scores(combined_path)
        parts = [load_scores(ws["tfidf_scores"]), load_scores(ws["lda_scores"])]
        expected = sum(a * m.scores for a, m in zip(doc["alpha"], parts))
        np.testing.assert_allclose(combined.scores, expected, rtol=1e-12)

        report_path = tmp_path / "crossval.json"
        code, out, _ = run(capsys, [
            "ensemble", "crossval", "--corpus", str(ws["corpus"]),
            "--scores", str(ws["tfidf_scores"]), str(ws["lda_scores"]),
            "--folds", "2", "--out", str(report_path)])
        assert code == 0
        assert "mean test MAP" in out
        cross = json.loads(report_path.read_text())
        assert len(cross["folds"]) == 2
        assert set(cross["mean_constituent_test_maps"]) == {"tfidf", "lda"}

    def test_selection_flag_is_unknown(self, ws, tmp_path, capsys):
        code, _, err = run(capsys, [
            "ensemble", "train", "--corpus", str(ws["corpus"]),
            "--scores", str(ws["tfidf_scores"]), str(ws["lda_scores"]),
            "--selection", "weighted-ap", "--out", str(tmp_path / "w.json")])
        assert code == 1 and "usage error" in err
        assert "--selection" in err
        assert not (tmp_path / "w.json").exists()

    def test_apply_uniform(self, ws, tmp_path, capsys):
        out_path = tmp_path / "uniform.bin"
        code, _, _ = run(capsys, [
            "ensemble", "apply", "--scores", str(ws["tfidf_scores"]),
            str(ws["lda_scores"]), "--uniform", "--out", str(out_path)])
        assert code == 0
        parts = [load_scores(ws["tfidf_scores"]), load_scores(ws["lda_scores"])]
        expected = 0.5 * parts[0].scores + 0.5 * parts[1].scores
        np.testing.assert_allclose(load_scores(out_path).scores, expected,
                                   rtol=1e-12)

    def test_apply_needs_exactly_one_weight_source(self, ws, tmp_path, capsys):
        base = ["ensemble", "apply", "--scores", str(ws["tfidf_scores"]),
                "--out", str(tmp_path / "x.bin")]
        code, _, err = run(capsys, base)
        assert code == 1 and "usage error" in err
        weights_path = tmp_path / "w.json"
        weights_path.write_text(json.dumps({"tags": ["tfidf"], "alpha": [1.0]}))
        code, _, err = run(capsys, base + ["--uniform", "--weights",
                                           str(weights_path)])
        assert code == 1 and "usage error" in err

    @pytest.mark.parametrize("argv", [
        ["crossval", "--corpus", "{absent}", "--folds", "1"],
        ["crossval", "--corpus", "{absent}", "--folds", "0"],
        ["crossval", "--corpus", "{absent}", "--max-rounds", "0"],
        ["train", "--corpus", "{absent}", "--max-rounds", "0",
         "--out", "{absent}.json"],
        ["apply", "--out", "{absent}.bin"],
        ["crossval", "--corpus", "{absent}", "--seed", "-1"],
    ], ids=["folds-1", "folds-0", "crossval-rounds-0", "train-rounds-0",
            "apply-no-weight-source", "crossval-seed-negative"])
    def test_bad_counts_and_flags_fail_before_reading(self, tmp_path, capsys,
                                                      argv):
        # every input is missing: a data error (2) would mean a file was
        # read before the arguments were checked
        absent = str(tmp_path / "absent")
        argv = [a.format(absent=absent) for a in argv]
        code, _, err = run(capsys, ["ensemble", *argv[:1], "--scores", absent,
                                    *argv[1:]])
        assert code == 1 and "usage error" in err

    def test_apply_holds_the_sum_and_one_input(self, tmp_path, capsys):
        # four 200 x 1,000 inputs: each is loaded after the one before it
        # is released, and each weighted term is one block of rows
        paths, parts = four_score_files(tmp_path)
        weights = {"w0": 0.5, "w1": 1.25, "w2": 2.0, "w3": 0.125}
        weights_path = tmp_path / "weights.json"
        # looked up by tag, whatever the order
        weights_path.write_text(json.dumps({
            "tags": list(weights)[::-1],
            "alpha": list(weights.values())[::-1]}))
        out_path = tmp_path / "fused.bin"
        (code, _, _), peak = traced_peak(lambda: run(capsys, [
            "ensemble", "apply", "--scores", *map(str, paths),
            "--weights", str(weights_path), "--out", str(out_path)]))
        assert code == 0
        # the fused matrix, one input, one block of weighted terms, and an
        # allowance for the parser, the headers, the ids and the numpy
        # iterator's buffers
        matrix = parts[0].nbytes
        assert peak <= 2 * matrix + metrics.BLOCK_CELLS * 8 + (256 << 10)
        fused = load_scores(out_path)
        want = whole_weighted_sum(list(weights.values()), parts)
        assert fused.scores.tobytes() == want.tobytes()

    @pytest.mark.parametrize("damage, message", [
        ("ids", "w2: query ids differ from w0"),
        ("tag", "weights file lacks tags ['w1']"),
    ])
    def test_apply_error_leaves_no_file(self, tmp_path, capsys, damage,
                                        message):
        paths, parts = four_score_files(tmp_path)
        if damage == "ids":
            save_scores(paths[2], ScoreMatrix("w2", parts[2],
                                              np.arange(200) + 2,
                                              np.arange(1000)))
        tags = ["w0", "w2", "w3"] + (["w1"] if damage == "ids" else [])
        weights_path = tmp_path / "weights.json"
        weights_path.write_text(json.dumps({"tags": tags,
                                            "alpha": [1.0] * len(tags)}))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _, err = run(capsys, [
            "ensemble", "apply", "--scores", *map(str, paths), "--weights",
            str(weights_path), "--out", str(out_dir / "fused.bin")])
        assert code == 2 and f"data error: {message}" in err
        assert list(out_dir.iterdir()) == []

    def test_apply_rejects_unknown_tag(self, ws, tmp_path, capsys):
        weights_path = tmp_path / "w.json"
        weights_path.write_text(json.dumps({"tags": ["tfidf"], "alpha": [1.0]}))
        code, _, err = run(capsys, [
            "ensemble", "apply", "--scores", str(ws["lda_scores"]),
            "--weights", str(weights_path), "--out", str(tmp_path / "x.bin")])
        assert code == 2
        assert "lacks tags" in err

    @pytest.mark.parametrize("command", ["train", "crossval"])
    def test_repeated_tag_is_refused(self, ws, tmp_path, capsys, command):
        # two files tagged tfidf would share one weight and one report entry
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run(capsys, [
            "ensemble", command, "--corpus", str(ws["corpus"]), "--scores",
            str(ws["tfidf_scores"]), str(ws["tfidf_scores"]),
            str(ws["lda_scores"]), "--out", str(out / "report.json")])
        assert code == 2
        assert "data error: score files: tags ['tfidf'] repeat" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("doc, message", [
        ({"tags": ["tfidf", "lda", "tfidf"], "alpha": [1.0, 0.5, 2.0]},
         "tags ['tfidf'] repeat"),
        ({"tags": ["tfidf", "lda"], "alpha": [1.0]},
         "2 tags need as many finite alpha >= 0, not [1.0]"),
        ({"tags": ["tfidf", "lda"], "alpha": [1.0, 0.5, 0.25]},
         "2 tags need as many finite alpha >= 0, not [1.0, 0.5, 0.25]"),
        ({"tags": ["tfidf", "lda"], "alpha": [1.0, -0.5]},
         "2 tags need as many finite alpha >= 0, not [1.0, -0.5]"),
        ({"tags": ["tfidf", "lda"], "alpha": [1.0, float("inf")]},
         "2 tags need as many finite alpha >= 0, not [1.0, inf]"),
        ({"tags": ["tfidf", "lda"], "alpha": [float("nan"), 1.0]},
         "2 tags need as many finite alpha >= 0, not [nan, 1.0]"),
        ([1, 2], "needs an object whose tags are a list of strings"),
        ("fused", "needs an object whose tags are a list of strings"),
        (None, "needs an object whose tags are a list of strings"),
        ({"tags": 3, "alpha": [1.0]},
         "needs an object whose tags are a list of strings"),
        ({"tags": ["tfidf", 2], "alpha": [1.0, 1.0]},
         "needs an object whose tags are a list of strings"),
        ({"tags": ["tfidf", "lda"], "alpha": {"tfidf": 1.0}},
         "2 tags need as many finite alpha >= 0, not {'tfidf': 1.0}"),
    ], ids=["repeated-tag", "short-alpha", "long-alpha", "negative",
            "infinite", "nan", "list", "string", "null", "number-tags",
            "number-in-tags", "object-alpha"])
    def test_apply_refuses_malformed_weights(self, ws, tmp_path, capsys, doc,
                                             message):
        weights_path = tmp_path / "w.json"
        weights_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run(capsys, [
            "ensemble", "apply", "--scores", str(ws["tfidf_scores"]),
            str(ws["lda_scores"]), "--weights", str(weights_path),
            "--out", str(out / "fused.bin")])
        assert code == 2
        assert f"data error: weights file: {message}" in err
        assert list(out.iterdir()) == []

    def test_apply_uniform_takes_repeated_tags(self, ws, tmp_path, capsys):
        out_path = tmp_path / "uniform.bin"
        code, _, _ = run(capsys, [
            "ensemble", "apply", "--scores", str(ws["tfidf_scores"]),
            str(ws["tfidf_scores"]), "--uniform", "--out", str(out_path)])
        assert code == 0
        tfidf = load_scores(ws["tfidf_scores"]).scores
        np.testing.assert_allclose(load_scores(out_path).scores, tfidf,
                                   rtol=1e-12)


# every score-file argument, with a .csv path in it
CSV_SCORE_PATHS = {
    "score-out": ["score", "--corpus", "{corpus}", "--model", "{model}",
                  "--out", "{out}/tfidf.csv"],
    "apply-out": ["ensemble", "apply", "--scores", "{scores}", "{scores}",
                  "--uniform", "--out", "{out}/fused.csv"],
    "eval-scores": ["eval", "--corpus", "{corpus}", "--scores", "{csv}",
                    "--out", "{out}/report.json"],
    "train-scores": ["ensemble", "train", "--corpus", "{corpus}",
                     "--scores", "{scores}", "{csv}",
                     "--out", "{out}/weights.json"],
    "apply-scores": ["ensemble", "apply", "--scores", "{scores}", "{csv}",
                     "--uniform", "--out", "{out}/fused.bin"],
    "crossval-scores": ["ensemble", "crossval", "--corpus", "{corpus}",
                        "--scores", "{scores}", "{csv}",
                        "--out", "{out}/crossval.json"],
}


class TestScoreFilesAreBin:
    """A score file is a .bin bundle.  A .csv path given to any score-file
    argument is a usage error (exit 1), raised before any file is read."""

    @pytest.mark.parametrize("inputs", ["absent", "present"])
    @pytest.mark.parametrize("argument", list(CSV_SCORE_PATHS))
    def test_csv_score_path_is_refused(self, ws, tmp_path, capsys, argument,
                                       inputs):
        if inputs == "absent":
            # a data error (2) would mean an input was read first
            absent = tmp_path / "absent"
            paths = {"corpus": absent / "corpus", "model": absent / "model",
                     "scores": absent / "tfidf.bin", "csv": absent / "lda.csv"}
        else:
            # a score bundle under a .csv name, which would load if read
            csv = tmp_path / "in" / "lda.csv"
            csv.parent.mkdir()
            csv.write_bytes(ws["lda_scores"].read_bytes())
            paths = {"corpus": ws["corpus"], "model": ws["tfidf_model"],
                     "scores": ws["tfidf_scores"], "csv": csv}
        out = tmp_path / "out"
        out.mkdir()
        argv = [a.format(out=out, **paths) for a in CSV_SCORE_PATHS[argument]]
        code, _, err = run(capsys, argv)
        assert code == 1 and "usage error" in err
        assert "score files are .bin bundles, not .csv" in err
        # no output and no temp sibling of one
        assert list(out.iterdir()) == []


def payload_spans(path):
    """{stored array name: (offset, byte count)} of a bundle file."""
    blob = path.read_bytes()
    offset = blob.index(b"\n") + 1
    spans = {}
    for name, entry in json.loads(blob[:offset])["arrays"].items():
        spans[name] = (offset, 8 * math.prod(entry["shape"]))
        offset += spans[name][1]
    return spans


def stored_names(name):
    """The stored arrays of a corpus array: a CSR matrix's three parts."""
    if name in ("counts", "query_counts"):
        return [f"{name}.{part}" for part in ("data", "indices", "indptr")]
    return [name]


QUERY_SIDE = {"query_counts.data", "query_counts.indices",
              "query_counts.indptr", "query_ids", "doc_ids"}
DOC_COUNTS = {"counts.data", "counts.indices", "counts.indptr"}


class TestCorpusArraysPerCommand:
    """Commands that use part of a corpus bundle read and verify only that
    part: the judged pairs for eval and the ensemble commands, the query
    side (plus the document counts for lda) for score."""

    @pytest.fixture(scope="class")
    def runs(self, ws, tmp_path_factory):
        """Each command that reads part of the corpus: its argv without
        ``--corpus`` and ``--out``, and the stored arrays it reads, listed
        by hand (score once per method)."""
        root = tmp_path_factory.mktemp("partial")
        models = {"tfidf": ws["tfidf_model"], "lda": ws["lda_model"]}
        for method in ("lsi", "plsi"):
            models[method] = root / f"model-{method}"
            assert cli.main(["train", "--corpus", str(ws["corpus"]),
                             "--method", method, "--k", "2",
                             "--out", str(models[method])]) == 0
        scores = [str(ws["tfidf_scores"]), str(ws["lda_scores"])]
        runs = {
            "eval": (["eval", "--scores", scores[0]], {"qrels"}),
            "ensemble-train": (["ensemble", "train", "--scores", *scores],
                               {"qrels"}),
            "ensemble-crossval": (["ensemble", "crossval", "--scores",
                                   *scores], {"qrels"}),
        }
        for method, model in models.items():
            reads = QUERY_SIDE | (DOC_COUNTS if method == "lda" else set())
            runs[f"score-{method}"] = (
                ["score", "--model", str(model)], reads)
        return runs

    @staticmethod
    def run_on(capsys, argv, corpus, out):
        code, _, err = run(capsys, [*argv, "--corpus", str(corpus),
                                    "--out", str(out)])
        return code, err

    def test_declared_reads(self, runs):
        for method in pipeline.METHODS:
            assert {*pipeline.score_reads(method)} == (
                {"query_counts", "query_ids", "doc_ids"}
                | ({"counts"} if method == "lda" else set()))
            assert runs[f"score-{method}"][1] == {
                part for name in pipeline.score_reads(method)
                for part in stored_names(name)}

    @pytest.mark.parametrize("array", sorted(QUERY_SIDE | DOC_COUNTS
                                             | {"qrels"}))
    def test_flipped_byte_fails_exactly_the_commands_that_read_it(
            self, ws, runs, tmp_path, capsys, array):
        damaged = tmp_path / "corpus"
        blob = bytearray(ws["corpus"].read_bytes())
        offset, size = payload_spans(ws["corpus"])[array]
        # the low byte of the middle element
        blob[offset + 8 * (size // 16)] ^= 0x01
        damaged.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            load_corpus(damaged)
        for label, (argv, reads) in runs.items():
            intact_out, out = tmp_path / f"{label}-intact", tmp_path / label
            assert self.run_on(capsys, argv, ws["corpus"], intact_out)[0] == 0
            code, err = self.run_on(capsys, argv, damaged, out)
            if array in reads:
                assert code == 2 and "checksum" in err and array in err, label
                assert not out.exists()
            else:
                assert code == 0, (label, err)
                assert out.read_bytes() == intact_out.read_bytes(), label

    def test_each_command_verifies_its_declared_arrays(self, ws, runs,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        verified = []
        check = bundle._check_digest

        def spy(path, name, array, digest):
            verified.append(name)
            check(path, name, array, digest)
        monkeypatch.setattr(bundle, "_check_digest", spy)
        for label, (argv, _) in runs.items():
            verified.clear()
            code, err = self.run_on(capsys, argv, ws["corpus"],
                                    tmp_path / label)
            assert code == 0, err
            if label.startswith("score-"):
                declared = pipeline.score_reads(label.split("-")[1])
            else:
                declared = ("qrels",)
            assert sorted(verified) == sorted(
                part for name in declared
                for part in stored_names(name)), label

    def test_forged_content_hash_fails_every_command(self, ws, runs,
                                                      tmp_path, capsys):
        # the header claims the content hash of a copy whose first count
        # differs, while every array still matches its own sha256; a model
        # fitted on the copy must not score the forged bundle
        copy = load_corpus(ws["corpus"])
        copy.counts.matrix.data[0] += 1
        copy_path = save_corpus(copy, tmp_path / "copy")
        model = tmp_path / "model-copy"
        assert cli.main(["train", "--corpus", str(copy_path), "--method",
                         "lda", "--k", "2", "--seed", "0",
                         "--out", str(model)]) == 0
        forged = tmp_path / "forged"
        forged.write_bytes(ws["corpus"].read_bytes())
        edit_header(forged, checksum=load_model(copy_path)[0]["checksum"])
        commands = [("score-copy", (["score", "--model", str(model)], None)),
                    *runs.items()]
        for label, (argv, _) in commands:
            code, err = self.run_on(capsys, argv, forged, tmp_path / label)
            assert code == 2 and "checksum mismatch" in err, label
            assert not (tmp_path / label).exists()
        code, _, err = run(capsys, [
            "ldi", "inspect", "--corpus", str(forged),
            "--model", str(ws["lda_model"]), "--term", "enzyme"])
        assert code == 2 and "checksum mismatch" in err

    @pytest.mark.parametrize("digests", ["dropped", "kept"])
    def test_format_4_bundle_is_refused(self, ws, runs, tmp_path, capsys,
                                        digests):
        old = tmp_path / "corpus"
        old.write_bytes(ws["corpus"].read_bytes())
        header = json.loads(old.read_bytes().split(b"\n", 1)[0])
        entries = header["arrays"]
        if digests == "dropped":
            for entry in entries.values():
                del entry["sha256"]
        commands = [*runs.items(),
                    ("train", (["train", "--method", "tfidf"], None)),
                    ("sweep", (["sweep", "--method", "lsi", "--ks", "2"],
                               None))]
        # formats 4 and 5 stored the same arrays under the content hash
        # of the arrays' bytes, which the header then held
        corpus = load_corpus(ws["corpus"])
        judged = {}
        for query, doc in corpus.qrels.tolist():
            judged.setdefault(query, set()).add(doc)
        checksum = loop_checksum(corpus, judged, format_version=5)
        for version in (4, 5):
            edit_header(old, format_version=version, arrays=entries,
                        checksum=checksum)
            for label, (argv, _) in commands:
                code, err = self.run_on(capsys, argv, old, tmp_path / label)
                assert code == 2, (version, label)
                assert "ldikit corpus build" in err, (version, label)
                assert not (tmp_path / label).exists()
            code, _, err = run(capsys, [
                "ldi", "inspect", "--corpus", str(old),
                "--model", str(ws["lda_model"]), "--term", "enzyme"])
            assert code == 2 and "ldikit corpus build" in err, version


class TestSweep:
    def test_prints_and_writes_rows(self, ws, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        code, out, _ = run(capsys, ["sweep", "--corpus", str(ws["corpus"]),
                                    "--method", "lsi", "--ks", "2,3",
                                    "--seeds", "0", "--out", str(out_path)])
        assert code == 0
        assert "k=2" in out and "k=3" in out
        rows = json.loads(out_path.read_text())
        assert [r["k"] for r in rows] == [2, 3]

    @pytest.mark.parametrize("method", ["lsi", "plsi", "lda"])
    @pytest.mark.parametrize("ks", ["0", "2,0", "2,-1", ",", ""])
    def test_bad_topic_count_fails_before_reading(self, tmp_path, capsys,
                                                  method, ks):
        code, _, err = run(capsys, ["sweep", "--corpus", str(tmp_path / "absent"),
                                    "--method", method, "--ks", ks])
        assert code == 1 and "usage error" in err and "--ks" in err

    @pytest.mark.parametrize("seeds", ["x", "0,y", "-1", ",", ""])
    def test_bad_seeds_fail_before_reading(self, tmp_path, capsys, seeds):
        code, _, err = run(capsys, ["sweep", "--corpus", str(tmp_path / "absent"),
                                    "--method", "lsi", "--ks", "2",
                                    "--seeds", seeds])
        assert code == 1 and "usage error" in err and "--seeds" in err

    def test_numeric_failure_exit_code(self, ws, capsys, monkeypatch):
        def explode(args):
            raise FloatingPointError("overflow in factorization")

        monkeypatch.setattr(cli, "_cmd_sweep", explode)
        code, _, err = run(capsys, ["sweep", "--corpus", str(ws["corpus"]),
                                    "--method", "lsi", "--ks", "2"])
        assert code == 3
        assert "numerical failure" in err


class TestLdiInspect:
    def test_prints_vectors_and_neighbors(self, ws, capsys):
        code, out, _ = run(capsys, [
            "ldi", "inspect", "--corpus", str(ws["corpus"]),
            "--model", str(ws["lda_model"]),
            "--term", "enzyme", "--term", "warpdrive", "--top", "3"])
        assert code == 0
        assert "enzyme: [" in out and "nearest:" in out
        assert "warpdrive: not in vocabulary" in out

    def test_negative_top_fails_before_reading(self, tmp_path, capsys):
        code, _, err = run(capsys, [
            "ldi", "inspect", "--corpus", str(tmp_path / "absent"),
            "--model", str(tmp_path / "absent-model"),
            "--term", "enzyme", "--top", "-1"])
        assert code == 1 and "usage error" in err and "--top" in err

    def test_requires_topic_model_bundle(self, ws, capsys):
        code, _, err = run(capsys, [
            "ldi", "inspect", "--corpus", str(ws["corpus"]),
            "--model", str(ws["tfidf_model"]), "--term", "enzyme"])
        assert code == 2
        assert "lda model" in err


class TestParserReuse:
    """main builds its parser once per process; no call sees another's
    values."""

    def test_built_once_across_calls(self, ws, tmp_path, capsys):
        cli._build_parser.cache_clear()
        codes = [run(capsys, argv)[0] for argv in (
            ["eval", "--corpus", str(ws["corpus"]),
             "--scores", str(ws["tfidf_scores"])],
            ["train", "--corpus", str(ws["corpus"]), "--method", "tfidf",
             "--out", str(tmp_path / "m")],
            ["eval", "--corpus", str(ws["corpus"])],
            [])]
        assert codes == [0, 0, 1, 1]
        calls = cli._build_parser.cache_info()
        assert (calls.misses, calls.hits) == (1, 3)

    def test_corpus_builds_do_not_share_specs_or_names(self, ws, tmp_path,
                                                       capsys):
        spec2 = f"again={ws['docs']},{ws['queries']},{ws['qrels']}"
        assert run(capsys, ["corpus", "build", "--spec", ws["spec"],
                            "--spec", spec2, "--name", "both", "--no-stoplist",
                            "--out", str(tmp_path / "merged")])[0] == 0
        code, out, _ = run(capsys, ["corpus", "build", "--spec", spec2,
                                    "--out", str(tmp_path / "single")])
        assert code == 0
        assert "6 documents" in out
        single = load_corpus(tmp_path / "single")
        assert single.name == "again"
        assert "the" not in single.vocabulary
        assert load_corpus(tmp_path / "merged").n_docs == 12

    def test_train_k_does_not_carry_over(self, ws, tmp_path, capsys):
        argv = ["train", "--corpus", str(ws["corpus"]), "--method", "lsi",
                "--out", str(tmp_path / "m")]
        code, out, _ = run(capsys, [*argv, "--k", "2"])
        assert code == 0 and "k=2" in out
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "topic count" in err

    def test_usage_error_after_success_exits_1(self, ws, capsys):
        assert run(capsys, ["eval", "--corpus", str(ws["corpus"]),
                            "--scores", str(ws["tfidf_scores"])])[0] == 0
        code, _, err = run(capsys, ["eval", "--scores",
                                    str(ws["tfidf_scores"])])
        assert code == 1
        assert "usage error" in err and "--corpus" in err

    # every parser main can print help for, by its argv prefix
    @pytest.mark.parametrize("prefix", [
        [], ["corpus"], ["corpus", "build"], ["train"], ["score"], ["eval"],
        ["ensemble"], ["ensemble", "train"], ["ensemble", "apply"],
        ["ensemble", "crossval"], ["sweep"], ["ldi"], ["ldi", "inspect"],
    ], ids=lambda p: "-".join(p) or "ldikit")
    def test_help_equals_a_fresh_parser(self, ws, capsys, prefix):
        run(capsys, ["eval", "--corpus", str(ws["corpus"]),
                     "--scores", str(ws["tfidf_scores"])])
        with pytest.raises(SystemExit) as shown:
            cli.main([*prefix, "--help"])
        assert shown.value.code == 0
        text = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args([*prefix, "--help"])
        assert capsys.readouterr().out == text
        assert text.startswith(" ".join(["usage: ldikit", *prefix]))


def test_readme_commands_parse():
    # every ldikit line of the README's command-line block; globs such as
    # scores/*.bin stay literal, since parsing reads no files
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("ldikit ")]
    assert len(lines) >= 10
    parser = cli._build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except cli.UsageError as exc:
            pytest.fail(f"README line {line!r} does not parse: {exc}")


def test_readme_imports_resolve():
    # every `from ldikit... import ...` of the README's python blocks names
    # a module and attribute that exist; the blocks themselves never run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0]
              for part in readme.split("```python\n")[1:]]
    assert blocks
    checked = 0
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if not (isinstance(node, ast.ImportFrom)
                    and node.module.split(".")[0] == "ldikit"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"README imports {alias.name} from {node.module}"
                checked += 1
    assert checked >= 5


class TestEntryPoints:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1
        assert "usage error" in err

    def test_console_script_help(self):
        proc = subprocess.run(["ldikit", "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: ldikit")

    def test_module_help(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "ldikit", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: ldikit")

    @pytest.mark.parametrize("argv", [
        ["eval", "--scores", "{tfidf}"],
        ["ensemble", "train", "--scores", "{tfidf}", "{lda}"],
        ["ensemble", "crossval", "--scores", "{tfidf}", "{lda}"],
        ["sweep", "--method", "lsi", "--ks", "2"],
    ], ids=["eval", "ensemble-train", "ensemble-crossval", "sweep"])
    def test_json_report_creates_its_directory(self, ws, tmp_path, capsys,
                                               argv):
        out_path = tmp_path / "new" / "dir" / "report.json"
        argv = [a.format(tfidf=ws["tfidf_scores"], lda=ws["lda_scores"])
                for a in argv]
        code, _, err = run(capsys, [*argv, "--corpus", str(ws["corpus"]),
                                    "--out", str(out_path)])
        assert code == 0, err
        assert json.loads(out_path.read_text())

    def test_relative_outputs_land_under_out_dir(self, ws, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        code, _, _ = run(capsys, ["score", "--corpus", str(ws["corpus"]),
                                  "--model", str(ws["tfidf_model"]),
                                  "--out", "redirected/scores.bin"])
        assert code == 0
        assert (tmp_path / "redirected" / "scores.bin").exists()
